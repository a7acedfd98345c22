//! The benchmark's four workloads: which sweep points each runs, at what
//! scale and fan-out, and how a seed permutes their submission order.

use cdpc_bench::{Preset, Setup};
use cdpc_machine::{PolicyKind, RunReport, SweepJob};
use cdpc_obs::SplitMix64;

/// One sweep point: a workload model on one machine under one policy.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Full SPEC-style benchmark name (`"101.tomcatv"`).
    pub bench: &'static str,
    pub cpus: usize,
    pub policy: PolicyKind,
    pub prefetch: bool,
    /// Conflict misses before a page moves (dynamic recoloring only).
    pub recolor_threshold: Option<u32>,
}

impl JobSpec {
    fn new(bench: &'static str, cpus: usize, policy: PolicyKind) -> Self {
        JobSpec {
            bench,
            cpus,
            policy,
            prefetch: false,
            recolor_threshold: None,
        }
    }

    /// A stable name for golden files and traces, e.g. `tomcatv-8p-cdpc+pf`.
    pub fn label(&self) -> String {
        let short = self.bench.split('.').nth(1).unwrap_or(self.bench);
        let mut label = format!("{short}-{}p-{}", self.cpus, self.policy.label());
        if self.prefetch {
            label.push_str("+pf");
        }
        if let Some(t) = self.recolor_threshold {
            label.push_str(&format!("-t{t}"));
        }
        label
    }

    /// Builds the job exactly as the figure binaries do: through
    /// `Setup::job` on the base machine with aligned layouts.
    pub fn job(&self, setup: &Setup) -> SweepJob {
        let bench = cdpc_workloads::by_name(self.bench).expect("workload names are fixed");
        let mut job = setup.job(
            &bench,
            Preset::Base1MbDm,
            self.cpus,
            self.policy,
            self.prefetch,
            true,
        );
        if let Some(t) = self.recolor_threshold {
            job.cfg.recolor_threshold = t;
        }
        job
    }
}

/// A set of sweep points measured together.
pub struct Workload {
    pub name: &'static str,
    pub scale: u64,
    /// Upper bound on sweep worker threads; the host's core count caps it
    /// further.
    pub max_threads: usize,
    /// How often the traced run repeats each timed step (median kept).
    pub trace_reps: usize,
    /// The sweep points in canonical order.
    pub jobs: Vec<JobSpec>,
}

impl Workload {
    /// Sweep worker threads on this host.
    pub fn threads(&self) -> usize {
        self.max_threads.min(cdpc_machine::default_threads()).max(1)
    }

    /// Builds a fresh setup and every job, submitted in the order `seed`
    /// picks. This is the work `setup_s` times.
    pub fn prepare(&self, scale: u64, seed: u64) -> Prepared {
        let mut setup = Setup::with_scale(scale);
        setup.threads = self.threads();
        // `Setup::with_scale` never reads `CDPC_CACHE_DIR`; keep the
        // persistent cache off regardless so every pass simulates.
        setup.cache = None;
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let jobs = order.iter().map(|&i| self.jobs[i].job(&setup)).collect();
        Prepared { setup, jobs, order }
    }
}

/// A workload ready to run: `jobs[i]` is canonical job `order[i]`.
pub struct Prepared {
    pub setup: Setup,
    pub jobs: Vec<SweepJob>,
    pub order: Vec<usize>,
}

impl Prepared {
    /// Puts reports (or anything else per submitted job) back into
    /// canonical order.
    pub fn canonical<T>(&self, submitted: Vec<T>) -> Vec<T> {
        let mut slots: Vec<Option<T>> = (0..submitted.len()).map(|_| None).collect();
        for (item, &i) in submitted.into_iter().zip(&self.order) {
            slots[i] = Some(item);
        }
        slots
            .into_iter()
            .map(|s| s.expect("order is a permutation"))
            .collect()
    }

    /// Runs every job once through the sweep entry point every figure
    /// binary uses; reports come back in canonical order.
    pub fn run(&self) -> Vec<RunReport> {
        self.canonical(self.setup.run_jobs(&self.jobs))
    }
}

/// Every workload, in the order the no-`--workload` mode runs them.
pub fn all() -> Vec<Workload> {
    use PolicyKind::{Cdpc, DynamicRecolor, PageColoring};
    let mut fig6 = Vec::new();
    for bench in cdpc_workloads::all() {
        for cpus in [1, 2, 4, 8, 16] {
            for policy in [PageColoring, Cdpc] {
                fig6.push(JobSpec::new(bench.name, cpus, policy));
            }
        }
    }
    let conflict = ["101.tomcatv", "102.swim", "125.turb3d"]
        .map(|b| JobSpec::new(b, 16, PageColoring))
        .to_vec();
    let mut resident = Vec::new();
    for bench in ["104.hydro2d", "107.mgrid"] {
        for cpus in [8, 16] {
            resident.push(JobSpec::new(bench, cpus, Cdpc));
        }
    }
    let mut prefetch = Vec::new();
    for bench in ["101.tomcatv", "102.swim", "104.hydro2d", "103.su2cor"] {
        for policy in [Cdpc, PageColoring] {
            prefetch.push(JobSpec {
                prefetch: true,
                ..JobSpec::new(bench, 8, policy)
            });
        }
        for t in [16, 64] {
            prefetch.push(JobSpec {
                recolor_threshold: Some(t),
                ..JobSpec::new(bench, 8, DynamicRecolor)
            });
        }
    }
    vec![
        Workload {
            name: "fig6_sweep",
            scale: 8,
            max_threads: 2,
            // A hundred jobs already average out per-step noise.
            trace_reps: 1,
            jobs: fig6,
        },
        Workload {
            name: "conflict_16p",
            scale: 2,
            max_threads: 1,
            trace_reps: 3,
            jobs: conflict,
        },
        Workload {
            name: "l2_resident",
            scale: 1,
            max_threads: 1,
            trace_reps: 3,
            jobs: resident,
        },
        Workload {
            name: "prefetch_recolor",
            scale: 4,
            max_threads: 1,
            trace_reps: 3,
            jobs: prefetch,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
