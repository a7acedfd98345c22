//! The experiment registry: the one list of everything committed under
//! `results/`.
//!
//! Each [`Experiment`] turns a [`Setup`] into a [`Plan`]: the jobs to
//! simulate and a renderer from their reports to the bytes of the file or
//! files it owns there. [`run_entries`] runs many plans as one pool, so a
//! run that two figures share is simulated once. The `reproduce` binary
//! runs entries by name, printing each one's first file, or runs every
//! entry at its committed [`scale`](Experiment::scale) to regenerate the
//! whole directory, which CI then byte-diffs with `git diff --exit-code`.

use std::path::PathBuf;
use std::time::Instant;

// The prelude every experiment module imports with `use super::*`.
use crate::table::{self, Text};
use crate::{Preset, Setup};
use cdpc_machine::{PolicyKind, RunReport, SweepJob};
use cdpc_workloads::Benchmark;

mod ablation;
mod analyze;
mod attrib;
mod dynamic;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod padding;
mod predict;
mod pressure;
mod table1;
mod table2;
mod victim;

/// One experiment and the files it owns in `results/`.
#[derive(Debug)]
pub struct Experiment {
    /// The name `reproduce <name>` selects it by.
    pub name: &'static str,
    /// The files it produces, in the order of [`Output::bytes`]; name mode
    /// prints the first.
    pub files: &'static [&'static str],
    /// The `--scale` its committed files were generated at.
    pub scale: u64,
    /// Declares the experiment's jobs and how it renders their reports.
    pub run: fn(&Setup) -> Plan<'_>,
}

type Reports = std::vec::IntoIter<RunReport>;

/// What one experiment needs simulated, and how it renders the result.
/// Entries with no jobs (table1, fig1, fig3–fig5, analyze, and attrib and
/// predict, whose own runs are probe-observed) do their work up front.
pub struct Plan<'a> {
    /// The runs the renderer reads, in the order it reads them.
    pub jobs: Vec<SweepJob>,
    render: Box<dyn FnOnce(&mut Reports) -> Output + 'a>,
}

impl<'a> Plan<'a> {
    fn new(jobs: Vec<SweepJob>, render: impl FnOnce(&mut Reports) -> Output + 'a) -> Self {
        let render = Box::new(render);
        Plan { jobs, render }
    }
}

impl From<Output> for Plan<'_> {
    fn from(out: Output) -> Self {
        Plan::new(Vec::new(), |_| out)
    }
}

/// What one experiment run produced.
#[derive(Debug)]
pub struct Output {
    /// The contents of each of [`Experiment::files`], in order.
    pub bytes: Vec<String>,
    /// Set when the experiment's own gate failed (prover false negatives,
    /// unallowed lint errors); `reproduce` then exits 1 after writing.
    pub failure: Option<String>,
}

impl Output {
    /// A single text file and no gate.
    fn text(out: Text) -> Self {
        Output {
            bytes: vec![out.0],
            failure: None,
        }
    }
}

macro_rules! registry {
    ($($name:ident: [$($file:literal),+] @ $scale:literal),+ $(,)?) => {
        /// Every experiment, in the order `reproduce` runs them.
        pub const REGISTRY: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            files: &[$($file),+],
            scale: $scale,
            run: $name::run,
        }),+];
    };
}

registry! {
    table1: ["table1.txt"] @ 8,
    fig1: ["fig1.txt"] @ 8,
    fig2: ["fig2.txt"] @ 8,
    fig3: ["fig3.txt"] @ 8,
    fig4: ["fig4.txt"] @ 8,
    fig5: ["fig5.txt"] @ 8,
    fig6: ["fig6.txt"] @ 8,
    fig7: ["fig7.txt"] @ 8,
    fig8: ["fig8.txt"] @ 8,
    fig9: ["fig9.txt"] @ 8,
    table2: ["table2.txt"] @ 8,
    ablation: ["ablation.txt"] @ 8,
    dynamic: ["dynamic.txt"] @ 8,
    padding: ["padding.txt"] @ 8,
    pressure: ["pressure.txt"] @ 8,
    victim: ["victim.txt"] @ 8,
    attrib: ["attrib_tomcatv_4p_quick.json", "attrib_tomcatv_4p_quick.html"] @ 64,
    analyze: ["lint_report.json"] @ 8,
    predict: ["predict_report.json", "predict.sarif"] @ 64,
}

/// The workload models called `names`.
fn benches(names: &[&str]) -> Vec<Benchmark> {
    names
        .iter()
        .map(|&name| cdpc_workloads::by_name(name).expect("benchmark exists"))
        .collect()
}

/// The jobs that run each `(policy, prefetch, aligned)` config for every
/// benchmark at every CPU count on every preset, in that nesting order
/// (presets outermost).
fn sweep(
    setup: &Setup,
    presets: &[Preset],
    benches: &[Benchmark],
    cpu_counts: &[usize],
    configs: &[(PolicyKind, bool, bool)],
) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for &preset in presets {
        for bench in benches {
            for &cpus in cpu_counts {
                for &(policy, prefetch, aligned) in configs {
                    jobs.push(setup.job(bench, preset, cpus, policy, prefetch, aligned));
                }
            }
        }
    }
    jobs
}

/// Runs `entries` on `setup` with one [`Setup::run_jobs`] call over all
/// their jobs, whose memo simulates each distinct run once, and renders
/// each entry from its own slice of the reports. Prints the scale, job
/// count and wall time on stderr.
pub fn run_entries(setup: &Setup, entries: &[&Experiment]) -> Vec<Output> {
    let start = Instant::now();
    let plans: Vec<Plan> = entries.iter().map(|e| (e.run)(setup)).collect();
    let jobs: Vec<SweepJob> = plans.iter().flat_map(|p| p.jobs.clone()).collect();
    let mut reports = setup.run_jobs(&jobs).into_iter();
    let secs = start.elapsed().as_secs_f64();
    eprintln!("scale {}: {} jobs in {secs:.1} s", setup.scale, jobs.len());
    let mut outputs = Vec::new();
    for (plan, e) in plans.into_iter().zip(entries) {
        let n = plan.jobs.len();
        let mut own = reports.by_ref().take(n).collect::<Vec<_>>().into_iter();
        outputs.push((plan.render)(&mut own));
        assert_eq!(own.len(), 0, "{} left reports unread", e.name);
    }
    outputs
}

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The `results/` directory of the checkout this crate was built from.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}
