//! Experiment harness: the [`experiments`] registry that regenerates every
//! table and figure of the paper (see `DESIGN.md` section 4 for the
//! experiment index and `EXPERIMENTS.md` for recorded results), and the
//! shared [`Setup`] it runs on.
//!
//! Run one experiment, or regenerate all of `results/`, with:
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin reproduce -- fig6
//! cargo run --release -p cdpc-bench --bin reproduce -- fig6 --scale 4   # bigger machine
//! cargo run --release -p cdpc-bench --bin reproduce -- --threads 2      # every file in results/
//! ```
//!
//! All experiments accept `--scale <power-of-two>` (default 8): data sets,
//! caches, and TLBs shrink together, preserving every data:cache ratio
//! while keeping runs fast (the paper faces the same wall — full-detail
//! SPEC95fp simulation "would take more than one year" — and answers with
//! representative execution windows; we window *and* scale).
//!
//! Every experiment also accepts the observability flags (see
//! [`ObsOptions`]): `--json <path>` exports every run report as JSON,
//! `--trace <path>` writes a Chrome-trace-event timeline loadable in
//! Perfetto, `--series <path>` writes an interval-metrics CSV, and
//! `--sample-interval <cycles>` sets the series' window length.
//! `--attrib <path>` writes a per-array/per-color miss-attribution JSON
//! report plus a self-contained HTML rendering next to it, and `--top`
//! prints the attribution's terminal summary after each run. The `inspect`
//! binary runs a single (benchmark, CPU count, policy) combination.
//!
//! Two analysis flags hook in the `cdpc-analyze` crate: `--lint` runs the
//! static lints on every compiled workload (failing on unallowed `Error`
//! diagnostics), and `--sanitize` shadows every simulation with the
//! fail-fast MESI coherence sanitizer. The `analyze` entry lints the whole
//! workload suite into a JSON report.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cdpc_analyze::SanitizerProbe;
use cdpc_compiler::ir::Program;
use cdpc_compiler::{compile, CompileOptions, CompiledProgram};
use cdpc_machine::{
    attribution_probe, attribution_to_html, attribution_to_json, render_attribution_top,
    report_to_json, run_observed, run_sweep_memo, sweep_map, PolicyKind, ResultCache, RunConfig,
    RunReport, SweepJob,
};
use cdpc_memsim::{CacheConfig, MemConfig};
use cdpc_obs::{AttributionProbe, IntervalSeries, JsonValue, TraceProbe};
use cdpc_workloads::spec::Scale;
use cdpc_workloads::Benchmark;

pub mod experiments;

/// The machine presets used by the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// 1 MB direct-mapped external cache (base SimOS machine, Figures 2-6).
    Base1MbDm,
    /// 1 MB two-way set-associative external cache (Figure 7 left).
    TwoWay1Mb,
    /// 4 MB direct-mapped external cache (Figure 7 right).
    FourMbDm,
    /// AlphaServer 8400: 350 MHz CPUs, 4 MB direct-mapped (Figure 9,
    /// Table 2).
    Alpha,
}

impl Preset {
    /// The unscaled memory configuration for `cpus` processors.
    pub fn mem(self, cpus: usize) -> MemConfig {
        match self {
            Preset::Base1MbDm => MemConfig::paper_base(cpus),
            Preset::TwoWay1Mb => MemConfig::paper_2way(cpus),
            Preset::FourMbDm => MemConfig::paper_4mb(cpus),
            Preset::Alpha => MemConfig::alphaserver(cpus),
        }
    }
}

/// Window length used for `--series` when `--sample-interval` is absent.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 10_000;

const FLAG_USAGE: &str = "supported flags: --scale N, --full, --threads N (0 = auto), \
                          --cache <dir>, --no-cache, --lint, --sanitize, --json <path>, \
                          --trace <path>, --series <path>, --sample-interval <cycles>, --attrib <path>, --top";

/// Observability outputs requested on the command line, shared by every
/// experiment via [`Setup::from_args_with_positionals`].
///
/// One invocation may execute many simulation runs (a figure sweeps
/// benchmarks × policies). The JSON file is rewritten after every run with
/// all reports so far (`{"runs": [...]}`); trace and series files are
/// written per run, with a `-N` suffix inserted before the extension for
/// runs after the first.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// `--json <path>`: run reports as one JSON document.
    pub json: Option<PathBuf>,
    /// `--trace <path>`: Chrome-trace-event timeline (load in Perfetto or
    /// `chrome://tracing`).
    pub trace: Option<PathBuf>,
    /// `--series <path>`: interval-metrics CSV time series.
    pub series: Option<PathBuf>,
    /// `--sample-interval <cycles>`: window length for interval sampling
    /// ([`DEFAULT_SAMPLE_INTERVAL`] when only `--series` is given).
    pub sample_interval: Option<u64>,
    /// `--attrib <path>`: per-array/per-color miss-attribution report.
    /// Writes the JSON document at `path` and a self-contained HTML
    /// rendering next to it (same stem, `.html` extension).
    pub attrib: Option<PathBuf>,
    /// `--top`: print a terminal miss-attribution summary (totals by
    /// class, worst `(array, color)` conflict cells, histograms) after
    /// each run. Implies attribution collection even without `--attrib`.
    pub top: bool,
    /// Reports exported so far in this process (backs the JSON document).
    reports: RefCell<Vec<JsonValue>>,
    /// Runs recorded so far in this process (numbers the output files).
    runs: Cell<usize>,
}

impl ObsOptions {
    /// True when any observability output was requested — the signal for
    /// [`Setup::run_bench`] to switch from `run` to `run_observed`.
    pub fn active(&self) -> bool {
        self.json.is_some() || self.probes_needed()
    }

    /// True when an output needs an in-simulation observer (probe or
    /// sampler). `--json` alone does *not*: the JSON document is rendered
    /// from the finished [`RunReport`]s, so those runs stay eligible for
    /// the memoized sweep and the persistent result cache.
    pub fn probes_needed(&self) -> bool {
        self.trace.is_some()
            || self.series.is_some()
            || self.sample_interval.is_some()
            || self.attribution()
    }

    /// True when miss attribution should be collected (`--attrib` or
    /// `--top`).
    pub fn attribution(&self) -> bool {
        self.attrib.is_some() || self.top
    }

    /// The sampling window to run with, if interval sampling applies.
    pub fn sampling(&self) -> Option<u64> {
        match (self.sample_interval, &self.series) {
            (Some(n), _) => Some(n),
            (None, Some(_)) => Some(DEFAULT_SAMPLE_INTERVAL),
            (None, None) => None,
        }
    }

    /// Records one finished run: extends and rewrites the JSON document,
    /// and writes this run's series CSV, trace, and attribution files.
    /// `attrib` pairs the run's attribution probe with the array names of
    /// the compiled program it observed.
    pub fn record(
        &self,
        report: &RunReport,
        series: Option<&IntervalSeries>,
        trace: Option<&TraceProbe>,
        attrib: Option<(&AttributionProbe, &[String])>,
    ) {
        let idx = self.runs.get();
        self.runs.set(idx + 1);
        if let Some(path) = &self.json {
            self.reports.borrow_mut().push(report_to_json(report));
            let mut doc = JsonValue::object();
            doc.push("runs", JsonValue::Array(self.reports.borrow().clone()));
            write_text(path, &doc.to_string_pretty());
        }
        if let (Some(path), Some(series)) = (&self.series, series) {
            write_text(&numbered(path, idx), &series.to_csv());
        }
        if let (Some(path), Some(trace)) = (&self.trace, trace) {
            write_text(&numbered(path, idx), &trace.to_chrome_trace());
        }
        if let Some((probe, names)) = attrib {
            let doc = attribution_to_json(probe, names, report);
            if self.top {
                print!("{}", render_attribution_top(&doc, 10));
            }
            if let Some(path) = &self.attrib {
                let path = numbered(path, idx);
                write_text(&path, &doc.to_string_pretty());
                write_text(&path.with_extension("html"), &attribution_to_html(&doc));
            }
        }
    }
}

/// `path` for run 0, `stem-N.ext` for later runs.
fn numbered(path: &Path, idx: usize) -> PathBuf {
    if idx == 0 {
        return path.to_path_buf();
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-{idx}.{ext}"),
        None => format!("{stem}-{idx}"),
    };
    path.with_file_name(name)
}

/// Writes an output file; on failure exits through [`exit_with_error`].
pub fn write_text(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        exit_with_error(format_args!("cannot write `{}`: {e}", path.display()));
    }
}

/// Prints `error: <msg>` as one line on stderr and exits with status 2:
/// the outcome of every malformed command line and unwritable output path.
pub fn exit_with_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// One experiment configuration: scale, observability outputs, and derived
/// machine parameters.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Power-of-two divisor applied to data sets, caches, and TLBs.
    pub scale: u64,
    /// Worker threads for [`run_jobs`](Self::run_jobs) (`--threads N`;
    /// defaults to the host's available parallelism). Reports are
    /// bit-identical for every value.
    pub threads: usize,
    /// Observability outputs for [`run_bench`](Self::run_bench).
    pub obs: ObsOptions,
    /// `--lint`: run the `cdpc-analyze` static lints on every program
    /// compiled through [`compile_bench`](Self::compile_bench), printing
    /// diagnostics and panicking on unallowed `Error`s.
    pub lint: bool,
    /// `--sanitize`: shadow every simulation with a
    /// [`SanitizerProbe`](cdpc_analyze::SanitizerProbe) (fail-fast MESI
    /// invariant checks) and validate coherence at phase boundaries.
    pub sanitize: bool,
    /// `--cache <dir>` (or the `CDPC_CACHE_DIR` environment variable):
    /// root of the persistent content-addressed result cache consulted by
    /// [`run_jobs`](Self::run_jobs) for jobs without observation
    /// side-effects. `--no-cache` clears it. `None` (the default) keeps
    /// everything in-process.
    pub cache: Option<PathBuf>,
    /// Per-setup compilation memo: each `(benchmark, preset, cpus,
    /// prefetch, aligned)` cell compiles once per process and every sweep
    /// point that runs it shares the `Arc`.
    compiled: RefCell<HashMap<String, Arc<CompiledProgram>>>,
}

impl Default for Setup {
    fn default() -> Self {
        Setup::with_scale(8)
    }
}

impl Setup {
    /// A setup at the given scale with no observability outputs.
    pub fn with_scale(scale: u64) -> Self {
        Setup {
            scale,
            threads: cdpc_machine::default_threads(),
            obs: ObsOptions::default(),
            lint: false,
            sanitize: false,
            cache: None,
            compiled: RefCell::new(HashMap::new()),
        }
    }

    /// Parses the shared flags (`--scale N`, `--full`, and the
    /// [`ObsOptions`] flags) from command-line arguments, defaulting to
    /// scale 8, and collects the non-flag arguments (experiment names for
    /// `reproduce`, the run for `inspect`).
    ///
    /// Malformed or unknown flags exit with status 2 and a one-line
    /// message (see [`exit_with_error`]).
    pub fn from_args_with_positionals() -> (Self, Vec<String>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut setup = Setup {
            // Ambient cache root, overridable by --cache / --no-cache below.
            cache: std::env::var_os("CDPC_CACHE_DIR").map(PathBuf::from),
            ..Setup::default()
        };
        let mut positional = Vec::new();
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    exit_with_error(format_args!("{flag} needs a value ({FLAG_USAGE})"))
                })
                .clone()
        };
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    let v = value(&args, i, "--scale")
                        .parse::<u64>()
                        .ok()
                        .filter(|v| v.is_power_of_two())
                        .unwrap_or_else(|| exit_with_error("--scale needs a power-of-two value"));
                    setup.scale = v;
                    i += 2;
                }
                "--full" => {
                    setup.scale = 1;
                    i += 1;
                }
                "--threads" => {
                    let v = value(&args, i, "--threads")
                        .parse::<usize>()
                        .unwrap_or_else(|_| {
                            exit_with_error("--threads needs a thread count (0 = auto)")
                        });
                    // 0 = auto-detect the host's available parallelism.
                    setup.threads = if v == 0 {
                        cdpc_machine::default_threads()
                    } else {
                        v
                    };
                    i += 2;
                }
                "--cache" => {
                    setup.cache = Some(PathBuf::from(value(&args, i, "--cache")));
                    i += 2;
                }
                "--no-cache" => {
                    setup.cache = None;
                    i += 1;
                }
                "--lint" => {
                    setup.lint = true;
                    i += 1;
                }
                "--sanitize" => {
                    setup.sanitize = true;
                    i += 1;
                }
                "--json" => {
                    setup.obs.json = Some(PathBuf::from(value(&args, i, "--json")));
                    i += 2;
                }
                "--trace" => {
                    setup.obs.trace = Some(PathBuf::from(value(&args, i, "--trace")));
                    i += 2;
                }
                "--series" => {
                    setup.obs.series = Some(PathBuf::from(value(&args, i, "--series")));
                    i += 2;
                }
                "--attrib" => {
                    setup.obs.attrib = Some(PathBuf::from(value(&args, i, "--attrib")));
                    i += 2;
                }
                "--top" => {
                    setup.obs.top = true;
                    i += 1;
                }
                "--sample-interval" => {
                    let v = value(&args, i, "--sample-interval")
                        .parse::<u64>()
                        .ok()
                        .filter(|&v| v > 0)
                        .unwrap_or_else(|| {
                            exit_with_error("--sample-interval needs a positive cycle count")
                        });
                    setup.obs.sample_interval = Some(v);
                    i += 2;
                }
                other => {
                    if other.starts_with("--") {
                        exit_with_error(format_args!("unknown flag `{other}` ({FLAG_USAGE})"));
                    }
                    positional.push(other.to_string());
                    i += 1;
                }
            }
        }
        (setup, positional)
    }

    /// The workload scale.
    pub fn workload_scale(&self) -> Scale {
        Scale::new(self.scale)
    }

    /// Scales a machine preset: L1s, L2, and TLB shrink with the data.
    pub fn scaled_mem(&self, preset: Preset, cpus: usize) -> MemConfig {
        let mut m = preset.mem(cpus);
        if self.scale > 1 {
            let f = self.scale as usize;
            m.l2 = m.l2.scaled_down(f);
            m.l1d = scale_l1(m.l1d, f);
            m.l1i = scale_l1(m.l1i, f);
            m.tlb_entries = (m.tlb_entries / f).max(8);
        }
        m
    }

    /// Compiles one benchmark for a preset.
    ///
    /// Compilation is memoized per `(benchmark, preset, cpus, prefetch,
    /// aligned)` within this setup: a figure sweep that runs the same
    /// workload under every policy and CPU count compiles it once and
    /// shares the `Arc` across all its [`SweepJob`]s.
    pub fn compile_bench(
        &self,
        bench: &Benchmark,
        preset: Preset,
        cpus: usize,
        prefetch: bool,
        aligned: bool,
    ) -> Arc<CompiledProgram> {
        let key = format!("{}/{preset:?}/{cpus}/{prefetch}/{aligned}", bench.name);
        if let Some(hit) = self.compiled.borrow().get(&key) {
            return Arc::clone(hit);
        }
        let program = (bench.build)(self.workload_scale());
        let mem = self.scaled_mem(preset, cpus);
        let mut opts = CompileOptions::new(cpus).with_l2_cache(mem.l2.size_bytes() as u64);
        opts.prefetch = prefetch;
        opts.aligned = aligned;
        opts.l1_cache_bytes = mem.l1d.size_bytes() as u64;
        if self.lint {
            let report = lint_program(&program, &opts, &mem);
            if !report.diagnostics.is_empty() {
                eprint!("{}", report.render());
            }
            if report.has_errors() {
                exit_with_error(format_args!(
                    "`{}` failed lints (diagnostics above); annotate the model with \
                     `allow_lint` if the behavior is intended",
                    program.name
                ));
            }
        }
        let compiled = Arc::new(compile(&program, &opts).expect("workload models always compile"));
        self.compiled
            .borrow_mut()
            .insert(key, Arc::clone(&compiled));
        compiled
    }

    /// Compiles one benchmark into a [`SweepJob`] for
    /// [`run_jobs`](Self::run_jobs). Callers may tweak the returned
    /// `job.cfg` (hint options, hog fraction, victim-cache size, ...)
    /// before queueing it.
    pub fn job(
        &self,
        bench: &Benchmark,
        preset: Preset,
        cpus: usize,
        policy: PolicyKind,
        prefetch: bool,
        aligned: bool,
    ) -> SweepJob {
        let compiled = self.compile_bench(bench, preset, cpus, prefetch, aligned);
        let mut cfg = RunConfig::new(self.scaled_mem(preset, cpus), policy);
        cfg.validate_coherence = self.sanitize;
        SweepJob::new(compiled, cfg)
    }

    /// Runs a batch of jobs across [`Setup::threads`] workers, returning
    /// reports in input order.
    ///
    /// With no observability outputs this is
    /// [`run_sweep_memo`](cdpc_machine::run_sweep_memo): pure simulation
    /// fan-out with content-addressed memoization (in-sweep dedup and —
    /// when [`Setup::cache`] is set — the persistent result cache),
    /// bit-identical to the unmemoized sweep for any thread count. With a
    /// cache attached, the [`SweepCacheStats`](cdpc_obs::SweepCacheStats)
    /// summary is printed to stderr (stdout stays byte-identical for the golden diffs).
    ///
    /// When [`ObsOptions`] flags are set, execution itself is the product
    /// (traces, series, attribution), so every job bypasses the cache:
    /// each worker runs [`run_observed`](cdpc_machine::run_observed) with
    /// its own probe, and the files are recorded on the calling thread in
    /// input order afterwards — so file contents and numbering are also
    /// independent of the thread count.
    /// With `--sanitize`, every run is additionally shadowed by a
    /// fail-fast [`SanitizerProbe`](cdpc_analyze::SanitizerProbe)
    /// (composed with the trace probe when both are requested), so a MESI
    /// invariant violation aborts the experiment at the offending event.
    pub fn run_jobs(&self, jobs: &[SweepJob]) -> Vec<RunReport> {
        if !self.obs.probes_needed() && !self.sanitize {
            let cache = self.cache.as_deref().map(ResultCache::new);
            let (reports, stats) = run_sweep_memo(jobs, self.threads, cache.as_ref());
            if cache.is_some() {
                eprintln!("[cdpc-cache] {}", stats.summary_line());
            }
            // `--json` is report-rendered, not probe-observed, so cached
            // and deduped runs export exactly like fresh ones.
            if self.obs.active() {
                for report in &reports {
                    self.obs.record(report, None, None, None);
                }
            }
            return reports;
        }
        let interval = self.obs.sampling();
        let want_trace = self.obs.trace.is_some();
        let want_attrib = self.obs.attribution();
        let sanitize = self.sanitize;
        let results = sweep_map(jobs, self.threads, |job| {
            let cpus = job.cfg.mem.num_cpus;
            // Compose the requested sinks as a tuple of `Option<Probe>`s:
            // `None` slots are no-ops the optimizer removes, so one code
            // path covers all eight on/off combinations.
            let mut probe = (
                sanitize.then(|| SanitizerProbe::new(cpus)),
                want_trace.then(TraceProbe::new),
                want_attrib.then(|| attribution_probe(&job.compiled, &job.cfg)),
            );
            let (report, series) = run_observed(&job.compiled, &job.cfg, &mut probe, interval);
            (report, series, probe.1, probe.2)
        });
        results
            .into_iter()
            .zip(jobs)
            .map(|((report, series, trace, attrib), job)| {
                if self.obs.active() {
                    let names;
                    let attrib = match &attrib {
                        Some(probe) => {
                            names = job.compiled.array_names();
                            Some((probe, names.as_slice()))
                        }
                        None => None,
                    };
                    self.obs
                        .record(&report, series.as_ref(), trace.as_ref(), attrib);
                }
                report
            })
            .collect()
    }

    /// Compiles and runs one benchmark under one policy (a one-job
    /// [`run_jobs`](Self::run_jobs)).
    pub fn run_bench(
        &self,
        bench: &Benchmark,
        preset: Preset,
        cpus: usize,
        policy: PolicyKind,
        prefetch: bool,
        aligned: bool,
    ) -> RunReport {
        let job = self.job(bench, preset, cpus, policy, prefetch, aligned);
        self.run_jobs(std::slice::from_ref(&job))
            .pop()
            .expect("one job yields one report")
    }
}

/// Runs the `cdpc-analyze` static lints on a workload model as `opts`
/// would compile it for the `mem` machine — the shared entry point of the
/// `--lint` flag and the `analyze` experiment.
pub fn lint_program(
    program: &Program,
    opts: &CompileOptions,
    mem: &MemConfig,
) -> cdpc_analyze::Report {
    cdpc_analyze::analyze_program(program, opts, &cdpc_analyze::MachineModel::from_mem(mem))
}

fn scale_l1(l1: CacheConfig, f: usize) -> CacheConfig {
    // Keep at least 8 sets so associativity still means something.
    let min = l1.line_bytes() * l1.associativity() * 8;
    CacheConfig::new(
        (l1.size_bytes() / f).max(min),
        l1.line_bytes(),
        l1.associativity(),
    )
}

/// Text-table helpers shared by the experiments.
pub mod table {
    /// An experiment's text output. Its inherent `write_fmt` makes
    /// `write!`/`writeln!` append to it with no `Result` to handle.
    #[derive(Debug, Default)]
    pub struct Text(pub String);

    impl Text {
        /// Appends formatted text (the method `write!` expands to).
        pub fn write_fmt(&mut self, args: std::fmt::Arguments) {
            std::fmt::Write::write_fmt(&mut self.0, args).expect("a String accepts any write");
        }
    }

    /// Writes a header row followed by a rule.
    pub fn header(out: &mut Text, cols: &[&str], widths: &[usize]) {
        let mut line = String::new();
        for (c, w) in cols.iter().zip(widths) {
            line.push_str(&format!("{c:>w$} "));
        }
        writeln!(out, "{line}");
        writeln!(out, "{}", "-".repeat(line.len()));
    }

    /// Formats a ratio to two decimals with an `x` suffix.
    pub fn ratio(r: f64) -> String {
        format!("{r:.2}x")
    }

    /// Formats a fraction as a percentage.
    pub fn pct(f: f64) -> String {
        format!("{:.1}%", f * 100.0)
    }

    /// Formats cycle counts in engineering notation.
    pub fn cycles(c: u64) -> String {
        if c >= 1_000_000_000 {
            format!("{:.2}G", c as f64 / 1e9)
        } else if c >= 1_000_000 {
            format!("{:.2}M", c as f64 / 1e6)
        } else if c >= 1_000 {
            format!("{:.1}k", c as f64 / 1e3)
        } else {
            c.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_machines() {
        assert_eq!(Preset::Base1MbDm.mem(4).l2.size_bytes(), 1 << 20);
        assert_eq!(Preset::TwoWay1Mb.mem(4).l2.associativity(), 2);
        assert_eq!(Preset::FourMbDm.mem(4).l2.size_bytes(), 4 << 20);
        assert_eq!(Preset::Alpha.mem(4).cpu_mhz, 350);
    }

    #[test]
    fn scaling_shrinks_caches_with_floors() {
        let s = Setup::with_scale(8);
        let m = s.scaled_mem(Preset::Base1MbDm, 2);
        assert_eq!(m.l2.size_bytes(), 128 << 10);
        assert_eq!(m.l1d.size_bytes(), 4 << 10);
        assert_eq!(m.tlb_entries, 8);
        // Extreme scale: floors kick in.
        let s = Setup::with_scale(1024);
        let m = s.scaled_mem(Preset::Base1MbDm, 2);
        assert!(m.l1d.size_bytes() >= m.l1d.line_bytes() * m.l1d.associativity() * 8);
    }

    #[test]
    fn run_bench_produces_report() {
        let s = Setup::with_scale(64);
        let bench = cdpc_workloads::by_name("hydro2d").unwrap();
        let r = s.run_bench(&bench, Preset::Base1MbDm, 2, PolicyKind::Cdpc, false, true);
        assert!(r.instructions > 0);
        assert_eq!(r.policy, "cdpc");
    }

    #[test]
    fn sanitized_linted_run_matches_plain() {
        // --lint --sanitize must not perturb the simulation: same report,
        // no sanitizer violation, no lint failure on a real workload.
        let plain = Setup::with_scale(64);
        let mut checked = Setup::with_scale(64);
        checked.lint = true;
        checked.sanitize = true;
        let bench = cdpc_workloads::by_name("swim").unwrap();
        let a = plain.run_bench(&bench, Preset::Base1MbDm, 4, PolicyKind::Cdpc, false, true);
        let b = checked.run_bench(&bench, Preset::Base1MbDm, 4, PolicyKind::Cdpc, false, true);
        assert_eq!(a, b);
    }

    #[test]
    fn obs_sampling_defaults_only_with_series() {
        let mut obs = ObsOptions::default();
        assert!(!obs.active());
        assert_eq!(obs.sampling(), None);
        obs.series = Some(PathBuf::from("series.csv"));
        assert!(obs.active());
        assert_eq!(obs.sampling(), Some(DEFAULT_SAMPLE_INTERVAL));
        obs.sample_interval = Some(2_500);
        assert_eq!(obs.sampling(), Some(2_500));
    }

    #[test]
    fn numbered_suffixes_later_runs() {
        let p = PathBuf::from("/tmp/out.json");
        assert_eq!(numbered(&p, 0), PathBuf::from("/tmp/out.json"));
        assert_eq!(numbered(&p, 2), PathBuf::from("/tmp/out-2.json"));
        let bare = PathBuf::from("trace");
        assert_eq!(numbered(&bare, 1), PathBuf::from("trace-1"));
    }

    #[test]
    fn observed_run_bench_writes_outputs() {
        let dir = std::env::temp_dir().join(format!("cdpc-bench-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Setup::with_scale(64);
        s.obs.json = Some(dir.join("runs.json"));
        s.obs.trace = Some(dir.join("trace.json"));
        s.obs.series = Some(dir.join("series.csv"));
        let bench = cdpc_workloads::by_name("hydro2d").unwrap();
        let plain = Setup::with_scale(64).run_bench(
            &bench,
            Preset::Base1MbDm,
            2,
            PolicyKind::Cdpc,
            false,
            true,
        );
        let observed = s.run_bench(&bench, Preset::Base1MbDm, 2, PolicyKind::Cdpc, false, true);
        assert_eq!(plain, observed, "observability must not change results");
        // Second run: JSON grows, per-run files get a suffix.
        s.run_bench(
            &bench,
            Preset::Base1MbDm,
            2,
            PolicyKind::PageColoring,
            false,
            true,
        );

        let doc = JsonValue::parse(&std::fs::read_to_string(dir.join("runs.json")).unwrap())
            .expect("exported JSON must parse");
        let runs = doc.get("runs").and_then(|r| r.as_array()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("policy").and_then(|p| p.as_str()), Some("cdpc"));
        let csv = std::fs::read_to_string(dir.join("series.csv")).unwrap();
        assert!(csv.lines().count() > 1, "series has header plus windows");
        let trace =
            JsonValue::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
        assert!(trace.get("traceEvents").is_some());
        assert!(dir.join("series-1.csv").exists());
        assert!(dir.join("trace-1.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attribution_run_bench_writes_json_and_html() {
        let dir = std::env::temp_dir().join(format!("cdpc-bench-attrib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Setup::with_scale(64);
        s.obs.attrib = Some(dir.join("attrib.json"));
        assert!(s.obs.attribution() && s.obs.active());
        let bench = cdpc_workloads::by_name("tomcatv").unwrap();
        let plain = Setup::with_scale(64).run_bench(
            &bench,
            Preset::Base1MbDm,
            4,
            PolicyKind::Cdpc,
            false,
            true,
        );
        let observed = s.run_bench(&bench, Preset::Base1MbDm, 4, PolicyKind::Cdpc, false, true);
        assert_eq!(plain, observed, "attribution must not change results");

        let doc = JsonValue::parse(&std::fs::read_to_string(dir.join("attrib.json")).unwrap())
            .expect("attribution JSON must parse");
        let attrib = doc.get("attribution").expect("attribution subtree");
        // Cross-check invariant: attributed totals equal the report's
        // aggregate miss counts, class by class.
        let totals = attrib.get("totals").unwrap().get("by_class").unwrap();
        let report_misses = doc.get("report_misses").unwrap();
        for class in [
            "cold",
            "capacity",
            "conflict",
            "true-sharing",
            "false-sharing",
        ] {
            assert_eq!(
                totals.get(class).unwrap().as_u64(),
                report_misses.get(class).unwrap().as_u64(),
                "class `{class}`"
            );
        }
        let html = std::fs::read_to_string(dir.join("attrib.html")).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_formatting() {
        assert_eq!(table::ratio(1.5), "1.50x");
        assert_eq!(table::pct(0.123), "12.3%");
        assert_eq!(table::cycles(1500), "1.5k");
        assert_eq!(table::cycles(2_500_000), "2.50M");
    }
}
