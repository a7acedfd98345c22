//! Host-cost benchmark of the CDPC reproduction: how long the paper's
//! sweeps take to simulate, end to end and split by layer.
//!
//! ```text
//! cargo run --release --manifest-path crates/cdpc-bench/examples/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of stdout is a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Without it, each workload runs in a child process of its own
//! (so `peak_rss_mb` is per workload). See `README.md` beside this crate
//! for the workloads, the metrics and their bounds.

mod golden;
mod layers;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use cdpc_obs::JsonValue;

use workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--bless]";
/// Timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Set-ups timed per run, at least, and the least time spent on them.
const MIN_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// The scale every workload runs at under `--smoke`.
const SMOKE_SCALE: u64 = 64;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// First and third quartiles of sorted `xs`, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)`.
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 2 {
        return (xs[0], xs[0]);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    (q(1), q(3))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workloads::by_name(name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The host fingerprint timings are comparable under.
fn host_line(threads: usize, seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc={} cpu=\"{cpu}\" threads={threads} seed={seed}",
        cdpc_machine::default_threads()
    )
}

/// This process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Prints `workload metric value unit`, with the quartiles and sample
/// count of a timing.
fn print_timing(workload: &str, name: &str, unit: &str, samples: &mut [f64]) -> f64 {
    let mid = median(samples);
    let (q1, q3) = quartiles(samples);
    println!(
        "{workload} {name} {mid} {unit} q1={q1} q3={q3} n={}",
        samples.len()
    );
    mid
}

/// The end-to-end run: repeated set-up, a warm-up pass, then timed sweep
/// passes for at least `seconds`, every report checked against its golden
/// digest.
fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, u64, u64), String> {
    let name = workload.name;
    let mut setup_secs = Vec::new();
    let started = Instant::now();
    let prepared = loop {
        let t = Instant::now();
        let prepared = workload.prepare(workload.scale, seed);
        setup_secs.push(t.elapsed().as_secs_f64());
        if setup_secs.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET {
            break prepared;
        }
    };

    let mut walls = Vec::new();
    let (mut attempted, mut failed, mut refs) = (0u64, 0u64, 0u64);
    // The first pass warms up (allocator, page cache, clock ramp) and is
    // checked but not timed; the clock starts after it.
    let mut timing_since: Option<Instant> = None;
    while walls.len() < MIN_PASSES
        || timing_since.is_none_or(|t| t.elapsed().as_secs_f64() < seconds)
    {
        attempted += prepared.jobs.len() as u64;
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| prepared.setup.run_jobs(&prepared.jobs)));
        let wall = t.elapsed().as_secs_f64();
        let Ok(reports) = out else {
            failed += prepared.jobs.len() as u64;
            break;
        };
        let reports = prepared.canonical(reports);
        failed += golden::mismatches(golden::FULL, workload, &reports) as u64;
        refs = reports.iter().map(|r| r.simulated_refs).sum();
        match timing_since {
            None => timing_since = Some(Instant::now()),
            Some(_) => walls.push(wall),
        }
    }
    if walls.is_empty() {
        return Err(format!("{name}: a pass panicked before any was timed"));
    }

    let wall_s = print_timing(name, "wall_s", "s", &mut walls);
    let mut rates: Vec<f64> = walls.iter().map(|w| refs as f64 / w).collect();
    let refs_per_s = print_timing(name, "refs_per_s", "refs/s", &mut rates);
    let setup_s = print_timing(name, "setup_s", "s", &mut setup_secs);
    let metrics = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("refs_per_s", refs_per_s, "refs/s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    Ok((metrics, attempted, failed))
}

/// Writes the traced run's spans and layer table under the build
/// directory.
fn write_trace(workload: &str, chrome_trace: &str, table: &str) {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("benchmark");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{workload}.trace.json")), chrome_trace))
        .and_then(|()| std::fs::write(dir.join(format!("{workload}.layers.txt")), table));
    match written {
        Ok(()) => eprintln!(
            "{workload}: trace and layer table written to {}",
            dir.display()
        ),
        Err(e) => eprintln!(
            "{workload}: cannot write the trace to {}: {e}",
            dir.display()
        ),
    }
}

fn run_workload(workload: &Workload, args: &Args) -> Result<(), String> {
    if args.bless {
        print!(
            "{}",
            golden::lines(workload, &workload.prepare(workload.scale, args.seed).run())
        );
        return Ok(());
    }
    println!(
        "{} workload={} scale={}",
        host_line(workload.threads(), args.seed),
        workload.name,
        workload.scale
    );
    let (metrics, attempted, failed) = if args.trace {
        let traced = layers::traced_run(workload, args.seed);
        let table: String = traced
            .metrics
            .iter()
            .map(|m| format!("{} {} {} {}\n", workload.name, m.name, m.value, m.unit))
            .collect();
        print!("{table}");
        write_trace(workload.name, &traced.chrome_trace, &table);
        (traced.metrics, traced.attempted, traced.failed)
    } else {
        end_to_end(workload, args.seed, args.seconds)?
    };
    let mut values = JsonValue::object();
    for m in &metrics {
        let mut v = JsonValue::object();
        v.push("value", JsonValue::Float(m.value))
            .push("unit", JsonValue::Str(m.unit.into()));
        values.push(m.name, v);
    }
    let mut result = JsonValue::object();
    result
        .push("correct", JsonValue::Bool(failed == 0))
        .push("attempted", JsonValue::UInt(attempted))
        .push("failed", JsonValue::UInt(failed))
        .push("metrics", values);
    println!("{}", result.to_string_compact());
    Ok(())
}

/// Every workload at scale 64, one pass each under two seeds: the digests
/// must match the smoke goldens and must not depend on the seed.
fn smoke(args: &Args) -> Result<(), String> {
    let mut bad = 0;
    for workload in workloads::all() {
        let t = Instant::now();
        let reports = workload.prepare(SMOKE_SCALE, args.seed).run();
        if args.bless {
            print!("{}", golden::lines(&workload, &reports));
            continue;
        }
        let reseeded = workload
            .prepare(SMOKE_SCALE, args.seed.wrapping_add(1))
            .run();
        let seed_invariant =
            golden::lines(&workload, &reports) == golden::lines(&workload, &reseeded);
        let mismatches = golden::mismatches(golden::SMOKE, &workload, &reports);
        println!(
            "smoke {} jobs={} golden_mismatches={mismatches} seed_invariant={seed_invariant} {:.2} s",
            workload.name,
            reports.len(),
            t.elapsed().as_secs_f64()
        );
        bad += mismatches + usize::from(!seed_invariant);
    }
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("smoke: {bad} check(s) failed"))
    }
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(raw: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut failed = Vec::new();
    for workload in workloads::all() {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", workload.name])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !status.success() {
            failed.push(workload.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.smoke {
        smoke(&args)
    } else {
        match &args.workload {
            Some(name) => run_workload(
                &workloads::by_name(name).expect("checked by parse_args"),
                &args,
            ),
            None => run_all(&raw),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
