//! Miss attribution for one run: which array, on which page color, on
//! which CPU, causes which class of cache miss.
//!
//! Runs a single (benchmark, CPU count, policy) combination with the
//! attribution probe installed and reports the per-array/per-color miss
//! decomposition — the paper's conflict-tracing methodology (Figure 6's
//! "which arrays fight over the cache" question) as a tool.
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin attrib -- tomcatv 8 cdpc
//! cargo run --release -p cdpc-bench --bin attrib -- swim 4 page-coloring --attrib swim.json
//! cargo run --release -p cdpc-bench --bin attrib -- tomcatv 4 cdpc --quick --attrib out.json
//! ```
//!
//! With `--attrib <path>` the JSON document is written to `path` and a
//! self-contained HTML report (inline SVG heatmap, offender table,
//! occupancy timeline) next to it with an `.html` extension. Without
//! `--attrib`, or with `--top`, the terminal summary is printed. `--quick`
//! is shorthand for `--scale 64`: the CI-friendly fast mode (the
//! simulator is deterministic, so quick-mode output is byte-stable and
//! diffable against a golden file).

use cdpc_bench::{exit_with_error, Setup};
use cdpc_machine::{summary_line, PolicyKind};

const USAGE: &str = "usage: attrib <benchmark> [cpus] [policy] [--scale N | --quick] \
                     [--attrib <path>] [--top] [--threads N]\n  \
                     policies: page-coloring | bin-hopping | cdpc | cdpc-touch | dynamic-recolor";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut setup = Setup::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1)
            .unwrap_or_else(|| exit_with_error(format_args!("{flag} needs a value")))
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
            "--quick" => {
                setup.scale = 64;
                i += 1;
            }
            "--attrib" => {
                setup.obs.attrib = Some(value(&args, i, "--attrib").into());
                i += 2;
            }
            "--top" => {
                setup.obs.top = true;
                i += 1;
            }
            "--threads" => {
                setup.threads = value(&args, i, "--threads")
                    .parse()
                    .unwrap_or_else(|_| exit_with_error("--threads needs a thread count"));
                i += 2;
            }
            other => {
                if other.starts_with("--") {
                    exit_with_error(format_args!("unknown flag `{other}`"));
                }
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    // No output requested at all: default to the terminal summary.
    if setup.obs.attrib.is_none() {
        setup.obs.top = true;
    }

    let bench_name = positional.first().cloned().unwrap_or_else(|| {
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let cpus: usize = positional
        .get(1)
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                exit_with_error(format_args!("cpus must be a number, not `{s}`"))
            })
        })
        .unwrap_or(8);
    let policy = match positional.get(2).map(String::as_str).unwrap_or("cdpc") {
        "page-coloring" | "pc" => PolicyKind::PageColoring,
        "bin-hopping" | "bh" => PolicyKind::BinHopping,
        "cdpc" => PolicyKind::Cdpc,
        "cdpc-touch" => PolicyKind::CdpcTouch,
        "dynamic-recolor" | "dynamic" => PolicyKind::DynamicRecolor,
        other => {
            eprintln!("unknown policy `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bench = cdpc_workloads::by_name(&bench_name).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{bench_name}`; try one of:");
        for b in cdpc_workloads::all() {
            eprintln!("  {}", b.name);
        }
        std::process::exit(2);
    });

    let report = setup.run_bench(
        &bench,
        cdpc_bench::Preset::Base1MbDm,
        cpus,
        policy,
        false,
        true,
    );
    eprintln!("{}", summary_line(&report));
    if let Some(path) = &setup.obs.attrib {
        eprintln!(
            "attribution report: {} (+ {})",
            path.display(),
            path.with_extension("html").display()
        );
    }
}
