//! Inspect one run in full detail: a Figure-2-style breakdown for any
//! (benchmark, CPU count, policy) combination, with optional structured
//! exports.
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin inspect -- tomcatv 8 cdpc
//! cargo run --release -p cdpc-bench --bin inspect -- swim 16 bin-hopping --scale 4
//! cargo run --release -p cdpc-bench --bin inspect -- swim 8 cdpc \
//!     --json report.json --trace trace.json --series series.csv
//! ```

use cdpc_bench::{exit_with_error, Preset, Setup};
use cdpc_machine::{render_report, PolicyKind};

fn main() {
    let (setup, positional) = Setup::from_args_with_positionals();
    let usage = "usage: inspect <benchmark> [cpus] [policy] [--scale N] \
                 [--json <path>] [--trace <path>] [--series <path>] \
                 [--sample-interval <cycles>]\n  \
                 policies: page-coloring | bin-hopping | cdpc | cdpc-touch | dynamic-recolor";
    let bench_name = positional.first().cloned().unwrap_or_else(|| {
        eprintln!("{usage}");
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
            eprintln!("unknown policy `{other}`\n{usage}");
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
    let report = setup.run_bench(&bench, Preset::Base1MbDm, cpus, policy, false, true);
    print!("{}", render_report(&report));
}
