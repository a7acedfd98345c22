//! Lint the whole workload suite: run every `cdpc-analyze` static check
//! (races, false sharing, color conflicts, structural audits) over every
//! workload model at representative machine sizes, print the findings,
//! and emit a JSON report.
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin analyze
//! cargo run --release -p cdpc-bench --bin analyze -- results/lint_report.json
//! cargo run --release -p cdpc-bench --bin analyze -- --scale 4
//! ```
//!
//! With a positional path the JSON report is written there; otherwise it
//! goes to stdout. Exits nonzero if any workload has an `Error` diagnostic
//! not covered by an `allow_lint` annotation — CI runs this as a gate.

use std::path::Path;

use cdpc_bench::{lint_program, write_text, Preset, Setup};
use cdpc_compiler::CompileOptions;
use cdpc_obs::JsonValue;

/// CPU counts the paper's experiments sweep; lint the extremes.
const CPU_POINTS: [usize; 2] = [4, 16];

fn main() {
    let (setup, positional) = Setup::from_args_with_positionals();
    let out = positional.first();
    if positional.len() > 1 {
        eprintln!("usage: analyze [out.json] [--scale N]");
        std::process::exit(2);
    }

    let mut reports = Vec::new();
    let mut errors = 0usize;
    let mut warns = 0usize;
    for bench in cdpc_workloads::all() {
        for cpus in CPU_POINTS {
            let program = (bench.build)(setup.workload_scale());
            let mem = setup.scaled_mem(Preset::Base1MbDm, cpus);
            let mut opts = CompileOptions::new(cpus).with_l2_cache(mem.l2.size_bytes() as u64);
            opts.l1_cache_bytes = mem.l1d.size_bytes() as u64;
            let report = lint_program(&program, &opts, &mem);
            let (e, w, _) = report.counts();
            let allowed = report
                .of_severity(cdpc_analyze::Severity::Error)
                .count()
                .saturating_sub(e);
            errors += e;
            warns += w;
            let verdict = if e > 0 {
                "FAIL"
            } else if allowed > 0 {
                "allowed"
            } else if w > 0 {
                "warn"
            } else {
                "clean"
            };
            eprintln!(
                "{:<10} cpus {cpus:>2}: {verdict} ({e} errors, {allowed} allowed, {w} warnings)",
                bench.name
            );
            if !report.diagnostics.is_empty() {
                for line in report.render().lines() {
                    eprintln!("    {line}");
                }
            }
            reports.push(report.to_json());
        }
    }

    let mut doc = JsonValue::object();
    doc.push("scale", JsonValue::UInt(setup.scale));
    doc.push(
        "cpu_points",
        JsonValue::Array(
            CPU_POINTS
                .iter()
                .map(|&c| JsonValue::UInt(c as u64))
                .collect(),
        ),
    );
    doc.push("unallowed_errors", JsonValue::UInt(errors as u64));
    doc.push("reports", JsonValue::Array(reports));
    let text = doc.to_string_pretty();
    match out {
        Some(path) => {
            write_text(Path::new(path), &text);
            eprintln!("wrote {path}");
        }
        None => println!("{text}"),
    }

    eprintln!("lint: {errors} unallowed errors, {warns} warnings across the suite");
    if errors > 0 {
        std::process::exit(1);
    }
}
