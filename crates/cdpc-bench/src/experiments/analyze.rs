//! Lint the whole workload suite: run every `cdpc-analyze` static check
//! (races, false sharing, color conflicts, structural audits) over every
//! workload model at representative machine sizes, report the findings on
//! stderr, and produce `results/lint_report.json`.
//!
//! The entry fails (nonzero exit from `reproduce`) if any workload has an
//! `Error` diagnostic not covered by an `allow_lint` annotation.

use super::*;
use crate::lint_program;
use cdpc_compiler::CompileOptions;
use cdpc_obs::JsonValue;

/// CPU counts the paper's experiments sweep; lint the extremes.
const CPU_POINTS: [usize; 2] = [4, 16];

pub(super) fn run(setup: &Setup) -> Output {
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
    eprintln!("lint: {errors} unallowed errors, {warns} warnings across the suite");
    Output {
        bytes: vec![doc.to_string_pretty()],
        failure: (errors > 0).then(|| format!("{errors} unallowed lint errors")),
    }
}
