//! Cross-validate the static conflict prover against the simulator.
//!
//! For every workload, run the prover's interference equations (under the
//! native page-coloring policy) *and* the full simulation with miss
//! attribution, then diff the predicted hot `(array, color)` cells
//! against the attribution tensor's conflict cells. Produces
//! `results/predict_report.json` and every prover diagnostic as one SARIF
//! 2.1.0 log, `results/predict.sarif`.
//!
//! The prover's contract is **zero false negatives**: every cell the
//! simulator charges with conflict misses must have been predicted.
//! Precision (how many predictions the oracle confirmed) is reported per
//! workload; over-approximation costs precision, never soundness. The
//! entry fails (nonzero exit from `reproduce`) if recall drops below 1.0
//! on the paper's three headline workloads (tomcatv, swim, su2cor).

use std::collections::BTreeSet;

use super::*;
use cdpc_analyze::sarif::check_sarif_shape;
use cdpc_analyze::{predict_program, reports_to_sarif, MachineModel, ProverPolicy};
use cdpc_compiler::{compile, CompileOptions};
use cdpc_machine::{diff_prediction, run_attributed, RunConfig};
use cdpc_obs::JsonValue;

/// Processor count for the validation runs (the paper's base machine).
const CPUS: usize = 4;

/// Workloads whose recall gates the exit status.
const GATED: [&str; 3] = ["tomcatv", "swim", "su2cor"];

fn cells_json(cells: &BTreeSet<(usize, u64)>, names: &[String]) -> JsonValue {
    JsonValue::Array(
        cells
            .iter()
            .map(|&(row, color)| {
                let mut c = JsonValue::object();
                let name = names.get(row).cloned().unwrap_or_else(|| "(other)".into());
                c.push("array", JsonValue::Str(name));
                c.push("row", JsonValue::UInt(row as u64));
                c.push("color", JsonValue::UInt(color));
                c
            })
            .collect(),
    )
}

/// Ratio rounded to 4 decimal places so the JSON golden is stable prose,
/// not 17-digit float noise.
fn ratio(r: f64) -> JsonValue {
    JsonValue::Float((r * 10_000.0).round() / 10_000.0)
}

pub(super) fn run(setup: &Setup) -> Output {
    let mut workloads = Vec::new();
    let mut sarif_reports = Vec::new();
    let mut gate_failures = Vec::new();
    let (mut total_hits, mut total_oracle, mut total_predicted) = (0usize, 0usize, 0usize);

    for bench in cdpc_workloads::all() {
        let program = (bench.build)(setup.workload_scale());
        let mem = setup.scaled_mem(Preset::Base1MbDm, CPUS);
        let mut opts = CompileOptions::new(CPUS).with_l2_cache(mem.l2.size_bytes() as u64);
        opts.l1_cache_bytes = mem.l1d.size_bytes() as u64;

        let machine = MachineModel::from_mem(&mem);
        let (pred, report) = predict_program(&program, &opts, &machine, ProverPolicy::PageColoring);

        let compiled = compile(&program, &opts).expect("workload models always compile");
        let names = compiled.array_names();
        let (_, probe) = run_attributed(&compiled, &RunConfig::new(mem, PolicyKind::PageColoring));
        let diff = diff_prediction(&pred.cells, &probe);

        total_hits += diff.hits.len();
        total_oracle += diff.oracle_cells.len();
        total_predicted += pred.cells.len();
        eprintln!(
            "{:<10} predicted {:>3} cells, oracle {:>3}: recall {:.2} precision {:.2}{}",
            bench.name,
            pred.cells.len(),
            diff.oracle_cells.len(),
            diff.recall(),
            diff.precision(),
            if diff.sound() {
                ""
            } else {
                "  FALSE NEGATIVES"
            },
        );
        // Bench names carry the SPEC number prefix ("101.tomcatv").
        if !diff.sound() && GATED.iter().any(|g| bench.name.ends_with(g)) {
            gate_failures.push(bench.name);
        }

        let mut w = JsonValue::object();
        w.push("name", JsonValue::Str(bench.name.to_string()));
        w.push("policy", JsonValue::Str(pred.policy.clone()));
        w.push("num_colors", JsonValue::UInt(pred.num_colors));
        w.push("proven_free", JsonValue::Bool(pred.proven_free));
        w.push("confidence", JsonValue::UInt(u64::from(pred.confidence)));
        w.push("est_misses", JsonValue::UInt(pred.est_misses));
        w.push("predicted_cells", JsonValue::UInt(pred.cells.len() as u64));
        w.push(
            "oracle_cells",
            JsonValue::UInt(diff.oracle_cells.len() as u64),
        );
        w.push("hits", JsonValue::UInt(diff.hits.len() as u64));
        w.push("spurious", JsonValue::UInt(diff.spurious.len() as u64));
        // False negatives are listed in full: an empty array IS the
        // zero-false-negative statement for this workload.
        w.push("missed", cells_json(&diff.missed, &names));
        w.push("recall", ratio(diff.recall()));
        w.push("precision", ratio(diff.precision()));
        w.push(
            "phases_proven_free",
            JsonValue::UInt(pred.phases.iter().filter(|p| p.proven_free).count() as u64),
        );
        w.push("phases", JsonValue::UInt(pred.phases.len() as u64));
        workloads.push(w);
        sarif_reports.push(report);
    }

    let mut doc = JsonValue::object();
    doc.push("scale", JsonValue::UInt(setup.scale));
    doc.push("cpus", JsonValue::UInt(CPUS as u64));
    doc.push("policy", JsonValue::Str("page-coloring".to_string()));
    let mut agg = JsonValue::object();
    agg.push("predicted_cells", JsonValue::UInt(total_predicted as u64));
    agg.push("oracle_cells", JsonValue::UInt(total_oracle as u64));
    agg.push("hits", JsonValue::UInt(total_hits as u64));
    let share = |of: usize| {
        ratio(if of == 0 {
            1.0
        } else {
            total_hits as f64 / of as f64
        })
    };
    agg.push("recall", share(total_oracle));
    agg.push("precision", share(total_predicted));
    doc.push("aggregate", agg);
    doc.push("workloads", JsonValue::Array(workloads));

    let refs: Vec<&cdpc_analyze::Report> = sarif_reports.iter().collect();
    let log = reports_to_sarif(&refs);
    check_sarif_shape(&log).expect("generated SARIF is well-formed");
    Output {
        bytes: vec![doc.to_string_pretty(), log.to_string_pretty()],
        failure: (!gate_failures.is_empty())
            .then(|| format!("false negatives on gated workloads: {gate_failures:?}")),
    }
}
