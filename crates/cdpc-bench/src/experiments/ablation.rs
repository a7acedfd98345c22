//! Ablation study: what does each CDPC algorithm step contribute?
//!
//! Not in the paper, but answers the obvious reviewer question: steps 2–4
//! of §5.2 are heuristics — how much of the win does each carry? We run
//! the three mapping-sensitive benchmarks with each step disabled in turn
//! and report conflict-stall fractions and total time.
//!
//! * `full`        — the paper's algorithm.
//! * `-set-order`  — step 2 off: access sets in discovery order.
//! * `-seg-order`  — step 3 off: segments in address order within sets.
//! * `-cyclic`     — step 4 off: no rotation; conflicting segments may
//!   share start colors.
//! * `none`        — all three off: pure "concatenate the segments and
//!   deal colors round-robin".

use super::*;
use cdpc_core::HintOptions;
use cdpc_machine::{RunConfig, SweepJob};

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    let cpus = 8;
    let variants: [(&str, HintOptions); 5] = [
        ("full", HintOptions::FULL),
        (
            "-set-order",
            HintOptions {
                order_sets: false,
                ..HintOptions::FULL
            },
        ),
        (
            "-seg-order",
            HintOptions {
                order_segments: false,
                ..HintOptions::FULL
            },
        ),
        (
            "-cyclic",
            HintOptions {
                cyclic_layout: false,
                ..HintOptions::FULL
            },
        ),
        (
            "none",
            HintOptions {
                order_sets: false,
                order_segments: false,
                cyclic_layout: false,
            },
        ),
    ];

    writeln!(
        out,
        "CDPC step ablation (1MB DM cache, {} CPUs, scale {})\n",
        cpus, setup.scale
    );
    let benches = benches(&["tomcatv", "swim", "hydro2d"]);
    let mut jobs = Vec::new();
    for bench in &benches {
        let compiled = setup.compile_bench(bench, Preset::Base1MbDm, cpus, false, true);
        for (_, options) in variants {
            let mut cfg =
                RunConfig::new(setup.scaled_mem(Preset::Base1MbDm, cpus), PolicyKind::Cdpc);
            cfg.hint_options = options;
            jobs.push(SweepJob::new(compiled.clone(), cfg));
        }
    }
    Plan::new(jobs, move |reports| {
        for bench in &benches {
            writeln!(out, "== {} ==", bench.name);
            table::header(
                &mut out,
                &["variant", "time", "conflict-stall", "vs full"],
                &[12, 10, 14, 8],
            );
            let mut full_time = 0u64;
            for (label, _) in variants {
                let r = reports.next().expect("one report per variant");
                if label == "full" {
                    full_time = r.elapsed_cycles;
                }
                writeln!(
                    out,
                    "{:>12} {:>10} {:>14} {:>8}",
                    label,
                    table::cycles(r.elapsed_cycles),
                    table::cycles(r.stalls.conflict),
                    table::ratio(full_time as f64 / r.elapsed_cycles.max(1) as f64),
                );
            }
            writeln!(out);
        }
        writeln!(
            out,
            "vs full > 1.00x would mean the ablated variant beats the full\n\
         algorithm — each step should be neutral-or-better to keep."
        );
        Output::text(out)
    })
}
