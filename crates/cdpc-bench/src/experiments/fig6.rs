//! Figure 6: impact of compiler-directed page coloring.
//!
//! For each application and processor count, compares a standard page
//! coloring policy with CDPC on the base machine (1 MB direct-mapped
//! external cache): combined execution time, its breakdown, and the
//! speedup of CDPC over page coloring. The paper omits apsi and fpppp
//! (CDPC has no effect); we include them as a check that the effect is
//! indeed absent.

use super::*;

const CPU_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    writeln!(
        out,
        "Figure 6: page coloring (PC) vs compiler-directed page coloring (CDPC)"
    );
    writeln!(
        out,
        "1MB direct-mapped external cache, scale {}\n",
        setup.scale
    );
    let benches = cdpc_workloads::all();
    let jobs = jobs(setup, &[Preset::Base1MbDm], &benches);
    Plan::new(jobs, move |reports| {
        tables(&mut out, &benches, reports);
        Output::text(out)
    })
}

/// The PC and CDPC jobs of every benchmark at every CPU count on each
/// preset, in the order [`tables`] reads their reports (Figures 6 and 7).
pub(super) fn jobs(setup: &Setup, presets: &[Preset], benches: &[Benchmark]) -> Vec<SweepJob> {
    let configs = [
        (PolicyKind::PageColoring, false, true),
        (PolicyKind::Cdpc, false, true),
    ];
    sweep(setup, presets, benches, &CPU_COUNTS, &configs)
}

/// One table per benchmark over the reports of [`jobs`].
pub(super) fn tables(
    out: &mut Text,
    benches: &[Benchmark],
    reports: &mut impl Iterator<Item = RunReport>,
) {
    let repl_pct = |r: &RunReport| {
        let total = r.exec_cycles + r.stalls.total() + r.overheads.total();
        table::pct(r.stalls.replacement() as f64 / total.max(1) as f64)
    };
    for bench in benches {
        writeln!(out, "== {} ==", bench.name);
        let cols = [
            "cpus",
            "PC time",
            "CDPC time",
            "PC repl%",
            "CDPC repl%",
            "speedup",
        ];
        table::header(out, &cols, &[4, 10, 10, 9, 10, 8]);
        for cpus in CPU_COUNTS {
            let pc = reports.next().expect("one PC report per row");
            let cdpc = reports.next().expect("one CDPC report per row");
            writeln!(
                out,
                "{:>4} {:>10} {:>10} {:>9} {:>10} {:>8}",
                cpus,
                table::cycles(pc.elapsed_cycles),
                table::cycles(cdpc.elapsed_cycles),
                repl_pct(&pc),
                repl_pct(&cdpc),
                table::ratio(cdpc.speedup_over(&pc)),
            );
        }
        writeln!(out);
    }
}
