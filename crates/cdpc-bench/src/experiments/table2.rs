//! Table 2: execution times and SPEC95fp-style rating under the three
//! page-mapping policies on the AlphaServer-class machine at 8 CPUs.
//!
//! The paper's ratio is speedup over a SparcStation 10 reference time; we
//! have no SS10, so the "ratio" here is speedup over each benchmark's own
//! simulated uniprocessor page-coloring run (see DESIGN.md §4). The
//! reproduction targets are the comparative statements: CDPC's geometric
//! mean beats bin hopping (paper: by 8%) and page coloring (paper: by
//! 20%), and per-benchmark winners match the paper's.

use super::*;
use cdpc_machine::geometric_mean;

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    let cpus = 8;
    writeln!(
        out,
        "Table 2: AlphaServer-class machine, {cpus} CPUs, scale {} (ratio = speedup over\n\
         uniprocessor page-coloring reference)\n",
        setup.scale
    );
    let cols = [
        "benchmark",
        "binhop",
        "pagecol",
        "CDPC",
        "r(BH)",
        "r(PC)",
        "r(CDPC)",
    ];
    table::header(&mut out, &cols, &[14, 9, 9, 9, 7, 7, 7]);

    let benches = cdpc_workloads::all();
    // Per benchmark: the uniprocessor page-coloring reference, then the
    // three policies at the full CPU count.
    let runs = [
        (1, PolicyKind::PageColoring),
        (cpus, PolicyKind::BinHopping),
        (cpus, PolicyKind::PageColoring),
        (cpus, PolicyKind::CdpcTouch),
    ];
    let jobs: Vec<_> = benches
        .iter()
        .flat_map(|bench| {
            runs.map(|(n, policy)| setup.job(bench, Preset::Alpha, n, policy, false, true))
        })
        .collect();
    Plan::new(jobs, move |reports| {
        let mut ratios = (Vec::new(), Vec::new(), Vec::new());
        for bench in &benches {
            let reference = reports
                .next()
                .expect("one reference report per benchmark")
                .elapsed_cycles;
            let bh = reports.next().expect("one BH report per benchmark");
            let pc = reports.next().expect("one PC report per benchmark");
            let cdpc = reports.next().expect("one CDPC report per benchmark");
            let (rb, rp, rc) = (
                bh.ratio(reference),
                pc.ratio(reference),
                cdpc.ratio(reference),
            );
            writeln!(
                out,
                "{:<14} {:>9} {:>9} {:>9} {:>7.2} {:>7.2} {:>7.2}",
                bench.name,
                table::cycles(bh.elapsed_cycles),
                table::cycles(pc.elapsed_cycles),
                table::cycles(cdpc.elapsed_cycles),
                rb,
                rp,
                rc,
            );
            ratios.0.push(rb);
            ratios.1.push(rp);
            ratios.2.push(rc);
        }
        let (gb, gp, gc) = (
            geometric_mean(&ratios.0),
            geometric_mean(&ratios.1),
            geometric_mean(&ratios.2),
        );
        writeln!(out, "{}", "-".repeat(66));
        writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>9} {:>7.2} {:>7.2} {:>7.2}",
            "geomean", "", "", "", gb, gp, gc
        );
        writeln!(
            out,
            "\nCDPC vs bin hopping: {:+.1}%   CDPC vs page coloring: {:+.1}%   (paper: +8% / +20%)",
            (gc / gb - 1.0) * 100.0,
            (gc / gp - 1.0) * 100.0
        );
        Output::text(out)
    })
}
