//! Figure 9: validation on the AlphaServer-class machine.
//!
//! The paper validates its simulation results on an 8-CPU AlphaServer 8400
//! (350 MHz, 4 MB direct-mapped external caches), comparing four
//! configurations: bin hopping with *unaligned* data structures, bin
//! hopping, page coloring, and CDPC (both CDPC and page coloring are
//! realized by selectively touching pages over the native bin-hopping
//! kernel — our `CdpcTouch` policy). Neither static policy dominates the
//! other; CDPC performs at least as well as the best of the two in most
//! cases.

use super::*;

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    let cpu_counts = [1usize, 2, 4, 8];
    writeln!(
        out,
        "Figure 9: AlphaServer validation (4MB DM, 350MHz, scale {})\n",
        setup.scale
    );

    let benches = cdpc_workloads::all();
    // Four configurations per row: bin hopping with unaligned data, bin
    // hopping, page coloring, and CDPC-over-bin-hopping.
    let configs = [
        (PolicyKind::BinHopping, false, false),
        (PolicyKind::BinHopping, false, true),
        (PolicyKind::PageColoring, false, true),
        (PolicyKind::CdpcTouch, false, true),
    ];
    let mut reports = sweep(setup, &[Preset::Alpha], &benches, &cpu_counts, &configs);

    for bench in &benches {
        writeln!(out, "== {} ==", bench.name);
        table::header(
            &mut out,
            &[
                "cpus", "BH-unal", "binhop", "pagecol", "CDPC", "CDPC/BH", "CDPC/PC",
            ],
            &[4, 9, 9, 9, 9, 8, 8],
        );
        for &cpus in &cpu_counts {
            let bh_u = reports.next().expect("one BH-unaligned report per row");
            let bh = reports.next().expect("one BH report per row");
            let pc = reports.next().expect("one PC report per row");
            let cdpc = reports.next().expect("one CDPC report per row");
            writeln!(
                out,
                "{:>4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
                cpus,
                table::cycles(bh_u.elapsed_cycles),
                table::cycles(bh.elapsed_cycles),
                table::cycles(pc.elapsed_cycles),
                table::cycles(cdpc.elapsed_cycles),
                table::ratio(cdpc.speedup_over(&bh)),
                table::ratio(cdpc.speedup_over(&pc)),
            );
        }
        writeln!(out);
    }
    Output::text(out)
}
