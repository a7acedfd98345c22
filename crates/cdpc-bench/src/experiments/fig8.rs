//! Figure 8: compiler-inserted prefetching combined with CDPC.
//!
//! Four configurations per application — {page coloring, CDPC} × {no
//! prefetch, prefetch} on the base machine — exposing the paper's
//! complementarity claim: prefetching hides the misses CDPC cannot
//! eliminate (capacity, communication), while CDPC keeps prefetched lines
//! from being displaced and frees the bus bandwidth prefetching needs.
//! The tomcatv @4 CPUs row reproduces the headline interaction (paper:
//! CDPC +29%, PF +24%, both +88%).

use super::*;

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    let cpu_counts = [1usize, 2, 4, 8, 16];
    writeln!(
        out,
        "Figure 8: CDPC x prefetching (1MB DM cache, scale {})\n",
        setup.scale
    );

    let benches = benches(&[
        "tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d",
    ]);
    // Four configurations per row: {PC, CDPC} x {no prefetch, prefetch}.
    let configs = [
        (PolicyKind::PageColoring, false, true),
        (PolicyKind::PageColoring, true, true),
        (PolicyKind::Cdpc, false, true),
        (PolicyKind::Cdpc, true, true),
    ];
    let mut reports = sweep(setup, &[Preset::Base1MbDm], &benches, &cpu_counts, &configs);

    for bench in &benches {
        writeln!(out, "== {} ==", bench.name);
        table::header(
            &mut out,
            &[
                "cpus",
                "PC",
                "PC+PF",
                "CDPC",
                "CDPC+PF",
                "PF gain",
                "CDPC gain",
                "both",
            ],
            &[4, 9, 9, 9, 9, 8, 9, 8],
        );
        for &cpus in &cpu_counts {
            let pc = reports.next().expect("one PC report per row");
            let pc_pf = reports.next().expect("one PC+PF report per row");
            let cd = reports.next().expect("one CDPC report per row");
            let cd_pf = reports.next().expect("one CDPC+PF report per row");
            writeln!(
                out,
                "{:>4} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9} {:>8}",
                cpus,
                table::cycles(pc.elapsed_cycles),
                table::cycles(pc_pf.elapsed_cycles),
                table::cycles(cd.elapsed_cycles),
                table::cycles(cd_pf.elapsed_cycles),
                table::ratio(pc_pf.speedup_over(&pc)),
                table::ratio(cd.speedup_over(&pc)),
                table::ratio(cd_pf.speedup_over(&pc)),
            );
        }
        writeln!(out);
    }
    writeln!(
        out,
        "PF gain / CDPC gain / both = speedup over plain page coloring."
    );
    Output::text(out)
}
