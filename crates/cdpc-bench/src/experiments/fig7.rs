//! Figure 7: CDPC on two-way set-associative and larger caches.
//!
//! Left half: 1 MB two-way set-associative external cache — set
//! associativity reduces conflict hot spots but not cache under-
//! utilization, so CDPC's improvements persist. Right half: 4 MB
//! direct-mapped — the aggregate cache absorbs data sets at lower
//! processor counts, so CDPC's benefits appear earlier (tomcatv, swim) and
//! applu (31 MB) finally benefits.

use super::*;

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    let benches = benches(&[
        "tomcatv", "swim", "su2cor", "hydro2d", "mgrid", "applu", "turb3d",
    ]);
    let presets = [
        ("1MB two-way set-associative", Preset::TwoWay1Mb),
        ("4MB direct-mapped", Preset::FourMbDm),
    ];
    let mut reports = fig6::reports(setup, &presets.map(|(_, preset)| preset), &benches);
    for (title, _) in presets {
        writeln!(out, "Figure 7 ({title}, scale {}):\n", setup.scale);
        fig6::tables(&mut out, &benches, &mut reports);
    }
    Output::text(out)
}
