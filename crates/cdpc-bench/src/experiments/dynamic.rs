//! Dynamic page recoloring vs CDPC (extension experiment).
//!
//! The paper's related-work section (§2.1) discusses *dynamic* policies
//! that detect conflicts at run time and recolor pages by copying, and
//! argues they are problematic on multiprocessors: conflict misses are
//! hard to tell from coherence misses, and "the TLB state of each
//! processor must be individually flushed and the recoloring operation
//! may generate significant inter-processor communication." The paper
//! never measures them — this experiment does, with a conflict-counter
//! detector on top of page coloring, paying copy + flush + shootdown
//! costs.
//!
//! Expected shape: dynamic recoloring recovers part of page coloring's
//! loss, but trails CDPC (which needs no detection, no copies, no
//! shootdowns) — supporting the paper's argument that compile-time
//! knowledge beats run-time repair here.

use super::*;
use cdpc_machine::{RunConfig, SweepJob};

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    let cpus = 8;
    writeln!(
        out,
        "Dynamic recoloring vs CDPC (1MB DM cache, {} CPUs, scale {})\n",
        cpus, setup.scale
    );
    let variants = [
        (PolicyKind::PageColoring, 0),
        (PolicyKind::DynamicRecolor, 16),
        (PolicyKind::DynamicRecolor, 64),
        (PolicyKind::Cdpc, 0),
    ];
    let benches = benches(&["tomcatv", "swim", "hydro2d", "su2cor"]);
    let mut jobs = Vec::new();
    for bench in &benches {
        let compiled = setup.compile_bench(bench, Preset::Base1MbDm, cpus, false, true);
        for &(policy, threshold) in &variants {
            let mut cfg = RunConfig::new(setup.scaled_mem(Preset::Base1MbDm, cpus), policy);
            if threshold > 0 {
                cfg.recolor_threshold = threshold;
            }
            jobs.push(SweepJob::new(compiled.clone(), cfg));
        }
    }
    let mut reports = setup.run_jobs(&jobs).into_iter();

    for bench in &benches {
        writeln!(out, "== {} ==", bench.name);
        table::header(
            &mut out,
            &["policy", "time", "conflict-stall", "recolorings", "vs PC"],
            &[16, 10, 14, 12, 8],
        );
        let mut pc_time = 0u64;
        for &(policy, threshold) in &variants {
            let r = reports.next().expect("one report per variant");
            if policy == PolicyKind::PageColoring {
                pc_time = r.elapsed_cycles;
            }
            let label = if policy == PolicyKind::DynamicRecolor {
                format!("dynamic(t={threshold})")
            } else {
                r.policy.clone()
            };
            writeln!(
                out,
                "{:<16} {:>10} {:>14} {:>12} {:>8}",
                label,
                table::cycles(r.elapsed_cycles),
                table::cycles(r.stalls.conflict),
                r.recolorings,
                table::ratio(pc_time as f64 / r.elapsed_cycles.max(1) as f64),
            );
        }
        writeln!(out);
    }
    Output::text(out)
}
