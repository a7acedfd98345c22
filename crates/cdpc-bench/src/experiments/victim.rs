//! Victim caches vs CDPC: can a small hardware buffer do CDPC's job?
//!
//! The paper answers the associativity version of this question in
//! Figure 7 ("set-associative caches reduce conflict hot spots \[but\] do
//! not address the issue of under-utilized caches"); this extension asks
//! the same about Jouppi-style victim caches. The victim buffer absorbs
//! ping-pong conflicts between a handful of lines but cannot make a
//! processor's sparse pages *use* the idle regions of the cache — only a
//! mapping policy can.

use super::*;
use cdpc_machine::{RunConfig, SweepJob};

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    let cpus = 8;
    writeln!(
        out,
        "Victim cache vs CDPC (1MB DM cache, {} CPUs, scale {})\n",
        cpus, setup.scale
    );
    let variants = [
        ("PC", 0usize, PolicyKind::PageColoring),
        ("PC + VC(8)", 8, PolicyKind::PageColoring),
        ("PC + VC(32)", 32, PolicyKind::PageColoring),
        ("CDPC", 0, PolicyKind::Cdpc),
        ("CDPC + VC(8)", 8, PolicyKind::Cdpc),
    ];
    let benches = benches(&["tomcatv", "swim", "hydro2d"]);
    let mut jobs = Vec::new();
    for bench in &benches {
        let compiled = setup.compile_bench(bench, Preset::Base1MbDm, cpus, false, true);
        for &(_, victim_lines, policy) in &variants {
            let mut mem = setup.scaled_mem(Preset::Base1MbDm, cpus);
            mem.victim_cache_lines = victim_lines;
            jobs.push(SweepJob::new(compiled.clone(), RunConfig::new(mem, policy)));
        }
    }
    Plan::new(jobs, move |reports| {
        for bench in &benches {
            writeln!(out, "== {} ==", bench.name);
            table::header(
                &mut out,
                &["config", "time", "conflict-stall", "victim hits", "vs PC"],
                &[16, 10, 14, 12, 8],
            );
            let mut pc_time = 0u64;
            for &(label, _, _) in &variants {
                let r = reports.next().expect("one report per variant");
                if label == "PC" {
                    pc_time = r.elapsed_cycles;
                }
                writeln!(
                    out,
                    "{:<16} {:>10} {:>14} {:>12} {:>8}",
                    label,
                    table::cycles(r.elapsed_cycles),
                    table::cycles(r.stalls.conflict),
                    r.mem_stats.aggregate().victim_hits,
                    table::ratio(pc_time as f64 / r.elapsed_cycles.max(1) as f64),
                );
            }
            writeln!(out);
        }
        writeln!(
            out,
            "Expected: victim caches trim the worst ping-pongs under page coloring\n\
         but fall far short of CDPC; adding one on top of CDPC changes little\n\
         (there is nothing left to absorb)."
        );
        Output::text(out)
    })
}
