//! Figure 2: high-level characterization of the workloads.
//!
//! For every benchmark and processor count {1, 2, 4, 8, 16} on the base
//! machine (1 MB direct-mapped external cache, IRIX page coloring), prints
//! the paper's four views:
//!
//! 1. combined execution time (sum over processors), split into execution
//!    / memory stall / overheads — constant bars mean linear speedup;
//! 2. the overhead breakdown (kernel, load imbalance, sequential,
//!    suppressed, synchronization);
//! 3. memory system behavior as MCPI, split by miss class;
//! 4. bus utilization, split into data / writeback / upgrade occupancy.

use super::*;

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    let cpu_counts = [1usize, 2, 4, 8, 16];
    writeln!(
        out,
        "Figure 2: workload characterization (1MB DM cache, page coloring, scale {})\n",
        setup.scale
    );

    let benches = cdpc_workloads::all();
    let configs = [(PolicyKind::PageColoring, false, true)];
    let mut reports = sweep(setup, &[Preset::Base1MbDm], &benches, &cpu_counts, &configs);

    for bench in &benches {
        writeln!(out, "== {} ==", bench.name);
        table::header(
            &mut out,
            &[
                "cpus", "combined", "exec%", "mem%", "ovhd%", "| kern", "imbal", "seq", "suppr",
                "sync", "| MCPI", "repl", "comm", "| bus",
            ],
            &[4, 9, 6, 6, 6, 6, 6, 6, 6, 6, 7, 6, 6, 6],
        );
        for &cpus in &cpu_counts {
            let r = reports.next().expect("one report per job");
            let total = (r.exec_cycles + r.stalls.total() + r.overheads.total()).max(1);
            let o = &r.overheads;
            let mcpi = r.mcpi();
            let repl_mcpi = r.stalls.replacement() as f64 / r.instructions.max(1) as f64;
            let comm_mcpi = (r.stalls.true_sharing + r.stalls.false_sharing) as f64
                / r.instructions.max(1) as f64;
            writeln!(out, "{:>4} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7.3} {:>6.3} {:>6.3} {:>6}",
                cpus,
                table::cycles(total),
                table::pct(r.exec_cycles as f64 / total as f64),
                table::pct(r.stalls.total() as f64 / total as f64),
                table::pct(o.total() as f64 / total as f64),
                table::pct(o.kernel as f64 / total as f64),
                table::pct(o.load_imbalance as f64 / total as f64),
                table::pct(o.sequential as f64 / total as f64),
                table::pct(o.suppressed as f64 / total as f64),
                table::pct(o.synchronization as f64 / total as f64),
                mcpi,
                repl_mcpi,
                comm_mcpi,
                table::pct(r.bus.utilization),
            );
        }
        writeln!(out);
    }
    Output::text(out)
}
