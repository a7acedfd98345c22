//! Figure 1: the structure of SUIF-parallelized applications.
//!
//! The paper's Figure 1 sketches how a compiled application alternates
//! between parallel regions (all processors), sequential regions (master
//! computes, slaves spin), and barriers. This experiment prints that structure
//! for any workload model — the compiled schedule, per-statement iteration
//! partitioning, and the CDPC summary the compiler derived.

use super::*;
use cdpc_compiler::CompiledStmt;

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    let cpus = 4;
    for bench in benches(&["tomcatv", "apsi", "fpppp"]) {
        let compiled = setup.compile_bench(&bench, Preset::Base1MbDm, cpus, false, true);
        writeln!(out, "== {} ({} CPUs) ==", compiled.name, cpus);
        for phase in &compiled.phases {
            writeln!(out, "phase `{}` x{}:", phase.name, phase.count);
            for stmt in &phase.stmts {
                match stmt {
                    CompiledStmt::Parallel { specs } => {
                        let ranges: Vec<String> = specs
                            .iter()
                            .map(|s| format!("[{},{})", s.lo, s.hi))
                            .collect();
                        writeln!(out, "  PARALLEL  {}  -> barrier", ranges.join(" "));
                    }
                    CompiledStmt::Master { spec, suppressed } => {
                        let kind = if *suppressed {
                            "SUPPRESSED"
                        } else {
                            "SEQUENTIAL"
                        };
                        writeln!(
                            out,
                            "  {kind}  master runs [{},{}), slaves spin",
                            spec.lo, spec.hi
                        );
                    }
                }
            }
        }
        let s = &compiled.summary;
        writeln!(
            out,
            "summary: {} arrays / {} partitionings / {} comm patterns / {} groups / {} shared\n",
            s.arrays.len(),
            s.partitionings.len(),
            s.communications.len(),
            s.groups.len(),
            s.shared_arrays.len()
        );
    }
    Output::text(out).into()
}
