//! Figure 3: page-level access patterns of the data segment.
//!
//! For tomcatv, swim, and hydro2d on 16 processors, plots which virtual
//! pages each processor touches, in **virtual address order** — showing
//! the sparse per-processor patterns that defeat standard page mapping
//! policies ("even though each processor accesses less than 1 MB of data,
//! it does so in a range that is significantly larger than the cache
//! size").

use std::collections::BTreeSet;

use super::*;
use cdpc_compiler::trace::TraceOp;
use cdpc_compiler::{CompiledProgram, CompiledStmt};

/// Processor count of Figures 3 and 5.
pub(super) const CPUS: usize = 16;

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    writeln!(
        out,
        "Figure 3: page-level access patterns in virtual-address order (16 CPUs, scale {})\n",
        setup.scale
    );
    plots(&mut out, setup, |_, sets| {
        // All touched pages, in ascending virtual order.
        let positions: Vec<u64> = sets
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let per_cpu = sets.iter().map(BTreeSet::len);
        let (min, max) = (per_cpu.clone().min().unwrap(), per_cpu.max().unwrap());
        let caption = format!("{} pages touched; {min}..{max} pages/cpu", positions.len());
        (positions, caption)
    });
    writeln!(
        out,
        "Each column is a bucket of consecutive virtual pages; '#' = the CPU\n\
         touches at least one page in the bucket. Note the sparse, strided rows."
    );
    Output::text(out)
}

/// For tomcatv, swim and hydro2d, writes a caption line and then one row
/// per CPU with a `#` for each bucket of page positions the CPU touches.
/// `order` turns the program and its per-CPU page sets into the positions,
/// in plot order, and the caption.
pub(super) fn plots(
    out: &mut Text,
    setup: &Setup,
    order: impl Fn(&CompiledProgram, &[BTreeSet<u64>]) -> (Vec<u64>, String),
) {
    let page = setup.scaled_mem(Preset::Base1MbDm, CPUS).page_size as u64;
    for bench in benches(&["tomcatv", "swim", "hydro2d"]) {
        let compiled = setup.compile_bench(&bench, Preset::Base1MbDm, CPUS, false, true);
        let sets = page_sets(&compiled, page);
        let (positions, caption) = order(&compiled, &sets);
        writeln!(out, "== {} == ({caption})", bench.name);
        let bucket = positions.len().max(1).div_ceil(96).max(1);
        for (cpu, touched) in sets.iter().enumerate() {
            write!(out, "cpu{cpu:<2} |");
            for chunk in positions.chunks(bucket) {
                let hit = chunk.iter().any(|p| touched.contains(p));
                write!(out, "{}", if hit { '#' } else { '.' });
            }
            writeln!(out);
        }
        writeln!(out);
    }
}

/// The virtual data pages each CPU touches in the distributed loops of a
/// compiled program.
fn page_sets(compiled: &CompiledProgram, page_size: u64) -> Vec<BTreeSet<u64>> {
    let mut sets = vec![BTreeSet::new(); compiled.num_cpus];
    for phase in &compiled.phases {
        for stmt in &phase.stmts {
            if let CompiledStmt::Parallel { specs } = stmt {
                for (cpu, spec) in specs.iter().enumerate() {
                    for op in spec.ops() {
                        if let TraceOp::Load(va) | TraceOp::Store(va) = op {
                            sets[cpu].insert(va.0 / page_size);
                        }
                    }
                }
            }
        }
    }
    sets
}
