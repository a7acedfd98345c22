//! Figure 4: a step-by-step walkthrough of the CDPC algorithm.
//!
//! Reproduces the paper's didactic example — two data structures
//! partitioned between two CPUs on a machine with a four-color cache —
//! showing the output of each of the five steps.

use super::*;
use cdpc_core::machine::MachineParams;
use cdpc_core::ordering::{order_segments_within, order_sets};
use cdpc_core::segments::{build_segments, group_into_sets};
use cdpc_core::summary::{
    AccessSummary, ArrayId, ArrayInfo, ArrayPartitioning, GroupAccess, PartitionDirection,
    PartitionPolicy,
};
use cdpc_core::{cyclic, hints::ColorHints};
use cdpc_vm::addr::{VirtAddr, Vpn};

/// The walkthrough is a fixed-size example that runs no simulations, so
/// it ignores the setup.
pub(super) fn run(_: &Setup) -> Output {
    let mut out = Text::default();
    let page = 4096u64;
    let a = ArrayId(0);
    let b = ArrayId(1);
    // Two 8-page arrays, block-partitioned across 2 CPUs, used together.
    let summary = AccessSummary {
        arrays: vec![
            ArrayInfo::new(a, "A", VirtAddr(0), 8 * page),
            ArrayInfo::new(b, "B", VirtAddr(8 * page), 8 * page),
        ],
        partitionings: vec![
            ArrayPartitioning::new(
                a,
                page,
                8,
                PartitionPolicy::Blocked,
                PartitionDirection::Forward,
            ),
            ArrayPartitioning::new(
                b,
                page,
                8,
                PartitionPolicy::Blocked,
                PartitionDirection::Forward,
            ),
        ],
        communications: vec![],
        groups: vec![GroupAccess::new(vec![a, b])],
        shared_arrays: vec![],
    };
    let machine = MachineParams::new(2, page as usize, 4 * page as usize, 1);
    writeln!(
        out,
        "Figure 4: CDPC walkthrough — 2 CPUs, 2 arrays x 8 pages, 4 colors\n\n\
         (a) Step 1 — uniform access segments:"
    );
    let segments = build_segments(&summary, &machine).expect("valid summary");
    let name = |id| &summary.array(id).unwrap().name;
    for s in &segments {
        let (start, end) = (s.start.0, s.end().0);
        writeln!(
            out,
            "    array {} [{start:>6}..{end:>6})  procs {}",
            name(s.array),
            s.procs
        );
    }

    writeln!(out, "\n(b) Step 2 — uniform access sets, ordered:");
    let sets = order_sets(group_into_sets(segments));
    for set in &sets {
        writeln!(
            out,
            "    procs {}  ({} segments, {} bytes)",
            set.procs,
            set.segments.len(),
            set.total_bytes()
        );
    }

    writeln!(
        out,
        "\n(c) Steps 3-4 — segment ordering and cyclic page layout:"
    );
    let mut sets = sets;
    for set in &mut sets {
        order_segments_within(set, &summary);
    }
    let order = cyclic::emit_page_order(&sets, &summary, &machine);
    for p in &order.placements {
        let (array, pages, color) = (name(p.array), p.pages, p.start_color);
        writeln!(
            out,
            "    array {array} -> {pages} pages, first page gets color {color}"
        );
    }

    writeln!(
        out,
        "\n(d) Step 5 — round-robin colors over the final order:"
    );
    let hints = ColorHints::from_order(order, machine.colors());
    for (vpn, color) in hints.assignments() {
        writeln!(out, "    vpn {:>2} -> color {}", vpn.0, color.0);
    }
    let (a0, b0) = (
        hints.color_of(Vpn(0)).unwrap(),
        hints.color_of(Vpn(8)).unwrap(),
    );
    writeln!(
        out,
        "\nThe starting pages of A (vpn 0) and B (vpn 8) now differ in color:\n    \
         A starts at {a0:?}, B at {b0:?}"
    );
    Output::text(out)
}
