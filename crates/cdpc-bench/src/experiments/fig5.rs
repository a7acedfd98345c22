//! Figure 5: access patterns in CDPC coloring order.
//!
//! The same three workloads as Figure 3 (tomcatv, swim, hydro2d at 16
//! processors), but with pages plotted in the **coloring order** chosen by
//! compiler-directed page coloring. Compare with Figure 3: each
//! processor's pages become dense contiguous runs, so consecutive colors
//! are used evenly and conflicts vanish.

use super::*;
use cdpc_core::{generate_hints, MachineParams};

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    writeln!(
        out,
        "Figure 5: access patterns in CDPC coloring order (16 CPUs, scale {})\n",
        setup.scale
    );
    let mem = setup.scaled_mem(Preset::Base1MbDm, fig3::CPUS);
    let (l2, page) = (mem.l2.size_bytes(), mem.page_size);
    let machine = MachineParams::new(fig3::CPUS, page, l2, mem.l2.associativity());
    fig3::plots(&mut out, setup, |compiled, _| {
        let hints = generate_hints(&compiled.summary, &machine).expect("summary is valid");
        let positions: Vec<u64> = hints.order().iter().map(|v| v.0).collect();
        let colors = machine.colors().num_colors();
        let caption = format!("{} hinted pages, {colors} colors", positions.len());
        (positions, caption)
    });
    writeln!(
        out,
        "Each column is a bucket of consecutive positions in the CDPC page order\n\
         (color = position mod #colors). Each CPU's pages now form dense runs."
    );
    Output::text(out).into()
}
