//! The padding baseline (paper §2.2): how far does classic inter-array
//! padding get you, and where does it break?
//!
//! The paper dismisses padding for three reasons; this experiment
//! demonstrates the quantitative one: *"padding is constrained by the fact
//! that it operates on the virtual address space and not on the physical
//! address space. For example, pads that are larger than a page size are
//! ineffective if the operating system has a bin hopping policy."*
//!
//! We run tomcatv (the seven-same-color-array pathology) with pads of one
//! cache line, half a page, and two pages, under both page coloring and
//! bin hopping, against plain CDPC.

use super::*;
use cdpc_compiler::layout::LayoutMode;
use cdpc_compiler::{compile, CompileOptions};
use cdpc_machine::{RunConfig, SweepJob};

pub(super) fn run(setup: &Setup) -> Output {
    let mut out = Text::default();
    let cpus = 8;
    let bench = cdpc_workloads::by_name("tomcatv").expect("exists");
    let program = (bench.build)(setup.workload_scale());
    let mem = setup.scaled_mem(Preset::Base1MbDm, cpus);
    let page = mem.page_size as u64;

    let compile_with = |layout: Option<LayoutMode>| {
        let mut opts = CompileOptions::new(cpus).with_l2_cache(mem.l2.size_bytes() as u64);
        opts.l1_cache_bytes = mem.l1d.size_bytes() as u64;
        opts.layout_override = layout;
        compile(&program, &opts).expect("model compiles")
    };

    writeln!(
        out,
        "Padding vs page mapping policy — tomcatv, {} CPUs, 1MB DM cache, scale {}\n",
        cpus, setup.scale
    );
    table::header(
        &mut out,
        &["layout", "policy", "time", "conflict-stall"],
        &[16, 14, 10, 14],
    );

    let variants: [(&str, Option<LayoutMode>); 4] = [
        ("no pad", Some(LayoutMode::Padded { pad_bytes: 0 })),
        ("pad 1 line", Some(LayoutMode::Padded { pad_bytes: 128 })),
        (
            "pad page/2",
            Some(LayoutMode::Padded {
                pad_bytes: page / 2,
            }),
        ),
        (
            "pad 2 pages",
            Some(LayoutMode::Padded {
                pad_bytes: 2 * page,
            }),
        ),
    ];
    let policies = [PolicyKind::PageColoring, PolicyKind::BinHopping];
    let mut jobs = Vec::new();
    for policy in policies {
        for (_, layout) in variants {
            jobs.push(SweepJob::new(
                compile_with(layout),
                RunConfig::new(mem.clone(), policy),
            ));
        }
    }
    // The CDPC reference line.
    jobs.push(SweepJob::new(
        compile_with(None),
        RunConfig::new(mem.clone(), PolicyKind::Cdpc),
    ));
    let mut reports = setup.run_jobs(&jobs).into_iter();

    for policy in policies {
        for (label, _) in variants {
            let r = reports.next().expect("one report per padding variant");
            writeln!(
                out,
                "{:<16} {:<14} {:>10} {:>14}",
                label,
                policy.label(),
                table::cycles(r.elapsed_cycles),
                table::cycles(r.stalls.conflict),
            );
        }
        writeln!(out);
    }
    let r = reports.next().expect("one CDPC reference report");
    writeln!(
        out,
        "{:<16} {:<14} {:>10} {:>14}",
        "aligned",
        "cdpc",
        table::cycles(r.elapsed_cycles),
        table::cycles(r.stalls.conflict),
    );
    writeln!(
        out,
        "\nExpected: pads smaller than a page shift colors under page coloring\n\
         (sub-page pads leave page colors unchanged, multi-page pads help);\n\
         under bin hopping *no* pad helps — colors follow fault order, not\n\
         addresses. CDPC beats every padding variant on both policies."
    );
    Output::text(out)
}
