//! Static coloring analysis: predict a mapping's cache behavior without
//! simulating a single reference.
//!
//! Counts each CPU's pages per color with the static prover's interference
//! map (`cdpc_analyze::InterferenceMap::color_loads`) under page coloring
//! and under CDPC on the tomcatv model — the numeric counterpart of the
//! paper's Figures 3 and 5 (per-CPU cache utilization and color hot spots).
//!
//! ```text
//! cargo run --release --example coloring_analysis
//! ```

use cdpc::analyze::interference::ColorLoad;
use cdpc::analyze::{ColoringModel, InterferenceMap, MachineModel, Scope};
use cdpc::workloads::{by_name, spec::Scale};
use cdpc_compiler::{compile, CompileOptions};

/// One CPU's view of a coloring: pages beyond one per color (a static
/// proxy for direct-mapped conflicts), the fraction of colors it touches,
/// and its most loaded color.
struct CpuProfile {
    overload: u64,
    utilization: f64,
    peak: u64,
}

fn profiles(loads: &[ColorLoad], machine: &MachineModel) -> Vec<CpuProfile> {
    (0..machine.num_cpus)
        .map(|cpu| {
            let mine = || loads.iter().filter(move |l| l.cpu == cpu);
            CpuProfile {
                overload: mine().map(|l| l.excess(machine.l2_assoc)).sum(),
                utilization: mine().count() as f64 / machine.num_colors() as f64,
                peak: mine().map(|l| l.pages).max().unwrap_or(0),
            }
        })
        .collect()
}

fn main() {
    let cpus = 16;
    let bench = by_name("tomcatv").expect("tomcatv exists");
    let program = (bench.build)(Scale::new(8));
    let compiled = compile(&program, &CompileOptions::new(cpus)).expect("model compiles");
    // The scaled base machine: 128 KB direct-mapped external cache.
    let machine = MachineModel {
        l2_bytes: (1 << 20) / 8,
        ..MachineModel::paper_base(cpus)
    };

    let map = InterferenceMap::build(&compiled, &machine, Scope::Program);
    let pc = profiles(
        &map.color_loads(&ColoringModel::page_coloring(&machine)),
        &machine,
    );
    let cdpc = profiles(
        &map.color_loads(&ColoringModel::cdpc(&compiled, &machine)),
        &machine,
    );

    println!(
        "tomcatv on {cpus} CPUs, {} colors — static coloring profiles\n",
        machine.num_colors()
    );
    println!(
        "{:<16} {:>14} {:>13} {:>10}",
        "mapping", "total overload", "utilization", "peak load"
    );
    for (label, profile) in [("page coloring", &pc), ("cdpc", &cdpc)] {
        let overload: u64 = profile.iter().map(|c| c.overload).sum();
        let utilization = profile.iter().map(|c| c.utilization).sum::<f64>() / profile.len() as f64;
        let peak = profile.iter().map(|c| c.peak).max().unwrap_or(0);
        println!(
            "{:<16} {:>14} {:>12.1}% {:>10}",
            label,
            overload,
            utilization * 100.0,
            peak
        );
    }
    println!("\nper-CPU detail (cpu: overload / utilization):");
    for (cpu, (a, b)) in pc.iter().zip(&cdpc).enumerate() {
        println!(
            "  cpu{:<2}  page-coloring {:>3} / {:>5.1}%    cdpc {:>3} / {:>5.1}%",
            cpu,
            a.overload,
            a.utilization * 100.0,
            b.overload,
            b.utilization * 100.0
        );
    }
    println!("\n`overload` counts pages beyond one-per-color per CPU — a static");
    println!("proxy for direct-mapped conflicts. CDPC should drive it toward zero");
    println!("while lifting utilization toward 100% (the Figure 3 → 5 transform).");
}
