//! Table 1: reference data set sizes of SPEC95fp.
//!
//! Regenerates the paper's Table 1 from the workload models, printing both
//! the model's size at full scale and the paper's figure.

use super::*;
use cdpc_workloads::spec::{Scale, MB};

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let mut out = Text::default();
    writeln!(out, "Table 1. Reference Data Set Sizes of SPEC95fp");
    writeln!(
        out,
        "(model at full scale vs. paper; runs use --scale {})\n",
        setup.scale
    );
    writeln!(
        out,
        "{:<14} {:>12} {:>10} {:>14}",
        "Benchmark", "model (MB)", "paper", "at --scale"
    );
    writeln!(out, "{}", "-".repeat(54));
    for b in cdpc_workloads::all() {
        let full = (b.build)(Scale::FULL).data_set_bytes() as f64 / MB as f64;
        let scaled = (b.build)(setup.workload_scale()).data_set_bytes() as f64 / MB as f64;
        let paper = if b.name.contains("fpppp") {
            "< 1".to_string()
        } else {
            format!("{:.0}", b.table1_mb)
        };
        writeln!(
            out,
            "{:<14} {:>12.1} {:>10} {:>11.2} MB",
            b.name, full, paper, scaled
        );
    }
    Output::text(out).into()
}
