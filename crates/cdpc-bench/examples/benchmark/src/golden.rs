//! Golden report digests: one fingerprint of `report_to_json` per job, in
//! canonical job order, so a run's simulated statistics are checked
//! exactly rather than within a bound.

use cdpc_core::FpHasher;
use cdpc_machine::{report_to_json, RunReport};

use crate::workloads::Workload;

/// Digests for the timed workloads at their own scales.
pub const FULL: &str = include_str!("../goldens.txt");
/// Digests for `--smoke` (every workload at scale 64).
pub const SMOKE: &str = include_str!("../smoke_goldens.txt");

/// The stable digest of one report.
pub fn digest(report: &RunReport) -> String {
    let mut h = FpHasher::new();
    h.write_bytes(report_to_json(report).to_string_compact().as_bytes());
    h.finish().to_hex()
}

/// Golden lines for `workload`: `workload label digest`, one per job.
pub fn lines(workload: &Workload, reports: &[RunReport]) -> String {
    workload
        .jobs
        .iter()
        .zip(reports)
        .map(|(spec, r)| format!("{} {} {}\n", workload.name, spec.label(), digest(r)))
        .collect()
}

/// Counts the jobs whose report differs from the golden file `text`
/// (canonical order), naming each on stderr.
pub fn mismatches(text: &str, workload: &Workload, reports: &[RunReport]) -> usize {
    let want: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next() == Some(workload.name))
                .then(|| (f.next().unwrap_or(""), f.next().unwrap_or("")))
        })
        .collect();
    let mut bad = 0;
    for (i, (spec, report)) in workload.jobs.iter().zip(reports).enumerate() {
        let label = spec.label();
        let got = digest(report);
        if want.get(i) != Some(&(label.as_str(), got.as_str())) {
            eprintln!(
                "{}: job {label} does not match its golden digest",
                workload.name
            );
            bad += 1;
        }
    }
    bad
}
