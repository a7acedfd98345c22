//! Miss attribution for one run: which array, on which page color, on
//! which CPU, causes which class of cache miss — the paper's
//! conflict-tracing methodology (Figure 6's "which arrays fight over the
//! cache" question) for tomcatv on 4 CPUs under CDPC.
//!
//! Produces the attribution JSON document and its self-contained HTML
//! rendering (inline SVG heatmap, offender table, occupancy timeline).
//! `inspect <benchmark> [cpus] [policy] --attrib <path>` does the same
//! for any run, and `--top` prints the terminal summary.

use super::*;
use cdpc_machine::{attribution_to_html, attribution_to_json, run_attributed};

pub(super) fn run(setup: &Setup) -> Plan<'_> {
    let bench = cdpc_workloads::by_name("tomcatv").expect("benchmark exists");
    let job = setup.job(&bench, Preset::Base1MbDm, 4, PolicyKind::Cdpc, false, true);
    let (report, probe) = run_attributed(&job.compiled, &job.cfg);
    let doc = attribution_to_json(&probe, &job.compiled.array_names(), &report);
    Plan::from(Output {
        bytes: vec![doc.to_string_pretty(), attribution_to_html(&doc)],
        failure: None,
    })
}
