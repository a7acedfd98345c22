//! The registry owns exactly the files committed in `results/`, the cheap
//! entries reproduce their committed bytes exactly, and one pool runs the
//! entries' shared points once while handing each entry its own reports.
//! The sweeps (fig2, fig6–fig9, table2 and the extension experiments) take
//! seconds each; CI byte-diffs them after running `reproduce`.

use std::collections::{BTreeSet, HashSet};

use cdpc_bench::experiments::{find, results_dir, run_entries, REGISTRY};
use cdpc_bench::Setup;
use cdpc_machine::run_key;

#[test]
fn registry_owns_every_file_in_results() {
    let owned: Vec<String> = REGISTRY
        .iter()
        .flat_map(|e| e.files.iter().map(|f| f.to_string()))
        .collect();
    let unique: BTreeSet<String> = owned.iter().cloned().collect();
    assert_eq!(
        unique.len(),
        owned.len(),
        "a file has two owners: {owned:?}"
    );
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(unique, committed);
}

#[test]
fn cheap_entries_match_their_committed_bytes() {
    let cheap = [
        "table1", "fig1", "fig3", "fig4", "fig5", "attrib", "analyze", "predict",
    ];
    for name in cheap {
        let e = find(name).expect("registered");
        let out = run_entries(&Setup::with_scale(e.scale), &[e]).remove(0);
        assert_eq!(out.failure, None, "{name}'s gate failed");
        assert_eq!(out.bytes.len(), e.files.len(), "{name}");
        for (file, bytes) in e.files.iter().zip(&out.bytes) {
            let committed = std::fs::read_to_string(results_dir().join(file)).unwrap();
            let first_diff = bytes
                .lines()
                .zip(committed.lines())
                .position(|(a, b)| a != b);
            assert!(
                *bytes == committed,
                "{file} differs from results/ (first differing line: {first_diff:?}); \
                 rerun `reproduce` and review `git diff -- results/`"
            );
        }
    }
}

/// The scale-8 entries overlap: all of fig2 is in fig6, all of table2 in
/// fig9, half of fig8 in fig6, and the extension sweeps repeat fig6 points.
/// Building their plans (which compiles but simulates nothing) shows how
/// much `reproduce`'s one pool saves over running the entries one by one.
#[test]
fn committed_scale_8_pool_has_507_distinct_runs_in_691_jobs() {
    let setup = Setup::with_scale(8);
    let jobs: Vec<_> = REGISTRY
        .iter()
        .filter(|e| e.scale == 8)
        .flat_map(|e| (e.run)(&setup).jobs)
        .collect();
    let keys: HashSet<_> = jobs.iter().map(|j| run_key(&j.compiled, &j.cfg)).collect();
    assert_eq!(jobs.len(), 691);
    assert_eq!(keys.len(), 507);
}

/// victim and dynamic share six runs (page coloring and CDPC on tomcatv,
/// swim and hydro2d at 8 CPUs), which the pool simulates once. Each entry
/// must still render from its own reports: the same bytes as alone.
#[test]
fn pooled_entries_render_what_they_render_alone() {
    let entries = [find("victim").unwrap(), find("dynamic").unwrap()];
    let pooled = run_entries(&Setup::with_scale(64), &entries);
    for (e, out) in entries.iter().zip(&pooled) {
        let alone = run_entries(&Setup::with_scale(64), &[e]).remove(0);
        assert_eq!(out.bytes, alone.bytes, "{}", e.name);
    }
}
