//! The registry owns exactly the files committed in `results/`, and the
//! cheap entries reproduce their committed bytes exactly. The sweeps
//! (fig2, fig6–fig9, table2 and the extension experiments) take seconds
//! each; CI byte-diffs them after running `reproduce`.

use std::collections::BTreeSet;

use cdpc_bench::experiments::{find, results_dir, REGISTRY};
use cdpc_bench::Setup;

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
        let out = (e.run)(&Setup::with_scale(e.scale));
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
