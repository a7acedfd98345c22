//! Regenerate the paper's tables and figures: every file in `results/`, or
//! the experiments named on the command line.
//!
//! ```text
//! cargo run --release -p cdpc-bench --bin reproduce -- --threads 2
//! cargo run --release -p cdpc-bench --bin reproduce -- fig6 --scale 64 --json fig6.json
//! ```
//!
//! With no name, the entries of each committed scale run as one pool on a
//! fresh [`Setup`] and write their files into `results/`; `--threads` is
//! the only flag accepted. `git diff --exit-code -- results/` afterwards is
//! the golden check. With names, the named entries run as one pool on the
//! setup the shared flags describe and each prints its first file. Either
//! way the exit status is 1 if an experiment's own gate failed.

use cdpc_bench::experiments::{find, results_dir, run_entries, REGISTRY};
use cdpc_bench::{exit_with_error, write_text, Setup};

fn main() {
    let (setup, names) = Setup::from_args_with_positionals();
    let named: Vec<_> = names
        .iter()
        .map(|name| {
            find(name).unwrap_or_else(|| {
                let valid: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
                exit_with_error(format_args!(
                    "unknown experiment `{name}` (valid: {})",
                    valid.join(", ")
                ))
            })
        })
        .collect();

    let mut failures = Vec::new();
    if named.is_empty() {
        // The parser has checked that every `--threads` has a value, so the
        // arguments are exactly `--threads N` pairs or something else is set.
        let args: Vec<String> = std::env::args().skip(1).collect();
        if let Some(pair) = args.chunks(2).find(|pair| pair[0] != "--threads") {
            exit_with_error(format_args!(
                "with no experiment name, reproduce accepts only --threads, not `{}`",
                pair[0]
            ));
        }
        let mut scales: Vec<u64> = REGISTRY.iter().map(|e| e.scale).collect();
        scales.sort_unstable();
        scales.dedup();
        for scale in scales {
            let entries: Vec<_> = REGISTRY.iter().filter(|e| e.scale == scale).collect();
            let mut fresh = Setup::with_scale(scale);
            fresh.threads = setup.threads;
            for (e, out) in entries.iter().zip(run_entries(&fresh, &entries)) {
                for (file, bytes) in e.files.iter().zip(&out.bytes) {
                    write_text(&results_dir().join(file), bytes);
                }
                failures.extend(out.failure.map(|f| format!("{}: {f}", e.name)));
            }
        }
    } else {
        for (e, out) in named.iter().zip(run_entries(&setup, &named)) {
            print!("{}", out.bytes[0]);
            failures.extend(out.failure.map(|f| format!("{}: {f}", e.name)));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
