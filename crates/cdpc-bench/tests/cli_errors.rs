//! Malformed command lines and unwritable output paths end `reproduce` and
//! `inspect` with exit status 2 and a single `error: …` line on stderr,
//! never with a panic. No case here may reach `reproduce`'s no-name mode
//! with valid flags: that would rewrite `results/`.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args` (and no ambient result cache, whose summary line
/// would add to stderr), then checks the one-line error contract.
fn assert_usage_error(bin: &str, args: &[&str], expect: &str) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("CDPC_CACHE_DIR")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let case = format!("{} {}", Path::new(bin).display(), args.join(" "));
    assert_eq!(out.status.code(), Some(2), "{case}: stderr was {stderr:?}");
    assert!(!stderr.contains("panicked at"), "{case}: {stderr:?}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{case}: stderr was {stderr:?}");
    assert!(lines[0].starts_with("error: "), "{case}: {stderr:?}");
    assert!(lines[0].contains(expect), "{case}: {stderr:?}");
    assert!(out.stdout.is_empty(), "{case}: printed to stdout");
}

#[test]
fn malformed_shared_flags_exit_2() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    let cases: [(&[&str], &str); 7] = [
        (&["table1", "--bogus"], "unknown flag `--bogus`"),
        (&["table1", "--scale"], "--scale needs a value"),
        (
            &["table1", "--scale", "3"],
            "--scale needs a power-of-two value",
        ),
        (
            &["table1", "--scale", "eight"],
            "--scale needs a power-of-two value",
        ),
        (&["--threads", "many"], "--threads needs a thread count"),
        (
            &["table1", "--sample-interval", "0"],
            "--sample-interval needs a positive",
        ),
        (
            &["table1", "--predict", "p.json"],
            "unknown flag `--predict`",
        ),
    ];
    for (args, expect) in cases {
        assert_usage_error(bin, args, expect);
    }
}

#[test]
fn reproduce_rejects_unknown_names_and_no_name_flags() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    // Every name is checked before any experiment runs.
    assert_usage_error(
        bin,
        &["table1", "fig10"],
        "unknown experiment `fig10` (valid: table1, fig1,",
    );
    assert_usage_error(
        bin,
        &["--threads", "2", "--scale", "64"],
        "accepts only --threads, not `--scale`",
    );
    assert_usage_error(bin, &["--top"], "accepts only --threads, not `--top`");
}

#[test]
fn malformed_positionals_exit_2() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_inspect"),
        &["tomcatv", "eight"],
        "cpus must be a number",
    );
    for cpus in ["0", "33", "65"] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_inspect"),
            &["tomcatv", cpus],
            "cpus must be in 1..=32",
        );
    }
    assert_usage_error(
        env!("CARGO_BIN_EXE_inspect"),
        &["tomcatv", "4", "--scale", "5"],
        "--scale needs a power-of-two value",
    );
}

#[test]
fn unwritable_output_path_exits_2() {
    // A directory cannot be written as a file, whoever runs the test.
    let dir = env!("CARGO_TARGET_TMPDIR");
    assert_usage_error(
        env!("CARGO_BIN_EXE_inspect"),
        &["tomcatv", "1", "cdpc", "--scale", "64", "--json", dir],
        "cannot write",
    );
}
