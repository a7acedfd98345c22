//! Malformed command lines and unwritable output paths end the experiment
//! binaries with exit status 2 and a single `error: …` line on stderr,
//! never with a panic.

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
    let bin = env!("CARGO_BIN_EXE_table1");
    let cases: [(&[&str], &str); 7] = [
        (&["--bogus"], "unknown flag `--bogus`"),
        (&["--scale"], "--scale needs a value"),
        (&["--scale", "3"], "--scale needs a power-of-two value"),
        (&["--scale", "eight"], "--scale needs a power-of-two value"),
        (&["--threads", "many"], "--threads needs a thread count"),
        (
            &["--sample-interval", "0"],
            "--sample-interval needs a positive",
        ),
        (&["stray"], "unknown argument `stray`"),
    ];
    for (args, expect) in cases {
        assert_usage_error(bin, args, expect);
    }
}

#[test]
fn malformed_positionals_exit_2() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_inspect"),
        &["tomcatv", "eight"],
        "cpus must be a number",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_attrib"),
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
