//! Flag edges of the `servebench` binary: a zero query count or a zero
//! worker, batch or queue size exits with status 2 and a usage message
//! before any index is opened, and never panics. The engine would
//! otherwise run a zero topology as 1 while the report printed 0, and zero
//! queries would report "0 qps". So does `--chaos` with a flag that sheds
//! or expires queries, which its gate would fail by construction, and the
//! removed `--closed-loop` and `--shards` flags.

use std::process::{Command, Output};

fn servebench(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_servebench");
    match Command::new(bin).args(args).output() {
        Ok(out) => out,
        Err(e) => panic!("cannot run {bin}: {e}"),
    }
}

/// Asserts a usage error: exit status 2, the usage text and `needle` on
/// stderr, nothing on stdout, no panic message, and no sign that the run
/// started (the topology banner is printed right after parsing).
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = servebench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.contains("host_cores="), "{args:?} started a run");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn zero_counts_are_usage_errors() {
    for flag in ["--queries", "--workers", "--batch", "--queue-capacity"] {
        assert_usage_error(
            &["--smoke", "--family", "btree", flag, "0"],
            &format!("{flag} needs a number >= 1"),
        );
    }
}

/// An all-zero topology is rejected on the first zero flag.
#[test]
fn an_all_zero_topology_is_a_usage_error() {
    assert_usage_error(
        &[
            "--smoke",
            "--family",
            "btree",
            "--workers",
            "0",
            "--batch",
            "0",
            "--queue-capacity",
            "0",
        ],
        "--workers needs a number >= 1",
    );
}

#[test]
fn non_numeric_counts_are_usage_errors() {
    assert_usage_error(&["--batch", "many"], "--batch needs a number >= 1");
    assert_usage_error(&["--window", "0"], "--window needs a number >= 1");
}

#[test]
fn chaos_with_a_shedding_or_expiring_flag_is_a_usage_error() {
    for (flag, value) in [
        ("--deadline-us", "300"),
        ("--priority-mix", "50"),
        ("--slo-us", "1000"),
    ] {
        for args in [
            ["--smoke", "--chaos", flag, value],
            ["--smoke", flag, value, "--chaos"],
        ] {
            assert_usage_error(&args, &format!("--chaos cannot be combined with {flag}"));
        }
    }
}

/// The closed loop is `--window 1`; the flag that only forced that window
/// is gone.
#[test]
fn the_removed_closed_loop_flag_is_an_unknown_argument() {
    assert_usage_error(
        &["--smoke", "--closed-loop"],
        "unknown argument '--closed-loop'",
    );
}

/// The engine has one admission queue; the flag that split it is gone.
#[test]
fn the_removed_shards_flag_is_an_unknown_argument() {
    assert_usage_error(&["--smoke", "--shards", "2"], "unknown argument '--shards'");
}
