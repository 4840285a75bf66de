//! Flag edges of the `repro` and `simbench` binaries: removed or malformed
//! options, and machines the simulator would reject, exit with status 2
//! and a usage message before any work starts, and never panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    match Command::new(bin).args(args).output() {
        Ok(out) => out,
        Err(e) => panic!("cannot run {bin}: {e}"),
    }
}

/// Asserts a usage error: exit status 2, the usage text and `needle` on
/// stderr, nothing on stdout, and no panic message.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn repro_rejects_the_removed_parallel_sim_mode() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_repro"),
        &["--sim-mode", "parallel", "fig9"],
        "--sim-mode needs 'stepped' or 'event'",
    );
}

#[test]
fn repro_rejects_the_removed_sim_threads_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_repro"),
        &["--sim-threads", "2", "fig9"],
        "unknown flag '--sim-threads'",
    );
}

#[test]
fn simbench_rejects_the_removed_sim_threads_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_simbench"),
        &["--sim-threads", "2"],
        "unknown argument '--sim-threads'",
    );
}

/// The cold/warm build-phase probe always uses a fresh temp directory, so
/// there is no directory to pin.
#[test]
fn simbench_rejects_the_removed_archive_dir_flag() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_simbench"),
        &["--archive-dir", "/nonexistent"],
        "unknown argument '--archive-dir'",
    );
}

/// An invalid machine is a usage error for every item, caught right after
/// parsing: `table3` used to print "# SMs 0" and exit 0, and `fig7` to exit
/// 1 only after starting the suite build.
#[test]
fn repro_rejects_an_invalid_machine_before_any_work() {
    for item in ["table3", "fig7", "table2"] {
        let args = ["--sms", "0", item];
        assert_usage_error(
            env!("CARGO_BIN_EXE_repro"),
            &args,
            "invalid config: num_sms = 0",
        );
        let stderr =
            String::from_utf8_lossy(&run(env!("CARGO_BIN_EXE_repro"), &args).stderr).into_owned();
        assert!(
            !stderr.contains("building workload suite"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn simbench_rejects_an_invalid_machine_before_any_work() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_simbench"),
        &["--sms", "0"],
        "invalid config: num_sms = 0",
    );
}
