//! `--smoke` runs every workload at toy size, each in its own process.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_runs_every_workload_correctly_within_a_minute() {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_hsu-benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark starts");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": "))
        .collect();
    assert_eq!(results.len(), hsu_benchmark::WORKLOADS.len(), "{stdout}");
    assert!(results.iter().all(|l| l.starts_with("{\"correct\": true")));
    for (name, _) in hsu_benchmark::END_TO_END {
        assert!(
            stdout.contains(&format!(" {name} ")),
            "{name} missing:\n{stdout}"
        );
    }
    assert!(elapsed < Duration::from_secs(60), "smoke took {elapsed:?}");
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsu-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
