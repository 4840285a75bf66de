//! The streamed suite build: each build job loads its lowerings, simulates
//! them and keeps only the HSU trace. What a built suite retains must be
//! what `Suite::prepare_traces` returns, and the per-simulation fault
//! semantics (keys, order, deadlines, fail-fast, keep-going) must hold
//! although one pool job now runs several simulations.

use std::time::Duration;

use hsu_bench::runner::{FaultPolicy, JobStatus};
use hsu_bench::suite::App;
use hsu_bench::{ArchiveCache, Suite, SuiteConfig};
use hsu_datasets::DatasetId;

/// Down-scaled but complete configuration: all 21 app × dataset pairs.
fn small_config() -> SuiteConfig {
    SuiteConfig {
        sms: 2,
        scale_divisor: 64,
        ..SuiteConfig::default()
    }
}

/// The 63 simulation keys in plan order: every retained app × dataset
/// label followed by its `hsu`, `base` and `stripped` variants.
fn planned_keys(suite: &Suite) -> Vec<String> {
    assert_eq!(suite.traces.len(), 21, "HSU traces are kept anyway");
    suite
        .traces
        .iter()
        .flat_map(|t| ["hsu", "base", "stripped"].map(|v| format!("{}/{v}", t.label)))
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a full suite build is slow unoptimized; run with --release"
)]
fn built_suite_retains_what_prepare_traces_returns() {
    let config = small_config();
    let suite = Suite::build(config.clone());
    let prepared = Suite::prepare_traces(&config, &ArchiveCache::disabled());
    assert_eq!(suite.traces.len(), 21, "one HSU trace per app × dataset");
    assert_eq!(prepared.len(), suite.traces.len());
    for (b, p) in suite.traces.iter().zip(&prepared) {
        assert_eq!(b.label, p.label, "plan order drifted");
        assert_eq!((b.app, b.dataset), (p.app, p.dataset), "{}", b.label);
        assert_eq!(b.hsu, p.hsu, "{}: retained HSU trace differs", b.label);
    }
    assert!(
        suite
            .traces
            .iter()
            .any(|t| t.app == App::Btree && t.dataset == DatasetId::BTree10k),
        "the B+10K HSU trace is retained"
    );
}

#[test]
fn keep_going_reports_every_timed_out_simulation_in_plan_order() {
    let config = small_config().with_jobs(2);
    let policy = FaultPolicy {
        keep_going: true,
        job_timeout: Some(Duration::ZERO),
    };
    let Ok(build) = Suite::build_with_policy(config, &policy) else {
        panic!("the suite's machine is valid");
    };
    let keys: Vec<&str> = build.outcomes.iter().map(|o| o.key.as_str()).collect();
    assert_eq!(keys, planned_keys(&build.suite));
    for o in &build.outcomes {
        assert_eq!(o.status, JobStatus::Timeout, "{}", o.key);
    }
    assert!(build.suite.runs.is_empty(), "no app has three reports");
    assert!(build.suite.records.is_empty());
}

#[test]
fn fail_fast_skips_every_simulation_after_the_first_timeout() {
    let config = small_config().with_jobs(1);
    let policy = FaultPolicy {
        keep_going: false,
        job_timeout: Some(Duration::ZERO),
    };
    let Ok(build) = Suite::build_with_policy(config, &policy) else {
        panic!("the suite's machine is valid");
    };
    let keys: Vec<&str> = build.outcomes.iter().map(|o| o.key.as_str()).collect();
    assert_eq!(keys, planned_keys(&build.suite));
    let statuses: Vec<JobStatus> = build.outcomes.iter().map(|o| o.status).collect();
    assert_eq!(statuses[0], JobStatus::Timeout, "{}", keys[0]);
    assert!(
        statuses[1..].iter().all(|&s| s == JobStatus::Skipped),
        "{statuses:?}"
    );
    assert_eq!(statuses.len(), 63);
    assert!(build.suite.runs.is_empty());
}
