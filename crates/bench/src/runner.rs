//! Parallel execution for the simulation suite.
//!
//! The run matrix (application × dataset × lowering variant × GPU
//! configuration) is embarrassingly parallel: every simulation is a pure
//! function of its trace and config. This module fans those jobs across a
//! small pool of scoped worker threads, using only `std` (no external
//! dependencies):
//!
//! * the job list is fixed before any worker starts, so the workers share
//!   one locked queue of it and each takes its next job when it finishes
//!   one,
//! * every job carries a **stable key** (its submission index); results are
//!   merged in key order, never completion order, so output is
//!   byte-identical for any worker count,
//! * jobs never share mutable state; anything random derives a private seed
//!   via [`job_seed`] from the suite seed and the job's stable key.
//!
//! Observability: heavyweight entry points wrap each simulation in a
//! [`RunRecord`] (wall-time, simulated cycles, simulation throughput, peak
//! warp-buffer occupancy) and the suite prints them with [`records_table`].
//! Records go to stderr so stdout stays deterministic across `--jobs`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use hsu_sim::error::{CancelToken, RunLimits, WatchdogCause};
use hsu_sim::{SimError, SimReport};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives an independent RNG seed for one job from the suite seed and the
/// job's stable key, by FNV-1a hashing the key into a SplitMix64-style mix.
/// Deterministic, order-free, and collision-resistant enough that no two
/// suite jobs share a stream.
pub fn job_seed(base_seed: u64, key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3); // FNV prime
    }
    let mut z = base_seed ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs every job on a pool of `workers` scoped threads and returns the
/// results **in submission order** regardless of completion order.
///
/// The closure receives `(stable_index, job)`; the index is the job's key
/// and is safe to fold into [`job_seed`]. With `workers <= 1` (or a single
/// job) everything runs inline on the caller's thread — the sequential and
/// parallel paths produce identical results by construction.
///
/// A panic in a job reaches the caller with the job's own payload, for any
/// worker count, once every worker has finished.
pub fn run_jobs<J, T, F>(workers: usize, jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(usize, J) -> T + Sync,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }

    // Jobs are taken from the back, so they start in descending key order.
    // The suite's peak memory is set by the build jobs that run at the same
    // time (each holds its lowerings until it has simulated them) on top of
    // the HSU traces already kept, and its recorded `peak_rss_mb` history
    // uses this order.
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                let (queue, f) = (&queue, &f);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Its own statement, so the guard is dropped before
                        // the job runs: a `while let` over the lock would
                        // hold it through the loop body. No job runs under
                        // the lock, so a poisoned one still holds a valid
                        // iterator.
                        let next = queue
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .next_back();
                        let Some((key, job)) = next else { break done };
                        done.push((key, f(key, job)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(key, _)| key);
    done.into_iter().map(|(_, out)| out).collect()
}

/// How the fault-tolerant pool reacts to failing jobs.
#[derive(Debug, Clone, Default)]
pub struct FaultPolicy {
    /// `false` (the default): the first job failure cancels every job that
    /// has not started yet (fail-fast). `true`: keep running the remaining
    /// jobs and report a partial result set.
    pub keep_going: bool,
    /// Wall-clock budget per job; enforced cooperatively inside
    /// `Gpu::run_guarded`, so a stuck simulation stops at its next loop
    /// iteration, not mid-instruction.
    pub job_timeout: Option<Duration>,
}

/// Final per-job disposition in a fault-tolerant batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Succeeded.
    Ok,
    /// Failed with a typed error or a panic.
    Failed,
    /// Exceeded the per-job wall-clock timeout.
    Timeout,
    /// Never attempted: an earlier failure cancelled the batch (fail-fast).
    Skipped,
}

impl JobStatus {
    /// Lower-case label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Timeout => "timeout",
            JobStatus::Skipped => "skipped",
        }
    }
}

/// Why a job did not produce a result.
#[derive(Debug)]
pub enum JobError {
    /// The job returned a typed simulator error.
    Sim(SimError),
    /// The job panicked; the payload is rendered to a string (panic
    /// isolation: the pool and its sibling jobs keep running).
    Panic(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Sim(e) => write!(f, "{e}"),
            JobError::Panic(p) => write!(f, "panic: {p}"),
        }
    }
}

/// One job's result in a fault-tolerant batch: either a value or the reason
/// there is none, plus how we got there.
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// The job's stable key.
    pub key: String,
    /// Final disposition.
    pub status: JobStatus,
    /// The value, or the job's error.
    pub result: Result<T, JobError>,
}

impl<T> JobOutcome<T> {
    /// `true` when the job produced a value.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fault-tolerant variant of [`run_jobs`]: each keyed job runs once under a
/// shared [`FaultGuard`] — `catch_unwind`, an optional wall-clock deadline,
/// and, under the fail-fast default, a [`CancelToken`] the first failure
/// trips so that no later job starts. Every submitted job gets a
/// [`JobOutcome`] in submission order — a poisoned job never takes down the
/// batch, it just shows up as `failed` (or `timeout`) in the partial report.
/// Failed jobs are not retried: a job is a pure function of its input, so a
/// second attempt would fail the same way.
///
/// The closure receives `(stable_index, &job, &RunLimits)` and must thread
/// the limits into `Gpu::run_guarded` (or honour them itself) for timeouts
/// and cancellation to preempt a running simulation.
pub fn run_jobs_ft<J, T, F>(
    workers: usize,
    policy: &FaultPolicy,
    jobs: Vec<(String, J)>,
    f: F,
) -> Vec<JobOutcome<T>>
where
    J: Send,
    T: Send,
    F: Fn(usize, &J, &RunLimits) -> Result<T, SimError> + Sync,
{
    let guard = FaultGuard::new(policy);
    run_jobs(workers, jobs, |i, (key, job)| {
        guard.run(key, |limits| f(i, &job, limits))
    })
}

/// The per-job fault handling of [`run_jobs_ft`], for pool jobs that run
/// several guarded simulations each (the suite's build jobs simulate every
/// lowering they load). One guard spans one batch: its [`CancelToken`] is
/// shared by every [`FaultGuard::run`] call, whichever worker makes it.
#[derive(Debug)]
pub struct FaultGuard<'a> {
    policy: &'a FaultPolicy,
    cancel: CancelToken,
}

impl<'a> FaultGuard<'a> {
    /// A guard for one batch under `policy`, nothing cancelled yet.
    pub fn new(policy: &'a FaultPolicy) -> Self {
        FaultGuard {
            policy,
            cancel: CancelToken::new(),
        }
    }

    /// Runs one keyed job under `catch_unwind`, its deadline starting now.
    /// A job that starts after the batch was cancelled is not run and comes
    /// back `Skipped`; a failure cancels the batch unless the policy keeps
    /// going.
    pub fn run<T>(
        &self,
        key: String,
        f: impl FnOnce(&RunLimits) -> Result<T, SimError>,
    ) -> JobOutcome<T> {
        if self.cancel.is_cancelled() {
            return JobOutcome {
                key,
                status: JobStatus::Skipped,
                result: Err(JobError::Sim(SimError::Watchdog {
                    kernel: String::new(),
                    cycles_simulated: 0,
                    cause: WatchdogCause::Cancelled,
                })),
            };
        }
        let mut limits = RunLimits::none().with_cancel(self.cancel.clone());
        if let Some(budget) = self.policy.job_timeout {
            limits = limits.with_deadline(Instant::now() + budget);
        }
        let error = match catch_unwind(AssertUnwindSafe(|| f(&limits))) {
            Ok(Ok(value)) => {
                return JobOutcome {
                    key,
                    status: JobStatus::Ok,
                    result: Ok(value),
                }
            }
            Ok(Err(e)) => JobError::Sim(e),
            Err(payload) => JobError::Panic(panic_message(payload)),
        };
        let status = match &error {
            JobError::Sim(SimError::Watchdog {
                cause: WatchdogCause::Deadline,
                ..
            }) => JobStatus::Timeout,
            _ => JobStatus::Failed,
        };
        if !self.policy.keep_going {
            self.cancel.cancel();
        }
        JobOutcome {
            key,
            status,
            result: Err(error),
        }
    }
}

/// Formats a fault-tolerant batch's per-job statuses, with error details for
/// everything that did not produce a value (the "partial report").
pub fn outcomes_table<T>(outcomes: &[JobOutcome<T>]) -> String {
    use std::fmt::Write as _;
    let failed = outcomes.iter().filter(|o| !o.is_ok()).count();
    let mut out = format!(
        "== job outcomes ({} jobs, {} ok, {} failed) ==\n",
        outcomes.len(),
        outcomes.len() - failed,
        failed
    );
    let _ = writeln!(out, "{:<28} {:>8}  detail", "job", "status");
    for o in outcomes {
        let detail = match &o.result {
            Ok(_) => String::new(),
            Err(e) => e.to_string().lines().next().unwrap_or("").to_string(),
        };
        let _ = writeln!(out, "{:<28} {:>8}  {}", o.key, o.status.label(), detail);
    }
    out
}

/// One simulation's observability record.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Stable job key, e.g. `GGNN/D1B/hsu` or `fig10/MNT/w=8`.
    pub key: String,
    /// Host wall-time the simulation took.
    pub wall: Duration,
    /// Simulated cycles.
    pub cycles: u64,
    /// SM ticks the run loop actually executed — equal to
    /// `cycles × num_sms` under stepped simulation, smaller under
    /// event-driven fast-forwarding (the difference is the skipped-cycle
    /// win; see `hsu_sim::stats::SchedStats`).
    pub ticks_executed: u64,
    /// Highest warp-buffer occupancy any RT/HSU unit reached.
    pub peak_warp_buffer: u64,
}

impl RunRecord {
    /// Builds a record from a finished report.
    fn from_report(key: impl Into<String>, wall: Duration, report: &SimReport) -> Self {
        RunRecord {
            key: key.into(),
            wall,
            cycles: report.cycles,
            ticks_executed: report.sched.ticks_executed,
            peak_warp_buffer: report.peak_warp_buffer_occupancy(),
        }
    }

    /// Simulation throughput in simulated cycles per host second.
    fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / secs
        }
    }
}

/// Times `sim()` and pairs its report with a [`RunRecord`], passing typed
/// simulation errors through untouched.
pub fn timed_run(
    key: impl Into<String>,
    sim: impl FnOnce() -> Result<SimReport, SimError>,
) -> Result<(SimReport, RunRecord), SimError> {
    let start = Instant::now();
    let report = sim()?;
    let record = RunRecord::from_report(key, start.elapsed(), &report);
    Ok((report, record))
}

/// Formats the suite's per-run records as an aligned summary table with a
/// TOTAL row (summed wall-time and cycles, max peak occupancy).
pub fn records_table(records: &[RunRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("== run records ({} simulations) ==\n", records.len());
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "job", "wall ms", "cycles", "ticks", "Mcyc/s", "peak-wb"
    );
    let mut wall = Duration::ZERO;
    let mut cycles = 0u64;
    let mut ticks = 0u64;
    let mut peak = 0u64;
    for r in records {
        wall += r.wall;
        cycles += r.cycles;
        ticks += r.ticks_executed;
        peak = peak.max(r.peak_warp_buffer);
        let _ = writeln!(
            out,
            "{:<24} {:>10.1} {:>12} {:>12} {:>10.2} {:>8}",
            r.key,
            r.wall.as_secs_f64() * 1e3,
            r.cycles,
            r.ticks_executed,
            r.cycles_per_sec() / 1e6,
            r.peak_warp_buffer
        );
    }
    let mcps = if wall.as_secs_f64() > 0.0 {
        cycles as f64 / wall.as_secs_f64() / 1e6
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "{:<24} {:>10.1} {:>12} {:>12} {:>10.2} {:>8}  (wall summed over workers)",
        "TOTAL",
        wall.as_secs_f64() * 1e3,
        cycles,
        ticks,
        mcps,
        peak
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Jobs deliberately finish out of order (larger index = shorter
        // spin); the merged results must still be in key order.
        let jobs: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 3, 8] {
            let out = run_jobs(workers, jobs.clone(), |i, j| {
                let spin = (64 - i) * 10;
                let mut acc = j;
                for k in 0..spin {
                    acc = acc.wrapping_mul(31).wrapping_add(k as u64);
                }
                std::hint::black_box(acc);
                (i, j * 2)
            });
            let expect: Vec<(usize, u64)> = (0..64).map(|i| (i as usize, i * 2)).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn pool_matches_sequential_for_any_worker_count() {
        let jobs: Vec<u64> = (0..17).map(|i| i * 7 + 1).collect();
        let sequential = run_jobs(1, jobs.clone(), |i, j| job_seed(j, &format!("k{i}")));
        for workers in 2..=9 {
            let parallel = run_jobs(workers, jobs.clone(), |i, j| job_seed(j, &format!("k{i}")));
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(32, vec![1, 2, 3], |_, j| j + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_job_list() {
        let out: Vec<u32> = run_jobs(4, Vec::<u32>::new(), |_, j| j);
        assert!(out.is_empty());
    }

    /// Runs `body` on its own thread and fails if it has not finished
    /// within a minute, so a hung pool fails the test instead of stalling
    /// the suite.
    fn with_watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
        });
        let Ok(result) = rx.recv_timeout(Duration::from_secs(60)) else {
            panic!("run_jobs hung");
        };
        runner.join().expect("the body's panic was caught");
        result.unwrap_or_else(|payload| resume_unwind(payload))
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_for_any_worker_count() {
        for workers in [1, 2, 3, 8] {
            let payload = with_watchdog(move || {
                catch_unwind(|| {
                    run_jobs(workers, (0..8u64).collect(), |_, j| {
                        if j == 3 {
                            panic!("job 3 failed");
                        }
                        j
                    })
                })
                .expect_err("the job's panic must reach the caller")
            });
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"job 3 failed"),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn jobs_run_outside_the_queue_lock() {
        // Both jobs wait for each other, so they finish only if two workers
        // run them at the same time.
        let out = with_watchdog(|| {
            let barrier = std::sync::Barrier::new(2);
            run_jobs(2, vec![10, 20], |_, j| {
                barrier.wait();
                j + 1
            })
        });
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn job_seeds_are_stable_and_distinct() {
        assert_eq!(job_seed(7, "GGNN/D1B/hsu"), job_seed(7, "GGNN/D1B/hsu"));
        assert_ne!(job_seed(7, "GGNN/D1B/hsu"), job_seed(7, "GGNN/D1B/base"));
        assert_ne!(job_seed(7, "a"), job_seed(8, "a"));
    }

    #[test]
    fn keep_going_isolates_a_panicking_job() {
        let policy = FaultPolicy {
            keep_going: true,
            ..FaultPolicy::default()
        };
        let jobs: Vec<(String, u64)> = (0..8).map(|i| (format!("job{i}"), i)).collect();
        for workers in [1, 4] {
            let outcomes = run_jobs_ft(workers, &policy, jobs.clone(), |_, j, _| {
                if *j == 3 {
                    panic!("poisoned job payload");
                }
                Ok(*j * 2)
            });
            assert_eq!(outcomes.len(), 8, "workers={workers}");
            for o in &outcomes {
                if o.key == "job3" {
                    assert_eq!(o.status, JobStatus::Failed);
                    let Err(JobError::Panic(msg)) = &o.result else {
                        panic!("expected a panic outcome, got {:?}", o.result);
                    };
                    assert!(msg.contains("poisoned job payload"));
                } else {
                    assert_eq!(o.status, JobStatus::Ok, "{} must survive", o.key);
                    assert!(o.is_ok());
                }
            }
        }
    }

    #[test]
    fn fail_fast_cancels_pending_jobs() {
        // One worker serializes the batch, so everything queued after the
        // poisoned job must come back skipped (never attempted).
        let policy = FaultPolicy::default();
        let jobs: Vec<(String, u64)> = (0..6).map(|i| (format!("job{i}"), i)).collect();
        let outcomes = run_jobs_ft(1, &policy, jobs, |_, j, _| {
            if *j == 1 {
                return Err(SimError::TraceDecode {
                    detail: "injected".into(),
                });
            }
            Ok(*j)
        });
        assert_eq!(outcomes[0].status, JobStatus::Ok);
        assert_eq!(outcomes[1].status, JobStatus::Failed);
        for o in &outcomes[2..] {
            assert_eq!(o.status, JobStatus::Skipped, "{} ran after cancel", o.key);
        }
    }

    #[test]
    fn outcomes_table_lists_statuses_and_details() {
        let outcomes = vec![
            JobOutcome {
                key: "a".into(),
                status: JobStatus::Ok,
                result: Ok(1u32),
            },
            JobOutcome {
                key: "b".into(),
                status: JobStatus::Failed,
                result: Err(JobError::Panic("boom".into())),
            },
        ];
        let table = outcomes_table(&outcomes);
        assert!(table.contains("2 jobs, 1 ok, 1 failed"));
        assert!(table.contains("failed"));
        assert!(table.contains("boom"));
    }

    #[test]
    fn records_table_has_total_row() {
        let recs = vec![
            RunRecord {
                key: "x/hsu".into(),
                wall: Duration::from_millis(2),
                cycles: 1000,
                ticks_executed: 400,
                peak_warp_buffer: 3,
            },
            RunRecord {
                key: "x/base".into(),
                wall: Duration::from_millis(4),
                cycles: 3000,
                ticks_executed: 900,
                peak_warp_buffer: 5,
            },
        ];
        let table = records_table(&recs);
        assert!(table.contains("TOTAL"));
        assert!(table.contains("x/hsu"));
        assert!(table.contains("4000"), "summed cycles:\n{table}");
        assert!(table.contains("1300"), "summed ticks:\n{table}");
        let total = recs[0].clone();
        assert!(total.cycles_per_sec() > 0.0);
    }
}
