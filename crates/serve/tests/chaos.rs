//! Chaos suite: every injected fault class must surface as its typed
//! `ServeError` — never a panic out of the engine, never a lost ticket —
//! and the replay digest of the *successfully served* queries of a
//! faulted run must match an unfaulted run of the same stream.
//!
//! Fault classes driven here, mirroring the simulator's fault harness:
//!
//! | fault | injection | typed error |
//! |---|---|---|
//! | worker panic | `ChaosPlan::panic_on` | `WorkerCrashed` (batch), worker keeps serving |
//! | slow batches | `ChaosPlan::slow_delay` | `DeadlineExceeded` for budgeted queries |
//! | deadline storm | submit with expired deadlines | `DeadlineExceeded` for every query |
//! | admission flood | submit past the class shares | `Overloaded`, lowest class first |
//! | SLO breach | slow index + `SloPolicy` target | `Overloaded` before the queue fills |

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use hsu_serve::chaos::{install_quiet_panic_hook, ChaosIndex, ChaosPlan};
use hsu_serve::prelude::*;
use hsu_serve::QueryBatch;

/// A pure synthetic key index: `key -> Some(2k + 1)`. Fast enough for
/// proptest sweeps, pure so faulted runs can be checked against a
/// directly computed unfaulted reference.
struct PureIndex;

impl SearchIndex for PureIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Btree
    }

    fn dim(&self) -> usize {
        0
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        batch
            .keys()
            .iter()
            .map(|&k| QueryOutput::Value(Some(u64::from(k) * 2 + 1)))
            .collect()
    }
}

/// The unfaulted answer for key `k` under [`PureIndex`].
fn expected_output(k: u32) -> QueryOutput {
    QueryOutput::Value(Some(u64::from(k) * 2 + 1))
}

/// A key index whose workers block until the test opens the gate, then
/// serve after a fixed delay — lets floods fill queues deterministically
/// and lets latency-window tests control service time.
struct GateIndex {
    gate: Arc<(Mutex<bool>, Condvar)>,
    delay: Duration,
}

impl GateIndex {
    fn new(delay: Duration) -> (Self, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        (
            GateIndex {
                gate: Arc::clone(&gate),
                delay,
            },
            gate,
        )
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cv) = &**gate;
    *lock.lock().expect("gate lock") = true;
    cv.notify_all();
}

impl SearchIndex for GateIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Btree
    }

    fn dim(&self) -> usize {
        0
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().expect("gate lock");
        while !*open {
            let (guard, _) = cv
                .wait_timeout(open, Duration::from_millis(10))
                .expect("gate wait");
            open = guard;
        }
        drop(open);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        batch
            .keys()
            .iter()
            .map(|&k| QueryOutput::Value(Some(u64::from(k) + 1)))
            .collect()
    }
}

/// A generous safety deadline so a lost ticket fails the test in bounded
/// time instead of hanging it.
const SAFETY: Duration = Duration::from_secs(60);

/// Under injected worker panics the engine keeps serving (it never
/// deadlocks), every admitted query resolves to a result or a
/// typed error, and the replay digest of the successfully served subset
/// matches the unfaulted run.
#[test]
fn worker_panics_keep_serving_and_successes_replay_identically() {
    install_quiet_panic_hook();
    let chaos = ChaosIndex::new(
        Arc::new(PureIndex),
        ChaosPlan {
            panic_on: vec![20, 45, 70],
            ..Default::default()
        },
    );
    let engine = Engine::new(
        Arc::new(chaos),
        EngineConfig {
            workers: 2,
            batch: 4,
            queue_capacity: 256,
            ..Default::default()
        },
    );
    const N: u32 = 200;
    let opts = SubmitOptions::default().deadline_in(SAFETY);
    let tickets: Vec<_> = (0..N)
        .map(|k| {
            engine
                .submit_with(Query::Key(k), opts)
                .expect("admission failed")
        })
        .collect();
    let mut crashed = 0u32;
    let mut served_hashes = Vec::new();
    let mut unfaulted_hashes = Vec::new();
    for (k, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(out) => {
                assert_eq!(out, expected_output(k as u32), "query {k} answered wrong");
                served_hashes.push(hash_output(&out));
                unfaulted_hashes.push(hash_output(&expected_output(k as u32)));
            }
            Err(ServeError::WorkerCrashed) => crashed += 1,
            Err(other) => panic!("query {k}: unexpected error class {other:?}"),
        }
    }
    assert!(crashed > 0, "no query was killed by the injected panics");
    assert!(
        crashed <= 3 * 4,
        "each injected panic kills at most one batch, got {crashed} casualties"
    );
    assert_eq!(
        combine_hashes(served_hashes),
        combine_hashes(unfaulted_hashes),
        "successfully served subset diverged from the unfaulted run"
    );
    assert_eq!(
        engine.stats().worker_panics,
        3,
        "each ordinal panics exactly once"
    );
    // The engine must still serve after the crash storm.
    assert_eq!(
        engine
            .query(Query::Key(7))
            .expect("post-crash query failed"),
        expected_output(7)
    );
}

/// A crash loop strands nothing: on a default-config engine (one
/// worker) whose index panics on every batch, each sequential round
/// trip still fails `WorkerCrashed` — never `DeadlineExceeded` for want
/// of a worker — and dropping the engine afterwards returns.
#[test]
fn crash_loop_fails_every_batch_typed_and_strands_nothing() {
    install_quiet_panic_hook();
    const ROUND_TRIPS: u64 = 32;
    // One query in flight at a time, so each round trip is its own
    // batch and served ordinal k + 1 is round trip k.
    let chaos = ChaosIndex::new(
        Arc::new(PureIndex),
        ChaosPlan {
            panic_on: (1..=ROUND_TRIPS).collect(),
            ..Default::default()
        },
    );
    let engine = Engine::new(Arc::new(chaos), EngineConfig::default());
    let opts = SubmitOptions::default().deadline_in(SAFETY);
    for k in 0..ROUND_TRIPS {
        let ticket = engine
            .submit_with(Query::Key(k as u32), opts)
            .expect("admission failed");
        assert_eq!(
            ticket.wait(),
            Err(ServeError::WorkerCrashed),
            "round trip {k} was not failed by its own batch's panic"
        );
    }
    assert_eq!(engine.stats().worker_panics, ROUND_TRIPS);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(engine);
        let _ = tx.send(());
    });
    rx.recv_timeout(SAFETY)
        .expect("dropping the engine after a crash loop never returned");
}

/// Slow batches plus per-query deadlines: budget-holders get typed
/// `DeadlineExceeded`, never a silent late answer; everything served
/// matches the unfaulted run.
#[test]
fn slow_batches_with_deadlines_drop_typed_and_replay() {
    install_quiet_panic_hook();
    // One worker: every batch after the first is dequeued long past its
    // deadline.
    let chaos = ChaosIndex::new(
        Arc::new(PureIndex),
        ChaosPlan {
            slow_delay: Some(Duration::from_millis(30)),
            ..Default::default()
        },
    );
    let engine = Engine::new(
        Arc::new(chaos),
        EngineConfig {
            workers: 1,
            batch: 4,
            queue_capacity: 256,
            ..Default::default()
        },
    );
    const N: u32 = 40;
    let opts = SubmitOptions::default().deadline_in(Duration::from_millis(5));
    let tickets: Vec<_> = (0..N)
        .map(|k| {
            engine
                .submit_with(Query::Key(k), opts)
                .expect("admission failed")
        })
        .collect();
    let mut expired = 0u32;
    for (k, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(out) => assert_eq!(out, expected_output(k as u32), "late answer corrupted"),
            Err(ServeError::DeadlineExceeded) => expired += 1,
            Err(other) => panic!("query {k}: unexpected error class {other:?}"),
        }
    }
    assert!(
        expired >= N - 2 * 4,
        "only in-flight batches may beat a 5ms deadline at 30ms/batch, \
         got {expired} expiries"
    );
    // The worker-side drop counter catches up once the queue drains.
    let t0 = Instant::now();
    while engine.stats().deadline_drops == 0 && t0.elapsed() < SAFETY {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        engine.stats().deadline_drops > 0,
        "no expired query was dropped at dequeue"
    );
}

/// Deadline storm: every submission's deadline is already in the past.
/// Every ticket resolves `DeadlineExceeded`; nothing is lost, nothing is
/// served late.
#[test]
fn deadline_storm_drops_everything_typed() {
    let engine = Engine::new(
        Arc::new(PureIndex),
        EngineConfig {
            workers: 4,
            batch: 8,
            queue_capacity: 256,
            ..Default::default()
        },
    );
    const N: u32 = 100;
    let past = Instant::now() - Duration::from_millis(1);
    let opts = SubmitOptions {
        deadline: Some(past),
        ..Default::default()
    };
    let tickets: Vec<_> = (0..N)
        .map(|k| {
            engine
                .submit_with(Query::Key(k), opts)
                .expect("admission failed")
        })
        .collect();
    for (k, t) in tickets.into_iter().enumerate() {
        assert_eq!(
            t.wait(),
            Err(ServeError::DeadlineExceeded),
            "storm query {k} was not dropped typed"
        );
    }
    // All 100 are dropped at dequeue (the waiters above may have raced
    // ahead of the workers, so poll the counter briefly).
    let t0 = Instant::now();
    while engine.stats().deadline_drops < u64::from(N) && t0.elapsed() < SAFETY {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = engine.stats();
    assert_eq!(stats.deadline_drops, u64::from(N));
    assert_eq!(stats.completed, 0, "an expired query was served anyway");
}

/// Admission flood against a gated worker: `Batch` hits its queue share
/// first and sheds with typed `Overloaded` while `Interactive` still
/// admits; once the gate opens, every admitted query completes.
#[test]
fn admission_flood_sheds_lowest_class_first() {
    let (index, gate) = GateIndex::new(Duration::ZERO);
    let engine = Engine::new(
        Arc::new(index),
        EngineConfig {
            workers: 1,
            batch: 1,
            queue_capacity: 8,
            ..Default::default()
        },
    );
    // Flood the batch class: its share is 50% of 8 = 4 queue slots (the
    // worker may additionally hold one query it already dequeued).
    let mut admitted = Vec::new();
    let mut batch_sheds = 0u32;
    for k in 0..30u32 {
        match engine.try_submit_with(Query::Key(k), SubmitOptions::with_priority(Priority::Batch)) {
            Ok(t) => admitted.push(t),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 8);
                batch_sheds += 1;
            }
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    assert!(batch_sheds > 0, "the batch class never hit its share");
    assert!(
        admitted.len() <= 5,
        "batch class admitted {} > its 4-slot share (+1 in flight)",
        admitted.len()
    );
    // Interactive traffic still admits into the space the batch class
    // was denied…
    let mut interactive_admitted = 0u32;
    let mut interactive_sheds = 0u32;
    for k in 100..110u32 {
        match engine.try_submit_with(
            Query::Key(k),
            SubmitOptions::with_priority(Priority::Interactive),
        ) {
            Ok(t) => {
                interactive_admitted += 1;
                admitted.push(t);
            }
            Err(ServeError::Overloaded { .. }) => interactive_sheds += 1,
            Err(other) => panic!("unexpected admission error {other:?}"),
        }
    }
    assert!(
        interactive_admitted >= 3,
        "interactive should fill the share the batch class cannot reach, admitted \
         {interactive_admitted}"
    );
    let stats = engine.stats();
    assert_eq!(
        stats.queue_full_sheds,
        u64::from(batch_sheds + interactive_sheds),
        "every shed is counted"
    );
    assert_eq!(stats.slo_sheds, 0, "no SLO is configured");
    // Open the gate: every admitted query must complete correctly.
    open_gate(&gate);
    for t in admitted {
        match t.wait() {
            Ok(QueryOutput::Value(Some(_))) => {}
            other => panic!("admitted query lost under flood: {other:?}"),
        }
    }
}

/// SLO breach: once the engine's sliding-window p99 is over the family
/// target, `Batch` work sheds with `Overloaded` while the queue still
/// has space, and `Interactive` keeps admitting.
#[test]
fn slo_breach_sheds_batch_before_the_queue_fills() {
    let (index, gate) = GateIndex::new(Duration::from_millis(2));
    open_gate(&gate); // no gating — just the 2ms service time
    let engine = Engine::new(
        Arc::new(index),
        EngineConfig {
            workers: 1,
            batch: 1,
            queue_capacity: 4096,
            slo: SloPolicy::none().with_target(IndexFamily::Btree, 100),
        },
    );
    // Warm the latency window past its sample floor: 2ms service >> the
    // 100us target, so the window p99 ends far over the SLO.
    let warmup: Vec<_> = (0..100u32)
        .map(|k| engine.submit(Query::Key(k)).expect("warmup admission"))
        .collect();
    for t in warmup {
        t.wait().expect("warmup query failed");
    }
    // Occupy the queue (non-empty is a precondition for shedding: an
    // idle engine always admits so the window can refresh). Occupants are
    // Interactive — `Normal` would itself shed once p99 > 2x target.
    let occupants: Vec<_> = (0..3u32)
        .map(|k| {
            engine
                .submit_with(
                    Query::Key(k),
                    SubmitOptions::with_priority(Priority::Interactive),
                )
                .expect("occupant admission")
        })
        .collect();
    let batch_try = engine.try_submit_with(
        Query::Key(500),
        SubmitOptions::with_priority(Priority::Batch),
    );
    assert!(
        matches!(batch_try, Err(ServeError::Overloaded { .. })),
        "batch admitted despite a blown SLO: {batch_try:?}"
    );
    let interactive = engine
        .try_submit_with(
            Query::Key(501),
            SubmitOptions::with_priority(Priority::Interactive),
        )
        .expect("interactive must not be SLO-shed");
    let stats = engine.stats();
    assert!(
        stats.slo_sheds > 0,
        "the shed was not counted as SLO-driven"
    );
    assert_eq!(
        stats.queue_full_sheds, 0,
        "the 4096-slot queue was nowhere near full"
    );
    for t in occupants {
        t.wait().expect("occupant lost");
    }
    interactive.wait().expect("interactive query lost");
}

/// Drain-on-drop survives a mid-drain worker panic — the worker goes
/// on draining, every ticket resolves, and queries after the doomed
/// batch are still served correctly.
#[test]
fn drop_drains_through_a_mid_drain_worker_crash() {
    install_quiet_panic_hook();
    // Slow every batch slightly so the queue is still deep when the
    // engine drops, then kill the sole worker mid-drain.
    let chaos = ChaosIndex::new(
        Arc::new(PureIndex),
        ChaosPlan {
            panic_on: vec![30],
            slow_delay: Some(Duration::from_millis(1)),
        },
    );
    let engine = Engine::new(
        Arc::new(chaos),
        EngineConfig {
            workers: 1,
            batch: 4,
            queue_capacity: 256,
            ..Default::default()
        },
    );
    const N: u32 = 60;
    let tickets: Vec<_> = (0..N)
        .map(|k| engine.submit(Query::Key(k)).expect("admission failed"))
        .collect();
    drop(engine); // drain begins; the batch covering served ordinal 30 panics
    let mut crashed = 0u32;
    let mut served_after_crash = false;
    for (k, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(out) => {
                assert_eq!(out, expected_output(k as u32));
                if k as u32 >= 30 {
                    served_after_crash = true;
                }
            }
            Err(ServeError::WorkerCrashed) => crashed += 1,
            Err(other) => panic!("drain query {k}: unexpected error {other:?}"),
        }
    }
    assert!(crashed > 0, "the mid-drain panic killed nobody");
    assert!(
        served_after_crash,
        "nothing served past the crash point — the worker stopped draining"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random topology × random panic ordinals × optional slow batches:
    /// every admitted query resolves (result or typed error) in bounded
    /// time, and the replay digest of the successfully served subset
    /// matches the unfaulted reference computed directly on the index.
    #[test]
    fn random_faults_never_lose_tickets_and_successes_replay(
        workers in 1usize..=4,
        batch in 1usize..=8,
        n in 50u64..150,
        panics in proptest::collection::vec(1u64..150, 0..4),
        slow in 0u8..2,
    ) {
        install_quiet_panic_hook();
        let plan = ChaosPlan {
            panic_on: panics,
            slow_delay: (slow == 1).then_some(Duration::from_micros(200)),
        };
        let chaos = ChaosIndex::new(Arc::new(PureIndex), plan);
        let engine = Engine::new(
            Arc::new(chaos),
            EngineConfig {
                workers,
                batch,
                queue_capacity: 4096,
                ..Default::default()
            },
        );
        let opts = SubmitOptions::default().deadline_in(SAFETY);
        let tickets: Vec<_> = (0..n)
            .map(|k| engine.submit_with(Query::Key(k as u32), opts).expect("admission"))
            .collect();
        let mut served = Vec::new();
        let mut reference = Vec::new();
        for (k, t) in tickets.into_iter().enumerate() {
            match t.wait() {
                Ok(out) => {
                    prop_assert_eq!(&out, &expected_output(k as u32), "query {} corrupted", k);
                    served.push(hash_output(&out));
                    reference.push(hash_output(&expected_output(k as u32)));
                }
                Err(ServeError::WorkerCrashed) => {}
                Err(other) => prop_assert!(false, "query {}: unexpected class {:?}", k, other),
            }
        }
        let served_n = served.len() as u64;
        prop_assert_eq!(
            combine_hashes(served),
            combine_hashes(reference),
            "successfully served subset diverged from the unfaulted run"
        );
        let stats = engine.stats();
        prop_assert_eq!(
            stats.admitted, n,
            "every submission was admitted (queue is deeper than the stream)"
        );
        prop_assert_eq!(
            stats.completed, served_n,
            "every Ok wait is a counted completion"
        );
    }
}
