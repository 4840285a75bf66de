//! The sharded serving engine: bounded admission queues, per-shard
//! worker pools, batch coalescing, and overload/failure resilience.
//!
//! Topology: `shards` admission queues, each with `workers_per_shard`
//! dedicated worker threads. A worker drains up to `batch` queries from
//! its own shard's queue (highest priority class first, FIFO within a
//! class), coalesces them into one SoA [`QueryBatch`], and answers them
//! through the index's batch kernels. An idle worker steals from sibling
//! shards' queue fronts before sleeping — the same steal-siblings-FIFO
//! discipline as `hsu_bench::runner::run_jobs` — so a hot shard cannot
//! strand idle capacity.
//!
//! Determinism: every per-query answer is a pure function of
//! `(index, query)` (see [`SearchIndex`]), and tickets carry globally
//! ordered submission ids, so any fold over results **in submission-id
//! order** is byte-identical across shard counts, batch sizes, and
//! worker counts. Scheduling only moves latency, never results.
//!
//! Overload: admission is class-aware ([`SubmitOptions`]) — under load
//! the lowest class sheds first (per-class queue shares), adaptive SLO
//! shedding rejects low-class work once a shard's sliding-window p99
//! exceeds the family's [`SloPolicy`] target, and the queue capacity is
//! the hard bound. All three rungs surface as the same typed
//! [`ServeError::Overloaded`]; [`Engine::stats`] tells them apart.
//!
//! Failure: a query whose deadline has passed at dequeue is dropped with
//! [`ServeError::DeadlineExceeded`] through its ticket, never silently.
//! A worker panic fails its in-flight batch with
//! [`ServeError::WorkerCrashed`], and a supervisor thread respawns the
//! worker (bounded restarts per sliding window) so the shard keeps
//! serving — a poisoned queue mutex is recovered, not propagated.
//!
//! Shutdown: dropping the engine stops admission ([`ServeError::ShuttingDown`]),
//! lets the workers drain every admitted query, then joins them and the
//! supervisor. Any query left unserved because every worker died with
//! the restart budget exhausted is failed with `WorkerCrashed` — no
//! ticket is ever dropped unfulfilled.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::admission::{
    class_admit_limit, slo_sheds, ClassQueues, LatencyWindow, SloPolicy, SubmitOptions,
};
use crate::batch::QueryBatch;
use crate::error::ServeError;
use crate::handle::{lock_recover, Ticket, TicketState};
use crate::index::{Query, QueryOutput, SearchIndex};

/// Engine topology, admission, and supervision knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Admission queues (and worker pools) to run. Floored at 1.
    pub shards: usize,
    /// Worker threads per shard. Floored at 1. Size the product with
    /// `hsu_bench::runner::serve_share` when a suite shares the host.
    pub workers_per_shard: usize,
    /// Most queries one worker coalesces into a single SoA batch.
    /// Floored at 1.
    pub batch: usize,
    /// Per-shard admission bound; a full queue is backpressure. Lower
    /// priority classes hit their share of this bound first
    /// (`Priority::admit_share_percent`). Floored at 1.
    pub queue_capacity: usize,
    /// Per-family p99 targets for adaptive shedding. The default
    /// ([`SloPolicy::none`]) disables SLO shedding.
    pub slo: SloPolicy,
    /// Most worker respawns allowed within one `restart_window` before
    /// the supervisor stops restarting (counted in
    /// [`EngineStats::restarts_denied`]). Crash loops stay bounded; the
    /// shard keeps serving through siblings.
    pub restart_limit: usize,
    /// The sliding window `restart_limit` applies to.
    pub restart_window: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 1,
            workers_per_shard: 1,
            batch: 32,
            queue_capacity: 1024,
            slo: SloPolicy::none(),
            restart_limit: 8,
            restart_window: Duration::from_secs(1),
        }
    }
}

/// A point-in-time snapshot of the engine's resilience counters
/// (monotonic since engine start), taken cheaply from atomics by
/// [`Engine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries admitted into some shard queue.
    pub admitted: u64,
    /// Queries answered successfully by a worker.
    pub completed: u64,
    /// Admissions rejected because the class's queue share was full.
    pub queue_full_sheds: u64,
    /// Admissions rejected by adaptive SLO shedding (queue not full).
    pub slo_sheds: u64,
    /// Admitted queries dropped at dequeue because their deadline had
    /// already passed (each failed its ticket with `DeadlineExceeded`).
    pub deadline_drops: u64,
    /// Worker threads that panicked.
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub worker_restarts: u64,
    /// Respawns refused because `restart_limit` was exhausted inside
    /// `restart_window` (or the OS refused the thread).
    pub restarts_denied: u64,
}

/// The atomic counters behind [`EngineStats`].
#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    queue_full_sheds: AtomicU64,
    slo_sheds: AtomicU64,
    deadline_drops: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    restarts_denied: AtomicU64,
}

/// One admitted query waiting for a worker.
struct Pending {
    ticket: Arc<TicketState>,
    query: Query,
    /// Admission instant — completion latency feeds the shard's SLO
    /// window.
    admitted: Instant,
}

/// One shard's admission queue and its wakeup channels.
#[derive(Default)]
struct Shard {
    queue: Mutex<ClassQueues<Pending>>,
    /// Workers sleep here when every queue they can reach is empty.
    work: Condvar,
    /// Blocking submitters sleep here when this queue is full.
    space: Condvar,
    /// Sliding window of recent completion latencies (drives SLO sheds).
    latency: LatencyWindow,
}

/// Everything the worker threads share with the handle.
struct Inner {
    index: Arc<dyn SearchIndex>,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    cfg: EngineConfig,
    stats: Counters,
    /// Workers currently running (spawned minus exited) — the
    /// supervisor's teardown condition.
    live_workers: AtomicUsize,
    /// The SLO p99 target for the served family, resolved once.
    slo_target_us: Option<u64>,
}

/// A crash notification: which worker slot died.
type CrashReport = (usize, usize);

/// A running sharded query service over one [`SearchIndex`].
pub struct Engine {
    inner: Arc<Inner>,
    next_id: AtomicU64,
    workers: Vec<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Starts the shard workers (plus their supervisor) and returns the
    /// serving handle.
    pub fn new(index: Arc<dyn SearchIndex>, cfg: EngineConfig) -> Self {
        let cfg = EngineConfig {
            shards: cfg.shards.max(1),
            workers_per_shard: cfg.workers_per_shard.max(1),
            batch: cfg.batch.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let slo_target_us = cfg.slo.target_p99_us(index.family());
        let inner = Arc::new(Inner {
            index,
            shards: (0..cfg.shards).map(|_| Shard::default()).collect(),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
            stats: Counters::default(),
            live_workers: AtomicUsize::new(0),
            slo_target_us,
        });
        let (tx, rx) = std::sync::mpsc::channel::<CrashReport>();
        let workers = (0..cfg.shards)
            .flat_map(|s| (0..cfg.workers_per_shard).map(move |w| (s, w)))
            .map(|(s, w)| {
                spawn_worker(&inner, s, w, &tx)
                    .unwrap_or_else(|e| panic!("spawn shard {s} worker {w}: {e}"))
            })
            .collect();
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervisor_loop(&inner, rx, tx))
                .unwrap_or_else(|e| panic!("spawn serve supervisor: {e}"))
        };
        Engine {
            inner,
            next_id: AtomicU64::new(0),
            workers,
            supervisor: Some(supervisor),
        }
    }

    /// The resolved configuration (after flooring).
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// A cheap snapshot of the resilience counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.inner.stats;
        EngineStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            queue_full_sheds: c.queue_full_sheds.load(Ordering::Relaxed),
            slo_sheds: c.slo_sheds.load(Ordering::Relaxed),
            deadline_drops: c.deadline_drops.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            restarts_denied: c.restarts_denied.load(Ordering::Relaxed),
        }
    }

    /// Submits a query at [`Priority::Normal`] with no deadline, without
    /// blocking. Returns [`ServeError::Overloaded`] when the target
    /// shard sheds it, [`ServeError::BadQuery`] /
    /// [`ServeError::ShuttingDown`] when the query can never be served.
    pub fn try_submit(&self, query: Query) -> Result<Ticket, ServeError> {
        self.admit(query, SubmitOptions::default(), false)
    }

    /// Like [`Engine::try_submit`] with explicit class and deadline.
    pub fn try_submit_with(&self, query: Query, opts: SubmitOptions) -> Result<Ticket, ServeError> {
        self.admit(query, opts, false)
    }

    /// Submits a query at [`Priority::Normal`] with no deadline,
    /// blocking while the class's queue share is full (cooperative
    /// backpressure for closed-loop callers).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadQuery`] or [`ServeError::ShuttingDown`];
    /// `Overloaded` only when adaptive SLO shedding is configured and
    /// rejects the class outright (blocking cannot help a shed).
    pub fn submit(&self, query: Query) -> Result<Ticket, ServeError> {
        self.admit(query, SubmitOptions::default(), true)
    }

    /// Like [`Engine::submit`] with explicit class and deadline.
    pub fn submit_with(&self, query: Query, opts: SubmitOptions) -> Result<Ticket, ServeError> {
        self.admit(query, opts, true)
    }

    /// Convenience synchronous round trip: submit and wait.
    pub fn query(&self, query: Query) -> Result<QueryOutput, ServeError> {
        self.try_submit(query)?.wait()
    }

    fn admit(&self, query: Query, opts: SubmitOptions, block: bool) -> Result<Ticket, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        self.inner.index.validate(&query)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard_ix = (id % self.inner.cfg.shards as u64) as usize;
        let shard = &self.inner.shards[shard_ix];
        let capacity = self.inner.cfg.queue_capacity;
        let limit = class_admit_limit(opts.priority, capacity);
        let state = Arc::new(TicketState::with_deadline(opts.deadline));
        let pending = Pending {
            ticket: Arc::clone(&state),
            query,
            admitted: Instant::now(),
        };
        let mut queue = lock_recover(&shard.queue);
        // Adaptive SLO shedding: once the shard's recent p99 is over the
        // family target, low classes shed before the queue fills. Only
        // while the queue is non-empty — an idle shard always admits, so
        // the window keeps refreshing and the shed can clear.
        if !queue.is_empty() {
            if let (Some(target), Some(p99)) = (self.inner.slo_target_us, shard.latency.p99_us()) {
                if slo_sheds(opts.priority, p99, target) {
                    self.inner.stats.slo_sheds.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        shard: shard_ix,
                        capacity,
                    });
                }
            }
        }
        while queue.len() >= limit {
            if !block {
                self.inner
                    .stats
                    .queue_full_sheds
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    shard: shard_ix,
                    capacity,
                });
            }
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            queue = shard
                .space
                .wait_timeout(queue, Duration::from_millis(5))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        queue.push(opts.priority, pending);
        self.inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        shard.work.notify_one();
        Ok(Ticket::new(id, state))
    }
}

impl Drop for Engine {
    /// Stops admission, drains every admitted query, joins workers and
    /// supervisor, and fails anything left unserved (possible only when
    /// every worker died with the restart budget exhausted) — no ticket
    /// is ever dropped unfulfilled.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.work.notify_all();
            shard.space.notify_all();
        }
        for w in self.workers.drain(..) {
            // A crashed worker's join reports the panic it already paid
            // for: counted in `worker_panics`, batch failed typed.
            let _ = w.join();
        }
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        // Final sweep: with all workers gone, anything still queued can
        // never be served — fail it typed rather than leak the ticket.
        for (s, shard) in self.inner.shards.iter().enumerate() {
            let mut queue = lock_recover(&shard.queue);
            for p in queue.drain_all() {
                p.ticket
                    .try_fulfill(Err(ServeError::WorkerCrashed { shard: s }));
            }
        }
    }
}

/// Spawns one shard worker under supervision: the thread runs the serve
/// loop under `catch_unwind` and reports a crash (after counting it) so
/// the supervisor can respawn the slot.
fn spawn_worker(
    inner: &Arc<Inner>,
    s: usize,
    w: usize,
    tx: &Sender<CrashReport>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let worker_inner = Arc::clone(inner);
    let tx = tx.clone();
    inner.live_workers.fetch_add(1, Ordering::AcqRel);
    let spawned = std::thread::Builder::new()
        .name(format!("serve-{s}-{w}"))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(&worker_inner, s)));
            worker_inner.live_workers.fetch_sub(1, Ordering::AcqRel);
            if outcome.is_err() {
                worker_inner
                    .stats
                    .worker_panics
                    .fetch_add(1, Ordering::Relaxed);
                let _ = tx.send((s, w));
            }
        });
    if spawned.is_err() {
        inner.live_workers.fetch_sub(1, Ordering::AcqRel);
    }
    spawned
}

/// The supervisor: respawns crashed workers (bounded restarts within
/// `restart_window`), keeps supervising through shutdown so a mid-drain
/// crash still gets a replacement to finish the drain, and exits once
/// the engine is shutting down with no worker left alive.
fn supervisor_loop(inner: &Arc<Inner>, rx: Receiver<CrashReport>, tx: Sender<CrashReport>) {
    let mut respawned: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut restart_times: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
    let handle_crash =
        |(s, w): CrashReport,
         respawned: &mut Vec<std::thread::JoinHandle<()>>,
         restart_times: &mut std::collections::VecDeque<Instant>| {
            let now = Instant::now();
            while restart_times
                .front()
                .is_some_and(|&t| now.saturating_duration_since(t) > inner.cfg.restart_window)
            {
                restart_times.pop_front();
            }
            if restart_times.len() >= inner.cfg.restart_limit {
                inner.stats.restarts_denied.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match spawn_worker(inner, s, w, &tx) {
                Ok(h) => {
                    restart_times.push_back(now);
                    inner.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    // The replacement may need waking: work queued while the
                    // slot was empty saw no notify.
                    inner.shards[s].work.notify_all();
                    respawned.push(h);
                }
                Err(_) => {
                    inner.stats.restarts_denied.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
    loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(report) => handle_crash(report, &mut respawned, &mut restart_times),
            Err(RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    // Absorb any crash reports racing with teardown
                    // before concluding nobody is left to respawn.
                    while let Ok(report) = rx.try_recv() {
                        handle_crash(report, &mut respawned, &mut restart_times);
                    }
                    if inner.live_workers.load(Ordering::Acquire) == 0 {
                        break;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for h in respawned {
        let _ = h.join();
    }
}

/// Pops up to `limit` pending queries from shard `s`'s queue (highest
/// class first), waking one blocked submitter when space was freed.
fn drain(inner: &Inner, s: usize, limit: usize, out: &mut Vec<Pending>) -> usize {
    let shard = &inner.shards[s];
    let mut queue = lock_recover(&shard.queue);
    let take = queue.drain_priority(limit, out);
    drop(queue);
    if take > 0 {
        shard.space.notify_all();
    }
    take
}

/// The body of one shard worker thread: drain own shard, steal from
/// siblings when idle, sleep when everything is empty, exit once the
/// engine is shutting down and every queue has drained. Expired-deadline
/// queries are dropped typed at dequeue; a panic inside the index fails
/// the whole in-flight batch typed before propagating to supervision.
fn worker_loop(inner: &Inner, home: usize) {
    let shards = inner.cfg.shards;
    let mut taken: Vec<Pending> = Vec::new();
    let mut batch = QueryBatch::new();
    loop {
        taken.clear();
        // Own queue first, then steal round-robin from siblings.
        let mut source = home;
        drain(inner, home, inner.cfg.batch, &mut taken);
        if taken.is_empty() {
            for off in 1..shards {
                let sibling = (home + off) % shards;
                if drain(inner, sibling, inner.cfg.batch, &mut taken) > 0 {
                    source = sibling;
                    break;
                }
            }
        }
        if taken.is_empty() {
            if inner.shutdown.load(Ordering::Acquire) {
                // Shutdown is only final once every queue is empty —
                // another worker may still be admitting steals.
                let all_empty =
                    (0..shards).all(|s| lock_recover(&inner.shards[s].queue).is_empty());
                if all_empty {
                    return;
                }
                continue;
            }
            let shard = &inner.shards[home];
            let queue = lock_recover(&shard.queue);
            if queue.is_empty() && !inner.shutdown.load(Ordering::Acquire) {
                // Timed wait: a steal target may fill while we sleep on
                // our own shard's condvar.
                let _ = shard.work.wait_timeout(queue, Duration::from_millis(5));
            }
            continue;
        }
        // Deadline gate at dequeue: anything already expired is dropped
        // through its ticket, never served late and never silent.
        let now = Instant::now();
        taken.retain(|p| match p.ticket.deadline() {
            Some(d) if now >= d => {
                inner.stats.deadline_drops.fetch_add(1, Ordering::Relaxed);
                p.ticket.fulfill(Err(ServeError::DeadlineExceeded));
                false
            }
            _ => true,
        });
        if taken.is_empty() {
            continue;
        }
        batch.clear();
        for p in &taken {
            batch.push(&p.query);
        }
        match catch_unwind(AssertUnwindSafe(|| inner.index.query_batch(&batch))) {
            Ok(outputs) => {
                debug_assert_eq!(outputs.len(), taken.len(), "index answered wrong count");
                let done = Instant::now();
                for (p, out) in taken.drain(..).zip(outputs) {
                    inner.shards[source]
                        .latency
                        .record(done.saturating_duration_since(p.admitted));
                    p.ticket.fulfill(Ok(out));
                    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(payload) => {
                // Fail the whole in-flight batch typed, then let the
                // panic reach the supervision wrapper so the crash is
                // counted and the slot respawned.
                for p in taken.drain(..) {
                    p.ticket
                        .try_fulfill(Err(ServeError::WorkerCrashed { shard: home }));
                }
                resume_unwind(payload);
            }
        }
    }
}
