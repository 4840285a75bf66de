//! The serving engine: one bounded admission queue, a pool of worker
//! threads that drain it, batch coalescing, and overload/failure
//! resilience.
//!
//! Topology: one admission queue and `workers` worker threads. A worker
//! drains up to `batch` queries from the queue (highest priority class
//! first, FIFO within a class), coalesces them into one SoA
//! [`QueryBatch`], and answers them through the index's batch kernels.
//! An idle worker sleeps until a submission or shutdown wakes it.
//!
//! Determinism: every per-query answer is a pure function of
//! `(index, query)` (see [`SearchIndex`]), and tickets carry globally
//! ordered submission ids, so any fold over results **in submission-id
//! order** is byte-identical across batch sizes and worker counts.
//! Scheduling only moves latency, never results.
//!
//! Overload: admission is class-aware ([`SubmitOptions`]) — under load
//! the lowest class sheds first (per-class queue shares), adaptive SLO
//! shedding rejects low-class work once the engine's sliding-window p99
//! exceeds the family's [`SloPolicy`] target, and the queue capacity is
//! the hard bound. All three rungs surface as the same typed
//! [`ServeError::Overloaded`]; [`Engine::stats`] tells them apart.
//!
//! Failure: a query whose deadline has passed at dequeue is dropped with
//! [`ServeError::DeadlineExceeded`] through its ticket, never silently.
//! A panic inside [`SearchIndex::query_batch`] ends its batch, not its
//! worker: the batch fails with [`ServeError::WorkerCrashed`] and the
//! worker takes its next batch. The indexes are immutable and
//! `query_batch` takes `&self`, so a panicked batch leaves nothing a
//! later batch reads in a broken state.
//!
//! Shutdown: dropping the engine lets the workers drain every admitted
//! query, then joins them. A query still queued after the join (only
//! possible if a worker died of an engine bug outside `query_batch`) is
//! failed with `WorkerCrashed` — no ticket is ever dropped unfulfilled.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::admission::{
    class_admit_limit, slo_sheds, ClassQueues, LatencyWindow, SloPolicy, SubmitOptions,
};
use crate::batch::QueryBatch;
use crate::error::ServeError;
use crate::handle::{lock_recover, Ticket, TicketState};
use crate::index::{Query, QueryOutput, SearchIndex};

/// Engine topology and admission knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining the admission queue. Floored at 1.
    pub workers: usize,
    /// Most queries one worker coalesces into a single SoA batch.
    /// Floored at 1.
    pub batch: usize,
    /// The admission bound; a full queue is backpressure. Lower
    /// priority classes hit their share of this bound first
    /// (`Priority::admit_share_percent`). Floored at 1.
    pub queue_capacity: usize,
    /// Per-family p99 targets for adaptive shedding. The default
    /// ([`SloPolicy::none`]) disables SLO shedding.
    pub slo: SloPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            batch: 32,
            queue_capacity: 1024,
            slo: SloPolicy::none(),
        }
    }
}

/// A point-in-time snapshot of the engine's resilience counters
/// (monotonic since engine start), taken cheaply from atomics by
/// [`Engine::stats`]. Every counter is bumped before the ticket it
/// concerns is fulfilled, so once a waiter sees its result the snapshot
/// already counts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries admitted into the queue.
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
    /// Batches whose `query_batch` panicked (each failed its queries
    /// with `WorkerCrashed`).
    pub worker_panics: u64,
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
}

/// One admitted query waiting for a worker.
struct Pending {
    ticket: Arc<TicketState>,
    query: Query,
    /// Admission instant — completion latency feeds the SLO window.
    admitted: Instant,
}

/// Everything the worker threads share with the handle.
struct Inner {
    index: Arc<dyn SearchIndex>,
    queue: Mutex<ClassQueues<Pending>>,
    /// Workers sleep here while the queue is empty.
    work: Condvar,
    /// Blocking submitters sleep here while their class's share is full.
    space: Condvar,
    /// Sliding window of recent completion latencies (drives SLO sheds);
    /// `None`, and nothing recorded, when the family has no SLO target.
    latency: Option<LatencyWindow>,
    /// Only written with `queue` held; see `Drop for Engine`.
    shutdown: AtomicBool,
    cfg: EngineConfig,
    stats: Counters,
    /// The SLO p99 target for the served family, resolved once.
    slo_target_us: Option<u64>,
}

/// A running query service over one [`SearchIndex`].
pub struct Engine {
    inner: Arc<Inner>,
    next_id: AtomicU64,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Starts the workers and returns the serving handle.
    pub fn new(index: Arc<dyn SearchIndex>, cfg: EngineConfig) -> Self {
        let cfg = EngineConfig {
            workers: cfg.workers.max(1),
            batch: cfg.batch.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let slo_target_us = cfg.slo.target_p99_us(index.family());
        let inner = Arc::new(Inner {
            index,
            queue: Mutex::default(),
            work: Condvar::new(),
            space: Condvar::new(),
            latency: slo_target_us.map(|_| LatencyWindow::default()),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
            stats: Counters::default(),
            slo_target_us,
        });
        let workers = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .unwrap_or_else(|e| panic!("spawn worker {w}: {e}"))
            })
            .collect();
        Engine {
            inner,
            next_id: AtomicU64::new(0),
            workers,
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
        }
    }

    /// Submits a query at [`Priority::Normal`] with no deadline, without
    /// blocking. Returns [`ServeError::Overloaded`] when the engine sheds
    /// it, [`ServeError::BadQuery`] when the query can never be served.
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
    /// Returns [`ServeError::BadQuery`]; `Overloaded` only when adaptive SLO shedding is configured and
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
        self.inner.index.validate(&query)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let capacity = self.inner.cfg.queue_capacity;
        let limit = class_admit_limit(opts.priority, capacity);
        let state = Arc::new(TicketState::with_deadline(opts.deadline));
        let pending = Pending {
            ticket: Arc::clone(&state),
            query,
            admitted: Instant::now(),
        };
        let mut queue = lock_recover(&self.inner.queue);
        // Adaptive SLO shedding: once the recent p99 is over the family
        // target, low classes shed before the queue fills. Only while the
        // queue is non-empty — an idle engine always admits, so the
        // window keeps refreshing and the shed can clear.
        if !queue.is_empty() {
            let p99 = self.inner.latency.as_ref().and_then(LatencyWindow::p99_us);
            if let (Some(target), Some(p99)) = (self.inner.slo_target_us, p99) {
                if slo_sheds(opts.priority, p99, target) {
                    self.inner.stats.slo_sheds.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded { capacity });
                }
            }
        }
        while queue.len() >= limit {
            if !block {
                self.inner
                    .stats
                    .queue_full_sheds
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { capacity });
            }
            // Workers pop under this lock, so no pop can fall between the
            // check above and this wait; the worker's notify follows its
            // pop, so it finds this submitter already waiting.
            queue = self
                .inner
                .space
                .wait(queue)
                .unwrap_or_else(|p| p.into_inner());
        }
        queue.push(opts.priority, pending);
        self.inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.inner.work.notify_one();
        Ok(Ticket::new(id, state))
    }
}

impl Drop for Engine {
    /// Drains every admitted query, joins the workers, and fails
    /// anything left unserved — no ticket is ever dropped unfulfilled.
    /// (`Drop` takes `&mut self`, so no `submit` can be running.)
    fn drop(&mut self) {
        let inner = &self.inner;
        // Set under the queue lock: a worker reads `shutdown` and goes to
        // sleep on `work` under this lock, so the store cannot fall
        // between its read and its wait, where the `notify_all` below
        // would find no waiter and the worker would sleep forever.
        let queue = lock_recover(&inner.queue);
        inner.shutdown.store(true, Ordering::Relaxed);
        drop(queue);
        inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Final sweep, the safety net for a worker that died of an
        // engine bug outside `query_batch`: with all workers gone,
        // anything still queued can never be served — fail it typed
        // rather than leak the ticket.
        for p in lock_recover(&inner.queue).drain_all() {
            p.ticket.try_fulfill(Err(ServeError::WorkerCrashed));
        }
    }
}

/// The body of one worker thread: take up to `batch` queries from the
/// queue (highest class first), sleep while it is empty, and exit once
/// the engine is shutting down and the queue has drained. Expired-deadline
/// queries are dropped typed at dequeue; a panic inside the index fails
/// the whole in-flight batch typed, and the worker takes its next batch.
fn worker_loop(inner: &Inner) {
    let mut taken: Vec<Pending> = Vec::new();
    let mut batch = QueryBatch::new();
    loop {
        let mut queue = lock_recover(&inner.queue);
        while queue.is_empty() {
            if inner.shutdown.load(Ordering::Relaxed) {
                return;
            }
            queue = inner.work.wait(queue).unwrap_or_else(|p| p.into_inner());
        }
        queue.drain_priority(inner.cfg.batch, &mut taken);
        drop(queue);
        inner.space.notify_all();
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
                    if let Some(window) = &inner.latency {
                        window.record(done.saturating_duration_since(p.admitted));
                    }
                    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
                    p.ticket.fulfill(Ok(out));
                }
            }
            Err(_) => {
                inner.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                for p in taken.drain(..) {
                    p.ticket.try_fulfill(Err(ServeError::WorkerCrashed));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexFamily;

    /// A key index that answers every key with itself.
    struct EchoIndex;

    impl SearchIndex for EchoIndex {
        fn family(&self) -> IndexFamily {
            IndexFamily::Btree
        }

        fn dim(&self) -> usize {
            0
        }

        fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
            let keys = batch.keys().iter();
            keys.map(|&k| QueryOutput::Value(Some(u64::from(k))))
                .collect()
        }
    }

    /// Whether the SLO window holds a p99 after 300 completions.
    fn window_filled(cfg: EngineConfig) -> bool {
        let engine = Engine::new(Arc::new(EchoIndex), cfg);
        for k in 0..300 {
            let ticket = engine.submit(Query::Key(k)).expect("admitted");
            assert_eq!(ticket.wait(), Ok(QueryOutput::Value(Some(u64::from(k)))));
        }
        let latency = engine.inner.latency.as_ref();
        latency.and_then(LatencyWindow::p99_us).is_some()
    }

    #[test]
    fn a_default_engine_records_no_slo_samples() {
        assert!(!window_filled(EngineConfig::default()));
        let with_target = EngineConfig {
            slo: SloPolicy::uniform(1_000_000),
            ..EngineConfig::default()
        };
        assert!(window_filled(with_target), "a set target keeps its window");
    }

    /// Dropping an idle engine wakes every sleeping worker: none may read
    /// `shutdown` as false and then sleep through the drop's wakeup.
    /// Workers that are just starting race the drop, so a lost wakeup
    /// shows as a join that never returns, which the watchdog turns into
    /// a failure. The race window is a few instructions wide: with the
    /// `shutdown` store moved out of the lock, a run stranded a worker
    /// after 3.6k to 19k engines, so this drops 20k (about 3 s).
    #[test]
    fn dropping_idle_engines_never_strands_a_worker() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                let cfg = EngineConfig {
                    workers: 4,
                    ..EngineConfig::default()
                };
                drop(Engine::new(Arc::new(EchoIndex), cfg));
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("dropping an idle engine never returned");
    }
}
