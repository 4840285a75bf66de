//! Chaos harness: deterministic fault injection for the serving engine.
//!
//! [`ChaosIndex`] wraps any [`SearchIndex`] and injects the serve-side
//! fault classes the engine must survive:
//!
//! - **worker-panic-on-nth-query** ([`ChaosPlan::panic_on`]): the batch
//!   containing the n-th served query panics inside the index — the
//!   engine must fail that batch with `ServeError::WorkerCrashed` and
//!   keep serving;
//! - **per-shard slow queries** ([`ChaosPlan::slow_shard`]): batches
//!   executed by a given shard's workers stall for a fixed delay —
//!   the latency inflation that deadlines and SLO shedding must bound.
//!
//! Deadline storms and admission floods are *driver* faults — the tests
//! in `crates/serve/tests/chaos.rs` produce them by submitting with
//! expired deadlines / past the class shares; this module contributes
//! the injection points that need to live inside the index.
//!
//! The wrapper is answer-transparent: every query it does not kill is
//! forwarded to the inner index unchanged, so the replay digest of the
//! *successfully served* subset of a faulted run must match an unfaulted
//! run — the property the chaos tests pin.

use std::panic::PanicHookInfo;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use crate::batch::QueryBatch;
use crate::index::{IndexFamily, Query, QueryOutput, SearchIndex};

/// Message prefix of every chaos-injected panic — the quiet panic hook
/// and log scrapers key on it.
pub const CHAOS_PANIC_PREFIX: &str = "chaos: injected worker panic";

/// What faults to inject, and where.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// 1-based global served-query ordinals whose batch panics. Each
    /// ordinal fires at most once (the counter advances past the doomed
    /// batch, so the worker's next batch is not killed by it).
    pub panic_on: Vec<u64>,
    /// Inject `slow_delay` into every batch executed by a worker whose
    /// home shard is this one (worker identity comes from the
    /// `serve-{shard}-{worker}` thread name).
    pub slow_shard: Option<usize>,
    /// The per-batch stall for `slow_shard`.
    pub slow_delay: Duration,
}

impl ChaosPlan {
    /// A plan that stalls every batch served by shard `s` workers.
    pub fn slow_on_shard(s: usize, delay: Duration) -> Self {
        ChaosPlan {
            slow_shard: Some(s),
            slow_delay: delay,
            ..Default::default()
        }
    }
}

/// A fault-injecting wrapper around any served index.
pub struct ChaosIndex {
    inner: Arc<dyn SearchIndex>,
    plan: ChaosPlan,
    served: AtomicU64,
}

impl ChaosIndex {
    /// Wraps `inner` with the fault plan.
    pub fn new(inner: Arc<dyn SearchIndex>, plan: ChaosPlan) -> Self {
        ChaosIndex {
            inner,
            plan,
            served: AtomicU64::new(0),
        }
    }

    /// Queries that have entered execution so far (including those a
    /// panic killed).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

impl SearchIndex for ChaosIndex {
    fn family(&self) -> IndexFamily {
        self.inner.family()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn validate(&self, query: &Query) -> Result<(), crate::error::ServeError> {
        self.inner.validate(query)
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        if let Some(slow) = self.plan.slow_shard {
            if worker_home_shard() == Some(slow) {
                std::thread::sleep(self.plan.slow_delay);
            }
        }
        let len = batch.len() as u64;
        let start = self.served.fetch_add(len, Ordering::Relaxed);
        if self
            .plan
            .panic_on
            .iter()
            .any(|&n| start < n && n <= start + len)
        {
            panic!(
                "{CHAOS_PANIC_PREFIX} (batch covering served queries {}..={})",
                start + 1,
                start + len
            );
        }
        self.inner.query_batch(batch)
    }
}

/// The home shard of the calling engine worker, parsed from the
/// `serve-{shard}-{worker}` thread name. `None` off the worker pool
/// (submitters, tests).
fn worker_home_shard() -> Option<usize> {
    let thread = std::thread::current();
    let name = thread.name()?;
    let rest = name.strip_prefix("serve-")?;
    let (shard, worker) = rest.split_once('-')?;
    worker.parse::<usize>().ok()?;
    shard.parse().ok()
}

/// Installs (once, process-wide) a panic hook that swallows
/// chaos-injected panics and forwards everything else to the previous
/// hook — keeps intentional crash storms from burying real failures in
/// backtrace noise. Safe to call from concurrent tests.
pub fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(CHAOS_PANIC_PREFIX))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with(CHAOS_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pure synthetic key index: `key -> Some(2k + 1)`.
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

    #[test]
    fn panic_fires_once_on_the_covering_batch() {
        install_quiet_panic_hook();
        let chaos = ChaosIndex::new(
            Arc::new(PureIndex),
            ChaosPlan {
                panic_on: vec![3],
                ..Default::default()
            },
        );
        let mut batch = QueryBatch::new();
        batch.push(&Query::Key(1));
        batch.push(&Query::Key(2));
        assert_eq!(chaos.query_batch(&batch).len(), 2, "queries 1-2 survive");
        let doomed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos.query_batch(&batch) // covers served ordinals 3-4
        }));
        assert!(doomed.is_err(), "the covering batch must panic");
        assert_eq!(
            chaos.query_batch(&batch),
            vec![QueryOutput::Value(Some(3)), QueryOutput::Value(Some(5)),],
            "the ordinal fired once; later batches serve transparently"
        );
        assert_eq!(chaos.served(), 6);
    }

    #[test]
    fn worker_shard_parses_only_engine_worker_names() {
        let parsed = std::thread::Builder::new()
            .name("serve-3-1".into())
            .spawn(worker_home_shard)
            .expect("spawn")
            .join()
            .expect("join");
        assert_eq!(parsed, Some(3));
        assert_eq!(worker_home_shard(), None, "test thread is not a worker");
    }
}
