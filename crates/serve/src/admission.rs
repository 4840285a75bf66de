//! Admission policy: priority classes with per-class queue shares,
//! per-family SLO targets, and the sliding latency window that drives
//! adaptive shedding.
//!
//! The overload story has three rungs, from cheapest to last-resort:
//!
//! 1. **Class shares.** The engine's bounded queue admits a class only
//!    while the *total* queue depth is below that class's share of the
//!    capacity ([`Priority::admit_share_percent`]): `Batch` fills at
//!    most half the queue, `Normal` nine tenths, `Interactive` all of
//!    it. Under a flood the lowest class sheds first while higher
//!    classes still admit — a strict-threshold version of the priority
//!    admission the ROADMAP's serving rung calls for.
//! 2. **SLO shedding.** When the engine's sliding-window p99 completion
//!    latency exceeds the served family's [`SloPolicy`] target, the
//!    engine rejects `Batch` work (and `Normal` work past 2× the target)
//!    with `Overloaded` *before* the queue is actually full, pulling the
//!    queue back toward the latency target instead of the space bound.
//! 3. **Hard bound.** The capacity itself — `Interactive` backpressure.
//!
//! Dequeue is priority-banded: workers drain the highest class first, so
//! interactive latency is decoupled from how deep the batch backlog got.
//! None of this changes any query's *answer* (scheduling moves latency,
//! never results), so the replay-determinism story survives intact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::index::IndexFamily;

/// Admission class of one submitted query, lowest first. Ordering is
/// meaningful: `Batch < Normal < Interactive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Bulk / best-effort traffic: first to shed under overload.
    Batch,
    /// The default class.
    Normal,
    /// Latency-sensitive traffic: sheds only at the hard queue bound,
    /// and is dequeued ahead of everything else.
    Interactive,
}

impl Priority {
    /// Every class, lowest first (band index order).
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Interactive];

    /// Stable lowercase name (CLI flags, JSON keys, labels).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::Interactive => "interactive",
        }
    }

    /// The share of the queue capacity this class may fill, in
    /// percent. A class is admitted only while the total queue depth is
    /// under `capacity * share / 100` (floored at one slot), so lower
    /// classes hit backpressure while higher classes still admit.
    pub fn admit_share_percent(self) -> usize {
        match self {
            Priority::Batch => 50,
            Priority::Normal => 90,
            Priority::Interactive => 100,
        }
    }

    /// Band index into per-class storage, lowest class first. Stable:
    /// `Batch = 0`, `Normal = 1`, `Interactive = 2`.
    pub fn band(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-submission options: how urgent the query is and how long it is
/// worth waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Admission class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Absolute deadline. A worker that dequeues the query at or past
    /// this instant drops it with `ServeError::DeadlineExceeded`
    /// (delivered through the ticket, never silent), and the ticket's
    /// `wait`/`wait_timed` stop blocking once it passes.
    pub deadline: Option<Instant>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            priority: Priority::Normal,
            deadline: None,
        }
    }
}

impl SubmitOptions {
    /// Options for one class, no deadline.
    pub fn with_priority(priority: Priority) -> Self {
        SubmitOptions {
            priority,
            ..Default::default()
        }
    }

    /// Returns the options with an absolute deadline `budget` from now.
    pub fn deadline_in(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }
}

/// Per-family p99 latency targets driving adaptive shedding.
///
/// A target applies to the family the engine serves; `None` (the
/// default) disables SLO shedding for that family and leaves only the
/// class-share and hard-capacity rungs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloPolicy {
    targets_us: [Option<u64>; IndexFamily::ALL.len()],
}

impl SloPolicy {
    /// No targets: SLO shedding disabled.
    pub fn none() -> Self {
        Self::default()
    }

    /// The same p99 target (microseconds) for every family.
    pub fn uniform(target_p99_us: u64) -> Self {
        SloPolicy {
            targets_us: [Some(target_p99_us); IndexFamily::ALL.len()],
        }
    }

    /// Sets one family's p99 target in microseconds.
    pub fn with_target(mut self, family: IndexFamily, target_p99_us: u64) -> Self {
        self.targets_us[family_ix(family)] = Some(target_p99_us);
        self
    }

    /// The p99 target for `family`, if one is set.
    pub fn target_p99_us(&self, family: IndexFamily) -> Option<u64> {
        self.targets_us[family_ix(family)]
    }
}

fn family_ix(family: IndexFamily) -> usize {
    IndexFamily::ALL
        .iter()
        .position(|&f| f == family)
        .unwrap_or(0)
}

/// A bounded multi-band queue: one FIFO per class, drained highest class
/// first. The bound is enforced by the caller via [`ClassQueues::len`]
/// against the class's admit limit — the queue itself only stores.
#[derive(Debug)]
pub(crate) struct ClassQueues<T> {
    bands: [std::collections::VecDeque<T>; 3],
    len: usize,
}

impl<T> Default for ClassQueues<T> {
    fn default() -> Self {
        ClassQueues {
            bands: Default::default(),
            len: 0,
        }
    }
}

impl<T> ClassQueues<T> {
    /// Total queued items across all classes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when every band is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues one item in its class band (FIFO within the band).
    pub(crate) fn push(&mut self, priority: Priority, item: T) {
        self.bands[priority.band()].push_back(item);
        self.len += 1;
    }

    /// Dequeues up to `limit` items, highest class first, FIFO within a
    /// class, appending them to `out`. Returns how many were taken.
    pub(crate) fn drain_priority(&mut self, limit: usize, out: &mut Vec<T>) -> usize {
        let mut taken = 0;
        for band in self.bands.iter_mut().rev() {
            while taken < limit {
                match band.pop_front() {
                    Some(item) => {
                        out.push(item);
                        taken += 1;
                    }
                    None => break,
                }
            }
        }
        self.len -= taken;
        taken
    }

    /// Drains everything, lowest-to-highest interleaving irrelevant to
    /// callers that only fail the remainder (engine teardown).
    pub(crate) fn drain_all(&mut self) -> impl Iterator<Item = T> + '_ {
        self.len = 0;
        self.bands.iter_mut().flat_map(|b| b.drain(..))
    }
}

/// The effective admission bound for one class over a queue of
/// `capacity` slots: `capacity * share% / 100`, floored at one slot so
/// no class is configured out of existence.
pub(crate) fn class_admit_limit(priority: Priority, capacity: usize) -> usize {
    (capacity * priority.admit_share_percent() / 100).max(1)
}

/// Number of completion samples the window must hold before SLO
/// shedding activates — prevents one slow cold-start query from shedding
/// a healthy engine.
pub(crate) const SLO_MIN_SAMPLES: usize = 64;

/// Sliding window of recent completion latencies with a cheap cached
/// p99: workers record, admission reads one atomic.
#[derive(Debug)]
pub(crate) struct LatencyWindow {
    /// Ring of the most recent completion latencies, in nanoseconds.
    ring: Mutex<WindowRing>,
    /// Cached p99 in microseconds (`u64::MAX` = not enough samples yet),
    /// refreshed every [`Self::REFRESH`] samples.
    cached_p99_us: AtomicU64,
}

#[derive(Debug)]
struct WindowRing {
    samples: Vec<u64>,
    next: usize,
    recorded: u64,
}

impl Default for LatencyWindow {
    fn default() -> Self {
        LatencyWindow {
            ring: Mutex::new(WindowRing {
                samples: Vec::with_capacity(Self::WINDOW),
                next: 0,
                recorded: 0,
            }),
            cached_p99_us: AtomicU64::new(u64::MAX),
        }
    }
}

impl LatencyWindow {
    const WINDOW: usize = 512;
    const REFRESH: u64 = 32;

    /// Records one completion latency (admission → fulfillment).
    pub(crate) fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut ring = crate::handle::lock_recover(&self.ring);
        if ring.samples.len() < Self::WINDOW {
            ring.samples.push(ns);
        } else {
            let ix = ring.next;
            ring.samples[ix] = ns;
        }
        ring.next = (ring.next + 1) % Self::WINDOW;
        ring.recorded += 1;
        if ring.recorded.is_multiple_of(Self::REFRESH) && ring.samples.len() >= SLO_MIN_SAMPLES {
            let mut sorted = ring.samples.clone();
            sorted.sort_unstable();
            let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            self.cached_p99_us
                .store(sorted[rank] / 1_000, Ordering::Relaxed);
        }
    }

    /// The window's p99 in microseconds, once at least
    /// [`SLO_MIN_SAMPLES`] completions have been recorded.
    pub(crate) fn p99_us(&self) -> Option<u64> {
        match self.cached_p99_us.load(Ordering::Relaxed) {
            u64::MAX => None,
            v => Some(v),
        }
    }
}

/// Whether an engine whose window p99 is `p99_us` should shed work of
/// `priority` under `target_us`: `Batch` sheds past the target,
/// `Normal` past twice the target, `Interactive` never (it only hits
/// the hard capacity bound).
pub(crate) fn slo_sheds(priority: Priority, p99_us: u64, target_us: u64) -> bool {
    match priority {
        Priority::Batch => p99_us > target_us,
        Priority::Normal => p99_us > target_us.saturating_mul(2),
        Priority::Interactive => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_shares_order_batch_first() {
        let cap = 100;
        assert_eq!(class_admit_limit(Priority::Batch, cap), 50);
        assert_eq!(class_admit_limit(Priority::Normal, cap), 90);
        assert_eq!(class_admit_limit(Priority::Interactive, cap), 100);
        // Tiny queues never configure a class out of existence.
        assert_eq!(class_admit_limit(Priority::Batch, 1), 1);
    }

    #[test]
    fn drain_is_priority_banded_fifo() {
        let mut q: ClassQueues<u32> = ClassQueues::default();
        q.push(Priority::Batch, 1);
        q.push(Priority::Interactive, 2);
        q.push(Priority::Batch, 3);
        q.push(Priority::Normal, 4);
        q.push(Priority::Interactive, 5);
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        assert_eq!(q.drain_priority(3, &mut out), 3);
        assert_eq!(out, vec![2, 5, 4], "interactive first, then normal");
        out.clear();
        assert_eq!(q.drain_priority(10, &mut out), 2);
        assert_eq!(out, vec![1, 3], "batch FIFO last");
        assert!(q.is_empty());
    }

    #[test]
    fn window_p99_needs_min_samples_then_tracks() {
        let w = LatencyWindow::default();
        for _ in 0..SLO_MIN_SAMPLES - 1 {
            w.record(Duration::from_micros(10));
        }
        assert_eq!(w.p99_us(), None, "below the sample floor");
        for _ in 0..SLO_MIN_SAMPLES {
            w.record(Duration::from_micros(10));
        }
        let p99 = w.p99_us().expect("window warmed up");
        assert!((9..=11).contains(&p99), "p99 ~10us, got {p99}");
    }

    #[test]
    fn slo_shedding_is_class_graded() {
        assert!(slo_sheds(Priority::Batch, 101, 100));
        assert!(!slo_sheds(Priority::Batch, 100, 100));
        assert!(!slo_sheds(Priority::Normal, 150, 100));
        assert!(slo_sheds(Priority::Normal, 201, 100));
        assert!(!slo_sheds(Priority::Interactive, u64::MAX - 1, 100));
    }
}
