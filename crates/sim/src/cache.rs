//! Set-associative caches with LRU replacement and MSHR tracking.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for line numbers: one widening multiply, folded
/// so both the low bits (bucket index) and the high bits (tag) depend on
/// every bit of the line. MSHR maps are only probed and never iterated, so
/// the hash cannot leak into any output, and they hold at most the MSHR
/// capacity, so even lines a crafted trace makes collide cost at most a
/// capacity-long probe.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, line: u64) {
        let p = u128::from(line) * 0x9e37_79b9_7f4a_7c15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Hit/miss statistics of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit in the tag array.
    pub hits: u64,
    /// Lookups that hit on a pending miss (merged into an MSHR). The paper
    /// counts these as hits (§VI-J).
    pub mshr_hits: u64,
    /// Lookups that allocated a new miss.
    pub misses: u64,
    /// Lookups rejected because the MSHR file was full.
    pub mshr_stalls: u64,
}

impl CacheStats {
    /// Total accesses that were accepted (hits + mshr hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.mshr_hits + self.misses
    }

    /// Miss rate with MSHR-merged accesses counted as hits, as in Fig. 13.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present; data available after the hit latency.
    Hit,
    /// Line already being fetched; the access was merged into the MSHR.
    MshrHit,
    /// New miss; an MSHR was allocated and the request must go down-level.
    Miss,
    /// MSHR file full; the access must be retried later.
    Stall,
}

/// A set-associative LRU cache front-end with an MSHR file.
///
/// The cache tracks tags and miss status only — data movement is implicit.
/// Waiters are opaque `u64` tokens returned when a fill completes.
#[derive(Debug)]
pub struct Cache {
    /// `sets[s]` holds up to `ways` entries of `(line, last_use)`.
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    mshrs: LineMap<Vec<u64>>,
    mshr_capacity: usize,
    use_counter: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` ways and `mshr_capacity`
    /// outstanding-miss entries.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(sets: usize, ways: usize, mshr_capacity: usize) -> Self {
        assert!(
            sets > 0 && ways > 0 && mshr_capacity > 0,
            "degenerate cache geometry"
        );
        Cache {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            mshrs: LineMap::default(),
            mshr_capacity,
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Looks up `line` on behalf of `waiter`.
    ///
    /// On [`Lookup::Miss`] the caller must forward the request down-level and
    /// call [`Cache::fill`] when the data returns. On [`Lookup::MshrHit`] the
    /// waiter is queued on the existing miss. On [`Lookup::Stall`] nothing is
    /// recorded and the caller retries.
    pub fn access(&mut self, line: u64, waiter: u64) -> Lookup {
        self.use_counter += 1;
        let set = self.set_of(line);
        if let Some(entry) = self.sets[set].iter_mut().find(|(l, _)| *l == line) {
            entry.1 = self.use_counter;
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        if let Some(waiters) = self.mshrs.get_mut(&line) {
            waiters.push(waiter);
            self.stats.mshr_hits += 1;
            return Lookup::MshrHit;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            self.stats.mshr_stalls += 1;
            return Lookup::Stall;
        }
        self.mshrs.insert(line, vec![waiter]);
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Whether an [`Cache::access`] of `line` would be accepted right now
    /// (anything but [`Lookup::Stall`]): resident, mergeable into a pending
    /// miss, or a free MSHR entry exists. Non-mutating — the event-driven
    /// run loop uses this to decide if a blocked requester could make
    /// progress on the next cycle without disturbing LRU or MSHR state.
    pub fn can_accept(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.sets[set].iter().any(|(l, _)| *l == line)
            || self.mshrs.contains_key(&line)
            || self.mshrs.len() < self.mshr_capacity
    }

    /// Bulk-accounts `count` rejected lookups, exactly as `count` calls to
    /// [`Cache::access`] returning [`Lookup::Stall`] would have: the use
    /// counter advances (stalled probes still consume the port) and the
    /// stall statistic grows. Used when fast-forwarding across a span in
    /// which a requester would have retried-and-stalled every cycle.
    pub fn note_stalled_probes(&mut self, count: u64) {
        self.use_counter += count;
        self.stats.mshr_stalls += count;
    }

    /// A tag-only probe that never allocates (used for stores in the
    /// write-through model). Returns `true` on hit.
    pub fn probe(&mut self, line: u64) -> bool {
        self.use_counter += 1;
        let set = self.set_of(line);
        if let Some(entry) = self.sets[set].iter_mut().find(|(l, _)| *l == line) {
            entry.1 = self.use_counter;
            true
        } else {
            false
        }
    }

    /// Completes the fill of `line`: installs it (LRU eviction) and returns
    /// the waiters queued on its MSHR.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR exists for `line` (fill without a miss).
    pub fn fill(&mut self, line: u64) -> Vec<u64> {
        let Some(waiters) = self.mshrs.remove(&line) else {
            panic!("fill without outstanding miss");
        };
        self.use_counter += 1;
        let counter = self.use_counter;
        let ways = self.ways;
        let set = self.set_of(line);
        let entries = &mut self.sets[set];
        if entries.len() >= ways {
            // Evict the least recently used way.
            let Some(lru) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(i, _)| i)
            else {
                unreachable!("set at capacity cannot be empty");
            };
            entries.swap_remove(lru);
        }
        entries.push((line, counter));
        waiters
    }

    /// Number of MSHR entries currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(4, 2, 4);
        assert_eq!(c.access(10, 1), Lookup::Miss);
        assert_eq!(c.access(10, 2), Lookup::MshrHit);
        let waiters = c.fill(10);
        assert_eq!(waiters, vec![1, 2]);
        assert_eq!(c.access(10, 3), Lookup::Hit);
        let s = c.stats();
        assert_eq!((s.hits, s.mshr_hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways: lines 0, 1, then touch 0, insert 2 -> evicts 1.
        let mut c = Cache::new(1, 2, 8);
        assert_eq!(c.access(0, 0), Lookup::Miss);
        c.fill(0);
        assert_eq!(c.access(1, 0), Lookup::Miss);
        c.fill(1);
        assert_eq!(c.access(0, 0), Lookup::Hit);
        assert_eq!(c.access(2, 0), Lookup::Miss);
        c.fill(2);
        assert_eq!(
            c.access(0, 0),
            Lookup::Hit,
            "recently used line must survive"
        );
        assert_eq!(c.access(1, 0), Lookup::Miss, "LRU line must be evicted");
    }

    #[test]
    fn mshr_capacity_stalls() {
        let mut c = Cache::new(4, 2, 2);
        assert_eq!(c.access(1, 0), Lookup::Miss);
        assert_eq!(c.access(2, 0), Lookup::Miss);
        assert_eq!(c.mshrs_in_use(), 2, "MSHR file full");
        assert_eq!(c.access(3, 0), Lookup::Stall);
        assert_eq!(c.stats().mshr_stalls, 1);
        c.fill(1);
        assert_eq!(c.access(3, 0), Lookup::Miss);
    }

    #[test]
    fn sets_isolate_lines() {
        // Lines mapping to different sets never evict each other.
        let mut c = Cache::new(4, 1, 8);
        for line in 0..4u64 {
            assert_eq!(c.access(line, 0), Lookup::Miss);
            c.fill(line);
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line, 0), Lookup::Hit);
        }
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = Cache::new(4, 2, 4);
        assert!(!c.probe(5));
        assert_eq!(c.mshrs_in_use(), 0);
        assert_eq!(c.access(5, 0), Lookup::Miss);
        c.fill(5);
        assert!(c.probe(5));
    }

    #[test]
    fn miss_rate_counts_mshr_hits_as_hits() {
        let mut c = Cache::new(4, 2, 4);
        c.access(1, 0); // miss
        c.access(1, 1); // mshr hit
        c.fill(1);
        c.access(1, 2); // hit
        c.access(1, 3); // hit
        assert!((c.stats().miss_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fill without outstanding miss")]
    fn fill_requires_miss() {
        let mut c = Cache::new(2, 2, 2);
        c.fill(9);
    }

    #[test]
    fn merges_into_full_mshr_file_without_stalling() {
        // A full MSHR file only rejects NEW misses: accesses to lines with
        // an in-flight miss still merge. This is the contract the SM relies
        // on when it retries rejected accesses — a retry to an already-
        // pending line must not spin forever.
        let mut c = Cache::new(4, 2, 2);
        assert_eq!(c.access(1, 10), Lookup::Miss);
        assert_eq!(c.access(2, 20), Lookup::Miss);
        assert_eq!(c.mshrs_in_use(), 2, "MSHR file full");
        assert_eq!(c.access(1, 11), Lookup::MshrHit, "merge while full");
        assert_eq!(c.access(2, 21), Lookup::MshrHit);
        assert_eq!(c.access(3, 30), Lookup::Stall, "new miss while full");
        // Hits are also unaffected by a full MSHR file.
        c.fill(1);
        assert_eq!(c.access(1, 12), Lookup::Hit);
        assert_eq!(c.stats().mshr_stalls, 1);
    }

    #[test]
    fn fill_returns_waiters_in_arrival_order() {
        // Waiter order is architectural: the memory system pushes Done
        // events in this order, so completion ordering (and therefore warp
        // wakeup ordering) is pinned to arrival order.
        let mut c = Cache::new(4, 2, 4);
        assert_eq!(c.access(5, 100), Lookup::Miss);
        assert_eq!(c.access(5, 101), Lookup::MshrHit);
        assert_eq!(c.access(5, 102), Lookup::MshrHit);
        assert_eq!(c.fill(5), vec![100, 101, 102]);
    }

    #[test]
    fn can_accept_predicts_access_outcome_exactly() {
        // `can_accept` is the event scheduler's oracle for whether
        // presenting a queued line would be a Stall: it must be true
        // exactly when `access` would NOT return `Lookup::Stall`.
        let mut c = Cache::new(4, 2, 1);
        assert!(c.can_accept(1), "free MSHR -> accept");
        assert_eq!(c.access(1, 0), Lookup::Miss);
        assert!(c.can_accept(1), "merge into in-flight miss -> accept");
        assert!(!c.can_accept(2), "new miss with full MSHR file -> reject");
        c.fill(1);
        assert!(c.can_accept(1), "resident line -> accept");
        assert!(c.can_accept(2), "MSHR freed by the fill -> accept");
    }

    #[test]
    fn note_stalled_probes_mirrors_per_cycle_rejections() {
        // Bulk-accounting N rejected presentations must leave the cache in
        // the same state as N per-cycle `access` calls that stalled: same
        // stall statistics, same LRU use counter, nothing else disturbed.
        let mut a = Cache::new(1, 1, 1);
        let mut b = Cache::new(1, 1, 1);
        for c in [&mut a, &mut b] {
            assert_eq!(c.access(1, 0), Lookup::Miss);
        }
        for _ in 0..5 {
            assert_eq!(a.access(2, 1), Lookup::Stall);
        }
        b.note_stalled_probes(5);
        assert_eq!(a.stats().mshr_stalls, b.stats().mshr_stalls);
        // Identical future behaviour (use counters aligned for LRU).
        for c in [&mut a, &mut b] {
            assert_eq!(c.fill(1), vec![0]);
            assert_eq!(c.access(2, 1), Lookup::Miss);
        }
    }

    #[test]
    fn stalled_access_leaves_no_trace() {
        // A Stall must not allocate, enqueue a waiter, or disturb LRU state;
        // the retried access later behaves exactly like a fresh one.
        let mut c = Cache::new(1, 1, 1);
        assert_eq!(c.access(1, 0), Lookup::Miss);
        assert_eq!(c.access(2, 1), Lookup::Stall);
        assert_eq!(c.mshrs_in_use(), 1);
        assert_eq!(c.fill(1), vec![0], "stalled waiter must not be queued");
        assert_eq!(c.access(2, 1), Lookup::Miss, "retry allocates normally");
        assert_eq!(c.fill(2), vec![1]);
        let s = c.stats();
        assert_eq!((s.hits, s.mshr_hits, s.misses, s.mshr_stalls), (0, 0, 2, 1));
    }
}
