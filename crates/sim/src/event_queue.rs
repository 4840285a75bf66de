//! The memory hierarchy's event queue: a ring of per-cycle buckets.
//!
//! Almost every event the hierarchy schedules lands a bounded number of
//! cycles ahead (interconnect hops, L1 hits, DRAM service), so the queue
//! keeps one bucket per cycle in a power-of-two ring, with an occupancy
//! bitmap to find the next non-empty cycle. Events scheduled beyond the
//! ring wait in an overflow heap.
//!
//! The drain order is exactly a binary min-heap's over `(cycle, event)`:
//!
//! * a cycle's bucket is sorted by event before it is drained,
//! * events pushed while a cycle drains, for that cycle (zero latencies),
//!   are merged into the rest of it in order,
//! * events pushed *late*, for a cycle already drained (the SM phase of a
//!   cycle pushes at `now` when `l1_latency = 0`), come out before
//!   anything later, in `(cycle, event)` order.
//!
//! All three follow from one invariant: every event due before `cursor`
//! sits in the sorted `due` list, and every other event lies at or after
//! `cursor` in the ring or the overflow heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the ring covers ahead of the cursor.
const RING: usize = 512;
const WORDS: usize = RING / 64;

/// A min-queue of `(cycle, event)` pairs, drained cycle by cycle.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    /// `ring[c % RING]` holds the events due at cycle `c`, for `c` in
    /// `[cursor, cursor + RING)`.
    ring: Vec<Vec<(u64, E)>>,
    /// Bit `i` is set iff `ring[i]` is non-empty.
    occupied: [u64; WORDS],
    /// The first cycle not yet opened for draining.
    cursor: u64,
    /// Every pending event due before `cursor`, ascending from `head`.
    due: Vec<(u64, E)>,
    head: usize,
    /// Events due at or after `cursor + RING` when they were pushed.
    overflow: BinaryHeap<Reverse<(u64, E)>>,
    len: usize,
}

impl<E: Ord + Copy> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            ring: (0..RING).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cursor: 0,
            due: Vec::new(),
            head: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Returns `true` when no event is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at cycle `at`.
    pub(crate) fn push(&mut self, at: u64, event: E) {
        self.len += 1;
        if at < self.cursor {
            // Already due: keep `due` sorted. Late pushes are rare and
            // usually sort last, so the insertion shifts little.
            let pos = self.head + self.due[self.head..].partition_point(|&x| x <= (at, event));
            self.due.insert(pos, (at, event));
        } else if at - self.cursor < RING as u64 {
            let i = at as usize & (RING - 1);
            self.ring[i].push((at, event));
            self.occupied[i / 64] |= 1 << (i % 64);
        } else {
            self.overflow.push(Reverse((at, event)));
        }
    }

    /// The cycle of the earliest pending event.
    pub(crate) fn next_cycle(&self) -> Option<u64> {
        match self.due.get(self.head) {
            Some(&(at, _)) => Some(at),
            None => self.earliest_undrained(),
        }
    }

    /// Removes and returns the smallest `(cycle, event)` due at or before
    /// `now`. Across calls `now` must not decrease.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, E)> {
        if self.head == self.due.len() {
            self.open_next(now);
        }
        let &next = self.due.get(self.head)?;
        if next.0 > now {
            return None;
        }
        self.head += 1;
        self.len -= 1;
        Some(next)
    }

    /// Moves the earliest undrained cycle into `due`, if it is due by
    /// `now`; otherwise advances the cursor past `now`.
    fn open_next(&mut self, now: u64) {
        self.due.clear();
        self.head = 0;
        let ring_next = self.ring_next();
        let next = match (ring_next, self.overflow.peek()) {
            (Some(a), Some(Reverse((b, _)))) => Some(a.min(*b)),
            (a, b) => a.or(b.map(|Reverse((at, _))| *at)),
        };
        let Some(cycle) = next.filter(|&c| c <= now) else {
            self.cursor = self.cursor.max(now + 1);
            return;
        };
        if ring_next == Some(cycle) {
            // Swap the bucket in; the emptied `due` buffer becomes the
            // bucket, so capacity circulates instead of reallocating.
            let i = cycle as usize & (RING - 1);
            std::mem::swap(&mut self.due, &mut self.ring[i]);
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
        while let Some(&Reverse((at, event))) = self.overflow.peek() {
            if at != cycle {
                break;
            }
            self.overflow.pop();
            self.due.push((at, event));
        }
        self.due.sort_unstable();
        self.cursor = cycle + 1;
    }

    /// The earliest cycle at or after `cursor` holding events.
    fn earliest_undrained(&self) -> Option<u64> {
        let ring = self.ring_next();
        let over = self.overflow.peek().map(|Reverse((at, _))| *at);
        match (ring, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest non-empty ring bucket's cycle: a circular bitmap scan
    /// starting at the cursor's slot.
    fn ring_next(&self) -> Option<u64> {
        let start = self.cursor as usize & (RING - 1);
        let (first_word, first_bit) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let word = (first_word + k) % WORDS;
            let mut bits = self.occupied[word];
            if k == 0 {
                bits &= !0u64 << first_bit;
            } else if k == WORDS {
                bits &= !(!0u64 << first_bit);
            }
            if bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                let ahead = (i + RING - start) & (RING - 1);
                return Some(self.cursor + ahead as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_cycle_then_event_order() {
        let mut q = EventQueue::new();
        for (at, e) in [(5u64, 3u8), (2, 9), (5, 1), (2, 4), (700, 0)] {
            q.push(at, e);
        }
        assert_eq!(q.next_cycle(), Some(2));
        assert_eq!(q.pop_due(1), None);
        assert_eq!(q.pop_due(5), Some((2, 4)));
        // A late push (cycle 1 < cursor) comes out before the rest.
        q.push(1, 7);
        assert_eq!(q.next_cycle(), Some(1));
        assert_eq!(q.pop_due(5), Some((1, 7)));
        assert_eq!(q.pop_due(5), Some((2, 9)));
        assert_eq!(q.pop_due(5), Some((5, 1)));
        // A same-cycle push during the drain merges in order.
        q.push(5, 2);
        assert_eq!(q.pop_due(5), Some((5, 2)));
        assert_eq!(q.pop_due(5), Some((5, 3)));
        assert_eq!(q.pop_due(5), None);
        // The overflow event arrives on time after a long jump.
        assert_eq!(q.next_cycle(), Some(700));
        assert_eq!(q.pop_due(699), None);
        q.push(700, 1);
        assert_eq!(q.pop_due(10_000), Some((700, 0)));
        assert_eq!(q.pop_due(10_000), Some((700, 1)));
        assert!(q.is_empty());
        assert_eq!(q.next_cycle(), None);
    }
}
