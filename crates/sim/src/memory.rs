//! The memory hierarchy: per-SM L1s and their ports, banked shared L2, HBM
//! channels.
//!
//! Requests flow L1 → L2 → DRAM and responses flow back, with fixed
//! interconnect latencies, per-bank L2 lookup throughput, and FR-FCFS DRAM
//! service. Completion tokens (`waiter`s) are opaque to the hierarchy; the
//! SMs map them back to blocked warps or RT-unit lanes.
//!
//! # One owner
//!
//! The run loop owns the whole hierarchy and drives it from one thread:
//! each visited cycle it ticks the hierarchy (DRAM service, then every
//! event due, then every L1 port), then lets each SM that can observe the
//! cycle tick. Per-SM state lives in a plain vector of `L1Shard`s (L1 tags
//! and MSHRs, the private RT cache if the policy has one, requester
//! counters, and the L1 port); everything an access schedules goes into
//! one cycle-bucketed event queue whose drain order is exactly a binary
//! min-heap's over `(cycle, event)`. That order is what makes every
//! [`crate::config::SimMode`] produce bit-identical reports.
//!
//! # The L1 port
//!
//! An SM hands each load line and each RT-unit CISC fetch to its shard's
//! port with [`MemorySystem::enqueue`] and never sees it again until the
//! completion arrives. The port holds the load-store unit's line queue and
//! the RT unit's FIFO memory-access queue, which time-share the L1 (§VI-H):
//! under [`RtCachePolicy::SharedWithLsu`] one head is presented per cycle,
//! round-robin when both queues wait; under the private and bypass
//! policies the RT side presents to its own cache first, then the LSU side.
//! A rejected head (MSHR file full) stays at the front. A line queued at
//! cycle `t` is first presented at `t + 1`. Cycles the event-driven loop
//! skips while a port waits are replayed in bulk as rejected presentations
//! at the port's next visit, so the stall statistics, the caches' use
//! counters and the round-robin token match the stepped oracle's.

use std::collections::VecDeque;

use crate::cache::{Cache, CacheStats, Lookup};
use crate::config::{GpuConfig, RtCachePolicy};
use crate::dram::{DramChannel, DramStats};
use crate::event_queue::EventQueue;

/// Who issued an L1 access — the paper separates LSU and RT-unit traffic
/// when reporting L1 access counts (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// The SIMT load-store unit.
    Lsu,
    /// The RT/HSU unit's FIFO memory access queue.
    RtUnit,
}

/// Result of presenting an access to the L1 port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Accepted; the waiter completes in a future cycle.
    Accepted,
    /// Rejected (MSHR full); present it again next cycle.
    Rejected,
}

/// Marks an L2 waiter / L1-fill destined for the private RT cache.
const RT_FILL: u32 = 1 << 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A request arrives at its L2 bank.
    L2Arrive { sm: u32, line: u64 },
    /// DRAM data arrives back at the L2, filling it.
    L2Fill { line: u64 },
    /// Response arrives at an SM's L1, filling it.
    L1Fill { sm: u32, line: u64 },
    /// A waiter's data is ready at the SM.
    Done { sm: u32, waiter: u64 },
}

/// Aggregated memory statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// L1 accesses from the load-store unit (across all SMs).
    pub l1_lsu_accesses: u64,
    /// L1 accesses from RT/HSU units.
    pub l1_rt_accesses: u64,
    /// Combined L1 tag statistics.
    pub l1: CacheStats,
    /// Combined private RT-cache statistics (zero under the shared policy).
    pub rt_cache: CacheStats,
    /// Combined L2 statistics.
    pub l2: CacheStats,
    /// Combined DRAM statistics.
    pub dram: DramStats,
}

/// One SM's slice of the hierarchy: L1 + optional private RT cache +
/// requester counters + the L1 port.
#[derive(Debug)]
struct L1Shard {
    l1: Cache,
    rt_cache: Option<Cache>,
    lsu_accesses: u64,
    rt_accesses: u64,
    /// Load lines waiting for the port: `(line, waiter)`.
    lsu_queue: VecDeque<(u64, u64)>,
    /// The RT unit's fetches waiting for the port: `(line, waiter)`.
    rt_fifo: VecDeque<(u64, u64)>,
    /// Round-robin token of the shared port.
    port_prefers_rt: bool,
    /// Whether the cache rejected this cycle's presentation and would
    /// reject every other head too: the port then waits for a fill.
    port_blocked: bool,
    /// The last cycle whose presentation is accounted: every later cycle
    /// up to the port's next presentation was one the run loop skipped.
    port_settled: u64,
}

impl L1Shard {
    /// The cache `requester` presents to, and whether it is the private RT
    /// cache.
    fn cache_for(&mut self, requester: Requester) -> (bool, &mut Cache) {
        match (requester, &mut self.rt_cache) {
            (Requester::RtUnit, Some(cache)) => (true, cache),
            _ => (false, &mut self.l1),
        }
    }

    fn count(&mut self, requester: Requester) {
        match requester {
            Requester::Lsu => self.lsu_accesses += 1,
            Requester::RtUnit => self.rt_accesses += 1,
        }
    }

    /// Outstanding misses in the L1 plus the private RT cache, if any.
    fn mshrs_in_use(&self) -> usize {
        self.l1.mshrs_in_use() + self.rt_cache.as_ref().map_or(0, Cache::mshrs_in_use)
    }

    fn queue(&mut self, requester: Requester) -> &mut VecDeque<(u64, u64)> {
        match requester {
            Requester::Lsu => &mut self.lsu_queue,
            Requester::RtUnit => &mut self.rt_fifo,
        }
    }

    fn port_idle(&self) -> bool {
        self.lsu_queue.is_empty() && self.rt_fifo.is_empty()
    }

    /// Whether the next presentation of either queue head could be
    /// accepted. Conservative under the shared policy, where the
    /// round-robin may present the other (rejected) head first.
    fn port_may_accept(&self) -> bool {
        let rt_cache = self.rt_cache.as_ref().unwrap_or(&self.l1);
        self.lsu_queue
            .front()
            .is_some_and(|&(line, _)| self.l1.can_accept(line))
            || self
                .rt_fifo
                .front()
                .is_some_and(|&(line, _)| rt_cache.can_accept(line))
    }

    /// Accounts `cycles` presentations that the cache rejected, exactly as
    /// that many per-cycle presentations ending in [`AccessOutcome::Rejected`]
    /// would: one stall probe per waiting side and cycle with a private RT
    /// path, otherwise one per cycle, with the round-robin token toggling
    /// when both sides wait.
    fn note_rejected_presentations(&mut self, cycles: u64) {
        let lsu = !self.lsu_queue.is_empty();
        let rt = !self.rt_fifo.is_empty();
        if let Some(rt_cache) = &mut self.rt_cache {
            if lsu {
                self.l1.note_stalled_probes(cycles);
            }
            if rt {
                rt_cache.note_stalled_probes(cycles);
            }
            return;
        }
        match (lsu, rt) {
            (false, false) => return,
            (true, false) => self.port_prefers_rt = true,
            (false, true) => self.port_prefers_rt = false,
            (true, true) => self.port_prefers_rt ^= cycles % 2 == 1,
        }
        self.l1.note_stalled_probes(cycles);
    }
}

/// The full hierarchy.
#[derive(Debug)]
pub struct MemorySystem {
    l1_latency: u64,
    half_l2_latency: u64,
    shards: Vec<L1Shard>,
    l2_banks: Vec<Cache>,
    l2_bank_busy: Vec<u64>,
    dram: Vec<DramChannel>,
    dram_banks: u64,
    lines_per_row: u64,
    events: EventQueue<Event>,
    dram_completions: Vec<(u64, u64)>,
}

impl MemorySystem {
    /// Builds the hierarchy for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let l2_sets_per_bank = (cfg.l2_sets() / cfg.l2_banks).max(1);
        let rt_cache = || match cfg.rt_cache {
            RtCachePolicy::SharedWithLsu => None,
            RtCachePolicy::Private { bytes } => {
                let sets = (bytes / (4 * cfg.line_bytes)).max(1);
                Some(Cache::new(sets, 4, cfg.l1_mshrs))
            }
            // Bypass = a degenerate one-line cache: no capacity to
            // pollute, but in-flight duplicate fetches still merge the
            // way a pending-request queue would.
            RtCachePolicy::Bypass => Some(Cache::new(1, 1, cfg.l1_mshrs)),
        };
        MemorySystem {
            l1_latency: cfg.l1_latency,
            half_l2_latency: cfg.l2_latency / 2,
            shards: (0..cfg.num_sms)
                .map(|_| L1Shard {
                    l1: Cache::new(cfg.l1_sets(), cfg.l1_ways, cfg.l1_mshrs),
                    rt_cache: rt_cache(),
                    lsu_accesses: 0,
                    rt_accesses: 0,
                    lsu_queue: VecDeque::new(),
                    rt_fifo: VecDeque::new(),
                    port_prefers_rt: false,
                    port_blocked: false,
                    port_settled: 0,
                })
                .collect(),
            l2_banks: (0..cfg.l2_banks)
                .map(|_| Cache::new(l2_sets_per_bank, cfg.l2_ways, 64))
                .collect(),
            l2_bank_busy: vec![0; cfg.l2_banks],
            dram: (0..cfg.dram_channels)
                .map(|_| {
                    DramChannel::new(
                        cfg.dram_banks,
                        cfg.dram_row_hit_cycles,
                        cfg.dram_row_miss_cycles,
                        cfg.dram_transfer_cycles,
                    )
                })
                .collect(),
            dram_banks: cfg.dram_banks as u64,
            lines_per_row: cfg.lines_per_row(),
            events: EventQueue::new(),
            dram_completions: Vec::new(),
        }
    }

    /// Queues `line` on `requester`'s side of `sm`'s L1 port at cycle
    /// `now`, after [`MemorySystem::tick`]`(now)`. The port first presents
    /// it at `now + 1`; once the cache accepts it, `waiter` completes like
    /// any access's.
    pub fn enqueue(&mut self, sm: usize, line: u64, waiter: u64, requester: Requester, now: u64) {
        let shard = &mut self.shards[sm];
        if shard.port_idle() {
            shard.port_settled = now;
        }
        let queue = shard.queue(requester);
        let new_head = queue.is_empty();
        queue.push_back((line, waiter));
        if new_head {
            // The cache may accept it.
            shard.port_blocked = false;
        }
    }

    /// Presents one access straight to the cache `requester` uses on `sm`,
    /// bypassing the port's queues and arbitration (the port calls this for
    /// each head it presents).
    pub fn access(
        &mut self,
        sm: usize,
        line: u64,
        waiter: u64,
        requester: Requester,
        now: u64,
    ) -> AccessOutcome {
        let shard = &mut self.shards[sm];
        let (rt_fill, cache) = shard.cache_for(requester);
        let event = match cache.access(line, waiter) {
            Lookup::Stall => return AccessOutcome::Rejected,
            Lookup::Hit => Some((
                now + self.l1_latency,
                Event::Done {
                    sm: sm as u32,
                    waiter,
                },
            )),
            Lookup::MshrHit => None, // merged; completes with the fill
            Lookup::Miss => {
                // Tag the L2 waiter so the fill returns to the right cache.
                let tag = if rt_fill {
                    (sm as u32) | RT_FILL
                } else {
                    sm as u32
                };
                Some((
                    now + self.half_l2_latency,
                    Event::L2Arrive { sm: tag, line },
                ))
            }
        };
        shard.count(requester);
        if let Some((at, event)) = event {
            self.events.push(at, event);
        }
        AccessOutcome::Accepted
    }

    /// A write-through store: counts an L1 access; no completion event (the
    /// workloads keep their hot mutable state in shared memory).
    pub fn store(&mut self, sm: usize, line: u64, requester: Requester) {
        let shard = &mut self.shards[sm];
        shard.l1.probe(line);
        shard.count(requester);
    }

    /// Outstanding misses tracked by `sm`'s L1 plus its private RT cache, if
    /// any (deadlock diagnostics: in-flight memory the SM is waiting on).
    pub fn l1_mshrs_in_use(&self, sm: usize) -> usize {
        self.shards[sm].mshrs_in_use()
    }

    /// Lines waiting at `sm`'s L1 port: `(LSU queue, RT fetch FIFO)`
    /// (deadlock diagnostics).
    pub fn port_depths(&self, sm: usize) -> (usize, usize) {
        let shard = &self.shards[sm];
        (shard.lsu_queue.len(), shard.rt_fifo.len())
    }

    /// Presents `sm`'s port for cycle `now`: first replays the cycles since
    /// it was last settled as rejected presentations (the run loop skips
    /// a cycle only while no head can be accepted), then presents this
    /// cycle's heads.
    fn present_port(&mut self, sm: usize, now: u64) {
        let shard = &mut self.shards[sm];
        if shard.port_idle() {
            return;
        }
        debug_assert!(
            shard.port_settled < now,
            "port presented twice at one cycle"
        );
        let skipped = now - shard.port_settled - 1;
        if skipped > 0 {
            shard.note_rejected_presentations(skipped);
        }
        shard.port_settled = now;
        let lsu = !shard.lsu_queue.is_empty();
        let rt = !shard.rt_fifo.is_empty();
        let accepted = if shard.rt_cache.is_some() {
            let rt_accepted = rt && self.present_head(sm, Requester::RtUnit, now);
            let lsu_accepted = lsu && self.present_head(sm, Requester::Lsu, now);
            rt_accepted || lsu_accepted
        } else {
            let pick_rt = match (lsu, rt) {
                (true, true) => shard.port_prefers_rt,
                _ => rt,
            };
            shard.port_prefers_rt = !pick_rt;
            let requester = if pick_rt {
                Requester::RtUnit
            } else {
                Requester::Lsu
            };
            self.present_head(sm, requester, now)
        };
        // After a rejection, check whether any head can still be accepted
        // (a waiting port is presented again only at a visited cycle);
        // after an acceptance, the next head is presented next cycle.
        let shard = &mut self.shards[sm];
        shard.port_blocked = !accepted && !shard.port_may_accept();
    }

    /// Presents the head of `requester`'s queue on `sm`'s port, popping it
    /// if the cache accepts it. Returns whether it did.
    fn present_head(&mut self, sm: usize, requester: Requester, now: u64) -> bool {
        let Some(&(line, waiter)) = self.shards[sm].queue(requester).front() else {
            return false;
        };
        let accepted = self.access(sm, line, waiter, requester, now) == AccessOutcome::Accepted;
        if accepted {
            self.shards[sm].queue(requester).pop_front();
        }
        accepted
    }

    /// Advances one cycle: DRAM service, every event due, then every
    /// waiting L1 port. Appends `(sm, waiter)` completions to `done`.
    pub fn tick(&mut self, now: u64, done: &mut Vec<(usize, u64)>) {
        // DRAM channels progress independently.
        self.dram_completions.clear();
        let channels = self.dram.len() as u64;
        for (ch, dram) in self.dram.iter_mut().enumerate() {
            let before = self.dram_completions.len();
            dram.tick(now, &mut self.dram_completions);
            // Tokens are lines; convert to L2 fills at the return latency.
            for &(finish, line) in &self.dram_completions[before..] {
                debug_assert_eq!((line % channels) as usize, ch);
                self.events.push(finish, Event::L2Fill { line });
            }
        }

        // Drain events due now, including any this drain schedules for now.
        while let Some((_, event)) = self.events.pop_due(now) {
            match event {
                Event::L2Arrive { sm, line } => {
                    let bank = self.bank_of(line);
                    if self.l2_bank_busy[bank] > now {
                        // Port conflict: retry next cycle.
                        self.events.push(now + 1, Event::L2Arrive { sm, line });
                        continue;
                    }
                    self.l2_bank_busy[bank] = now + 1;
                    match self.l2_banks[bank].access(line, sm as u64) {
                        Lookup::Hit => {
                            self.events
                                .push(now + self.half_l2_latency, Event::L1Fill { sm, line });
                        }
                        Lookup::MshrHit => {}
                        Lookup::Miss => {
                            // Address decomposition: channel (low bits), then
                            // column within the row, then bank, then row —
                            // so streams of consecutive lines stay in one
                            // open row (standard row:bank:col interleaving).
                            let ch = self.channel_of(line);
                            let channel_line = line / self.dram.len() as u64;
                            let banks = self.dram_banks;
                            let bank_idx = ((channel_line / self.lines_per_row) % banks) as usize;
                            let row = channel_line / (self.lines_per_row * banks);
                            self.dram[ch].enqueue(line, bank_idx, row, now);
                        }
                        Lookup::Stall => {
                            self.events.push(now + 1, Event::L2Arrive { sm, line });
                        }
                    }
                }
                Event::L2Fill { line } => {
                    let bank = self.bank_of(line);
                    for sm in self.l2_banks[bank].fill(line) {
                        self.events.push(
                            now + self.half_l2_latency,
                            Event::L1Fill {
                                sm: sm as u32,
                                line,
                            },
                        );
                    }
                }
                Event::L1Fill { sm, line } => {
                    let is_rt = sm & RT_FILL != 0;
                    let sm_idx = (sm & !RT_FILL) as usize;
                    let shard = &mut self.shards[sm_idx];
                    let waiters = match (is_rt, &mut shard.rt_cache) {
                        (true, Some(cache)) => cache.fill(line),
                        // An RT-tagged fill can only originate from an
                        // RT-cache access, which requires the cache to exist.
                        (true, None) => unreachable!("RT fill without an RT cache"),
                        (false, _) => shard.l1.fill(line),
                    };
                    for waiter in waiters {
                        self.events.push(
                            now + self.l1_latency,
                            Event::Done {
                                sm: sm_idx as u32,
                                waiter,
                            },
                        );
                    }
                }
                Event::Done { sm, waiter } => {
                    done.push((sm as usize, waiter));
                }
            }
        }

        // Ports present after the drain, so this cycle's fills count. What
        // they schedule lands in later cycles (or, at zero latency, is
        // drained late by the next tick, as an SM's own access would be).
        for sm in 0..self.shards.len() {
            self.present_port(sm, now);
        }
    }

    /// Returns `true` when no request is in flight or waiting anywhere.
    pub fn quiescent(&self) -> bool {
        self.events.is_empty()
            && self.dram.iter().all(|d| d.queue_len() == 0)
            && self.shards.iter().all(L1Shard::port_idle)
    }

    /// The earliest future cycle at which [`MemorySystem::tick`] can do any
    /// work, or `None` when the hierarchy is quiescent.
    ///
    /// Three sources of future activity exist, all expressed as absolute
    /// cycles: an L1 port whose head the cache could accept (`now + 1`),
    /// the event queue (interconnect hops, fills, completions, L2 retries)
    /// and each DRAM channel's next possible FR-FCFS service
    /// ([`DramChannel::next_service_cycle`]). A port whose heads the cache
    /// rejects waits for a fill, which the event queue already schedules.
    /// Ticking strictly between `now` and the returned cycle changes
    /// nothing but the rejected presentations the port replays in bulk,
    /// which is what licenses the event-driven loop to skip those cycles.
    /// Call only after `tick(now)` and after the SMs have queued this
    /// cycle's lines; the result is clamped to `now + 1` so the caller
    /// always advances.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self
            .shards
            .iter()
            .any(|s| !s.port_idle() && !s.port_blocked)
        {
            return Some(now + 1);
        }
        let mut next = self.events.next_cycle();
        for d in &self.dram {
            next = match (next, d.next_service_cycle()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        next.map(|t| t.max(now + 1))
    }

    fn bank_of(&self, line: u64) -> usize {
        (line % self.l2_banks.len() as u64) as usize
    }

    fn channel_of(&self, line: u64) -> usize {
        (line % self.dram.len() as u64) as usize
    }

    /// Aggregated statistics across all components.
    pub fn stats(&self) -> MemoryStats {
        let mut l1 = CacheStats::default();
        let mut rt_cache = CacheStats::default();
        let mut lsu_accesses = 0;
        let mut rt_accesses = 0;
        for shard in &self.shards {
            let s = shard.l1.stats();
            l1.hits += s.hits;
            l1.mshr_hits += s.mshr_hits;
            l1.misses += s.misses;
            l1.mshr_stalls += s.mshr_stalls;
            if let Some(rt) = &shard.rt_cache {
                let s = rt.stats();
                rt_cache.hits += s.hits;
                rt_cache.mshr_hits += s.mshr_hits;
                rt_cache.misses += s.misses;
                rt_cache.mshr_stalls += s.mshr_stalls;
            }
            lsu_accesses += shard.lsu_accesses;
            rt_accesses += shard.rt_accesses;
        }
        let mut l2 = CacheStats::default();
        for c in &self.l2_banks {
            let s = c.stats();
            l2.hits += s.hits;
            l2.mshr_hits += s.mshr_hits;
            l2.misses += s.misses;
            l2.mshr_stalls += s.mshr_stalls;
        }
        let mut dram = DramStats::default();
        for d in &self.dram {
            let s = d.stats();
            dram.accesses += s.accesses;
            dram.row_hits += s.row_hits;
            dram.activations += s.activations;
        }
        MemoryStats {
            l1_lsu_accesses: lsu_accesses,
            l1_rt_accesses: rt_accesses,
            l1,
            rt_cache,
            l2,
            dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn run_until_done(mem: &mut MemorySystem, expect: usize, max: u64) -> Vec<(u64, usize, u64)> {
        let mut done = Vec::new();
        let mut out = Vec::new();
        for now in 0..max {
            done.clear();
            mem.tick(now, &mut done);
            for &(sm, w) in &done {
                out.push((now, sm, w));
            }
            if out.len() >= expect && mem.quiescent() {
                break;
            }
        }
        out
    }

    #[test]
    fn l1_hit_latency() {
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        // Warm the line (miss then fill).
        assert_eq!(
            mem.access(0, 7, 1, Requester::Lsu, 0),
            AccessOutcome::Accepted
        );
        let first = run_until_done(&mut mem, 1, 100_000);
        assert_eq!(first.len(), 1);
        let miss_done = first[0].0;
        assert!(
            miss_done > cfg.l1_latency + cfg.l2_latency / 2,
            "miss was too fast"
        );

        // Second access hits.
        let t0 = miss_done + 1;
        assert_eq!(
            mem.access(0, 7, 2, Requester::Lsu, t0),
            AccessOutcome::Accepted
        );
        let mut done = Vec::new();
        for now in t0..t0 + cfg.l1_latency + 2 {
            done.clear();
            mem.tick(now, &mut done);
            if !done.is_empty() {
                assert_eq!(now, t0 + cfg.l1_latency, "hit latency mismatch");
                return;
            }
        }
        panic!(
            "hit never completed within {} cycles; quiescent={}, next_event={:?}",
            cfg.l1_latency + 2,
            mem.quiescent(),
            mem.next_event(t0 + cfg.l1_latency + 2),
        );
    }

    #[test]
    fn shared_l2_serves_second_sm_without_dram() {
        let cfg = GpuConfig::small();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 42, 1, Requester::Lsu, 0);
        run_until_done(&mut mem, 1, 100_000);
        let dram_before = mem.stats().dram.accesses;
        // A different SM misses its L1 but hits in L2.
        mem.access(1, 42, 2, Requester::Lsu, 10_000);
        let mut done = Vec::new();
        for now in 10_000..20_000 {
            done.clear();
            mem.tick(now, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(
            mem.stats().dram.accesses,
            dram_before,
            "L2 hit must not touch DRAM"
        );
        assert_eq!(mem.stats().l2.hits, 1);
    }

    #[test]
    fn requester_accounting() {
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 1, 1, Requester::Lsu, 0);
        mem.access(0, 2, 2, Requester::RtUnit, 1);
        mem.store(0, 3, Requester::Lsu);
        let s = mem.stats();
        assert_eq!(s.l1_lsu_accesses, 2);
        assert_eq!(s.l1_rt_accesses, 1);
    }

    #[test]
    fn next_event_predicts_every_productive_tick() {
        // Differential pin of the hierarchy's next_event contract: drive a
        // burst of misses to completion cycle by cycle and assert that every
        // tick that delivered a completion (or was needed to make progress)
        // lands exactly on a predicted cycle, and that predicted idle gaps
        // deliver nothing.
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        for (i, line) in [0u64, 7, 7, 129, 4096].into_iter().enumerate() {
            assert_eq!(
                mem.access(0, line, i as u64, Requester::Lsu, 0),
                AccessOutcome::Accepted
            );
        }
        let mut done = Vec::new();
        let mut now = 0u64;
        mem.tick(now, &mut done);
        while !mem.quiescent() {
            let next = mem
                .next_event(now)
                .expect("non-quiescent hierarchy must report a next event");
            assert!(next > now, "next_event must advance ({next} <= {now})");
            let before = done.len();
            for t in now + 1..next {
                mem.tick(t, &mut done);
                assert_eq!(done.len(), before, "completion inside skipped gap at {t}");
            }
            mem.tick(next, &mut done);
            now = next;
        }
        assert_eq!(mem.next_event(now), None, "quiescent => no next event");
        let mut waiters: Vec<u64> = done.iter().map(|&(_, w)| w).collect();
        waiters.sort_unstable();
        assert_eq!(waiters, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn next_event_sees_l1_hit_latency() {
        // A pure L1 hit's Done event is the only future activity: next_event
        // must report exactly now + l1_latency.
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 3, 1, Requester::Lsu, 0);
        let mut done = Vec::new();
        let mut now = 0;
        while !mem.quiescent() {
            mem.tick(now, &mut done);
            now += 1;
        }
        done.clear();
        let t0 = now + 100;
        mem.access(0, 3, 2, Requester::Lsu, t0);
        assert_eq!(mem.next_event(t0), Some(t0 + cfg.l1_latency));
        mem.tick(t0 + cfg.l1_latency, &mut done);
        assert_eq!(done, vec![(0, 2)]);
    }

    #[test]
    fn mshr_merge_completes_all_waiters() {
        let cfg = GpuConfig::tiny();
        let mut mem = MemorySystem::new(&cfg);
        mem.access(0, 9, 1, Requester::Lsu, 0);
        mem.access(0, 9, 2, Requester::Lsu, 1);
        mem.access(0, 9, 3, Requester::RtUnit, 2);
        let done = run_until_done(&mut mem, 3, 100_000);
        let mut waiters: Vec<u64> = done.iter().map(|&(_, _, w)| w).collect();
        waiters.sort_unstable();
        assert_eq!(waiters, vec![1, 2, 3]);
        // One DRAM access despite three waiters.
        assert_eq!(mem.stats().dram.accesses, 1);
    }

    /// One step of a queue workout: push `(cycle offset, event)` pairs,
    /// then drain the next cycle, feeding `echo` pushes back in while it
    /// drains.
    #[derive(Debug, Clone)]
    struct Step {
        pushes: Vec<(i64, Event)>,
        advance: u64,
        echo: Vec<(u64, Event)>,
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        prop_oneof![
            (0u32..3, 0u64..6).prop_map(|(sm, line)| Event::L2Arrive { sm, line }),
            (0u64..6).prop_map(|line| Event::L2Fill { line }),
            (0u32..3, 0u64..6).prop_map(|(sm, line)| Event::L1Fill { sm, line }),
            (0u32..3, 0u64..6).prop_map(|(sm, waiter)| Event::Done { sm, waiter }),
        ]
    }

    /// Offsets relative to the current cycle: negative = late (already
    /// drained), small = inside the ring, large = overflow heap.
    fn arb_offset() -> impl Strategy<Value = i64> {
        prop_oneof![-40i64..0, 0i64..4, 0i64..600, 400i64..3000]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (
            prop::collection::vec((arb_offset(), arb_event()), 0..8),
            prop_oneof![1u64..3, 0u64..700],
            prop::collection::vec((0u64..3, arb_event()), 0..4),
        )
            .prop_map(|(pushes, advance, echo)| Step {
                pushes,
                advance,
                echo,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn event_queue_drains_in_binary_heap_order(
            steps in prop::collection::vec(arb_step(), 1..40),
        ) {
            let mut queue = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, Event)>> = BinaryHeap::new();
            let mut now = 0u64;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let push = |q: &mut EventQueue<Event>, h: &mut BinaryHeap<_>, at, e| {
                q.push(at, e);
                h.push(Reverse((at, e)));
            };
            for step in &steps {
                for &(offset, event) in &step.pushes {
                    let at = now.saturating_add_signed(offset);
                    push(&mut queue, &mut heap, at, event);
                }
                prop_assert_eq!(
                    queue.next_cycle(),
                    heap.peek().map(|Reverse((at, _))| *at)
                );
                now += step.advance;
                // Drain both; each popped event may schedule an echo at
                // `now + d` (d = 0: a same-cycle push during the drain).
                let mut echoes = step.echo.iter();
                while let Some((at, event)) = queue.pop_due(now) {
                    got.push((at, event));
                    if let Some(&(d, e)) = echoes.next() {
                        queue.push(now + d, e);
                    }
                }
                let mut echoes = step.echo.iter();
                while heap.peek().is_some_and(|Reverse((at, _))| *at <= now) {
                    let Some(Reverse(item)) = heap.pop() else { break };
                    want.push(item);
                    if let Some(&(d, e)) = echoes.next() {
                        heap.push(Reverse((now + d, e)));
                    }
                }
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(queue.is_empty(), heap.is_empty());
                now += 1;
            }
            // Flush everything left, far in the future.
            let end = now + 10_000;
            while let Some(item) = queue.pop_due(end) {
                got.push(item);
            }
            while let Some(Reverse(item)) = heap.pop() {
                want.push(item);
            }
            prop_assert_eq!(got, want);
            prop_assert!(queue.is_empty());
        }
    }

    /// One line queued at the port: `(gap in cycles since the previous
    /// one, SM, RT side, line)`.
    type Enqueue = (u64, usize, bool, u64);

    fn arb_stream() -> impl Strategy<Value = Vec<Enqueue>> {
        // Mostly back to back, sometimes a long idle gap.
        let gap = (0u8..10, 0u64..400).prop_map(|(roll, gap)| if roll < 8 { gap % 3 } else { gap });
        prop::collection::vec((gap, 0usize..2, any::<bool>(), 0u64..48), 1..120)
    }

    /// Plays `stream` on a two-SM machine with two MSHRs per cache. The
    /// stepped run visits every cycle; the other visits only the cycles
    /// `next_event` names (and those lines are queued at, as an SM ticks
    /// there). Returns every completion `(cycle, sm, waiter)`, the
    /// statistics and each port's round-robin token.
    fn play_port(
        policy: RtCachePolicy,
        stream: &[Enqueue],
        stepped: bool,
    ) -> (Vec<(u64, usize, u64)>, MemoryStats, Vec<bool>) {
        let cfg = GpuConfig {
            num_sms: 2,
            l1_mshrs: 2,
            rt_cache: policy,
            ..GpuConfig::tiny()
        };
        let mut mem = MemorySystem::new(&cfg);
        let mut at = 0;
        let queued: Vec<(u64, usize, Requester, u64)> = stream
            .iter()
            .map(|&(gap, sm, rt, line)| {
                at += gap;
                let requester = if rt {
                    Requester::RtUnit
                } else {
                    Requester::Lsu
                };
                (at, sm, requester, line)
            })
            .collect();
        let (mut done, mut completions) = (Vec::new(), Vec::new());
        let (mut now, mut next) = (0, 0);
        loop {
            done.clear();
            mem.tick(now, &mut done);
            completions.extend(done.iter().map(|&(sm, waiter)| (now, sm, waiter)));
            while let Some(&(cycle, sm, requester, line)) = queued.get(next) {
                if cycle != now {
                    break;
                }
                mem.enqueue(sm, line, next as u64, requester, now);
                next += 1;
            }
            if next == queued.len() && mem.quiescent() {
                break;
            }
            let upcoming = queued.get(next).map(|q| q.0);
            now = if stepped {
                now + 1
            } else {
                mem.next_event(now)
                    .into_iter()
                    .chain(upcoming)
                    .min()
                    .expect("a waiting line with no future event")
            };
            assert!(now < 10_000_000, "the port never drained");
        }
        let tokens = mem.shards.iter().map(|s| s.port_prefers_rt).collect();
        (completions, mem.stats(), tokens)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A port presented every cycle and one presented only on the
        /// cycles `next_event` visits, with the skipped cycles replayed as
        /// rejected presentations, agree on every completion and its cycle,
        /// every statistic and the round-robin token, under each policy.
        #[test]
        fn port_skipping_cycles_matches_the_stepped_port(stream in arb_stream()) {
            for policy in [
                RtCachePolicy::SharedWithLsu,
                RtCachePolicy::Private { bytes: 4096 },
                RtCachePolicy::Bypass,
            ] {
                let stepped = play_port(policy, &stream, true);
                let skipping = play_port(policy, &stream, false);
                prop_assert_eq!(&skipping, &stepped, "{:?}", policy);
                prop_assert_eq!(stepped.0.len(), stream.len());
            }
        }
    }

    #[test]
    fn rejected_head_stays_at_the_front() {
        // One MSHR: line 1 misses, then line 2 (queued first) is rejected
        // until the fill, and line 3 waits behind it.
        let cfg = GpuConfig {
            l1_mshrs: 1,
            ..GpuConfig::tiny()
        };
        let mut mem = MemorySystem::new(&cfg);
        assert_eq!(
            mem.access(0, 1, 10, Requester::Lsu, 0),
            AccessOutcome::Accepted
        );
        mem.enqueue(0, 2, 20, Requester::RtUnit, 0);
        mem.enqueue(0, 3, 30, Requester::RtUnit, 0);
        let mut done = Vec::new();
        let mut order = Vec::new();
        let mut now = 1;
        while order.len() < 3 {
            done.clear();
            mem.tick(now, &mut done);
            order.extend(done.iter().map(|&(_, w)| w));
            if mem.stats().l1.misses == 1 {
                assert_eq!(mem.port_depths(0), (0, 2), "rejected head left the FIFO");
            }
            now += 1;
        }
        assert_eq!(order, vec![10, 20, 30]);
        assert!(mem.stats().l1.mshr_stalls > 0);
    }
}
