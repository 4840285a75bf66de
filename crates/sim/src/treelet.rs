//! The treelet-scheduled RT-unit organization (the Haydelj/arches
//! `UnitTreeletRTCore` design, selected via
//! [`crate::config::RtCoreKind::Treelet`]).
//!
//! Where the baseline [`crate::rt_unit::RtUnit`] streams every node fetch
//! straight into the FIFO and drains warp-buffer entries in slot-scan order,
//! this organization routes node data through a small pool of
//! cache-line-sized *staging buffers*:
//!
//! * each outstanding node fetch reserves a staging buffer, so at most
//!   `staging_buffers` fetches are in flight — the FIFO presented to the
//!   SM's L1 port is throttled to the staging capacity,
//! * a landed line stays resident in its buffer until the slot is recycled,
//!   forming a tiny LRU line cache: a later dispatch whose node line is
//!   already staged is satisfied on the spot, with no memory traffic
//!   (`staging_hits`),
//! * entries whose operands are complete enter a FIFO *ray-scheduling
//!   queue*; the single-lane datapath serves the queue head to completion
//!   (preserving the §IV-F accumulate lock) before taking the next, instead
//!   of rescanning the warp buffer each cycle,
//! * each warp's walk is tracked at treelet granularity (a treelet is the
//!   staging capacity's worth of consecutive lines): `treelet_transitions`
//!   counts how often a warp's consecutive node fetches crossed into a
//!   different treelet, which the treelet-packed BVH layouts in `hsu-bvh`
//!   exist to minimize.
//!
//! The organization is *functionally* identical to the baseline — same ISA,
//! same beat counts, same typed errors with identical payloads — and obeys
//! the exact same event-driven contracts (`advances_on_tick`,
//! `fast_forward` stat integration), so both [`crate::config::SimMode`]s
//! remain bit-identical for it. Only timing and memory-traffic columns may
//! differ from the baseline; `tests/rt_organization.rs` locks that split.

use std::collections::VecDeque;

use hsu_core::arbiter::SubCoreArbiter;
use hsu_core::pipeline::DatapathPipeline;
use hsu_core::warp_buffer::{EntryId, WarpBuffer, WARP_WIDTH};
use hsu_core::HsuConfig;

use crate::error::SimError;
use crate::rt_unit::{
    check_dispatch, lane_plan, plan_lanes, unit_supports, FifoRequest, LaneState, RtUnitStats,
};
use crate::trace::{lanes_of, ThreadOp};

/// The treelet-scheduled RT/HSU unit of one SM.
#[derive(Debug)]
pub struct TreeletRtUnit {
    cfg: HsuConfig,
    /// Cache-line-sized staging buffers (bounds in-flight fetches; the pool
    /// doubles as the staged-line LRU cache).
    staging_slots: usize,
    warp_buffer: WarpBuffer,
    entry_owner: Vec<Option<usize>>,
    lane_state: Vec<[LaneState; WARP_WIDTH]>,
    arbiter: SubCoreArbiter,
    /// All-false accumulate bits for the arbiter (sized once).
    no_accumulate: Vec<bool>,
    pipeline: DatapathPipeline,
    fifo: VecDeque<FifoRequest>,
    /// Per-entry coalesced fetch table: `(line, lane mask)`.
    entry_requests: Vec<Vec<(u64, u32)>>,
    /// Fetches currently occupying a staging buffer (issued to memory, no
    /// response yet).
    in_flight_fetches: usize,
    /// Staged lines, LRU order (front = coldest). Invariant:
    /// `staged.len() + in_flight_fetches <= staging_slots`.
    staged: VecDeque<u64>,
    /// The ray-scheduling queue: operand-complete entries in the order they
    /// became ready, awaiting the datapath.
    ready_queue: VecDeque<EntryId>,
    /// Entry currently being drained into the datapath (sticky — the
    /// accumulate lock).
    draining: Option<EntryId>,
    /// Per-warp treelet of the most recent dispatch (the top of that warp's
    /// treelet stack), grown on demand.
    last_treelet: Vec<Option<u64>>,
    completed_warps: Vec<usize>,
    stats: RtUnitStats,
}

impl TreeletRtUnit {
    /// Creates a unit for `sub_cores` schedulers with `staging_slots`
    /// cache-line staging buffers.
    ///
    /// # Panics
    ///
    /// Panics if `staging_slots` is zero (rejected earlier by
    /// [`crate::config::GpuConfig::validate`]).
    pub fn new(cfg: HsuConfig, sub_cores: usize, staging_slots: usize) -> Self {
        assert!(staging_slots > 0, "treelet core needs a staging buffer");
        let entries = cfg.warp_buffer_entries;
        TreeletRtUnit {
            cfg,
            staging_slots,
            warp_buffer: WarpBuffer::new(entries),
            entry_owner: vec![None; entries],
            lane_state: vec![[LaneState::default(); WARP_WIDTH]; entries],
            arbiter: SubCoreArbiter::new(sub_cores),
            no_accumulate: vec![false; sub_cores],
            pipeline: DatapathPipeline::new(),
            fifo: VecDeque::new(),
            entry_requests: vec![Vec::new(); entries],
            in_flight_fetches: 0,
            staged: VecDeque::new(),
            ready_queue: VecDeque::new(),
            draining: None,
            last_treelet: Vec::new(),
            completed_warps: Vec::new(),
            stats: RtUnitStats::default(),
        }
    }

    /// The unit's HSU configuration.
    pub fn config(&self) -> &HsuConfig {
        &self.cfg
    }

    /// Whether the instruction is legal on this unit (same rule as the
    /// baseline organization).
    pub fn supports(&self, op: &ThreadOp) -> bool {
        unit_supports(&self.cfg, op)
    }

    /// Arbitrates among sub-cores with pending HSU instructions this cycle
    /// (identical policy to the baseline unit).
    pub fn grant(&mut self, requesting: &[bool]) -> Option<usize> {
        if self.warp_buffer.is_full() {
            if requesting.iter().any(|&r| r) {
                self.stats.dispatch_stalls += 1;
            }
            return None;
        }
        self.arbiter.grant(requesting, &self.no_accumulate)
    }

    /// Marks `line` most-recently-used in the staged pool. Returns `true`
    /// if the line was staged.
    fn touch_staged(&mut self, line: u64) -> bool {
        if let Some(pos) = self.staged.iter().position(|&l| l == line) {
            self.staged.remove(pos);
            self.staged.push_back(line);
            true
        } else {
            false
        }
    }

    /// Dispatches a warp instruction into the warp buffer. Lines already
    /// resident in a staging buffer are consumed immediately; the rest are
    /// queued for fetch.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] with payloads identical to the
    /// baseline organization's; failed dispatches leave the unit's state
    /// untouched (plan-then-commit).
    pub fn dispatch(
        &mut self,
        warp: usize,
        sub_core: usize,
        active_mask: u32,
        ops: &[ThreadOp],
        line_bytes: u64,
    ) -> Result<EntryId, SimError> {
        // Check every active lane before committing any state, so a
        // malformed instruction cannot leave a half-dispatched entry.
        check_dispatch(&self.cfg, active_mask, ops)?;
        let Some(entry) = self.warp_buffer.allocate_mask(warp, sub_core, active_mask) else {
            return Err(SimError::IllegalDispatch {
                detail: "dispatch without a free warp buffer entry".to_string(),
            });
        };
        self.entry_owner[entry] = Some(warp);
        self.stats.warp_instructions += 1;

        // Treelet stack: a treelet is the staging capacity's worth of
        // consecutive lines; note when this warp's walk crossed into a new
        // one since its previous dispatch.
        if let Some(op) = ops.first() {
            let (_, _, addr, _) = lane_plan(&self.cfg, op)?;
            let treelet_bytes = (self.staging_slots as u64 * line_bytes).max(1);
            let treelet = addr / treelet_bytes;
            if self.last_treelet.len() <= warp {
                self.last_treelet.resize(warp + 1, None);
            }
            if self.last_treelet[warp].is_some_and(|t| t != treelet) {
                self.stats.treelet_transitions += 1;
            }
            self.last_treelet[warp] = Some(treelet);
        }

        // Coalesce identical lines across lanes, as the baseline does. The
        // entry's table keeps its capacity across releases.
        let mut table = std::mem::take(&mut self.entry_requests[entry]);
        self.stats.isa_instructions += plan_lanes(
            &self.cfg,
            active_mask,
            ops,
            line_bytes,
            &mut self.lane_state[entry],
            &mut table,
        )?;
        // Staging-buffer check: lines already resident satisfy their lanes
        // immediately; the rest queue for fetch.
        for (req, &(line, mask)) in table.iter().enumerate() {
            if self.touch_staged(line) {
                self.stats.staging_hits += 1;
                for lane in lanes_of(mask) {
                    let state = &mut self.lane_state[entry][lane];
                    state.pending_lines -= 1;
                    if state.pending_lines == 0 {
                        self.warp_buffer.mark_valid(entry, lane);
                    }
                }
            } else {
                self.fifo.push_back(FifoRequest { entry, req, line });
            }
        }
        self.entry_requests[entry] = table;
        // Every line staged: the entry is ready without touching memory.
        if self.warp_buffer.entry(entry).operands_ready() {
            self.ready_queue.push_back(entry);
        }
        Ok(entry)
    }

    /// The next fetch awaiting the L1 port — `None` while every staging
    /// buffer is reserved by an in-flight fetch, even if requests are
    /// queued (the throttle that distinguishes this organization). Progress
    /// then resumes from [`TreeletRtUnit::on_mem_response`], whose wakeup
    /// the memory event heap owns, so the event-driven `next_event`
    /// contract holds.
    pub fn peek_fifo(&self) -> Option<FifoRequest> {
        if self.in_flight_fetches >= self.staging_slots {
            return None;
        }
        self.fifo.front().copied()
    }

    /// Removes the request returned by [`TreeletRtUnit::peek_fifo`],
    /// reserving a staging buffer for it (evicting the coldest staged line
    /// if the pool is full).
    pub fn pop_fifo(&mut self) -> Option<FifoRequest> {
        let req = self.peek_fifo()?;
        self.fifo.pop_front();
        self.in_flight_fetches += 1;
        if self.staged.len() + self.in_flight_fetches > self.staging_slots {
            self.staged.pop_front();
            self.stats.staging_evictions += 1;
        }
        Some(req)
    }

    /// Memory requests currently queued for fetch (deadlock diagnostics).
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// Occupied warp-buffer entries (deadlock diagnostics).
    pub fn warp_buffer_occupancy(&self) -> usize {
        self.warp_buffer.occupancy()
    }

    /// Re-inserts a request that the L1 rejected (MSHR full) at the FIFO
    /// head, releasing its staging-buffer reservation.
    pub fn push_back_front(&mut self, req: FifoRequest) {
        debug_assert!(self.in_flight_fetches > 0, "push-back without a fetch");
        self.in_flight_fetches -= 1;
        self.fifo.push_front(req);
    }

    /// A memory response for `(entry, req)` arrived: the staging buffer's
    /// line becomes resident, every coalesced lane is credited, and the
    /// entry joins the ray-scheduling queue once its operands complete.
    pub fn on_mem_response(&mut self, entry: EntryId, req: usize) {
        debug_assert!(self.in_flight_fetches > 0, "response without a fetch");
        self.in_flight_fetches -= 1;
        let (line, mask) = self.entry_requests[entry][req];
        if !self.touch_staged(line) {
            self.staged.push_back(line);
        }
        debug_assert!(
            self.staged.len() + self.in_flight_fetches <= self.staging_slots,
            "staging pool overflow"
        );
        let was_ready = self.warp_buffer.entry(entry).operands_ready();
        for lane in lanes_of(mask) {
            let state = &mut self.lane_state[entry][lane];
            debug_assert!(state.pending_lines > 0, "response for satisfied lane");
            state.pending_lines -= 1;
            if state.pending_lines == 0 {
                self.warp_buffer.mark_valid(entry, lane);
            }
        }
        if !was_ready && self.warp_buffer.entry(entry).operands_ready() {
            self.ready_queue.push_back(entry);
        }
    }

    /// Advances the datapath one cycle: issues at most one lane-beat from
    /// the ray-scheduling queue's head entry, drains completions, and
    /// retires finished entries.
    pub fn tick(&mut self) {
        self.stats.cycles += 1;
        let occupancy = self.warp_buffer.occupancy() as u64;
        self.stats.occupancy_sum += occupancy;
        self.stats.occupancy_peak = self.stats.occupancy_peak.max(occupancy);

        // Issue stage: stick to the draining entry until fully issued, then
        // take the next entry in ray-scheduling order. Entries enter the
        // queue exactly once (when their operands complete) and cannot
        // retire before draining, so the queue never holds stale ids.
        let entry = match self.draining {
            Some(e) if !self.warp_buffer.entry(e).fully_issued() => Some(e),
            _ => {
                self.draining = self.ready_queue.pop_front();
                self.draining
            }
        };
        if let Some(entry) = entry {
            if let Some(lane) = self.warp_buffer.entry(entry).next_issuable_lane() {
                let state = &mut self.lane_state[entry][lane];
                // Internal invariant: dispatch sets a mode for every active
                // lane before the lane can become issuable.
                let Some(mode) = state.mode else {
                    unreachable!("issuable lane without mode")
                };
                let tag = (entry as u64) << 8 | lane as u64;
                if self.pipeline.issue(mode, tag) {
                    state.beats_to_issue -= 1;
                    if state.beats_to_issue == 0 {
                        self.warp_buffer.mark_issued(entry, lane);
                    }
                }
            }
        }

        // Completion stage.
        if let Some(done) = self.pipeline.tick() {
            let entry = (done.tag >> 8) as usize;
            let lane = (done.tag & 0xff) as usize;
            let state = &mut self.lane_state[entry][lane];
            state.beats_in_flight -= 1;
            if state.beats_in_flight == 0 {
                self.warp_buffer.mark_completed(entry, lane);
            }
        }

        // Writeback stage: retire finished entries, lowest id first.
        for entry in 0..self.warp_buffer.capacity() {
            if !self
                .warp_buffer
                .get(entry)
                .is_some_and(|e| e.writeback_ready())
            {
                continue;
            }
            self.warp_buffer.release(entry);
            // Internal invariant: dispatch records an owner for every
            // allocated entry.
            let Some(warp) = self.entry_owner[entry].take() else {
                unreachable!("entry without owner")
            };
            self.completed_warps.push(warp);
            self.lane_state[entry] = [LaneState::default(); WARP_WIDTH];
            self.entry_requests[entry].clear();
            if self.draining == Some(entry) {
                self.draining = None;
            }
        }
    }

    /// Same contract as [`crate::rt_unit::RtUnit::advances_on_tick`]: the
    /// next tick can change architectural state. Pending fetches are
    /// excluded — the SM's port arbiter consumes them, not `tick`.
    pub fn advances_on_tick(&self) -> bool {
        !self.pipeline.is_empty()
            || !self.completed_warps.is_empty()
            || !self.ready_queue.is_empty()
            || self
                .draining
                .is_some_and(|e| !self.warp_buffer.entry(e).fully_issued())
    }

    /// Same contract as [`crate::rt_unit::RtUnit::busy_next_cycle`]. A
    /// throttled FIFO still counts as busy: its progress is gated on a
    /// response the memory event heap already owns.
    pub fn busy_next_cycle(&self) -> bool {
        !self.fifo.is_empty() || self.advances_on_tick()
    }

    /// Accounts `cycles` provably-idle cycles in one step, with statistics
    /// bit-identical to that many no-op [`TreeletRtUnit::tick`] calls (the
    /// stepped-vs-event equivalence contract).
    pub fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(
            !self.advances_on_tick(),
            "fast-forward across an active RT unit would skip state changes"
        );
        let occupancy = self.warp_buffer.occupancy() as u64;
        self.stats.cycles += cycles;
        self.stats.occupancy_sum += cycles * occupancy;
        self.pipeline.fast_forward(cycles);
    }

    /// Moves the warps whose HSU instruction wrote back since the last
    /// call into `out` (cleared first), swapping buffers so neither side
    /// allocates once both are warm.
    pub fn take_completed(&mut self, out: &mut Vec<usize>) {
        out.clear();
        std::mem::swap(out, &mut self.completed_warps);
    }

    /// Returns `true` when the unit holds no work (staged lines are cached
    /// data, not work).
    pub fn idle(&self) -> bool {
        self.warp_buffer.occupancy() == 0 && self.fifo.is_empty() && self.pipeline.is_empty()
    }

    /// Statistics snapshot (pipeline stats copied in).
    pub fn stats(&self) -> RtUnitStats {
        let mut s = self.stats.clone();
        s.pipeline = self.pipeline.stats().clone();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_geometry::point::Metric;

    fn euclid_op(dim: u32) -> ThreadOp {
        ThreadOp::HsuDistance {
            metric: Metric::Euclidean,
            dim,
            candidate_addr: 0x1000,
        }
    }

    fn ray_op(node_addr: u64) -> ThreadOp {
        ThreadOp::HsuRayIntersect {
            node_addr,
            bytes: 128,
            triangle: false,
        }
    }

    fn lanes_with(op: ThreadOp, mask: u32) -> Vec<ThreadOp> {
        vec![op; mask.count_ones() as usize]
    }

    fn completed(unit: &mut TreeletRtUnit) -> Vec<usize> {
        let mut out = Vec::new();
        unit.take_completed(&mut out);
        out
    }

    /// Drives the unit until it drains, answering all memory requests after
    /// `mem_latency` ticks.
    fn run_to_completion(
        unit: &mut TreeletRtUnit,
        mem_latency: u64,
        max: u64,
    ) -> (u64, Vec<usize>) {
        let mut responses: Vec<(u64, EntryId, usize)> = Vec::new();
        let mut all_done = Vec::new();
        for now in 0..max {
            if let Some(req) = unit.peek_fifo() {
                let _ = unit.pop_fifo();
                responses.push((now + mem_latency, req.entry, req.req));
            }
            responses.retain(|&(at, entry, req)| {
                if at == now {
                    unit.on_mem_response(entry, req);
                    false
                } else {
                    true
                }
            });
            unit.tick();
            all_done.extend(completed(unit));
            if unit.idle() && !all_done.is_empty() {
                return (now, all_done);
            }
        }
        panic!("unit never went idle; completed so far: {all_done:?}");
    }

    #[test]
    fn single_instruction_completes_with_same_isa_counts_as_baseline() {
        let mut unit = TreeletRtUnit::new(HsuConfig::default(), 4, 4);
        unit.dispatch(7, 0, 1, &lanes_with(ray_op(0), 1), 128)
            .unwrap();
        let (_, done) = run_to_completion(&mut unit, 20, 1000);
        assert_eq!(done, vec![7]);
        let s = unit.stats();
        assert_eq!(s.warp_instructions, 1);
        assert_eq!(s.isa_instructions, 1);
        assert_eq!(s.staging_hits, 0, "cold pool: the first fetch misses");
    }

    #[test]
    fn repeated_node_line_hits_the_staging_pool() {
        let mut unit = TreeletRtUnit::new(HsuConfig::default(), 4, 4);
        unit.dispatch(0, 0, 1, &lanes_with(ray_op(0x100), 1), 128)
            .unwrap();
        let (_, _) = run_to_completion(&mut unit, 10, 1000);
        // Same node line again: satisfied from the staged pool, no fetch.
        unit.dispatch(1, 0, 1, &lanes_with(ray_op(0x100), 1), 128)
            .unwrap();
        assert_eq!(unit.fifo_len(), 0, "staged line needs no fetch");
        let mut guard = 0;
        while completed(&mut unit).is_empty() {
            unit.tick();
            guard += 1;
            assert!(guard < 50, "staged dispatch never completed");
        }
        assert_eq!(unit.stats().staging_hits, 1);
    }

    #[test]
    fn fetches_throttle_to_the_staging_capacity() {
        let mut unit = TreeletRtUnit::new(HsuConfig::default(), 4, 2);
        // One entry needing 4 distinct lines (512-byte footprint).
        let op = ThreadOp::HsuDistance {
            metric: Metric::Euclidean,
            dim: 128,
            candidate_addr: 0,
        };
        unit.dispatch(0, 0, 1, &lanes_with(op, 1), 128).unwrap();
        assert_eq!(unit.fifo_len(), 4);
        // Only two fetches may be outstanding at once.
        let a = unit.pop_fifo().expect("first slot free");
        let b = unit.pop_fifo().expect("second slot free");
        assert!(unit.peek_fifo().is_none(), "pool exhausted: FIFO throttled");
        assert!(unit.pop_fifo().is_none());
        // A response frees a slot and re-exposes the queue.
        unit.on_mem_response(a.entry, a.req);
        assert!(unit.peek_fifo().is_some());
        // A rejected fetch releases its reservation too.
        let c = unit.pop_fifo().unwrap();
        assert!(unit.peek_fifo().is_none());
        unit.push_back_front(c);
        assert_eq!(unit.peek_fifo().unwrap(), c);
        unit.on_mem_response(b.entry, b.req);
    }

    #[test]
    fn ray_scheduling_queue_serves_entries_in_ready_order() {
        // Entry B's operands complete before entry A's; the queue must
        // drain B first even though A occupies the lower buffer slot.
        let mut unit = TreeletRtUnit::new(HsuConfig::default(), 4, 4);
        unit.dispatch(0, 0, 1, &lanes_with(euclid_op(16), 1), 128)
            .unwrap();
        unit.dispatch(1, 1, 1, &lanes_with(euclid_op(16), 1), 128)
            .unwrap();
        let a = unit.pop_fifo().unwrap();
        let b = unit.pop_fifo().unwrap();
        unit.on_mem_response(b.entry, b.req);
        unit.on_mem_response(a.entry, a.req);
        let mut done = Vec::new();
        let mut guard = 0;
        while done.len() < 2 {
            unit.tick();
            done.extend(completed(&mut unit));
            guard += 1;
            assert!(guard < 100, "entries never drained");
        }
        assert_eq!(done, vec![1, 0], "ready order, not slot order");
    }

    #[test]
    fn treelet_transitions_count_cross_treelet_walks() {
        let mut unit = TreeletRtUnit::new(HsuConfig::default(), 4, 4);
        // Treelet size = 4 lines × 128 B = 512 B. Two nodes inside one
        // treelet, then a jump into another.
        for addr in [0x0u64, 0x180, 0x1000] {
            unit.dispatch(0, 0, 1, &lanes_with(ray_op(addr), 1), 128)
                .unwrap();
            let (_, _) = run_to_completion(&mut unit, 5, 1000);
        }
        assert_eq!(unit.stats().treelet_transitions, 1);
        // A different warp starting fresh is not a transition.
        unit.dispatch(3, 0, 1, &lanes_with(ray_op(0x2000), 1), 128)
            .unwrap();
        run_to_completion(&mut unit, 5, 1000);
        assert_eq!(unit.stats().treelet_transitions, 1);
    }

    #[test]
    fn eviction_keeps_the_pool_bounded() {
        let mut unit = TreeletRtUnit::new(HsuConfig::default(), 4, 2);
        // Three distinct single-line fetches through a 2-slot pool.
        for (warp, addr) in [(0u64, 0x0u64), (1, 0x1000), (2, 0x2000)] {
            unit.dispatch(warp as usize, 0, 1, &lanes_with(ray_op(addr), 1), 128)
                .unwrap();
            run_to_completion(&mut unit, 5, 1000);
        }
        let s = unit.stats();
        assert!(s.staging_evictions >= 1, "third line must evict");
        // The evicted (coldest) line misses; the resident one hits.
        unit.dispatch(3, 0, 1, &lanes_with(ray_op(0x2000), 1), 128)
            .unwrap();
        assert_eq!(unit.fifo_len(), 0, "MRU line still staged");
    }

    #[test]
    fn fast_forward_matches_idle_ticks_while_parked_on_memory() {
        // The cross-mode stats-integration contract, identical to the
        // baseline unit's.
        let build = || {
            let mut u = TreeletRtUnit::new(HsuConfig::default(), 4, 4);
            u.dispatch(0, 0, 1, &lanes_with(euclid_op(32), 1), 128)
                .unwrap();
            while u.pop_fifo().is_some() {}
            u.tick();
            u
        };
        let mut ticked = build();
        let mut skipped = build();
        for _ in 0..100 {
            ticked.tick();
        }
        skipped.fast_forward(100);
        assert_eq!(ticked.stats(), skipped.stats());
        assert_eq!(ticked.stats().occupancy_sum, 101, "1 entry × 101 cycles");
    }

    #[test]
    fn dispatch_errors_match_the_baseline_payloads() {
        let mut treelet = TreeletRtUnit::new(HsuConfig::default(), 4, 4);
        let mut baseline = crate::rt_unit::RtUnit::new(HsuConfig::default(), 4);
        let bad = lanes_with(ThreadOp::Alu { count: 4 }, 1);
        let te = treelet.dispatch(0, 0, 1, &bad, 128).expect_err("non-HSU");
        let be = baseline.dispatch(0, 0, 1, &bad, 128).expect_err("non-HSU");
        assert_eq!(te.to_string(), be.to_string(), "identical error payloads");
        // Plan-before-commit: nothing was allocated or counted.
        assert!(treelet.idle());
        assert_eq!(treelet.stats().warp_instructions, 0);
        assert_eq!(treelet.fifo_len(), 0);
    }

    #[test]
    fn dispatch_into_full_buffer_is_a_typed_error() {
        let cfg = HsuConfig::default().with_warp_buffer(1);
        let mut unit = TreeletRtUnit::new(cfg, 4, 4);
        unit.dispatch(0, 0, 1, &lanes_with(euclid_op(16), 1), 128)
            .unwrap();
        let err = unit
            .dispatch(1, 1, 1, &lanes_with(euclid_op(16), 1), 128)
            .expect_err("full buffer must reject");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
        assert_eq!(unit.warp_buffer_occupancy(), 1);
    }

    #[test]
    fn baseline_rt_config_rejects_extensions() {
        let unit = TreeletRtUnit::new(HsuConfig::baseline_rt(), 4, 4);
        assert!(unit.supports(&ray_op(0)));
        assert!(!unit.supports(&euclid_op(16)));
    }
}
