//! Timing model of the per-SM RT/HSU unit (paper Fig. 4).
//!
//! One unit serves the SM's four sub-cores. A dispatched HSU warp instruction
//! occupies a warp-buffer entry while each active lane's CISC fetch drains
//! through the FIFO memory-access queue (which time-shares the L1 port with
//! the load-store unit); once every lane's operands arrive, the single-lane
//! datapath consumes one lane-beat per cycle. When all lanes complete, the
//! result buffer writes back and the owning warp resumes.
//!
//! Multi-beat distance sequences are dispatched as one buffered instruction
//! whose lanes carry `ceil(dim / width)` beats each — the timing-equivalent
//! of the ISA's chained accumulate instructions under the paper's §IV-F
//! ordering rule (the arbiter lock simply means no other warp's beats may
//! interleave, which holding the warp-buffer entry through all beats
//! enforces).

use std::collections::VecDeque;

use hsu_core::arbiter::SubCoreArbiter;
use hsu_core::pipeline::{DatapathPipeline, OperatingMode, PipelineStats};
use hsu_core::warp_buffer::{EntryId, WarpBuffer, WARP_WIDTH};
use hsu_core::HsuConfig;

use crate::error::SimError;
use crate::trace::{lanes_of, ThreadOp};

/// A pending CISC fetch: one unique cache line needed by one or more lanes
/// of a warp-buffer entry. Identical lane fetches are coalesced at dispatch
/// (the CISC analogue of LSU coalescing, §VI-J).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoRequest {
    /// Warp-buffer entry.
    pub entry: EntryId,
    /// Index into the entry's coalesced-request table.
    pub req: usize,
    /// Cache line to fetch.
    pub line: u64,
}

/// Statistics of one RT/HSU unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RtUnitStats {
    /// Warp instructions dispatched into the warp buffer.
    pub warp_instructions: u64,
    /// ISA-level HSU instructions (beats count individually, as the compiler
    /// emits them).
    pub isa_instructions: u64,
    /// Sum of warp-buffer occupancy sampled each cycle (for averages).
    pub occupancy_sum: u64,
    /// Highest warp-buffer occupancy observed in any cycle.
    pub occupancy_peak: u64,
    /// Cycles the unit existed.
    pub cycles: u64,
    /// Dispatches rejected because the warp buffer was full.
    pub dispatch_stalls: u64,
    /// Datapath pipeline statistics.
    pub pipeline: PipelineStats,
}

impl RtUnitStats {
    /// Mean warp-buffer occupancy.
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.cycles as f64
        }
    }
}

/// Per-lane bookkeeping inside a warp-buffer entry.
#[derive(Debug, Clone, Copy, Default)]
struct LaneState {
    /// Outstanding memory lines.
    pending_lines: u32,
    /// Datapath beats not yet issued.
    beats_to_issue: u32,
    /// Datapath beats not yet completed.
    beats_in_flight: u32,
    /// Operating mode of this lane's beats.
    mode: Option<OperatingMode>,
}

/// Operating mode, beat count and fetch footprint `(mode, beats, addr,
/// bytes)` of a lane's op.
///
/// Non-HSU ops are a dispatch-routing violation (a malformed trace or a
/// scheduler bug) and surface as [`SimError::IllegalDispatch`].
fn lane_plan(cfg: &HsuConfig, op: &ThreadOp) -> Result<(OperatingMode, u32, u64, u64), SimError> {
    match *op {
        ThreadOp::HsuRayIntersect {
            node_addr,
            bytes,
            triangle,
        } => {
            let mode = if triangle {
                OperatingMode::RayTriangle
            } else {
                OperatingMode::RayBox
            };
            Ok((mode, 1, node_addr, bytes as u64))
        }
        ThreadOp::HsuDistance {
            metric,
            dim,
            candidate_addr,
        } => {
            let beats = cfg.beats_for(metric, dim as usize) as u32;
            let mode = match metric {
                hsu_geometry::point::Metric::Euclidean => OperatingMode::Euclid,
                hsu_geometry::point::Metric::Angular => OperatingMode::Angular,
            };
            Ok((mode, beats, candidate_addr, dim as u64 * 4))
        }
        ThreadOp::HsuKeyCompare {
            node_addr,
            separators,
        } => {
            let beats = cfg.key_compare_instructions(separators as usize) as u32;
            Ok((
                OperatingMode::KeyCompare,
                beats,
                node_addr,
                separators as u64 * 4,
            ))
        }
        ref other => Err(SimError::IllegalDispatch {
            detail: format!("non-HSU op dispatched to the RT unit: {other:?}"),
        }),
    }
}

/// The RT/HSU unit of one SM.
#[derive(Debug)]
pub struct RtUnit {
    cfg: HsuConfig,
    warp_buffer: WarpBuffer,
    /// Which warp owns each entry (for resume notification).
    entry_owner: Vec<Option<usize>>,
    lane_state: Vec<[LaneState; WARP_WIDTH]>,
    arbiter: SubCoreArbiter,
    /// All-false accumulate bits for the arbiter (sized once).
    no_accumulate: Vec<bool>,
    pipeline: DatapathPipeline,
    fifo: VecDeque<FifoRequest>,
    /// Per-entry coalesced fetch table: `(line, lane mask)`.
    entry_requests: Vec<Vec<(u64, u32)>>,
    /// Entry currently being drained into the datapath (sticky, so beat
    /// sequences never interleave with other warps — the accumulate lock).
    draining: Option<EntryId>,
    completed_warps: Vec<usize>,
    stats: RtUnitStats,
}

impl RtUnit {
    /// Creates a unit for `sub_cores` schedulers.
    pub fn new(cfg: HsuConfig, sub_cores: usize) -> Self {
        let entries = cfg.warp_buffer_entries;
        RtUnit {
            cfg,
            warp_buffer: WarpBuffer::new(entries),
            entry_owner: vec![None; entries],
            lane_state: vec![[LaneState::default(); WARP_WIDTH]; entries],
            arbiter: SubCoreArbiter::new(sub_cores),
            no_accumulate: vec![false; sub_cores],
            pipeline: DatapathPipeline::new(),
            fifo: VecDeque::new(),
            entry_requests: vec![Vec::new(); entries],
            draining: None,
            completed_warps: Vec::new(),
            stats: RtUnitStats::default(),
        }
    }

    /// The unit's HSU configuration.
    pub fn config(&self) -> &HsuConfig {
        &self.cfg
    }

    /// Whether the instruction is legal on this unit (the baseline RT unit
    /// rejects the HSU extensions).
    pub fn supports(&self, op: &ThreadOp) -> bool {
        match op {
            ThreadOp::HsuRayIntersect { .. } => true,
            ThreadOp::HsuDistance { .. } | ThreadOp::HsuKeyCompare { .. } => {
                self.cfg.hsu_extensions
            }
            _ => false,
        }
    }

    /// Arbitrates among sub-cores with pending HSU instructions this cycle.
    /// Returns the granted sub-core (the SM then calls
    /// [`RtUnit::dispatch`]). `requesting[i]` marks sub-cores with a ready
    /// HSU warp instruction.
    pub fn grant(&mut self, requesting: &[bool]) -> Option<usize> {
        if self.warp_buffer.is_full() {
            if requesting.iter().any(|&r| r) {
                self.stats.dispatch_stalls += 1;
            }
            return None;
        }
        self.arbiter.grant(requesting, &self.no_accumulate)
    }

    /// Dispatches a warp instruction into the warp buffer, enqueueing each
    /// active lane's line fetches. `ops` holds one op per set bit of
    /// `active_mask`, lowest lane first; `line_bytes` is the cache-line
    /// size.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] if the buffer is full (call
    /// [`RtUnit::grant`] first), an active lane carries no op, or the
    /// instruction holds non-HSU ops. Failed dispatches leave the unit's
    /// state untouched.
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
        for op in ops.iter().take(active_mask.count_ones() as usize) {
            lane_plan(&self.cfg, op)?;
        }
        if let Some(lane) = lanes_of(active_mask).nth(ops.len()) {
            return Err(SimError::IllegalDispatch {
                detail: format!("active lane {lane} without an op (mask {active_mask:#x})"),
            });
        }
        let Some(entry) = self.warp_buffer.allocate_mask(warp, sub_core, active_mask) else {
            return Err(SimError::IllegalDispatch {
                detail: "dispatch without a free warp buffer entry".to_string(),
            });
        };
        self.entry_owner[entry] = Some(warp);
        self.stats.warp_instructions += 1;

        // Set each active lane's state and gather the entry's fetch table,
        // coalescing identical lines across lanes into one request (the
        // warp-level analogue of LSU coalescing). The table keeps its
        // capacity across releases.
        let table = &mut self.entry_requests[entry];
        for (lane, op) in lanes_of(active_mask).zip(ops) {
            let (mode, beats, addr, bytes) = lane_plan(&self.cfg, op)?;
            self.stats.isa_instructions += u64::from(beats);
            let first = addr / line_bytes;
            let last = (addr + bytes.max(1) - 1) / line_bytes;
            self.lane_state[entry][lane] = LaneState {
                pending_lines: (last - first + 1) as u32,
                beats_to_issue: beats,
                beats_in_flight: beats,
                mode: Some(mode),
            };
            for line in first..=last {
                match table.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, mask)) => *mask |= 1 << lane,
                    None => table.push((line, 1 << lane)),
                }
            }
        }
        for (req, &(line, _)) in table.iter().enumerate() {
            self.fifo.push_back(FifoRequest { entry, req, line });
        }
        Ok(entry)
    }

    /// The next CISC fetch awaiting the L1 port, if any (the SM pops it when
    /// the RT unit wins the port this cycle).
    pub fn peek_fifo(&self) -> Option<FifoRequest> {
        self.fifo.front().copied()
    }

    /// Removes the request returned by [`RtUnit::peek_fifo`], or `None` when
    /// the FIFO is empty.
    pub fn pop_fifo(&mut self) -> Option<FifoRequest> {
        self.fifo.pop_front()
    }

    /// Memory requests currently queued in the fetch FIFO (deadlock
    /// diagnostics).
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// Occupied warp-buffer entries (deadlock diagnostics).
    pub fn warp_buffer_occupancy(&self) -> usize {
        self.warp_buffer.occupancy()
    }

    /// Re-inserts a request that the L1 rejected (MSHR full) at the FIFO
    /// head, preserving order.
    pub fn push_back_front(&mut self, req: FifoRequest) {
        self.fifo.push_front(req);
    }

    /// A memory response for `(entry, req)` arrived; decrements every lane
    /// that was coalesced onto the line and marks lanes valid when their
    /// last line lands.
    pub fn on_mem_response(&mut self, entry: EntryId, req: usize) {
        let (_, mask) = self.entry_requests[entry][req];
        for lane in lanes_of(mask) {
            let state = &mut self.lane_state[entry][lane];
            debug_assert!(state.pending_lines > 0, "response for satisfied lane");
            state.pending_lines -= 1;
            if state.pending_lines == 0 {
                self.warp_buffer.mark_valid(entry, lane);
            }
        }
    }

    /// Advances the datapath one cycle: issues at most one lane-beat, drains
    /// completions, and retires finished entries.
    pub fn tick(&mut self) {
        self.stats.cycles += 1;
        let occupancy = self.warp_buffer.occupancy() as u64;
        self.stats.occupancy_sum += occupancy;
        self.stats.occupancy_peak = self.stats.occupancy_peak.max(occupancy);

        // Issue stage: stick to the draining entry until fully issued.
        let entry = match self.draining {
            Some(e) if !self.warp_buffer.entry(e).fully_issued() => Some(e),
            _ => {
                self.draining = None;
                let next = self.warp_buffer.ready_entries().map(|(id, _)| id).next();
                self.draining = next;
                next
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

    /// Returns `true` when the next [`RtUnit::tick`] itself can change
    /// architectural state: beats in the datapath, an undelivered writeback,
    /// or a warp-buffer entry with issuable lanes. Pending fetches in the
    /// FIFO are deliberately *excluded* — `tick` never consumes the FIFO
    /// (the SM's L1-port arbiter does), so whether a queued fetch can make
    /// progress is the SM's question, answered against the cache state.
    pub fn advances_on_tick(&self) -> bool {
        !self.pipeline.is_empty()
            || !self.completed_warps.is_empty()
            || self.warp_buffer.ready_entries().next().is_some()
    }

    /// Returns `true` when the next cycle can change the unit's state
    /// through *any* path — the datapath advancing ([`RtUnit::
    /// advances_on_tick`]) or a queued fetch wanting the L1 port. When this
    /// is `false` the unit is externally driven: only
    /// [`RtUnit::on_mem_response`] can wake it, and the memory system's
    /// event heap owns that wakeup time.
    pub fn busy_next_cycle(&self) -> bool {
        !self.fifo.is_empty() || self.advances_on_tick()
    }

    /// Accounts `cycles` provably-idle cycles in one step, exactly as that
    /// many [`RtUnit::tick`] calls would have with no state change: elapsed
    /// cycles and warp-buffer occupancy integrate forward (entries parked on
    /// memory still occupy the buffer), and the empty pipeline ages. Queued
    /// FIFO fetches may exist — `tick` never touches them — provided the
    /// caller has established they cannot be accepted by the cache during
    /// the span (the SM accounts their per-cycle rejected probes).
    pub fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(
            !self.advances_on_tick(),
            "fast-forward across an active RT unit would skip state changes"
        );
        let occupancy = self.warp_buffer.occupancy() as u64;
        self.stats.cycles += cycles;
        self.stats.occupancy_sum += cycles * occupancy;
        // occupancy_peak needs no update: occupancy is constant across the
        // skipped span and was sampled by the last executed tick.
        self.pipeline.fast_forward(cycles);
    }

    /// Moves the warps whose HSU instruction wrote back since the last
    /// call into `out` (cleared first). The two buffers swap, so neither
    /// side allocates once both are warm.
    pub fn take_completed(&mut self, out: &mut Vec<usize>) {
        out.clear();
        std::mem::swap(out, &mut self.completed_warps);
    }

    /// Returns `true` when the unit holds no work.
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

    fn lanes_with(op: ThreadOp, mask: u32) -> Vec<ThreadOp> {
        vec![op; mask.count_ones() as usize]
    }

    fn completed(unit: &mut RtUnit) -> Vec<usize> {
        let mut out = Vec::new();
        unit.take_completed(&mut out);
        out
    }

    /// Drives the unit until `warp` completes, answering all memory requests
    /// after `mem_latency` ticks.
    fn run_to_completion(unit: &mut RtUnit, mem_latency: u64, max: u64) -> (u64, Vec<usize>) {
        let mut responses: Vec<(u64, EntryId, usize)> = Vec::new();
        let mut all_done = Vec::new();
        for now in 0..max {
            // Model a perfect-bandwidth memory of fixed latency.
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
    fn single_lane_ray_intersect_latency() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        let op = ThreadOp::HsuRayIntersect {
            node_addr: 0,
            bytes: 128,
            triangle: false,
        };
        unit.dispatch(7, 0, 1, &lanes_with(op, 1), 128).unwrap();
        let (cycles, done) = run_to_completion(&mut unit, 20, 1000);
        assert_eq!(done, vec![7]);
        // 20 (mem) + 9 (pipe) + small bookkeeping.
        assert!((25..40).contains(&cycles), "took {cycles} cycles");
        let s = unit.stats();
        assert_eq!(s.warp_instructions, 1);
        assert_eq!(s.isa_instructions, 1);
        assert_eq!(s.pipeline.completed[OperatingMode::RayBox.index()], 1);
    }

    #[test]
    fn multibeat_distance_counts_isa_instructions() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        unit.dispatch(3, 1, 1, &lanes_with(euclid_op(96), 1), 128)
            .unwrap();
        let (_, done) = run_to_completion(&mut unit, 10, 1000);
        assert_eq!(done, vec![3]);
        let s = unit.stats();
        assert_eq!(s.isa_instructions, 6, "96 dims / 16 lanes = 6 beats");
        assert_eq!(s.pipeline.completed[OperatingMode::Euclid.index()], 6);
    }

    #[test]
    fn sparse_mask_issues_only_active_lanes() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        let mask = (1 << 3) | (1 << 30);
        unit.dispatch(1, 0, mask, &lanes_with(euclid_op(16), mask), 128)
            .unwrap();
        let (_, _) = run_to_completion(&mut unit, 5, 1000);
        let s = unit.stats();
        assert_eq!(s.isa_instructions, 2, "one beat per active lane");
    }

    #[test]
    fn datapath_width_reduces_beats() {
        for (width, beats) in [(4usize, 24u64), (8, 12), (16, 6), (32, 3)] {
            let cfg = HsuConfig::default().with_euclid_width(width);
            let mut unit = RtUnit::new(cfg, 4);
            unit.dispatch(0, 0, 1, &lanes_with(euclid_op(96), 1), 128)
                .unwrap();
            run_to_completion(&mut unit, 5, 2000);
            assert_eq!(unit.stats().isa_instructions, beats, "width {width}");
        }
    }

    #[test]
    fn key_compare_chains() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        let op = ThreadOp::HsuKeyCompare {
            node_addr: 0x2000,
            separators: 255,
        };
        unit.dispatch(0, 0, 1, &lanes_with(op, 1), 128).unwrap();
        run_to_completion(&mut unit, 5, 1000);
        let s = unit.stats();
        assert_eq!(s.isa_instructions, 8, "ceil(255/36) = 8");
        assert_eq!(s.pipeline.completed[OperatingMode::KeyCompare.index()], 8);
    }

    #[test]
    fn warp_buffer_fills_and_stalls() {
        let cfg = HsuConfig::default().with_warp_buffer(2);
        let mut unit = RtUnit::new(cfg, 4);
        let op = euclid_op(16);
        assert!(unit.grant(&[true, false, false, false]).is_some());
        unit.dispatch(0, 0, 1, &lanes_with(op, 1), 128).unwrap();
        assert!(unit.grant(&[false, true, false, false]).is_some());
        unit.dispatch(1, 1, 1, &lanes_with(op, 1), 128).unwrap();
        // Buffer full: grant refuses and counts a stall.
        assert!(unit.grant(&[false, false, true, false]).is_none());
        assert_eq!(unit.stats().dispatch_stalls, 1);
    }

    #[test]
    fn baseline_rejects_extensions() {
        let unit = RtUnit::new(HsuConfig::baseline_rt(), 4);
        assert!(unit.supports(&ThreadOp::HsuRayIntersect {
            node_addr: 0,
            bytes: 128,
            triangle: false
        }));
        assert!(!unit.supports(&euclid_op(16)));
        assert!(!unit.supports(&ThreadOp::HsuKeyCompare {
            node_addr: 0,
            separators: 8
        }));
    }

    #[test]
    fn two_entries_overlap_memory_but_serialize_datapath() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        unit.dispatch(0, 0, 1, &lanes_with(euclid_op(64), 1), 128)
            .unwrap();
        unit.dispatch(1, 1, 1, &lanes_with(euclid_op(64), 1), 128)
            .unwrap();
        let (cycles, mut done) = run_to_completion(&mut unit, 50, 5000);
        done.sort_unstable();
        assert_eq!(done, vec![0, 1]);
        // Two 256-byte fetches (2+2 lines over the 1/cycle FIFO) under a
        // 50-cycle memory: overlapped, so far less than 2 full serial trips.
        assert!(cycles < 2 * (50 + 9 + 8), "no overlap: {cycles}");
    }

    #[test]
    fn busy_next_cycle_tracks_the_memory_stall_window() {
        // The next_event contract across one instruction's lifetime: busy
        // while fetches sit in the FIFO, idle (externally driven) while all
        // lanes wait on memory, busy again from response to writeback.
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        assert!(!unit.busy_next_cycle(), "fresh unit is idle");
        unit.dispatch(5, 0, 1, &lanes_with(euclid_op(16), 1), 128)
            .unwrap();
        assert!(unit.busy_next_cycle(), "fetch in FIFO wants the L1 port");
        let req = unit.pop_fifo().unwrap();
        unit.tick();
        assert!(
            !unit.busy_next_cycle(),
            "all lanes stalled on memory: only on_mem_response can wake it"
        );
        // While parked, ticks must not change any mask/queue state —
        // fast_forward relies on this.
        let occ_before = unit.warp_buffer.occupancy();
        unit.tick();
        assert_eq!(unit.warp_buffer.occupancy(), occ_before);
        unit.on_mem_response(req.entry, req.req);
        assert!(unit.busy_next_cycle(), "operands arrived: lane issuable");
        // Drain: one beat issues, then rides the pipeline to writeback.
        let mut guard = 0;
        while completed(&mut unit).is_empty() {
            assert!(
                unit.busy_next_cycle(),
                "unit with in-flight beats must stay busy"
            );
            unit.tick();
            guard += 1;
            assert!(guard < 50, "writeback never happened");
        }
        assert!(!unit.busy_next_cycle(), "drained unit is idle again");
    }

    #[test]
    fn fast_forward_matches_idle_ticks_while_parked_on_memory() {
        // Stepped mode ticks a memory-parked unit every cycle; event mode
        // calls fast_forward once. Both must leave identical statistics —
        // including occupancy integration for the parked entry.
        let build = || {
            let mut u = RtUnit::new(HsuConfig::default(), 4);
            u.dispatch(0, 0, 1, &lanes_with(euclid_op(32), 1), 128)
                .unwrap();
            while u.pop_fifo().is_some() {}
            // A skip never starts un-ticked: dispatch leaves the FIFO
            // non-empty, so the run loop always executes at least one tick
            // (sampling occupancy/peak) before the unit can report idle.
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
        assert_eq!(ticked.stats().occupancy_peak, 1);
    }

    #[test]
    fn dispatch_into_full_buffer_is_a_typed_error() {
        let cfg = HsuConfig::default().with_warp_buffer(1);
        let mut unit = RtUnit::new(cfg, 4);
        unit.dispatch(0, 0, 1, &lanes_with(euclid_op(16), 1), 128)
            .unwrap();
        let err = unit
            .dispatch(1, 1, 1, &lanes_with(euclid_op(16), 1), 128)
            .expect_err("full buffer must reject");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
        // The failed dispatch left no trace: one entry, one instruction.
        assert_eq!(unit.warp_buffer_occupancy(), 1);
        assert_eq!(unit.stats().warp_instructions, 1);
    }

    #[test]
    fn dispatch_of_non_hsu_op_is_a_typed_error_with_clean_state() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        let err = unit
            .dispatch(0, 0, 1, &lanes_with(ThreadOp::Alu { count: 4 }, 1), 128)
            .expect_err("ALU op must not reach the RT unit");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
        assert!(err.to_string().contains("non-HSU op"));
        // Plan-before-commit: nothing was allocated or counted.
        assert!(unit.idle());
        assert_eq!(unit.stats().warp_instructions, 0);
        assert_eq!(unit.fifo_len(), 0);
    }

    #[test]
    fn fifo_order_is_preserved_on_rejection() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        unit.dispatch(0, 0, 1, &lanes_with(euclid_op(64), 1), 128)
            .unwrap();
        let first = unit.peek_fifo().unwrap();
        let popped = unit.pop_fifo().unwrap();
        assert_eq!(first, popped);
        unit.push_back_front(popped);
        assert_eq!(unit.peek_fifo().unwrap(), first);
    }
}
