//! Timing model of the per-SM RT/HSU unit (paper Fig. 4).
//!
//! One unit serves the SM's four sub-cores. A dispatched HSU warp instruction
//! occupies a warp-buffer entry while each active lane's CISC fetch drains
//! through the FIFO memory-access queue (which time-shares the L1 port with
//! the load-store unit, and so lives with that port in
//! [`crate::memory::MemorySystem`]: `dispatch` hands the entry's fetches to
//! the SM, which queues them there); once every lane's operands arrive, the
//! single-lane datapath consumes one lane-beat per cycle. When all lanes
//! complete, the result buffer writes back and the owning warp resumes.
//!
//! Multi-beat distance sequences are dispatched as one buffered instruction
//! whose lanes carry `ceil(dim / width)` beats each — the timing-equivalent
//! of the ISA's chained accumulate instructions under the paper's §IV-F
//! ordering rule (the arbiter lock simply means no other warp's beats may
//! interleave, which holding the warp-buffer entry through all beats
//! enforces).

use hsu_core::arbiter::SubCoreArbiter;
use hsu_core::config::PIPELINE_DEPTH;
use hsu_core::pipeline::{DatapathPipeline, OperatingMode, PipelineStats};
use hsu_core::warp_buffer::{EntryId, WarpBuffer, WARP_WIDTH};
use hsu_core::HsuConfig;

use crate::error::SimError;
use crate::trace::{lanes_of, last_byte, ThreadOp};

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
/// scheduler bug) and surface as [`SimError::IllegalDispatch`], as does a
/// `KEY_COMPARE` over zero separators: the ISA has no such instruction
/// (`KeyNode::new` rejects an empty node), so a decoded trace that carries
/// one is malformed.
fn lane_plan(cfg: &HsuConfig, op: &ThreadOp) -> Result<(OperatingMode, u32, u64, u64), SimError> {
    let (mode, beats) = match *op {
        ThreadOp::HsuRayIntersect { triangle, .. } => {
            let mode = if triangle {
                OperatingMode::RayTriangle
            } else {
                OperatingMode::RayBox
            };
            (mode, 1)
        }
        ThreadOp::HsuDistance { metric, dim, .. } => {
            let mode = match metric {
                hsu_geometry::point::Metric::Euclidean => OperatingMode::Euclid,
                hsu_geometry::point::Metric::Angular => OperatingMode::Angular,
            };
            (mode, cfg.beats_for(metric, dim as usize) as u32)
        }
        ThreadOp::HsuKeyCompare { separators: 0, .. } => {
            return Err(SimError::IllegalDispatch {
                detail: "KEY_COMPARE over zero separators: the ISA has no empty key node"
                    .to_string(),
            })
        }
        ThreadOp::HsuKeyCompare { separators, .. } => (
            OperatingMode::KeyCompare,
            cfg.key_compare_instructions(separators as usize) as u32,
        ),
        ref other => {
            return Err(SimError::IllegalDispatch {
                detail: format!("non-HSU op dispatched to the RT unit: {other:?}"),
            })
        }
    };
    // Only HSU ops reach here, and they all fetch their operands.
    let (addr, bytes) = op.fetch().unwrap_or_default();
    Ok((mode, beats, addr, bytes))
}

/// The first and last cache line of a lane's fetch `[addr, addr + max(bytes,
/// 1))`. A fetch running past the end of the address space comes from a
/// malformed trace and surfaces as [`SimError::IllegalDispatch`].
fn fetch_lines(
    op: &ThreadOp,
    addr: u64,
    bytes: u64,
    line_bytes: u64,
) -> Result<(u64, u64), SimError> {
    let last = last_byte(addr, bytes).ok_or_else(|| SimError::IllegalDispatch {
        detail: format!("{op:?} fetches past the end of the address space"),
    })?;
    Ok((addr / line_bytes, last / line_bytes))
}

/// The RT/HSU unit of one SM.
#[derive(Debug)]
pub struct RtUnit {
    cfg: HsuConfig,
    warp_buffer: WarpBuffer,
    /// Which warp owns each entry (for resume notification).
    entry_owner: Vec<Option<usize>>,
    lane_state: Vec<[LaneState; WARP_WIDTH]>,
    /// Datapath beats not yet issued, summed over each entry's lanes.
    unissued_beats: Vec<u64>,
    arbiter: SubCoreArbiter,
    /// All-false accumulate bits for the arbiter (sized once).
    no_accumulate: Vec<bool>,
    pipeline: DatapathPipeline,
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
            unissued_beats: vec![0; entries],
            arbiter: SubCoreArbiter::new(sub_cores),
            no_accumulate: vec![false; sub_cores],
            pipeline: DatapathPipeline::new(),
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

    /// Dispatches a warp instruction into the warp buffer. `ops` holds one
    /// op per set bit of `active_mask`, lowest lane first; `line_bytes` is
    /// the cache-line size.
    ///
    /// Returns the entry and its fetches: one cache line per request, in
    /// request order, with identical lane fetches coalesced into one (the
    /// CISC analogue of LSU coalescing, §VI-J). The SM queues request `req`
    /// at its L1 port, and its response comes back through
    /// [`RtUnit::on_mem_response`]`(entry, req)`.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] if the buffer is full (call
    /// [`RtUnit::grant`] first), an active lane carries no op, the
    /// instruction holds non-HSU ops, or a lane's fetch runs past the end
    /// of the address space. Failed dispatches leave the unit's
    /// state untouched.
    pub fn dispatch(
        &mut self,
        warp: usize,
        sub_core: usize,
        active_mask: u32,
        ops: &[ThreadOp],
        line_bytes: u64,
    ) -> Result<(EntryId, impl Iterator<Item = u64> + '_), SimError> {
        // Check every active lane before committing any state, so a
        // malformed instruction cannot leave a half-dispatched entry.
        for op in ops.iter().take(active_mask.count_ones() as usize) {
            let (_, _, addr, bytes) = lane_plan(&self.cfg, op)?;
            fetch_lines(op, addr, bytes, line_bytes)?;
        }
        if let Some(lane) = lanes_of(active_mask).nth(ops.len()) {
            return Err(SimError::IllegalDispatch {
                detail: format!("active lane {lane} without an op (mask {active_mask:#x})"),
            });
        }
        let Some(entry) = self.warp_buffer.allocate(warp, sub_core, active_mask) else {
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
            self.unissued_beats[entry] += u64::from(beats);
            let (first, last) = fetch_lines(op, addr, bytes, line_bytes)?;
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
        Ok((entry, table.iter().map(|&(line, _)| line)))
    }

    /// Occupied warp-buffer entries (deadlock diagnostics).
    pub fn warp_buffer_occupancy(&self) -> usize {
        self.warp_buffer.occupancy()
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

    /// Whether the response for `(entry, req)` completes the entry's
    /// operands, making it ready for the datapath. A response that leaves
    /// some active lane still waiting changes only the entry's valid mask,
    /// which no [`RtUnit::tick`] reads before the operands are complete —
    /// so it can be applied early without changing what the unit does.
    /// Read-only; call before [`RtUnit::on_mem_response`].
    pub fn response_completes_operands(&self, entry: EntryId, req: usize) -> bool {
        let (Some(e), Some(&(_, mask))) = (
            self.warp_buffer.get(entry),
            self.entry_requests.get(entry).and_then(|t| t.get(req)),
        ) else {
            return true; // misrouted: let on_mem_response surface it
        };
        let arriving = lanes_of(mask)
            .filter(|&lane| self.lane_state[entry][lane].pending_lines == 1)
            .fold(0u32, |m, lane| m | 1 << lane);
        (e.valid_mask | arriving) & e.active_mask == e.active_mask
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
                    self.unissued_beats[entry] -= 1;
                    if state.beats_to_issue == 0 {
                        self.warp_buffer.mark_issued(entry, lane);
                    }
                }
            }
        }

        // Completion stage. At most one beat leaves the pipeline per cycle,
        // so at most one entry can become writeback-ready: it retires in
        // the same cycle.
        let Some(done) = self.pipeline.tick() else {
            return;
        };
        let entry = (done.tag >> 8) as usize;
        let lane = (done.tag & 0xff) as usize;
        let state = &mut self.lane_state[entry][lane];
        state.beats_in_flight -= 1;
        if state.beats_in_flight > 0 {
            return;
        }
        self.warp_buffer.mark_completed(entry, lane);
        if !self.warp_buffer.entry(entry).writeback_ready() {
            return;
        }

        // Writeback stage.
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

    /// Returns `true` when the next [`RtUnit::tick`] itself can change
    /// internal state: beats in the datapath, an undelivered writeback, or
    /// a warp-buffer entry with issuable lanes. Fetches still waiting at
    /// the L1 port are the memory system's to present.
    fn advances_on_tick(&self) -> bool {
        !self.pipeline.is_empty()
            || !self.completed_warps.is_empty()
            || self.warp_buffer.ready_entries().next().is_some()
    }

    /// Returns `true` when no warp-buffer entry is free: every
    /// [`RtUnit::grant`] refuses (and counts a dispatch stall) until the next
    /// writeback.
    pub fn buffer_full(&self) -> bool {
        self.warp_buffer.is_full()
    }

    /// A lower bound on the cycle of the unit's next writeback — the only
    /// datapath event its SM can observe — given that the last
    /// [`RtUnit::tick`] ran at cycle `now`:
    ///
    /// * a fully issued entry writes back when its last in-flight beat
    ///   leaves the pipeline (exact);
    /// * an operand-ready entry with `R` beats still to issue writes back no
    ///   earlier than `now + R + PIPELINE_DEPTH - 1` (exact for the entry
    ///   being drained, whose beats issue one per cycle);
    /// * an entry still waiting on operands gives no bound: the response
    ///   that completes its operands wakes the SM
    ///   ([`RtUnit::response_completes_operands`]).
    ///
    /// `None` when no entry can write back without a memory response first.
    pub fn next_release(&self, now: u64) -> Option<u64> {
        self.warp_buffer
            .iter()
            .filter_map(|(id, entry)| {
                if entry.fully_issued() {
                    // Internal invariant: a fully issued entry that has not
                    // written back still has a beat in the pipeline; `1`
                    // keeps the bound sound regardless.
                    let left = self
                        .pipeline
                        .ticks_until_drained(|tag| (tag >> 8) as usize == id)
                        .unwrap_or(1);
                    Some(now + left)
                } else if entry.operands_ready() {
                    Some(now + self.unissued_beats[id] + PIPELINE_DEPTH as u64 - 1)
                } else {
                    None
                }
            })
            .min()
    }

    /// Accounts `cycles` cycles in which the SM cannot observe the unit,
    /// exactly as that many [`RtUnit::tick`] calls would: the datapath
    /// ticks cycle by cycle while it has beats in flight or an entry ready
    /// to issue, then the remaining idle span is integrated in one step
    /// (elapsed cycles, occupancy of entries parked on memory, the empty
    /// pipeline's age). The caller guarantees that no writeback falls
    /// inside the span ([`RtUnit::next_release`]); a fetch the L1 port
    /// accepts during it changes nothing here until its response arrives.
    pub fn advance(&mut self, cycles: u64) {
        let mut left = cycles;
        while left > 0 && self.advances_on_tick() {
            self.tick();
            left -= 1;
        }
        debug_assert!(
            self.completed_warps.is_empty(),
            "a writeback fell inside a skipped window"
        );
        if left > 0 {
            // Occupancy is constant across the window: no dispatch, no
            // writeback.
            let occupancy = self.warp_buffer.occupancy() as u64;
            self.stats.cycles += left;
            self.stats.occupancy_sum += left * occupancy;
            self.stats.occupancy_peak = self.stats.occupancy_peak.max(occupancy);
            self.pipeline.fast_forward(left);
        }
    }

    /// Counts `cycles` refused dispatches in one step, exactly as that many
    /// [`RtUnit::grant`] calls against a full buffer would (a refusal
    /// touches nothing but this counter).
    pub fn note_dispatch_stalls(&mut self, cycles: u64) {
        debug_assert!(self.warp_buffer.is_full() || cycles == 0);
        self.stats.dispatch_stalls += cycles;
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
        self.warp_buffer.occupancy() == 0 && self.pipeline.is_empty()
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
    use hsu_core::isa::{HsuInstruction, HsuOpcode};
    use hsu_core::node::KeyNode;
    use hsu_geometry::point::Metric;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    /// The RT side of an L1 port as these tests model it: each dispatched
    /// request's `(entry, req)`, in dispatch order.
    type Fifo = VecDeque<(EntryId, usize)>;

    /// Dispatches `op` on every lane of `mask` and queues its fetches.
    fn dispatch_into(
        unit: &mut RtUnit,
        fifo: &mut Fifo,
        warp: usize,
        sub_core: usize,
        mask: u32,
        op: ThreadOp,
    ) {
        let (entry, lines) = unit
            .dispatch(warp, sub_core, mask, &lanes_with(op, mask), 128)
            .unwrap();
        fifo.extend((0..lines.count()).map(|req| (entry, req)));
    }

    /// Drives the unit until it goes idle, taking one queued fetch per
    /// cycle and answering it after `mem_latency` ticks.
    fn run_to_completion(
        unit: &mut RtUnit,
        fifo: &mut Fifo,
        mem_latency: u64,
        max: u64,
    ) -> (u64, Vec<usize>) {
        let mut responses: Vec<(u64, EntryId, usize)> = Vec::new();
        let mut all_done = Vec::new();
        for now in 0..max {
            // Model a perfect-bandwidth memory of fixed latency.
            if let Some((entry, req)) = fifo.pop_front() {
                responses.push((now + mem_latency, entry, req));
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
        let mut fifo = Fifo::new();
        dispatch_into(&mut unit, &mut fifo, 7, 0, 1, op);
        let (cycles, done) = run_to_completion(&mut unit, &mut fifo, 20, 1000);
        assert_eq!(done, vec![7]);
        // 20 (mem) + 9 (pipe) + small bookkeeping.
        assert!((25..40).contains(&cycles), "took {cycles} cycles");
        let s = unit.stats();
        assert_eq!(s.warp_instructions, 1);
        assert_eq!(s.isa_instructions, 1);
        assert_eq!(s.pipeline.completed[OperatingMode::RayBox.index()], 1);
    }

    #[test]
    fn multi_beat_distance_counts_isa_instructions() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        let mut fifo = Fifo::new();
        dispatch_into(&mut unit, &mut fifo, 3, 1, 1, euclid_op(96));
        let (_, done) = run_to_completion(&mut unit, &mut fifo, 10, 1000);
        assert_eq!(done, vec![3]);
        let s = unit.stats();
        assert_eq!(s.isa_instructions, 6, "96 dims / 16 lanes = 6 beats");
        assert_eq!(s.pipeline.completed[OperatingMode::Euclid.index()], 6);
    }

    #[test]
    fn sparse_mask_issues_only_active_lanes() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        let mask = (1 << 3) | (1 << 30);
        let mut fifo = Fifo::new();
        dispatch_into(&mut unit, &mut fifo, 1, 0, mask, euclid_op(16));
        run_to_completion(&mut unit, &mut fifo, 5, 1000);
        let s = unit.stats();
        assert_eq!(s.isa_instructions, 2, "one beat per active lane");
    }

    #[test]
    fn datapath_width_reduces_beats() {
        for (width, beats) in [(4usize, 24u64), (8, 12), (16, 6), (32, 3)] {
            let cfg = HsuConfig::default().with_euclid_width(width);
            let mut unit = RtUnit::new(cfg, 4);
            let mut fifo = Fifo::new();
            dispatch_into(&mut unit, &mut fifo, 0, 0, 1, euclid_op(96));
            run_to_completion(&mut unit, &mut fifo, 5, 2000);
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
        let mut fifo = Fifo::new();
        dispatch_into(&mut unit, &mut fifo, 0, 0, 1, op);
        run_to_completion(&mut unit, &mut fifo, 5, 1000);
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
        dispatch_into(&mut unit, &mut Fifo::new(), 0, 0, 1, op);
        assert!(unit.grant(&[false, true, false, false]).is_some());
        dispatch_into(&mut unit, &mut Fifo::new(), 1, 1, 1, op);
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
        let mut fifo = Fifo::new();
        dispatch_into(&mut unit, &mut fifo, 0, 0, 1, euclid_op(64));
        dispatch_into(&mut unit, &mut fifo, 1, 1, 1, euclid_op(64));
        let (cycles, mut done) = run_to_completion(&mut unit, &mut fifo, 50, 5000);
        done.sort_unstable();
        assert_eq!(done, vec![0, 1]);
        // Two 256-byte fetches (2+2 lines over the 1/cycle FIFO) under a
        // 50-cycle memory: overlapped, so far less than 2 full serial trips.
        assert!(cycles < 2 * (50 + 9 + 8), "no overlap: {cycles}");
    }

    #[test]
    fn advance_matches_idle_ticks_while_parked_on_memory() {
        // Stepped mode ticks a memory-parked unit every cycle; event mode
        // calls advance once. Both must leave identical statistics —
        // including occupancy integration for the parked entry.
        let build = || {
            let mut u = RtUnit::new(HsuConfig::default(), 4);
            // The fetches are taken by the port and never answered.
            dispatch_into(&mut u, &mut Fifo::new(), 0, 0, 1, euclid_op(32));
            // A skip never starts un-ticked: the dispatching SM ticks, and
            // so does its unit, sampling occupancy/peak.
            u.tick();
            u
        };
        let mut ticked = build();
        let mut skipped = build();
        assert_eq!(skipped.next_release(0), None, "parked on memory");
        for _ in 0..100 {
            ticked.tick();
        }
        skipped.advance(100);
        assert_eq!(ticked.stats(), skipped.stats());
        assert_eq!(ticked.stats().occupancy_sum, 101, "1 entry × 101 cycles");
        assert_eq!(ticked.stats().occupancy_peak, 1);
    }

    /// One cycle of a random unit workout: a dispatch attempt (`(mask,
    /// op)`, skipped while the buffer is full) and an optional fetch taken
    /// from the FIFO, whose response lands after the given latency.
    #[derive(Debug, Clone)]
    struct Cycle {
        dispatch: Option<(u32, ThreadOp)>,
        fetch_latency: Option<u64>,
    }

    fn arb_cycle() -> impl Strategy<Value = Cycle> {
        let op = prop_oneof![
            (0u64..64, any::<bool>()).prop_map(|(n, triangle)| ThreadOp::HsuRayIntersect {
                node_addr: n * 64,
                bytes: 64,
                triangle,
            }),
            (0u64..64, 1u32..65).prop_map(|(a, dim)| ThreadOp::HsuDistance {
                metric: Metric::Euclidean,
                dim,
                candidate_addr: a * 96,
            }),
            (0u64..64, 1u32..80).prop_map(|(a, separators)| ThreadOp::HsuKeyCompare {
                node_addr: a * 32,
                separators,
            }),
        ];
        let mask = prop_oneof![1u32..16, any::<u32>().prop_filter("no lanes", |&m| m != 0)];
        // ~30 % of cycles attempt a dispatch, ~70 % pop a fetch.
        (0u8..10, mask, op, 0u64..57).prop_map(|(roll, mask, op, latency)| Cycle {
            dispatch: (roll < 3).then_some((mask, op)),
            fetch_latency: (latency < 40).then_some(latency + 1),
        })
    }

    /// Plays `schedule` on a fresh unit in the SM's per-cycle order
    /// (responses, tick, fetch, dispatch) and returns it with the cycle
    /// of its last tick. Checks on the way that
    /// `response_completes_operands` predicts every response.
    fn replay(entries: usize, schedule: &[Cycle]) -> (RtUnit, u64) {
        let mut unit = RtUnit::new(HsuConfig::default().with_warp_buffer(entries), 4);
        let mut fifo = Fifo::new();
        let mut in_flight: Vec<(u64, EntryId, usize)> = Vec::new();
        for (now, cycle) in schedule.iter().enumerate() {
            let now = now as u64;
            in_flight.retain(|&(at, entry, req)| {
                if at != now {
                    return true;
                }
                let completes = unit.response_completes_operands(entry, req);
                unit.on_mem_response(entry, req);
                assert_eq!(completes, unit.warp_buffer.entry(entry).operands_ready());
                false
            });
            unit.tick();
            completed(&mut unit);
            if let Some(latency) = cycle.fetch_latency {
                if let Some((entry, req)) = fifo.pop_front() {
                    in_flight.push((now + latency, entry, req));
                }
            }
            if let Some((mask, op)) = cycle.dispatch {
                if !unit.buffer_full() {
                    dispatch_into(&mut unit, &mut fifo, now as usize, 0, mask, op);
                }
            }
        }
        (unit, schedule.len() as u64 - 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The event-mode contract of the unit after every prefix of a
        /// random dispatch/response schedule: `next_release` is never later
        /// than the first writeback a plain tick loop reaches (and `None`
        /// only when no writeback is reachable without a response), and
        /// `advance(n)` over the window before it leaves every mask, queue,
        /// pipeline stage and statistic identical to `n` ticks.
        #[test]
        fn next_release_bounds_writeback_and_advance_matches_ticks(
            entries in 1usize..5,
            schedule in prop::collection::vec(arb_cycle(), 1..80),
        ) {
            const HORIZON: u64 = 6_000;
            for len in 1..=schedule.len() {
                let (mut unit, now) = replay(entries, &schedule[..len]);
                let bound = unit.next_release(now);
                if let Some(b) = bound {
                    prop_assert!(b > now, "bound {} not after {}", b, now);
                }
                let first_writeback = (1..=HORIZON).find_map(|k| {
                    unit.tick();
                    (!completed(&mut unit).is_empty()).then_some(now + k)
                });
                match (bound, first_writeback) {
                    (Some(b), Some(w)) => prop_assert!(b <= w, "bound {} > writeback {}", b, w),
                    (None, Some(w)) => prop_assert!(false, "no bound, writeback at {}", w),
                    (Some(b), None) => prop_assert!(false, "bound {} but no writeback", b),
                    (None, None) => {}
                }
                let window = first_writeback.map_or(50, |w| w - now - 1);
                let (mut ticked, _) = replay(entries, &schedule[..len]);
                let (mut advanced, _) = replay(entries, &schedule[..len]);
                for _ in 0..window {
                    ticked.tick();
                }
                advanced.advance(window);
                prop_assert_eq!(ticked.stats(), advanced.stats());
                prop_assert!(
                    format!("{ticked:?}") == format!("{advanced:?}"),
                    "unit state diverged after advance({}) from cycle {}",
                    window,
                    now
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `lane_plan` is the timing model's reading of the HSU ISA. For any
        /// metric, dimension, separator count and datapath widths, its
        /// beats, fetch range and mode must be the instructions the ISA
        /// emits: `HsuInstruction::distance_sequence` for a distance, and
        /// one `KEY_COMPARE` per `key_compare_width` separators, each
        /// fetching what `KeyNode::fetch_bytes` says.
        #[test]
        fn lane_plan_charges_what_the_isa_emits(
            angular in any::<bool>(),
            dim in 0u32..=1024,
            separators in 0u32..=512,
            half_width in 1usize..=32,
            key_compare_width in 1usize..=64,
            addr in 0u64..1 << 40,
        ) {
            let metric = if angular { Metric::Angular } else { Metric::Euclidean };
            let cfg = HsuConfig {
                key_compare_width,
                ..HsuConfig::default().with_euclid_width(2 * half_width)
            };

            let op = ThreadOp::HsuDistance { metric, dim, candidate_addr: addr };
            let (mode, beats, plan_addr, bytes) = lane_plan(&cfg, &op).unwrap();
            let seq = HsuInstruction::distance_sequence(&cfg, metric, addr, dim as usize);
            let (opcode, isa_mode) = match metric {
                Metric::Euclidean => (HsuOpcode::PointEuclid, OperatingMode::Euclid),
                Metric::Angular => (HsuOpcode::PointAngular, OperatingMode::Angular),
            };
            prop_assert_eq!(mode, isa_mode);
            prop_assert!(seq.iter().all(|ins| ins.opcode == opcode));
            prop_assert_eq!(beats as usize, seq.len());
            prop_assert_eq!(bytes, seq.iter().map(|ins| ins.fetch_bytes).sum::<u64>());
            // The beats tile the planned fetch range [addr, addr + bytes).
            prop_assert_eq!(plan_addr, seq[0].node_ptr);
            for pair in seq.windows(2) {
                prop_assert_eq!(pair[1].node_ptr, pair[0].node_ptr + pair[0].fetch_bytes);
            }

            // No ISA instruction compares zero separators (`KeyNode::new`
            // rejects an empty node), so `lane_plan` refuses that op.
            let op = ThreadOp::HsuKeyCompare { node_addr: addr, separators };
            let plan = lane_plan(&cfg, &op);
            if separators == 0 {
                prop_assert!(
                    matches!(plan, Err(SimError::IllegalDispatch { .. })),
                    "{:?}",
                    plan
                );
            } else {
                let (mode, beats, plan_addr, bytes) = plan.unwrap();
                prop_assert_eq!(mode, OperatingMode::KeyCompare);
                prop_assert_eq!(plan_addr, addr);
                // Each KEY_COMPARE of the chain reads the node from its
                // first separator not yet compared.
                let seps: Vec<f32> = (0..separators).map(|s| s as f32).collect();
                let isa_bytes: u64 = (0..seps.len())
                    .step_by(key_compare_width)
                    .map(|lo| KeyNode::new(seps[lo..].to_vec()).fetch_bytes(key_compare_width))
                    .sum();
                prop_assert_eq!(beats as usize, seps.len().div_ceil(key_compare_width));
                prop_assert_eq!(bytes, isa_bytes);
            }
        }
    }

    #[test]
    fn dispatch_into_full_buffer_is_a_typed_error() {
        let cfg = HsuConfig::default().with_warp_buffer(1);
        let mut unit = RtUnit::new(cfg, 4);
        dispatch_into(&mut unit, &mut Fifo::new(), 0, 0, 1, euclid_op(16));
        let err = unit
            .dispatch(1, 1, 1, &lanes_with(euclid_op(16), 1), 128)
            .map(|(entry, _)| entry)
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
            .map(|(entry, _)| entry)
            .expect_err("ALU op must not reach the RT unit");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
        assert!(err.to_string().contains("non-HSU op"));
        // Plan-before-commit: nothing was allocated or counted.
        assert!(unit.idle());
        assert_eq!(unit.stats().warp_instructions, 0);
    }

    #[test]
    fn dispatch_hands_over_coalesced_fetches_in_request_order() {
        let mut unit = RtUnit::new(HsuConfig::default(), 4);
        // Three lanes reading 256 bytes (two lines) each: two share a
        // candidate, the third starts one line later. Coalesced: lines 32,
        // 33, 34.
        let op = |addr| ThreadOp::HsuDistance {
            metric: Metric::Euclidean,
            dim: 64,
            candidate_addr: addr,
        };
        let ops = [op(0x1000), op(0x1000), op(0x1080)];
        let (entry, lines) = unit.dispatch(5, 2, 0b111, &ops, 128).unwrap();
        assert_eq!(lines.collect::<Vec<_>>(), vec![32, 33, 34]);
        // Request 1 (line 33) is shared by all three lanes; request 2 only
        // by the third, so answering 0 and 1 leaves the entry short.
        assert!(!unit.response_completes_operands(entry, 0));
        unit.on_mem_response(entry, 0);
        assert!(!unit.response_completes_operands(entry, 1));
        unit.on_mem_response(entry, 1);
        assert!(unit.response_completes_operands(entry, 2));
    }
}
