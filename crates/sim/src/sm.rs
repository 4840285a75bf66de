//! The streaming multiprocessor: resident warps, GTO scheduling per
//! sub-core, the load-store path, and the shared RT/HSU unit. The L1 port
//! that the load-store unit and the RT unit's fetch FIFO share belongs to
//! the memory system ([`MemorySystem::enqueue`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::config::GpuConfig;
use crate::error::{SimError, SmDeadlockState};
use crate::memory::{MemorySystem, Requester};
use crate::rt_unit::{RtUnit, RtUnitStats};
use crate::trace::{OpClass, ThreadOp, WarpTrace};

/// Waiter-token encoding: bit 63 selects RT-unit responses.
const RT_FLAG: u64 = 1 << 63;

/// Execution state of a resident warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpStatus {
    /// May issue its next instruction.
    Ready,
    /// Blocked until a fixed cycle (ALU / shared latency).
    WaitUntil(u64),
    /// Blocked on `outstanding` memory lines.
    WaitMem(u32),
    /// Blocked on the RT/HSU unit's writeback.
    WaitHsu,
    /// Trace exhausted.
    Finished,
}

#[derive(Debug)]
struct WarpSlot<'k> {
    trace: WarpTrace<'k>,
    pc: usize,
    status: WarpStatus,
    sub_core: usize,
    /// Global program-order id (GTO's "oldest" tiebreak).
    age: u64,
}

/// Per-SM statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions issued, by class.
    pub issued: [u64; 7],
    /// Expanded instruction count (Alu/Shared runs weighted by max lane
    /// count), by class — the paper's cycle-share analysis (Fig. 7) uses
    /// these weights.
    pub issued_weighted: [u64; 7],
    /// Cycles where at least one sub-core issued.
    pub active_cycles: u64,
    /// Warps run to completion.
    pub warps_retired: u64,
}

/// One streaming multiprocessor. Its warps borrow their instruction
/// streams from the [`crate::trace::KernelTrace`] being run (lifetime
/// `'k`).
#[derive(Debug)]
pub struct Sm<'k> {
    index: usize,
    sub_cores: usize,
    max_warps: usize,
    alu_latency: u64,
    shared_latency: u64,
    line_bytes: u64,
    /// Warps waiting to become resident.
    launch_queue: VecDeque<WarpTrace<'k>>,
    warps: Vec<WarpSlot<'k>>,
    /// GTO state: last-issued warp per sub-core.
    last_issued: Vec<Option<usize>>,
    /// Issue-slot occupancy: a sub-core executing an N-instruction ALU or
    /// shared-memory run cannot issue anything else until it drains.
    sub_core_busy_until: Vec<u64>,
    rt: RtUnit,
    next_age: u64,
    /// Last cycle any sub-core issued an instruction (deadlock diagnostics'
    /// "last progress" marker; `None` until the first issue).
    last_issue_cycle: Option<u64>,
    /// Per sub-core, its issuable warps (`Ready`, trace not exhausted) as
    /// `(age, slot)`, oldest first: GTO's fallback pick is the head.
    ready: Vec<Vec<(u64, usize)>>,
    /// Per sub-core, its `WaitUntil` warps as `(wakeup, slot)`, earliest on
    /// top. A timer wait ends only by expiring, so nothing else is removed.
    timers: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
    /// `Ready` warps whose trace is exhausted: they retire at the end of
    /// this tick's issue.
    retiring: Vec<usize>,
    /// Resident slots whose warp has retired (reusable by a launch).
    finished_warps: usize,
    /// Scratch buffers reused across ticks so the per-tick hot path
    /// allocates nothing.
    scratch_picks: Vec<Option<usize>>,
    scratch_hsu: Vec<bool>,
    scratch_completed: Vec<usize>,
    coalesce_buf: Vec<u64>,
    stats: SmStats,
}

impl<'k> Sm<'k> {
    /// Creates SM `index` under `cfg`.
    pub fn new(index: usize, cfg: &GpuConfig) -> Self {
        Sm {
            index,
            sub_cores: cfg.sub_cores,
            max_warps: cfg.max_warps_per_sm,
            alu_latency: cfg.alu_latency,
            shared_latency: cfg.shared_latency,
            line_bytes: cfg.line_bytes as u64,
            launch_queue: VecDeque::new(),
            warps: Vec::new(),
            last_issued: vec![None; cfg.sub_cores],
            sub_core_busy_until: vec![0; cfg.sub_cores],
            rt: RtUnit::new(cfg.hsu.clone(), cfg.sub_cores),
            next_age: 0,
            last_issue_cycle: None,
            ready: vec![Vec::new(); cfg.sub_cores],
            timers: vec![BinaryHeap::new(); cfg.sub_cores],
            retiring: Vec::new(),
            finished_warps: 0,
            scratch_picks: Vec::new(),
            scratch_hsu: Vec::new(),
            scratch_completed: Vec::new(),
            coalesce_buf: Vec::new(),
            stats: SmStats::default(),
        }
    }

    /// Queues a warp for execution on this SM.
    pub fn enqueue_warp(&mut self, trace: WarpTrace<'k>) {
        self.launch_queue.push_back(trace);
    }

    /// Returns `true` when every warp has retired and the RT unit is idle.
    /// Lines still waiting at the L1 port are the memory system's
    /// ([`MemorySystem::quiescent`]).
    pub fn finished(&self) -> bool {
        self.launch_queue.is_empty() && self.finished_warps == self.warps.len() && self.rt.idle()
    }

    /// The earliest future cycle at which this SM's state can *observably*
    /// change without memory-side help, or `None` when it is entirely
    /// blocked on the memory system (or finished). The run loop additionally
    /// wakes a sleeping SM when a completion that [`Sm::completion_wakes`]
    /// is delivered to it — the only memory-side event that changes what
    /// this SM can observe. The lines it has queued at the L1 port are the
    /// memory system's to present ([`MemorySystem::next_event`]).
    ///
    /// The contract required by the event-driven run loop is soundness, not
    /// tightness: the returned cycle must never be *later* than the true
    /// next state change. Four refinements keep memory-, compute- and
    /// RT-bound phases skippable without breaking it:
    ///
    /// * a `Ready` warp's next issue opportunity is its sub-core's
    ///   `busy_until` (Alu/Shared runs occupy the issue slot for their full
    ///   run length), not the next cycle,
    /// * a timer wait reports `max(wakeup, sub-core free)` — waking a warp
    ///   into a busy sub-core changes only its status word, which is
    ///   unobservable until the warp can issue,
    /// * the RT unit contributes only its next writeback
    ///   ([`RtUnit::next_release`]): beats draining through the datapath
    ///   change nothing the SM reads until an entry writes back,
    /// * a sub-core whose GTO pick wants the HSU while the warp buffer is
    ///   full is blocked until that writeback, and so are the ready warps
    ///   behind its pick; each cycle it only counts a refused dispatch,
    ///   which [`Sm::fast_forward`] replays in bulk.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // Launching needs a free or finished slot; if none exists the launch
        // queue only drains after a retirement, which another event causes.
        let can_launch = !self.launch_queue.is_empty()
            && (self.warps.len() < self.max_warps || self.finished_warps > 0);
        if can_launch {
            return Some(now + 1);
        }
        let free = |sc: usize| self.sub_core_busy_until[sc].max(now + 1);
        let mut next = self.rt.next_release(now);
        let mut earliest = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        // A sub-core with a ready warp issues when it is free, unless its
        // pick can only be refused by a full warp buffer.
        let buffer_full = self.rt.buffer_full();
        for sc in 0..self.sub_cores {
            if let Some(slot) = self.gto_peek(sc) {
                if !(buffer_full && self.wants_hsu(slot)) {
                    earliest(free(sc));
                }
            }
            if let Some(&Reverse((t, _))) = self.timers[sc].peek() {
                earliest(t.max(free(sc)));
            }
        }
        next
    }

    /// Bulk-accounts the `cycles` cycles from `start` on that the SM slept
    /// through (see [`Sm::next_event`]); equivalent to `cycles` calls to
    /// [`Sm::tick`] in a state where no queue, warp, or unit can make
    /// progress the SM can observe.
    ///
    /// Two pieces of per-cycle work from the stepped oracle are replayed
    /// so both modes stay bit-identical: the RT unit advances its datapath
    /// ([`RtUnit::advance`]; no writeback falls inside the window), and a
    /// sub-core blocked on the full warp buffer counts one refused dispatch
    /// per cycle from the earliest cycle such a sub-core is free. The L1
    /// port replays its own rejected presentations.
    pub fn fast_forward(&mut self, start: u64, cycles: u64) {
        if self.rt.buffer_full() {
            // A free sub-core whose pick wants the HSU requests a dispatch
            // every cycle; `grant` refuses it, counting at most one stall
            // per cycle however many sub-cores request, and touches nothing
            // else while the buffer is full.
            let first_stall = (0..self.sub_cores)
                .filter(|&sc| self.gto_peek(sc).is_some_and(|slot| self.wants_hsu(slot)))
                .map(|sc| self.sub_core_busy_until[sc].max(start))
                .min();
            if let Some(from) = first_stall {
                self.rt
                    .note_dispatch_stalls((start + cycles).saturating_sub(from));
            }
        }
        self.rt.advance(cycles);
    }

    /// Whether delivering the completion `waiter` changes anything a tick
    /// of this SM can observe. A load line that leaves its warp still
    /// waiting on others (`WaitMem(n)` with `n >= 1` afterwards), or an RT
    /// fetch that leaves its warp-buffer entry still missing operands, only
    /// updates a counter or a valid mask that no tick reads — such a
    /// completion commutes with the cycles the SM sleeps through, so the run
    /// loop applies it on delivery without waking the SM. Read-only; call
    /// before [`Sm::on_mem_done`].
    pub fn completion_wakes(&self, waiter: u64) -> bool {
        if waiter & RT_FLAG != 0 {
            let entry = ((waiter >> 16) & 0xffff) as usize;
            let req = (waiter & 0xffff) as usize;
            self.rt.response_completes_operands(entry, req)
        } else {
            // Anything but a multi-line wait wakes (a misrouted token
            // included, so on_mem_done reports it at the usual point).
            !matches!(
                self.warps.get(waiter as usize).map(|w| w.status),
                Some(WarpStatus::WaitMem(n)) if n > 1
            )
        }
    }

    /// Handles a memory completion token.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] if the completion is routed to a warp
    /// slot that is not waiting on memory (a corrupted waiter token or a
    /// routing bug — either way the run cannot continue meaningfully).
    pub fn on_mem_done(&mut self, waiter: u64) -> Result<(), SimError> {
        if waiter & RT_FLAG != 0 {
            let entry = ((waiter >> 16) & 0xffff) as usize;
            let req = (waiter & 0xffff) as usize;
            self.rt.on_mem_response(entry, req);
        } else {
            let slot = waiter as usize;
            let warp = &mut self.warps[slot];
            if let WarpStatus::WaitMem(outstanding) = warp.status {
                let left = outstanding - 1;
                if left == 0 {
                    self.make_ready(slot);
                } else {
                    warp.status = WarpStatus::WaitMem(left);
                }
            } else {
                return Err(SimError::IllegalDispatch {
                    detail: format!(
                        "memory completion delivered to sm{} warp slot {slot}, \
                         which is not waiting on memory ({:?})",
                        self.index, warp.status
                    ),
                });
            }
        }
        Ok(())
    }

    /// Advances the SM one cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::IllegalDispatch`] if the cycle's issue stage routes an op
    /// to a unit that cannot execute it (see [`Sm::on_mem_done`] and the
    /// RT-unit dispatch path).
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) -> Result<(), SimError> {
        self.fill_resident_slots();
        self.unblock_timed_warps(now);

        // RT unit writebacks resume their warps.
        self.rt.tick();
        let mut completed = std::mem::take(&mut self.scratch_completed);
        self.rt.take_completed(&mut completed);
        for &slot in &completed {
            debug_assert_eq!(self.warps[slot].status, WarpStatus::WaitHsu);
            self.make_ready(slot);
        }
        self.scratch_completed = completed;

        self.issue(now, mem)
    }

    fn fill_resident_slots(&mut self) {
        if self.launch_queue.is_empty() {
            return;
        }
        // Reuse finished slots first, lowest first, then grow up to the
        // residency limit.
        let mut slot = 0;
        while self.finished_warps > 0 {
            if self.warps[slot].status == WarpStatus::Finished {
                let Some(trace) = self.launch_queue.pop_front() else {
                    return;
                };
                self.finished_warps -= 1;
                self.launch(slot, trace);
            }
            slot += 1;
        }
        while self.warps.len() < self.max_warps {
            let Some(trace) = self.launch_queue.pop_front() else {
                break;
            };
            self.launch(self.warps.len(), trace);
        }
    }

    /// Makes `trace` resident in `slot`: a finished slot, or the next new
    /// one. Warps are statically assigned sub-core `slot % sub_cores`.
    fn launch(&mut self, slot: usize, trace: WarpTrace<'k>) {
        let warp = WarpSlot {
            trace,
            pc: 0,
            status: WarpStatus::Ready,
            sub_core: slot % self.sub_cores,
            age: self.next_age,
        };
        self.next_age += 1;
        if slot == self.warps.len() {
            self.warps.push(warp);
        } else {
            self.warps[slot] = warp;
        }
        self.make_ready(slot);
    }

    /// Sets `slot` `Ready`: it joins its sub-core's ready set, or, with its
    /// trace exhausted, retires at the end of this tick's issue.
    fn make_ready(&mut self, slot: usize) {
        let warp = &mut self.warps[slot];
        warp.status = WarpStatus::Ready;
        if warp.pc < warp.trace.len() {
            let set = &mut self.ready[warp.sub_core];
            let at = set.partition_point(|&(age, _)| age < warp.age);
            set.insert(at, (warp.age, slot));
        } else {
            self.retiring.push(slot);
        }
    }

    fn unblock_timed_warps(&mut self, now: u64) {
        for sc in 0..self.sub_cores {
            while let Some(&Reverse((t, slot))) = self.timers[sc].peek() {
                if t > now {
                    break;
                }
                self.timers[sc].pop();
                debug_assert_eq!(self.warps[slot].status, WarpStatus::WaitUntil(t));
                self.make_ready(slot);
            }
        }
    }

    /// GTO pick for one sub-core: the last-issued warp if still ready,
    /// otherwise the oldest ready warp.
    fn gto_peek(&self, sub_core: usize) -> Option<usize> {
        if let Some(last) = self.last_issued[sub_core] {
            let w = &self.warps[last];
            if w.status == WarpStatus::Ready && w.pc < w.trace.len() {
                return Some(last);
            }
        }
        self.ready[sub_core].first().map(|&(_, slot)| slot)
    }

    /// Whether `slot`'s next instruction goes to the RT unit.
    fn wants_hsu(&self, slot: usize) -> bool {
        let w = &self.warps[slot];
        w.trace.instructions()[w.pc].class.is_hsu()
    }

    fn issue(&mut self, now: u64, mem: &mut MemorySystem) -> Result<(), SimError> {
        // The pick/request buffers live on the SM so the hot path allocates
        // nothing; a terminal error may leave them taken, which only costs
        // a fresh allocation on a run that is already dead.
        let mut picks = std::mem::take(&mut self.scratch_picks);
        let mut hsu_requests = std::mem::take(&mut self.scratch_hsu);
        let result = self.issue_inner(now, mem, &mut picks, &mut hsu_requests);
        self.scratch_picks = picks;
        self.scratch_hsu = hsu_requests;
        result
    }

    fn issue_inner(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        picks: &mut Vec<Option<usize>>,
        hsu_requests: &mut Vec<bool>,
    ) -> Result<(), SimError> {
        // Phase 1: each sub-core picks its GTO warp; note which want the HSU.
        // Sub-cores still draining an ALU/shared run issue nothing.
        picks.clear();
        hsu_requests.clear();
        for sc in 0..self.sub_cores {
            let pick = if self.sub_core_busy_until[sc] > now {
                None
            } else {
                self.gto_peek(sc)
            };
            picks.push(pick);
            hsu_requests.push(pick.is_some_and(|slot| self.wants_hsu(slot)));
        }

        // Phase 2: the RT unit grants at most one sub-core's dispatch.
        let granted = if hsu_requests.iter().any(|&r| r) {
            self.rt.grant(hsu_requests)
        } else {
            None
        };

        // Phase 3: issue per sub-core.
        let mut any_issued = false;
        for sc in 0..self.sub_cores {
            let Some(slot) = picks[sc] else { continue };
            let wants_hsu = hsu_requests[sc];
            if wants_hsu && granted != Some(sc) {
                continue; // arbiter did not pick this sub-core; retry next cycle
            }
            // `instr` and `ops` borrow the kernel trace, not `self`.
            let warp = &self.warps[slot];
            let (instr, ops) = warp.trace.get(warp.pc);
            let class = instr.class;
            self.stats.issued[class.index()] += 1;
            self.stats.issued_weighted[class.index()] += instr.weighted;
            any_issued = true;
            self.last_issued[sc] = Some(slot);
            // Issuing always leaves `Ready`.
            let set = &mut self.ready[sc];
            let at = set.partition_point(|&(age, _)| age < warp.age);
            debug_assert_eq!(set[at].1, slot);
            set.remove(at);

            let new_status = match class {
                OpClass::Alu | OpClass::Shared => {
                    let count = u64::from(instr.max_run);
                    let lat = if class == OpClass::Alu {
                        self.alu_latency
                    } else {
                        self.shared_latency
                    };
                    // The run occupies the sub-core's issue slot for `count`
                    // cycles; the warp itself also waits out the latency.
                    self.sub_core_busy_until[sc] = now + count;
                    WarpStatus::WaitUntil(now + count + lat)
                }
                OpClass::Load => {
                    let mut lines = std::mem::take(&mut self.coalesce_buf);
                    let coalesced = coalesce_into(ops, self.line_bytes, &mut lines);
                    if let Err(e) = coalesced {
                        self.coalesce_buf = lines;
                        return Err(e);
                    }
                    debug_assert!(!lines.is_empty());
                    for &line in &lines {
                        mem.enqueue(self.index, line, slot as u64, Requester::Lsu, now);
                    }
                    let outstanding = lines.len() as u32;
                    self.coalesce_buf = lines;
                    WarpStatus::WaitMem(outstanding)
                }
                OpClass::Store => {
                    let mut lines = std::mem::take(&mut self.coalesce_buf);
                    let coalesced = coalesce_into(ops, self.line_bytes, &mut lines);
                    if let Err(e) = coalesced {
                        self.coalesce_buf = lines;
                        return Err(e);
                    }
                    for &line in &lines {
                        mem.store(self.index, line, Requester::Lsu);
                    }
                    self.coalesce_buf = lines;
                    WarpStatus::WaitUntil(now + 1)
                }
                OpClass::HsuRayIntersect | OpClass::HsuDistance | OpClass::HsuKeyCompare => {
                    let Some(lead) = ops.first() else {
                        return Err(SimError::IllegalDispatch {
                            detail: format!(
                                "{class:?} warp instruction with no active lanes on sm{}",
                                self.index
                            ),
                        });
                    };
                    if !self.rt.supports(lead) {
                        return Err(SimError::IllegalDispatch {
                            detail: format!(
                                "kernel emitted {class:?} but the unit lacks HSU extensions \
                                 (baseline traces must lower these ops)"
                            ),
                        });
                    }
                    let (entry, lines) =
                        self.rt
                            .dispatch(slot, sc, instr.active_mask, ops, self.line_bytes)?;
                    for (req, line) in lines.enumerate() {
                        let waiter = RT_FLAG | (entry as u64) << 16 | req as u64;
                        mem.enqueue(self.index, line, waiter, Requester::RtUnit, now);
                    }
                    WarpStatus::WaitHsu
                }
            };

            // Advance the program counter; retire at trace end. A warp
            // that waits on memory or the HSU drains that work first and
            // retires when it turns `Ready`; a timed wait retires at once.
            let warp = &mut self.warps[slot];
            warp.status = new_status;
            warp.pc += 1;
            if let WarpStatus::WaitUntil(t) = new_status {
                if warp.pc == warp.trace.len() {
                    self.retire(slot);
                } else {
                    self.timers[sc].push(Reverse((t, slot)));
                }
            }
        }
        if any_issued {
            self.stats.active_cycles += 1;
            self.last_issue_cycle = Some(now);
        }

        // Retire warps whose last instruction's stall resolved this tick.
        while let Some(slot) = self.retiring.pop() {
            self.retire(slot);
        }
        Ok(())
    }

    fn retire(&mut self, slot: usize) {
        self.warps[slot].status = WarpStatus::Finished;
        self.finished_warps += 1;
        self.stats.warps_retired += 1;
    }

    /// Snapshot of this SM's stall state for a
    /// [`DeadlockReport`](crate::error::DeadlockReport).
    ///
    /// `guard_cycles` is the run's cycle guard; the L1 port's queue depths
    /// and MSHR occupancy come from `mem`, which owns them. Timer
    /// waits are normalized against the guard: a `WaitUntil(t)` with `t`
    /// inside the guard window counts as *ready*, because the stepped
    /// oracle flips such timers to `Ready` on its way to the boundary even
    /// when a busy issue slot makes the flip unobservable — the event loop
    /// may detect the deadlock before visiting those cycles, and the
    /// snapshot must not depend on which mode found it.
    pub fn deadlock_state(&self, guard_cycles: u64, mem: &MemorySystem) -> SmDeadlockState {
        let (mut ready, mut waiting_timer, mut waiting_mem, mut waiting_hsu, mut finished) =
            (0, 0, 0, 0, 0);
        for warp in &self.warps {
            match warp.status {
                WarpStatus::Ready => ready += 1,
                WarpStatus::WaitUntil(t) if t < guard_cycles => ready += 1,
                WarpStatus::WaitUntil(_) => waiting_timer += 1,
                WarpStatus::WaitMem(_) => waiting_mem += 1,
                WarpStatus::WaitHsu => waiting_hsu += 1,
                WarpStatus::Finished => finished += 1,
            }
        }
        let (lsu_queue, rt_fifo) = mem.port_depths(self.index);
        SmDeadlockState {
            sm: self.index,
            resident: self.warps.len() - finished,
            ready,
            waiting_timer,
            waiting_mem,
            waiting_hsu,
            finished,
            launch_queue: self.launch_queue.len(),
            lsu_queue,
            rt_fifo,
            warp_buffer_occupancy: self.rt.warp_buffer_occupancy(),
            mshrs_in_flight: mem.l1_mshrs_in_use(self.index),
            warps_retired: self.stats.warps_retired,
            last_issue_cycle: self.last_issue_cycle,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// The RT/HSU unit's statistics.
    pub fn rt_stats(&self) -> RtUnitStats {
        self.rt.stats()
    }
}

/// Unique cache lines touched by a load/store warp instruction, written
/// into a caller-owned scratch buffer (cleared first) so the per-issue hot
/// path allocates nothing.
///
/// Rejects instructions whose lanes mix in non-memory ops (a malformed or
/// corrupted trace) instead of panicking mid-issue.
fn coalesce_into(ops: &[ThreadOp], line_bytes: u64, lines: &mut Vec<u64>) -> Result<(), SimError> {
    lines.clear();
    for op in ops {
        let (addr, bytes) = match op {
            ThreadOp::Load { addr, bytes } | ThreadOp::Store { addr, bytes } => {
                (*addr, *bytes as u64)
            }
            other => {
                return Err(SimError::IllegalDispatch {
                    detail: format!("coalesce on non-memory op {other:?}"),
                })
            }
        };
        let first = addr / line_bytes;
        let last = (addr + bytes.max(1) - 1) / line_bytes;
        lines.extend(first..=last);
    }
    lines.sort_unstable();
    lines.dedup();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemorySystem;
    use crate::trace::{KernelTrace, ThreadTrace};
    use proptest::prelude::*;

    /// A one-warp kernel, leaked so a test's SM can borrow the warp for as
    /// long as it likes.
    fn single_warp_kernel(ops: Vec<ThreadOp>, lanes: usize) -> WarpTrace<'static> {
        let mut k = KernelTrace::builder("t");
        for _ in 0..lanes {
            let mut t = ThreadTrace::new();
            for &op in &ops {
                t.push(op);
            }
            k.push_thread(t);
        }
        Box::leak(Box::new(k.finish())).warp(0)
    }

    fn run(sm: &mut Sm, mem: &mut MemorySystem, max: u64) -> u64 {
        let mut done = Vec::new();
        for now in 0..max {
            done.clear();
            mem.tick(now, &mut done);
            for &(sm_idx, waiter) in &done {
                assert_eq!(sm_idx, 0);
                sm.on_mem_done(waiter).expect("completion routing");
            }
            sm.tick(now, mem).expect("tick failed");
            if sm.finished() {
                return now;
            }
        }
        // Bounded by `max`; on failure report what the SM is stuck on
        // instead of a bare message.
        panic!(
            "SM never finished within {max} cycles; stuck state: {}",
            sm.deadlock_state(max, mem)
        );
    }

    #[test]
    fn alu_only_warp_finishes_quickly() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 10 }], 32));
        let cycles = run(&mut sm, &mut mem, 10_000);
        assert!(cycles < 40, "took {cycles}");
        assert_eq!(sm.stats().issued[OpClass::Alu.index()], 1);
        assert_eq!(sm.stats().issued_weighted[OpClass::Alu.index()], 10 * 32);
        assert_eq!(sm.stats().warps_retired, 1);
    }

    #[test]
    fn coalesced_load_is_one_line() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // 32 lanes loading consecutive 4-byte words: exactly one 128-B line.
        let mut k = KernelTrace::builder("c");
        for lane in 0..32u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Load {
                addr: lane * 4,
                bytes: 4,
            });
            k.push_thread(t);
        }
        let k = k.finish();
        sm.enqueue_warp(k.warp(0));
        run(&mut sm, &mut mem, 100_000);
        assert_eq!(
            mem.stats().l1_lsu_accesses,
            1,
            "must coalesce to one access"
        );
    }

    #[test]
    fn strided_load_splits_lines() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        let mut k = KernelTrace::builder("s");
        for lane in 0..32u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Load {
                addr: lane * 256,
                bytes: 4,
            });
            k.push_thread(t);
        }
        let k = k.finish();
        sm.enqueue_warp(k.warp(0));
        run(&mut sm, &mut mem, 200_000);
        assert_eq!(mem.stats().l1_lsu_accesses, 32, "non-coalescable accesses");
    }

    #[test]
    fn hsu_instruction_round_trip() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(
            vec![
                ThreadOp::HsuRayIntersect {
                    node_addr: 0x1000,
                    bytes: 128,
                    triangle: false,
                },
                ThreadOp::Alu { count: 2 },
            ],
            8,
        ));
        run(&mut sm, &mut mem, 100_000);
        let rt = sm.rt_stats();
        assert_eq!(rt.warp_instructions, 1);
        assert_eq!(rt.isa_instructions, 8, "one per active lane");
        // All eight lanes fetch the same node line: coalesced to one access.
        assert_eq!(mem.stats().l1_rt_accesses, 1);
        assert_eq!(sm.stats().warps_retired, 1);
    }

    #[test]
    fn multiple_warps_share_sub_cores() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        for _ in 0..8 {
            sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 100 }], 32));
        }
        let cycles = run(&mut sm, &mut mem, 100_000);
        // 8 warps / 4 sub-cores = 2 per sub-core, ~2 * 100 cycles.
        assert!(cycles < 450, "took {cycles}");
        assert_eq!(sm.stats().warps_retired, 8);
    }

    #[test]
    fn gto_keeps_issuing_same_warp() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Two warps of back-to-back single ALU ops on the same sub-core
        // would interleave under round-robin; GTO sticks with the first.
        // We verify completion (scheduling correctness), not the exact order.
        for _ in 0..2 {
            sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 1 }; 4], 32));
        }
        run(&mut sm, &mut mem, 100_000);
        assert_eq!(sm.stats().warps_retired, 2);
    }

    #[test]
    fn next_event_reports_exact_timer_wakeup() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Distinct classes so the trace builder keeps two instructions.
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Alu { count: 1 }, ThreadOp::Shared { count: 1 }],
            32,
        ));
        // A launchable warp is imminent work: conservative `now + 1`.
        assert_eq!(sm.next_event(0), Some(1));
        sm.tick(0, &mut mem).unwrap();
        // Issued at 0 with count 1: the warp waits until 1 + alu_latency,
        // and nothing else can change state before then.
        let wake = 1 + cfg.alu_latency;
        assert_eq!(sm.next_event(0), Some(wake));
        assert_eq!(
            sm.next_event(wake - 1),
            Some(wake),
            "wakeup cycle is absolute, not relative"
        );
        sm.tick(wake, &mut mem).unwrap();
        // Second (final) instruction issued; trace end retires on the spot.
        assert_eq!(sm.stats().warps_retired, 1);
        assert_eq!(sm.next_event(wake), None, "finished SM has no events");
        assert!(sm.finished());
    }

    #[test]
    fn next_event_is_none_while_blocked_on_memory() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(
            vec![
                ThreadOp::Load {
                    addr: 0x4000,
                    bytes: 4,
                },
                ThreadOp::Alu { count: 1 },
            ],
            32,
        ));
        sm.tick(0, &mut mem).unwrap();
        // The load sits at the L1 port, which belongs to the memory system:
        // the SM is purely memory-blocked at once, and the memory system
        // owns the next cycle, when the port presents the line.
        assert_eq!(sm.next_event(0), None);
        assert!(!sm.finished());
        assert_eq!(mem.port_depths(0), (1, 0));
        assert_eq!(mem.next_event(0), Some(1));
        let mut done = Vec::new();
        mem.tick(1, &mut done);
        assert_eq!(mem.port_depths(0), (0, 0), "the line was accepted");
        assert_eq!(mem.stats().l1_lsu_accesses, 1);
        let mut woke_at = None;
        for now in 2..100_000 {
            done.clear();
            mem.tick(now, &mut done);
            if let Some(&(_, waiter)) = done.first() {
                sm.on_mem_done(waiter).unwrap();
                woke_at = Some(now);
                break;
            }
            assert_eq!(sm.next_event(now), None, "no self-wakeup at {now}");
        }
        let now = woke_at.expect("load never completed");
        assert_eq!(
            sm.next_event(now),
            Some(now + 1),
            "a Ready warp must run next cycle"
        );
    }

    #[test]
    fn timer_wakeups_order_across_warps() {
        // Two warps on different sub-cores with staggered latencies: the SM
        // must surface the earlier wakeup first, then the later one, pinning
        // the exact cycles the event loop is allowed to jump to.
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Slot 0 -> sub-core 0, slot 1 -> sub-core 1 (slot % sub_cores).
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Alu { count: 2 }, ThreadOp::Shared { count: 1 }],
            32,
        ));
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Shared { count: 1 }, ThreadOp::Alu { count: 1 }],
            32,
        ));
        sm.tick(0, &mut mem).unwrap();
        let alu_wake = 2 + cfg.alu_latency; // run of 2 + dependent latency
        let shared_wake = 1 + cfg.shared_latency;
        assert!(alu_wake < shared_wake);
        assert_eq!(sm.next_event(0), Some(alu_wake), "earliest wakeup wins");
        sm.tick(alu_wake, &mut mem).unwrap();
        assert_eq!(sm.stats().warps_retired, 1, "ALU warp finishes first");
        assert_eq!(sm.next_event(alu_wake), Some(shared_wake));
        sm.tick(shared_wake, &mut mem).unwrap();
        assert_eq!(sm.stats().warps_retired, 2);
        assert_eq!(sm.next_event(shared_wake), None);
    }

    #[test]
    fn baseline_unit_rejects_distance_ops() {
        let mut cfg = GpuConfig::tiny();
        cfg.hsu = hsu_core::HsuConfig::baseline_rt();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::HsuDistance {
                metric: hsu_geometry::point::Metric::Euclidean,
                dim: 16,
                candidate_addr: 0,
            }],
            1,
        ));
        let err = (0..10)
            .find_map(|now| sm.tick(now, &mut mem).err())
            .expect("dispatching a distance op to a baseline RT unit must fail");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
        assert!(err.to_string().contains("lacks HSU extensions"));
    }

    #[test]
    fn misrouted_completion_is_a_typed_error() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        sm.enqueue_warp(single_warp_kernel(vec![ThreadOp::Alu { count: 1 }], 32));
        sm.tick(0, &mut mem).unwrap();
        // Slot 0 is waiting on a timer, not memory: a completion for it is
        // a routing violation, not a panic.
        let err = sm
            .on_mem_done(0)
            .expect_err("completion for a non-memory-waiting warp must fail");
        assert!(matches!(err, SimError::IllegalDispatch { .. }));
    }

    #[test]
    fn deadlock_state_normalizes_in_window_timers_to_ready() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Distinct classes so the trace keeps two instructions pending.
        sm.enqueue_warp(single_warp_kernel(
            vec![ThreadOp::Alu { count: 100 }, ThreadOp::Shared { count: 1 }],
            32,
        ));
        sm.tick(0, &mut mem).unwrap();
        // The warp waits until cycle 100 + alu_latency. With a guard beyond
        // that it counts as ready (the stepped oracle would have flipped it);
        // with a guard before it, it is a genuine timer wait.
        let wake = 100 + cfg.alu_latency;
        let wide = sm.deadlock_state(wake + 1, &mem);
        assert_eq!((wide.ready, wide.waiting_timer), (1, 0));
        let tight = sm.deadlock_state(wake, &mem);
        assert_eq!((tight.ready, tight.waiting_timer), (0, 1));
        assert_eq!(tight.last_issue_cycle, Some(0));
        assert_eq!(tight.resident, 1);
    }

    /// Single-SM counterpart of the event-mode loop in `Gpu::run`: the SM
    /// ticks only at its own wakeup or on a completion it can observe; it
    /// replays each sleep window with `fast_forward`.
    /// Returns the finishing cycle and every `(tick cycle, next_event)`.
    fn run_event(sm: &mut Sm, mem: &mut MemorySystem, max: u64) -> (u64, Vec<(u64, Option<u64>)>) {
        let mut done = Vec::new();
        let mut deliver = Vec::new();
        let mut log = Vec::new();
        let (mut wake, mut next_start, mut now) = (Some(0), 0, 0);
        loop {
            done.clear();
            deliver.clear();
            mem.tick(now, &mut done);
            let mut active = wake.is_some_and(|t| t <= now);
            for &(_, waiter) in &done {
                if !active && !sm.completion_wakes(waiter) {
                    sm.on_mem_done(waiter).expect("completion routing");
                } else {
                    active = true;
                    deliver.push(waiter);
                }
            }
            if active {
                if now > next_start {
                    sm.fast_forward(next_start, now - next_start);
                }
                for &waiter in &deliver {
                    sm.on_mem_done(waiter).expect("completion routing");
                }
                sm.tick(now, mem).expect("tick failed");
                next_start = now + 1;
                wake = sm.next_event(now);
                log.push((now, wake));
            }
            if sm.finished() && mem.quiescent() {
                return (now, log);
            }
            now = wake
                .into_iter()
                .chain(mem.next_event(now))
                .min()
                .expect("no future event: deadlock");
            assert!(now < max, "event run never finished within {max} cycles");
        }
    }

    #[test]
    fn full_buffer_stall_sleeps_until_the_release() {
        // One warp-buffer entry, two warps on different sub-cores, each
        // with a 16-beat-per-lane distance: the second warp's dispatch is
        // refused every cycle until the first entry writes back.
        let cfg = GpuConfig::tiny().with_hsu(hsu_core::HsuConfig::default().with_warp_buffer(1));
        let ops = vec![
            ThreadOp::HsuDistance {
                metric: hsu_geometry::point::Metric::Euclidean,
                dim: 256,
                candidate_addr: 0x8000,
            },
            ThreadOp::Alu { count: 1 },
        ];
        let build = || {
            let mut sm = Sm::new(0, &cfg);
            sm.enqueue_warp(single_warp_kernel(ops.clone(), 4));
            sm.enqueue_warp(single_warp_kernel(ops.clone(), 4));
            (sm, MemorySystem::new(&cfg))
        };

        // Stepped oracle: the release is the cycle the refused warp finally
        // dispatches (the writeback frees the entry within the same tick).
        let (mut stepped, mut stepped_mem) = build();
        let (mut release, mut stepped_finish) = (None, 0);
        let mut done = Vec::new();
        for now in 0..100_000 {
            done.clear();
            stepped_mem.tick(now, &mut done);
            for &(_, waiter) in &done {
                stepped.on_mem_done(waiter).unwrap();
            }
            stepped.tick(now, &mut stepped_mem).unwrap();
            if release.is_none() && stepped.rt_stats().warp_instructions == 2 {
                release = Some(now);
            }
            if stepped.finished() && stepped_mem.quiescent() {
                stepped_finish = now;
                break;
            }
        }
        let release = release.expect("second warp never dispatched");
        assert!(
            stepped.rt_stats().dispatch_stalls > 64,
            "the buffer never filled"
        );

        let (mut event, mut event_mem) = build();
        let (finish, log) = run_event(&mut event, &mut event_mem, 100_000);
        assert_eq!(finish, stepped_finish);
        let (slept_from, _) = log
            .iter()
            .find(|&&(_, next)| next == Some(release))
            .expect("the SM never scheduled its wakeup at the release");
        assert!(
            release - slept_from > 64,
            "slept only from {slept_from} to the release at {release}"
        );
        assert!(
            !log.iter().any(|&(t, _)| t > *slept_from && t < release),
            "ticked inside the drain window"
        );
        assert_eq!(
            event.rt_stats(),
            stepped.rt_stats(),
            "dispatch stalls diverged"
        );
        assert_eq!(event.stats(), stepped.stats());
        assert_eq!(event_mem.stats(), stepped_mem.stats());
    }

    #[test]
    fn three_line_load_wakes_only_on_its_last_completion() {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        // Three lanes, three distant lines.
        let mut k = KernelTrace::builder("three");
        for lane in 0..3u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Load {
                addr: lane * 4096,
                bytes: 4,
            });
            t.push(ThreadOp::Alu { count: 1 });
            k.push_thread(t);
        }
        sm.enqueue_warp(Box::leak(Box::new(k.finish())).warp(0));
        // Issue the load; the memory system presents its three lines at the
        // L1 port, and the SM is blocked on memory alone.
        let mut wakes = Vec::new();
        let mut done = Vec::new();
        let mut ticking = true;
        let mut now = 0;
        while wakes.len() < 3 {
            assert!(now < 100_000, "loads never completed");
            done.clear();
            mem.tick(now, &mut done);
            for &(_, waiter) in &done {
                wakes.push(sm.completion_wakes(waiter));
                sm.on_mem_done(waiter).unwrap();
                if wakes.len() < 3 {
                    assert_eq!(sm.next_event(now), None, "still blocked");
                }
            }
            if ticking {
                sm.tick(now, &mut mem).unwrap();
                ticking = sm.next_event(now).is_some();
            }
            now += 1;
        }
        now -= 1;
        assert_eq!(wakes, vec![false, false, true]);
        assert_eq!(sm.next_event(now), Some(now + 1), "the warp is ready");
    }

    /// The scans the incremental scheduling state replaced, kept as
    /// oracles.
    impl Sm<'_> {
        /// GTO pick by a scan of the sub-core's stripe.
        fn scan_gto(&self, sub_core: usize) -> Option<usize> {
            let issuable = |w: &WarpSlot| w.status == WarpStatus::Ready && w.pc < w.trace.len();
            if let Some(last) = self.last_issued[sub_core] {
                if issuable(&self.warps[last]) {
                    return Some(last);
                }
            }
            (sub_core..self.warps.len())
                .step_by(self.sub_cores)
                .filter(|&i| issuable(&self.warps[i]))
                .min_by_key(|&i| self.warps[i].age)
        }

        /// The earliest `WaitUntil` target on `sub_core`, by a warp scan.
        fn scan_timer(&self, sub_core: usize) -> Option<u64> {
            self.warps
                .iter()
                .filter(|w| w.sub_core == sub_core)
                .filter_map(|w| match w.status {
                    WarpStatus::WaitUntil(t) => Some(t),
                    _ => None,
                })
                .min()
        }

        fn scan_finished(&self) -> usize {
            self.warps
                .iter()
                .filter(|w| w.status == WarpStatus::Finished)
                .count()
        }
    }

    /// Up to 40 warps on a 16-slot SM, so retired slots are reused. The
    /// lanes of a warp run the same ops, each at an address of its own,
    /// over a few lines, so completions arrive together; some warps run
    /// nothing and retire together.
    fn arb_kernel() -> impl Strategy<Value = KernelTrace> {
        let op = prop_oneof![
            (1u32..12).prop_map(|count| ThreadOp::Alu { count }),
            (1u32..6).prop_map(|count| ThreadOp::Shared { count }),
            (0u64..64, 1u32..64).prop_map(|(a, bytes)| ThreadOp::Load {
                addr: a * 64,
                bytes
            }),
            (0u64..64).prop_map(|a| ThreadOp::Store {
                addr: a * 64,
                bytes: 4
            }),
            (0u64..16, 1u32..96).prop_map(|(a, dim)| ThreadOp::HsuDistance {
                metric: hsu_geometry::point::Metric::Euclidean,
                dim,
                candidate_addr: a * 512,
            }),
        ];
        let at_lane = |op: ThreadOp, lane: u64| match op {
            ThreadOp::Load { addr, bytes } => ThreadOp::Load {
                addr: addr + lane * 4,
                bytes,
            },
            ThreadOp::Store { addr, bytes } => ThreadOp::Store {
                addr: addr + lane * 4,
                bytes,
            },
            ThreadOp::HsuDistance {
                metric,
                dim,
                candidate_addr,
            } => ThreadOp::HsuDistance {
                metric,
                dim,
                candidate_addr: candidate_addr + lane % 4 * 128,
            },
            other => other,
        };
        prop::collection::vec(prop::collection::vec(op, 0..6), 1..40).prop_map(move |warps| {
            let mut k = KernelTrace::builder("oracle");
            for ops in warps {
                for lane in 0..32 {
                    let mut t = ThreadTrace::new();
                    for &op in &ops {
                        t.push(at_lane(op, lane));
                    }
                    k.push_thread(t);
                }
            }
            k.finish()
        })
    }

    /// Runs `kernel` on one stepped SM with a one-entry warp buffer,
    /// calling `check(sm, now, ticked)` after every completion and every
    /// tick (`ticked`).
    fn drive_checked(kernel: &KernelTrace, mut check: impl FnMut(&Sm, u64, bool)) {
        let cfg = GpuConfig::tiny().with_hsu(hsu_core::HsuConfig::default().with_warp_buffer(1));
        let mut sm = Sm::new(0, &cfg);
        let mut mem = MemorySystem::new(&cfg);
        for warp in kernel.warps() {
            sm.enqueue_warp(warp);
        }
        let mut done = Vec::new();
        for now in 0..2_000_000 {
            done.clear();
            mem.tick(now, &mut done);
            for &(_, waiter) in &done {
                sm.on_mem_done(waiter).expect("completion routing");
                check(&sm, now, false);
            }
            sm.tick(now, &mut mem).expect("tick failed");
            check(&sm, now, true);
            if sm.finished() && mem.quiescent() {
                return;
            }
        }
        panic!("the kernel never finished");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The per-sub-core ready sets pick what a scan of each stripe for
        /// the last-issued or else the oldest issuable warp picks.
        #[test]
        fn ready_sets_match_a_stripe_scan(kernel in arb_kernel()) {
            drive_checked(&kernel, |sm, now, _| {
                for sc in 0..sm.sub_cores {
                    assert_eq!(sm.gto_peek(sc), sm.scan_gto(sc), "sub-core {sc} at {now}");
                }
            });
        }

        /// The warps `Ready` at their trace end are exactly the queued
        /// ones, and after every tick there are none (the old scan over
        /// every slot at the end of each tick would retire none); the
        /// finished-warp count is the count a scan finds.
        #[test]
        fn retirement_matches_a_scan_over_every_slot(kernel in arb_kernel()) {
            let mut retired = 0;
            drive_checked(&kernel, |sm, now, ticked| {
                assert_eq!(sm.finished_warps, sm.scan_finished(), "at {now}");
                let resident = sm.warps.len() - sm.finished_warps;
                assert_eq!(sm.stats.warps_retired, sm.next_age - resident as u64);
                retired = sm.stats.warps_retired;
                let mut at_end: Vec<usize> = (0..sm.warps.len())
                    .filter(|&i| {
                        let w = &sm.warps[i];
                        w.status == WarpStatus::Ready && w.pc == w.trace.len()
                    })
                    .collect();
                let mut queued = sm.retiring.clone();
                queued.sort_unstable();
                at_end.sort_unstable();
                assert_eq!(queued, at_end, "at {now}");
                assert!(!ticked || queued.is_empty(), "left unretired at {now}");
            });
            prop_assert_eq!(retired, kernel.warps().count() as u64);
        }

        /// The timer heaps hold each sub-core's earliest `WaitUntil`, and
        /// `next_event` equals the answer of a walk over every warp.
        #[test]
        fn timer_heaps_match_a_warp_scan(kernel in arb_kernel()) {
            drive_checked(&kernel, |sm, now, _| {
                for sc in 0..sm.sub_cores {
                    let top = sm.timers[sc].peek().map(|&Reverse((t, _))| t);
                    assert_eq!(top, sm.scan_timer(sc), "sub-core {sc} at {now}");
                }
                let free = |sc: usize| sm.sub_core_busy_until[sc].max(now + 1);
                let can_launch = !sm.launch_queue.is_empty()
                    && (sm.warps.len() < sm.max_warps || sm.scan_finished() > 0);
                let walked = if can_launch {
                    Some(now + 1)
                } else {
                    let picks = (0..sm.sub_cores).filter_map(|sc| {
                        sm.scan_gto(sc)
                            .filter(|&slot| !(sm.rt.buffer_full() && sm.wants_hsu(slot)))
                            .map(|_| free(sc))
                    });
                    let timers = sm.warps.iter().filter_map(|w| match w.status {
                        WarpStatus::WaitUntil(t) => Some(t.max(free(w.sub_core))),
                        _ => None,
                    });
                    sm.rt.next_release(now).into_iter().chain(picks).chain(timers).min()
                };
                assert_eq!(sm.next_event(now), walked, "at {now}");
            });
        }
    }
}
