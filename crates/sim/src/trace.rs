//! The kernel trace format: per-thread operation logs packed into warps.
//!
//! Workload kernels run *functionally* (producing real answers) while
//! recording one [`ThreadTrace`] per CUDA thread. A [`KernelBuilder`]
//! packs each 32-thread chunk into a warp as soon as it is complete and
//! converts the logs into warp instructions with divergence-aware active
//! masks: at each step the next operation of every unfinished lane is
//! taken, lanes are grouped by operation class, and one warp instruction is
//! emitted per distinct class — the serialization penalty branch divergence
//! costs a real SIMT machine.
//!
//! The packed [`KernelTrace`] is the only form a kernel is kept in: built
//! once when it is recorded or decoded ([`crate::trace_io`]), then borrowed
//! by every simulation. Its per-lane `Alu`/`Shared` counts are folded into
//! each instruction's header (`max_run`, `weighted`). An HSU instruction
//! keeps one op per active lane, because the RT unit tracks each lane; a
//! Load or Store keeps only the sorted, merged byte ranges its lanes touch,
//! because the coalescer reads nothing but the set of lines they cover.

use hsu_geometry::point::Metric;

/// Number of threads per warp.
pub const WARP_WIDTH: usize = 32;

/// One operation executed by one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThreadOp {
    /// `count` back-to-back scalar ALU instructions.
    Alu {
        /// Number of dependent ALU instructions.
        count: u32,
    },
    /// A global memory load.
    Load {
        /// Byte address.
        addr: u64,
        /// Bytes read (split into lines by the coalescer).
        bytes: u32,
    },
    /// A global memory store (modelled write-through, fire-and-forget).
    Store {
        /// Byte address.
        addr: u64,
        /// Bytes written.
        bytes: u32,
    },
    /// `count` shared-memory operations (priority-queue maintenance etc.).
    Shared {
        /// Number of shared-memory instructions.
        count: u32,
    },
    /// A `RAY_INTERSECT` on the RT/HSU unit.
    HsuRayIntersect {
        /// Node byte address.
        node_addr: u64,
        /// Bytes the CISC fetch reads.
        bytes: u32,
        /// `true` when the node is a triangle leaf (ray-triangle mode),
        /// `false` for a box node (ray-box mode).
        triangle: bool,
    },
    /// A full multi-beat distance computation on the HSU (the simulator
    /// derives the beat count from the configured datapath width).
    HsuDistance {
        /// Euclidean or angular mode.
        metric: Metric,
        /// Point dimensionality.
        dim: u32,
        /// Byte address of the candidate vector.
        candidate_addr: u64,
    },
    /// A `KEY_COMPARE` chain on the HSU (`ceil(separators /
    /// key_compare_width)` datapath operations, one node fetch).
    HsuKeyCompare {
        /// Node byte address.
        node_addr: u64,
        /// Separator count in the node.
        separators: u32,
    },
}

impl ThreadOp {
    /// Dense class index used to group divergent lanes (same-class ops from
    /// different lanes form one warp instruction).
    pub fn class(&self) -> OpClass {
        match self {
            ThreadOp::Alu { .. } => OpClass::Alu,
            ThreadOp::Load { .. } => OpClass::Load,
            ThreadOp::Store { .. } => OpClass::Store,
            ThreadOp::Shared { .. } => OpClass::Shared,
            ThreadOp::HsuRayIntersect { .. } => OpClass::HsuRayIntersect,
            ThreadOp::HsuDistance { .. } => OpClass::HsuDistance,
            ThreadOp::HsuKeyCompare { .. } => OpClass::HsuKeyCompare,
        }
    }

    /// Returns `true` for operations executed on the RT/HSU unit.
    pub fn is_hsu(&self) -> bool {
        matches!(
            self,
            ThreadOp::HsuRayIntersect { .. }
                | ThreadOp::HsuDistance { .. }
                | ThreadOp::HsuKeyCompare { .. }
        )
    }

    /// The byte range the op fetches, as `(addr, bytes)`: the access of a
    /// Load/Store, the node or candidate vector an HSU op reads. `None` for
    /// the `Alu`/`Shared` runs, which touch no global memory.
    pub fn fetch(&self) -> Option<(u64, u64)> {
        match *self {
            ThreadOp::Alu { .. } | ThreadOp::Shared { .. } => None,
            ThreadOp::Load { addr, bytes }
            | ThreadOp::Store { addr, bytes }
            | ThreadOp::HsuRayIntersect {
                node_addr: addr,
                bytes,
                ..
            } => Some((addr, u64::from(bytes))),
            ThreadOp::HsuDistance {
                dim,
                candidate_addr,
                ..
            } => Some((candidate_addr, u64::from(dim) * 4)),
            ThreadOp::HsuKeyCompare {
                node_addr,
                separators,
            } => Some((node_addr, u64::from(separators) * 4)),
        }
    }
}

/// The last byte of the range `[addr, addr + max(bytes, 1))` — a zero-byte
/// access still touches its first byte — or `None` when the range runs past
/// the end of the address space.
pub fn last_byte(addr: u64, bytes: u64) -> Option<u64> {
    addr.checked_add(bytes.max(1) - 1)
}

/// Operation classes for divergence grouping and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum OpClass {
    Alu,
    Load,
    Store,
    Shared,
    HsuRayIntersect,
    HsuDistance,
    HsuKeyCompare,
}

impl OpClass {
    /// All classes, in stat-dump order.
    pub const ALL: [OpClass; 7] = [
        OpClass::Alu,
        OpClass::Load,
        OpClass::Store,
        OpClass::Shared,
        OpClass::HsuRayIntersect,
        OpClass::HsuDistance,
        OpClass::HsuKeyCompare,
    ];

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu => 0,
            OpClass::Load => 1,
            OpClass::Store => 2,
            OpClass::Shared => 3,
            OpClass::HsuRayIntersect => 4,
            OpClass::HsuDistance => 5,
            OpClass::HsuKeyCompare => 6,
        }
    }

    /// Returns `true` for classes executed on the RT/HSU unit.
    pub fn is_hsu(self) -> bool {
        matches!(
            self,
            OpClass::HsuRayIntersect | OpClass::HsuDistance | OpClass::HsuKeyCompare
        )
    }

    /// Returns `true` for the run classes (`Alu`, `Shared`), whose warp
    /// instructions keep only their header: the simulator reads their
    /// `max_run` and `weighted`, never the per-lane counts.
    pub fn is_run(self) -> bool {
        matches!(self, OpClass::Alu | OpClass::Shared)
    }

    /// Returns `true` for the memory classes (`Load`, `Store`), whose warp
    /// instructions keep their lanes' merged byte ranges rather than one op
    /// per lane.
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Label for stat dumps.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Shared => "shared",
            OpClass::HsuRayIntersect => "hsu-ray",
            OpClass::HsuDistance => "hsu-dist",
            OpClass::HsuKeyCompare => "hsu-key",
        }
    }
}

/// The operation log of one thread: the recorder a workload kernel fills
/// while it runs, handed to [`KernelBuilder::push_thread`] when done.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadTrace {
    ops: Vec<ThreadOp>,
}

impl ThreadTrace {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation, merging consecutive `Alu`/`Shared` runs.
    pub fn push(&mut self, op: ThreadOp) {
        match (self.ops.last_mut(), op) {
            (Some(ThreadOp::Alu { count }), ThreadOp::Alu { count: c }) => *count += c,
            (Some(ThreadOp::Shared { count }), ThreadOp::Shared { count: c }) => *count += c,
            _ => self.ops.push(op),
        }
    }

    /// The logged operations.
    pub fn ops(&self) -> &[ThreadOp] {
        &self.ops
    }

    /// Returns `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One pre-decoded warp instruction: the lanes taking part, their shared
/// operation class, and the issue-time summaries the SM needs. Its ops live
/// densely in the owning [`KernelTrace`]'s op pool ([`WarpTrace::ops`]):
///
/// - HSU instructions keep one op per active lane: the *n*-th op belongs to
///   the *n*-th set bit of `active_mask`.
/// - Load/Store instructions keep the sorted, merged byte ranges of their
///   lanes' accesses, as `Load`/`Store { addr, bytes }` ops with strictly
///   ascending `addr` and `bytes ≥ 1` — between one range and one per lane.
/// - `Alu`/`Shared` instructions keep only this header: `max_run` and
///   `weighted` are all the simulator reads of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpInstruction {
    /// Expanded instruction weight: Alu/Shared runs count their per-lane
    /// totals, every other class counts its active lanes.
    pub weighted: u64,
    /// Lanes participating (bit *i* = lane *i*); never zero.
    pub active_mask: u32,
    /// Longest Alu/Shared run across the active lanes (lockstep SIMT
    /// executes the longest lane's count); 1 for every other class.
    pub max_run: u32,
    /// Op-pool index of the instruction's first op (the pool length at the
    /// instruction for `Alu`/`Shared`, which store none).
    offset: u32,
    /// The operation class every active lane shares.
    pub class: OpClass,
    /// Number of pooled ops (at most 32, so it fits the header's padding).
    op_len: u8,
}

impl WarpInstruction {
    /// Assembles a decoded header whose `op_len` ops (if any) start at pool
    /// index `offset`.
    pub(crate) fn new(
        class: OpClass,
        active_mask: u32,
        max_run: u32,
        weighted: u64,
        offset: usize,
        op_len: u8,
    ) -> Self {
        WarpInstruction {
            weighted,
            active_mask,
            max_run,
            offset: pool_index(offset),
            class,
            op_len,
        }
    }

    /// Number of ops this instruction keeps in the pool: one per active lane
    /// for HSU classes, one per merged byte range for `Load`/`Store`, none
    /// for `Alu`/`Shared` runs.
    pub fn op_count(&self) -> usize {
        usize::from(self.op_len)
    }
}

/// The lane indices set in `mask`, lowest first: the lane of each op in a
/// dense per-instruction op slice.
pub fn lanes_of(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            lane
        })
    })
}

/// A borrowed view of one warp's instruction stream inside a
/// [`KernelTrace`]: its headers in program order plus the kernel's op pool.
#[derive(Clone, Copy)]
pub struct WarpTrace<'k> {
    instructions: &'k [WarpInstruction],
    ops: &'k [ThreadOp],
}

impl std::fmt::Debug for WarpTrace<'_> {
    // The view borrows the whole kernel's op pool; print only this warp.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpTrace")
            .field("instructions", &self.instructions.len())
            .finish_non_exhaustive()
    }
}

impl<'k> WarpTrace<'k> {
    /// Number of warp instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the warp has no instruction.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction headers in program order.
    pub fn instructions(&self) -> &'k [WarpInstruction] {
        self.instructions
    }

    /// Instruction `pc`'s header and its pooled ops: one per active lane in
    /// lane order for HSU classes, the merged byte ranges in ascending
    /// address order for `Load`/`Store`, none for `Alu`/`Shared`.
    ///
    /// # Panics
    ///
    /// Panics if `pc >= self.len()`.
    pub fn get(&self, pc: usize) -> (&'k WarpInstruction, &'k [ThreadOp]) {
        let instr = &self.instructions[pc];
        let start = instr.offset as usize;
        (instr, &self.ops[start..start + instr.op_count()])
    }

    /// Instruction `pc`'s pooled ops (see [`WarpTrace::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `pc >= self.len()`.
    pub fn ops(&self, pc: usize) -> &'k [ThreadOp] {
        self.get(pc).1
    }
}

/// A kernel launch in its one, warp-packed form: a kernel-wide pool of
/// [`WarpInstruction`] headers, one pool of the ops the simulator reads
/// (the merged Load/Store byte ranges and the per-lane HSU ops), the first
/// header of each warp, and the thread count. Built once by [`KernelBuilder`] or the trace decoder;
/// [`crate::Gpu::run`] borrows its warps.
///
/// Warp *w* covers threads `32w .. 32w + 32`. There are always
/// ⌈threads / 32⌉ warps — warps whose threads logged nothing are kept,
/// because the round-robin SM assignment counts them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTrace {
    name: String,
    threads: usize,
    warp_starts: Vec<u32>,
    instructions: Vec<WarpInstruction>,
    ops: Vec<ThreadOp>,
}

impl KernelTrace {
    /// Starts recording a kernel: push its threads' logs in launch order,
    /// then [`KernelBuilder::finish`].
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            trace: KernelTrace {
                name: name.into(),
                ..KernelTrace::default()
            },
            pending: Vec::with_capacity(WARP_WIDTH),
        }
    }

    /// Assembles a decoded trace from its pools.
    pub(crate) fn from_parts(
        name: String,
        threads: usize,
        warp_starts: Vec<u32>,
        instructions: Vec<WarpInstruction>,
        ops: Vec<ThreadOp>,
    ) -> Self {
        KernelTrace {
            name,
            threads,
            warp_starts,
            instructions,
            ops,
        }
    }

    /// The kernel's name (reported in stats).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Number of warps: ⌈threads / 32⌉.
    pub fn warp_count(&self) -> usize {
        self.warp_starts.len()
    }

    /// Warp `w`'s instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.warp_count()`.
    pub fn warp(&self, w: usize) -> WarpTrace<'_> {
        let start = self.warp_starts[w] as usize;
        let end = self
            .warp_starts
            .get(w + 1)
            .map_or(self.instructions.len(), |&e| e as usize);
        WarpTrace {
            instructions: &self.instructions[start..end],
            ops: &self.ops,
        }
    }

    /// Every warp's instruction stream, in launch order.
    pub fn warps(&self) -> impl ExactSizeIterator<Item = WarpTrace<'_>> + '_ {
        (0..self.warp_count()).map(|w| self.warp(w))
    }

    /// The header pool and the op pool, every warp's in launch order.
    pub(crate) fn pools(&self) -> (&[WarpInstruction], &[ThreadOp]) {
        (&self.instructions, &self.ops)
    }

    /// Total operations across all threads (Alu/Shared runs count as `count`
    /// instructions): the sum of every header's `weighted`.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().map(|i| i.weighted).sum()
    }

    /// Heap bytes the trace holds (allocated capacity, name included).
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.warp_starts.capacity() * std::mem::size_of::<u32>()
            + self.instructions.capacity() * std::mem::size_of::<WarpInstruction>()
            + self.ops.capacity() * std::mem::size_of::<ThreadOp>()
    }
}

/// Records a [`KernelTrace`] thread by thread, packing each full 32-thread
/// chunk into its warp as it arrives, so at most one warp's thread logs are
/// alive at a time.
#[derive(Debug)]
pub struct KernelBuilder {
    trace: KernelTrace,
    pending: Vec<ThreadTrace>,
}

impl KernelBuilder {
    /// Appends the next thread's log.
    pub fn push_thread(&mut self, thread: ThreadTrace) {
        self.pending.push(thread);
        if self.pending.len() == WARP_WIDTH {
            self.pack_pending();
        }
    }

    /// Packs the partial last warp and returns the trace with exactly sized
    /// pools.
    pub fn finish(mut self) -> KernelTrace {
        if !self.pending.is_empty() {
            self.pack_pending();
        }
        let mut trace = self.trace;
        trace.warp_starts.shrink_to_fit();
        trace.instructions.shrink_to_fit();
        trace.ops.shrink_to_fit();
        trace
    }

    fn pack_pending(&mut self) {
        pack_warp(&self.pending, &mut self.trace);
        self.trace.threads += self.pending.len();
        self.pending.clear();
    }
}

/// Packs one chunk of up to 32 consecutive threads into a warp and lowers
/// its logs into divergence-grouped [`WarpInstruction`]s appended to
/// `trace`'s pools — the one packer.
///
/// At each step the next operation of every unfinished lane is taken; the
/// class of the lowest pending lane is emitted first, with every pending
/// lane of that class, then the next class of the lowest lane still
/// pending, until the step is exhausted (a deterministic reconvergence
/// order).
fn pack_warp(chunk: &[ThreadTrace], trace: &mut KernelTrace) {
    trace.warp_starts.push(pool_index(trace.instructions.len()));
    let mut cursors = [0usize; WARP_WIDTH];
    let mut ranges = Vec::with_capacity(WARP_WIDTH);
    loop {
        // Lanes that still have operations.
        let mut pending = (0..chunk.len())
            .filter(|&l| cursors[l] < chunk[l].ops().len())
            .fold(0u32, |m, l| m | 1 << l);
        if pending == 0 {
            break;
        }
        while pending != 0 {
            let lead = pending.trailing_zeros() as usize;
            let class = chunk[lead].ops()[cursors[lead]].class();
            let offset = trace.ops.len();
            let (mut mask, mut max_run, mut weighted) = (0u32, 0u32, 0u64);
            for l in lanes_of(pending) {
                let op = chunk[l].ops()[cursors[l]];
                if op.class() != class {
                    continue;
                }
                let run = match op {
                    ThreadOp::Alu { count } | ThreadOp::Shared { count } => count,
                    ThreadOp::Load { addr, bytes } | ThreadOp::Store { addr, bytes } => {
                        ranges.push((addr, bytes));
                        1
                    }
                    _ => {
                        trace.ops.push(op);
                        1
                    }
                };
                mask |= 1 << l;
                max_run = max_run.max(run);
                weighted += u64::from(run);
                cursors[l] += 1;
            }
            if class.is_memory() {
                push_merged_ranges(class, &mut ranges, &mut trace.ops);
                ranges.clear();
            }
            pending &= !mask;
            // At most one op per lane, so the count fits the header's byte.
            let op_len = (trace.ops.len() - offset) as u8;
            trace.instructions.push(WarpInstruction::new(
                class, mask, max_run, weighted, offset, op_len,
            ));
        }
    }
}

/// Appends one Load/Store instruction's lane accesses to `ops` as byte
/// ranges `[addr, addr + max(bytes, 1))`, sorted by address, with ranges
/// that touch or overlap merged into one op as long as the merged length
/// fits a `u32`. The union of the ranges stays the same, and so does every
/// line set the coalescer derives from them, for any line size.
///
/// The ends are computed in `u128`, so a lane whose range runs past the
/// address space stays visible in its merged range, and the simulator
/// rejects it at issue.
fn push_merged_ranges(class: OpClass, ranges: &mut [(u64, u32)], ops: &mut Vec<ThreadOp>) {
    ranges.sort_unstable();
    let mut emit = |start: u64, end: u128| {
        let (addr, bytes) = (start, (end - u128::from(start)) as u32);
        ops.push(match class {
            OpClass::Load => ThreadOp::Load { addr, bytes },
            _ => ThreadOp::Store { addr, bytes },
        });
    };
    let mut open: Option<(u64, u128)> = None;
    for &(addr, bytes) in ranges.iter() {
        let end = u128::from(addr) + u128::from(bytes.max(1));
        open = match open {
            Some((start, open_end))
                if u128::from(addr) <= open_end
                    && end.max(open_end) - u128::from(start) <= u128::from(u32::MAX) =>
            {
                Some((start, end.max(open_end)))
            }
            Some((start, open_end)) => {
                emit(start, open_end);
                Some((addr, end))
            }
            None => Some((addr, end)),
        };
    }
    if let Some((start, end)) = open {
        emit(start, end);
    }
}

/// A pool length as a 4-byte header offset.
///
/// # Panics
///
/// Panics past `u32::MAX` entries — 64 GiB of ops in one kernel, far beyond
/// any recordable trace (the decoder's caps stop a corrupt stream long
/// before).
fn pool_index(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "kernel trace pool overflow");
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kernel_of(name: &str, threads: Vec<ThreadTrace>) -> KernelTrace {
        let mut k = KernelTrace::builder(name);
        for t in threads {
            k.push_thread(t);
        }
        k.finish()
    }

    #[test]
    fn alu_runs_merge() {
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 2 });
        t.push(ThreadOp::Alu { count: 3 });
        t.push(ThreadOp::Shared { count: 1 });
        t.push(ThreadOp::Shared { count: 1 });
        t.push(ThreadOp::Alu { count: 1 });
        assert_eq!(t.ops().len(), 3);
        assert_eq!(t.ops()[0], ThreadOp::Alu { count: 5 });
        assert_eq!(t.ops()[1], ThreadOp::Shared { count: 2 });
    }

    #[test]
    fn uniform_threads_form_full_warps() {
        let threads = (0..64u64).map(|i| {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 1 });
            t.push(ThreadOp::Load {
                addr: i * 4,
                bytes: 4,
            });
            t
        });
        let k = kernel_of("uniform", threads.collect());
        assert_eq!(k.warp_count(), 2);
        for w in k.warps() {
            assert_eq!(w.len(), 2);
            assert_eq!(w.instructions()[0].active_mask, u32::MAX);
            assert_eq!(w.instructions()[0].class, OpClass::Alu);
            assert!(w.ops(0).is_empty(), "Alu runs keep only their header");
            assert_eq!(w.instructions()[1].class, OpClass::Load);
            assert_eq!(w.instructions()[1].weighted, 32, "weights count lanes");
        }
        // 32 consecutive words merge into one 128-byte range.
        assert_eq!(
            k.warp(1).ops(1),
            [ThreadOp::Load {
                addr: 128,
                bytes: 128
            }]
        );
    }

    #[test]
    fn divergent_classes_serialize() {
        let threads = (0..4).map(|i| {
            let mut t = ThreadTrace::new();
            if i % 2 == 0 {
                t.push(ThreadOp::Alu { count: 1 });
            } else {
                t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            t
        });
        let k = kernel_of("divergent", threads.collect());
        assert_eq!(k.warp_count(), 1);
        let w = k.warp(0);
        // One step, two classes -> two serialized warp instructions.
        assert_eq!(w.len(), 2);
        assert_eq!(w.instructions()[0].active_mask, 0b0101);
        assert_eq!(w.instructions()[1].active_mask, 0b1010);
        let (instr, ops) = w.get(1);
        let lanes: Vec<usize> = lanes_of(instr.active_mask).collect();
        assert_eq!(lanes, vec![1, 3]);
        // Both lanes read the same word: one range.
        assert_eq!(ops, [ThreadOp::Load { addr: 0, bytes: 4 }]);
    }

    #[test]
    fn early_exit_lanes_go_inactive() {
        let threads = (0..3).map(|i| {
            let mut t = ThreadTrace::new();
            for _ in 0..=i {
                t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            t
        });
        let k = kernel_of("ragged", threads.collect());
        let masks: Vec<u32> = k
            .warp(0)
            .instructions()
            .iter()
            .map(|i| i.active_mask)
            .collect();
        assert_eq!(masks, vec![0b111, 0b110, 0b100]);
    }

    #[test]
    fn instruction_count_expands_runs() {
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 7 });
        t.push(ThreadOp::Load { addr: 0, bytes: 4 });
        assert_eq!(kernel_of("count", vec![t]).total_instructions(), 8);
    }

    #[test]
    fn hsu_ops_are_flagged() {
        assert!(ThreadOp::HsuDistance {
            metric: Metric::Euclidean,
            dim: 8,
            candidate_addr: 0
        }
        .is_hsu());
        assert!(ThreadOp::HsuKeyCompare {
            node_addr: 0,
            separators: 10
        }
        .is_hsu());
        assert!(!ThreadOp::Alu { count: 1 }.is_hsu());
        for c in OpClass::ALL {
            assert_eq!(c.is_hsu(), c.index() >= OpClass::HsuRayIntersect.index());
            assert_eq!(c.is_run(), matches!(c, OpClass::Alu | OpClass::Shared));
        }
    }

    #[test]
    fn issue_summaries_follow_the_lanes() {
        let threads = [3u32, 9, 1].map(|count| {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count });
            t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            t
        });
        let k = kernel_of("runs", threads.to_vec());
        let w = k.warp(0);
        let alu = w.instructions()[0];
        assert_eq!(
            (alu.max_run, alu.weighted, alu.active_mask.count_ones()),
            (9, 13, 3)
        );
        let load = w.instructions()[1];
        assert_eq!(
            (load.max_run, load.weighted, load.active_mask.count_ones()),
            (1, 3, 3)
        );
    }

    #[test]
    fn empty_threads_produce_no_instructions() {
        let k = kernel_of("empty", vec![ThreadTrace::new(), ThreadTrace::new()]);
        assert_eq!(k.warp_count(), 1);
        assert!(k.warp(0).is_empty());
        assert_eq!(k.thread_count(), 2);
    }

    #[test]
    fn all_empty_warps_keep_their_round_robin_slot() {
        let mut threads = vec![ThreadTrace::new(); 64];
        threads.push({
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 1 });
            t
        });
        let k = kernel_of("gap", threads);
        assert_eq!(k.warp_count(), 3);
        let lens: Vec<usize> = k.warps().map(|w| w.len()).collect();
        assert_eq!(lens, vec![0, 0, 1]);
    }

    #[test]
    fn pools_are_sized_exactly() {
        let threads = (0..70u64).map(|i| {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 2 });
            t.push(ThreadOp::Store { addr: i, bytes: 4 });
            t
        });
        let k = kernel_of("exact", threads.collect());
        assert_eq!(std::mem::size_of::<WarpInstruction>(), 24);
        // Three warps × (Alu header + Store header); each warp's overlapping
        // Stores merge into one range.
        let want = k.name().len() + 3 * 4 + 6 * 24 + 3 * std::mem::size_of::<ThreadOp>();
        assert_eq!(k.heap_bytes(), want);
        let ranges: Vec<ThreadOp> = k.warps().flat_map(|w| w.ops(1).to_vec()).collect();
        assert_eq!(
            ranges,
            [(0, 35), (32, 35), (64, 9)].map(|(addr, bytes)| ThreadOp::Store { addr, bytes })
        );
    }

    #[test]
    fn class_metadata_is_dense() {
        let mut seen = std::collections::HashSet::new();
        for c in OpClass::ALL {
            assert!(seen.insert(c.index()));
            assert!(!c.label().is_empty());
        }
        assert_eq!(seen.len(), 7);
    }

    /// The packer before warp instructions were pre-decoded: one 32-slot
    /// `Vec<Option<ThreadOp>>` per instruction. Kept as an oracle for
    /// [`pack_warp`].
    fn reference_slots(threads: &[ThreadTrace]) -> Vec<Vec<(u32, Vec<Option<ThreadOp>>)>> {
        threads
            .chunks(WARP_WIDTH)
            .map(|chunk| {
                let mut cursors = vec![0usize; chunk.len()];
                let mut out = Vec::new();
                loop {
                    let mut pending: Vec<usize> = (0..chunk.len())
                        .filter(|&l| cursors[l] < chunk[l].ops().len())
                        .collect();
                    if pending.is_empty() {
                        break;
                    }
                    while !pending.is_empty() {
                        let lead_class = chunk[pending[0]].ops()[cursors[pending[0]]].class();
                        let mut mask = 0u32;
                        let mut lanes = vec![None; WARP_WIDTH];
                        pending.retain(|&l| {
                            let op = chunk[l].ops()[cursors[l]];
                            if op.class() == lead_class {
                                mask |= 1 << l;
                                lanes[l] = Some(op);
                                cursors[l] += 1;
                                false
                            } else {
                                true
                            }
                        });
                        out.push((mask, lanes));
                    }
                }
                out
            })
            .collect()
    }

    /// One warp as the thread-form packer produced it, run on every
    /// simulation: headers `(mask, class, max_run, weighted)` plus a per-warp
    /// op pool holding every active lane's op, `Alu`/`Shared` included.
    type ThreadFormWarp = (Vec<(u32, OpClass, u32, u64)>, Vec<ThreadOp>);

    /// A copy of the thread-form packer (`KernelTrace::warps` over a
    /// `Vec<ThreadTrace>`), kept as the reference for the packed form.
    fn thread_form_warps(threads: &[ThreadTrace]) -> Vec<ThreadFormWarp> {
        threads
            .chunks(WARP_WIDTH)
            .map(|chunk| {
                let mut cursors = [0usize; WARP_WIDTH];
                let (mut headers, mut ops) = (Vec::new(), Vec::new());
                loop {
                    let mut pending = (0..chunk.len())
                        .filter(|&l| cursors[l] < chunk[l].ops().len())
                        .fold(0u32, |m, l| m | 1 << l);
                    if pending == 0 {
                        break;
                    }
                    while pending != 0 {
                        let lead = pending.trailing_zeros() as usize;
                        let class = chunk[lead].ops()[cursors[lead]].class();
                        let (mut mask, mut max_run, mut weighted) = (0u32, 0u32, 0u64);
                        for l in lanes_of(pending) {
                            let op = chunk[l].ops()[cursors[l]];
                            if op.class() != class {
                                continue;
                            }
                            let run = match op {
                                ThreadOp::Alu { count } | ThreadOp::Shared { count } => count,
                                _ => 1,
                            };
                            mask |= 1 << l;
                            max_run = max_run.max(run);
                            weighted += u64::from(run);
                            ops.push(op);
                            cursors[l] += 1;
                        }
                        pending &= !mask;
                        headers.push((mask, class, max_run, weighted));
                    }
                }
                (headers, ops)
            })
            .collect()
    }

    /// The merged ranges of one memory instruction's per-lane ops, derived
    /// byte by byte: the set of bytes the lanes touch, cut into maximal
    /// runs. The oracle for [`push_merged_ranges`] at small addresses and
    /// sizes, where no merged range reaches the `u32` cap.
    fn merged_by_bytes(lane_ops: &[ThreadOp]) -> Vec<ThreadOp> {
        let touched: std::collections::BTreeSet<u64> = lane_ops
            .iter()
            .flat_map(|op| {
                let (addr, bytes) = op.fetch().expect("memory ops fetch");
                addr..addr + bytes.max(1)
            })
            .collect();
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for byte in touched {
            match runs.last_mut() {
                Some((start, len)) if *start + u64::from(*len) == byte => *len += 1,
                _ => runs.push((byte, 1)),
            }
        }
        runs.into_iter()
            .map(|(addr, bytes)| match lane_ops[0] {
                ThreadOp::Load { .. } => ThreadOp::Load { addr, bytes },
                _ => ThreadOp::Store { addr, bytes },
            })
            .collect()
    }

    fn arb_op() -> impl Strategy<Value = ThreadOp> {
        prop_oneof![
            (1u32..6).prop_map(|count| ThreadOp::Alu { count }),
            (0u64..4096, 1u32..300).prop_map(|(addr, bytes)| ThreadOp::Load { addr, bytes }),
            (0u64..4096, 1u32..16).prop_map(|(addr, bytes)| ThreadOp::Store { addr, bytes }),
            (1u32..4).prop_map(|count| ThreadOp::Shared { count }),
            (0u64..4096, any::<bool>()).prop_map(|(node_addr, triangle)| {
                ThreadOp::HsuRayIntersect {
                    node_addr,
                    bytes: 64,
                    triangle,
                }
            }),
            (1u32..64, 0u64..4096, any::<bool>()).prop_map(|(dim, candidate_addr, euclid)| {
                ThreadOp::HsuDistance {
                    metric: if euclid {
                        Metric::Euclidean
                    } else {
                        Metric::Angular
                    },
                    dim,
                    candidate_addr,
                }
            }),
            (0u64..4096, 1u32..80).prop_map(|(node_addr, separators)| {
                ThreadOp::HsuKeyCompare {
                    node_addr,
                    separators,
                }
            }),
        ]
    }

    /// Thread logs for kernels of 1..130 threads (a partial last warp most
    /// of the time), each thread an op log of divergent length, sometimes
    /// empty, mixing every op class; the warps flagged in `dead` have every
    /// thread empty.
    fn arb_threads() -> impl Strategy<Value = Vec<ThreadTrace>> {
        (
            prop::collection::vec(prop::collection::vec(arb_op(), 0..12), 1..130),
            any::<u8>(),
        )
            .prop_map(|(threads, dead)| {
                threads
                    .into_iter()
                    .enumerate()
                    .map(|(i, ops)| {
                        let mut t = ThreadTrace::new();
                        if dead & (1 << (i / WARP_WIDTH)) == 0 {
                            for op in ops {
                                t.push(op);
                            }
                        }
                        t
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every field the simulator reads — masks, classes, run summaries,
        /// the per-lane ops of HSU instructions and the merged ranges of
        /// Load/Store instructions — matches the 32-slot oracle. Per-lane
        /// `Alu`/`Shared` counts are not compared: the packed form no longer
        /// stores them (their `max_run` and `weighted` are).
        #[test]
        fn predecoded_warps_decode_to_the_reference_packing(threads in arb_threads()) {
            let k = kernel_of("packing", threads.clone());
            let want = reference_slots(&threads);
            prop_assert_eq!(k.warp_count(), want.len());
            for (w, reference) in k.warps().zip(&want) {
                prop_assert_eq!(w.len(), reference.len());
                for (pc, (mask, lanes)) in reference.iter().enumerate() {
                    let (instr, ops) = w.get(pc);
                    prop_assert_eq!(instr.active_mask, *mask);
                    prop_assert_eq!(ops.len(), instr.op_count());
                    let active = lanes.iter().flatten();
                    if instr.class.is_memory() {
                        let lane_ops: Vec<ThreadOp> = active.clone().copied().collect();
                        prop_assert_eq!(ops.to_vec(), merged_by_bytes(&lane_ops));
                    } else if !instr.class.is_run() {
                        let mut decoded = vec![None; WARP_WIDTH];
                        for (lane, op) in lanes_of(instr.active_mask).zip(ops) {
                            decoded[lane] = Some(*op);
                        }
                        prop_assert_eq!(&decoded, lanes);
                    }
                    // The header summaries equal what the issue path used
                    // to recompute from the 32 slots.
                    let runs = active.clone().map(|op| match op {
                        ThreadOp::Alu { count } | ThreadOp::Shared { count } => *count,
                        _ => 1,
                    });
                    prop_assert_eq!(Some(instr.class), active.clone().next().map(|op| op.class()));
                    prop_assert!(active.clone().all(|op| op.class() == instr.class));
                    prop_assert_eq!(instr.max_run, runs.clone().max().unwrap_or(1));
                    prop_assert_eq!(instr.weighted, runs.map(u64::from).sum::<u64>());
                }
            }
        }

        /// The packed form equals the thread-form packer it replaced, warp
        /// by warp (with each Load/Store instruction's lane ops merged into
        /// ranges), and its v3 stream is a fixed point of write → read →
        /// write.
        #[test]
        fn packed_form_matches_the_thread_form_packer(threads in arb_threads()) {
            let k = kernel_of("packing", threads.clone());
            let want = thread_form_warps(&threads);
            prop_assert_eq!(k.warp_count(), want.len());
            prop_assert_eq!(k.thread_count(), threads.len());
            let mut expected_total = 0u64;
            for (w, (headers, pool)) in k.warps().zip(&want) {
                prop_assert_eq!(w.len(), headers.len());
                let mut at = 0;
                for (pc, &(mask, class, max_run, weighted)) in headers.iter().enumerate() {
                    let (instr, ops) = w.get(pc);
                    prop_assert_eq!(
                        (instr.active_mask, instr.class, instr.max_run, instr.weighted),
                        (mask, class, max_run, weighted)
                    );
                    let lanes = mask.count_ones() as usize;
                    if class.is_memory() {
                        prop_assert_eq!(ops.to_vec(), merged_by_bytes(&pool[at..at + lanes]));
                    } else if !class.is_run() {
                        prop_assert_eq!(ops, &pool[at..at + lanes]);
                    }
                    at += lanes;
                    expected_total += weighted;
                }
                prop_assert_eq!(at, pool.len());
            }
            prop_assert_eq!(k.total_instructions(), expected_total);

            let mut first = Vec::new();
            crate::trace_io::write_trace(&k, &mut first).unwrap();
            let back = crate::trace_io::read_trace(first.as_slice()).unwrap();
            prop_assert_eq!(&back, &k);
            let mut second = Vec::new();
            crate::trace_io::write_trace(&back, &mut second).unwrap();
            prop_assert_eq!(first, second);
        }
    }
}
