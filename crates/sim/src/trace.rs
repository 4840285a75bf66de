//! The kernel trace format: per-thread operation logs packed into warps.
//!
//! Workload kernels run *functionally* (producing real answers) while
//! recording one [`ThreadTrace`] per CUDA thread. [`KernelTrace::warps`]
//! packs threads into 32-lane warps and converts the logs into warp
//! instructions with divergence-aware active masks: at each step the next
//! operation of every unfinished lane is taken, lanes are grouped by
//! operation class, and one warp instruction is emitted per distinct class —
//! the serialization penalty branch divergence costs a real SIMT machine.

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
    /// A `KEY_COMPARE` chain on the HSU (`ceil(separators / 36)` datapath
    /// operations, one node fetch).
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

/// The operation log of one thread.
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
/// operation class, and the issue-time summaries the SM needs. The active
/// lanes' operations live densely in the owning [`WarpTrace`]'s op pool
/// ([`WarpTrace::ops`]): the *n*-th op belongs to the *n*-th set bit of
/// `active_mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpInstruction {
    /// Lanes participating (bit *i* = lane *i*); never zero.
    pub active_mask: u32,
    /// The operation class every active lane shares.
    pub class: OpClass,
    /// Longest Alu/Shared run across the active lanes (lockstep SIMT
    /// executes the longest lane's count); 1 for every other class.
    pub max_run: u32,
    /// Expanded instruction weight: Alu/Shared runs count their per-lane
    /// totals, every other class counts its active lanes.
    pub weighted: u64,
    /// Pool index of the first active lane's op.
    offset: usize,
}

impl WarpInstruction {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
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

/// The instruction stream of one warp: instruction headers in program
/// order plus one dense pool of active-lane operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    instructions: Vec<WarpInstruction>,
    ops: Vec<ThreadOp>,
}

impl WarpTrace {
    /// Number of warp instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the warp has no instruction.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction headers in program order.
    pub fn instructions(&self) -> &[WarpInstruction] {
        &self.instructions
    }

    /// Instruction `pc`'s header and its active lanes' operations, in lane
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `pc >= self.len()`.
    pub fn get(&self, pc: usize) -> (&WarpInstruction, &[ThreadOp]) {
        let instr = &self.instructions[pc];
        let end = instr.offset + instr.active_mask.count_ones() as usize;
        (instr, &self.ops[instr.offset..end])
    }

    /// Instruction `pc`'s active lanes' operations, in lane order.
    ///
    /// # Panics
    ///
    /// Panics if `pc >= self.len()`.
    pub fn ops(&self, pc: usize) -> &[ThreadOp] {
        self.get(pc).1
    }
}

/// A kernel launch: one trace per thread, packed into warps on demand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTrace {
    name: String,
    threads: Vec<ThreadTrace>,
}

impl KernelTrace {
    /// Creates an empty kernel trace.
    pub fn new(name: impl Into<String>) -> Self {
        KernelTrace {
            name: name.into(),
            threads: Vec::new(),
        }
    }

    /// The kernel's name (reported in stats).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one thread's log.
    pub fn push_thread(&mut self, thread: ThreadTrace) {
        self.threads.push(thread);
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The per-thread operation logs.
    pub fn threads(&self) -> &[ThreadTrace] {
        &self.threads
    }

    /// Total operations across all threads (Alu/Shared runs count as `count`
    /// instructions).
    pub fn total_instructions(&self) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.ops())
            .map(|op| match op {
                ThreadOp::Alu { count } | ThreadOp::Shared { count } => *count as u64,
                _ => 1,
            })
            .sum()
    }

    /// Packs threads into warps of 32 consecutive lanes and lowers each
    /// warp's logs into divergence-grouped [`WarpInstruction`]s.
    ///
    /// At each step the next operation of every unfinished lane is taken;
    /// the class of the lowest pending lane is emitted first, with every
    /// pending lane of that class, then the next class of the lowest lane
    /// still pending, until the step is exhausted (a deterministic
    /// reconvergence order).
    pub fn warps(&self) -> Vec<WarpTrace> {
        self.threads
            .chunks(WARP_WIDTH)
            .map(|chunk| {
                let mut cursors = [0usize; WARP_WIDTH];
                let mut out = WarpTrace {
                    instructions: Vec::new(),
                    ops: Vec::with_capacity(chunk.iter().map(|t| t.ops().len()).sum()),
                };
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
                        let offset = out.ops.len();
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
                            out.ops.push(op);
                            cursors[l] += 1;
                        }
                        pending &= !mask;
                        out.instructions.push(WarpInstruction {
                            active_mask: mask,
                            class,
                            max_run,
                            weighted,
                            offset,
                        });
                    }
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let mut k = KernelTrace::new("uniform");
        for i in 0..64u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 1 });
            t.push(ThreadOp::Load {
                addr: i * 4,
                bytes: 4,
            });
            k.push_thread(t);
        }
        let warps = k.warps();
        assert_eq!(warps.len(), 2);
        for w in &warps {
            assert_eq!(w.len(), 2);
            assert_eq!(w.instructions()[0].active_mask, u32::MAX);
            assert_eq!(w.instructions()[0].class, OpClass::Alu);
            assert_eq!(w.instructions()[1].class, OpClass::Load);
            assert_eq!(w.ops(1).len(), 32);
        }
    }

    #[test]
    fn divergent_classes_serialize() {
        let mut k = KernelTrace::new("divergent");
        for i in 0..4 {
            let mut t = ThreadTrace::new();
            if i % 2 == 0 {
                t.push(ThreadOp::Alu { count: 1 });
            } else {
                t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            k.push_thread(t);
        }
        let warps = k.warps();
        assert_eq!(warps.len(), 1);
        // One step, two classes -> two serialized warp instructions.
        assert_eq!(warps[0].len(), 2);
        assert_eq!(warps[0].instructions()[0].active_mask, 0b0101);
        assert_eq!(warps[0].instructions()[1].active_mask, 0b1010);
        let (instr, ops) = warps[0].get(1);
        let lanes: Vec<usize> = lanes_of(instr.active_mask).collect();
        assert_eq!(lanes, vec![1, 3]);
        assert_eq!(ops, [ThreadOp::Load { addr: 0, bytes: 4 }; 2]);
    }

    #[test]
    fn early_exit_lanes_go_inactive() {
        let mut k = KernelTrace::new("ragged");
        for i in 0..3 {
            let mut t = ThreadTrace::new();
            for _ in 0..=i {
                t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            k.push_thread(t);
        }
        let warps = k.warps();
        let masks: Vec<u32> = warps[0]
            .instructions()
            .iter()
            .map(|i| i.active_mask)
            .collect();
        assert_eq!(masks, vec![0b111, 0b110, 0b100]);
    }

    #[test]
    fn instruction_count_expands_runs() {
        let mut k = KernelTrace::new("count");
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 7 });
        t.push(ThreadOp::Load { addr: 0, bytes: 4 });
        k.push_thread(t);
        assert_eq!(k.total_instructions(), 8);
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
        }
    }

    #[test]
    fn issue_summaries_follow_the_lanes() {
        let mut k = KernelTrace::new("runs");
        for count in [3u32, 9, 1] {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count });
            t.push(ThreadOp::Load { addr: 0, bytes: 4 });
            k.push_thread(t);
        }
        let w = &k.warps()[0];
        let alu = w.instructions()[0];
        assert_eq!((alu.max_run, alu.weighted, alu.active_lanes()), (9, 13, 3));
        let load = w.instructions()[1];
        assert_eq!(
            (load.max_run, load.weighted, load.active_lanes()),
            (1, 3, 3)
        );
    }

    #[test]
    fn empty_threads_produce_no_instructions() {
        let mut k = KernelTrace::new("empty");
        k.push_thread(ThreadTrace::new());
        k.push_thread(ThreadTrace::new());
        let warps = k.warps();
        assert_eq!(warps.len(), 1);
        assert!(warps[0].is_empty());
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

    /// The packer as it was before warp instructions were pre-decoded: one
    /// 32-slot `Vec<Option<ThreadOp>>` per instruction. Kept as the oracle
    /// for [`KernelTrace::warps`].
    fn reference_warps(k: &KernelTrace) -> Vec<Vec<(u32, Vec<Option<ThreadOp>>)>> {
        k.threads()
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
            (1u32..64, 0u64..4096).prop_map(|(dim, candidate_addr)| ThreadOp::HsuDistance {
                metric: Metric::Angular,
                dim,
                candidate_addr,
            }),
            (0u64..4096, 1u32..80).prop_map(|(node_addr, separators)| {
                ThreadOp::HsuKeyCompare {
                    node_addr,
                    separators,
                }
            }),
        ]
    }

    /// Kernels of 1..100 threads (a partial last warp most of the time),
    /// each thread an op log of divergent length, sometimes empty, mixing
    /// every op class.
    fn arb_kernel() -> impl Strategy<Value = KernelTrace> {
        prop::collection::vec(prop::collection::vec(arb_op(), 0..12), 1..100).prop_map(|threads| {
            let mut k = KernelTrace::new("packing");
            for ops in threads {
                let mut t = ThreadTrace::new();
                for op in ops {
                    t.push(op);
                }
                k.push_thread(t);
            }
            k
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn predecoded_warps_decode_to_the_reference_packing(k in arb_kernel()) {
            let got = k.warps();
            let want = reference_warps(&k);
            prop_assert_eq!(got.len(), want.len());
            for (w, reference) in got.iter().zip(&want) {
                prop_assert_eq!(w.len(), reference.len());
                for (pc, (mask, lanes)) in reference.iter().enumerate() {
                    let (instr, ops) = w.get(pc);
                    prop_assert_eq!(instr.active_mask, *mask);
                    prop_assert_eq!(ops.len(), mask.count_ones() as usize);
                    let mut decoded = vec![None; WARP_WIDTH];
                    for (lane, op) in lanes_of(instr.active_mask).zip(ops) {
                        decoded[lane] = Some(*op);
                    }
                    prop_assert_eq!(&decoded, lanes);
                    // The header summaries equal what the issue path used
                    // to recompute from the 32 slots.
                    let active = lanes.iter().flatten();
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
    }
}
