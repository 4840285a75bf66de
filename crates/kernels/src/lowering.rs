//! Instruction lowerings: how one logical operation becomes trace ops.
//!
//! The baseline sequences model what a V100 executes for the same work and
//! are the inverse of the paper's trace post-processor: where the HSU run
//! has one CISC instruction, the baseline run has the loads, FMAs and
//! reductions NVCC would have emitted.

use hsu_core::node::TriangleNode;
use hsu_geometry::point::Metric;
use hsu_sim::trace::{ThreadOp, ThreadTrace};

use crate::layout::{BVH2_NODE_BYTES, LINE_BYTES};

/// Which lowering a trace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// HSU CISC instructions for node tests / distances / key compares.
    Hsu,
    /// SIMT expansion on a GPU without RT hardware (the Fig. 9 baseline).
    Baseline,
    /// Baseline with the offloadable operations removed (Fig. 7's probe).
    BaselineStripped,
}

impl Variant {
    /// All variants.
    pub const ALL: [Variant; 3] = [Variant::Hsu, Variant::Baseline, Variant::BaselineStripped];
}

/// Emits one full N-dimensional distance computation by a single thread.
///
/// * HSU: one multi-beat `POINT_EUCLID`/`POINT_ANGULAR` (fetches the vector).
/// * Baseline: the vector load plus `2 * dim` FMA-class instructions
///   (subtract+FMA per element, or mul+two FMAs for angular) and the final
///   scalar fold.
pub fn emit_distance(
    t: &mut ThreadTrace,
    variant: Variant,
    metric: Metric,
    dim: u32,
    candidate_addr: u64,
) {
    match variant {
        Variant::Hsu => {
            t.push(ThreadOp::HsuDistance {
                metric,
                dim,
                candidate_addr,
            });
        }
        Variant::Baseline => {
            // Vectorized loads, each a separate instruction and L1 access:
            // LDG.128 per four aligned elements; a trailing vec3/vec1 tail
            // (e.g. a 3-D point) splits into LDG.64 + LDG.32 as NVCC emits.
            let total = dim * 4;
            let mut off = 0;
            while off < total {
                let rem = total - off;
                let bytes = if rem >= 16 {
                    16
                } else if rem >= 8 {
                    8
                } else {
                    4
                };
                t.push(ThreadOp::Load {
                    addr: candidate_addr + off as u64,
                    bytes,
                });
                off += bytes;
            }
            let per_elem = match metric {
                Metric::Euclidean => 2, // sub + fma
                Metric::Angular => 3,   // dot fma + norm fma + mul
            };
            t.push(ThreadOp::Alu {
                count: dim * per_elem + 2,
            });
        }
        Variant::BaselineStripped => {}
    }
}

/// Emits a warp-cooperative distance (GGNN-style: 32 lanes partition the
/// dimensions, then tree-reduce with shuffles). Call for *each lane* of the
/// warp with the same arguments — the trace builder coalesces the loads.
///
/// `lane` selects the 4-byte-stride slice this lane loads.
pub fn emit_coop_distance(
    t: &mut ThreadTrace,
    variant: Variant,
    metric: Metric,
    dim: u32,
    candidate_addr: u64,
    lane: u32,
) {
    match variant {
        Variant::Hsu => {
            // With the HSU the whole warp's distance is one instruction from
            // one lane; callers route it to lane 0 only.
            if lane == 0 {
                t.push(ThreadOp::HsuDistance {
                    metric,
                    dim,
                    candidate_addr,
                });
            }
        }
        Variant::Baseline => {
            let elems_per_lane = dim.div_ceil(32).max(1);
            // The warp cooperatively streams the whole vector: lanes fan out
            // across its cache lines so one coalesced warp load covers every
            // line (`ceil(dim*4/128)` L1 accesses after coalescing).
            let lines = (dim as u64 * 4).div_ceil(LINE_BYTES).max(1);
            let addr =
                candidate_addr + (lane as u64 % lines) * LINE_BYTES + (lane as u64 / lines) * 4;
            t.push(ThreadOp::Load { addr, bytes: 4 });
            let per_elem = match metric {
                Metric::Euclidean => 2,
                Metric::Angular => 3,
            };
            // Per-lane FMA partials + 5-step shuffle reduction, plus the
            // extra load-issue slots of the unrolled streaming loop (the
            // compact single-Load above stands in for `lines` instructions).
            t.push(ThreadOp::Alu {
                count: elems_per_lane * per_elem + 5 + (lines as u32 - 1),
            });
        }
        Variant::BaselineStripped => {}
    }
}

/// Emits a BVH2 internal-node test (two child slab tests + closest-first
/// ordering of the hits).
///
/// * HSU: one box-mode `RAY_INTERSECT` fetching the 64-byte node.
/// * Baseline: the node load plus ~24 ALU ops (per box: 6 subtract, 6
///   multiply, 6 min/max, compare; ×2 boxes, plus the swap).
pub fn emit_bvh2_node_test(t: &mut ThreadTrace, variant: Variant, node_addr: u64) {
    match variant {
        Variant::Hsu => {
            t.push(ThreadOp::HsuRayIntersect {
                node_addr,
                bytes: BVH2_NODE_BYTES as u32,
                triangle: false,
            });
        }
        Variant::Baseline => {
            // SASS fetches the node as four LDG.128s (separate instructions,
            // so separate L1 accesses) — the coalescing the HSU's CISC fetch
            // wins back (Fig. 12).
            for chunk in 0..BVH2_NODE_BYTES / 16 {
                t.push(ThreadOp::Load {
                    addr: node_addr + chunk * 16,
                    bytes: 16,
                });
            }
            t.push(ThreadOp::Alu { count: 24 });
        }
        Variant::BaselineStripped => {}
    }
}

/// Emits a ray/triangle leaf test (RTIndeX's baseline key probe).
pub fn emit_triangle_test(t: &mut ThreadTrace, variant: Variant, node_addr: u64) {
    match variant {
        Variant::Hsu => {
            t.push(ThreadOp::HsuRayIntersect {
                node_addr,
                bytes: TriangleNode::BYTE_SIZE as u32,
                triangle: true,
            });
        }
        Variant::Baseline => {
            // Three LDG.128s for the nine vertex floats + id.
            for chunk in 0..TriangleNode::BYTE_SIZE / 16 {
                t.push(ThreadOp::Load {
                    addr: node_addr + chunk * 16,
                    bytes: 16,
                });
            }
            // Woop test: translate (9), shear (12), edge functions (9),
            // determinant + distance (6).
            t.push(ThreadOp::Alu { count: 36 });
        }
        Variant::BaselineStripped => {}
    }
}

/// Emits a B-tree separator comparison over `separators` values.
///
/// * HSU: one `KEY_COMPARE` chain (fetches all separators once).
/// * Baseline: the separator load plus a compare+branch per separator
///   scanned (on average half the node before the scalar scan exits).
pub fn emit_key_compare(t: &mut ThreadTrace, variant: Variant, node_addr: u64, separators: u32) {
    match variant {
        Variant::Hsu => {
            t.push(ThreadOp::HsuKeyCompare {
                node_addr,
                separators,
            });
        }
        Variant::Baseline => {
            // Rodinia's kernel scans a node block-parallel: the lanes stream
            // every separator (one coalesced fetch of the whole node), then a
            // ballot/prefix pick of the child plus a block sync.
            t.push(ThreadOp::Load {
                addr: node_addr,
                bytes: separators * 4,
            });
            t.push(ThreadOp::Alu {
                count: (separators / 8).max(2) + 6,
            });
            // Ballot + prefix-scan of the compare results and the two block
            // syncs bracketing the level (Rodinia's findK structure).
            t.push(ThreadOp::Shared { count: 6 });
        }
        Variant::BaselineStripped => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_sim::trace::ThreadOp;

    #[test]
    fn hsu_distance_is_one_op() {
        let mut t = ThreadTrace::new();
        emit_distance(&mut t, Variant::Hsu, Metric::Euclidean, 96, 0x100);
        assert_eq!(t.ops().len(), 1);
        assert!(t.ops()[0].is_hsu());
    }

    #[test]
    fn baseline_distance_expands() {
        let mut t = ThreadTrace::new();
        emit_distance(&mut t, Variant::Baseline, Metric::Euclidean, 96, 0x100);
        // 96 dims = 24 LDG.128s plus the FMA chain.
        assert_eq!(t.ops().len(), 25);
        assert!(matches!(t.ops()[0], ThreadOp::Load { bytes: 16, .. }));
        assert!(matches!(t.ops()[24], ThreadOp::Alu { count: 194 }));
    }

    #[test]
    fn stripped_emits_nothing() {
        let mut t = ThreadTrace::new();
        emit_distance(&mut t, Variant::BaselineStripped, Metric::Angular, 64, 0);
        emit_bvh2_node_test(&mut t, Variant::BaselineStripped, 0);
        emit_key_compare(&mut t, Variant::BaselineStripped, 0, 255);
        emit_triangle_test(&mut t, Variant::BaselineStripped, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn coop_distance_hsu_only_lane_zero() {
        for lane in 0..32 {
            let mut t = ThreadTrace::new();
            emit_coop_distance(&mut t, Variant::Hsu, Metric::Angular, 200, 0x80, lane);
            assert_eq!(t.ops().len(), usize::from(lane == 0));
        }
    }

    #[test]
    fn coop_distance_baseline_covers_every_line() {
        // dim 96 = 384 B = 3 lines; the 32 lanes must fan out over all three
        // so the coalesced warp access touches the whole vector.
        let base = 0x1000u64;
        let mut lines = std::collections::HashSet::new();
        for lane in 0..32 {
            let mut t = ThreadTrace::new();
            emit_coop_distance(&mut t, Variant::Baseline, Metric::Euclidean, 96, base, lane);
            let ThreadOp::Load { addr, .. } = t.ops()[0] else {
                panic!()
            };
            assert!(
                addr >= base && addr < base + 384,
                "lane {lane} out of vector"
            );
            lines.insert((addr - base) / LINE_BYTES);
        }
        assert_eq!(lines.len(), 3, "all three lines covered");
    }

    #[test]
    fn angular_costs_more_alu_than_euclid() {
        let mut e = ThreadTrace::new();
        let mut a = ThreadTrace::new();
        emit_distance(&mut e, Variant::Baseline, Metric::Euclidean, 64, 0);
        emit_distance(&mut a, Variant::Baseline, Metric::Angular, 64, 0);
        let count = |t: &ThreadTrace| {
            t.ops()
                .iter()
                .find_map(|op| match op {
                    ThreadOp::Alu { count } => Some(*count),
                    _ => None,
                })
                .expect("baseline emits an ALU chain")
        };
        assert!(count(&a) > count(&e));
    }
}
