//! The HSU instruction set (paper Table I).
//!
//! Each instruction is a CISC operation: it receives per-thread operands
//! through the register file, fetches its node data from the L1 via the warp
//! buffer's FIFO access queue, performs the computation in the unified
//! datapath, and writes up to four result registers.

use crate::config::HsuConfig;
use hsu_geometry::point::Metric;

/// Operation selector for the unified datapath.
///
/// `RayIntersect` further resolves to the ray-box or ray-triangle operating
/// mode once the fetched node's kind is known (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HsuOpcode {
    /// Baseline RT instruction: one ray-triangle or up to four ray-box tests.
    RayIntersect,
    /// Squared-Euclidean-distance beat over `euclid_width` lanes (HSU
    /// extension).
    PointEuclid,
    /// Dot-product + candidate-norm beat over half as many lanes (HSU
    /// extension).
    PointAngular,
    /// Up to `key_compare_width` (36 by default) parallel key/separator
    /// comparisons (HSU extension).
    KeyCompare,
}

/// One HSU instruction as issued by a single thread.
///
/// A 32-thread warp instruction carries up to 32 of these (one per active
/// lane); the warp buffer gathers each lane's node data before the warp is
/// scheduled into the single-lane pipeline.
///
/// # Examples
///
/// ```
/// use hsu_core::isa::{HsuInstruction, HsuOpcode};
/// let beat = HsuInstruction::point_euclid(0x4000, 64, true);
/// assert_eq!(beat.opcode, HsuOpcode::PointEuclid);
/// assert!(beat.accumulate);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HsuInstruction {
    /// Operation selector.
    pub opcode: HsuOpcode,
    /// Byte address of the node / candidate data to fetch.
    pub node_ptr: u64,
    /// Bytes the CISC fetch reads from that address.
    pub fetch_bytes: u64,
    /// Multi-beat accumulate flag (paper §IV-F). Only meaningful for the two
    /// distance opcodes: while set, the partial sum stays in the datapath's
    /// accumulator and the arbiter locks scheduling to the issuing sub-core.
    pub accumulate: bool,
}

impl HsuInstruction {
    /// A `POINT_EUCLID` beat.
    pub fn point_euclid(candidate_ptr: u64, fetch_bytes: u64, accumulate: bool) -> Self {
        HsuInstruction {
            opcode: HsuOpcode::PointEuclid,
            node_ptr: candidate_ptr,
            fetch_bytes,
            accumulate,
        }
    }

    /// A `POINT_ANGULAR` beat.
    pub fn point_angular(candidate_ptr: u64, fetch_bytes: u64, accumulate: bool) -> Self {
        HsuInstruction {
            opcode: HsuOpcode::PointAngular,
            node_ptr: candidate_ptr,
            fetch_bytes,
            accumulate,
        }
    }

    /// Expands a full `dim`-dimensional distance computation into its beat
    /// sequence, exactly as the compiler does (§III-B/IV-F): every beat but
    /// the last carries `accumulate = 1`; candidate data advances by the beat
    /// fetch size.
    pub fn distance_sequence(
        cfg: &HsuConfig,
        metric: Metric,
        candidate_ptr: u64,
        dim: usize,
    ) -> Vec<HsuInstruction> {
        let width = cfg.width_for(metric);
        let beats = cfg.beats_for(metric, dim);
        let beat_bytes = (width * std::mem::size_of::<f32>()) as u64;
        (0..beats)
            .map(|b| {
                let remaining = dim - b * width;
                let lanes = remaining.min(width);
                let bytes = (lanes * std::mem::size_of::<f32>()) as u64;
                let ptr = candidate_ptr + b as u64 * beat_bytes;
                let accumulate = b + 1 < beats;
                match metric {
                    Metric::Euclidean => HsuInstruction::point_euclid(ptr, bytes, accumulate),
                    Metric::Angular => HsuInstruction::point_angular(ptr, bytes, accumulate),
                }
            })
            .collect()
    }
}

/// Per-thread results returned through the register file.
#[derive(Debug, Clone, PartialEq)]
pub enum HsuResult {
    /// Ray-box: up to four child pointers sorted by closest hit, `None` for
    /// misses (a null pointer in hardware).
    BoxHits {
        /// `(child ptr, entry distance)` pairs, closest first.
        sorted: Vec<Option<(u64, f32)>>,
    },
    /// Ray-triangle: hit status, id, and the undivided distance ratio.
    TriangleHit {
        /// `true` if the ray intersected the triangle.
        hit: bool,
        /// Identifier of the tested triangle.
        triangle_id: u32,
        /// Hit distance numerator (valid when `hit`).
        t_num: f32,
        /// Hit distance denominator (valid when `hit`).
        t_denom: f32,
    },
    /// Euclid beat result. `None` while accumulating (nothing is written to
    /// the result buffer), the completed scalar on the final beat.
    EuclidSum(Option<f32>),
    /// Angular beat result: `(dot_sum, norm_sum)` on the final beat.
    AngularSums(Option<(f32, f32)>),
    /// Key-compare bit vector: bit *i* set iff `key >= separator[i]`.
    KeyMask {
        /// Result bits, LSB = first separator.
        bits: u64,
        /// Number of separators compared.
        count: u32,
    },
}

impl HsuResult {
    /// For a `KeyMask`, the index of the child to descend to: the number of
    /// separators `<= key`, i.e. the population count of the mask.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a `KeyMask`.
    pub fn key_child_index(&self) -> usize {
        match self {
            HsuResult::KeyMask { bits, .. } => bits.count_ones() as usize,
            other => panic!("key_child_index on non-KeyMask result {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_sequence_sets_accumulate_on_all_but_last() {
        let cfg = HsuConfig::default();
        let seq = HsuInstruction::distance_sequence(&cfg, Metric::Angular, 0x1000, 65);
        assert_eq!(seq.len(), 9);
        for (i, ins) in seq.iter().enumerate() {
            assert_eq!(ins.accumulate, i + 1 < 9, "beat {i}");
            assert_eq!(ins.opcode, HsuOpcode::PointAngular);
        }
        // First 8 beats fetch 32 B, the last fetches the single leftover lane.
        assert_eq!(seq[0].fetch_bytes, 32);
        assert_eq!(seq[8].fetch_bytes, 4);
        // Addresses stride by the full beat width.
        assert_eq!(seq[1].node_ptr - seq[0].node_ptr, 32);
    }

    #[test]
    fn single_beat_sequence_never_accumulates() {
        let cfg = HsuConfig::default();
        let seq = HsuInstruction::distance_sequence(&cfg, Metric::Euclidean, 0, 3);
        assert_eq!(seq.len(), 1);
        assert!(!seq[0].accumulate);
        assert_eq!(seq[0].fetch_bytes, 12);
    }

    #[test]
    fn key_child_index_counts_bits() {
        let r = HsuResult::KeyMask {
            bits: 0b1011,
            count: 4,
        };
        assert_eq!(r.key_child_index(), 3);
    }

    #[test]
    #[should_panic(expected = "non-KeyMask")]
    fn key_child_index_rejects_other_variants() {
        HsuResult::EuclidSum(None).key_child_index();
    }
}
