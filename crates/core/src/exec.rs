//! Functional semantics of HSU instructions.
//!
//! These functions compute exactly what the datapath writes back to the
//! register file, given the operands from the register file and the node data
//! gathered by the warp buffer. They are pure and deterministic; the timing
//! model in `hsu-sim` wraps them with cycle accounting.

use crate::isa::HsuResult;
use crate::node::{BoxNode, KeyNode, TriangleNode};
use hsu_geometry::Ray;

/// Executes the ray-box operating mode: up to four slab tests plus the
/// closest-hit sort (§IV-B "Sort closest hit" stage).
///
/// Misses produce `None` slots ("null pointers"); hits are ordered by entry
/// distance, closest first. The output always has exactly
/// [`BoxNode::MAX_CHILDREN`] slots, matching the four fixed result registers.
pub fn execute_box(ray: &Ray, node: &BoxNode, t_max: f32) -> HsuResult {
    let mut hits: Vec<(u64, f32)> = node
        .children()
        .iter()
        .filter_map(|child| {
            ray.intersect_aabb(&child.aabb, t_max)
                .map(|h| (child.ptr, h.t_near))
        })
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut sorted: Vec<Option<(u64, f32)>> = hits.into_iter().map(Some).collect();
    sorted.resize(BoxNode::MAX_CHILDREN, None);
    HsuResult::BoxHits { sorted }
}

/// Executes the ray-triangle operating mode: one watertight test, returning
/// the undivided `t_num / t_denom` ratio (§IV-D).
pub fn execute_triangle(ray: &Ray, node: &TriangleNode, t_max: f32) -> HsuResult {
    match node.triangle.intersect(ray, t_max) {
        Some(hit) => HsuResult::TriangleHit {
            hit: true,
            triangle_id: node.triangle_id,
            t_num: hit.t_num,
            t_denom: hit.t_denom,
        },
        None => HsuResult::TriangleHit {
            hit: false,
            triangle_id: node.triangle_id,
            t_num: 0.0,
            t_denom: 1.0,
        },
    }
}

/// Executes `KEY_COMPARE`: compares `key` against up to `width` separators,
/// setting bit *i* when `key >= separator[i]` (paper Table I: "0 if the key
/// is less than the separator value and 1 otherwise").
///
/// # Panics
///
/// Panics if `width` exceeds 64 (the bit vector is modelled as a `u64`; the
/// hardware width is 36).
pub fn execute_key_compare(key: f32, node: &KeyNode, width: usize) -> HsuResult {
    assert!(
        width <= 64,
        "key-compare width {width} exceeds the 64-bit result model"
    );
    let mut bits = 0u64;
    let n = node.separators().len().min(width);
    for (i, &sep) in node.separators()[..n].iter().enumerate() {
        if key >= sep {
            bits |= 1 << i;
        }
    }
    HsuResult::KeyMask {
        bits,
        count: n as u32,
    }
}

/// The multi-beat accumulator (paper §IV-F).
///
/// While the accumulate operand bit is set, partial results stay in this
/// register instead of being written to the result buffer; the final beat
/// (accumulate = 0) drains it. One accumulator exists per datapath, which is
/// why the arbiter must lock out other sub-cores mid-sequence.
///
/// # Examples
///
/// ```
/// use hsu_core::exec::DistanceAccumulator;
/// let mut acc = DistanceAccumulator::default();
/// assert!(acc.euclid_beat(&[1.0, 2.0], &[3.0, 4.0], true).is_none());
/// let total = acc.euclid_beat(&[5.0], &[7.0], false).unwrap();
/// assert_eq!(total, 4.0 + 4.0 + 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DistanceAccumulator {
    dist_sum: f32,
    dot_sum: f32,
    norm_sum: f32,
}

impl DistanceAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes one Euclidean beat over this beat's lane slices.
    ///
    /// Returns `None` while accumulating; the total squared distance once the
    /// final beat (`accumulate = false`) executes, which also clears the
    /// accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn euclid_beat(&mut self, q: &[f32], c: &[f32], accumulate: bool) -> Option<f32> {
        assert_eq!(q.len(), c.len(), "beat lane counts must match");
        let partial: f32 = q.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
        self.dist_sum += partial;
        if accumulate {
            None
        } else {
            let total = self.dist_sum;
            *self = Self::default();
            Some(total)
        }
    }

    /// Executes one angular beat; returns `(dot_sum, norm_sum)` on the final
    /// beat.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn angular_beat(&mut self, q: &[f32], c: &[f32], accumulate: bool) -> Option<(f32, f32)> {
        assert_eq!(q.len(), c.len(), "beat lane counts must match");
        self.dot_sum += q.iter().zip(c).map(|(a, b)| a * b).sum::<f32>();
        self.norm_sum += c.iter().map(|x| x * x).sum::<f32>();
        if accumulate {
            None
        } else {
            let sums = (self.dot_sum, self.norm_sum);
            *self = Self::default();
            Some(sums)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BoxChild, NodeKind};
    use crate::HsuConfig;
    use hsu_geometry::point::{self, Metric};
    use hsu_geometry::{Aabb, Triangle, Vec3};

    fn make_box_node() -> BoxNode {
        // Four boxes along +x at distances 1, 3, 5 and one off-axis miss.
        let mk = |x0: f32| Aabb::new(Vec3::new(x0, -1.0, -1.0), Vec3::new(x0 + 1.0, 1.0, 1.0));
        BoxNode::new(vec![
            BoxChild {
                aabb: mk(5.0),
                ptr: 50,
                kind: NodeKind::Box,
            },
            BoxChild {
                aabb: mk(1.0),
                ptr: 10,
                kind: NodeKind::Box,
            },
            BoxChild {
                aabb: Aabb::new(Vec3::new(1.0, 5.0, 5.0), Vec3::new(2.0, 6.0, 6.0)),
                ptr: 99,
                kind: NodeKind::Box,
            },
            BoxChild {
                aabb: mk(3.0),
                ptr: 30,
                kind: NodeKind::Box,
            },
        ])
    }

    #[test]
    fn box_hits_sorted_closest_first_with_null_misses() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let HsuResult::BoxHits { sorted } = execute_box(&ray, &make_box_node(), f32::INFINITY)
        else {
            panic!("wrong variant")
        };
        let ptrs: Vec<_> = sorted.iter().map(|s| s.map(|(p, _)| p)).collect();
        assert_eq!(ptrs, vec![Some(10), Some(30), Some(50), None]);
        // Distances are monotone.
        let ts: Vec<f32> = sorted.iter().flatten().map(|(_, t)| *t).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn box_t_max_culls_far_children() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let HsuResult::BoxHits { sorted } = execute_box(&ray, &make_box_node(), 3.5) else {
            panic!("wrong variant")
        };
        let hits = sorted.iter().flatten().count();
        assert_eq!(hits, 2); // boxes at 1 and 3; the one at 5 culled
    }

    #[test]
    fn triangle_hit_and_miss() {
        let node = TriangleNode {
            triangle: Triangle::new(
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(1.0, 0.0, 2.0),
                Vec3::new(0.0, 1.0, 2.0),
            ),
            triangle_id: 7,
        };
        let hit_ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::new(0.0, 0.0, 1.0));
        match execute_triangle(&hit_ray, &node, f32::INFINITY) {
            HsuResult::TriangleHit {
                hit,
                triangle_id,
                t_num,
                t_denom,
            } => {
                assert!(hit);
                assert_eq!(triangle_id, 7);
                assert!((t_num / t_denom - 2.0).abs() < 1e-5);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let miss_ray = Ray::new(Vec3::new(5.0, 5.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        match execute_triangle(&miss_ray, &node, f32::INFINITY) {
            HsuResult::TriangleHit { hit, .. } => assert!(!hit),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn key_compare_bit_semantics() {
        let node = KeyNode::new(vec![10.0, 20.0, 30.0]);
        // key below all separators -> all zero -> child 0.
        let r = execute_key_compare(5.0, &node, 36);
        assert_eq!(r.key_child_index(), 0);
        // key between 20 and 30 -> two bits set -> child 2.
        let r = execute_key_compare(25.0, &node, 36);
        assert_eq!(r.key_child_index(), 2);
        // equality counts as >= (non-decreasing separators).
        let r = execute_key_compare(20.0, &node, 36);
        assert_eq!(r.key_child_index(), 2);
        // key above all -> child 3.
        let r = execute_key_compare(99.0, &node, 36);
        assert_eq!(r.key_child_index(), 3);
    }

    #[test]
    fn key_compare_width_truncates() {
        let node = KeyNode::new((0..40).map(|i| i as f32).collect());
        let HsuResult::KeyMask { count, .. } = execute_key_compare(100.0, &node, 36) else {
            panic!("wrong variant")
        };
        assert_eq!(count, 36);
    }

    #[test]
    fn accumulator_matches_reference_over_many_dims() {
        for dim in [1usize, 8, 15, 16, 17, 65, 96, 200, 784] {
            let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
            let c: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut acc = DistanceAccumulator::new();
            let mut result = None;
            let width = HsuConfig::default().width_for(Metric::Euclidean);
            let beats = dim.div_ceil(width);
            for b in 0..beats {
                let lo = b * width;
                let hi = (lo + width).min(dim);
                result = acc.euclid_beat(&q[lo..hi], &c[lo..hi], b + 1 < beats);
            }
            let expected = point::euclidean_squared(&q, &c);
            let got = result.expect("final beat must produce a value");
            assert!(
                (got - expected).abs() < 1e-3 * (1.0 + expected),
                "dim {dim}"
            );
            assert_eq!(
                acc,
                DistanceAccumulator::new(),
                "accumulator must clear after final beat"
            );
        }
    }

    #[test]
    fn angular_accumulator_matches_reference() {
        let dim = 65usize;
        let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
        let c: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut acc = DistanceAccumulator::new();
        let mut out = None;
        let width = HsuConfig::default().width_for(Metric::Angular);
        let beats = dim.div_ceil(width);
        for b in 0..beats {
            let lo = b * width;
            let hi = (lo + width).min(dim);
            out = acc.angular_beat(&q[lo..hi], &c[lo..hi], b + 1 < beats);
        }
        let (dot_sum, norm_sum) = out.unwrap();
        assert!((dot_sum - point::dot(&q, &c)).abs() < 1e-3);
        assert!((norm_sum - point::norm_squared(&c)).abs() < 1e-3);
    }

    #[test]
    fn accumulator_holds_partials_until_the_final_beat() {
        let mut acc = DistanceAccumulator::new();
        acc.euclid_beat(&[1.0], &[2.0], true);
        assert_ne!(acc, DistanceAccumulator::new());
        acc.euclid_beat(&[1.0], &[1.0], false);
        assert_eq!(acc, DistanceAccumulator::new());
    }
}
