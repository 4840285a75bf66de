//! Collapsing a binary BVH into the 4-wide hierarchy the RT unit's four-box
//! `RAY_INTERSECT` is designed for.
//!
//! The paper notes (§VI-E) that BVH-NN's *binary* tree leaves half the
//! ray-box hardware idle — "a BVH4 tree would likely have better performance
//! in our unit for this reason". This module provides that ablation: a BVH4
//! built by greedily merging each BVH2 node with its grandchildren.
//!
//! Every node is exactly four child slots — four AABBs plus four child
//! references padded to the full width — so a node occupies one fixed
//! footprint no matter how many slots are populated:
//!
//! ```text
//! 4 × AABB   (6 × f32)   = 96 B
//! 4 × child ref (u64)    = 32 B   (tag ∣ index ∣ leaf start/count)
//!                         ------
//!                          128 B  = one wide-node RAY_INTERSECT fetch
//! ```
//!
//! That fixed stride is what the trace lowering charges
//! (`BVH_NODES_BASE + node * 128`). Traversal results are bit-exact versus
//! [`Bvh2`]: the child boxes are copied verbatim (same f32 bits, same
//! dilated-box tests) and the leaf ranges address the same primitive
//! permutation, so radius search returns the same neighbor set —
//! `tests/layout_equivalence.rs` proves it over random point clouds.

use crate::bvh2::{Bvh2, NodeContent};
use crate::primitive::PointPrimitive;
use crate::search::{test_points, Neighbor, TraversalObserver, TraversalStats};
use hsu_geometry::{Aabb, Vec3};

/// One child slot of a [`WideNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WideChild {
    /// Unpopulated slot (the padding that buys the fixed stride).
    #[default]
    Empty,
    /// Internal child: index into the node array.
    Node(u32),
    /// Leaf child: a range into the primitive-index permutation.
    Leaf {
        /// First slot in the primitive-index array.
        start: u32,
        /// Number of primitives.
        count: u32,
    },
}

/// One node of a [`Bvh4`]: four AABB slots and four child references,
/// tested by a single `RAY_INTERSECT`. Populated slots come first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideNode {
    /// Child bounds, slot-aligned with `children`. Empty slots hold
    /// [`Aabb::EMPTY`], which fails every box test.
    pub aabbs: [Aabb; 4],
    /// Child references, slot-aligned with `aabbs`.
    pub children: [WideChild; 4],
}

impl WideNode {
    const EMPTY: WideNode = WideNode {
        aabbs: [Aabb::EMPTY; 4],
        children: [WideChild::Empty; 4],
    };
}

/// A 4-wide bounding volume hierarchy sharing its primitive permutation with
/// the [`Bvh2`] it was collapsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Bvh4 {
    nodes: Vec<WideNode>,
    prim_indices: Vec<u32>,
}

impl Bvh4 {
    /// Collapses a binary BVH. Each internal node adopts its grandchildren
    /// when both children are internal, producing nodes of up to 4 children.
    /// Nodes are numbered in pre-order and slots keep the BVH2's
    /// left-to-right order.
    pub fn from_bvh2(bvh2: &Bvh2) -> Self {
        if bvh2.nodes().is_empty() {
            return Bvh4 {
                nodes: Vec::new(),
                prim_indices: Vec::new(),
            };
        }
        let mut out = Bvh4 {
            nodes: Vec::new(),
            prim_indices: bvh2.prim_indices().to_vec(),
        };
        // Root: if the BVH2 root is a leaf, wrap it in a single-slot node.
        match bvh2.root().content {
            NodeContent::Leaf { start, count } => {
                let mut root = WideNode::EMPTY;
                root.aabbs[0] = bvh2.root().aabb;
                root.children[0] = WideChild::Leaf { start, count };
                out.nodes.push(root);
            }
            NodeContent::Internal { .. } => {
                out.collapse(bvh2, 0);
            }
        }
        out
    }

    /// Recursively emits the wide node for BVH2 internal node `b2`,
    /// returning its index.
    fn collapse(&mut self, bvh2: &Bvh2, b2: u32) -> u32 {
        // Gather up to four BVH2 descendants: split internal children once.
        let NodeContent::Internal { left, right } = bvh2.nodes()[b2 as usize].content else {
            unreachable!("collapse called on a leaf");
        };
        let mut slots = [0u32; 4];
        let mut used = 0;
        for child in [left, right] {
            match bvh2.nodes()[child as usize].content {
                NodeContent::Internal {
                    left: gl,
                    right: gr,
                } => {
                    slots[used] = gl;
                    slots[used + 1] = gr;
                    used += 2;
                }
                NodeContent::Leaf { .. } => {
                    slots[used] = child;
                    used += 1;
                }
            }
        }

        let index = self.nodes.len() as u32;
        self.nodes.push(WideNode::EMPTY);
        for (slot, &s) in slots[..used].iter().enumerate() {
            let node = &bvh2.nodes()[s as usize];
            let child = match node.content {
                NodeContent::Leaf { start, count } => WideChild::Leaf { start, count },
                NodeContent::Internal { .. } => WideChild::Node(self.collapse(bvh2, s)),
            };
            let wide = &mut self.nodes[index as usize];
            wide.aabbs[slot] = node.aabb;
            wide.children[slot] = child;
        }
        index
    }

    /// The node array (root at index 0).
    #[inline]
    pub fn nodes(&self) -> &[WideNode] {
        &self.nodes
    }

    /// The shared primitive permutation.
    #[inline]
    pub fn prim_indices(&self) -> &[u32] {
        &self.prim_indices
    }

    /// Radius search equivalent to [`Bvh2::radius_search_counted`] (same
    /// neighbor set, output order may differ), but each visited node tests
    /// its four child boxes with one `RAY_INTERSECT`.
    pub fn radius_search_counted(
        &self,
        prims: &[PointPrimitive],
        query: Vec3,
        radius: f32,
    ) -> (Vec<Neighbor>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let out = self.radius_search_observed(prims, query, radius, &mut stats);
        (out, stats)
    }

    /// [`Bvh4::radius_search_counted`], reporting every step of the
    /// traversal to `observer` (see [`TraversalObserver`]) instead of
    /// counting it. Each node's test is reported before the leaves it
    /// surfaced are refined, in slot order.
    pub fn radius_search_observed<O: TraversalObserver>(
        &self,
        prims: &[PointPrimitive],
        query: Vec3,
        radius: f32,
        observer: &mut O,
    ) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let r2 = radius * radius;
        let mut stack: Vec<u32> = vec![0];
        while let Some(i) = stack.pop() {
            observer.pop(stack.len() + 1);
            let node = &self.nodes[i as usize];
            let mut pushed = 0;
            let mut leaves = [(0u32, 0u32); 4];
            let mut hit_leaves = 0;
            for slot in 0..4 {
                // Empty slots hold Aabb::EMPTY and fail like any culled box.
                if node.aabbs[slot].distance_squared_to(query) > r2 {
                    continue;
                }
                match node.children[slot] {
                    WideChild::Empty => {}
                    WideChild::Node(index) => {
                        stack.push(index);
                        pushed += 1;
                    }
                    WideChild::Leaf { start, count } => {
                        leaves[hit_leaves] = (start, count);
                        hit_leaves += 1;
                    }
                }
            }
            observer.node(i, pushed);
            for &(start, count) in &leaves[..hit_leaves] {
                let range = start..start + count;
                test_points(
                    prims,
                    &self.prim_indices,
                    range,
                    query,
                    r2,
                    observer,
                    &mut out,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LbvhBuilder;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<PointPrimitive> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                PointPrimitive::new(
                    i as u32,
                    Vec3::new(
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                    ),
                    0.25,
                )
            })
            .collect()
    }

    #[test]
    fn collapse_matches_bvh2_radius_results_bitwise() {
        let prims = random_points(500, 21);
        let bvh2 = LbvhBuilder::default().build(&prims);
        let bvh4 = Bvh4::from_bvh2(&bvh2);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..40 {
            let q = Vec3::new(
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            );
            let mut a = bvh2.radius_search_counted(&prims, q, 0.4).0;
            let mut b = bvh4.radius_search_counted(&prims, q, 0.4).0;
            a.sort_by_key(|n| (n.distance_squared.to_bits(), n.id));
            b.sort_by_key(|n| (n.distance_squared.to_bits(), n.id));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn collapse_visits_fewer_nodes() {
        let prims = random_points(1000, 23);
        let bvh2 = LbvhBuilder::default().build(&prims);
        let bvh4 = Bvh4::from_bvh2(&bvh2);
        let q = Vec3::ZERO;
        let (_, s2) = bvh2.radius_search_counted(&prims, q, 0.5);
        let (_, s4) = bvh4.radius_search_counted(&prims, q, 0.5);
        assert!(
            s4.nodes_visited < s2.nodes_visited,
            "bvh4 {} vs bvh2 {}",
            s4.nodes_visited,
            s2.nodes_visited
        );
    }

    #[test]
    fn populated_slots_come_first_and_empty_slots_are_empty_boxes() {
        let prims = random_points(500, 3);
        let bvh4 = Bvh4::from_bvh2(&LbvhBuilder::default().build(&prims));
        for node in bvh4.nodes() {
            let used = node
                .children
                .iter()
                .take_while(|c| **c != WideChild::Empty)
                .count();
            assert!(used >= 2, "an internal BVH2 node has two children");
            for slot in used..4 {
                assert_eq!(node.children[slot], WideChild::Empty);
                assert_eq!(node.aabbs[slot], Aabb::EMPTY);
            }
        }
    }

    #[test]
    fn single_leaf_tree_collapses() {
        let prims = vec![PointPrimitive::new(0, Vec3::ZERO, 0.5)];
        let bvh4 = Bvh4::from_bvh2(&LbvhBuilder::default().build(&prims));
        assert_eq!(bvh4.nodes().len(), 1);
        let (hits, _) = bvh4.radius_search_counted(&prims, Vec3::ZERO, 1.0);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_tree_collapses() {
        let prims: Vec<PointPrimitive> = Vec::new();
        let bvh4 = Bvh4::from_bvh2(&LbvhBuilder::default().build(&prims));
        assert!(bvh4.nodes().is_empty());
        let (hits, _) = bvh4.radius_search_counted(&prims, Vec3::ZERO, 1.0);
        assert!(hits.is_empty());
    }
}
