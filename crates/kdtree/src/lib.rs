//! FLANN-style k-d trees for approximate nearest-neighbour search.
//!
//! The FLANN workload (§V-A) uses a k-d tree index: internal nodes split
//! N-dimensional space on a single axis ("only a single scalar subtraction
//! and comparison", §VI-F), and leaves hold candidate points whose distances
//! the HSU's `POINT_EUCLID` / `POINT_ANGULAR` instructions accelerate. This
//! crate provides:
//!
//! * [`KdTree`] — a single tree with variance-based axis selection and
//!   median splits,
//! * [`KdForest`] — FLANN's randomized multi-tree index (each tree picks a
//!   random axis among the highest-variance dimensions),
//! * exact backtracking search and approximate *best-bin-first* search with
//!   a bounded `checks` budget, both reporting their traversal counters
//!   ([`KdStats`]); the best-bin-first search also reports each step to a
//!   [`KdObserver`], which is how the FLANN kernel records its trace.
//!
//! # Examples
//!
//! ```
//! use hsu_geometry::point::{Metric, PointSet};
//! use hsu_kdtree::KdTree;
//!
//! let data = PointSet::from_rows(2, vec![0.0, 0.0, 1.0, 1.0, 4.0, 4.0]);
//! let tree = KdTree::build(&data, Metric::Euclidean);
//! let (nearest, _) = tree.nearest_exact(&data, &[0.9, 1.2]);
//! assert_eq!(nearest.unwrap().0, 1);
//! ```

#![warn(missing_docs)]

pub mod archive_io;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hsu_geometry::point::{Metric, PointSet};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Search-effort counters, gathered as the [`KdObserver`] of a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KdStats {
    /// Internal-node visits (one scalar compare each — the cheap traversal
    /// step the paper chose *not* to offload, §VI-F).
    pub splits_visited: u64,
    /// Leaves reached.
    pub leaves_visited: u64,
    /// Full distance computations performed (HSU-accelerable work).
    pub distance_tests: u64,
}

/// Hooks through which [`KdTree::knn_best_bin_first_observed`] reports
/// each step of its search, in order. Every method defaults to a no-op and
/// is statically dispatched; [`KdStats`] counts the work and the FLANN
/// trace generator records the same steps as thread events.
#[allow(unused_variables)]
pub trait KdObserver {
    /// The closest queued branch is popped from the frontier (also the pop
    /// that finds the `checks` budget spent).
    fn pop(&mut self) {}

    /// Split `node` is visited: one scalar compare picks the near child and
    /// the far child is pushed on the frontier.
    fn split(&mut self, node: u32) {}

    /// A leaf is reached and every point of `ids` is measured, in order.
    fn leaf(&mut self, ids: &[u32]) {}
}

impl KdObserver for KdStats {
    fn split(&mut self, _: u32) {
        self.splits_visited += 1;
    }

    fn leaf(&mut self, ids: &[u32]) {
        self.leaves_visited += 1;
        self.distance_tests += ids.len() as u64;
    }
}

/// One k-d tree node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KdNode {
    /// Axis-aligned split plane.
    Split {
        /// Dimension the plane splits.
        axis: u32,
        /// Points with `p[axis] < value` go left.
        value: f32,
        /// Left child index.
        left: u32,
        /// Right child index.
        right: u32,
    },
    /// A leaf holding `count` candidate indices starting at `start` in the
    /// permutation array.
    Leaf {
        /// First slot in the permutation array.
        start: u32,
        /// Number of candidates.
        count: u32,
    },
}

/// A single k-d tree over a [`PointSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    indices: Vec<u32>,
    metric: Metric,
    dim: usize,
    max_leaf: usize,
}

/// A neighbour candidate: `(point index, distance)`.
pub type KdNeighbor = (u32, f32);

impl KdTree {
    /// Builds a tree with deterministic axis selection (highest variance) and
    /// median splits. Leaves hold at most 8 points, FLANN's default bucket.
    pub fn build(data: &PointSet, metric: Metric) -> Self {
        Self::build_with(data, metric, 8, None)
    }

    /// Builds a tree with `max_leaf` bucket size; when `rng` is provided the
    /// split axis is drawn randomly from the five highest-variance dimensions
    /// (the FLANN randomized-forest rule).
    ///
    /// # Panics
    ///
    /// Panics if `max_leaf` is zero.
    pub fn build_with(
        data: &PointSet,
        metric: Metric,
        max_leaf: usize,
        mut rng: Option<&mut ChaCha8Rng>,
    ) -> Self {
        assert!(max_leaf > 0, "leaf bucket must hold at least one point");
        let mut tree = KdTree {
            nodes: Vec::new(),
            indices: (0..data.len() as u32).collect(),
            metric,
            dim: data.dim(),
            max_leaf,
        };
        if data.is_empty() {
            return tree;
        }
        tree.nodes.push(KdNode::Leaf { start: 0, count: 0 }); // root placeholder
        tree.split_range(data, 0, 0, data.len(), &mut rng);
        tree
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node array (root at index 0); exposed for the trace generators.
    pub fn nodes(&self) -> &[KdNode] {
        &self.nodes
    }

    /// The leaf-order permutation of point indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The metric the tree was built for.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    fn split_range(
        &mut self,
        data: &PointSet,
        node: usize,
        start: usize,
        end: usize,
        rng: &mut Option<&mut ChaCha8Rng>,
    ) {
        let n = end - start;
        if n <= self.max_leaf {
            self.nodes[node] = KdNode::Leaf {
                start: start as u32,
                count: n as u32,
            };
            return;
        }
        // Axis selection: compute per-dimension variance over the range.
        let mut mean = vec![0.0f64; self.dim];
        for &i in &self.indices[start..end] {
            for (m, &v) in mean.iter_mut().zip(data.point(i as usize)) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; self.dim];
        for &i in &self.indices[start..end] {
            for ((v, m), &x) in var.iter_mut().zip(&mean).zip(data.point(i as usize)) {
                let d = x as f64 - m;
                *v += d * d;
            }
        }
        let axis = match rng {
            Some(rng) => {
                // Random among the top-5 variance axes (FLANN's rule).
                let mut order: Vec<usize> = (0..self.dim).collect();
                order.sort_by(|&a, &b| var[b].total_cmp(&var[a]));
                let top = order[..order.len().min(5)].to_vec();
                top[rng.gen_range(0..top.len())]
            }
            None => (0..self.dim)
                .max_by(|&a, &b| var[a].total_cmp(&var[b]))
                .unwrap_or(0),
        };

        // Median split along the chosen axis.
        let mid = start + n / 2;
        self.indices[start..end].select_nth_unstable_by(n / 2, |&a, &b| {
            data.point(a as usize)[axis].total_cmp(&data.point(b as usize)[axis])
        });
        let split_value = data.point(self.indices[mid] as usize)[axis];

        // Degenerate guard: if every value equals the median the partition
        // may be empty on one side; fall back to a leaf split in half.
        if self.indices[start..mid].is_empty() || self.indices[mid..end].is_empty() {
            self.nodes[node] = KdNode::Leaf {
                start: start as u32,
                count: n as u32,
            };
            return;
        }

        let left = self.nodes.len() as u32;
        self.nodes.push(KdNode::Leaf { start: 0, count: 0 });
        let right = self.nodes.len() as u32;
        self.nodes.push(KdNode::Leaf { start: 0, count: 0 });
        self.nodes[node] = KdNode::Split {
            axis: axis as u32,
            value: split_value,
            left,
            right,
        };
        self.split_range(data, left as usize, start, mid, rng);
        self.split_range(data, right as usize, mid, end, rng);
    }

    /// Exact nearest neighbour by backtracking with plane-distance pruning.
    /// Only supported for the Euclidean metric (angular pruning bounds are
    /// not admissible on un-normalized planes); for angular data use
    /// [`KdTree::knn_best_bin_first`].
    ///
    /// Returns `None` for an empty tree.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension mismatches or the metric is angular.
    pub fn nearest_exact(&self, data: &PointSet, query: &[f32]) -> (Option<KdNeighbor>, KdStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert_eq!(
            self.metric,
            Metric::Euclidean,
            "exact backtracking requires the Euclidean metric"
        );
        let mut stats = KdStats::default();
        if self.nodes.is_empty() {
            return (None, stats);
        }
        let mut best: Option<KdNeighbor> = None;
        self.exact_descend(data, query, 0, &mut best, &mut stats);
        (best, stats)
    }

    fn exact_descend(
        &self,
        data: &PointSet,
        query: &[f32],
        node: u32,
        best: &mut Option<KdNeighbor>,
        stats: &mut KdStats,
    ) {
        match self.nodes[node as usize] {
            KdNode::Leaf { start, count } => {
                stats.leaves_visited += 1;
                for s in start..start + count {
                    let idx = self.indices[s as usize];
                    stats.distance_tests += 1;
                    let d = self.metric.distance(query, data.point(idx as usize));
                    if best.is_none_or(|(_, bd)| d < bd) {
                        *best = Some((idx, d));
                    }
                }
            }
            KdNode::Split {
                axis,
                value,
                left,
                right,
            } => {
                stats.splits_visited += 1;
                let diff = query[axis as usize] - value;
                let (near, far) = if diff < 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                self.exact_descend(data, query, near, best, stats);
                // Backtrack if the plane is closer than the best distance.
                if best.is_none_or(|(_, bd)| diff * diff < bd) {
                    self.exact_descend(data, query, far, best, stats);
                }
            }
        }
    }

    /// Approximate k-nearest-neighbour search with FLANN's best-bin-first
    /// strategy: descend greedily, queue the unexplored branches by plane
    /// distance, and stop after `checks` distance tests.
    ///
    /// Results are sorted closest-first. Works for both metrics (the queue
    /// priority uses the axis offset, which is a heuristic — not a bound —
    /// under the angular metric, as in FLANN).
    ///
    /// # Panics
    ///
    /// Panics if the query dimension mismatches or `k` is zero.
    pub fn knn_best_bin_first(
        &self,
        data: &PointSet,
        query: &[f32],
        k: usize,
        checks: usize,
    ) -> (Vec<KdNeighbor>, KdStats) {
        let mut stats = KdStats::default();
        let out = self.knn_best_bin_first_observed(data, query, k, checks, &mut stats);
        (out, stats)
    }

    /// [`KdTree::knn_best_bin_first`], reporting every step of the search
    /// to `observer` (see [`KdObserver`]) instead of counting it.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension mismatches or `k` is zero.
    pub fn knn_best_bin_first_observed<O: KdObserver>(
        &self,
        data: &PointSet,
        query: &[f32],
        k: usize,
        checks: usize,
        observer: &mut O,
    ) -> Vec<KdNeighbor> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert!(k > 0, "k must be positive");
        let mut results: BinaryHeap<(OrdF32, u32)> = BinaryHeap::new(); // max-heap by distance
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let mut frontier: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
        frontier.push(Reverse((OrdF32(0.0), 0)));
        let mut checked = 0usize;
        // Scratch for the candidate-parallel leaf refine, reused across
        // every leaf this search reaches.
        let mut rows: Vec<f32> = Vec::new();
        let mut pairs: Vec<(f32, f32)> = Vec::new();
        let mut dists: Vec<f32> = Vec::new();
        while let Some(Reverse((_, start_node))) = frontier.pop() {
            observer.pop();
            if checked >= checks {
                break;
            }
            // Greedy descent to a leaf, queueing far branches.
            let mut node = start_node;
            loop {
                match self.nodes[node as usize] {
                    KdNode::Split {
                        axis,
                        value,
                        left,
                        right,
                    } => {
                        observer.split(node);
                        let diff = query[axis as usize] - value;
                        let (near, far) = if diff < 0.0 {
                            (left, right)
                        } else {
                            (right, left)
                        };
                        frontier.push(Reverse((OrdF32(diff * diff), far)));
                        node = near;
                    }
                    KdNode::Leaf { start, count } => {
                        // The whole bucket's distances come from one
                        // gathered SoA batch (bit-identical to the scalar
                        // metric per candidate); the `checks` budget is
                        // only consulted between leaves, so batching the
                        // bucket changes neither results nor counters.
                        let ids = &self.indices[start as usize..(start + count) as usize];
                        observer.leaf(ids);
                        rows.clear();
                        hsu_geometry::batch::gather_rows(data.as_flat(), self.dim, ids, &mut rows);
                        dists.clear();
                        hsu_geometry::batch::metric_to_rows(
                            self.metric,
                            query,
                            &rows,
                            &mut pairs,
                            &mut dists,
                        );
                        checked += ids.len();
                        for (&idx, &d) in ids.iter().zip(&dists) {
                            results.push((OrdF32(d), idx));
                            if results.len() > k {
                                results.pop();
                            }
                        }
                        break;
                    }
                }
            }
        }
        let mut out: Vec<KdNeighbor> = results.into_iter().map(|(OrdF32(d), i)| (i, d)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }

    /// Approximate k-nearest-neighbour search for a flat batch of
    /// queries (`queries.len()` must be a multiple of the tree
    /// dimension). Each query is answered exactly as a standalone
    /// [`KdTree::knn_best_bin_first`] call would answer it, so batch
    /// results are bit-identical to per-query results in any order.
    ///
    /// # Panics
    ///
    /// Panics if the flat query buffer is not a whole number of
    /// `dim`-sized rows, or `k` is zero.
    pub fn knn_batch(
        &self,
        data: &PointSet,
        queries: &[f32],
        k: usize,
        checks: usize,
    ) -> Vec<(Vec<KdNeighbor>, KdStats)> {
        assert!(
            queries.len().is_multiple_of(self.dim.max(1)),
            "flat query buffer must be a whole number of rows"
        );
        queries
            .chunks_exact(self.dim)
            .map(|q| self.knn_best_bin_first(data, q, k, checks))
            .collect()
    }
}

/// A forest of randomized k-d trees searched jointly — FLANN's
/// high-dimensional index.
#[derive(Debug, Clone)]
pub struct KdForest {
    trees: Vec<KdTree>,
}

impl KdForest {
    /// Builds `n_trees` randomized trees with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_trees` is zero.
    pub fn build(data: &PointSet, metric: Metric, n_trees: usize, seed: u64) -> Self {
        assert!(n_trees > 0, "forest needs at least one tree");
        use rand::SeedableRng;
        let trees = (0..n_trees)
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(t as u64));
                KdTree::build_with(data, metric, 8, Some(&mut rng))
            })
            .collect();
        KdForest { trees }
    }

    /// The individual trees.
    pub fn trees(&self) -> &[KdTree] {
        &self.trees
    }

    /// Joint best-bin-first search: the `checks` budget is split evenly
    /// across trees and duplicate candidates are merged.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn knn(
        &self,
        data: &PointSet,
        query: &[f32],
        k: usize,
        checks: usize,
    ) -> (Vec<KdNeighbor>, KdStats) {
        assert!(k > 0, "k must be positive");
        let per_tree = (checks / self.trees.len()).max(1);
        let mut total = KdStats::default();
        let mut merged: Vec<KdNeighbor> = Vec::new();
        for tree in &self.trees {
            let (mut found, stats) = tree.knn_best_bin_first(data, query, k, per_tree);
            total.splits_visited += stats.splits_visited;
            total.leaves_visited += stats.leaves_visited;
            total.distance_tests += stats.distance_tests;
            merged.append(&mut found);
        }
        merged.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        merged.dedup_by_key(|n| n.0);
        merged.sort_by(|a, b| a.1.total_cmp(&b.1));
        merged.truncate(k);
        (merged, total)
    }
}

/// Total-ordered f32 wrapper for heap keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF32(f32);

impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        PointSet::from_rows(dim, data)
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let data = random_set(500, 4, 1);
        let tree = KdTree::build(&data, Metric::Euclidean);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            let q: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (got, stats) = tree.nearest_exact(&data, &q);
            let expect = data.nearest_brute_force(&q, Metric::Euclidean).unwrap();
            assert_eq!(got.unwrap().0 as usize, expect.0);
            // Pruning must do better than brute force.
            assert!(stats.distance_tests < 500);
        }
    }

    #[test]
    fn bbf_recall_is_high_with_enough_checks() {
        let data = random_set(1000, 8, 3);
        let tree = KdTree::build(&data, Metric::Euclidean);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut hits = 0;
        let total = 50;
        for _ in 0..total {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (approx, _) = tree.knn_best_bin_first(&data, &q, 1, 256);
            let exact = data.nearest_brute_force(&q, Metric::Euclidean).unwrap();
            if approx.first().map(|&(i, _)| i as usize) == Some(exact.0) {
                hits += 1;
            }
        }
        assert!(hits * 10 >= total * 8, "recall {hits}/{total} below 80%");
    }

    #[test]
    fn bbf_respects_checks_budget() {
        let data = random_set(2000, 8, 5);
        let tree = KdTree::build(&data, Metric::Euclidean);
        let q = vec![0.0f32; 8];
        let (_, stats) = tree.knn_best_bin_first(&data, &q, 5, 64);
        // The budget is enforced at leaf granularity (bucket size 8).
        assert!(stats.distance_tests <= 64 + 8);
    }

    #[test]
    fn knn_returns_sorted_unique() {
        let data = random_set(300, 4, 6);
        let tree = KdTree::build(&data, Metric::Euclidean);
        let (knn, _) = tree.knn_best_bin_first(&data, &[0.1, 0.2, -0.1, 0.0], 10, 200);
        assert_eq!(knn.len(), 10);
        assert!(knn.windows(2).all(|w| w[0].1 <= w[1].1));
        let mut ids: Vec<u32> = knn.iter().map(|n| n.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn knn_batch_matches_per_query_search() {
        for metric in [Metric::Euclidean, Metric::Angular] {
            let data = random_set(900, 12, 9);
            let tree = KdTree::build(&data, metric);
            let mut rng = ChaCha8Rng::seed_from_u64(10);
            let flat: Vec<f32> = (0..7 * 12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let batched = tree.knn_batch(&data, &flat, 5, 128);
            assert_eq!(batched.len(), 7);
            for (q, (hits, stats)) in flat.chunks_exact(12).zip(&batched) {
                let (solo_hits, solo_stats) = tree.knn_best_bin_first(&data, q, 5, 128);
                assert_eq!(solo_stats, *stats);
                assert_eq!(solo_hits.len(), hits.len());
                for (a, b) in solo_hits.iter().zip(hits) {
                    assert_eq!(a.0, b.0);
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn forest_beats_single_tree_recall() {
        let data = random_set(1500, 16, 7);
        let tree = KdTree::build(&data, Metric::Euclidean);
        let forest = KdForest::build(&data, Metric::Euclidean, 4, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (mut single, mut multi) = (0, 0);
        let total = 60;
        for _ in 0..total {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let exact = data.nearest_brute_force(&q, Metric::Euclidean).unwrap().0;
            let (s, _) = tree.knn_best_bin_first(&data, &q, 1, 128);
            let (m, _) = forest.knn(&data, &q, 1, 128);
            if s.first().map(|&(i, _)| i as usize) == Some(exact) {
                single += 1;
            }
            if m.first().map(|&(i, _)| i as usize) == Some(exact) {
                multi += 1;
            }
        }
        assert!(multi >= single, "forest {multi} < single tree {single}");
    }

    #[test]
    fn angular_metric_search_works() {
        let data = random_set(400, 8, 9);
        let tree = KdTree::build(&data, Metric::Angular);
        let (knn, _) = tree.knn_best_bin_first(&data, &[0.5; 8], 3, 400);
        assert_eq!(knn.len(), 3);
        // With an exhaustive budget BBF degenerates to brute force: exact.
        let exact = data.k_nearest_brute_force(&[0.5; 8], 3, Metric::Angular);
        assert_eq!(knn[0].0 as usize, exact[0].0);
    }

    #[test]
    fn empty_and_tiny_sets() {
        let empty = PointSet::empty(3);
        let tree = KdTree::build(&empty, Metric::Euclidean);
        assert_eq!(tree.nearest_exact(&empty, &[0.0; 3]).0, None);
        assert!(tree
            .knn_best_bin_first(&empty, &[0.0; 3], 1, 10)
            .0
            .is_empty());

        let one = PointSet::from_rows(3, vec![1.0, 2.0, 3.0]);
        let tree = KdTree::build(&one, Metric::Euclidean);
        let (n, _) = tree.nearest_exact(&one, &[0.0; 3]);
        assert_eq!(n.unwrap().0, 0);
    }

    #[test]
    fn duplicate_points_build() {
        let data = PointSet::from_rows(2, [1.0, 1.0].repeat(100));
        let tree = KdTree::build(&data, Metric::Euclidean);
        let (n, _) = tree.nearest_exact(&data, &[1.0, 1.0]);
        assert_eq!(n.unwrap().1, 0.0);
    }

    #[test]
    fn stats_accumulate_in_forest() {
        let data = random_set(500, 8, 10);
        let forest = KdForest::build(&data, Metric::Euclidean, 3, 11);
        let (_, stats) = forest.knn(&data, &[0.0; 8], 4, 90);
        assert!(stats.distance_tests > 0);
        assert!(stats.splits_visited > 0);
        assert_eq!(forest.trees().len(), 3);
    }
}
