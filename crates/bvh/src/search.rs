//! Point searches and ray traversal over a [`Bvh2`], reporting their
//! stack traversal to a [`TraversalObserver`].

use crate::bvh2::{Bvh2, NodeContent};
use crate::primitive::{PointPrimitive, TrianglePrimitive};
use hsu_geometry::{Ray, TriangleHit, Vec3};

/// A search result: primitive id and squared distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Dataset id of the found point.
    pub id: u32,
    /// Squared Euclidean distance to the query.
    pub distance_squared: f32,
}

/// Work counters from one traversal, gathered as its [`TraversalObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Internal nodes visited (each is one ray-box `RAY_INTERSECT`, testing
    /// both children's boxes).
    pub nodes_visited: u64,
    /// Leaf nodes reached.
    pub leaves_visited: u64,
    /// Primitive tests performed at leaves (distance tests / triangle tests).
    pub primitive_tests: u64,
    /// Maximum traversal-stack occupancy observed.
    pub max_stack_depth: usize,
}

/// Hooks through which the stack traversals —
/// [`Bvh2::radius_search_observed`], [`crate::Bvh4::radius_search_observed`]
/// and [`Bvh2::intersect_ray_observed`] — report each step, in order. Every
/// method defaults to a no-op and is statically dispatched;
/// [`TraversalStats`] counts the work and the BVH-NN, RTIndeX and render
/// trace generators record the same steps as thread events.
#[allow(unused_variables)]
pub trait TraversalObserver {
    /// A node is popped off the traversal stack, which held `depth` entries
    /// counting it.
    fn pop(&mut self, depth: usize) {}

    /// Internal `node` tested all its child boxes with one `RAY_INTERSECT`
    /// and pushed `pushed` internal children on the stack.
    fn node(&mut self, node: u32, pushed: u32) {}

    /// A leaf is reached; its primitive tests follow.
    fn leaf(&mut self) {}

    /// One primitive test: `slot` in the primitive-index permutation, whose
    /// primitive has dataset id `id`.
    fn primitive(&mut self, slot: u32, id: u32) {}
}

impl TraversalObserver for TraversalStats {
    fn pop(&mut self, depth: usize) {
        self.max_stack_depth = self.max_stack_depth.max(depth);
    }

    fn node(&mut self, _: u32, _: u32) {
        self.nodes_visited += 1;
    }

    fn leaf(&mut self) {
        self.leaves_visited += 1;
    }

    fn primitive(&mut self, _: u32, _: u32) {
        self.primitive_tests += 1;
    }
}

/// The leaf step of both radius searches: tests the points in the leaf's
/// `range` of the primitive permutation against the ball of squared radius
/// `r2` around `query`, appending the hits to `out`.
pub(crate) fn test_points<O: TraversalObserver>(
    prims: &[PointPrimitive],
    prim_indices: &[u32],
    range: std::ops::Range<u32>,
    query: Vec3,
    r2: f32,
    observer: &mut O,
    out: &mut Vec<Neighbor>,
) {
    observer.leaf();
    for s in range {
        let prim = &prims[prim_indices[s as usize] as usize];
        observer.primitive(s, prim.id);
        let d2 = (prim.position - query).length_squared();
        if d2 <= r2 {
            out.push(Neighbor {
                id: prim.id,
                distance_squared: d2,
            });
        }
    }
}

impl Bvh2 {
    /// Finds all points within `radius` of `query` — the RTNN radius-search
    /// formulation of nearest neighbours (§V-A). Returns the neighbours and
    /// the traversal work counters.
    ///
    /// `prims` must be the primitive slice the BVH was built over.
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

    /// [`Bvh2::radius_search_counted`], reporting every step of the
    /// traversal to `observer` (see [`TraversalObserver`]) instead of
    /// counting it.
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
            // The leaf boxes are already dilated by the search radius, so the
            // box test is a plain containment test of the query point —
            // exactly the ray-with-tiny-extent trick RTNN plays, minus the
            // reformulation.
            match node.content {
                NodeContent::Internal { left, right } => {
                    // One RAY_INTERSECT tests both children; descend into the
                    // ones whose dilated box can contain candidates.
                    let mut pushed = 0;
                    for child in [left, right] {
                        let cb = &self.nodes[child as usize].aabb;
                        if cb.distance_squared_to(query) <= r2 {
                            stack.push(child);
                            pushed += 1;
                        }
                    }
                    observer.node(i, pushed);
                }
                NodeContent::Leaf { start, count } => {
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
        }
        out
    }

    /// [`Bvh2::radius_search_counted`] without the statistics.
    pub fn radius_search(
        &self,
        prims: &[PointPrimitive],
        query: Vec3,
        radius: f32,
    ) -> Vec<Neighbor> {
        self.radius_search_counted(prims, query, radius).0
    }

    /// The `k` nearest neighbours within `radius` of `query`, closest first —
    /// RTNN's truncated-K formulation (KNN as a radius search that keeps the
    /// K best hits).
    ///
    /// Returns fewer than `k` when the ball holds fewer points.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    fn radius_knn(
        &self,
        prims: &[PointPrimitive],
        query: Vec3,
        radius: f32,
        k: usize,
    ) -> (Vec<Neighbor>, TraversalStats) {
        assert!(k > 0, "k must be positive");
        let mut stats = TraversalStats::default();
        // Max-heap of the K best (distance bits are order-preserving for
        // non-negative floats).
        let mut best: std::collections::BinaryHeap<(u32, u32)> =
            std::collections::BinaryHeap::new();
        if self.nodes.is_empty() {
            return (Vec::new(), stats);
        }
        let mut r2 = radius * radius;
        let mut stack: Vec<u32> = vec![0];
        // Scratch for the candidate-parallel leaf refine, reused across
        // leaves. Distances never depend on the shrinking ball — only the
        // sequential accept test does — so the whole bucket can be computed
        // in one SoA batch before the heap updates replay in prim order.
        let mut positions: Vec<hsu_geometry::Vec3> = Vec::new();
        let mut leaf_ids: Vec<u32> = Vec::new();
        let mut dists: Vec<f32> = Vec::new();
        while let Some(i) = stack.pop() {
            stats.max_stack_depth = stats.max_stack_depth.max(stack.len() + 1);
            let node = &self.nodes[i as usize];
            match node.content {
                NodeContent::Internal { left, right } => {
                    stats.nodes_visited += 1;
                    for child in [left, right] {
                        if self.nodes[child as usize].aabb.distance_squared_to(query) <= r2 {
                            stack.push(child);
                        }
                    }
                }
                NodeContent::Leaf { start, count } => {
                    stats.leaves_visited += 1;
                    positions.clear();
                    leaf_ids.clear();
                    for s in start..start + count {
                        let prim = &prims[self.prim_indices[s as usize] as usize];
                        positions.push(prim.position);
                        leaf_ids.push(prim.id);
                    }
                    dists.clear();
                    hsu_geometry::batch::vec3_distance_squared(query, &positions, &mut dists);
                    stats.primitive_tests += leaf_ids.len() as u64;
                    for (&id, &d2) in leaf_ids.iter().zip(&dists) {
                        if d2 <= r2 {
                            best.push((d2.to_bits(), id));
                            if best.len() > k {
                                best.pop();
                                // Shrink the search ball to the current Kth
                                // distance (RTNN's truncation optimization).
                                if let Some(&(w, _)) = best.peek() {
                                    r2 = f32::from_bits(w);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<Neighbor> = best
            .into_iter()
            .map(|(d, id)| Neighbor {
                id,
                distance_squared: f32::from_bits(d),
            })
            .collect();
        out.sort_by(|a, b| a.distance_squared.total_cmp(&b.distance_squared));
        (out, stats)
    }

    /// The `k` nearest neighbours within `radius` of each query, closest
    /// first — RTNN's truncated-K formulation (KNN as a radius search that
    /// keeps the K best hits); fewer than `k` when the ball holds fewer
    /// points. Each query is answered on its own, so batch results are
    /// bit-identical to per-query results in any order.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn radius_knn_batch(
        &self,
        prims: &[PointPrimitive],
        queries: &[Vec3],
        radius: f32,
        k: usize,
    ) -> Vec<(Vec<Neighbor>, TraversalStats)> {
        queries
            .iter()
            .map(|&q| self.radius_knn(prims, q, radius, k))
            .collect()
    }

    /// Best-first nearest-neighbour search using box distance as the
    /// admissible bound. Returns `None` for an empty hierarchy.
    pub fn nearest(
        &self,
        prims: &[PointPrimitive],
        query: Vec3,
    ) -> Option<(Neighbor, TraversalStats)> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut stats = TraversalStats::default();
        let mut best: Option<Neighbor> = None;
        // Monotone map of non-negative f32 to u64 so the binary heap can
        // order node bounds without a float wrapper type.
        fn key(d: f32) -> u64 {
            d.to_bits() as u64
        }
        let mut pq: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
            std::collections::BinaryHeap::new();
        pq.push(std::cmp::Reverse((
            key(self.nodes[0].aabb.distance_squared_to(query)),
            0,
        )));
        while let Some(std::cmp::Reverse((bound_bits, i))) = pq.pop() {
            let bound = f32::from_bits(bound_bits as u32);
            if let Some(b) = best {
                if bound > b.distance_squared {
                    break;
                }
            }
            stats.max_stack_depth = stats.max_stack_depth.max(pq.len() + 1);
            let node = &self.nodes[i as usize];
            match node.content {
                NodeContent::Internal { left, right } => {
                    stats.nodes_visited += 1;
                    for child in [left, right] {
                        let d = self.nodes[child as usize].aabb.distance_squared_to(query);
                        if best.is_none_or(|b| d <= b.distance_squared) {
                            pq.push(std::cmp::Reverse((key(d), child)));
                        }
                    }
                }
                NodeContent::Leaf { start, count } => {
                    stats.leaves_visited += 1;
                    for s in start..start + count {
                        let prim = &prims[self.prim_indices[s as usize] as usize];
                        stats.primitive_tests += 1;
                        let d2 = (prim.position - query).length_squared();
                        if best.is_none_or(|b| d2 < b.distance_squared) {
                            best = Some(Neighbor {
                                id: prim.id,
                                distance_squared: d2,
                            });
                        }
                    }
                }
            }
        }
        best.map(|b| (b, stats))
    }

    /// Closest-hit ray traversal over triangle primitives, front-to-back with
    /// `t_max` shrinking — the classic RT-core workload.
    pub fn intersect_ray(
        &self,
        prims: &[TrianglePrimitive],
        ray: &Ray,
    ) -> (Option<(u32, TriangleHit)>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let closest = self.intersect_ray_observed(prims, ray, &mut stats);
        (closest, stats)
    }

    /// [`Bvh2::intersect_ray`], reporting every step of the traversal to
    /// `observer` (see [`TraversalObserver`]) instead of counting it.
    ///
    /// The walk starts at the root without a separate test of the root
    /// box: the root's child boxes (or its triangles) are tested anyway, and
    /// the root box bounds them all, so the answer is the same.
    pub fn intersect_ray_observed<O: TraversalObserver>(
        &self,
        prims: &[TrianglePrimitive],
        ray: &Ray,
        observer: &mut O,
    ) -> Option<(u32, TriangleHit)> {
        let mut closest: Option<(u32, TriangleHit)> = None;
        if self.nodes.is_empty() {
            return closest;
        }
        let mut t_max = f32::INFINITY;
        let mut stack: Vec<u32> = vec![0];
        while let Some(i) = stack.pop() {
            observer.pop(stack.len() + 1);
            let node = &self.nodes[i as usize];
            match node.content {
                NodeContent::Internal { left, right } => {
                    // Test both children, push far-then-near so the near child
                    // pops first (the "sort closest hit" the unit performs).
                    let lh = ray.intersect_aabb(&self.nodes[left as usize].aabb, t_max);
                    let rh = ray.intersect_aabb(&self.nodes[right as usize].aabb, t_max);
                    let pushed = match (lh, rh) {
                        (Some(l), Some(r)) => {
                            if l.t_near <= r.t_near {
                                stack.push(right);
                                stack.push(left);
                            } else {
                                stack.push(left);
                                stack.push(right);
                            }
                            2
                        }
                        (Some(_), None) => {
                            stack.push(left);
                            1
                        }
                        (None, Some(_)) => {
                            stack.push(right);
                            1
                        }
                        (None, None) => 0,
                    };
                    observer.node(i, pushed);
                }
                NodeContent::Leaf { start, count } => {
                    observer.leaf();
                    for s in start..start + count {
                        let prim = &prims[self.prim_indices[s as usize] as usize];
                        observer.primitive(s, prim.id);
                        if let Some(hit) = prim.triangle.intersect(ray, t_max) {
                            t_max = hit.t();
                            closest = Some((prim.id, hit));
                        }
                    }
                }
            }
        }
        closest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LbvhBuilder, SahBuilder};
    use hsu_geometry::Triangle;
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
    fn radius_search_matches_brute_force() {
        let prims = random_points(400, 11);
        let bvh = LbvhBuilder::default().build(&prims);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for _ in 0..50 {
            let q = Vec3::new(
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            );
            let r = 0.25f32;
            let mut got: Vec<u32> = bvh
                .radius_search(&prims, q, r)
                .iter()
                .map(|n| n.id)
                .collect();
            got.sort_unstable();
            let mut expect: Vec<u32> = prims
                .iter()
                .filter(|p| (p.position - q).length_squared() <= r * r)
                .map(|p| p.id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let prims = random_points(300, 5);
        for builder in ["lbvh", "sah"] {
            let bvh = match builder {
                "lbvh" => LbvhBuilder::default().build(&prims),
                _ => SahBuilder::default().build(&prims),
            };
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
            for _ in 0..40 {
                let q = Vec3::new(
                    rng.gen_range(-2.5..2.5),
                    rng.gen_range(-2.5..2.5),
                    rng.gen_range(-2.5..2.5),
                );
                let (got, _) = bvh.nearest(&prims, q).unwrap();
                let expect = prims
                    .iter()
                    .map(|p| (p.id, (p.position - q).length_squared()))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                assert_eq!(got.id, expect.0, "{builder}: query {q}");
            }
        }
    }

    #[test]
    fn radius_knn_matches_brute_force_and_truncates() {
        let prims = random_points(500, 31);
        let bvh = LbvhBuilder::default().build(&prims);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(32);
        for _ in 0..25 {
            let q = Vec3::new(
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            );
            let r = 1.0f32;
            let k = 5;
            let (got, _) = bvh.radius_knn(&prims, q, r, k);
            // Brute force within the same ball, truncated to K.
            let mut expect: Vec<(f32, u32)> = prims
                .iter()
                .filter_map(|p| {
                    let d2 = (p.position - q).length_squared();
                    (d2 <= r * r).then_some((d2, p.id))
                })
                .collect();
            expect.sort_by(|a, b| a.0.total_cmp(&b.0));
            expect.truncate(k);
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                assert!((g.distance_squared - e.0).abs() < 1e-6, "{got:?}");
            }
        }
    }

    #[test]
    fn radius_knn_batch_matches_per_query_search() {
        let prims = random_points(700, 41);
        let bvh = LbvhBuilder::default().build(&prims);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let queries: Vec<Vec3> = (0..9)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                )
            })
            .collect();
        let batched = bvh.radius_knn_batch(&prims, &queries, 0.8, 4);
        assert_eq!(batched.len(), queries.len());
        for (&q, (hits, stats)) in queries.iter().zip(&batched) {
            let (solo_hits, solo_stats) = bvh.radius_knn(&prims, q, 0.8, 4);
            assert_eq!(solo_stats, *stats);
            assert_eq!(solo_hits.len(), hits.len());
            for (a, b) in solo_hits.iter().zip(hits) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.distance_squared.to_bits(), b.distance_squared.to_bits());
            }
        }
    }

    #[test]
    fn radius_knn_shrinking_ball_prunes_work() {
        let prims = random_points(2000, 33);
        let bvh = LbvhBuilder::default().build(&prims);
        let q = Vec3::ZERO;
        let (_, knn_stats) = bvh.radius_knn(&prims, q, 3.0, 3);
        let (_, full_stats) = bvh.radius_search_counted(&prims, q, 3.0);
        assert!(
            knn_stats.primitive_tests < full_stats.primitive_tests,
            "truncation must prune: {} vs {}",
            knn_stats.primitive_tests,
            full_stats.primitive_tests
        );
    }

    #[test]
    fn traversal_stats_reflect_culling() {
        let prims = random_points(512, 2);
        let bvh = LbvhBuilder::default().build(&prims);
        let (_, stats) = bvh.radius_search_counted(&prims, Vec3::ZERO, 0.2);
        // The BVH must cull most of the 511 internal nodes.
        assert!(stats.nodes_visited < 300, "visited {}", stats.nodes_visited);
        assert!(stats.primitive_tests < 512);
        assert!(stats.max_stack_depth > 0);
        // Paper §VI-C: fewer than 200 distance tests per query on 3-D sets.
        assert!(
            stats.primitive_tests < 200,
            "tests {}",
            stats.primitive_tests
        );
    }

    #[test]
    fn empty_bvh_searches() {
        let prims: Vec<PointPrimitive> = Vec::new();
        let bvh = LbvhBuilder::default().build(&prims);
        assert!(bvh.radius_search(&prims, Vec3::ZERO, 1.0).is_empty());
        assert!(bvh.nearest(&prims, Vec3::ZERO).is_none());
    }

    #[test]
    fn ray_traversal_finds_closest_triangle() {
        // A corridor of parallel quads; the ray must report the nearest.
        let mut tris = Vec::new();
        for (i, z) in [1.0f32, 2.0, 3.0, 4.0].iter().enumerate() {
            tris.push(TrianglePrimitive {
                id: i as u32,
                triangle: Triangle::new(
                    Vec3::new(-1.0, -1.0, *z),
                    Vec3::new(3.0, -1.0, *z),
                    Vec3::new(-1.0, 3.0, *z),
                ),
            });
        }
        let bvh = LbvhBuilder::default().max_leaf_size(1).build(&tris);
        let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let (hit, stats) = bvh.intersect_ray(&tris, &ray);
        let (id, h) = hit.expect("must hit the corridor");
        assert_eq!(id, 0);
        assert!((h.t() - 1.0).abs() < 1e-5);
        assert!(stats.primitive_tests >= 1);

        // A ray missing everything.
        let miss = Ray::new(Vec3::new(50.0, 50.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let (hit, _) = bvh.intersect_ray(&tris, &miss);
        assert!(hit.is_none());
    }
}
