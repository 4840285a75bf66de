//! The graph build as it was before [`HnswGraph::build`] cached edge
//! distances, slot notes and angular norms, kept verbatim as the oracle
//! the cached build must match byte for byte.
//!
//! Every prune here re-scores the whole list with the scalar metric and
//! re-runs the full diversity test, and each list is a growing `Vec` in the
//! graph's former layout ([`RefGraph`]), converted to an [`HnswGraph`] only
//! at the end. The
//! property test below builds both ways over adversarial point sets (exact
//! duplicates, all-identical points, zero vectors under the angular metric,
//! coarse grids full of distance ties) and compares the `GRAPH` archive
//! payloads, which fix every adjacency list in order.

use super::*;
use crate::archive_io::graph_to_chunk;
use proptest::prelude::*;

/// [`HnswGraph`] with its former layout: one `Vec` per node per layer.
#[derive(Debug)]
struct RefGraph {
    layers: Vec<Vec<Vec<u32>>>,
    node_levels: Vec<u8>,
    entry_point: u32,
    metric: Metric,
    config: GraphConfig,
}

impl Adjacency for RefGraph {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn list(&self, layer: usize, node: u32) -> &[u32] {
        &self.layers[layer][node as usize]
    }
}

impl RefGraph {
    /// The same graph in the current layout.
    fn into_graph(self) -> HnswGraph {
        let layers = self
            .layers
            .iter()
            .map(|lists| {
                let mut offsets = vec![0];
                let mut targets = Vec::new();
                for list in lists {
                    targets.extend_from_slice(list);
                    offsets.push(targets.len() as u32);
                }
                Layer { offsets, targets }
            })
            .collect();
        HnswGraph {
            layers,
            node_levels: self.node_levels,
            entry_point: self.entry_point,
            metric: self.metric,
            config: self.config,
        }
    }

    /// The pre-cache [`HnswGraph::build`].
    fn build(data: &PointSet, metric: Metric, config: GraphConfig, seed: u64) -> Self {
        assert!(
            !data.is_empty(),
            "cannot build a graph over an empty point set"
        );
        assert!(config.m > 0, "graph degree must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = data.len();

        // Draw levels up-front so the layer count is known.
        let levels: Vec<u8> = (0..n)
            .map(|_| {
                let mut l = 0u8;
                while l < 12 && rng.gen::<f64>() < 1.0 / config.level_base {
                    l += 1;
                }
                l
            })
            .collect();
        let max_level = *levels.iter().max().unwrap() as usize;
        let mut graph = RefGraph {
            layers: (0..=max_level).map(|_| vec![Vec::new(); n]).collect(),
            node_levels: levels,
            entry_point: 0,
            metric,
            config,
        };
        // Insert in index order; the running entry point is the
        // highest-level node inserted so far (standard HNSW bookkeeping, so
        // no node is ever searched above its own level).
        graph.entry_point = 0;
        for id in 1..n as u32 {
            graph.insert(data, id);
            if graph.node_levels[id as usize] > graph.node_levels[graph.entry_point as usize] {
                graph.entry_point = id;
            }
        }
        graph
    }

    fn insert(&mut self, data: &PointSet, id: u32) {
        let q = data.point(id as usize);
        let node_level = self.node_levels[id as usize] as usize;
        let entry_level = self.node_levels[self.entry_point as usize] as usize;
        let mut entry = self.entry_point;

        // Greedy descent on the entry's layers above the node's level.
        let mut stats = GraphStats::default();
        for l in ((node_level + 1)..=entry_level).rev() {
            entry = self.greedy_closest(data, q, entry, l, &mut stats);
        }
        // Connect on each layer from min(node, entry) level down to 0.
        for l in (0..=node_level.min(entry_level)).rev() {
            let (candidates, _) =
                self.layer_search(data, q, entry, l, self.config.ef_construction, &mut stats);
            // Standard HNSW: the base layer carries twice the degree, which
            // keeps outliers reachable after back-edge pruning.
            let m = if l == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            let chosen = self.select_neighbors_heuristic(data, &candidates, m);
            if let Some(&(best, _)) = candidates.first() {
                entry = best;
            }
            for &c in &chosen {
                self.layers[l][id as usize].push(c);
                let back = &mut self.layers[l][c as usize];
                back.push(id);
                // Prune overfull back-edge lists with the same heuristic.
                if back.len() > m {
                    let cp = data.point(c as usize);
                    let mut scored: Vec<(u32, f32)> = self.layers[l][c as usize]
                        .iter()
                        .map(|&b| (b, self.metric.distance(cp, data.point(b as usize))))
                        .collect();
                    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
                    let kept = self.select_neighbors_heuristic(data, &scored, m);
                    self.layers[l][c as usize] = kept;
                }
            }
        }
    }

    /// HNSW's diversity heuristic (Malkov & Yashunin, alg. 4): keep a
    /// candidate only if it is closer to the query point than to every
    /// already-kept neighbour, so edges bridge clusters instead of piling up
    /// inside one; pruned candidates back-fill remaining slots.
    fn select_neighbors_heuristic(
        &self,
        data: &PointSet,
        candidates_sorted: &[(u32, f32)],
        m: usize,
    ) -> Vec<u32> {
        let mut kept: Vec<u32> = Vec::with_capacity(m);
        let mut pruned: Vec<u32> = Vec::new();
        for &(c, dc) in candidates_sorted {
            if kept.len() >= m {
                break;
            }
            let cp = data.point(c as usize);
            let diverse = kept
                .iter()
                .all(|&r| self.metric.distance(cp, data.point(r as usize)) > dc);
            if diverse {
                kept.push(c);
            } else {
                pruned.push(c);
            }
        }
        // keepPrunedConnections: refill to m from the pruned list.
        for c in pruned {
            if kept.len() >= m {
                break;
            }
            kept.push(c);
        }
        kept
    }
}

/// Shapes of point set that stress ties and the angular zero-norm path.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Uniform in `[-1, 1)`.
    Uniform,
    /// Copies of a handful of distinct points: many exact distance ties.
    Duplicates,
    /// One point repeated `n` times (the zero vector half of the time).
    Identical,
    /// Uniform points with about a third replaced by the zero vector.
    Zeros,
    /// Coordinates from `{-1, 0, 1}`: a coarse grid full of equal distances.
    Grid,
}

fn point_set(shape: Shape, n: usize, dim: usize, seed: u64) -> PointSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let uniform = |rng: &mut ChaCha8Rng| -> Vec<f32> {
        (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    };
    let rows: Vec<Vec<f32>> = match shape {
        Shape::Uniform => (0..n).map(|_| uniform(&mut rng)).collect(),
        Shape::Duplicates => {
            let distinct: Vec<Vec<f32>> = (0..rng.gen_range(1..=8))
                .map(|_| uniform(&mut rng))
                .collect();
            (0..n)
                .map(|_| distinct[rng.gen_range(0..distinct.len())].clone())
                .collect()
        }
        Shape::Identical => {
            let p = if rng.gen::<bool>() {
                vec![0.0; dim]
            } else {
                uniform(&mut rng)
            };
            vec![p; n]
        }
        Shape::Zeros => (0..n)
            .map(|_| {
                let p = uniform(&mut rng);
                if rng.gen_range(0..3) == 0 {
                    vec![0.0; dim]
                } else {
                    p
                }
            })
            .collect(),
        Shape::Grid => (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1i32..=1) as f32).collect())
            .collect(),
    };
    PointSet::from_rows(dim, rows.concat())
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::sample::select(vec![
        Shape::Uniform,
        Shape::Duplicates,
        Shape::Identical,
        Shape::Zeros,
        Shape::Grid,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_build_matches_reference_build(
        shape in arb_shape(),
        metric in prop::sample::select(vec![Metric::Euclidean, Metric::Angular]),
        m in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
        n in 1usize..=500,
        dim in 1usize..=12,
        ef_construction in 1usize..=48,
        level_base in prop::sample::select(vec![2.0f64, 4.0, 16.0]),
        seed in 0u64..1_000,
    ) {
        let data = point_set(shape, n, dim, seed);
        let config = GraphConfig { m, ef_construction, level_base };
        let fast = HnswGraph::build(&data, metric, config.clone(), seed);
        let reference = RefGraph::build(&data, metric, config, seed).into_graph();
        prop_assert!(
            graph_to_chunk(&fast) == graph_to_chunk(&reference),
            "{shape:?} {metric:?} m={m} n={n} dim={dim} ef={ef_construction} \
             level_base={level_base} seed={seed}: cached build diverged"
        );
    }
}
