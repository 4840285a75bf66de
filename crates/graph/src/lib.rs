//! GGNN-style hierarchical graph index for approximate nearest neighbours.
//!
//! GGNN (§V-A) is the paper's state-of-the-art GPU ANN baseline for
//! high-dimensional data: a hierarchical navigable-small-world graph searched
//! with a bounded priority queue ("parallel cache") of nodes to visit and the
//! current best K. Its distance tests are exactly what the HSU's
//! `POINT_EUCLID`/`POINT_ANGULAR` instructions accelerate, while the queue
//! maintenance stays on the SIMT core (§VI-D).
//!
//! This crate implements the same structure as a layered graph:
//!
//! * [`HnswGraph::build`] — insert points with geometrically-distributed
//!   levels, connecting each to its `m` nearest neighbours per layer
//!   (neighbour selection by plain distance, as in GGNN's kNN graph),
//! * [`HnswGraph::search`] — greedy descent through the upper layers, then
//!   bounded best-first search with an `ef`-sized candidate queue on the
//!   bottom layer,
//! * [`GraphObserver`] — the statically dispatched hooks one search reports
//!   its work through; [`GraphStats`] (distance tests vs. queue operations,
//!   the split that drives the paper's Fig. 7 offloadable-cycle analysis)
//!   and the GGNN kernel's trace recorder both implement it.
//!
//! # Build cost
//!
//! Construction is dominated by back-edge pruning: every time a list
//! overflows, HNSW re-sorts it by distance to its owner and re-runs the
//! diversity test. [`HnswGraph::build`] keeps what it has already learned so
//! it does not pay for the same distance twice:
//!
//! 1. **Edge distances.** Every adjacency slot stores the distance from the
//!    list's owner to the neighbour. A new node's edges take it from the
//!    layer search, and the back-edge `c → id` reuses the same `d(id, c)`,
//!    so a prune sorts without computing a single owner distance.
//! 2. **Slot notes.** After each selection every slot records what the
//!    diversity test found: either the slot of the kept neighbour that
//!    pruned it (its *witness*) or that it passed against every slot before
//!    it. On the next prune of the same list, a candidate whose witness is
//!    already kept is pruned with no distance computed, and a candidate
//!    that passed before is tested only against neighbours it has not met.
//! 3. **Angular norms.** `‖p‖²` is computed once per point, so an angular
//!    pair costs one dot-product pass instead of three.
//!
//! While the graph is built its lists live in fixed-stride flat rows next to
//! the caches. At the end the caches are freed and the rows are compacted
//! in place into the finished graph's per-layer edge arrays. None of this
//! changes a single edge, because:
//!
//! * the metric is symmetric to the bit — `(a − b)²` equals `(b − a)²`,
//!   products commute, and the summation order is unchanged — and the
//!   batch kernels of the layer search match the scalar metric bit for bit;
//! * points never move, so a test between two points always has the same
//!   outcome and a cached note stays true;
//! * the build discards its [`GraphStats`], so only the kept/pruned
//!   classification is observable, never which distances were computed;
//! * the diversity predicate stays exactly `!(d > dc)`, which also prunes
//!   on a NaN distance, so replaying an outcome is the same as recomputing
//!   it.
//!
//! A `#[cfg(test)]` copy of the uncached build is kept as an oracle: a
//! property test compares both graphs byte for byte over duplicate,
//! identical, zero-vector and tie-heavy point sets, and
//! `tests/build_digest.rs` pins the bytes of two standard-size builds.
//!
//! # Examples
//!
//! ```
//! use hsu_geometry::point::{Metric, PointSet};
//! use hsu_graph::{GraphConfig, HnswGraph};
//!
//! let data = PointSet::from_rows(2, (0..200).map(|i| i as f32 * 0.1).collect());
//! let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 7);
//! let (hits, _) = graph.search(&data, &[3.05, 3.15], 2, 16);
//! assert_eq!(hits.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod archive_io;
#[cfg(test)]
mod reference;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hsu_geometry::point::{self, Metric, PointSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Construction parameters of the hierarchical graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConfig {
    /// Out-degree per node per layer (GGNN's k-build; HNSW's M).
    pub m: usize,
    /// Candidate-queue width during construction.
    pub ef_construction: usize,
    /// Level-assignment factor: P(level >= l) = (1/level_base)^l.
    pub level_base: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            m: 16,
            ef_construction: 64,
            level_base: 16.0,
        }
    }
}

/// Search-effort counters.
///
/// `distance_tests` are HSU-offloadable; `queue_ops` model the parallel-cache
/// maintenance the paper explicitly does *not* accelerate (§VI-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Full distance computations.
    pub distance_tests: u64,
    /// Priority-queue / visited-cache operations.
    pub queue_ops: u64,
    /// Graph edges followed (node data loads).
    pub hops: u64,
}

/// Hooks through which [`HnswGraph::search_observed`] reports each step of
/// its walk, in order. Every method defaults to a no-op and is statically
/// dispatched, so an observer costs the search only the hooks it
/// implements. [`GraphStats`] counts the work; the GGNN trace generator
/// records the same steps as warp events.
#[allow(unused_variables)]
pub trait GraphObserver {
    /// A greedy walk on an upper layer measures its start `node`.
    fn greedy_start(&mut self, node: u32) {}

    /// The greedy walk loads the non-empty adjacency list of `node` on
    /// `layer` and measures every entry of `neighbors`.
    fn greedy_step(&mut self, layer: usize, node: u32, neighbors: &[u32]) {}

    /// The best-first search measures its entry `node` and seeds both
    /// queues with it.
    fn seed(&mut self, node: u32) {}

    /// The closest unexpanded candidate is popped from the queue (also the
    /// pop that ends the search).
    fn pop(&mut self) {}

    /// The best-first search expanded `node` on `layer`: it checked each of
    /// `neighbors` against the visited set, measured the unvisited `fresh`
    /// ones, admitted `admitted` of them into the queues and evicted the
    /// worst result `evicted` times.
    fn expand(
        &mut self,
        layer: usize,
        node: u32,
        neighbors: &[u32],
        fresh: &[u32],
        admitted: u32,
        evicted: u32,
    ) {
    }
}

impl GraphObserver for GraphStats {
    fn greedy_start(&mut self, _: u32) {
        self.distance_tests += 1;
    }

    fn greedy_step(&mut self, _: usize, _: u32, neighbors: &[u32]) {
        self.hops += neighbors.len() as u64;
        self.distance_tests += neighbors.len() as u64;
    }

    fn seed(&mut self, _: u32) {
        self.distance_tests += 1;
        self.queue_ops += 2;
    }

    fn pop(&mut self) {
        self.queue_ops += 1;
    }

    fn expand(
        &mut self,
        _: usize,
        _: u32,
        neighbors: &[u32],
        fresh: &[u32],
        admitted: u32,
        evicted: u32,
    ) {
        // One cache-hit check per already-visited neighbour, two pushes per
        // admission and one pop per eviction.
        self.queue_ops += (neighbors.len() - fresh.len()) as u64;
        self.queue_ops += 2 * u64::from(admitted) + u64::from(evicted);
        self.hops += fresh.len() as u64;
        self.distance_tests += fresh.len() as u64;
    }
}

/// A layered navigable-small-world graph over a [`PointSet`].
#[derive(Debug, Clone)]
pub struct HnswGraph {
    /// `layers[l].list(node)` = adjacency list of `node` at layer `l`. Nodes
    /// not present at a layer have an empty list.
    layers: Vec<Layer>,
    /// Highest layer each node appears in.
    node_levels: Vec<u8>,
    entry_point: u32,
    metric: Metric,
    config: GraphConfig,
}

impl HnswGraph {
    /// Builds the graph by sequential insertion.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or the config degree is zero.
    pub fn build(data: &PointSet, metric: Metric, config: GraphConfig, seed: u64) -> Self {
        let mut builder = Builder::new(data, metric, config, seed);
        // Insert in index order, starting from node 0 as the entry point.
        for id in 1..data.len() as u32 {
            builder.insert(id);
        }
        builder.into_graph()
    }

    /// [`HnswGraph::search`] over a dense row-major block of queries
    /// (`queries.len() / data.dim()` of them) — the entry point the serving
    /// engine's coalesced batches feed. Per-query results and counters are
    /// identical to calling [`HnswGraph::search`] once per row.
    ///
    /// # Panics
    ///
    /// Panics if `queries.len()` is not a multiple of the data dimension,
    /// or `k` is zero.
    pub fn search_batch(
        &self,
        data: &PointSet,
        queries: &[f32],
        k: usize,
        ef: usize,
    ) -> Vec<(Vec<(u32, f32)>, GraphStats)> {
        assert!(
            queries.len().is_multiple_of(data.dim().max(1)),
            "query block length {} is not a multiple of dim {}",
            queries.len(),
            data.dim()
        );
        queries
            .chunks_exact(data.dim())
            .map(|q| self.search(data, q, k, ef))
            .collect()
    }

    /// K-nearest-neighbour search: greedy descent from the entry point
    /// through the upper layers, then an `ef`-bounded best-first pass on the
    /// base layer. `ef` is clamped to at least `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the query dimension mismatches.
    pub fn search(
        &self,
        data: &PointSet,
        query: &[f32],
        k: usize,
        ef: usize,
    ) -> (Vec<(u32, f32)>, GraphStats) {
        let mut stats = GraphStats::default();
        let out = self.search_observed(data, query, k, ef, &mut stats);
        (out, stats)
    }

    /// [`HnswGraph::search`], reporting every step of the walk to
    /// `observer` (see [`GraphObserver`]) instead of counting it.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the query dimension mismatches.
    pub fn search_observed<O: GraphObserver>(
        &self,
        data: &PointSet,
        query: &[f32],
        k: usize,
        ef: usize,
        observer: &mut O,
    ) -> Vec<(u32, f32)> {
        assert!(k > 0, "k must be positive");
        assert_eq!(query.len(), data.dim(), "query dimension mismatch");
        let mut entry = self.entry_point;
        for l in (1..self.layers.len()).rev() {
            entry = self.greedy_closest(data, query, entry, l, observer);
        }
        let (mut out, _) = self.layer_search(data, query, entry, 0, ef.max(k), observer);
        out.truncate(k);
        out
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The entry point node id.
    pub fn entry_point(&self) -> u32 {
        self.entry_point
    }

    /// Highest layer of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_level(&self, node: u32) -> usize {
        self.node_levels[node as usize] as usize
    }

    /// Adjacency list of `node` at `layer`; exposed for the trace generators.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `node` is out of range.
    pub fn neighbors(&self, layer: usize, node: u32) -> &[u32] {
        self.layers[layer].list(node)
    }

    /// Average out-degree on the base layer.
    #[cfg(test)]
    fn average_degree(&self) -> f64 {
        self.layers[0].targets.len() as f64 / self.node_levels.len() as f64
    }

    /// The metric the graph was built for.
    pub fn metric(&self) -> Metric {
        self.metric
    }
}

/// One layer's adjacency lists in compressed-sparse-row form: node `v`'s
/// list is `targets[offsets[v]..offsets[v + 1]]`, so a layer costs one
/// offset per node plus its edges, however few nodes it holds.
#[derive(Debug, Clone)]
struct Layer {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Layer {
    fn list(&self, node: u32) -> &[u32] {
        let v = node as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Reusable buffers for the gathered candidate-parallel distance stage:
/// candidate rows are copied into one dense block and measured with the
/// bit-identical SoA kernels from [`hsu_geometry::batch`].
#[derive(Debug, Default)]
struct DistScratch {
    rows: Vec<f32>,
    pairs: Vec<(f32, f32)>,
    dists: Vec<f32>,
}

impl DistScratch {
    /// Distances from `q` to every id in `ids`, in order. The returned
    /// slice lives in the scratch and is valid until the next call.
    fn distances(&mut self, metric: Metric, data: &PointSet, q: &[f32], ids: &[u32]) -> &[f32] {
        self.rows.clear();
        hsu_geometry::batch::gather_rows(data.as_flat(), data.dim(), ids, &mut self.rows);
        self.dists.clear();
        hsu_geometry::batch::metric_to_rows(
            metric,
            q,
            &self.rows,
            &mut self.pairs,
            &mut self.dists,
        );
        &self.dists
    }
}

/// Read access to the adjacency lists, shared by the finished graph and the
/// [`Builder`]'s flat rows, so construction and queries search with the
/// same code.
trait Adjacency {
    /// The metric the graph is searched under.
    fn metric(&self) -> Metric;

    /// Adjacency list of `node` at `layer` (empty if `node` is not there).
    fn list(&self, layer: usize, node: u32) -> &[u32];

    /// Greedy walk to the locally-closest node on one layer.
    ///
    /// Each visited node's whole adjacency list is gathered into a dense
    /// block and its distances computed candidate-parallel
    /// ([`batch::metric_to_rows`]) before the sequential min scan — the
    /// distance values, work counters, and chosen walk are bit-identical to
    /// the scalar one-candidate-at-a-time loop.
    fn greedy_closest<O: GraphObserver>(
        &self,
        data: &PointSet,
        q: &[f32],
        mut current: u32,
        layer: usize,
        observer: &mut O,
    ) -> u32 {
        let mut cur_d = self.metric().distance(q, data.point(current as usize));
        observer.greedy_start(current);
        let mut scratch = DistScratch::default();
        loop {
            let neighbors = self.list(layer, current);
            if neighbors.is_empty() {
                return current;
            }
            observer.greedy_step(layer, current, neighbors);
            let dists = scratch.distances(self.metric(), data, q, neighbors);
            let mut improved = false;
            for (&nb, &d) in neighbors.iter().zip(dists) {
                if d < cur_d {
                    cur_d = d;
                    current = nb;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Bounded best-first search on one layer with an `ef`-wide queue.
    /// Returns candidates sorted closest-first.
    fn layer_search<O: GraphObserver>(
        &self,
        data: &PointSet,
        q: &[f32],
        entry: u32,
        layer: usize,
        ef: usize,
        observer: &mut O,
    ) -> (Vec<(u32, f32)>, u32) {
        let mut visited = vec![false; data.len()];
        let mut to_visit: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
        let mut best: BinaryHeap<(OrdF32, u32)> = BinaryHeap::new(); // max-heap

        let d0 = self.metric().distance(q, data.point(entry as usize));
        observer.seed(entry);
        visited[entry as usize] = true;
        to_visit.push(Reverse((OrdF32(d0), entry)));
        best.push((OrdF32(d0), entry));

        // Scratch for the candidate-parallel distance stage, reused across
        // every expanded node of this search.
        let mut cand: Vec<u32> = Vec::new();
        let mut scratch = DistScratch::default();

        while let Some(Reverse((OrdF32(d), node))) = to_visit.pop() {
            observer.pop();
            let worst = best
                .peek()
                .map(|&(OrdF32(w), _)| w)
                .unwrap_or(f32::INFINITY);
            if d > worst && best.len() >= ef {
                break;
            }
            // Collect this node's unvisited neighbours first, then compute
            // their distances in one gathered SoA batch. The visited set
            // fixes the candidate list before any distance is needed, so the
            // batch changes neither the values nor the queue decisions —
            // results and counters are bit-identical to the scalar loop.
            cand.clear();
            let neighbors = self.list(layer, node);
            for &nb in neighbors {
                if !visited[nb as usize] {
                    visited[nb as usize] = true;
                    cand.push(nb);
                }
            }
            let dists = scratch.distances(self.metric(), data, q, &cand);
            let (mut admitted, mut evicted) = (0, 0);
            for (&nb, &dn) in cand.iter().zip(dists) {
                let worst = best
                    .peek()
                    .map(|&(OrdF32(w), _)| w)
                    .unwrap_or(f32::INFINITY);
                if best.len() < ef || dn < worst {
                    admitted += 1;
                    to_visit.push(Reverse((OrdF32(dn), nb)));
                    best.push((OrdF32(dn), nb));
                    if best.len() > ef {
                        best.pop();
                        evicted += 1;
                    }
                }
            }
            observer.expand(layer, node, neighbors, &cand, admitted, evicted);
        }
        let mut out: Vec<(u32, f32)> = best.into_iter().map(|(OrdF32(d), i)| (i, d)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        let first = out.first().map(|&(i, _)| i).unwrap_or(entry);
        (out, first)
    }
}

impl Adjacency for HnswGraph {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn list(&self, layer: usize, node: u32) -> &[u32] {
        self.layers[layer].list(node)
    }
}

/// Out-degree of a node at `layer`: standard HNSW gives the base layer
/// twice the degree, which keeps outliers reachable after back-edge pruning.
fn layer_degree(config: &GraphConfig, layer: usize) -> usize {
    if layer == 0 {
        config.m * 2
    } else {
        config.m
    }
}

/// Note byte of a slot the build knows nothing about yet.
const NO_NOTE: u8 = u8::MAX;

/// Note byte of a slot whose neighbour passed the diversity test against
/// every slot before it. Any smaller note is the slot of a witness: a kept
/// neighbour that pruned this one.
const PASSED: u8 = u8::MAX - 1;

/// `kept_at` entry of a candidate that is not (yet) kept.
const NOT_KEPT: u32 = u32::MAX;

/// One adjacency entry as the build's diversity heuristic sees it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: u32,
    /// Distance from the list's owner to `node`.
    dist: f32,
    /// What the last selection over this list learned about `node`:
    /// [`PASSED`], the slot of its witness, or [`NO_NOTE`].
    note: u8,
}

/// Metric distances between two points of the data set, with the angular
/// metric's per-point `‖p‖²` computed once for the whole build.
#[derive(Debug)]
struct PairDistance {
    metric: Metric,
    /// `norm_squared` of every point (angular only; empty for Euclidean).
    norms: Vec<f32>,
}

impl PairDistance {
    fn new(data: &PointSet, metric: Metric) -> Self {
        let norms = match metric {
            Metric::Euclidean => Vec::new(),
            Metric::Angular => data.iter().map(point::norm_squared).collect(),
        };
        PairDistance { metric, norms }
    }

    /// Bit-identical to `metric.distance(data.point(a), data.point(b))`:
    /// the angular arm is `angular_distance` with both norms looked up
    /// instead of recomputed, leaving one dot pass per pair.
    fn between(&self, data: &PointSet, a: u32, b: u32) -> f32 {
        let (pa, pb) = (data.point(a as usize), data.point(b as usize));
        match self.metric {
            Metric::Euclidean => point::euclidean_squared(pa, pb),
            Metric::Angular => {
                let denom = (self.norms[a as usize] * self.norms[b as usize]).sqrt();
                let cos = if denom == 0.0 {
                    0.0
                } else {
                    point::dot(pa, pb) / denom
                };
                1.0 - cos
            }
        }
    }
}

/// One layer's adjacency lists under construction: row `r` holds its
/// owner's list in `node[r * stride..][..len[r]]`.
#[derive(Debug)]
struct Rows {
    stride: usize,
    len: Vec<u32>,
    node: Vec<u32>,
}

/// What the build knows about each adjacency slot of one layer, laid out
/// like its [`Rows`]: the distance from the row's owner to the neighbour,
/// and the slot's note.
#[derive(Debug)]
struct SlotCache {
    dist: Vec<f32>,
    note: Vec<u8>,
}

/// An [`HnswGraph`] under construction. Every list lives in a fixed-stride
/// row of flat arrays sized up front for its most entries (the layer degree
/// plus the back-edge that triggers a prune), next to its [`SlotCache`], so
/// the build never reallocates a list and never recomputes a distance it
/// already knows. The cache is dropped before the graph is handed out;
/// nothing in it changes which edges the build makes (see the crate docs
/// for why).
#[derive(Debug)]
struct Builder<'a> {
    data: &'a PointSet,
    config: GraphConfig,
    node_levels: Vec<u8>,
    entry_point: u32,
    pair: PairDistance,
    /// Row of each node of level ≥ 1 in the upper layers: its rank among
    /// those nodes. The base layer's row is the node id.
    upper_row: Vec<u32>,
    rows: Vec<Rows>,
    slots: Vec<SlotCache>,
    sel: Selection,
}

impl<'a> Builder<'a> {
    /// An edgeless graph with every node's level drawn from `seed`.
    fn new(data: &'a PointSet, metric: Metric, config: GraphConfig, seed: u64) -> Self {
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
        let mut upper = 0u32;
        let upper_row: Vec<u32> = levels
            .iter()
            .map(|&lv| {
                let row = upper;
                upper += u32::from(lv > 0);
                row
            })
            .collect();
        // A list never holds more than the degree plus the back-edge that
        // triggers a prune, nor more than the other `n - 1` nodes.
        let shape = |l: usize| {
            let stride = (layer_degree(&config, l) + 1).min(n);
            (stride, if l == 0 { n } else { upper as usize })
        };
        let rows: Vec<Rows> = (0..=max_level)
            .map(|l| {
                let (stride, owners) = shape(l);
                Rows {
                    stride,
                    len: vec![0; owners],
                    node: vec![0; owners * stride],
                }
            })
            .collect();
        // Allocated after the rows, so the cache that is freed first sits
        // above the graph's memory and later allocations can take it over.
        let slots = (0..=max_level)
            .map(|l| {
                let (stride, owners) = shape(l);
                SlotCache {
                    dist: vec![0.0; owners * stride],
                    note: vec![NO_NOTE; owners * stride],
                }
            })
            .collect();
        Builder {
            data,
            pair: PairDistance::new(data, metric),
            config,
            node_levels: levels,
            entry_point: 0,
            upper_row,
            rows,
            slots,
            sel: Selection::default(),
        }
    }

    /// Flat index of `owner`'s first slot at `layer`, and its row.
    fn row(&self, layer: usize, owner: u32) -> (usize, usize) {
        let row = if layer == 0 {
            owner as usize
        } else {
            self.upper_row[owner as usize] as usize
        };
        (row * self.rows[layer].stride, row)
    }

    fn insert(&mut self, id: u32) {
        let data = self.data;
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
            let m = layer_degree(&self.config, l);
            self.connect(l, id, &candidates, m);
            if let Some(&(best, _)) = candidates.first() {
                entry = best;
            }
            let (at, row) = self.row(l, id);
            for slot in at..at + self.rows[l].len[row] as usize {
                let c = self.rows[l].node[slot];
                // The back-edge `c -> id` reuses `d(id, c)` from the search:
                // the metric is symmetric to the bit.
                let dc = self.slots[l].dist[slot];
                self.push(l, c, id, dc);
                // Prune overfull back-edge lists with the same heuristic.
                if self.list(l, c).len() > m {
                    self.prune(l, c, m);
                }
            }
        }
        // The running entry point is the highest-level node inserted so far
        // (standard HNSW bookkeeping, so no node is ever searched above its
        // own level).
        if node_level > entry_level {
            self.entry_point = id;
        }
    }

    /// Appends `node` at distance `dist` to `owner`'s list.
    fn push(&mut self, layer: usize, owner: u32, node: u32, dist: f32) {
        let (at, row) = self.row(layer, owner);
        let len = &mut self.rows[layer].len[row];
        let slot = at + *len as usize;
        *len += 1;
        self.rows[layer].node[slot] = node;
        self.slots[layer].dist[slot] = dist;
        self.slots[layer].note[slot] = NO_NOTE;
    }

    /// Fills the new node `owner`'s empty list from its search `candidates`
    /// (closest first) with the diversity heuristic.
    fn connect(&mut self, layer: usize, owner: u32, candidates: &[(u32, f32)], m: usize) {
        let sel = &mut self.sel;
        sel.slots.clear();
        sel.slots
            .extend(candidates.iter().map(|&(node, dist)| Slot {
                node,
                dist,
                note: NO_NOTE,
            }));
        sel.order.clear();
        sel.order.extend(0..candidates.len() as u32);
        sel.run(&self.pair, self.data, m);
        self.store(layer, owner);
    }

    /// Re-selects the `m` entries of `owner`'s overfull list, scoring them
    /// with their cached distances and notes.
    fn prune(&mut self, layer: usize, owner: u32, m: usize) {
        let (at, row) = self.row(layer, owner);
        let slots = at..at + self.rows[layer].len[row] as usize;
        let (nodes, cache) = (&self.rows[layer].node, &self.slots[layer]);
        let sel = &mut self.sel;
        sel.slots.clear();
        sel.slots.extend(slots.clone().map(|s| Slot {
            node: nodes[s],
            dist: cache.dist[s],
            note: cache.note[s],
        }));
        // Closest first; the sort is stable, so ties keep list order.
        sel.order.clear();
        sel.order.extend(0..slots.len() as u32);
        let by_slot = &sel.slots;
        sel.order.sort_by(|&a, &b| {
            by_slot[a as usize]
                .dist
                .total_cmp(&by_slot[b as usize].dist)
        });
        sel.run(&self.pair, self.data, m);
        self.store(layer, owner);
    }

    /// Rewrites `owner`'s list from the last selection: kept neighbours
    /// first, then pruned ones back-filling up to `m`. A kept neighbour's
    /// slot is its keep index, so each kept one passed against exactly the
    /// slots before it, and a back-filled one's witness slot is the keep
    /// index of the kept neighbour that pruned it.
    fn store(&mut self, layer: usize, owner: u32) {
        let (at, row) = self.row(layer, owner);
        let sel = &self.sel;
        let (rows, cache) = (&mut self.rows[layer], &mut self.slots[layer]);
        let kept = sel.kept.iter().map(|&i| (i, PASSED));
        let pruned = sel.pruned.iter().map(|&(i, w)| {
            let witness = u8::try_from(w).ok().filter(|&w| w < PASSED);
            (i, witness.unwrap_or(NO_NOTE))
        });
        let mut len = 0;
        for (i, note) in kept.chain(pruned).take(sel.m) {
            let slot = sel.slots[i as usize];
            rows.node[at + len] = slot.node;
            cache.dist[at + len] = slot.dist;
            cache.note[at + len] = note;
            len += 1;
        }
        rows.len[row] = len as u32;
    }

    /// The finished graph. The slot cache is freed first, then each
    /// layer's rows are compacted in place into its [`Layer`]: rows are in
    /// node order, so every list moves down over the gaps before it, and
    /// the tail is released.
    fn into_graph(mut self) -> HnswGraph {
        self.slots = Vec::new();
        let mut layers = Vec::with_capacity(self.rows.len());
        for (l, rows) in std::mem::take(&mut self.rows).into_iter().enumerate() {
            let Rows {
                stride,
                len,
                node: mut targets,
            } = rows;
            let mut offsets = Vec::with_capacity(self.node_levels.len() + 1);
            offsets.push(0);
            let mut end = 0;
            for (v, &level) in self.node_levels.iter().enumerate() {
                if level as usize >= l {
                    let row = if l == 0 {
                        v
                    } else {
                        self.upper_row[v] as usize
                    };
                    let start = row * stride;
                    targets.copy_within(start..start + len[row] as usize, end);
                    end += len[row] as usize;
                }
                offsets.push(u32::try_from(end).expect("edge count fits the u32 offsets"));
            }
            targets.truncate(end);
            targets.shrink_to_fit();
            layers.push(Layer { offsets, targets });
        }
        HnswGraph {
            layers,
            node_levels: self.node_levels,
            entry_point: self.entry_point,
            metric: self.pair.metric,
            config: self.config,
        }
    }
}

impl Adjacency for Builder<'_> {
    fn metric(&self) -> Metric {
        self.pair.metric
    }

    fn list(&self, layer: usize, node: u32) -> &[u32] {
        if (self.node_levels[node as usize] as usize) < layer {
            return &[];
        }
        let (at, row) = self.row(layer, node);
        &self.rows[layer].node[at..at + self.rows[layer].len[row] as usize]
    }
}

/// Scratch of one run of the diversity heuristic, reused across the build.
#[derive(Debug, Default)]
struct Selection {
    /// Candidates in list (slot) order.
    slots: Vec<Slot>,
    /// Indices into `slots` in visiting order, closest first.
    order: Vec<u32>,
    /// Candidates that passed the diversity test, in keep order.
    kept: Vec<u32>,
    /// Keep index of each candidate, or [`NOT_KEPT`].
    kept_at: Vec<u32>,
    /// `(candidate, keep index of its witness)` for the rest, visit order.
    pruned: Vec<(u32, u32)>,
    /// Degree the last run selected for.
    m: usize,
}

impl Selection {
    /// HNSW's diversity heuristic (Malkov & Yashunin, alg. 4): keep a
    /// candidate only if it is closer to the list's owner than to every
    /// already-kept neighbour, so edges bridge clusters instead of piling up
    /// inside one; pruned candidates back-fill remaining slots.
    ///
    /// Points never move, so a distance test between two neighbours always
    /// has the same outcome, and the slot notes replay outcomes instead of
    /// recomputing them:
    ///
    /// * a candidate whose witness is already kept is pruned again;
    /// * a [`PASSED`] candidate is tested only against kept neighbours from
    ///   its own slot on, since it passed against every slot before it.
    ///
    /// Any other candidate is tested against the whole kept list in order,
    /// and the first kept neighbour that prunes it becomes its witness.
    fn run(&mut self, dist: &PairDistance, data: &PointSet, m: usize) {
        self.m = m;
        self.kept.clear();
        self.pruned.clear();
        self.kept_at.clear();
        self.kept_at.resize(self.slots.len(), NOT_KEPT);
        for &i in &self.order {
            if self.kept.len() >= m {
                break;
            }
            let c = self.slots[i as usize];
            let (cached, tested_from) = match c.note {
                NO_NOTE => (None, 0),
                PASSED => (None, i),
                w => (Some(self.kept_at[w as usize]).filter(|&k| k != NOT_KEPT), 0),
            };
            // A kept neighbour prunes `c` unless `d > dc`; negating that test
            // (rather than writing `d <= dc`) lets a NaN distance prune.
            let diverse_from =
                |k: u32| dist.between(data, c.node, self.slots[k as usize].node) > c.dist;
            let witness = cached.or_else(|| {
                self.kept
                    .iter()
                    .position(|&k| k >= tested_from && !diverse_from(k))
                    .map(|k| k as u32)
            });
            match witness {
                None => {
                    self.kept_at[i as usize] = self.kept.len() as u32;
                    self.kept.push(i);
                }
                Some(w) => self.pruned.push((i, w)),
            }
        }
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

    fn random_set(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        PointSet::from_rows(dim, data)
    }

    #[test]
    fn recall_at_1_euclidean() {
        let data = random_set(2000, 16, 1);
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 42);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut hits = 0;
        let total = 50;
        for _ in 0..total {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let (found, _) = graph.search(&data, &q, 1, 64);
            let exact = data.nearest_brute_force(&q, Metric::Euclidean).unwrap();
            if found.first().map(|&(i, _)| i as usize) == Some(exact.0) {
                hits += 1;
            }
        }
        assert!(hits * 10 >= total * 9, "recall {hits}/{total} below 90%");
    }

    #[test]
    fn recall_at_10_angular() {
        let data = random_set(1500, 24, 3);
        let graph = HnswGraph::build(&data, Metric::Angular, GraphConfig::default(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut overlap = 0usize;
        let total = 30;
        for _ in 0..total {
            let q: Vec<f32> = (0..24).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let (found, _) = graph.search(&data, &q, 10, 96);
            let exact = data.k_nearest_brute_force(&q, 10, Metric::Angular);
            let exact_ids: std::collections::HashSet<usize> =
                exact.iter().map(|&(i, _)| i).collect();
            overlap += found
                .iter()
                .filter(|&&(i, _)| exact_ids.contains(&(i as usize)))
                .count();
        }
        let recall = overlap as f64 / (total * 10) as f64;
        assert!(recall >= 0.8, "recall@10 = {recall}");
    }

    #[test]
    fn searching_for_an_indexed_point_finds_it() {
        let data = random_set(500, 8, 5);
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 9);
        for id in [0usize, 100, 250, 499] {
            let (found, _) = graph.search(&data, data.point(id), 1, 32);
            assert_eq!(found[0].0 as usize, id);
            assert_eq!(found[0].1, 0.0);
        }
    }

    #[test]
    fn stats_track_work_split() {
        let data = random_set(1000, 32, 6);
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 10);
        let (_, stats) = graph.search(&data, &[0.0f32; 32], 10, 64);
        assert!(stats.distance_tests > 0);
        assert!(stats.queue_ops > 0);
        assert!(stats.hops > 0);
        // The candidate queue should not grossly out-work the distances.
        assert!(stats.queue_ops < stats.distance_tests * 20);
    }

    #[test]
    fn layered_structure_properties() {
        let data = random_set(3000, 8, 8);
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 11);
        assert!(
            graph.layer_count() >= 2,
            "expected a hierarchy, got 1 layer"
        );
        // Entry point lives on the top layer.
        assert_eq!(
            graph.node_level(graph.entry_point()),
            graph.layer_count() - 1
        );
        // Upper layers are sparser than the base layer.
        let base_nodes = (0..3000u32)
            .filter(|&i| !graph.neighbors(0, i).is_empty())
            .count();
        let top = graph.layer_count() - 1;
        let top_nodes = (0..3000u32).filter(|&i| graph.node_level(i) >= top).count();
        assert!(top_nodes < base_nodes / 4);
        // Degree bound holds everywhere (2x on the base layer).
        for l in 0..graph.layer_count() {
            let cap = if l == 0 {
                GraphConfig::default().m * 2
            } else {
                GraphConfig::default().m
            };
            for i in 0..3000u32 {
                assert!(graph.neighbors(l, i).len() <= cap);
            }
        }
        assert!(graph.average_degree() > 1.0);
    }

    #[test]
    fn ef_trades_work_for_recall() {
        let data = random_set(2000, 16, 12);
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 13);
        let q = vec![0.25f32; 16];
        let (_, small) = graph.search(&data, &q, 1, 8);
        let (_, large) = graph.search(&data, &q, 1, 128);
        assert!(large.distance_tests > small.distance_tests);
    }

    #[test]
    fn search_batch_matches_per_query_search() {
        for (metric, seed) in [(Metric::Euclidean, 21), (Metric::Angular, 22)] {
            let data = random_set(800, 12, seed);
            let graph = HnswGraph::build(&data, metric, GraphConfig::default(), 31);
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let queries: Vec<f32> = (0..7 * 12).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let batched = graph.search_batch(&data, &queries, 5, 32);
            assert_eq!(batched.len(), 7);
            for (i, q) in queries.chunks_exact(12).enumerate() {
                let (hits, stats) = graph.search(&data, q, 5, 32);
                assert_eq!(batched[i].0, hits, "{metric:?} query {i}");
                assert_eq!(batched[i].1, stats, "{metric:?} query {i} counters");
                for (&(id, d), &(bid, bd)) in hits.iter().zip(&batched[i].0) {
                    assert_eq!(id, bid);
                    assert_eq!(d.to_bits(), bd.to_bits());
                }
            }
        }
    }

    #[test]
    fn single_point_graph() {
        let data = PointSet::from_rows(4, vec![1.0, 2.0, 3.0, 4.0]);
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 1);
        let (found, _) = graph.search(&data, &[0.0; 4], 1, 8);
        assert_eq!(found[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_set_rejected() {
        let data = PointSet::empty(4);
        let _ = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 0);
    }
}
