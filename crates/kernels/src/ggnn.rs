//! GGNN: warp-per-query hierarchical-graph ANN search (paper §V-A, §VI-D).
//!
//! GGNN assigns a whole thread group to each query to exploit intra-query
//! parallelism: the group cooperatively fetches adjacency lists, computes
//! candidate distances, and maintains a shared-memory priority queue / best
//! list (the "parallel cache"). The HSU accelerates exactly the distance
//! tests; queue maintenance stays on the SIMT core (§VI-C).

use hsu_datasets::{query_set, recall_at_k};
use hsu_geometry::point::{Metric, PointSet};
use hsu_graph::{GraphConfig, GraphObserver, HnswGraph};
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};

use crate::layout::{adjacency_addr, vector_addr};
use crate::lowering::{emit_coop_distance, Variant};

/// Construction/search parameters.
#[derive(Debug, Clone)]
pub struct GgnnParams {
    /// Dataset size (points generated if no set is supplied).
    pub points: usize,
    /// Dimensionality (only used when generating).
    pub dim: usize,
    /// Number of queries.
    pub queries: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Neighbours returned per query.
    pub k: usize,
    /// Best-first queue width.
    pub ef: usize,
    /// Graph degree.
    pub m: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GgnnParams {
    fn default() -> Self {
        GgnnParams {
            points: 2000,
            dim: 64,
            queries: 64,
            metric: Metric::Euclidean,
            k: 10,
            ef: 32,
            m: 12,
            seed: 1,
        }
    }
}

/// Warp-level events recorded during the functional search.
#[derive(Debug, Clone)]
enum WarpEvent {
    /// Cooperative fetch of one adjacency list.
    LoadAdjacency { layer: usize, node: u32, count: u32 },
    /// Distance tests against a batch of candidate vectors.
    Distances { candidates: Vec<u32> },
    /// Shared-memory priority-queue / visited-cache operations.
    QueueOps { count: u32 },
    /// Scalar bookkeeping on the SIMT core.
    Scalar { count: u32 },
}

/// A prepared GGNN workload: graph + recorded per-query event streams.
#[derive(Debug)]
pub struct GgnnWorkload {
    params: GgnnParams,
    dim: usize,
    metric: Metric,
    events: Vec<Vec<WarpEvent>>,
    /// Recall@k of the recorded search against brute force.
    pub recall: f64,
}

impl GgnnWorkload {
    /// Builds the graph over a generated Gaussian-mixture set and records
    /// the search for every query.
    pub fn build(params: &GgnnParams) -> Self {
        let data = gaussian_set(params.points, params.dim, params.seed);
        Self::build_from_points(params, &data)
    }

    /// Builds over a caller-supplied point set (the dataset catalog path).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn build_from_points(params: &GgnnParams, data: &PointSet) -> Self {
        let graph = HnswGraph::build(data, params.metric, Self::graph_config(params), params.seed);
        Self::build_with_graph(params, data, &graph)
    }

    /// The graph-construction config `build_from_points` derives from
    /// `params` — exposed so cache layers key and rebuild the index with
    /// exactly the same settings.
    pub fn graph_config(params: &GgnnParams) -> GraphConfig {
        GraphConfig {
            m: params.m,
            ef_construction: params.ef.max(32),
            ..Default::default()
        }
    }

    /// Records the searches over an already-built graph (the archive-cache
    /// restore path): each query runs [`HnswGraph::search_observed`], the
    /// search the serving engine runs, with a recorder that turns every
    /// step into GGNN's warp-level events. `graph` must have been built
    /// over `data` with [`Self::graph_config`] and `params.seed` — the
    /// caller's content key guarantees it; given that, the result is
    /// byte-identical to [`Self::build_from_points`].
    pub fn build_with_graph(params: &GgnnParams, data: &PointSet, graph: &HnswGraph) -> Self {
        let queries = query_set(data, params.queries, params.seed ^ 0x5eed);

        let mut events = Vec::with_capacity(queries.len());
        let mut found_all = Vec::with_capacity(queries.len());
        for q in queries.iter() {
            let mut rec = Recorder::default();
            rec.events.push(WarpEvent::Scalar { count: 8 }); // query setup / norm precompute
            let found = graph.search_observed(data, q, params.k, params.ef, &mut rec);
            rec.events.push(WarpEvent::Scalar { count: 4 }); // result writeback
            events.push(rec.events);
            found_all.push(found.into_iter().map(|(i, _)| i).collect());
        }
        let truth: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| {
                data.k_nearest_brute_force(q, params.k, params.metric)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let recall = recall_at_k(&found_all, &truth, params.k);
        GgnnWorkload {
            params: params.clone(),
            dim: data.dim(),
            metric: params.metric,
            events,
            recall,
        }
    }

    /// The parameters the workload was built with.
    pub fn params(&self) -> &GgnnParams {
        &self.params
    }

    /// Total distance tests recorded (HSU-offloadable work).
    pub fn distance_tests(&self) -> u64 {
        self.events
            .iter()
            .flatten()
            .map(|e| match e {
                WarpEvent::Distances { candidates } => candidates.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Lowers the recorded events into a kernel trace.
    pub fn trace(&self, variant: Variant) -> KernelTrace {
        let mut kernel = KernelTrace::builder(format!("ggnn-{variant:?}"));
        for events in &self.events {
            let mut lanes: Vec<ThreadTrace> = (0..32).map(|_| ThreadTrace::new()).collect();
            for ev in events {
                match ev {
                    WarpEvent::LoadAdjacency { layer, node, count } => {
                        // Coalesced: lane i fetches neighbour id i.
                        let base = adjacency_addr(*layer, *node as usize, self.params.m);
                        for (lane, t) in lanes.iter_mut().enumerate() {
                            if (lane as u32) < *count {
                                t.push(ThreadOp::Load {
                                    addr: base + lane as u64 * 4,
                                    bytes: 4,
                                });
                            }
                        }
                    }
                    WarpEvent::Distances { candidates } => match variant {
                        Variant::Hsu => {
                            // One HSU instruction per candidate, spread across
                            // lanes: the warp instruction carries up to 32
                            // independent multi-beat distances.
                            for chunk in candidates.chunks(32) {
                                for (lane, &cand) in chunk.iter().enumerate() {
                                    lanes[lane].push(ThreadOp::HsuDistance {
                                        metric: self.metric,
                                        dim: self.dim as u32,
                                        candidate_addr: vector_addr(cand as usize, self.dim),
                                    });
                                }
                            }
                        }
                        Variant::Baseline | Variant::BaselineStripped => {
                            // Cooperative: the warp computes one candidate at
                            // a time, all 32 lanes partitioning dimensions.
                            for &cand in candidates {
                                let addr = vector_addr(cand as usize, self.dim);
                                for (lane, t) in lanes.iter_mut().enumerate() {
                                    emit_coop_distance(
                                        t,
                                        variant,
                                        self.metric,
                                        self.dim as u32,
                                        addr,
                                        lane as u32,
                                    );
                                }
                            }
                        }
                    },
                    WarpEvent::QueueOps { count } => {
                        for t in &mut lanes {
                            t.push(ThreadOp::Shared { count: *count });
                        }
                    }
                    WarpEvent::Scalar { count } => {
                        for t in &mut lanes {
                            t.push(ThreadOp::Alu { count: *count });
                        }
                    }
                }
            }
            for t in lanes {
                kernel.push_thread(t);
            }
        }
        kernel.finish()
    }
}

/// Generates a clustered Gaussian-mixture point set (standalone so unit
/// tests avoid the datasets crate's catalog sizes).
fn gaussian_set(n: usize, dim: usize, seed: u64) -> PointSet {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let clusters = (n as f64).sqrt().ceil() as usize;
    let centres: Vec<Vec<f32>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let c = &centres[rng.gen_range(0..clusters)];
        for v in c {
            data.push(v + rng.gen_range(-0.2f32..0.2));
        }
    }
    PointSet::from_rows(dim, data)
}

/// Records one [`HnswGraph::search_observed`] call as the warp-level event
/// stream of GGNN's cooperative search.
#[derive(Default)]
struct Recorder {
    events: Vec<WarpEvent>,
}

impl GraphObserver for Recorder {
    fn greedy_start(&mut self, node: u32) {
        self.events.push(WarpEvent::Distances {
            candidates: vec![node],
        });
    }

    fn greedy_step(&mut self, layer: usize, node: u32, neighbors: &[u32]) {
        self.events.push(WarpEvent::LoadAdjacency {
            layer,
            node,
            count: neighbors.len() as u32,
        });
        self.events.push(WarpEvent::Distances {
            candidates: neighbors.to_vec(),
        });
        self.events.push(WarpEvent::Scalar { count: 4 }); // argmin select
    }

    fn seed(&mut self, node: u32) {
        self.events.push(WarpEvent::Distances {
            candidates: vec![node],
        });
        self.events.push(WarpEvent::QueueOps { count: 2 });
    }

    fn pop(&mut self) {
        self.events.push(WarpEvent::QueueOps { count: 1 });
    }

    fn expand(
        &mut self,
        layer: usize,
        node: u32,
        neighbors: &[u32],
        fresh: &[u32],
        admitted: u32,
        evicted: u32,
    ) {
        if neighbors.is_empty() {
            return;
        }
        self.events.push(WarpEvent::LoadAdjacency {
            layer,
            node,
            count: neighbors.len() as u32,
        });
        // Visited-cache check: one shared op per neighbour.
        self.events.push(WarpEvent::QueueOps {
            count: neighbors.len() as u32,
        });
        if fresh.is_empty() {
            return;
        }
        self.events.push(WarpEvent::Distances {
            candidates: fresh.to_vec(),
        });
        self.events.push(WarpEvent::QueueOps {
            count: (2 * admitted + evicted).max(1),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_sim::config::GpuConfig;
    use hsu_sim::Gpu;

    fn small() -> GgnnWorkload {
        GgnnWorkload::build(&GgnnParams {
            points: 600,
            dim: 32,
            queries: 16,
            ef: 48,
            m: 12,
            ..Default::default()
        })
    }

    #[test]
    fn search_is_accurate() {
        let wl = small();
        assert!(wl.recall >= 0.8, "recall {}", wl.recall);
        assert!(wl.distance_tests() > 0);
    }

    #[test]
    fn hsu_variant_is_faster() {
        let wl = small();
        let gpu = Gpu::new(GpuConfig::tiny());
        let hsu = gpu.run(&wl.trace(Variant::Hsu)).unwrap();
        let base = gpu.run(&wl.trace(Variant::Baseline)).unwrap();
        let stripped = gpu.run(&wl.trace(Variant::BaselineStripped)).unwrap();
        assert!(
            hsu.cycles < base.cycles,
            "HSU {} vs baseline {}",
            hsu.cycles,
            base.cycles
        );
        assert!(stripped.cycles < base.cycles);
        // The HSU run must actually use the unit.
        assert!(hsu.rt.isa_instructions > 0);
        assert_eq!(base.rt.isa_instructions, 0);
    }

    #[test]
    fn angular_metric_works() {
        let wl = GgnnWorkload::build(&GgnnParams {
            points: 500,
            dim: 48,
            queries: 8,
            metric: Metric::Angular,
            ef: 64,
            m: 16,
            ..Default::default()
        });
        assert!(wl.recall >= 0.6, "angular recall {}", wl.recall);
        let trace = wl.trace(Variant::Hsu);
        assert!(trace.thread_count() == 8 * 32);
    }

    #[test]
    fn traces_have_one_warp_per_query() {
        let wl = small();
        for v in Variant::ALL {
            let t = wl.trace(v);
            assert_eq!(t.thread_count(), 16 * 32, "{v:?}");
        }
    }
}
