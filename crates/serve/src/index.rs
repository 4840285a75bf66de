//! The served index families behind one batched query trait.
//!
//! Each wrapper pairs a pre-built hierarchical index with the dataset it
//! was built over and answers whole [`QueryBatch`]es through the batch
//! entry points the index crates expose (`search_batch`, `knn_batch`,
//! `radius_knn_batch`, `get_many_counted`). Every per-query answer is a
//! pure function of `(index, query)` — bit-identical no matter how the
//! engine shards, batches, or schedules the stream — which is what makes
//! the service replay-testable.
//!
//! Construction goes through the PR-7 [`ArchiveCache`]: indexes are
//! loaded from `.hsar` archives when a content key matches and rebuilt
//! (then stored back) when not. Graph/k-d/BVH keys reuse the suite's
//! exact key grammar, so `servebench` and `repro` share one archive
//! directory.

use hsu_bench::ArchiveCache;
use hsu_bvh::{Bvh2, PointPrimitive};
use hsu_datasets::{Dataset, DatasetId};
use hsu_geometry::point::PointSet;
use hsu_geometry::Vec3;
use hsu_graph::{GraphConfig, HnswGraph};
use hsu_kdtree::KdTree;
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};

use crate::batch::QueryBatch;
use crate::error::ServeError;

/// The four hierarchical-search families the engine can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexFamily {
    /// HNSW graph ANN (the paper's GGNN workload).
    Graph,
    /// Best-bin-first k-d tree (FLANN).
    Kd,
    /// Radius-truncated BVH kNN (RTNN / BVH-NN).
    Bvh,
    /// B+tree point lookups (Rodinia).
    Btree,
}

impl IndexFamily {
    /// Stable lowercase name (CLI flags, JSON keys, labels).
    pub fn name(self) -> &'static str {
        match self {
            IndexFamily::Graph => "graph",
            IndexFamily::Kd => "kd",
            IndexFamily::Bvh => "bvh",
            IndexFamily::Btree => "btree",
        }
    }

    /// All families, in the fixed reporting order.
    pub const ALL: [IndexFamily; 4] = [
        IndexFamily::Graph,
        IndexFamily::Kd,
        IndexFamily::Bvh,
        IndexFamily::Btree,
    ];
}

impl std::fmt::Display for IndexFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One query, as submitted by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A point for the vector families (dimension must match the index).
    Vector(Vec<f32>),
    /// A lookup key for the B+tree family.
    Key(u32),
}

/// One query's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `(id, distance)` pairs, closest first (squared distance for the
    /// BVH family, metric distance otherwise).
    Neighbors(Vec<(u32, f32)>),
    /// The value under a key, when present.
    Value(Option<u64>),
}

/// A served index: answers homogeneous [`QueryBatch`]es.
///
/// Implementations must be pure per query — the answer to query `q`
/// must not depend on what else is in the batch or on any interior
/// mutability — so the engine can re-partition the stream freely
/// without changing results.
pub trait SearchIndex: Send + Sync {
    /// Which family this index serves.
    fn family(&self) -> IndexFamily;

    /// Expected vector dimension, 0 for key indexes.
    fn dim(&self) -> usize;

    /// Checks a query fits this index: its variant, its dimension, and,
    /// for a vector, that every component is finite. A NaN or infinite
    /// component would reach k-d split tests, BVH slab tests and the HNSW
    /// heaps, none of which define an answer for it.
    fn validate(&self, query: &Query) -> Result<(), ServeError> {
        match (self.family(), query) {
            (IndexFamily::Btree, Query::Key(_)) => Ok(()),
            (IndexFamily::Btree, Query::Vector(_)) => {
                Err(ServeError::BadQuery("btree index takes Query::Key".into()))
            }
            (_, Query::Key(_)) => Err(ServeError::BadQuery(format!(
                "{} index takes Query::Vector",
                self.family()
            ))),
            (_, Query::Vector(v)) => {
                if v.len() != self.dim() {
                    return Err(ServeError::BadQuery(format!(
                        "dimension {} != index dimension {}",
                        v.len(),
                        self.dim()
                    )));
                }
                match v.iter().position(|x| !x.is_finite()) {
                    None => Ok(()),
                    Some(i) => Err(ServeError::BadQuery(format!(
                        "component {i} is {}, not finite",
                        v[i]
                    ))),
                }
            }
        }
    }

    /// Answers every query in the batch, in push order.
    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput>;
}

/// The generated dataset for a served index, via the cache when
/// possible — same key grammar as the suite, so archives are shared.
///
/// A non-point dataset is a typed [`ServeError::BadIndex`], never an
/// abort: index opening is a service-startup path.
fn cached_dataset(
    cache: &ArchiveCache,
    id: DatasetId,
    seed: u64,
    n: usize,
) -> Result<PointSet, ServeError> {
    let dkey = format!("hsar-dataset-v1|{id:?}|seed={seed}|n={n}");
    let stem = format!("dataset-{id:?}");
    let ds = cache.load_dataset(&stem, &dkey, id).unwrap_or_else(|| {
        let ds = Dataset::generate_scaled(id, seed, Some(n));
        cache.store_dataset(&stem, &dkey, &ds);
        ds
    });
    match ds.points() {
        Some(p) => Ok(p.clone()),
        None => Err(ServeError::BadIndex(format!(
            "dataset {id:?} is not a point dataset"
        ))),
    }
}

/// HNSW graph ANN service (k-nearest with an `ef` candidate queue).
pub struct GraphIndex {
    data: PointSet,
    graph: HnswGraph,
    k: usize,
    ef: usize,
}

impl GraphIndex {
    /// Loads (or builds and caches) a graph index over `n` points of
    /// dataset `id`, using the suite's graph cache key so `servebench`
    /// and `repro` share archives.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadIndex`] if `id` is not an ANN point dataset (no
    /// metric, or not a point cloud) — opening never aborts the process.
    pub fn open(
        cache: &ArchiveCache,
        id: DatasetId,
        n: usize,
        seed: u64,
        k: usize,
        ef: usize,
    ) -> Result<Self, ServeError> {
        let spec = hsu_datasets::spec(id);
        let Some(metric) = spec.metric else {
            return Err(ServeError::BadIndex(format!(
                "ANN dataset {id:?} has no metric"
            )));
        };
        let data = cached_dataset(cache, id, seed, n)?;
        let gcfg = GraphConfig {
            m: 16,
            ef_construction: ef.max(32),
            ..Default::default()
        };
        let gkey = format!("hsar-graph-v1|{id:?}|seed={seed}|n={n}|metric={metric:?}|{gcfg:?}");
        let gstem = format!("graph-{id:?}");
        let graph = cache.load_graph(&gstem, &gkey).unwrap_or_else(|| {
            let graph = HnswGraph::build(&data, metric, gcfg, seed);
            cache.store_graph(&gstem, &gkey, &graph);
            graph
        });
        Ok(Self { data, graph, k, ef })
    }

    /// The dataset the index serves — query generators sample from it.
    pub fn data(&self) -> &PointSet {
        &self.data
    }
}

impl SearchIndex for GraphIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Graph
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        self.graph
            .search_batch(&self.data, batch.coords(), self.k, self.ef)
            .into_iter()
            .map(|(hits, _)| QueryOutput::Neighbors(hits))
            .collect()
    }
}

/// Best-bin-first k-d tree service (FLANN-style, fixed check budget).
pub struct KdIndex {
    data: PointSet,
    tree: KdTree,
    k: usize,
    checks: usize,
}

impl KdIndex {
    /// Loads (or builds and caches) a k-d index over `n` points of the
    /// 3-D dataset `id`, using the suite's k-d cache key.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadIndex`] if `id` is not a point dataset.
    pub fn open(
        cache: &ArchiveCache,
        id: DatasetId,
        n: usize,
        seed: u64,
        k: usize,
        checks: usize,
    ) -> Result<Self, ServeError> {
        let data = cached_dataset(cache, id, seed, n)?;
        let kkey = format!("hsar-kdtree-v1|{id:?}|seed={seed}|n={n}|leaf=4|metric=euclid");
        let kstem = format!("kdtree-{id:?}");
        let tree = cache.load_kdtree(&kstem, &kkey).unwrap_or_else(|| {
            let tree = hsu_kernels::flann::FlannWorkload::build_tree(&data);
            cache.store_kdtree(&kstem, &kkey, &tree);
            tree
        });
        Ok(Self {
            data,
            tree,
            k,
            checks,
        })
    }

    /// The dataset the index serves — query generators sample from it.
    pub fn data(&self) -> &PointSet {
        &self.data
    }
}

impl SearchIndex for KdIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Kd
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        self.tree
            .knn_batch(&self.data, batch.coords(), self.k, self.checks)
            .into_iter()
            .map(|(hits, _)| QueryOutput::Neighbors(hits))
            .collect()
    }
}

/// Radius-truncated BVH kNN service (RTNN formulation, 3-D only).
pub struct BvhIndex {
    data: PointSet,
    bvh: Bvh2,
    prims: Vec<PointPrimitive>,
    radius: f32,
    k: usize,
}

impl BvhIndex {
    /// Loads (or builds and caches) a BVH index over `n` points of the
    /// 3-D dataset `id`, using the suite's BVH cache key (LBVH flavor,
    /// radius 1.5× the median-NN heuristic).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadIndex`] if `id` is not a 3-D point dataset.
    pub fn open(
        cache: &ArchiveCache,
        id: DatasetId,
        n: usize,
        seed: u64,
        k: usize,
    ) -> Result<Self, ServeError> {
        let data = cached_dataset(cache, id, seed, n)?;
        if data.dim() != 3 {
            return Err(ServeError::BadIndex(format!(
                "BVH family serves 3-D points, dataset {id:?} has dimension {}",
                data.dim()
            )));
        }
        let bparams = BvhnnParams {
            points: n,
            queries: 0,
            radius_scale: 1.5,
            flavor: Default::default(),
            seed,
        };
        let bkey = format!(
            "hsar-bvh-v1|{id:?}|seed={seed}|n={n}|flavor={:?}|rs={}",
            bparams.flavor, bparams.radius_scale
        );
        let bstem = format!("bvh-{id:?}");
        let (bvh, radius) = cache.load_bvh(&bstem, &bkey).unwrap_or_else(|| {
            let (bvh, radius) = BvhnnWorkload::plan(&bparams, &data);
            cache.store_bvh(&bstem, &bkey, &bvh, radius);
            (bvh, radius)
        });
        let prims = data
            .iter()
            .enumerate()
            .map(|(i, p)| PointPrimitive::new(i as u32, Vec3::new(p[0], p[1], p[2]), radius))
            .collect();
        Ok(Self {
            data,
            bvh,
            prims,
            radius,
            k,
        })
    }

    /// The dataset the index serves — query generators sample from it.
    pub fn data(&self) -> &PointSet {
        &self.data
    }
}

impl SearchIndex for BvhIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Bvh
    }

    fn dim(&self) -> usize {
        3
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        let queries: Vec<Vec3> = batch
            .coords()
            .chunks_exact(3)
            .map(|c| Vec3::new(c[0], c[1], c[2]))
            .collect();
        self.bvh
            .radius_knn_batch(&self.prims, &queries, self.radius, self.k)
            .into_iter()
            .map(|(hits, _)| {
                QueryOutput::Neighbors(
                    hits.into_iter()
                        .map(|nb| (nb.id, nb.distance_squared))
                        .collect(),
                )
            })
            .collect()
    }
}

/// B+tree point-lookup service (Rodinia branch factor 256).
pub struct BtreeIndex {
    tree: hsu_btree::BPlusTree,
    /// Half-open key space the generator drew from — the key-stream
    /// generators need it to produce a realistic present/absent mix.
    key_space: u32,
}

impl BtreeIndex {
    /// Loads (or builds and caches) a B+tree over `keys` seeded
    /// Rodinia-style pairs (uniform 24-bit keys).
    pub fn open(cache: &ArchiveCache, keys: usize, seed: u64) -> Self {
        let params = BtreeParams {
            keys,
            queries: 0,
            branch: 256,
            seed,
        };
        let ikey = format!("hsar-btree-v1|serve|keys={keys}|branch=256|seed={seed}");
        let istem = "btree-serve".to_string();
        let tree = cache.load_btree(&istem, &ikey).unwrap_or_else(|| {
            let (pairs, _) = BtreeWorkload::generate_inputs(&params);
            let tree = hsu_btree::BPlusTree::bulk_build(pairs, params.branch);
            cache.store_btree(&istem, &ikey, &tree);
            tree
        });
        Self {
            tree,
            key_space: 1 << 24,
        }
    }

    /// The half-open key space lookups should be drawn from.
    pub fn key_space(&self) -> u32 {
        self.key_space
    }
}

impl SearchIndex for BtreeIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Btree
    }

    fn dim(&self) -> usize {
        0
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        self.tree
            .get_many_counted(batch.keys())
            .into_iter()
            .map(|(v, _)| QueryOutput::Value(v))
            .collect()
    }
}
