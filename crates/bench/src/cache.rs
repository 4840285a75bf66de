//! Content-keyed `.hsar` archive cache for the suite's build phase and the
//! serving indexes.
//!
//! The suite's phase A (dataset generation → index construction → trace
//! lowering) dominates a cold run's wall-clock. [`ArchiveCache`] keys every
//! artifact by a string that embeds the codec version plus every parameter
//! the artifact's bytes depend on (generator seed, scaled sizes, index
//! parameters — **never** machine knobs like SM count, `--jobs`, or the
//! simulation mode), hashes it with [`hsu_archive::key_hash`], and stores
//! the artifact in `<dir>/<stem>-<hash>.hsar`. A warm re-run with the same
//! key loads bytes that decode to the identical artifact, so suite stdout
//! is byte-for-byte the same as a cold run.
//!
//! Each cached artifact has one method here — [`ArchiveCache::dataset`],
//! [`graph`](ArchiveCache::graph), [`kdtree`](ArchiveCache::kdtree),
//! [`bvh`](ArchiveCache::bvh), [`btree`](ArchiveCache::btree),
//! [`serve_btree`](ArchiveCache::serve_btree) and
//! [`traces`](ArchiveCache::traces) — that owns the artifact's stem, its key
//! and its load-or-build-and-store sequence. The suite and the serving
//! indexes both call them, so an archive written by one is a hit for the
//! other.
//!
//! The cache is strictly best-effort and self-healing: a missing, corrupt,
//! truncated, or key-mismatched archive is treated as a miss (the typed
//! [`hsu_archive::ArchiveError`] is reported on stderr), the artifact is
//! rebuilt from scratch, and the bad file is overwritten atomically. A
//! failed *store* never fails the run either — it only costs the next run
//! its warm start.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hsu_archive::{key_hash, kind, ArchiveWriter, FileArchive};
use hsu_btree::BPlusTree;
use hsu_bvh::Bvh2;
use hsu_datasets::{Dataset, DatasetId};
use hsu_geometry::point::{Metric, PointSet};
use hsu_graph::{GraphConfig, HnswGraph};
use hsu_kdtree::KdTree;
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
use hsu_kernels::flann::{FlannParams, FlannWorkload};
use hsu_kernels::ggnn::GgnnParams;
use hsu_sim::trace::KernelTrace;

/// The workload parameters a bundle of lowered traces depends on: one
/// variant per kind of suite build job.
#[derive(Debug, Clone, Copy)]
pub enum TraceBundle<'a> {
    /// One GGNN workload: `hsu`, `base`, `stripped`.
    Ggnn(&'a GgnnParams),
    /// The FLANN and BVH-NN workloads over one 3-D point cloud: the three
    /// FLANN variants, then the three BVH-NN variants.
    ThreeD(&'a FlannParams, &'a BvhnnParams),
    /// One B+tree workload: `hsu`, `base`, `stripped`.
    Btree(&'a BtreeParams),
}

impl TraceBundle<'_> {
    /// The archive's chunk names, in the order the traces are built.
    fn names(self) -> &'static [&'static str] {
        match self {
            TraceBundle::Ggnn(_) | TraceBundle::Btree(_) => &["hsu", "base", "stripped"],
            TraceBundle::ThreeD(..) => &[
                "flann-hsu",
                "flann-base",
                "flann-stripped",
                "bvhnn-hsu",
                "bvhnn-base",
                "bvhnn-stripped",
            ],
        }
    }
}

/// The loaded artifact, or a fresh one from `build` that `store` saves.
fn or_build<T>(loaded: Option<T>, build: impl FnOnce() -> T, store: impl FnOnce(&T)) -> T {
    loaded.unwrap_or_else(|| {
        let built = build();
        store(&built);
        built
    })
}

/// Best-effort, content-keyed archive store shared by the suite's build
/// jobs. `None` for the directory disables every method (all loads miss,
/// all stores are no-ops), which is the default cold path.
#[derive(Debug)]
pub struct ArchiveCache {
    dir: Option<PathBuf>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ArchiveCache {
    /// A cache rooted at `dir` (created if missing), or a disabled cache
    /// for `None`. An unwritable directory disables the cache with a
    /// warning rather than failing the run.
    pub fn new(dir: Option<PathBuf>) -> Self {
        let dir = dir.and_then(|d| match std::fs::create_dir_all(&d) {
            Ok(()) => Some(d),
            Err(e) => {
                eprintln!(
                    "warning: archive cache disabled: creating {}: {e}",
                    d.display()
                );
                None
            }
        });
        ArchiveCache {
            dir,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> Self {
        Self::new(None)
    }

    /// Whether a directory is attached.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Successful loads so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed loads (including every load while disabled).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The file a `(stem, key)` pair maps to: `<dir>/<stem>-<hash16>.hsar`.
    /// The stem keeps the directory human-readable; the key hash carries
    /// the actual identity.
    fn path_for(&self, stem: &str, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{stem}-{:016x}.hsar", key_hash(key))))
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn report_load<T, E: std::fmt::Display>(&self, path: &Path, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.hit();
                Some(v)
            }
            Err(e) => {
                // A plain missing file is the normal cold case — stay quiet.
                if path.exists() {
                    eprintln!("warning: archive cache: rebuilding {}: {e}", path.display());
                }
                self.miss();
                None
            }
        }
    }

    fn report_store<E: std::fmt::Display>(path: &Path, result: Result<(), E>) {
        if let Err(e) = result {
            eprintln!(
                "warning: archive cache: writing {} failed (continuing uncached): {e}",
                path.display()
            );
        }
    }

    /// Generated dataset `id` with `n` points. The key pins the generator
    /// version, dataset id, seed and exact size, so a restored dataset is
    /// bit-identical to a regenerated one.
    pub fn dataset(&self, id: DatasetId, seed: u64, n: usize) -> Dataset {
        let stem = format!("dataset-{id:?}");
        let key = format!("hsar-dataset-v1|{id:?}|seed={seed}|n={n}");
        or_build(
            self.load_dataset(&stem, &key, id),
            || Dataset::generate_scaled(id, seed, Some(n)),
            |ds| self.store_dataset(&stem, &key, ds),
        )
    }

    /// HNSW graph over `data` (dataset `id`), built with `config` and
    /// `seed`.
    pub fn graph(
        &self,
        id: DatasetId,
        seed: u64,
        data: &PointSet,
        metric: Metric,
        config: GraphConfig,
    ) -> HnswGraph {
        let stem = format!("graph-{id:?}");
        let n = data.len();
        let key = format!("hsar-graph-v1|{id:?}|seed={seed}|n={n}|metric={metric:?}|{config:?}");
        or_build(
            self.load_graph(&stem, &key),
            || HnswGraph::build(data, metric, config, seed),
            |graph| self.store_graph(&stem, &key, graph),
        )
    }

    /// FLANN's k-d tree ([`FlannWorkload::build_tree`]) over `data`
    /// (dataset `id`, generated with `seed`).
    pub fn kdtree(&self, id: DatasetId, seed: u64, data: &PointSet) -> KdTree {
        let stem = format!("kdtree-{id:?}");
        let n = data.len();
        let key = format!("hsar-kdtree-v1|{id:?}|seed={seed}|n={n}|leaf=4|metric=euclid");
        or_build(
            self.load_kdtree(&stem, &key),
            || FlannWorkload::build_tree(data),
            |tree| self.store_kdtree(&stem, &key, tree),
        )
    }

    /// BVH-NN's BVH2 over `data` (dataset `id`) plus the search radius
    /// planned with it ([`BvhnnWorkload::plan`]).
    pub fn bvh(&self, id: DatasetId, params: &BvhnnParams, data: &PointSet) -> (Bvh2, f32) {
        let stem = format!("bvh-{id:?}");
        let key = format!(
            "hsar-bvh-v1|{id:?}|seed={}|n={}|flavor={:?}|rs={}",
            params.seed,
            data.len(),
            params.flavor,
            params.radius_scale
        );
        or_build(
            self.load_bvh(&stem, &key),
            || BvhnnWorkload::plan(params, data),
            |(bvh, radius)| self.store_bvh(&stem, &key, bvh, *radius),
        )
    }

    /// The suite's B+tree for dataset slot `id`, bulk-built from `pairs`
    /// (generated from `params`).
    pub fn btree(&self, id: DatasetId, params: &BtreeParams, pairs: &[(u32, u64)]) -> BPlusTree {
        let stem = format!("btree-{id:?}");
        let key = format!("hsar-btree-v1|{id:?}|{params:?}");
        or_build(
            self.load_btree(&stem, &key),
            || BPlusTree::bulk_build(pairs.to_vec(), params.branch),
            |tree| self.store_btree(&stem, &key, tree),
        )
    }

    /// The serving B+tree over `params.keys` seeded pairs. Its key leaves
    /// out the lookup count, so every query stream shares one archive.
    pub fn serve_btree(&self, params: &BtreeParams) -> BPlusTree {
        let stem = "btree-serve";
        let key = format!(
            "hsar-btree-v1|serve|keys={}|branch={}|seed={}",
            params.keys, params.branch, params.seed
        );
        or_build(
            self.load_btree(stem, &key),
            || {
                let (pairs, _) = BtreeWorkload::generate_inputs(params);
                BPlusTree::bulk_build(pairs, params.branch)
            },
            |tree| self.store_btree(stem, &key, tree),
        )
    }

    /// The lowered traces of one suite build job on dataset `id`, in the
    /// order its [`TraceBundle`] variant lists. A hit skips `lower`
    /// entirely — with it, every dataset, index and search the bundle was
    /// recorded from.
    pub fn traces(
        &self,
        id: DatasetId,
        bundle: TraceBundle<'_>,
        lower: impl FnOnce() -> Vec<KernelTrace>,
    ) -> Vec<KernelTrace> {
        let (tag, params) = match bundle {
            TraceBundle::Ggnn(p) => ("ggnn", format!("{p:?}")),
            TraceBundle::ThreeD(f, b) => ("3d", format!("{f:?}|{b:?}")),
            TraceBundle::Btree(p) => ("btree", format!("{p:?}")),
        };
        let stem = format!("traces-{tag}-{id:?}");
        // The key names what was recorded, not how it is encoded: an
        // archive written by an older trace stream keeps its key, and the
        // stream's own version byte retires it ("unsupported trace version
        // N"), so it misses and rebuilds in place. The benchmark's traced
        // set-ups write this key by hand, so it stays fixed across stream
        // versions.
        let key = format!("hsar-traces-v1|{tag}|{id:?}|{params}");
        let names = bundle.names();
        or_build(self.load_traces(&stem, &key, names), lower, |traces| {
            let named: Vec<(&str, &KernelTrace)> = names.iter().copied().zip(traces).collect();
            self.store_traces(&stem, &key, &named);
        })
    }

    /// Loads the named traces from the trace archive for `(stem, key)`.
    fn load_traces(&self, stem: &str, key: &str, names: &[&str]) -> Option<Vec<KernelTrace>> {
        let path = self.path_for(stem, key)?;
        self.report_load(
            &path,
            hsu_sim::archive_io::read_trace_archive(&path, key, names),
        )
    }

    /// Stores named traces under `(stem, key)`.
    pub fn store_traces(&self, stem: &str, key: &str, traces: &[(&str, &KernelTrace)]) {
        let Some(path) = self.path_for(stem, key) else {
            return;
        };
        Self::report_store(
            &path,
            hsu_sim::archive_io::write_trace_archive(&path, key, traces),
        );
    }

    /// Loads a generated dataset.
    fn load_dataset(&self, stem: &str, key: &str, id: DatasetId) -> Option<Dataset> {
        let path = self.path_for(stem, key)?;
        self.report_load(
            &path,
            hsu_datasets::archive_io::read_dataset_archive(&path, key, id),
        )
    }

    /// Stores a generated dataset.
    pub fn store_dataset(&self, stem: &str, key: &str, dataset: &Dataset) {
        let Some(path) = self.path_for(stem, key) else {
            return;
        };
        Self::report_store(
            &path,
            hsu_datasets::archive_io::write_dataset_archive(&path, key, dataset),
        );
    }

    /// Loads an HNSW graph index.
    fn load_graph(&self, stem: &str, key: &str) -> Option<HnswGraph> {
        self.load_index(stem, key, kind::GRAPH, "graph", |b| {
            hsu_graph::archive_io::graph_from_chunk(b, "index/graph")
        })
    }

    /// Stores an HNSW graph index.
    pub fn store_graph(&self, stem: &str, key: &str, graph: &HnswGraph) {
        self.store_index(stem, key, kind::GRAPH, "graph", || {
            hsu_graph::archive_io::graph_to_chunk(graph)
        });
    }

    /// Loads a k-d tree index.
    fn load_kdtree(&self, stem: &str, key: &str) -> Option<KdTree> {
        self.load_index(stem, key, kind::KDTREE, "kdtree", |b| {
            hsu_kdtree::archive_io::kdtree_from_chunk(b, "index/kdtree")
        })
    }

    /// Stores a k-d tree index.
    pub fn store_kdtree(&self, stem: &str, key: &str, tree: &KdTree) {
        self.store_index(stem, key, kind::KDTREE, "kdtree", || {
            hsu_kdtree::archive_io::kdtree_to_chunk(tree)
        });
    }

    /// Loads a BVH2 index plus the search radius planned with it (stored as
    /// a `SCALAR` side chunk so the planner's O(n²) median pass is skipped
    /// on warm runs too).
    fn load_bvh(&self, stem: &str, key: &str) -> Option<(Bvh2, f32)> {
        let path = self.path_for(stem, key)?;
        let result = (|| {
            let mut archive = FileArchive::open(&path)?;
            archive.expect_key(key)?;
            let bytes = archive.read("index/bvh2", kind::BVH2)?;
            let bvh = hsu_bvh::archive_io::bvh2_from_chunk(&bytes, "index/bvh2")?;
            let rbytes = archive.read("index/radius", kind::SCALAR)?;
            let mut c = hsu_archive::payload::Cursor::new(&rbytes, "index/radius");
            let radius = c.f32()?;
            c.finish()?;
            Ok::<_, hsu_archive::ArchiveError>((bvh, radius))
        })();
        self.report_load(&path, result)
    }

    /// Stores a BVH2 index plus its planned radius.
    pub fn store_bvh(&self, stem: &str, key: &str, bvh: &Bvh2, radius: f32) {
        let Some(path) = self.path_for(stem, key) else {
            return;
        };
        let mut w = ArchiveWriter::new();
        w.set_key(key);
        w.begin_group("index");
        w.add_chunk("bvh2", kind::BVH2, &hsu_bvh::archive_io::bvh2_to_chunk(bvh));
        let mut rbytes = Vec::new();
        hsu_archive::payload::put_f32(&mut rbytes, radius);
        w.add_chunk("radius", kind::SCALAR, &rbytes);
        w.end_group();
        Self::report_store(&path, w.finish_to_file(&path));
    }

    /// Loads a B+-tree index.
    fn load_btree(&self, stem: &str, key: &str) -> Option<BPlusTree> {
        self.load_index(stem, key, kind::BTREE, "btree", |b| {
            hsu_btree::archive_io::btree_from_chunk(b, "index/btree")
        })
    }

    /// Stores a B+-tree index.
    pub fn store_btree(&self, stem: &str, key: &str, tree: &BPlusTree) {
        self.store_index(stem, key, kind::BTREE, "btree", || {
            hsu_btree::archive_io::btree_to_chunk(tree)
        });
    }

    /// Shared single-chunk index load: open, check key, read
    /// `index/<name>`, decode.
    fn load_index<T>(
        &self,
        stem: &str,
        key: &str,
        chunk_kind: u32,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, hsu_archive::ArchiveError>,
    ) -> Option<T> {
        let path = self.path_for(stem, key)?;
        let result = (|| {
            let mut archive = FileArchive::open(&path)?;
            archive.expect_key(key)?;
            let bytes = archive.read(&format!("index/{name}"), chunk_kind)?;
            decode(&bytes)
        })();
        self.report_load(&path, result)
    }

    /// Shared single-chunk index store.
    fn store_index(
        &self,
        stem: &str,
        key: &str,
        chunk_kind: u32,
        name: &str,
        encode: impl FnOnce() -> Vec<u8>,
    ) {
        let Some(path) = self.path_for(stem, key) else {
            return;
        };
        let mut w = ArchiveWriter::new();
        w.set_key(key);
        w.begin_group("index");
        w.add_chunk(name, chunk_kind, &encode());
        w.end_group();
        Self::report_store(&path, w.finish_to_file(&path));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hsu-cache-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = ArchiveCache::disabled();
        assert!(!cache.enabled());
        assert!(cache.path_for("x", "k").is_none());
        assert!(cache.load_btree("x", "k").is_none());
        // Loads while disabled don't even count as misses (no path).
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn btree_round_trip_and_self_heal() {
        let dir = tmp("btree");
        let cache = ArchiveCache::new(Some(dir.clone()));
        let tree = BPlusTree::bulk_build((0..500u32).map(|k| (k, u64::from(k))).collect(), 8);
        assert!(cache.load_btree("bt", "key-1").is_none());
        cache.store_btree("bt", "key-1", &tree);
        let restored = cache.load_btree("bt", "key-1").expect("warm hit");
        assert_eq!(restored.len(), tree.len());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        // Corrupt the file: the load reports a miss and the caller rebuilds.
        let path = cache.path_for("bt", "key-1").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load_btree("bt", "key-1").is_none());
        // Different key, same stem -> different file, still a miss.
        assert!(cache.load_btree("bt", "key-2").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bvh_round_trip_keeps_radius() {
        use hsu_bvh::{LbvhBuilder, PointPrimitive};
        use hsu_geometry::Vec3;
        let dir = tmp("bvh");
        let cache = ArchiveCache::new(Some(dir.clone()));
        let prims: Vec<PointPrimitive> = (0..64)
            .map(|i| PointPrimitive::new(i, Vec3::new(i as f32, 0.5, -1.0), 0.25))
            .collect();
        let bvh = LbvhBuilder::default().build(&prims);
        cache.store_bvh("bvh", "k", &bvh, 0.75);
        let (restored, radius) = cache.load_bvh("bvh", "k").expect("warm hit");
        assert_eq!(radius, 0.75);
        assert_eq!(
            hsu_bvh::archive_io::bvh2_to_chunk(&restored),
            hsu_bvh::archive_io::bvh2_to_chunk(&bvh)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
