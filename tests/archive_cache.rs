//! The warm-cache golden guarantee, end to end: a suite built from a
//! populated `--archive-dir` must be byte-identical — reports, run order,
//! and rendered figure text — to a cold build with an empty cache dir and
//! to a build with no cache at all, across `--jobs` 1 and 8. Re-running
//! from the archive must *skip* work, never change it.

use hsu_archive::{kind, ArchiveWriter, SliceArchive, KEY_PATH};
use hsu_bench::{figures, ArchiveCache, Suite, SuiteConfig};
use hsu_datasets::DatasetId;
use hsu_geometry::point::Metric;
use hsu_serve::{BtreeIndex, BvhIndex, GraphIndex, KdIndex};
use hsu_sim::archive_io::TRACES_GROUP;
use hsu_sim::trace::ThreadOp;
use hsu_sim::trace_io::{load_trace, read_trace};
use hsu_sim::SimError;

/// Down-scaled but complete configuration: all app × dataset runs.
fn small_config() -> SuiteConfig {
    SuiteConfig {
        sms: 2,
        scale_divisor: 64,
        ..SuiteConfig::default()
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hsu-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_suites_identical(a: &Suite, b: &Suite, what: &str) {
    assert_eq!(a.runs.len(), b.runs.len(), "{what}: run count differs");
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.label, y.label, "{what}: run ordering drifted");
        assert_eq!(x.hsu, y.hsu, "{what}: {} hsu report drifted", x.label);
        assert_eq!(x.base, y.base, "{what}: {} base report drifted", x.label);
        assert_eq!(
            x.stripped, y.stripped,
            "{what}: {} stripped report drifted",
            x.label
        );
    }
    assert_eq!(
        figures::fig9(a),
        figures::fig9(b),
        "{what}: fig9 text differs"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "multiple full suite builds are slow unoptimized; run with --release"
)]
fn warm_cache_build_is_byte_identical_to_cold_and_uncached() {
    let dir = fresh_dir("coldwarm");

    // No cache at all — the pre-archive behavior, our reference.
    let uncached = Suite::build(small_config());

    // Cold: empty archive dir, populated as a side effect.
    let cold = Suite::build(small_config().with_archive_dir(&dir));
    assert_suites_identical(&uncached, &cold, "cold-vs-uncached");
    assert!(
        std::fs::read_dir(&dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false),
        "cold build must populate the archive dir"
    );

    // Warm: every build product loads from the archive.
    let warm = Suite::build(small_config().with_archive_dir(&dir));
    assert_suites_identical(&cold, &warm, "warm-vs-cold");

    // And the warm phase A really did come from the cache: zero misses.
    let cache = ArchiveCache::new(Some(dir.clone()));
    Suite::prepare_traces(&small_config(), &cache);
    assert_eq!(cache.misses(), 0, "warm phase A must not rebuild anything");
    assert!(cache.hits() > 0, "warm phase A must hit the cache");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "multiple full suite builds are slow unoptimized; run with --release"
)]
fn warm_cache_is_byte_identical_across_jobs_1_and_8() {
    let dir = fresh_dir("jobs");

    // Populate with jobs=1, then consume warm with jobs=8 (and vice versa):
    // cache state must be invisible to the parallel scheduler and the
    // scheduler invisible to the cache.
    let cold_seq = Suite::build(small_config().with_archive_dir(&dir));
    let warm_par = Suite::build(small_config().with_archive_dir(&dir).with_jobs(8));
    assert_suites_identical(&cold_seq, &warm_par, "warm-jobs8-vs-cold-jobs1");

    let warm_seq = Suite::build(small_config().with_archive_dir(&dir));
    assert_suites_identical(&warm_par, &warm_seq, "warm-jobs1-vs-warm-jobs8");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Trace archives alone are enough to reconstruct phase A: the prepared
/// traces from a warm cache equal the cold-built ones exactly.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full phase A is slow unoptimized; run with --release"
)]
fn prepared_traces_match_between_cold_and_warm() {
    let dir = fresh_dir("traces");
    let config = small_config();

    let cold_cache = ArchiveCache::new(Some(dir.clone()));
    let cold = Suite::prepare_traces(&config, &cold_cache);
    assert_eq!(cold_cache.hits(), 0, "first build must be all misses");

    let warm_cache = ArchiveCache::new(Some(dir.clone()));
    let warm = Suite::prepare_traces(&config, &warm_cache);
    assert_eq!(warm_cache.misses(), 0, "second build must be all hits");

    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.label, w.label, "plan order drifted");
        assert_eq!(c.hsu, w.hsu, "{}: hsu trace drifted", c.label);
        assert_eq!(c.base, w.base, "{}: base trace drifted", c.label);
        assert_eq!(
            c.stripped, w.stripped,
            "{}: stripped trace drifted",
            c.label
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The version-1 trace stream — one op log per thread — as its encoder
/// wrote it before traces were stored warp-packed. A test-only copy, kept
/// to prove that caches written in the old format are rejected.
fn write_trace_v1(name: &str, threads: &[Vec<ThreadOp>]) -> Vec<u8> {
    let mut w = b"HSUT\x01".to_vec();
    w.extend((name.len() as u32).to_le_bytes());
    w.extend(name.as_bytes());
    w.extend((threads.len() as u32).to_le_bytes());
    for ops in threads {
        w.extend((ops.len() as u32).to_le_bytes());
        for op in ops {
            let (tag, addr, word): (u8, Option<u64>, u32) = match *op {
                ThreadOp::Alu { count } => (0, None, count),
                ThreadOp::Load { addr, bytes } => (1, Some(addr), bytes),
                ThreadOp::Store { addr, bytes } => (2, Some(addr), bytes),
                ThreadOp::Shared { count } => (3, None, count),
                ThreadOp::HsuRayIntersect {
                    node_addr,
                    bytes,
                    triangle,
                } => (if triangle { 5 } else { 4 }, Some(node_addr), bytes),
                ThreadOp::HsuDistance {
                    metric,
                    dim,
                    candidate_addr,
                } => {
                    let tag = match metric {
                        Metric::Euclidean => 6,
                        Metric::Angular => 7,
                    };
                    (tag, Some(candidate_addr), dim)
                }
                ThreadOp::HsuKeyCompare {
                    node_addr,
                    separators,
                } => (8, Some(node_addr), separators),
            };
            w.push(tag);
            if let Some(addr) = addr {
                w.extend(addr.to_le_bytes());
            }
            w.extend(word.to_le_bytes());
        }
    }
    w
}

fn v1_sample() -> Vec<u8> {
    let thread = vec![
        ThreadOp::Alu { count: 3 },
        ThreadOp::Load {
            addr: 0x80,
            bytes: 4,
        },
        ThreadOp::HsuKeyCompare {
            node_addr: 0x1000,
            separators: 40,
        },
    ];
    write_trace_v1("stale", &[thread.clone(), thread])
}

/// A v1 stream fails with a typed error that names its version, from both
/// the stream decoder and the file loader.
#[test]
fn v1_trace_streams_are_rejected_by_version() {
    let err = read_trace(v1_sample().as_slice()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("unsupported trace version 1"),
        "{err}"
    );

    let dir = fresh_dir("v1-file");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stale.hsut");
    std::fs::write(&path, v1_sample()).unwrap();
    match load_trace(&path).unwrap_err() {
        SimError::TraceDecode { ref detail } if detail.contains("unsupported trace version 1") => {}
        other => panic!("expected a version-1 TraceDecode, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-2 stream, written by hand as its encoder laid it out: one
/// thread, one Load instruction with its one lane's op (v2 stored a
/// Load/Store op per active lane and no range count).
fn v2_sample() -> Vec<u8> {
    let mut w = b"HSUT\x02".to_vec();
    w.extend(5u32.to_le_bytes());
    w.extend(b"stale");
    for total in [1u32, 1, 1] {
        w.extend(total.to_le_bytes()); // threads, instructions, ops
    }
    w.extend(1u32.to_le_bytes()); // warp 0's instruction count
    w.push(1); // class Load
    w.extend(1u32.to_le_bytes()); // active mask
    w.push(1); // op tag Load
    w.extend(0x80u64.to_le_bytes());
    w.extend(4u32.to_le_bytes());
    w
}

/// A v2 stream — per-lane Load/Store ops — is rejected by its version, so
/// a cache written before memory ops were merged into ranges misses too.
#[test]
fn v2_trace_streams_are_rejected_by_version() {
    let err = read_trace(v2_sample().as_slice()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("unsupported trace version 2"),
        "{err}"
    );
}

/// A cache dir written by the v1 encoder keeps its archive keys, so every
/// trace archive is found — and must then miss on the stream version,
/// rebuild, and leave a cache the next run hits in full, with reports
/// identical to an uncached build.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "several phase-A and suite builds are slow unoptimized; run with --release"
)]
fn stale_v1_trace_archives_miss_and_rebuild() {
    let dir = fresh_dir("stale-v1");
    let config = small_config();
    let cold = Suite::prepare_traces(&config, &ArchiveCache::new(Some(dir.clone())));

    // Rewrite every trace archive as the v1 encoder would have: same key,
    // same chunk names, v1 payloads.
    let mut stale = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let is_traces = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("traces-"));
        if !is_traces {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let archive = SliceArchive::parse(&bytes).unwrap();
        let key = String::from_utf8(archive.read(KEY_PATH, kind::META).unwrap().to_vec()).unwrap();
        let prefix = format!("{TRACES_GROUP}/");
        let mut w = ArchiveWriter::new();
        w.set_key(&key);
        w.begin_group(TRACES_GROUP);
        for e in archive.entries() {
            if let Some(name) = e.path.strip_prefix(&prefix) {
                w.add_chunk(name, kind::TRACE, &v1_sample());
            }
        }
        w.end_group();
        w.finish_to_file(&path).unwrap();
        stale += 1;
    }
    assert!(stale > 0, "the cold build must write trace archives");

    let rebuilt_cache = ArchiveCache::new(Some(dir.clone()));
    let rebuilt = Suite::prepare_traces(&config, &rebuilt_cache);
    assert_eq!(
        rebuilt_cache.misses(),
        stale,
        "every v1 trace archive must miss, and nothing else"
    );

    let warm_cache = ArchiveCache::new(Some(dir.clone()));
    let warm = Suite::prepare_traces(&config, &warm_cache);
    assert_eq!(warm_cache.misses(), 0, "the rebuilt cache must hit in full");
    assert!(warm_cache.hits() > 0);
    for traces in [&rebuilt, &warm] {
        assert_eq!(traces.len(), cold.len());
        for (c, t) in cold.iter().zip(traces) {
            assert_eq!(c.label, t.label, "plan order drifted");
            assert_eq!(c.hsu, t.hsu, "{}: hsu trace drifted", c.label);
            assert_eq!(c.base, t.base, "{}: base trace drifted", c.label);
            assert_eq!(
                c.stripped, t.stripped,
                "{}: stripped trace drifted",
                c.label
            );
        }
    }

    let uncached = Suite::build(config.clone());
    let warm_suite = Suite::build(config.with_archive_dir(&dir));
    assert_suites_identical(&uncached, &warm_suite, "warm-after-stale-vs-uncached");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A disabled cache (no `--archive-dir`, i.e. `--no-cache`) builds
/// everything and records nothing — quick enough to run in debug.
#[test]
fn disabled_cache_counts_nothing() {
    let cache = ArchiveCache::new(None);
    assert!(!cache.enabled());
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 0);
}

/// Sorted `.hsar` file names in `dir`.
fn archive_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Every archive a cold phase A writes at [`small_config`]. A name is
/// `<stem>-<hash16>.hsar`, and the hash covers the full key string, so an
/// equal name means a byte-identical key.
const SUITE_ARCHIVES: &[&str] = &[
    "btree-BTree10k-14ea6bb4e7b9afc1.hsar",
    "btree-BTree1m-67f8e33b0a58c268.hsar",
    "bvh-Buddha-a60473d92098a0e4.hsar",
    "bvh-Bunny-d3e442242f29d2ee.hsar",
    "bvh-Cosmos-25a82d02b82ab09a.hsar",
    "bvh-Dragon-b8b826a3126517f3.hsar",
    "bvh-Random10k-75a0eaaf05c68e1a.hsar",
    "dataset-Buddha-1d9ad14a7f4db57d.hsar",
    "dataset-Bunny-fddf118116ce229f.hsar",
    "dataset-Cosmos-69b6288055d90a23.hsar",
    "dataset-Deep1b-dcdc4100937b1a2b.hsar",
    "dataset-Dragon-a54158d2baf9bfda.hsar",
    "dataset-FashionMnist-12520aa41e839b01.hsar",
    "dataset-Gist-084edce449590367.hsar",
    "dataset-Glove-e99fc0792e529730.hsar",
    "dataset-LastFm-1bba12a9f072df97.hsar",
    "dataset-Mnist-9debd879f4ccaf2d.hsar",
    "dataset-Nytimes-2c879404403efd25.hsar",
    "dataset-Random10k-f5e25c63da75c1eb.hsar",
    "dataset-Sift10k-fb09d12008b8fbd8.hsar",
    "dataset-Sift1m-15964ca941ddf6fa.hsar",
    "graph-Deep1b-30f160549b2679fe.hsar",
    "graph-FashionMnist-5c4e7158429d4132.hsar",
    "graph-Gist-89c1fdd89d7c830c.hsar",
    "graph-Glove-064672aaeb822ac1.hsar",
    "graph-LastFm-e0f2ca0ce2b68ee2.hsar",
    "graph-Mnist-7e819002f18d54d6.hsar",
    "graph-Nytimes-f3afb9cfb47d9ef0.hsar",
    "graph-Sift10k-64aa2105cb291eb3.hsar",
    "graph-Sift1m-b9db9f7d32052891.hsar",
    "kdtree-Buddha-a49950fec91864da.hsar",
    "kdtree-Bunny-ad48f632de42dea2.hsar",
    "kdtree-Cosmos-2b52043911f16e28.hsar",
    "kdtree-Dragon-92e529dc3b022ad7.hsar",
    "kdtree-Random10k-a041d19f03c338ba.hsar",
    "traces-3d-Buddha-61f0f08c44a4e0ef.hsar",
    "traces-3d-Bunny-a088f0233c4787ef.hsar",
    "traces-3d-Cosmos-c3d7f52953c0f8f1.hsar",
    "traces-3d-Dragon-443f3716f903895e.hsar",
    "traces-3d-Random10k-46ad541a5a6c45a8.hsar",
    "traces-btree-BTree10k-bc785c3e48e7da1b.hsar",
    "traces-btree-BTree1m-188dc538071f924a.hsar",
    "traces-ggnn-Deep1b-035632009789c81a.hsar",
    "traces-ggnn-FashionMnist-438decb7d7af4b2a.hsar",
    "traces-ggnn-Gist-355a4d7891151a90.hsar",
    "traces-ggnn-Glove-675f5edb41ef9ae2.hsar",
    "traces-ggnn-LastFm-4f317ee047223dc8.hsar",
    "traces-ggnn-Mnist-5e0d372379e0d41e.hsar",
    "traces-ggnn-Nytimes-15fac628e0204f90.hsar",
    "traces-ggnn-Sift10k-eb0d026df0a6db11.hsar",
    "traces-ggnn-Sift1m-e85c9c56b722df23.hsar",
];

/// Every archive a cold open of the four serving families writes at the
/// sizes in [`archive_names_are_pinned`].
const SERVE_ARCHIVES: &[&str] = &[
    "btree-serve-2f0abd43e4ecd519.hsar",
    "bvh-Bunny-3a9fc33bf5f99e33.hsar",
    "dataset-Bunny-323a9d81349205da.hsar",
    "dataset-Sift10k-3128486ec404375b.hsar",
    "graph-Sift10k-fd32575fe3f4c4e3.hsar",
    "kdtree-Bunny-d09946050b9e02e5.hsar",
];

/// The archive keys are the cache's identity: a warm run is byte-identical
/// to a cold one only because every key names every input of its artifact.
/// Pinning the file names pins every key, for the suite and for serving,
/// together with the order-independent miss and hit counts.
#[test]
fn archive_names_are_pinned() {
    let dir = fresh_dir("names-suite");
    let cold = ArchiveCache::new(Some(dir.clone()));
    Suite::prepare_traces(&small_config(), &cold);
    assert_eq!(archive_names(&dir), SUITE_ARCHIVES);
    // 16 trace bundles, 14 datasets, 9 graphs, 5 k-d trees, 5 BVHs and
    // 2 B+trees; a warm run loads only the 16 trace bundles.
    assert_eq!((cold.hits(), cold.misses()), (0, 51));
    let warm = ArchiveCache::new(Some(dir.clone()));
    Suite::prepare_traces(&small_config(), &warm);
    assert_eq!((warm.hits(), warm.misses()), (16, 0));
    let _ = std::fs::remove_dir_all(&dir);

    let dir = fresh_dir("names-serve");
    let open_all = |cache: &ArchiveCache| {
        GraphIndex::open(cache, DatasetId::Sift10k, 300, 7, 5, 32).expect("open graph");
        KdIndex::open(cache, DatasetId::Bunny, 400, 7, 5, 16).expect("open kd");
        BvhIndex::open(cache, DatasetId::Bunny, 400, 7, 5).expect("open bvh");
        BtreeIndex::open(cache, 2_000, 3);
    };
    let cold = ArchiveCache::new(Some(dir.clone()));
    open_all(&cold);
    assert_eq!(archive_names(&dir), SERVE_ARCHIVES);
    // The k-d and BVH indexes share Bunny's dataset archive.
    assert_eq!((cold.hits(), cold.misses()), (1, 6));
    let warm = ArchiveCache::new(Some(dir.clone()));
    open_all(&warm);
    assert_eq!((warm.hits(), warm.misses()), (7, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
