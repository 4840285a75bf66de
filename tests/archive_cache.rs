//! The warm-cache golden guarantee, end to end: a suite built from a
//! populated `--archive-dir` must be byte-identical — reports, run order,
//! and rendered figure text — to a cold build with an empty cache dir and
//! to a build with no cache at all, across `--jobs` 1 and 8. Re-running
//! from the archive must *skip* work, never change it.

use hsu_archive::{kind, ArchiveWriter, SliceArchive, KEY_PATH};
use hsu_bench::{figures, ArchiveCache, Suite, SuiteConfig};
use hsu_geometry::point::Metric;
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
