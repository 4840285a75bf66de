//! The parity-locked round-trip discipline: for every producer that writes
//! through the archive crate, **encode → decode → re-encode must be
//! byte-identical**. Equal content must always produce equal bytes — the
//! warm-cache golden guarantee (a cached suite re-run is byte-identical to
//! a cold one) rests on exactly this property, so it is pinned here for
//! traces, datasets, and each index type, plus the container format itself
//! under proptest-driven random payload sizes and chunk boundaries.

use proptest::prelude::*;

use hsu_archive::{kind, ArchiveWriter, SliceArchive};

// ---------------------------------------------------------------------------
// Container-level parity
// ---------------------------------------------------------------------------

/// Re-encodes a parsed archive from its decoded entries alone. Groups are
/// reopened from each entry's path, which works because the writer emits
/// chunks in depth-first group order.
fn reencode(bytes: &[u8], key: Option<&str>) -> Vec<u8> {
    let archive = SliceArchive::parse(bytes).expect("original must parse");
    let mut w = ArchiveWriter::new();
    if let Some(key) = key {
        w.set_key(key);
    }
    let mut open: Vec<String> = Vec::new();
    for entry in archive.entries() {
        if key.is_some() && entry.path == hsu_archive::KEY_PATH {
            continue; // set_key re-created it
        }
        let mut parts: Vec<&str> = entry.path.split('/').collect();
        let name = parts.pop().expect("chunk path has a name");
        // Close groups that are no longer on the path, open the new ones.
        let common = open
            .iter()
            .zip(&parts)
            .take_while(|(a, b)| a.as_str() == **b)
            .count();
        for _ in common..open.len() {
            w.end_group();
            open.pop();
        }
        for part in &parts[common..] {
            w.begin_group(part);
            open.push((*part).to_string());
        }
        let payload = archive.chunk_bytes(entry).expect("chunk must verify");
        w.add_chunk(name, entry.kind, payload);
    }
    for _ in 0..open.len() {
        w.end_group();
    }
    w.finish()
}

#[test]
fn container_reencode_is_byte_identical() {
    let mut w = ArchiveWriter::new();
    w.set_key("parity-key");
    w.begin_group("a");
    w.add_chunk("one", kind::META, b"hello");
    w.begin_group("nested");
    w.add_chunk("two", kind::TRACE, &[0u8; 4096]);
    w.end_group();
    w.add_chunk("three", kind::SCALAR, &[]);
    w.end_group();
    w.begin_group("b");
    w.add_chunk("four", kind::POINTS, &[7u8; 13]);
    w.end_group();
    let bytes = w.finish();
    assert_eq!(reencode(&bytes, Some("parity-key")), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random payload sizes (including empty and footer/index-boundary
    /// straddling sizes) and random group fan-out: the decoded entries
    /// always re-encode to the original bytes.
    #[test]
    fn random_archives_reencode_byte_identical(
        groups in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..4),
            1..5,
        ),
    ) {
        let mut w = ArchiveWriter::new();
        for (gi, chunks) in groups.iter().enumerate() {
            w.begin_group(&format!("g{gi}"));
            for (ci, payload) in chunks.iter().enumerate() {
                let k = kind::ALL[(gi * 3 + ci) % kind::ALL.len()];
                w.add_chunk(&format!("c{ci}"), k, payload);
            }
            w.end_group();
        }
        let bytes = w.finish();
        prop_assert_eq!(reencode(&bytes, None), bytes);
    }

    /// Payload round-trip at every size: what goes in comes out, verified
    /// against the per-chunk checksum, for payloads crossing the footer
    /// alignment every way.
    #[test]
    fn payload_sizes_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut w = ArchiveWriter::new();
        w.add_chunk("blob", kind::META, &payload);
        let bytes = w.finish();
        let archive = SliceArchive::parse(&bytes).expect("parse");
        let got = archive.read("blob", kind::META).expect("read");
        prop_assert_eq!(got, payload.as_slice());
    }

    /// Writer determinism: encoding the same content twice yields the same
    /// bytes (no timestamps, no padding, no iteration-order dependence).
    #[test]
    fn equal_content_produces_equal_bytes(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let build = || {
            let mut w = ArchiveWriter::new();
            w.set_key("det");
            w.begin_group("g");
            w.add_chunk("c", kind::TRACE, &payload);
            w.end_group();
            w.finish()
        };
        prop_assert_eq!(build(), build());
    }
}

// ---------------------------------------------------------------------------
// Producer-level parity: traces, datasets, each index type
// ---------------------------------------------------------------------------

fn sample_points(n: usize, dim: usize, seed: u64) -> hsu_geometry::point::PointSet {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    hsu_geometry::point::PointSet::from_rows(dim, data)
}

#[test]
fn trace_archive_parity() {
    use hsu_sim::archive_io::{decode_trace_archive, encode_trace_archive};
    use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};

    let mut kernel = KernelTrace::builder("parity");
    for t in 0..40u64 {
        let mut tt = ThreadTrace::new();
        tt.push(ThreadOp::Alu {
            count: 1 + (t % 3) as u32,
        });
        tt.push(ThreadOp::Load {
            addr: t * 64,
            bytes: 8,
        });
        kernel.push_thread(tt);
    }
    let kernel = kernel.finish();
    let key = "trace-parity-key";
    let bytes = encode_trace_archive(key, &[("hsu", &kernel)]).unwrap();
    let decoded = decode_trace_archive(&bytes, key, &["hsu"]).unwrap();
    let again = encode_trace_archive(key, &[("hsu", &decoded[0])]).unwrap();
    assert_eq!(again, bytes, "trace archive re-encode drifted");
    assert_eq!(decoded[0], kernel);
}

#[test]
fn dataset_points_parity() {
    use hsu_datasets::archive_io::{points_from_chunk, points_to_chunk};
    let points = sample_points(257, 5, 11);
    let chunk = points_to_chunk(&points);
    let restored = points_from_chunk(&chunk, "data/points").unwrap();
    assert_eq!(
        points_to_chunk(&restored),
        chunk,
        "points re-encode drifted"
    );
    assert_eq!(restored.as_flat(), points.as_flat());
}

#[test]
fn dataset_keys_parity() {
    use hsu_datasets::archive_io::{keys_from_chunk, keys_to_chunk};
    let keys: Vec<(u32, u64)> = (0..513u32)
        .map(|i| (i.wrapping_mul(2654435761), u64::from(i)))
        .collect();
    let chunk = keys_to_chunk(&keys);
    let restored = keys_from_chunk(&chunk, "data/keys").unwrap();
    assert_eq!(keys_to_chunk(&restored), chunk, "keys re-encode drifted");
    assert_eq!(restored, keys);
}

#[test]
fn graph_index_parity() {
    use hsu_graph::archive_io::{graph_from_chunk, graph_to_chunk};
    use hsu_graph::{GraphConfig, HnswGraph};
    let data = sample_points(300, 8, 3);
    let graph = HnswGraph::build(
        &data,
        hsu_geometry::point::Metric::Euclidean,
        GraphConfig::default(),
        3,
    );
    let chunk = graph_to_chunk(&graph);
    let restored = graph_from_chunk(&chunk, "index/graph").unwrap();
    assert_eq!(graph_to_chunk(&restored), chunk, "graph re-encode drifted");
}

#[test]
fn kdtree_index_parity() {
    use hsu_kdtree::archive_io::{kdtree_from_chunk, kdtree_to_chunk};
    use hsu_kdtree::KdTree;
    let data = sample_points(400, 3, 5);
    let tree = KdTree::build_with(&data, hsu_geometry::point::Metric::Euclidean, 4, None);
    let chunk = kdtree_to_chunk(&tree);
    let restored = kdtree_from_chunk(&chunk, "index/kdtree").unwrap();
    assert_eq!(
        kdtree_to_chunk(&restored),
        chunk,
        "kdtree re-encode drifted"
    );
}

#[test]
fn bvh_index_parity() {
    use hsu_bvh::archive_io::{bvh2_from_chunk, bvh2_to_chunk};
    use hsu_bvh::{LbvhBuilder, PointPrimitive};
    use hsu_geometry::Vec3;
    let data = sample_points(200, 3, 9);
    let prims: Vec<PointPrimitive> = (0..data.len())
        .map(|i| {
            let p = data.point(i);
            PointPrimitive::new(i as u32, Vec3::new(p[0], p[1], p[2]), 0.3)
        })
        .collect();
    let bvh = LbvhBuilder::default().build(&prims);
    let chunk = bvh2_to_chunk(&bvh);
    let restored = bvh2_from_chunk(&chunk, "index/bvh2").unwrap();
    assert_eq!(bvh2_to_chunk(&restored), chunk, "bvh re-encode drifted");
}

#[test]
fn btree_index_parity() {
    use hsu_btree::archive_io::{btree_from_chunk, btree_to_chunk};
    use hsu_btree::BPlusTree;
    let pairs: Vec<(u32, u64)> = (0..900u32)
        .map(|i| (i.wrapping_mul(40503) & 0xffff, u64::from(i)))
        .collect();
    let tree = BPlusTree::bulk_build(pairs, 16);
    let chunk = btree_to_chunk(&tree);
    let restored = btree_from_chunk(&chunk, "index/btree").unwrap();
    assert_eq!(btree_to_chunk(&restored), chunk, "btree re-encode drifted");
    restored.validate().expect("restored tree validates");
}

/// File-level parity: writing the same dataset archive twice (different
/// paths) produces identical files, and a read-back → re-write is identical
/// too — the property the cache's content keys rely on.
#[test]
fn dataset_archive_file_parity() {
    use hsu_datasets::archive_io::{read_dataset_archive, write_dataset_archive};
    use hsu_datasets::{Dataset, DatasetId};
    let dir = std::env::temp_dir().join(format!("hsu-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ds = Dataset::generate_scaled(DatasetId::Sift10k, 7, Some(200));
    let key = "file-parity";
    let a = dir.join("a.hsar");
    let b = dir.join("b.hsar");
    write_dataset_archive(&a, key, &ds).unwrap();
    let restored = read_dataset_archive(&a, key, DatasetId::Sift10k).unwrap();
    write_dataset_archive(&b, key, &restored).unwrap();
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
