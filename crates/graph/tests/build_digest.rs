//! Pins the exact bytes [`HnswGraph::build`] produces on two standard
//! datasets, one per metric.
//!
//! The digests are FNV-1a 64 over the `GRAPH` archive payload, so they fix
//! every adjacency list in order, the levels and the entry point. They were
//! recorded before the build gained its edge-distance, witness and norm
//! caches, so any drift in those caches fails here. Archived graphs are
//! keyed on the build inputs alone, which is why the bytes must never move.

use hsu_archive::fnv1a64;
use hsu_datasets::{Dataset, DatasetId};
use hsu_geometry::point::Metric;
use hsu_graph::archive_io::graph_to_chunk;
use hsu_graph::{GraphConfig, HnswGraph};

fn build_digest(id: DatasetId, metric: Metric) -> u64 {
    let ds = Dataset::generate_scaled(id, 7, Some(3000));
    let data = ds.points().expect("point dataset");
    let graph = HnswGraph::build(data, metric, GraphConfig::default(), 7);
    fnv1a64(&graph_to_chunk(&graph))
}

#[test]
fn sift10k_euclidean_build_is_pinned() {
    let d = build_digest(DatasetId::Sift10k, Metric::Euclidean);
    assert_eq!(d, 0xed24_37d8_407e_7af3, "digest {d:#018x}");
}

#[test]
fn lastfm_angular_build_is_pinned() {
    let d = build_digest(DatasetId::LastFm, Metric::Angular);
    assert_eq!(d, 0xff89_e4e2_7619_f202, "digest {d:#018x}");
}
