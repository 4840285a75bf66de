//! Replay determinism: a seeded query stream's per-query result hashes
//! must be byte-identical across batch sizes and worker counts, for every
//! index family. This is the service-side analogue of
//! the suite's golden tests — scheduling may move latency, never results.

use std::sync::Arc;

use hsu_bench::ArchiveCache;
use hsu_datasets::{key_stream_nth, DatasetId, QueryStream};
use hsu_serve::prelude::*;

/// Per-query result hashes for `n` stream queries under one topology,
/// in submission order.
fn replay_hashes(
    index: &Arc<dyn SearchIndex>,
    gen: &dyn Fn(u64) -> Query,
    cfg: EngineConfig,
    n: u64,
) -> Vec<u64> {
    let engine = Engine::new(Arc::clone(index), cfg);
    let tickets: Vec<Ticket> = (0..n)
        .map(|i| engine.submit(gen(i)).expect("admission failed"))
        .collect();
    tickets
        .into_iter()
        .map(|t| hash_output(&t.wait().expect("query failed")))
        .collect()
}

/// Asserts per-query hashes agree across the batch × worker grid:
/// batch {1,64} × workers {1,2,4}.
fn assert_grid_deterministic(name: &str, index: Arc<dyn SearchIndex>, gen: impl Fn(u64) -> Query) {
    const N: u64 = 200;
    let reference = replay_hashes(
        &index,
        &gen,
        EngineConfig {
            workers: 1,
            batch: 1,
            queue_capacity: 512,
            ..Default::default()
        },
        N,
    );
    assert_eq!(reference.len(), N as usize);
    for batch in [1usize, 64] {
        for workers in [1usize, 2, 4] {
            let cfg = EngineConfig {
                workers,
                batch,
                queue_capacity: 512,
                ..Default::default()
            };
            let got = replay_hashes(&index, &gen, cfg, N);
            assert_eq!(
                got, reference,
                "{name}: per-query hashes diverged at batch={batch} workers={workers}"
            );
        }
    }
    // And the combined digest is stable too (what servebench records).
    assert_eq!(
        combine_hashes(replay_hashes(
            &index,
            &gen,
            EngineConfig {
                workers: 4,
                batch: 64,
                queue_capacity: 512,
                ..Default::default()
            },
            N,
        )),
        combine_hashes(reference),
        "{name}: combined replay digest diverged"
    );
}

#[test]
fn graph_family_replays_identically_across_topologies() {
    let cache = ArchiveCache::disabled();
    let index = GraphIndex::open(&cache, DatasetId::Sift10k, 400, 7, 10, 32).expect("open graph");
    let stream = QueryStream::new(index.data(), 99);
    let data = index.data().clone();
    assert_grid_deterministic("graph", Arc::new(index), move |i| {
        Query::Vector(stream.nth(&data, i))
    });
}

#[test]
fn kd_family_replays_identically_across_topologies() {
    let cache = ArchiveCache::disabled();
    let index = KdIndex::open(&cache, DatasetId::Bunny, 800, 7, 5, 16).expect("open kd");
    let stream = QueryStream::new(index.data(), 99);
    let data = index.data().clone();
    assert_grid_deterministic("kd", Arc::new(index), move |i| {
        Query::Vector(stream.nth(&data, i))
    });
}

#[test]
fn bvh_family_replays_identically_across_topologies() {
    let cache = ArchiveCache::disabled();
    let index = BvhIndex::open(&cache, DatasetId::Bunny, 800, 7, 5).expect("open bvh");
    let stream = QueryStream::new(index.data(), 99);
    let data = index.data().clone();
    assert_grid_deterministic("bvh", Arc::new(index), move |i| {
        Query::Vector(stream.nth(&data, i))
    });
}

#[test]
fn btree_family_replays_identically_across_topologies() {
    let cache = ArchiveCache::disabled();
    let index = BtreeIndex::open(&cache, 5_000, 7);
    let space = index.key_space();
    assert_grid_deterministic("btree", Arc::new(index), move |i| {
        Query::Key(key_stream_nth(99, i, space))
    });
}
