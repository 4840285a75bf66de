//! Service semantics: admission validation, bounded-queue backpressure,
//! sync + async redemption, and drain-on-drop.

use std::sync::Arc;
use std::time::Duration;

use hsu_bench::ArchiveCache;
use hsu_datasets::DatasetId;
use hsu_serve::prelude::*;
use hsu_serve::QueryBatch;

/// A deliberately slow key index: answers `key + 1` after a pause, so
/// tests can fill the admission queue faster than workers drain it.
struct SlowIndex {
    delay: Duration,
}

impl SearchIndex for SlowIndex {
    fn family(&self) -> IndexFamily {
        IndexFamily::Btree
    }

    fn dim(&self) -> usize {
        0
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        std::thread::sleep(self.delay);
        batch
            .keys()
            .iter()
            .map(|&k| QueryOutput::Value(Some(u64::from(k) + 1)))
            .collect()
    }
}

#[test]
fn sync_round_trip_answers_queries() {
    let cache = ArchiveCache::disabled();
    let index = BtreeIndex::open(&cache, 2_000, 3);
    let engine = Engine::new(Arc::new(index), EngineConfig::default());
    for key in [0u32, 17, 123_456] {
        match engine.query(Query::Key(key)) {
            Ok(QueryOutput::Value(_)) => {}
            other => panic!("unexpected answer for key {key}: {other:?}"),
        }
    }
}

#[test]
fn a_non_blocking_submission_redeems_with_wait() {
    let cache = ArchiveCache::disabled();
    let index = BtreeIndex::open(&cache, 2_000, 3);
    let engine = Engine::new(Arc::new(index), EngineConfig::default());
    let ticket = engine.try_submit(Query::Key(42)).expect("admission failed");
    let out = ticket.wait().expect("query failed");
    assert!(matches!(out, QueryOutput::Value(_)));
}

#[test]
fn bad_queries_are_rejected_at_admission() {
    let cache = ArchiveCache::disabled();
    let index = BtreeIndex::open(&cache, 2_000, 3);
    let engine = Engine::new(Arc::new(index), EngineConfig::default());
    // Wrong variant for the family.
    match engine.try_submit(Query::Vector(vec![1.0, 2.0])) {
        Err(ServeError::BadQuery(_)) => {}
        other => panic!("expected BadQuery, got {other:?}"),
    }
    // Valid queries still flow afterwards.
    assert!(engine.query(Query::Key(1)).is_ok());
}

/// Submits `dim`-wide vectors with one NaN, +inf or -inf component to
/// `index` and asserts each is refused at admission with a typed
/// `BadQuery`, while a finite query is still answered.
fn rejects_non_finite_vectors(index: impl SearchIndex + 'static) {
    let dim = index.dim();
    let engine = Engine::new(Arc::new(index), EngineConfig::default());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for at in [0, dim - 1] {
            let mut v = vec![0.5f32; dim];
            v[at] = bad;
            match engine.try_submit(Query::Vector(v)) {
                Err(ServeError::BadQuery(why)) => {
                    assert!(why.contains("not finite"), "{bad} at {at}: {why}")
                }
                other => panic!("{bad} at {at}: expected BadQuery, got {other:?}"),
            }
        }
    }
    assert_eq!(
        engine.stats().admitted,
        0,
        "a non-finite query was admitted"
    );
    match engine.query(Query::Vector(vec![0.5f32; dim])) {
        Ok(QueryOutput::Neighbors(_)) => {}
        other => panic!("finite query failed: {other:?}"),
    }
}

#[test]
fn graph_index_rejects_non_finite_vectors() {
    let cache = ArchiveCache::disabled();
    let index = GraphIndex::open(&cache, DatasetId::Sift10k, 300, 7, 5, 32).expect("open graph");
    rejects_non_finite_vectors(index);
}

#[test]
fn kd_index_rejects_non_finite_vectors() {
    let cache = ArchiveCache::disabled();
    let index = KdIndex::open(&cache, DatasetId::Bunny, 400, 7, 5, 16).expect("open kd");
    rejects_non_finite_vectors(index);
}

#[test]
fn bvh_index_rejects_non_finite_vectors() {
    let cache = ArchiveCache::disabled();
    let index = BvhIndex::open(&cache, DatasetId::Bunny, 400, 7, 5).expect("open bvh");
    rejects_non_finite_vectors(index);
}

#[test]
fn full_queue_backpressures_with_typed_overloaded() {
    let engine = Engine::new(
        Arc::new(SlowIndex {
            delay: Duration::from_millis(50),
        }),
        EngineConfig {
            workers: 1,
            batch: 1,
            queue_capacity: 2,
            ..Default::default()
        },
    );
    // Flood a 2-deep queue behind a 50 ms/query worker: rejections must
    // surface as typed Overloaded, and accepted queries must complete.
    let mut accepted = Vec::new();
    let mut overloaded = 0usize;
    for key in 0..40u32 {
        match engine.try_submit(Query::Key(key)) {
            Ok(t) => accepted.push((key, t)),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(overloaded > 0, "queue never overloaded under flood");
    assert!(!accepted.is_empty(), "admission rejected everything");
    for (key, t) in accepted {
        assert_eq!(
            t.wait(),
            Ok(QueryOutput::Value(Some(u64::from(key) + 1))),
            "accepted query {key} lost or corrupted"
        );
    }
}

#[test]
fn drop_drains_every_admitted_query() {
    let engine = Engine::new(
        Arc::new(SlowIndex {
            delay: Duration::from_millis(5),
        }),
        EngineConfig {
            workers: 2,
            batch: 4,
            queue_capacity: 64,
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..32u32)
        .map(|k| engine.submit(Query::Key(k)).expect("admission failed"))
        .collect();
    // Dropping the engine must fulfill every admitted ticket first.
    drop(engine);
    for (k, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait(), Ok(QueryOutput::Value(Some(k as u64 + 1))));
    }
}

#[test]
fn several_workers_drain_one_queue() {
    // Two workers take one query at a time from the one queue; every
    // admitted query completes with its own answer.
    let engine = Engine::new(
        Arc::new(SlowIndex {
            delay: Duration::from_millis(1),
        }),
        EngineConfig {
            workers: 2,
            batch: 1,
            queue_capacity: 1024,
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..64u32)
        .map(|k| engine.submit(Query::Key(k)).expect("admission failed"))
        .collect();
    for (k, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait(), Ok(QueryOutput::Value(Some(k as u64 + 1))));
    }
}
