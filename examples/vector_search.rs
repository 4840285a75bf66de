//! Vector search: a recommendation-system-style embedding service.
//!
//! Builds HNSW indexes over synthetic stand-ins for three of the paper's
//! high-dimensional datasets and serves seeded query streams through the
//! `hsu::serve` engine — the same batched submission path that
//! `servebench` load-tests. Measures recall against brute force, reports
//! sustained throughput plus the replay digest (byte-stable across batch
//! sizes and worker counts), and shows how many HSU instructions each
//! distance costs at different datapath widths (the Fig. 10 trade-off,
//! from the software side).
//!
//! Run with: `cargo run --release --example vector_search`

use std::sync::Arc;
use std::time::Instant;

use hsu::prelude::*;
use hsu::serve::prelude::*;

fn main() {
    for (id, n, queries) in [
        (DatasetId::LastFm, 4_000, 50),  // 65-dim, angular
        (DatasetId::Glove, 4_000, 50),   // 200-dim, angular
        (DatasetId::Sift10k, 4_000, 50), // 128-dim, euclidean
    ] {
        let spec = hsu::datasets::spec(id);
        let metric = spec.metric.expect("ANN dataset");

        // Open the index (in-memory here; pass a real archive dir to
        // persist the build across runs) and stand up a small service.
        let cache = ArchiveCache::disabled();
        let index = GraphIndex::open(&cache, id, n, 1, 10, 96).expect("open graph index");
        let data = index.data().clone();
        let engine = Engine::new(
            Arc::new(index),
            EngineConfig {
                workers: 2,
                batch: 16,
                queue_capacity: 256,
                ..Default::default()
            },
        );

        // Held-out seeded query stream + exact ground truth.
        let stream = hsu::datasets::QueryStream::new(&data, 2);
        let qs: Vec<Vec<f32>> = (0..queries).map(|i| stream.nth(&data, i as u64)).collect();
        let mut qset = PointSet::empty(data.dim());
        for q in &qs {
            qset.push(q);
        }
        let truth = hsu::datasets::ground_truth_knn(&data, &qset, 10, metric);

        // Submit the whole stream, then redeem tickets in submission
        // order — answers and the replay digest are independent of the
        // engine topology above.
        let t0 = Instant::now();
        let tickets: Vec<_> = qs
            .iter()
            .map(|q| engine.submit(Query::Vector(q.clone())).expect("admission"))
            .collect();
        let mut found = Vec::new();
        let mut hashes = Vec::new();
        for t in tickets {
            let out = t.wait().expect("query failed");
            hashes.push(hash_output(&out));
            match out {
                QueryOutput::Neighbors(hits) => {
                    found.push(hits.into_iter().map(|(i, _)| i).collect::<Vec<_>>())
                }
                other => panic!("graph family answered {other:?}"),
            }
        }
        let elapsed = t0.elapsed();
        let recall = hsu::datasets::recall_at_k(&found, &truth, 10);
        let digest = combine_hashes(hashes);

        // HSU instruction cost per distance at several datapath widths.
        let beats: Vec<usize> = [4usize, 8, 16, 32]
            .iter()
            .map(|&w| {
                HsuConfig::default()
                    .with_euclid_width(w)
                    .beats_for(metric, spec.dims)
            })
            .collect();

        println!(
            "{:<6} dim {:>4} ({}) | recall@10 {:.3} | {:.0} queries/s | replay {:#018x}",
            spec.abbr,
            spec.dims,
            metric,
            recall,
            queries as f64 / elapsed.as_secs_f64(),
            digest,
        );
        println!(
            "       beats per distance at euclid-width 4/8/16/32: {:?}",
            beats
        );
    }
}
