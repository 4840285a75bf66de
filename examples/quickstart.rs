//! Quickstart: the HSU in five minutes.
//!
//! Builds a small vector index, runs an approximate nearest-neighbour
//! search, then simulates the same workload on a GPU with and without the
//! HSU to show the headline effect of the paper.
//!
//! Run with: `cargo run --release --example quickstart`

use hsu::kernels::ggnn::{GgnnParams, GgnnWorkload};
use hsu::prelude::*;

fn main() {
    // 1. The distance POINT_EUCLID computes, and the beats it takes.
    let q = vec![0.25_f32; 96];
    let c = vec![0.75_f32; 96];
    let cfg = HsuConfig::default();
    println!(
        "euclidean distance  = {:.3}",
        Metric::Euclidean.distance(&q, &c)
    );
    println!(
        "POINT_EUCLID beats  = {} (96 dims / {}-wide pipeline)",
        cfg.beats_for(Metric::Euclidean, 96),
        cfg.euclid_width
    );

    // 2. A hierarchical search structure: HNSW graph over a synthetic
    //    embedding set (deep1b's shape: 96 dimensions).
    let data = Dataset::generate_scaled(DatasetId::Deep1b, 42, Some(2_000))
        .points()
        .expect("point dataset")
        .clone();
    let graph = HnswGraph::build(&data, Metric::Angular, GraphConfig::default(), 42);
    let (neighbors, stats) = graph.search(&data, data.point(123), 5, 64);
    println!(
        "\ngraph search: top-5 of point #123 -> {:?}",
        neighbors.iter().map(|&(i, _)| i).collect::<Vec<_>>()
    );
    println!(
        "  distance tests {} | queue ops {} (only the former offload to the HSU)",
        stats.distance_tests, stats.queue_ops
    );

    // 3. The paper's experiment in miniature: simulate the search kernel on
    //    a GPU with and without the HSU.
    let params = GgnnParams {
        points: data.len(),
        dim: data.dim(),
        queries: 32,
        metric: Metric::Angular,
        k: 10,
        ef: 64,
        m: 16,
        seed: 42,
    };
    let workload = GgnnWorkload::build_from_points(&params, &data);
    println!("\nworkload recall@10 = {:.3}", workload.recall);

    let gpu = Gpu::new(GpuConfig::small());
    let hsu = gpu
        .run(&workload.trace(Variant::Hsu))
        .expect("simulation failed");
    let baseline = gpu
        .run(&workload.trace(Variant::Baseline))
        .expect("simulation failed");
    println!("baseline (no RT hardware): {:>10} cycles", baseline.cycles);
    println!("with HSU:                  {:>10} cycles", hsu.cycles);
    println!(
        "speedup:                   {:>9.1}%  (paper: +24.8% average for GGNN)",
        (baseline.cycles as f64 / hsu.cycles as f64 - 1.0) * 100.0
    );
}
