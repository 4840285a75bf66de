//! Throughput of the cycle-level simulator itself, plus an end-to-end
//! HSU-vs-baseline pair on a small BVH-NN workload (the Fig. 9 mechanism in
//! microbenchmark form).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
use hsu_kernels::Variant;
use hsu_sim::config::GpuConfig;
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_sim::Gpu;

fn synthetic_kernel(threads: usize) -> KernelTrace {
    let mut k = KernelTrace::builder("synthetic");
    for i in 0..threads as u64 {
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Load {
            addr: i * 64,
            bytes: 16,
        });
        t.push(ThreadOp::Alu { count: 12 });
        t.push(ThreadOp::HsuRayIntersect {
            node_addr: (i % 64) * 64,
            bytes: 64,
            triangle: false,
        });
        t.push(ThreadOp::Shared { count: 2 });
        k.push_thread(t);
    }
    k.finish()
}

fn bench_sim_throughput(c: &mut Criterion) {
    let kernel = synthetic_kernel(2048);
    let gpu = Gpu::new(GpuConfig::tiny());
    c.bench_function("sim_synthetic_2k_threads", |b| {
        b.iter(|| gpu.run(black_box(&kernel)))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let wl = BvhnnWorkload::build(&BvhnnParams {
        points: 1000,
        queries: 256,
        radius_scale: 1.5,
        flavor: Default::default(),
        seed: 5,
    });
    let gpu = Gpu::new(GpuConfig::tiny());
    let hsu = wl.trace(Variant::Hsu);
    let base = wl.trace(Variant::Baseline);
    c.bench_function("sim_bvhnn_hsu", |b| b.iter(|| gpu.run(black_box(&hsu))));
    c.bench_function("sim_bvhnn_baseline", |b| {
        b.iter(|| gpu.run(black_box(&base)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sim_throughput, bench_end_to_end
}
criterion_main!(benches);
