//! Key-value store: B+-tree lookups with KEY_COMPARE acceleration.
//!
//! Bulk-builds a Rodinia-style B+-tree (branch factor 256), serves point and
//! range queries, and shows how the HSU's `KEY_COMPARE` collapses each
//! internal node's separator scan into `ceil(n/36)` instructions.
//!
//! Run with: `cargo run --release --example kv_store`

use hsu::kernels::btree::{BtreeParams, BtreeWorkload};
use hsu::prelude::*;
use hsu::unit::exec;
use hsu::unit::node::KeyNode;

fn main() {
    let cfg = HsuConfig::default();
    // A 200k-entry store with 24-bit keys (exact in f32 for KEY_COMPARE).
    let pairs: Vec<(u32, u64)> = (0..200_000u32)
        .map(|k| (k * 83 % (1 << 24), u64::from(k)))
        .collect();
    let tree = BPlusTree::bulk_build(pairs.clone(), 256);
    tree.validate().expect("B+-tree invariants hold");
    println!(
        "tree: {} keys, height {}, branch factor {}",
        tree.len(),
        tree.height(),
        tree.branch()
    );

    // Point lookups with work counters.
    let (value, stats) = tree.get_counted(83 * 1000);
    println!(
        "get(k1000) = {value:?} | {} internal nodes, {} separators scanned",
        stats.internal_visits, stats.separators_scanned
    );
    println!(
        "  -> KEY_COMPARE instructions with the HSU: {}",
        stats
            .separators_scanned
            .div_ceil(cfg.key_compare_width as u64)
    );

    // KEY_COMPARE itself: which child follows key 500? Each instruction
    // compares up to `key_compare_width` separators and returns a bit per
    // separator `<= key`; the chain's popcounts sum to the child index.
    let separators: Vec<f32> = (0..255).map(|i| (i * 64) as f32).collect();
    let child: usize = separators
        .chunks(cfg.key_compare_width)
        .map(|chunk| {
            let node = KeyNode::new(chunk.to_vec());
            exec::execute_key_compare(500.0, &node, cfg.key_compare_width).key_child_index()
        })
        .sum();
    println!(
        "KEY_COMPARE x{} (key 500.0, 255 separators) -> child {child}",
        cfg.key_compare_instructions(separators.len())
    );

    // Range scan down the leaf chain.
    let lo = 1_000_000;
    let hi = 1_000_600;
    let in_range = tree.range(lo, hi);
    println!("range [{lo}, {hi}): {} entries", in_range.len());

    // End-to-end: batched lookups on the simulated GPU, HSU vs baseline.
    let wl = BtreeWorkload::build(&BtreeParams {
        keys: 100_000,
        queries: 4096,
        branch: 256,
        seed: 3,
    });
    assert_eq!(
        wl.correctness, 1.0,
        "every lookup verified against BTreeMap"
    );
    let gpu = Gpu::new(GpuConfig::small());
    let hsu = gpu.run(&wl.trace(Variant::Hsu)).expect("simulation failed");
    let base = gpu
        .run(&wl.trace(Variant::Baseline))
        .expect("simulation failed");
    println!(
        "\n4096 GPU lookups: baseline {} cycles, HSU {} cycles ({:+.1}%, paper: +13.5% avg)",
        base.cycles,
        hsu.cycles,
        (base.cycles as f64 / hsu.cycles as f64 - 1.0) * 100.0
    );
}
