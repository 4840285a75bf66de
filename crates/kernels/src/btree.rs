//! B+-tree batched point lookups (paper §V-A, Rodinia `b+tree`).
//!
//! Rodinia serves each query with a whole thread group that scans a node's
//! separators in parallel (load rounds + ballot + sync). The HSU lowering
//! replaces that entire warp-wide scan with a single lane's `KEY_COMPARE`
//! chain — `ceil(n/36)` instructions per node. The paper notes this workload
//! has the smallest offloadable share (§VI-C), so its speedup is the
//! smallest.

use hsu_btree::{BPlusTree, BtObserver};
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};

use crate::layout::{btree_node_addr, LINE_BYTES};
use crate::lowering::{emit_key_compare, Variant};

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct BtreeParams {
    /// Number of key-value pairs.
    pub keys: usize,
    /// Number of lookups.
    pub queries: usize,
    /// Branch factor (Rodinia: 256).
    pub branch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BtreeParams {
    fn default() -> Self {
        BtreeParams {
            keys: 10_000,
            queries: 512,
            branch: 256,
            seed: 1,
        }
    }
}

/// Per-thread lookup events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Internal-node separator scan.
    Internal { node: u32, separators: u32 },
    /// Leaf binary search over `keys` keys.
    Leaf { node: u32, keys: u32 },
}

/// A prepared B+-tree lookup workload.
#[derive(Debug)]
pub struct BtreeWorkload {
    events: Vec<Vec<Event>>,
    branch: usize,
    /// Fraction of lookups answered correctly against `BTreeMap` (must be 1).
    pub correctness: f64,
}

impl BtreeWorkload {
    /// Builds the tree from uniform random keys and records the lookups.
    ///
    /// # Panics
    ///
    /// Panics if `params.branch < 3`.
    pub fn build(params: &BtreeParams) -> Self {
        let (pairs, lookups) = Self::generate_inputs(params);
        let reference: std::collections::BTreeMap<u32, u64> = pairs.iter().copied().collect();
        let tree = BPlusTree::bulk_build(pairs, params.branch);
        Self::record_lookups(reference, &lookups, tree)
    }

    /// The seeded input streams `build` draws: uniform random 24-bit keyed
    /// pairs and a 70 %-present lookup mix. Exposed so cache layers can
    /// regenerate the inputs without rebuilding the tree (the pairs and the
    /// tree are cached separately).
    pub fn generate_inputs(params: &BtreeParams) -> (Vec<(u32, u64)>, Vec<u32>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(params.seed);
        let pairs: Vec<(u32, u64)> = (0..params.keys)
            .map(|i| (rng.gen_range(0..1 << 24), i as u64))
            .collect();
        let lookups: Vec<u32> = (0..params.queries)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    pairs[rng.gen_range(0..pairs.len())].0 // present key
                } else {
                    rng.gen_range(0..1 << 24) // probably absent
                }
            })
            .collect();
        (pairs, lookups)
    }

    /// Records the lookups over an already-built tree (the archive-cache
    /// restore path): each lookup runs [`BPlusTree::get_observed`] with a
    /// recorder that turns every visited node into an event. `tree` must
    /// equal `BPlusTree::bulk_build(pairs, tree.branch())` — the caller's
    /// content key guarantees it; given that, the result is byte-identical
    /// to [`Self::build`].
    ///
    /// # Panics
    ///
    /// Panics if `tree` fails its own structural validation.
    pub fn build_with_tree(pairs: &[(u32, u64)], lookups: &[u32], tree: BPlusTree) -> Self {
        let reference: std::collections::BTreeMap<u32, u64> = pairs.iter().copied().collect();
        Self::record_lookups(reference, lookups, tree)
    }

    fn record_lookups(
        reference: std::collections::BTreeMap<u32, u64>,
        lookups: &[u32],
        tree: BPlusTree,
    ) -> Self {
        let branch = tree.branch();
        tree.validate()
            .expect("archived or bulk-built tree must be structurally valid");

        let mut events = Vec::with_capacity(lookups.len());
        let mut correct = 0usize;
        for &key in lookups {
            let mut rec = Recorder::default();
            if tree.get_observed(key, &mut rec) == reference.get(&key).copied() {
                correct += 1;
            }
            events.push(rec.events);
        }
        BtreeWorkload {
            events,
            branch,
            correctness: correct as f64 / lookups.len().max(1) as f64,
        }
    }

    /// Lowers the recorded lookups into a kernel trace.
    ///
    /// The two lowerings use the thread mappings the respective codes use:
    ///
    /// * **Baseline** — Rodinia's group-per-query kernel: a 32-lane warp
    ///   serves one query, scanning each node's separators in parallel
    ///   rounds with a ballot + prefix pick + sync per node.
    /// * **HSU** — thread-per-query: each lane issues its own `KEY_COMPARE`
    ///   chain per node (the point of the instruction is that one thread can
    ///   traverse alone), so a warp carries 32 queries.
    pub fn trace(&self, variant: Variant) -> KernelTrace {
        let mut kernel = KernelTrace::builder(format!("btree-{variant:?}"));
        match variant {
            Variant::Hsu => {
                for chunk in self.events.chunks(32) {
                    for events in chunk {
                        let mut t = ThreadTrace::new();
                        t.push(ThreadOp::Alu { count: 2 });
                        for ev in events {
                            let (node, values) = match *ev {
                                Event::Internal { node, separators } => (node, separators),
                                Event::Leaf { node, keys } => (node, keys.max(1)),
                            };
                            let base = btree_node_addr(node as usize, self.branch);
                            // A one-child internal node (a lone trailing
                            // chunk of `bulk_build`) has no separator to
                            // compare: the ISA has no empty KEY_COMPARE.
                            if values > 0 {
                                emit_key_compare(&mut t, Variant::Hsu, base, values);
                            }
                            t.push(ThreadOp::Alu { count: 2 });
                            if matches!(*ev, Event::Leaf { .. }) {
                                t.push(ThreadOp::Load {
                                    addr: base + values as u64 * 4,
                                    bytes: 8,
                                });
                                t.push(ThreadOp::Alu { count: 2 });
                            }
                        }
                        t.push(ThreadOp::Store {
                            addr: crate::layout::RESULTS_BASE,
                            bytes: 8,
                        });
                        kernel.push_thread(t);
                    }
                }
            }
            Variant::Baseline | Variant::BaselineStripped => {
                // Rodinia's group-per-query scan, at warp granularity: per
                // level the group streams the node's KEYS array, picks the
                // child by parallel compare + ballot, then streams the
                // node's INDICES array to fetch the child pointer — two
                // dependent full-node fetches per level with syncs between
                // (the structure of Rodinia's findK kernel).
                for events in &self.events {
                    let mut lanes: Vec<ThreadTrace> = (0..32).map(|_| ThreadTrace::new()).collect();
                    for t in &mut lanes {
                        t.push(ThreadOp::Alu { count: 2 });
                    }
                    for ev in events {
                        let (node, values) = match *ev {
                            Event::Internal { node, separators } => (node, separators),
                            Event::Leaf { node, keys } => (node, keys.max(1)),
                        };
                        let base = btree_node_addr(node as usize, self.branch);
                        if variant == Variant::Baseline {
                            let lines = (values as u64 * 4).div_ceil(LINE_BYTES).max(1);
                            for (lane, t) in lanes.iter_mut().enumerate() {
                                // Keys array: one parallel round, lanes
                                // fanned across the node's lines so the
                                // coalesced access covers the whole array.
                                t.push(ThreadOp::Load {
                                    addr: base + (lane as u64 % lines) * LINE_BYTES,
                                    bytes: 4,
                                });
                                t.push(ThreadOp::Alu { count: 6 });
                                t.push(ThreadOp::Shared { count: 2 }); // ballot + sync
                                                                       // Child-pointer fetch: the single matching
                                                                       // thread reads one indices element.
                                t.push(ThreadOp::Load {
                                    addr: base + lines * LINE_BYTES,
                                    bytes: 4,
                                });
                                t.push(ThreadOp::Shared { count: 2 }); // sync
                            }
                        }
                        if matches!(*ev, Event::Leaf { .. }) {
                            // Value fetch survives in every variant (lane 0).
                            lanes[0].push(ThreadOp::Load {
                                addr: base + values as u64 * 4,
                                bytes: 8,
                            });
                            lanes[0].push(ThreadOp::Alu { count: 2 });
                        }
                    }
                    lanes[0].push(ThreadOp::Store {
                        addr: crate::layout::RESULTS_BASE,
                        bytes: 8,
                    });
                    for t in lanes {
                        kernel.push_thread(t);
                    }
                }
            }
        }
        kernel.finish()
    }

    /// Number of lookup queries (one warp each).
    pub fn query_count(&self) -> usize {
        self.events.len()
    }
}

/// Records one [`BPlusTree::get_observed`] lookup as its event stream.
#[derive(Default)]
struct Recorder {
    events: Vec<Event>,
}

impl BtObserver for Recorder {
    fn internal(&mut self, node: u32, separators: usize) {
        self.events.push(Event::Internal {
            node,
            separators: separators as u32,
        });
    }

    fn leaf(&mut self, node: u32, keys: usize) {
        self.events.push(Event::Leaf {
            node,
            keys: keys as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_sim::config::GpuConfig;
    use hsu_sim::Gpu;

    #[test]
    fn lookups_are_correct() {
        let wl = BtreeWorkload::build(&BtreeParams::default());
        assert_eq!(wl.correctness, 1.0);
        assert_eq!(wl.query_count(), 512);
    }

    #[test]
    fn hsu_speedup_is_smallest_but_positive() {
        // Needs enough lookups for throughput (not latency) to dominate,
        // like the paper's batched-query setting.
        let wl = BtreeWorkload::build(&BtreeParams {
            keys: 50_000,
            queries: 8192,
            ..Default::default()
        });
        let gpu = Gpu::new(GpuConfig {
            num_sms: 2,
            ..GpuConfig::tiny()
        });
        let hsu = gpu.run(&wl.trace(Variant::Hsu)).unwrap();
        let base = gpu.run(&wl.trace(Variant::Baseline)).unwrap();
        assert!(
            hsu.cycles < base.cycles,
            "HSU {} vs base {}",
            hsu.cycles,
            base.cycles
        );
        // Key-compare ops ran on the unit.
        let key_ops =
            hsu.rt.pipeline.completed[hsu_core::pipeline::OperatingMode::KeyCompare.index()];
        assert!(key_ops > 0);
    }

    #[test]
    fn offloadable_share_is_smallest_class() {
        // Fig. 7: B+-tree has the smallest HSU-able proportion.
        let wl = BtreeWorkload::build(&BtreeParams {
            keys: 20_000,
            queries: 512,
            ..Default::default()
        });
        let gpu = Gpu::new(GpuConfig::tiny());
        let base = gpu.run(&wl.trace(Variant::Baseline)).unwrap();
        let stripped = gpu.run(&wl.trace(Variant::BaselineStripped)).unwrap();
        let frac = crate::offloadable_fraction(&base, &stripped);
        assert!(frac > 0.05 && frac < 0.9, "fraction {frac}");
    }

    #[test]
    fn one_child_internal_node_simulates_in_both_modes() {
        // Branch 3 over these keys leaves a lone trailing chunk, so one
        // internal node has a single child and zero separators.
        let wl = BtreeWorkload::build(&BtreeParams {
            keys: 100,
            queries: 256,
            branch: 3,
            seed: 1,
        });
        assert_eq!(wl.correctness, 1.0);
        assert!(wl
            .events
            .iter()
            .flatten()
            .any(|ev| matches!(ev, Event::Internal { separators: 0, .. })));
        for mode in hsu_sim::config::SimMode::ALL {
            let gpu = Gpu::new(GpuConfig::tiny().with_sim_mode(mode));
            for variant in [Variant::Hsu, Variant::Baseline] {
                gpu.run(&wl.trace(variant))
                    .unwrap_or_else(|e| panic!("{variant:?} in {mode:?}: {e}"));
            }
        }
    }

    #[test]
    fn shallow_tree_few_events() {
        // 10k keys at branch 256 -> height 2: one internal + one leaf event.
        let wl = BtreeWorkload::build(&BtreeParams {
            keys: 10_000,
            queries: 4,
            ..Default::default()
        });
        for evs in &wl.events {
            assert!(evs.len() <= 3);
        }
    }
}
