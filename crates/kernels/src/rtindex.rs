//! RTIndeX re-implementation (paper §VI-G): GPU database indexing with ray
//! tracing, compared against the HSU's native point keys.
//!
//! RTIndeX encodes every integer key as a triangle (9 floats, 288 bits) so
//! the baseline RT unit can probe it with ray casts; the HSU stores the key
//! natively (32 bits) and probes with `KEY_COMPARE`. Both variants traverse
//! the same LBVH over the key space — the speedup comes from the 9:1 leaf
//! memory footprint. The paper measures +36.6 % for 163 840 lookups.

use hsu_bvh::{Bvh2, LbvhBuilder, PointPrimitive};
use hsu_core::node::TriangleNode;
use hsu_geometry::Vec3;
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};

use crate::layout::PRIM_INDEX_BASE;
use crate::lowering::{emit_key_compare, emit_triangle_test, Variant};
use crate::traversal::{emit_node_test, emit_pop, StackEvent, StackRecorder};

/// Byte size of one native key (32 bits).
pub const POINT_KEY_BYTES: u64 = 4;

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct RtIndexParams {
    /// Number of keys in the index.
    pub keys: usize,
    /// Number of lookup queries (the paper uses 163 840).
    pub lookups: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RtIndexParams {
    fn default() -> Self {
        RtIndexParams {
            keys: 4096,
            lookups: 2048,
            seed: 1,
        }
    }
}

/// A prepared RTIndeX workload.
#[derive(Debug)]
pub struct RtIndexWorkload {
    /// Lookup traces over the native 1-D point-key index (HSU).
    point_events: Vec<Vec<StackEvent>>,
    /// Lookup traces over the triangle-encoded index, whose 3-D key mapping
    /// "no longer aligns adjacent keys in a direct line in space" (§VI-G) —
    /// the bounding boxes overlap and traversal visits more nodes.
    triangle_events: Vec<Vec<StackEvent>>,
    /// Fraction of lookups that found their key (1.0 for present keys).
    pub hit_rate: f64,
}

impl RtIndexWorkload {
    /// Builds the key index and records the lookups: each one is the
    /// index's own [`Bvh2::radius_search_observed`] at radius 0.5.
    pub fn build(params: &RtIndexParams) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(params.seed);
        let mut keys: Vec<u32> = Vec::with_capacity(params.keys);
        let mut seen = std::collections::HashSet::new();
        while keys.len() < params.keys {
            let k = rng.gen_range(0..1u32 << 24);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        // Native HSU index: keys are 1-D positions on the x axis; the LBVH
        // degenerates to a balanced interval tree.
        let point_prims: Vec<PointPrimitive> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| PointPrimitive::new(i as u32, Vec3::new(k as f32, 0.0, 0.0), 0.5))
            .collect();
        let point_bvh = LbvhBuilder::default().build(&point_prims);

        // Triangle index: RTIndeX folds the 24-bit key into three float
        // coordinates; adjacent keys scatter through 3-D space, so leaf
        // boxes overlap and culling degrades (§VI-G's "messy" mapping).
        let tri_prims: Vec<PointPrimitive> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let pos = Vec3::new(
                    (k & 0xff) as f32,
                    ((k >> 8) & 0xff) as f32,
                    ((k >> 16) & 0xff) as f32,
                );
                // The triangle built around the key has finite extent in all
                // three dimensions.
                PointPrimitive::new(i as u32, pos, 0.5)
            })
            .collect();
        let tri_bvh = LbvhBuilder::default().build(&tri_prims);

        let mut point_events = Vec::with_capacity(params.lookups);
        let mut triangle_events = Vec::with_capacity(params.lookups);
        let mut hits = 0usize;
        for _ in 0..params.lookups {
            let probe = keys[rng.gen_range(0..keys.len())];
            let (evs, found) = lookup(&point_bvh, &point_prims, Vec3::new(probe as f32, 0.0, 0.0));
            if found {
                hits += 1;
            }
            point_events.push(evs);
            let probe_pos = Vec3::new(
                (probe & 0xff) as f32,
                ((probe >> 8) & 0xff) as f32,
                ((probe >> 16) & 0xff) as f32,
            );
            let (evs, found_tri) = lookup(&tri_bvh, &tri_prims, probe_pos);
            debug_assert!(found_tri || !found, "triangle index must find present keys");
            triangle_events.push(evs);
        }
        RtIndexWorkload {
            point_events,
            triangle_events,
            hit_rate: hits as f64 / params.lookups.max(1) as f64,
        }
    }

    /// Lowers the lookups for the given key encoding:
    ///
    /// * [`Variant::Baseline`] — triangle-encoded keys on a plain RT unit
    ///   (leaf probes are ray-triangle tests over 48-byte primitives),
    /// * [`Variant::Hsu`] — native point keys (leaf probes are
    ///   `KEY_COMPARE` over 4-byte keys).
    ///
    /// Both traces use `RAY_INTERSECT` for the interior traversal, so the
    /// baseline here is a *baseline RT unit*, not a no-RT GPU.
    pub fn trace(&self, variant: Variant) -> KernelTrace {
        let name = match variant {
            Variant::Hsu => "rtindex-point-keys",
            Variant::Baseline => "rtindex-triangle-keys",
            Variant::BaselineStripped => "rtindex-stripped",
        };
        let mut kernel = KernelTrace::builder(name);
        let events_for = match variant {
            Variant::Hsu => &self.point_events,
            Variant::Baseline | Variant::BaselineStripped => &self.triangle_events,
        };
        for events in events_for {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 4 });
            t.push(ThreadOp::Shared { count: 1 });
            for ev in events {
                match *ev {
                    StackEvent::Pop => emit_pop(&mut t),
                    // Interior traversal is identical hardware for both
                    // encodings: a box-mode RAY_INTERSECT.
                    StackEvent::NodeTest { node, pushes } => {
                        emit_node_test(&mut t, Variant::Hsu, node, pushes);
                    }
                    StackEvent::Primitive { slot: key_slot, .. } => match variant {
                        Variant::Hsu => {
                            let addr = PRIM_INDEX_BASE + key_slot as u64 * POINT_KEY_BYTES;
                            emit_key_compare(&mut t, Variant::Hsu, addr, 1);
                            t.push(ThreadOp::Alu { count: 1 });
                        }
                        Variant::Baseline => {
                            let addr = PRIM_INDEX_BASE + key_slot as u64 * TriangleNode::BYTE_SIZE;
                            emit_triangle_test(&mut t, Variant::Hsu, addr);
                            t.push(ThreadOp::Alu { count: 1 });
                        }
                        Variant::BaselineStripped => {}
                    },
                }
            }
            t.push(ThreadOp::Store {
                addr: crate::layout::RESULTS_BASE,
                bytes: 8,
            });
            kernel.push_thread(t);
        }
        kernel.finish()
    }

    /// Memory footprint of the key store under each encoding, in bytes.
    pub fn key_store_bytes(&self, keys: usize, variant: Variant) -> u64 {
        match variant {
            Variant::Hsu => keys as u64 * POINT_KEY_BYTES,
            _ => keys as u64 * TriangleNode::BYTE_SIZE,
        }
    }
}

/// Looks `query` up in a key BVH with the index's radius search at radius
/// 0.5, recording the traversal; returns the events and whether a key lies
/// strictly within the radius.
fn lookup(bvh: &Bvh2, prims: &[PointPrimitive], query: Vec3) -> (Vec<StackEvent>, bool) {
    let mut rec = StackRecorder::default();
    let hits = bvh.radius_search_observed(prims, query, 0.5, &mut rec);
    let found = hits.iter().any(|n| n.distance_squared < 0.25);
    (rec.events, found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_sim::config::GpuConfig;
    use hsu_sim::Gpu;

    #[test]
    fn lookups_find_present_keys() {
        let wl = RtIndexWorkload::build(&RtIndexParams {
            keys: 2048,
            lookups: 512,
            seed: 3,
        });
        assert!(wl.hit_rate > 0.99, "hit rate {}", wl.hit_rate);
    }

    #[test]
    fn point_keys_beat_triangle_keys() {
        let wl = RtIndexWorkload::build(&RtIndexParams {
            keys: 4096,
            lookups: 2048,
            seed: 1,
        });
        let gpu = Gpu::new(GpuConfig::tiny());
        let point = gpu.run(&wl.trace(Variant::Hsu)).unwrap();
        let triangle = gpu.run(&wl.trace(Variant::Baseline)).unwrap();
        let speedup = triangle.cycles as f64 / point.cycles as f64;
        assert!(speedup > 1.0, "point keys not faster: {speedup}");
        // Triangle encoding moves more data.
        assert!(triangle.l1_accesses() >= point.l1_accesses());
    }

    #[test]
    fn nine_to_one_memory_advantage() {
        let wl = RtIndexWorkload::build(&RtIndexParams::default());
        let point = wl.key_store_bytes(100_000, Variant::Hsu);
        let triangle = wl.key_store_bytes(100_000, Variant::Baseline);
        assert_eq!(triangle / point, 12); // 48 B padded vs 4 B (9:1 unpadded)
        assert_eq!((TriangleNode::BYTE_SIZE - 12) / POINT_KEY_BYTES, 9);
    }
}
