//! ISA-level integration: the HSU's functional semantics against the
//! structures it serves, end to end through the modeled hardware.

use hsu::prelude::*;
use hsu::unit::exec::{self, DistanceAccumulator};
use hsu::unit::node::{BoxChild, BoxNode, KeyNode, NodeKind};
use hsu::unit::pipeline::{DatapathPipeline, OperatingMode};
use hsu::unit::{HsuInstruction, HsuOpcode};

/// KEY_COMPARE must navigate a real B+-tree exactly like the software path.
#[test]
fn key_compare_navigates_btree_like_software() {
    let pairs: Vec<(u32, u64)> = (0..5000u32).map(|k| (k * 3, u64::from(k))).collect();
    let tree = BPlusTree::bulk_build(pairs, 64);
    tree.validate().unwrap();

    for probe in [0u32, 1, 2999, 3000, 7500, 14_997, 20_000] {
        // Hardware path: KEY_COMPARE per internal node.
        let mut node = tree.root();
        loop {
            match &tree.nodes()[node as usize] {
                hsu::btree::BtNode::Internal {
                    separators,
                    children,
                } => {
                    let key_node = KeyNode::new(separators.iter().map(|&s| s as f32).collect());
                    let result = exec::execute_key_compare(probe as f32, &key_node, 64);
                    let hw_child = result.key_child_index();
                    // Software path: partition point.
                    let sw_child = separators.partition_point(|&s| s <= probe);
                    assert_eq!(hw_child, sw_child, "probe {probe} at node {node}");
                    node = children[hw_child];
                }
                hsu::btree::BtNode::Leaf { keys, values, .. } => {
                    let hw = keys.binary_search(&probe).ok().map(|i| values[i]);
                    let sw = tree.get(probe);
                    assert_eq!(hw, sw);
                    break;
                }
            }
        }
    }
}

/// RAY_INTERSECT on a BVH4 node must return children in the same order a
/// software front-to-back traversal would visit them.
#[test]
fn ray_intersect_orders_children_front_to_back() {
    let children: Vec<BoxChild> = (0..4)
        .map(|i| BoxChild {
            aabb: Aabb::new(
                Vec3::new(2.0 * i as f32 + 1.0, -1.0, -1.0),
                Vec3::new(2.0 * i as f32 + 2.0, 1.0, 1.0),
            ),
            ptr: 100 + i as u64,
            kind: NodeKind::Box,
        })
        .collect();
    let node = BoxNode::new(children);
    let ray = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
    let hsu::unit::isa::HsuResult::BoxHits { sorted } =
        exec::execute_box(&ray, &node, f32::INFINITY)
    else {
        panic!("wrong result variant");
    };
    let order: Vec<u64> = sorted.iter().flatten().map(|&(p, _)| p).collect();
    assert_eq!(order, vec![100, 101, 102, 103]);
}

/// Euclidean lane widths of the Fig. 10 datapath-width sweep.
const FIG10_WIDTHS: [usize; 4] = [4, 8, 16, 32];

/// Feeds `seq`'s beats to a fresh accumulator. Each beat's lanes are the
/// coordinates its own fetch covers (`node_ptr`, `fetch_bytes`) relative to
/// the candidate at `base`, so the instruction sequence alone decides which
/// coordinates each beat sums. Returns the final beat's Euclidean sum or
/// angular `(dot_sum, norm_sum)`, as the register file receives them.
fn accumulate(seq: &[HsuInstruction], base: u64, q: &[f32], c: &[f32]) -> (f32, f32) {
    let mut acc = DistanceAccumulator::new();
    let mut out = None;
    for ins in seq {
        let lo = ((ins.node_ptr - base) / 4) as usize;
        let lanes = lo..lo + (ins.fetch_bytes / 4) as usize;
        out = match ins.opcode {
            HsuOpcode::PointEuclid => acc
                .euclid_beat(&q[lanes.clone()], &c[lanes], ins.accumulate)
                .map(|d| (d, 0.0)),
            HsuOpcode::PointAngular => {
                acc.angular_beat(&q[lanes.clone()], &c[lanes], ins.accumulate)
            }
            other => panic!("{other:?} is not a distance beat"),
        };
        assert_eq!(
            out.is_some(),
            !ins.accumulate,
            "only the last beat writes back"
        );
    }
    out.expect("the final beat yields the sums")
}

/// Multi-beat distances through the cycle-accurate pipeline must equal the
/// scalar reference at every Fig. 10 width: the full "compiler emits N
/// instructions, hardware accumulates" path.
#[test]
fn multi_beat_sequence_through_pipeline_matches_reference() {
    let dims = [3usize, 16, 17, 65, 96, 200, 784];
    for width in FIG10_WIDTHS {
        let cfg = HsuConfig::default().with_euclid_width(width);
        for dim in dims {
            let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.13).sin()).collect();
            let c: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.29).cos()).collect();

            // The compiler's lowering.
            let seq = HsuInstruction::distance_sequence(&cfg, Metric::Euclidean, 0x1000, dim);
            assert_eq!(seq.len(), cfg.beats_for(Metric::Euclidean, dim));

            // Drive the datapath beat by beat, accumulating like the hardware.
            let mut pipe = DatapathPipeline::new();
            for b in 0..seq.len() {
                assert!(pipe.issue(OperatingMode::Euclid, b as u64));
                pipe.tick();
            }
            let (got, _) = accumulate(&seq, 0x1000, &q, &c);
            // Drain the pipeline.
            while !pipe.is_empty() {
                pipe.tick();
            }
            let expect = hsu::geometry::point::euclidean_squared(&q, &c);
            assert!(
                (got - expect).abs() <= 1e-3 * (1.0 + expect),
                "width {width} dim {dim}: {got} vs {expect}"
            );
            assert_eq!(
                pipe.stats().completed[OperatingMode::Euclid.index()],
                seq.len() as u64
            );
        }
    }
}

/// The arbiter's accumulate lock must keep a multi-beat sequence contiguous
/// even with all four sub-cores contending.
#[test]
fn accumulate_lock_keeps_beats_contiguous() {
    use hsu::unit::arbiter::SubCoreArbiter;
    let mut arb = SubCoreArbiter::new(4);
    let all = [true; 4];
    // Sub-core 2 starts a 9-beat angular sequence (dim 65).
    let seq = HsuInstruction::distance_sequence(&HsuConfig::default(), Metric::Angular, 0, 65);
    assert_eq!(seq.len(), 9);
    // First grant goes round-robin; force it to sub-core 2 by masking.
    let mut granted = Vec::new();
    for (i, ins) in seq.iter().enumerate() {
        let request = if i == 0 {
            [false, false, true, false]
        } else {
            all
        };
        let mut acc = [false; 4];
        for (core, slot) in acc.iter_mut().enumerate() {
            *slot = ins.accumulate && (request[core]);
        }
        let g = arb.grant(&request, &acc).expect("arbiter must grant");
        granted.push(g);
    }
    assert!(
        granted.iter().all(|&g| g == 2),
        "beats interleaved across sub-cores: {granted:?}"
    );
    // After the final beat the lock is free.
    assert_eq!(arb.locked_sub_core(), None);
}

/// The accumulator, fed the beats of `distance_sequence`, must agree with
/// the metric every search structure uses, under both metrics.
#[test]
fn accumulator_matches_structure_metrics() {
    let data = PointSet::from_rows(
        65,
        (0..65 * 20)
            .map(|i| ((i * 37) % 101) as f32 * 0.01)
            .collect(),
    );
    let cfg = HsuConfig::default();
    for i in 0..19 {
        let a = data.point(i);
        let b = data.point(i + 1);
        let seq = HsuInstruction::distance_sequence(&cfg, Metric::Euclidean, 0, a.len());
        let (d_hsu, _) = accumulate(&seq, 0, a, b);
        let d_metric = Metric::Euclidean.distance(a, b);
        assert!((d_hsu - d_metric).abs() < 1e-3 * (1.0 + d_metric));

        // The HSU returns the two sums; the division and square root of
        // eq. 2 run on the SIMT core.
        let seq = HsuInstruction::distance_sequence(&cfg, Metric::Angular, 0, a.len());
        let (dot_sum, norm_sum) = accumulate(&seq, 0, a, b);
        let query_norm = hsu::geometry::point::norm_squared(a).sqrt();
        let ang_hsu = 1.0 - dot_sum / (query_norm * norm_sum.sqrt());
        let ang_metric = Metric::Angular.distance(a, b);
        assert!((ang_hsu - ang_metric).abs() < 1e-4);
    }
}
