//! Layout-equivalence suite: the 4-wide [`Bvh4`] must be
//! *indistinguishable from [`Bvh2`] in results* — same leaf visit sets,
//! bit-identical radius neighbors — over random point clouds, for every
//! builder.
//!
//! Two layers:
//!
//! 1. proptests over generated clouds × queries × radii (shrinking finds
//!    the minimal divergent tree if a collapse bug slips in;
//!    `layout_equivalence.proptest-regressions` pins past finds),
//! 2. a deterministic 256-seed sweep — ChaCha-seeded clouds 0..256, one
//!    query batch each — which is the bulk-volume leg CI runs in release.

use hsu_bvh::{Bvh2, Bvh4, LbvhBuilder, PointPrimitive, SahBuilder, WideChild};
use hsu_geometry::Vec3;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Sorts neighbors into the canonical order both layouts must agree on:
/// `(distance_bits, id)` — total, and independent of traversal order.
fn canon(mut hits: Vec<hsu_bvh::Neighbor>) -> Vec<(u32, u32)> {
    hits.sort_by_key(|n| (n.distance_squared.to_bits(), n.id));
    hits.iter()
        .map(|n| (n.distance_squared.to_bits(), n.id))
        .collect()
}

/// The `start` slots of every leaf a 4-wide walk reaches for a radius
/// query, sorted — the [`Bvh4`] side of [`Bvh2::radius_visited_leaves`].
fn bvh4_visited_leaves(bvh4: &Bvh4, query: Vec3, radius: f32) -> Vec<u32> {
    let r2 = radius * radius;
    let mut out = Vec::new();
    let mut stack: Vec<u32> = if bvh4.nodes().is_empty() {
        vec![]
    } else {
        vec![0]
    };
    while let Some(i) = stack.pop() {
        let node = &bvh4.nodes()[i as usize];
        for slot in 0..4 {
            if node.aabbs[slot].distance_squared_to(query) > r2 {
                continue;
            }
            match node.children[slot] {
                WideChild::Empty => {}
                WideChild::Node(index) => stack.push(index),
                WideChild::Leaf { start, .. } => out.push(start),
            }
        }
    }
    out.sort_unstable();
    out
}

/// Asserts the 4-wide tree agrees with `bvh2` on one query: leaf visit set
/// and full radius result, both bitwise.
fn assert_layouts_agree(
    bvh2: &Bvh2,
    bvh4: &Bvh4,
    prims: &[PointPrimitive],
    query: Vec3,
    radius: f32,
) {
    assert_eq!(
        bvh2.radius_visited_leaves(query, radius),
        bvh4_visited_leaves(bvh4, query, radius),
        "BVH4 visited a different leaf set"
    );
    assert_eq!(
        canon(bvh2.radius_search_counted(prims, query, radius).0),
        canon(bvh4.radius_search_counted(prims, query, radius).0),
        "BVH4 radius result diverged"
    );
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<PointPrimitive>> {
    prop::collection::vec((-100i32..100, -100i32..100, -100i32..100), 1..max).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y, z))| {
                PointPrimitive::new(
                    i as u32,
                    Vec3::new(x as f32 * 0.1, y as f32 * 0.1, z as f32 * 0.1),
                    0.2,
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core layout property: any cloud, any query ball — both
    /// arrangements return the same answers.
    /// Integer-grid points make duplicate positions common, so the
    /// `(distance_bits, id)` tie-breaking is exercised, not just assumed.
    #[test]
    fn layouts_agree_on_random_clouds(
        prims in arb_points(250),
        qx in -12.0f32..12.0, qy in -12.0f32..12.0, qz in -12.0f32..12.0,
        r in 0.1f32..4.0,
    ) {
        let bvh2 = LbvhBuilder::default().build(&prims);
        let bvh4 = Bvh4::from_bvh2(&bvh2);
        assert_layouts_agree(&bvh2, &bvh4, &prims, Vec3::new(qx, qy, qz), r);
    }

    /// Same property over the SAH builder's very different tree shapes
    /// (deeper, uneven splits stress the grandchild collapse).
    #[test]
    fn layouts_agree_on_sah_trees(
        prims in arb_points(150),
        qx in -12.0f32..12.0, qy in -12.0f32..12.0, qz in -12.0f32..12.0,
        r in 0.1f32..4.0,
    ) {
        let bvh2 = SahBuilder::default().build(&prims);
        let bvh4 = Bvh4::from_bvh2(&bvh2);
        assert_layouts_agree(&bvh2, &bvh4, &prims, Vec3::new(qx, qy, qz), r);
    }
}

/// The deterministic 256-seed sweep: ChaCha-generated clouds, eight
/// queries each.
/// Debug builds sweep a prefix; release builds (`ci.sh`) sweep all 256.
#[test]
fn layouts_agree_across_256_seeds() {
    let seeds: u64 = if cfg!(debug_assertions) { 24 } else { 256 };
    for seed in 0..seeds {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = 64 + (seed as usize * 37) % 640;
        let prims: Vec<PointPrimitive> = (0..n)
            .map(|i| {
                PointPrimitive::new(
                    i as u32,
                    Vec3::new(
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                        rng.gen_range(-2.0..2.0),
                    ),
                    0.25,
                )
            })
            .collect();
        let bvh2 = LbvhBuilder::default().build(&prims);
        bvh2.validate(&prims)
            .unwrap_or_else(|e| panic!("seed {seed}: tree invalid: {e}"));
        let bvh4 = Bvh4::from_bvh2(&bvh2);
        for _ in 0..8 {
            let q = Vec3::new(
                rng.gen_range(-2.5..2.5),
                rng.gen_range(-2.5..2.5),
                rng.gen_range(-2.5..2.5),
            );
            let r = rng.gen_range(0.2..1.5);
            assert_layouts_agree(&bvh2, &bvh4, &prims, q, r);
        }
    }
}
