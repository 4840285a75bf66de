//! Property-based tests for the geometric golden references.

use hsu_geometry::{morton, Aabb, Ray, Triangle, Vec3};
use proptest::prelude::*;

fn finite_f32(range: std::ops::Range<f32>) -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL.prop_map(move |v| {
        let span = range.end - range.start;
        range.start + (v.abs() % span)
    })
}

fn vec3_in(lo: f32, hi: f32) -> impl Strategy<Value = Vec3> {
    (finite_f32(lo..hi), finite_f32(lo..hi), finite_f32(lo..hi))
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn nonzero_dir() -> impl Strategy<Value = Vec3> {
    vec3_in(-1.0, 1.0).prop_filter("non-zero", |v| v.length_squared() > 1e-6)
}

proptest! {
    #[test]
    fn union_contains_both(a in vec3_in(-10.0, 10.0), b in vec3_in(-10.0, 10.0),
                           c in vec3_in(-10.0, 10.0), d in vec3_in(-10.0, 10.0)) {
        let b1 = Aabb::new(a.min(b), a.max(b));
        let b2 = Aabb::new(c.min(d), c.max(d));
        let u = b1.union(&b2);
        prop_assert!(u.contains_box(&b1));
        prop_assert!(u.contains_box(&b2));
    }

    #[test]
    fn union_surface_area_monotone(a in vec3_in(-10.0, 10.0), b in vec3_in(-10.0, 10.0),
                                   c in vec3_in(-10.0, 10.0), d in vec3_in(-10.0, 10.0)) {
        let b1 = Aabb::new(a.min(b), a.max(b));
        let b2 = Aabb::new(c.min(d), c.max(d));
        let u = b1.union(&b2);
        prop_assert!(u.surface_area() >= b1.surface_area() * 0.999);
        prop_assert!(u.surface_area() >= b2.surface_area() * 0.999);
    }

    #[test]
    fn slab_test_agrees_with_sampled_containment(
        origin in vec3_in(-5.0, 5.0),
        dir in nonzero_dir(),
        lo in vec3_in(-3.0, 0.0),
        hi in vec3_in(0.1, 3.0),
    ) {
        let aabb = Aabb::new(lo.min(hi), lo.max(hi));
        let ray = Ray::new(origin, dir);
        if let Some(hit) = ray.intersect_aabb(&aabb, f32::INFINITY) {
            prop_assert!(hit.t_near <= hit.t_far);
            prop_assert!(hit.t_near >= 0.0);
            // The midpoint of the interval must lie inside a slightly grown
            // box (float tolerance).
            let mid = ray.at(0.5 * (hit.t_near + hit.t_far));
            let grown = Aabb::new(
                aabb.min - Vec3::splat(1e-3 + aabb.extent().max_element() * 1e-3),
                aabb.max + Vec3::splat(1e-3 + aabb.extent().max_element() * 1e-3),
            );
            prop_assert!(grown.contains(mid), "midpoint {mid} outside {aabb:?}");
        } else {
            // On a miss, sampled points along the positive ray must all be
            // outside a slightly shrunk box.
            let shrink = Vec3::splat(1e-3);
            if (aabb.extent() - shrink * 2.0).min_element() > 0.0 {
                let small = Aabb::new(aabb.min + shrink, aabb.max - shrink);
                for i in 1..=64 {
                    let t = i as f32 * 0.25;
                    prop_assert!(!small.contains(ray.at(t)),
                        "missed ray enters the box at t={t}");
                }
            }
        }
    }

    #[test]
    fn triangle_hit_point_lies_on_plane(
        a in vec3_in(-2.0, 2.0), b in vec3_in(-2.0, 2.0), c in vec3_in(-2.0, 2.0),
        origin in vec3_in(-5.0, 5.0), dir in nonzero_dir(),
    ) {
        let tri = Triangle::new(a, b, c);
        let n = (b - a).cross(c - a);
        prop_assume!(n.length() > 1e-3); // skip near-degenerate triangles
        let ray = Ray::new(origin, dir);
        if let Some(hit) = tri.intersect(&ray, f32::INFINITY) {
            let p = ray.at(hit.t());
            let plane_dist = (p - a).dot(n.normalized());
            let scale = 1.0 + p.length() + hit.t().abs() * dir.length();
            prop_assert!(plane_dist.abs() < 1e-2 * scale,
                "hit point {p} off plane by {plane_dist}");
            prop_assert!(hit.t() > 0.0);
        }
    }

    #[test]
    fn triangle_hit_inside_bounds(
        a in vec3_in(-2.0, 2.0), b in vec3_in(-2.0, 2.0), c in vec3_in(-2.0, 2.0),
        origin in vec3_in(-5.0, 5.0), dir in nonzero_dir(),
    ) {
        let tri = Triangle::new(a, b, c);
        let ray = Ray::new(origin, dir);
        if let Some(hit) = tri.intersect(&ray, f32::INFINITY) {
            let p = ray.at(hit.t());
            let eps = Vec3::splat(1e-2 * (1.0 + p.length()));
            let bounds = tri.bounds();
            let grown = Aabb::new(bounds.min - eps, bounds.max + eps);
            prop_assert!(grown.contains(p));
        }
    }

    #[test]
    fn morton_preserves_octant_order(x in 0u32..1024, y in 0u32..1024, z in 0u32..1024) {
        let code = morton::encode_30(x, y, z);
        prop_assert_eq!(morton::decode_30(code), (x, y, z));
        // Doubling every coordinate strictly increases the code (unless zero).
        if x > 0 || y > 0 || z > 0 {
            let (x2, y2, z2) = ((x * 2).min(1023), (y * 2).min(1023), (z * 2).min(1023));
            if x2 >= x && y2 >= y && z2 >= z && (x2, y2, z2) != (x, y, z) {
                prop_assert!(morton::encode_30(x2, y2, z2) > code);
            }
        }
    }

    #[test]
    fn distance_to_box_is_admissible(
        p in vec3_in(-5.0, 5.0),
        lo in vec3_in(-3.0, 0.0),
        hi in vec3_in(0.1, 3.0),
        inner in vec3_in(0.0, 1.0),
    ) {
        let aabb = Aabb::new(lo.min(hi), lo.max(hi));
        // Any point inside the box is at least distance_squared_to away.
        let s = aabb.min + inner.mul_elem(aabb.extent());
        let d_box = aabb.distance_squared_to(p);
        let d_pt = (s - p).length_squared();
        prop_assert!(d_box <= d_pt * 1.0001 + 1e-5);
    }
}
