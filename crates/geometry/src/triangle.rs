//! Triangles and the watertight ray/triangle intersection test.

use crate::ray::Ray;
use crate::vec3::Vec3;

/// Result of a successful ray/triangle intersection.
///
/// The hardware returns the hit distance as a ratio `t_num / t_denom` to avoid
/// a divider in the datapath (§IV-D, matching the RDNA3 return format); the
/// convenience accessor [`TriangleHit::t`] performs the division in
/// "software".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleHit {
    /// Numerator of the hit distance.
    pub t_num: f32,
    /// Denominator of the hit distance (the determinant).
    pub t_denom: f32,
    /// Scaled barycentric coordinate U.
    pub u: f32,
    /// Scaled barycentric coordinate V.
    pub v: f32,
    /// Scaled barycentric coordinate W.
    pub w: f32,
}

impl TriangleHit {
    /// Hit distance `t = t_num / t_denom` along the ray.
    #[inline]
    pub fn t(&self) -> f32 {
        self.t_num / self.t_denom
    }
}

/// A triangle primitive.
///
/// # Examples
///
/// ```
/// use hsu_geometry::{Ray, Triangle, Vec3};
/// let tri = Triangle::new(
///     Vec3::new(0.0, 0.0, 1.0),
///     Vec3::new(1.0, 0.0, 1.0),
///     Vec3::new(0.0, 1.0, 1.0),
/// );
/// let ray = Ray::new(Vec3::new(0.25, 0.25, 0.0), Vec3::new(0.0, 0.0, 1.0));
/// let hit = tri.intersect(&ray, f32::INFINITY).expect("hit");
/// assert!((hit.t() - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Vec3,
    /// Second vertex.
    pub b: Vec3,
    /// Third vertex.
    pub c: Vec3,
}

impl Triangle {
    /// Creates a triangle from its three vertices.
    #[inline]
    pub const fn new(a: Vec3, b: Vec3, c: Vec3) -> Self {
        Triangle { a, b, c }
    }

    /// The tightest bounding box of the triangle.
    pub fn bounds(&self) -> crate::Aabb {
        crate::Aabb::from_points([self.a, self.b, self.c])
    }

    /// Geometric centroid.
    #[inline]
    pub fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Watertight ray/triangle intersection (Woop, Benthin & Wald, JCGT 2013).
    ///
    /// This follows the paper's datapath stages exactly: translate vertices to
    /// the ray origin, shear/scale them with the precomputed constants, compute
    /// the scaled barycentric edge functions, then the determinant and scaled
    /// hit distance. As in the paper (§IV-B) the double-precision fallback for
    /// edge functions that evaluate to exactly zero is removed; ties resolve as
    /// hits only when all three edge functions share a sign (or are zero),
    /// matching the NVIDIA-patent single-precision formulation.
    ///
    /// Hits with `t` outside `(0, t_max]` are rejected. Returns `None` on a
    /// miss or for degenerate (zero-determinant) configurations.
    pub fn intersect(&self, ray: &Ray, t_max: f32) -> Option<TriangleHit> {
        let (kx, ky, kz) = (ray.kx, ray.ky, ray.kz);
        let (sx, sy, sz) = (ray.shear.x, ray.shear.y, ray.shear.z);

        // Stage: translate triangle to ray origin.
        let a = self.a - ray.origin;
        let b = self.b - ray.origin;
        let c = self.c - ray.origin;

        // Stage: shear/scale vertices into ray space.
        let ax = a[kx] - sx * a[kz];
        let ay = a[ky] - sy * a[kz];
        let bx = b[kx] - sx * b[kz];
        let by = b[ky] - sy * b[kz];
        let cx = c[kx] - sx * c[kz];
        let cy = c[ky] - sy * c[kz];

        // Stage: scaled barycentric edge functions.
        let u = cx * by - cy * bx;
        let v = ax * cy - ay * cx;
        let w = bx * ay - by * ax;

        // Backface-agnostic sign test: all non-negative or all non-positive.
        if !((u >= 0.0 && v >= 0.0 && w >= 0.0) || (u <= 0.0 && v <= 0.0 && w <= 0.0)) {
            return None;
        }

        // Stage: determinant.
        let det = u + v + w;
        if det == 0.0 {
            return None;
        }

        // Stage: scaled hit distance.
        let az = sz * a[kz];
        let bz = sz * b[kz];
        let cz = sz * c[kz];
        let t_num = u * az + v * bz + w * cz;

        // Reject hits behind the origin or beyond t_max without dividing:
        // compare t_num against 0 and det * t_max with det's sign folded in.
        let det_sign = det.is_sign_negative();
        let t_num_signed = if det_sign { -t_num } else { t_num };
        let det_abs = det.abs();
        if t_num_signed <= 0.0 || t_num_signed > t_max * det_abs {
            return None;
        }

        Some(TriangleHit {
            t_num,
            t_denom: det,
            u,
            v,
            w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_tri() -> Triangle {
        Triangle::new(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        )
    }

    #[test]
    fn hit_inside() {
        let ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::new(0.0, 0.0, 1.0));
        let hit = unit_tri().intersect(&ray, f32::INFINITY).unwrap();
        assert!((hit.t() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn miss_outside() {
        let ray = Ray::new(Vec3::new(0.9, 0.9, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(unit_tri().intersect(&ray, f32::INFINITY).is_none());
    }

    #[test]
    fn backface_hit_is_reported() {
        // Approach from the other side: same triangle, reversed direction.
        let ray = Ray::new(Vec3::new(0.2, 0.2, 2.0), Vec3::new(0.0, 0.0, -1.0));
        let hit = unit_tri().intersect(&ray, f32::INFINITY).unwrap();
        assert!((hit.t() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn behind_origin_misses() {
        let ray = Ray::new(Vec3::new(0.2, 0.2, 2.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(unit_tri().intersect(&ray, f32::INFINITY).is_none());
    }

    #[test]
    fn respects_t_max() {
        let ray = Ray::new(Vec3::new(0.2, 0.2, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(unit_tri().intersect(&ray, 0.5).is_none());
        assert!(unit_tri().intersect(&ray, 1.5).is_some());
    }

    #[test]
    fn edge_hit_is_watertight() {
        // Ray through the shared edge between two triangles of a quad must hit
        // at least one of them (the watertightness guarantee).
        let t1 = Triangle::new(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        );
        let t2 = Triangle::new(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        );
        // Points sampled on the shared diagonal (x == y).
        for i in 0..32 {
            let s = i as f32 / 31.0;
            let ray = Ray::new(Vec3::new(s, s, 0.0), Vec3::new(0.0, 0.0, 1.0));
            let hits = t1.intersect(&ray, f32::INFINITY).is_some()
                || t2.intersect(&ray, f32::INFINITY).is_some();
            assert!(hits, "diagonal point {s} slipped between triangles");
        }
    }

    #[test]
    fn degenerate_triangle_misses() {
        let degen = Triangle::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -1.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(degen.intersect(&ray, f32::INFINITY).is_none());
    }

    #[test]
    fn skewed_ray_hit_distance() {
        let tri = unit_tri();
        let origin = Vec3::new(-1.0, -1.0, 0.0);
        let target = Vec3::new(0.25, 0.25, 1.0);
        let dir = target - origin;
        let ray = Ray::new(origin, dir);
        let hit = tri.intersect(&ray, f32::INFINITY).unwrap();
        // dir reaches the plane z=1 at t=1 because dir.z == 1.
        assert!((hit.t() - 1.0).abs() < 1e-5);
        assert!((ray.at(hit.t()) - target).length() < 1e-5);
    }

    #[test]
    fn bounds_and_centroid() {
        let tri = unit_tri();
        let b = tri.bounds();
        assert_eq!(b.min, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 1.0));
        let c = tri.centroid();
        assert!((c - Vec3::new(1.0 / 3.0, 1.0 / 3.0, 1.0)).length() < 1e-6);
    }
}
