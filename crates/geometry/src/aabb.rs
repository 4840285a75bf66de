//! Axis-aligned bounding boxes and the slab ray-box intersection test.

use crate::ray::Ray;
use crate::vec3::Vec3;

/// Result of a successful ray/AABB slab test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxHit {
    /// Parametric entry distance along the ray (clamped to 0 when the ray
    /// starts inside the box).
    pub t_near: f32,
    /// Parametric exit distance along the ray.
    pub t_far: f32,
}

/// An axis-aligned bounding box.
///
/// The RT unit tests a ray against up to four of these per `RAY_INTERSECT`
/// instruction; BVH leaves in the nearest-neighbour workloads are AABBs of
/// side `2r` centred on each data point (RTNN construction, §V-A).
///
/// # Examples
///
/// ```
/// use hsu_geometry::{Aabb, Vec3};
/// let a = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
/// let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
/// assert_eq!(a.union(&b).max, Vec3::splat(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// An empty box: `min = +inf`, `max = -inf`, the identity of [`union`].
    ///
    /// [`union`]: Aabb::union
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f32::INFINITY),
        max: Vec3::splat(f32::NEG_INFINITY),
    };

    /// Creates a box from its two corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any `min` component exceeds the corresponding
    /// `max` component (use [`Aabb::EMPTY`] for the empty box).
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "inverted AABB: min {min} max {max}"
        );
        Aabb { min, max }
    }

    /// The box of half-side `radius` centred on `center` (the RTNN leaf shape).
    #[inline]
    pub fn around_point(center: Vec3, radius: f32) -> Self {
        Aabb {
            min: center - Vec3::splat(radius),
            max: center + Vec3::splat(radius),
        }
    }

    /// The tightest box containing every point in `points`.
    ///
    /// Returns [`Aabb::EMPTY`] for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Self {
        points.into_iter().fold(Aabb::EMPTY, |acc, p| Aabb {
            min: acc.min.min(p),
            max: acc.max.max(p),
        })
    }

    /// Returns `true` if this is the empty box.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Geometric centre of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths along each axis.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Surface area (used by the SAH reference builder).
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Smallest box containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if `other` is entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &Aabb) -> bool {
        other.is_empty() || (self.contains(other.min) && self.contains(other.max))
    }

    /// Squared Euclidean distance from `p` to the closest point of the box
    /// (zero when `p` is inside). Used by best-first BVH nearest-neighbour
    /// search as an admissible lower bound.
    #[inline]
    pub fn distance_squared_to(&self, p: Vec3) -> f32 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        dx * dx + dy * dy + dz * dz
    }
}

impl Ray {
    /// Slab ray/box intersection test (Kay & Kajiya 1986) — the "compute
    /// intervals / tmin-tmax / hit" stages of the datapath's ray-box mode.
    ///
    /// `t_max` bounds the search; hits entirely beyond it are rejected. The
    /// valid interval is `[0, t_max]`. Returns `None` on a miss.
    ///
    /// IEEE infinity semantics from the precomputed `inv_dir` handle
    /// axis-parallel rays; NaNs arising from `0 * inf` (ray origin exactly on
    /// a slab of zero extent) resolve to a miss-safe ordering via `min`/`max`
    /// with explicit NaN suppression, giving a conservative (never
    /// false-negative for watertight traversal) result.
    pub fn intersect_aabb(&self, aabb: &Aabb, t_max: f32) -> Option<BoxHit> {
        // One slab per axis. `0 * inf = NaN` arises exactly when the origin
        // sits on a slab plane with a zero direction component; the ray then
        // stays on that (inclusive) boundary forever, so the axis imposes no
        // constraint — hardware comparators suppress the NaN the same way.
        #[inline]
        fn slab(lo: f32, hi: f32, origin: f32, inv: f32) -> (f32, f32) {
            let a = (lo - origin) * inv;
            let b = (hi - origin) * inv;
            if a.is_nan() || b.is_nan() {
                (f32::NEG_INFINITY, f32::INFINITY)
            } else if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        }
        // Stage 1: translate box to ray origin; stage 2: scale by inv_dir;
        // stage 3: interval intersection (tmin/tmax reduction).
        let (nx, fx) = slab(aabb.min.x, aabb.max.x, self.origin.x, self.inv_dir.x);
        let (ny, fy) = slab(aabb.min.y, aabb.max.y, self.origin.y, self.inv_dir.y);
        let (nz, fz) = slab(aabb.min.z, aabb.max.z, self.origin.z, self.inv_dir.z);
        let t_near = nx.max(ny).max(nz).max(0.0);
        let t_far = fx.min(fy).min(fz).min(t_max);
        if t_near <= t_far {
            Some(BoxHit { t_near, t_far })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn empty_box_properties() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.surface_area(), 0.0);
        let u = Aabb::EMPTY.union(&unit_box());
        assert_eq!(u, unit_box());
    }

    #[test]
    fn from_points_is_tightest() {
        let b = Aabb::from_points([
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-1.0, 5.0, 0.0),
            Vec3::new(0.0, 0.0, 4.0),
        ]);
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 4.0));
    }

    #[test]
    fn around_point_is_symmetric() {
        let b = Aabb::around_point(Vec3::new(1.0, 2.0, 3.0), 0.5);
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::splat(1.0));
    }

    #[test]
    fn surface_area_of_unit_box() {
        assert_eq!(unit_box().surface_area(), 6.0);
    }

    #[test]
    fn containment_and_overlap() {
        let b = unit_box();
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(b.contains(Vec3::ZERO)); // boundary counts
        assert!(!b.contains(Vec3::splat(1.1)));
        let inner = Aabb::new(Vec3::splat(0.25), Vec3::splat(0.75));
        assert!(b.contains_box(&inner));
        assert!(!inner.contains_box(&b));
    }

    #[test]
    fn distance_squared_inside_is_zero() {
        assert_eq!(unit_box().distance_squared_to(Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn distance_squared_outside() {
        // 1 unit beyond the max corner along x only.
        let d = unit_box().distance_squared_to(Vec3::new(2.0, 0.5, 0.5));
        assert_eq!(d, 1.0);
        // Diagonal from the corner.
        let d = unit_box().distance_squared_to(Vec3::new(2.0, 2.0, 2.0));
        assert_eq!(d, 3.0);
    }

    #[test]
    fn slab_hit_through_center() {
        let r = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        let h = r.intersect_aabb(&unit_box(), f32::INFINITY).unwrap();
        assert_eq!(h.t_near, 1.0);
        assert_eq!(h.t_far, 2.0);
    }

    #[test]
    fn slab_miss() {
        let r = Ray::new(Vec3::new(-1.0, 2.0, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!(r.intersect_aabb(&unit_box(), f32::INFINITY).is_none());
    }

    #[test]
    fn slab_origin_inside_clamps_t_near() {
        let r = Ray::new(Vec3::splat(0.5), Vec3::new(0.0, 1.0, 0.0));
        let h = r.intersect_aabb(&unit_box(), f32::INFINITY).unwrap();
        assert_eq!(h.t_near, 0.0);
        assert_eq!(h.t_far, 0.5);
    }

    #[test]
    fn slab_behind_origin_misses() {
        let r = Ray::new(Vec3::new(2.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!(r.intersect_aabb(&unit_box(), f32::INFINITY).is_none());
    }

    #[test]
    fn slab_respects_t_max() {
        let r = Ray::new(Vec3::new(-2.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        assert!(r.intersect_aabb(&unit_box(), 1.5).is_none());
        assert!(r.intersect_aabb(&unit_box(), 2.5).is_some());
    }

    #[test]
    fn slab_axis_parallel_ray_on_boundary_plane() {
        // Ray travels along the box's x = 0 face: inv_dir has infinities.
        let r = Ray::new(Vec3::new(0.0, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0));
        let h = r.intersect_aabb(&unit_box(), f32::INFINITY);
        assert!(h.is_some(), "grazing ray on the face should hit");
    }
}
