//! Three-component vector used for rays, boxes and triangles.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A three-component single-precision vector.
///
/// The RT-unit datapath operates exclusively on `f32`, matching the
/// register-file operand format of the AMD RDNA3 `IMAGE_BVH_INTERSECT_RAY`
/// instructions the paper models its baseline on.
///
/// # Examples
///
/// ```
/// use hsu_geometry::Vec3;
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::splat(2.0);
/// assert_eq!(a.dot(b), 12.0);
/// assert_eq!((a + b).x, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from its three components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all three components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Vec3) -> f32 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product with `other`.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_squared(self) -> f32 {
        self.dot(self)
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.length_squared().sqrt()
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vector has zero length.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        debug_assert!(len > 0.0, "cannot normalize a zero-length vector");
        self / len
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.x.min(other.x),
            y: self.y.min(other.y),
            z: self.z.min(other.z),
        }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.x.max(other.x),
            y: self.y.max(other.y),
            z: self.z.max(other.z),
        }
    }

    /// Component-wise multiplication.
    #[inline]
    pub fn mul_elem(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.x * other.x,
            y: self.y * other.y,
            z: self.z * other.z,
        }
    }

    /// Component-wise reciprocal, used to precompute the inverse ray direction.
    ///
    /// Zero components map to `±inf` following IEEE-754 semantics, which the
    /// slab test relies on for axis-parallel rays.
    #[inline]
    pub fn recip(self) -> Vec3 {
        Vec3 {
            x: 1.0 / self.x,
            y: 1.0 / self.y,
            z: 1.0 / self.z,
        }
    }

    /// Index of the component with the largest absolute value (0, 1 or 2).
    ///
    /// The watertight triangle test uses this to pick the shear dimension `kz`.
    #[inline]
    pub fn max_abs_axis(self) -> usize {
        let ax = self.x.abs();
        let ay = self.y.abs();
        let az = self.z.abs();
        if ax >= ay && ax >= az {
            0
        } else if ay >= az {
            1
        } else {
            2
        }
    }

    /// The smallest component value.
    #[inline]
    pub fn min_element(self) -> f32 {
        self.x.min(self.y).min(self.z)
    }

    /// The largest component value.
    #[inline]
    pub fn max_element(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Returns `true` if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;

    /// Indexes the vector by axis: 0 → x, 1 → y, 2 → z.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f32 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
            z: self.z + rhs.z,
        }
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
            z: self.z - rhs.z,
        }
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3 {
            x: self.x * rhs,
            y: self.y * rhs,
            z: self.z * rhs,
        }
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f32) -> Vec3 {
        Vec3 {
            x: self.x / rhs,
            y: self.y / rhs,
            z: self.z / rhs,
        }
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3 {
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let v = Vec3::new(1.0, -2.0, 3.5);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], -2.0);
        assert_eq!(v[2], 3.5);
        assert_eq!(Vec3::splat(4.0), Vec3::new(4.0, 4.0, 4.0));
        assert_eq!(Vec3::default(), Vec3::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn add_sub_assign() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::splat(2.0);
        assert_eq!(v, Vec3::splat(3.0));
        v -= Vec3::splat(1.0);
        assert_eq!(v, Vec3::splat(2.0));
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        // Anti-commutativity.
        assert_eq!(x.cross(y), -(y.cross(x)));
    }

    #[test]
    fn lengths_and_normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.length_squared(), 25.0);
        assert_eq!(v.length(), 5.0);
        let n = v.normalized();
        assert!((n.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn min_max_and_elementwise() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 3.0));
        assert_eq!(a.mul_elem(b), Vec3::new(2.0, 20.0, 9.0));
        assert_eq!(a.min_element(), 1.0);
        assert_eq!(a.max_element(), 5.0);
    }

    #[test]
    fn recip_produces_infinities_for_zero_components() {
        let v = Vec3::new(0.0, 2.0, -0.0).recip();
        assert!(v.x.is_infinite() && v.x > 0.0);
        assert_eq!(v.y, 0.5);
        assert!(v.z.is_infinite() && v.z < 0.0);
    }

    #[test]
    fn max_abs_axis_picks_dominant_dimension() {
        assert_eq!(Vec3::new(-5.0, 1.0, 2.0).max_abs_axis(), 0);
        assert_eq!(Vec3::new(0.0, -3.0, 2.0).max_abs_axis(), 1);
        assert_eq!(Vec3::new(0.5, 1.0, -2.0).max_abs_axis(), 2);
    }

    #[test]
    fn conversions() {
        let v = Vec3::from([1.0, 2.0, 3.0]);
        let a: [f32; 3] = v.into();
        assert_eq!(a, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Vec3::new(1.0, 2.0, 3.0)), "(1, 2, 3)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }
}
