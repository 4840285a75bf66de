//! Morton (Z-order) codes for the LBVH builder.
//!
//! The BVH-NN workload constructs its hierarchy with the Karras 2012 parallel
//! LBVH algorithm, which sorts primitives by the Morton code of their
//! (quantized) centroid. The builder takes 63-bit (21 bits/axis) codes from
//! [`code_63`]; the 30-bit (10 bits/axis) interleave and its inverse are
//! kept for the ordering property tests.

use crate::{Aabb, Vec3};

/// Spreads the low 10 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn expand_bits_10(v: u32) -> u32 {
    let mut v = v & 0x3ff;
    v = (v | (v << 16)) & 0x030000FF;
    v = (v | (v << 8)) & 0x0300F00F;
    v = (v | (v << 4)) & 0x030C30C3;
    v = (v | (v << 2)) & 0x09249249;
    v
}

/// Spreads the low 21 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn expand_bits_21(v: u64) -> u64 {
    let mut v = v & 0x1f_ffff;
    v = (v | (v << 32)) & 0x1f00000000ffff;
    v = (v | (v << 16)) & 0x1f0000ff0000ff;
    v = (v | (v << 8)) & 0x100f00f00f00f00f;
    v = (v | (v << 4)) & 0x10c30c30c30c30c3;
    v = (v | (v << 2)) & 0x1249249249249249;
    v
}

/// Interleaves three 10-bit coordinates into a 30-bit Morton code.
///
/// # Examples
///
/// ```
/// assert_eq!(hsu_geometry::morton::encode_30(1, 0, 0), 0b001);
/// assert_eq!(hsu_geometry::morton::encode_30(0, 1, 0), 0b010);
/// assert_eq!(hsu_geometry::morton::encode_30(0, 0, 1), 0b100);
/// ```
#[inline]
pub fn encode_30(x: u32, y: u32, z: u32) -> u32 {
    expand_bits_10(x) | (expand_bits_10(y) << 1) | (expand_bits_10(z) << 2)
}

/// Interleaves three 21-bit coordinates into a 63-bit Morton code.
#[inline]
fn encode_63(x: u32, y: u32, z: u32) -> u64 {
    expand_bits_21(x as u64) | (expand_bits_21(y as u64) << 1) | (expand_bits_21(z as u64) << 2)
}

/// Quantizes `p` inside `bounds` to the `[0, 2^bits)` integer lattice.
///
/// Coordinates are clamped, so points on (or slightly outside, from rounding)
/// the boundary still produce valid codes.
#[inline]
fn quantize(p: Vec3, bounds: &Aabb, bits: u32) -> (u32, u32, u32) {
    debug_assert!(bits <= 21, "at most 21 bits per axis are supported");
    let scale = (1u32 << bits) as f32;
    let max_coord = (1u32 << bits) - 1;
    let extent = bounds.extent();
    let q = |v: f32, lo: f32, e: f32| -> u32 {
        if e <= 0.0 {
            return 0;
        }
        let t = ((v - lo) / e * scale) as i64;
        t.clamp(0, max_coord as i64) as u32
    };
    (
        q(p.x, bounds.min.x, extent.x),
        q(p.y, bounds.min.y, extent.y),
        q(p.z, bounds.min.z, extent.z),
    )
}

/// 30-bit Morton code of `p` quantized within `bounds`.
#[cfg(test)]
fn code_30(p: Vec3, bounds: &Aabb) -> u32 {
    let (x, y, z) = quantize(p, bounds, 10);
    encode_30(x, y, z)
}

/// 63-bit Morton code of `p` quantized within `bounds`.
#[inline]
pub fn code_63(p: Vec3, bounds: &Aabb) -> u64 {
    let (x, y, z) = quantize(p, bounds, 21);
    encode_63(x, y, z)
}

/// Recovers the three 10-bit coordinates from a 30-bit Morton code
/// (inverse of [`encode_30`]; used by tests).
pub fn decode_30(code: u32) -> (u32, u32, u32) {
    let compact = |mut v: u32| -> u32 {
        v &= 0x09249249;
        v = (v | (v >> 2)) & 0x030C30C3;
        v = (v | (v >> 4)) & 0x0300F00F;
        v = (v | (v >> 8)) & 0x030000FF;
        v = (v | (v >> 16)) & 0x3ff;
        v
    };
    (compact(code), compact(code >> 1), compact(code >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_30_basis_vectors() {
        assert_eq!(encode_30(0, 0, 0), 0);
        assert_eq!(encode_30(1, 0, 0), 1);
        assert_eq!(encode_30(0, 1, 0), 2);
        assert_eq!(encode_30(0, 0, 1), 4);
        assert_eq!(encode_30(2, 0, 0), 8);
        assert_eq!(encode_30(0b11, 0b11, 0b11), 0b111111);
    }

    #[test]
    fn encode_30_max_fits_in_30_bits() {
        let code = encode_30(0x3ff, 0x3ff, 0x3ff);
        assert_eq!(code, (1 << 30) - 1);
    }

    #[test]
    fn encode_63_max_fits_in_63_bits() {
        let code = encode_63(0x1f_ffff, 0x1f_ffff, 0x1f_ffff);
        assert_eq!(code, (1u64 << 63) - 1);
    }

    #[test]
    fn decode_inverts_encode() {
        for (x, y, z) in [(0, 0, 0), (1, 2, 3), (1023, 0, 512), (700, 700, 700)] {
            assert_eq!(decode_30(encode_30(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn quantize_clamps_to_lattice() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        assert_eq!(quantize(Vec3::ZERO, &bounds, 10), (0, 0, 0));
        assert_eq!(quantize(Vec3::splat(1.0), &bounds, 10), (1023, 1023, 1023));
        // Outside points clamp.
        assert_eq!(quantize(Vec3::splat(2.0), &bounds, 10), (1023, 1023, 1023));
        assert_eq!(quantize(Vec3::splat(-1.0), &bounds, 10), (0, 0, 0));
    }

    #[test]
    fn quantize_degenerate_extent_is_zero() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 1.0));
        let (_, y, _) = quantize(Vec3::new(0.5, 0.0, 0.5), &bounds, 10);
        assert_eq!(y, 0);
    }

    #[test]
    fn codes_order_matches_spatial_octants() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        // A point in the low octant sorts before one in the high octant.
        let lo = code_30(Vec3::splat(0.1), &bounds);
        let hi = code_30(Vec3::splat(0.9), &bounds);
        assert!(lo < hi);
    }

    #[test]
    fn code_63_has_finer_resolution_than_code_30() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let a = Vec3::new(0.50000, 0.5, 0.5);
        let b = Vec3::new(0.50001, 0.5, 0.5);
        // Too close for 10 bits, distinguishable at 21 bits.
        assert_eq!(code_30(a, &bounds), code_30(b, &bounds));
        assert_ne!(code_63(a, &bounds), code_63(b, &bounds));
    }
}
