//! Geometric primitives underlying the Hierarchical Search Unit (HSU).
//!
//! This crate is the lowest-level substrate of the HSU reproduction. It provides
//! the data types and *scalar reference algorithms* that the hardware datapath
//! model in `hsu-core` reimplements stage-by-stage:
//!
//! * [`Vec3`] — three-component `f32` vector math,
//! * [`Aabb`] and the slab [`Ray`]/box intersection test used by GPU RT units,
//! * [`Triangle`] and the watertight Woop ray/triangle intersection test,
//! * [`morton`] — Morton (Z-order) codes used by the LBVH builder,
//! * [`point`] — N-dimensional points with squared-Euclidean and angular
//!   distance,
//! * [`batch`] — struct-of-arrays batch variants of the distance and
//!   intersection kernels, bit-identical to the scalar forms but laid out
//!   so the compiler vectorizes across candidates.
//!
//! Everything here is deterministic, allocation-light, and heavily unit- and
//! property-tested: the cycle-level machinery elsewhere in the workspace treats
//! these functions as golden references.
//!
//! # Examples
//!
//! ```
//! use hsu_geometry::{Aabb, Ray, Vec3};
//!
//! let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
//! let boxed = Aabb::new(Vec3::new(1.0, -1.0, -1.0), Vec3::new(2.0, 1.0, 1.0));
//! let hit = ray.intersect_aabb(&boxed, f32::INFINITY).expect("ray points at the box");
//! assert!((hit.t_near - 1.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

mod aabb;
pub mod batch;
pub mod morton;
pub mod point;
mod ray;
mod triangle;
mod vec3;

pub use aabb::{Aabb, BoxHit};
pub use ray::Ray;
pub use triangle::{Triangle, TriangleHit};
pub use vec3::Vec3;
