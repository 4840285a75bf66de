//! Bounding volume hierarchies for the BVH-NN workload and ray tracing.
//!
//! The paper's BVH-NN implementation (§V-A) builds a *linear BVH* (LBVH):
//! leaf AABBs of side `2r` centred on each data point, points sorted by
//! Morton code, hierarchy built with the Karras 2012 algorithm, and a
//! stack-based traversal maintained by the kernel in shared memory. This
//! crate provides:
//!
//! * [`LbvhBuilder`] — Morton-sort + top-down radix-split construction
//!   (fast, lower quality, exactly what the paper uses),
//! * [`SahBuilder`] — a binned surface-area-heuristic builder, the "more
//!   optimized BVH" the paper names as the obvious quality upgrade (§VI-E),
//! * [`Bvh2`] — the binary hierarchy with leaf primitive ranges,
//! * [`Bvh4`] — the collapsed 4-wide hierarchy matching the RT unit's
//!   four-box `RAY_INTERSECT` (§VI-E notes BVH4 would use the unit better),
//!   stored as fixed-slot 128-byte wide nodes, the stride the trace
//!   lowering charges,
//! * point radius / nearest-neighbour searches and ray traversal, each
//!   reporting its traversal statistics; the radius searches and the ray
//!   traversal also report each step to a [`TraversalObserver`], which is
//!   how the BVH-NN, RTIndeX and render kernels record their traces.
//!
//! # Examples
//!
//! ```
//! use hsu_bvh::{LbvhBuilder, PointPrimitive};
//! use hsu_geometry::Vec3;
//!
//! let prims: Vec<PointPrimitive> = (0..64)
//!     .map(|i| PointPrimitive::new(i, Vec3::new(i as f32, 0.0, 0.0), 0.5))
//!     .collect();
//! let bvh = LbvhBuilder::default().build(&prims);
//! let hits = bvh.radius_search(&prims, Vec3::new(10.2, 0.0, 0.0), 1.0);
//! assert!(hits.iter().any(|h| h.id == 10));
//! ```

#![warn(missing_docs)]

pub mod archive_io;
mod builder;
mod bvh2;
mod bvh4;
mod primitive;
mod search;

pub use builder::{LbvhBuilder, SahBuilder};
pub use bvh2::{Bvh2, Bvh2Node, NodeContent};
pub use bvh4::{Bvh4, WideChild, WideNode};
pub use primitive::{PointPrimitive, Primitive, TrianglePrimitive};
pub use search::{Neighbor, TraversalObserver, TraversalStats};
