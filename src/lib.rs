//! # HSU — Hierarchical Search Unit
//!
//! A Rust reproduction of *Extending GPU Ray-Tracing Units for Hierarchical
//! Search Acceleration* (MICRO 2024): the HSU hardware model, the four
//! hierarchical search structures it accelerates, a cycle-level GPU
//! simulator, the evaluation workloads, and the datapath area/power model.
//!
//! This facade crate re-exports the whole workspace under one namespace:
//!
//! * [`geometry`] — vectors, rays, AABBs, watertight triangle intersection,
//!   Morton codes, N-dimensional points and distances,
//! * [`unit`](crate::unit) — the HSU itself: ISA and beat model, node formats
//!   and fetch sizes, functional semantics, warp buffer, arbiter, and the
//!   9-stage unified datapath,
//! * [`bvh`], [`kdtree`], [`graph`], [`btree`] — the hierarchical search
//!   structures of the paper's four workloads,
//! * [`datasets`] — seeded synthetic stand-ins for the Table II datasets,
//! * [`sim`] — the cycle-level GPU timing model (SMs, GTO scheduling,
//!   caches/MSHRs, FR-FCFS HBM, one RT/HSU unit per SM),
//! * [`kernels`] — the workloads as trace-recording kernels with HSU and
//!   baseline lowerings,
//! * [`rtl`] — the functional-unit area and dynamic-power model,
//! * [`serve`] — a batched query-serving engine over the four
//!   index families, with archive-backed index loading and deterministic
//!   replay (`servebench` drives open-loop load against it).
//!
//! ## Quickstart
//!
//! ```
//! use hsu::prelude::*;
//!
//! // Index 3-D points in a BVH and run an HSU-accelerated radius search.
//! let prims: Vec<PointPrimitive> = (0..100)
//!     .map(|i| PointPrimitive::new(i, Vec3::new(i as f32 * 0.1, 0.0, 0.0), 0.2))
//!     .collect();
//! let bvh = LbvhBuilder::default().build(&prims);
//! let hits = bvh.radius_search(&prims, Vec3::new(5.03, 0.0, 0.0), 0.3);
//! assert!(hits.iter().any(|h| h.id == 50));
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (vector search,
//! point clouds, key-value stores, ray tracing) and `crates/bench` for the
//! paper-figure regeneration harness (`cargo run --release -p hsu-bench
//! --bin repro -- all`).

#![warn(missing_docs)]

pub use hsu_btree as btree;
pub use hsu_bvh as bvh;
pub use hsu_core as unit;
pub use hsu_datasets as datasets;
pub use hsu_geometry as geometry;
pub use hsu_graph as graph;
pub use hsu_kdtree as kdtree;
pub use hsu_kernels as kernels;
pub use hsu_rtl as rtl;
pub use hsu_serve as serve;
pub use hsu_sim as sim;

/// The most common types, one `use` away.
pub mod prelude {
    pub use hsu_btree::BPlusTree;
    pub use hsu_bvh::{Bvh2, Bvh4, LbvhBuilder, PointPrimitive, SahBuilder, TrianglePrimitive};
    pub use hsu_core::HsuConfig;
    pub use hsu_datasets::{Dataset, DatasetId};
    pub use hsu_geometry::point::{Metric, PointSet};
    pub use hsu_geometry::{Aabb, Ray, Triangle, Vec3};
    pub use hsu_graph::{GraphConfig, HnswGraph};
    pub use hsu_kdtree::{KdForest, KdTree};
    pub use hsu_kernels::Variant;
    pub use hsu_serve::{Engine, EngineConfig, Query, QueryOutput, ServeError};
    pub use hsu_sim::{
        config::{GpuConfig, SimMode},
        Gpu, SimError, SimReport,
    };
}
