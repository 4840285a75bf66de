//! The Hierarchical Search Unit (HSU) — the paper's primary contribution.
//!
//! This crate models the hardware proposed in *Extending GPU Ray-Tracing Units
//! for Hierarchical Search Acceleration* (MICRO 2024) at three levels:
//!
//! 1. **ISA** ([`isa`]) — the baseline `RAY_INTERSECT` instruction plus the
//!    three HSU extensions `POINT_EUCLID`, `POINT_ANGULAR` and `KEY_COMPARE`
//!    (paper Table I), including each instruction's register-file operands and
//!    CISC memory footprint.
//! 2. **Functional semantics** ([`node`], [`exec`]) — packed BVH4 box /
//!    triangle / key node formats and the exact result each instruction
//!    returns through the register file, validated against the scalar
//!    references in [`hsu_geometry`].
//! 3. **Microarchitecture** ([`warp_buffer`], [`arbiter`], [`pipeline`]) — the
//!    warp buffer that exposes memory-level parallelism, the sub-core
//!    round-robin arbiter with the multi-beat *accumulate lock* (paper
//!    §IV-F), and the 9-stage unified single-lane datapath with per-stage
//!    functional-unit activity tracking (paper Figs. 5 and 6).
//!
//! The cycle-level GPU model in `hsu-sim` instantiates these components inside
//! each SM; the `hsu-rtl` crate prices the datapath's functional units for the
//! area/power study.
//!
//! # Examples
//!
//! A high-dimensional distance and the beats the HSU spends on it:
//!
//! ```
//! use hsu_core::HsuConfig;
//! use hsu_geometry::point::Metric;
//!
//! let q = vec![0.5_f32; 96];
//! let c = vec![0.25_f32; 96];
//! let d = Metric::Euclidean.distance(&q, &c);
//! assert!((d - 96.0 * 0.0625).abs() < 1e-3);
//! // dimension 96 at the 16-wide pipeline => 6 beats, 5 with accumulate set
//! assert_eq!(HsuConfig::default().beats_for(Metric::Euclidean, 96), 6);
//! ```

#![warn(missing_docs)]

pub mod arbiter;
pub mod config;
pub mod exec;
pub mod isa;
pub mod node;
pub mod pipeline;
pub mod warp_buffer;

pub use config::HsuConfig;
pub use isa::{HsuInstruction, HsuOpcode};
pub use node::{BoxNode, KeyNode, NodeKind, TriangleNode};
