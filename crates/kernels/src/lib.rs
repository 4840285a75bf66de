//! The paper's evaluation workloads as trace-recording GPU kernels.
//!
//! No workload implements a search of its own. Each one runs its index
//! crate's search — the same code the serving engine runs — and records a
//! per-thread event stream through the observer trait that search reports
//! its steps to ([`hsu_graph::GraphObserver`], [`hsu_kdtree::KdObserver`],
//! [`hsu_bvh::TraversalObserver`], [`hsu_btree::BtObserver`]). The observer
//! is a generic parameter, so the search pays no dynamic dispatch for it.
//!
//! Each recorded execution is then lowered twice:
//!
//! * an **HSU lowering**, where node tests, distance computations and key
//!   comparisons become single CISC instructions on the RT/HSU unit, and
//! * a **baseline lowering**, the SIMT instruction sequences a V100 without
//!   ray-tracing hardware executes for the same work (the inverse of the
//!   paper's SASS-trace post-processor, §V-C).
//!
//! A third **stripped** lowering omits the offloadable operations entirely;
//! comparing its cycle count against the full baseline yields the
//! offloadable-cycle share of Fig. 7.
//!
//! The four workloads of §V-A ([`ggnn`], [`flann`], [`bvhnn`], [`btree`])
//! plus the RTIndeX case study of §VI-G ([`rtindex`]) all validate their
//! functional results (recall or exact lookups) before any timing is run.
//!
//! # Examples
//!
//! ```
//! use hsu_kernels::{bvhnn, Variant};
//! use hsu_sim::{config::GpuConfig, Gpu};
//!
//! let wl = bvhnn::BvhnnWorkload::build(&bvhnn::BvhnnParams {
//!     points: 400, queries: 64, seed: 7, ..Default::default()
//! });
//! let gpu = Gpu::new(GpuConfig::tiny());
//! let hsu = gpu.run(&wl.trace(Variant::Hsu)).unwrap();
//! let base = gpu.run(&wl.trace(Variant::Baseline)).unwrap();
//! assert!(hsu.cycles < base.cycles);
//! ```

#![warn(missing_docs)]

pub mod btree;
pub mod bvhnn;
pub mod flann;
pub mod ggnn;
pub mod layout;
pub mod lowering;
pub mod render;
pub mod rtindex;
mod traversal;

pub use lowering::Variant;

use hsu_sim::SimReport;

/// The offloadable-cycle share of Fig. 7: the fraction of baseline cycles
/// attributable to operations the HSU could execute (arithmetic *and* their
/// operand loads), measured by removing them.
pub fn offloadable_fraction(baseline: &SimReport, stripped: &SimReport) -> f64 {
    if baseline.cycles == 0 {
        return 0.0;
    }
    1.0 - stripped.cycles as f64 / baseline.cycles as f64
}

// Workload builders run inside the parallel suite runner's worker threads;
// built workloads are then shared by reference across simulation jobs. This
// fails to compile if any workload grows non-`Send + Sync` interior state.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ggnn::GgnnWorkload>();
    assert_send_sync::<flann::FlannWorkload>();
    assert_send_sync::<bvhnn::BvhnnWorkload>();
    assert_send_sync::<btree::BtreeWorkload>();
    assert_send_sync::<rtindex::RtIndexWorkload>();
};
