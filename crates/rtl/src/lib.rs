//! Analytical RTL model of the unified datapath (paper §VI-K).
//!
//! The paper synthesizes its Chisel datapath with a 15 nm PDK and reports
//! *datapath-relative* numbers: HSU area ≈ 1.37× the baseline RT datapath
//! (Fig. 15, by resource class) and per-operating-mode dynamic power
//! (Fig. 16). This crate reproduces those results from first principles:
//!
//! * [`fu`] — functional-unit kinds with area/energy constants representative
//!   of a 15 nm standard-cell flow (Berkeley HardFloat-class units),
//! * [`area`] — the per-stage functional-unit inventory of the baseline and
//!   HSU datapaths. The HSU adds exactly the units §IV-C calls out (two
//!   adders in stage 3, one in stages 5, 8 and 9) plus the per-mode pipeline
//!   registers and mode-control muxing of the unoptimized prototype,
//! * [`power`] — per-mode dynamic power from functional-unit activity. Its
//!   tests check that estimate against activity integrated over a
//!   cycle-accurate [`hsu_core::pipeline::DatapathPipeline`] run with random
//!   stimulus, the way the paper measures Fig. 16.

#![warn(missing_docs)]

pub mod area;
pub mod fu;
pub mod power;

pub use area::{AreaBreakdown, DatapathKind};
pub use power::mode_power_mw;
