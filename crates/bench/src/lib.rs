//! The figure-regeneration suite for the HSU reproduction.
//!
//! Every table and figure of the paper's evaluation (§VI) has a
//! regeneration path here, driven by the `repro` binary:
//!
//! | paper item | function | `repro` subcommand |
//! |---|---|---|
//! | Table II | [`figures::table2`] | `table2` |
//! | Table III | [`figures::table3`] | `table3` |
//! | Fig. 7 | [`figures::fig7`] | `fig7` |
//! | Fig. 8 | [`figures::fig8`] | `fig8` |
//! | Fig. 9 | [`figures::fig9`] | `fig9` |
//! | Fig. 10 | [`figures::fig10`] | `fig10` |
//! | Fig. 11 | [`figures::fig11`] | `fig11` |
//! | Fig. 12 | [`figures::fig12`] | `fig12` |
//! | Fig. 13 | [`figures::fig13`] | `fig13` |
//! | Fig. 14 | [`figures::fig14`] | `fig14` |
//! | Fig. 15 | [`figures::fig15`] | `fig15` |
//! | Fig. 16 | [`figures::fig16`] | `fig16` |
//! | §VI-G RTIndeX | [`figures::rtindex`] | `rtindex` |
//!
//! The [`suite::Suite`] builds every workload once (functional execution +
//! validation), simulates the three lowerings on the standard machine, and
//! caches the reports; figure functions then format different projections of
//! the same runs, exactly as the paper derives Figs. 7–14 from one set of
//! simulations.
//!
//! # Failure semantics
//!
//! Every simulation runs under a [`runner::FaultGuard`], the per-job body
//! of the fault-tolerant job pool ([`runner::run_jobs_ft`]): panics are
//! isolated per simulation and each can carry a wall-clock watchdog. A
//! failed simulation is not retried, since every one is a pure function of
//! its input. [`suite::Suite::build_with_policy`] exposes the
//! per-simulation outcomes so callers (the `repro` binary's `--keep-going`
//! and `--job-timeout` flags) can report partial results instead of
//! aborting.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod figures;
pub mod runner;
pub mod suite;
pub mod trajectory;

pub use cache::ArchiveCache;
pub use runner::{
    outcomes_table, run_jobs, run_jobs_ft, FaultPolicy, JobError, JobOutcome, JobStatus, RunRecord,
};
pub use suite::{AppLowerings, AppTraces, Suite, SuiteBuild, SuiteConfig};
