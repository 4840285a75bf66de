//! A sharded, batched query-serving engine over the HSU index families.
//!
//! This crate promotes the repo's hierarchical-search kernels
//! (`hsu-graph`, `hsu-kdtree`, `hsu-bvh`, `hsu-btree`) from trace
//! generators into a long-running query service — the ROADMAP's
//! "millions of users" story:
//!
//! - **Persistent indexes** load from `.hsar` archives through the
//!   [`hsu_bench::ArchiveCache`] (see [`index`]); cold opens build and
//!   store, warm opens are archive reads.
//! - **Batched submission**: the [`engine::Engine`] coalesces queries
//!   into SoA [`batch::QueryBatch`]es sized for the `geometry::batch`
//!   SIMD kernels; every index family answers through its batch entry
//!   point.
//! - **Sharding + backpressure**: bounded per-shard admission queues
//!   (full queue → typed [`error::ServeError::Overloaded`]), per-shard
//!   worker pools with sibling work-stealing.
//! - **Overload resilience**: class-aware admission
//!   ([`admission::SubmitOptions`] — `Interactive` still admits while
//!   `Batch` sheds first), adaptive SLO shedding
//!   ([`admission::SloPolicy`]: a shard over its sliding-window p99
//!   target rejects low-class work before its queue fills), and
//!   per-query deadlines (expired work dropped typed at dequeue and at
//!   `wait`).
//! - **Failure resilience**: a panic inside the index fails only its
//!   batch, with [`error::ServeError::WorkerCrashed`]; the worker takes
//!   its next batch, so the shard keeps serving.
//!   [`engine::Engine::stats`] counts every panic, shed, and deadline
//!   drop. The [`chaos`] harness injects each fault class
//!   deterministically.
//! - **Completion handles**: a [`handle::Ticket`] is redeemed by
//!   blocking on it ([`handle::Ticket::wait`]), bounded by the
//!   submission's deadline.
//! - **Deterministic replay**: per-query answers are pure, and
//!   [`replay`] folds result hashes in submission order, so seeded
//!   streams hash byte-identically across shard/batch/worker configs.
//!
//! The `servebench` binary drives open-loop million-query load over all
//! four families and appends sustained QPS + p50/p99/p999 latency to
//! the `BENCH_sim.json` trajectory.
//!
//! ```no_run
//! use std::sync::Arc;
//! use hsu_serve::prelude::*;
//!
//! let cache = hsu_bench::ArchiveCache::disabled();
//! let index = Arc::new(BtreeIndex::open(&cache, 10_000, 1));
//! let engine = Engine::new(index, EngineConfig::default());
//! let out = engine.query(Query::Key(42)).unwrap();
//! # let _ = out;
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod batch;
pub mod chaos;
pub mod engine;
pub mod error;
pub mod handle;
pub mod index;
pub mod replay;

pub use admission::{Priority, SloPolicy, SubmitOptions};
pub use batch::QueryBatch;
pub use engine::{Engine, EngineConfig, EngineStats};
pub use error::ServeError;
pub use handle::Ticket;
pub use hsu_bench::ArchiveCache;
pub use index::{
    BtreeIndex, BvhIndex, GraphIndex, IndexFamily, KdIndex, Query, QueryOutput, SearchIndex,
};

/// The common imports for service users.
pub mod prelude {
    pub use crate::admission::{Priority, SloPolicy, SubmitOptions};
    pub use crate::engine::{Engine, EngineConfig, EngineStats};
    pub use crate::error::ServeError;
    pub use crate::handle::Ticket;
    pub use crate::index::{
        BtreeIndex, BvhIndex, GraphIndex, IndexFamily, KdIndex, Query, QueryOutput, SearchIndex,
    };
    pub use crate::replay::{combine_hashes, hash_output};
    pub use crate::ArchiveCache;
}
