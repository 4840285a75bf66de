//! Cycle-level GPU timing simulator for the HSU evaluation.
//!
//! This crate stands in for the paper's Accel-Sim + GPGPU-Sim 4.0 stack
//! (§V-C). It models a Volta-class GPU at the fidelity the paper's results
//! depend on:
//!
//! * **SMs with four sub-cores** and greedy-then-oldest (GTO) warp
//!   scheduling, one issue slot per sub-core per cycle (Table III),
//! * **one RT/HSU unit per SM** ([`rt_unit::RtUnit`]) shared by the
//!   sub-cores through a round-robin arbiter, with the warp buffer, FIFO
//!   L1-access queue, single-lane 9-stage datapath and result buffer of
//!   `hsu-core`. Like RDNA3's `IMAGE_BVH_INTERSECT_RAY`, each instruction
//!   is one node test: the traversal stack stays in software on the SM,
//! * **L1D caches with MSHRs** (128 KB, 128-B lines) time-shared between the
//!   load-store unit and the RT unit's fetch FIFO (§VI-H), through a port
//!   the memory system owns and presents,
//! * a shared, banked **L2** (6 MB, 24-way) and **HBM channels with FR-FCFS**
//!   row-buffer scheduling whose locality statistics feed Fig. 14,
//! * a **trace format** ([`trace`]) the workload kernels emit: per-thread
//!   operation logs packed once, as they are recorded, into 32-lane warps
//!   with divergence-aware active masks.
//!
//! The simulator is deterministic: the same trace and configuration always
//! produce the same cycle count and statistics.
//!
//! # Simulation modes
//!
//! Time advances under one of two [`config::SimMode`]s. `Stepped` is the
//! oracle: every component ticks on every cycle. `Event` (the default) is
//! the fast path: each component reports the earliest future cycle its
//! state can change ([`memory::MemorySystem::next_event`],
//! [`sm::Sm::next_event`]), the run loop jumps straight to the minimum, and
//! within a visited cycle only the SMs that can observe it tick — the rest
//! sleep until a completion they can observe or their own wakeup cycle
//! arrives (an SM sleeps through its RT datapath draining, through
//! dispatches refused by a full warp buffer, and while its lines wait at
//! the L1 port), and bulk-account the skipped window via `fast_forward`. Both modes
//! produce bit-identical [`SimReport`]s (only the [`stats::SchedStats`]
//! scheduler counters differ); `tests/sim_equivalence.rs` proves this
//! differentially over random kernels, random machine geometries, and the
//! full benchmark suite.
//!
//! # One owner, flat data
//!
//! One run is one thread: the run loop owns every SM and the whole memory
//! hierarchy, and an SM queues its accesses at its port in the
//! [`memory::MemorySystem`], which keeps its per-SM L1 state and port in a
//! plain vector and its pending events in a cycle-bucketed queue. A
//! [`trace::KernelTrace`] exists only in its warp-packed form, built once
//! when it is recorded or decoded: one kernel-wide pool of instruction
//! headers (class, lane mask, issue summaries) and one pool of the per-lane
//! ops the simulator reads (Load, Store, HSU) — `Alu`/`Shared` runs live in
//! their header alone. A run borrows it: each SM holds
//! [`trace::WarpTrace`] views into the pools, so [`Gpu::run`] packs and
//! copies nothing. Parallelism lives one level up, across
//! independent simulations (`hsu-bench`'s job runner): splitting one run's
//! cycles over threads costs more in per-cycle synchronisation than it
//! saves (EXPERIMENTS.md, "Simulation modes").
//!
//! # Examples
//!
//! ```
//! use hsu_sim::config::GpuConfig;
//! use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
//! use hsu_sim::Gpu;
//!
//! let mut kernel = KernelTrace::builder("demo");
//! for t in 0..64 {
//!     let mut thread = ThreadTrace::new();
//!     thread.push(ThreadOp::Alu { count: 4 });
//!     thread.push(ThreadOp::Load { addr: t * 128, bytes: 4 });
//!     kernel.push_thread(thread);
//! }
//! let report = Gpu::new(GpuConfig::small()).run(&kernel.finish()).unwrap();
//! assert!(report.cycles > 0);
//! ```
//!
//! # Failure semantics
//!
//! Everything a caller can trigger with bad input — malformed traces,
//! invalid configurations, guard-exceeding kernels, cancelled or timed-out
//! runs — surfaces as a typed [`SimError`] rather than a panic. Panics that
//! remain (`unreachable!` sites in component internals) indicate simulator
//! bugs, never bad input; see [`error`] for the taxonomy.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod archive_io;
pub mod cache;
pub mod config;
pub mod dram;
pub mod error;
mod event_queue;
pub mod faults;
pub mod memory;
pub mod rt_unit;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod trace_io;

mod gpu;

pub use error::SimError;
pub use gpu::Gpu;
pub use stats::SimReport;

// The parallel suite runner fans simulations out across scoped threads, so
// the simulator's job inputs and outputs must stay `Send + Sync`. Keep these
// assertions next to the types they guard: adding an `Rc`/`RefCell` anywhere
// inside breaks the build here rather than deep in `hsu-bench`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Gpu>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<trace::KernelTrace>();
    assert_send_sync::<config::GpuConfig>();
    // Errors cross the same thread boundaries as reports (the fault-tolerant
    // runner carries them through catch_unwind + channels).
    assert_send_sync::<SimError>();
    assert_send_sync::<error::CancelToken>();
};
