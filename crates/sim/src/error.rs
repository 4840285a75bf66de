//! Typed error taxonomy for the simulation path.
//!
//! Every user-reachable failure mode of the simulator surfaces as a
//! [`SimError`] instead of a panic: malformed traces, nonsense configs,
//! illegal op dispatch, exceeded deadlock guards, and cooperative watchdog
//! aborts. The deadlock variant carries a full per-SM diagnostic snapshot
//! ([`DeadlockReport`]) so a stuck run is actionable data, not a bare
//! message.
//!
//! Internal invariants (e.g. a warp-buffer entry without an owner) remain
//! `unreachable!` panics: they indicate simulator bugs, not bad input, and
//! the fault-injection harness (`faults.rs`) asserts they cannot be reached
//! from corrupted inputs.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a simulation failed. See the module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel exceeded its cycle guard without completing. Boxed: the
    /// diagnostic snapshot is large and errors travel by value.
    Deadlock(Box<DeadlockReport>),
    /// A trace byte stream failed to decode (bad magic/version/tag,
    /// truncation, or an implausible length field).
    TraceDecode {
        /// Human-readable description of the decode failure.
        detail: String,
    },
    /// A [`GpuConfig`](crate::config::GpuConfig) field is out of range.
    InvalidConfig {
        /// The offending field, as named in `GpuConfig`.
        field: &'static str,
        /// The rejected value, rendered.
        value: String,
        /// Why the value is rejected.
        reason: &'static str,
    },
    /// The run was stopped by a cooperative watchdog (wall-clock deadline
    /// or external cancellation), not by the simulated machine.
    Watchdog {
        /// Name of the kernel that was aborted.
        kernel: String,
        /// How many cycles had been simulated when the watchdog fired.
        cycles_simulated: u64,
        /// What tripped the watchdog.
        cause: WatchdogCause,
    },
    /// An instruction was routed to a unit that cannot execute it (e.g. an
    /// HSU op reaching a baseline RT unit, or a completion delivered to a
    /// warp that was not waiting for one).
    IllegalDispatch {
        /// Human-readable description of the dispatch violation.
        detail: String,
    },
    /// An I/O error outside the decode path (opening, reading, or writing
    /// trace/report files).
    Io {
        /// What was being done when the error occurred (usually a path).
        context: String,
        /// The underlying OS error, rendered.
        detail: String,
    },
}

/// What tripped a [`SimError::Watchdog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogCause {
    /// A [`CancelToken`] observed by the run was cancelled.
    Cancelled,
    /// The wall-clock deadline in [`RunLimits::deadline`] passed.
    Deadline,
}

impl SimError {
    /// Wraps an I/O error, mapping decode-shaped failures
    /// (`InvalidData`/`UnexpectedEof`) to [`SimError::TraceDecode`] and
    /// everything else to [`SimError::Io`].
    pub fn from_io(context: impl Into<String>, err: std::io::Error) -> Self {
        match err.kind() {
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => {
                SimError::TraceDecode {
                    detail: format!("{}: {err}", context.into()),
                }
            }
            _ => SimError::Io {
                context: context.into(),
                detail: err.to_string(),
            },
        }
    }

    /// Lifts a typed archive failure into the simulator's taxonomy: OS-level
    /// failures stay [`SimError::Io`]; every corruption class (bad magic,
    /// version skew, truncation, checksum or key mismatches, malformed
    /// payloads) is data that cannot be decoded, i.e.
    /// [`SimError::TraceDecode`] — the same split [`SimError::from_io`]
    /// applies to the raw `.hsut` stream.
    pub fn from_archive(context: impl Into<String>, err: hsu_archive::ArchiveError) -> Self {
        match err {
            hsu_archive::ArchiveError::Io { context: c, detail } => SimError::Io {
                context: format!("{}: {c}", context.into()),
                detail,
            },
            other => SimError::TraceDecode {
                detail: format!("{}: {other}", context.into()),
            },
        }
    }

    /// Short lowercase tag for the variant, for status tables and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock(_) => "deadlock",
            SimError::TraceDecode { .. } => "trace-decode",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::Watchdog { .. } => "watchdog",
            SimError::IllegalDispatch { .. } => "illegal-dispatch",
            SimError::Io { .. } => "io",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(report) => write!(f, "{report}"),
            SimError::TraceDecode { detail } => write!(f, "trace decode failed: {detail}"),
            SimError::InvalidConfig {
                field,
                value,
                reason,
            } => write!(f, "invalid config: {field} = {value} ({reason})"),
            SimError::Watchdog {
                kernel,
                cycles_simulated,
                cause,
            } => {
                let cause = match cause {
                    WatchdogCause::Cancelled => "cancelled",
                    WatchdogCause::Deadline => "wall-clock deadline exceeded",
                };
                write!(
                    f,
                    "watchdog stopped kernel '{kernel}' after {cycles_simulated} \
                     simulated cycles: {cause}"
                )
            }
            SimError::IllegalDispatch { detail } => write!(f, "illegal dispatch: {detail}"),
            SimError::Io { context, detail } => write!(f, "io error ({context}): {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Diagnostic payload of [`SimError::Deadlock`]: what every SM was doing
/// when the run hit its cycle guard.
///
/// Every field is *mode-invariant*: a deadlocked kernel produces an
/// identical report under `SimMode::Stepped` and `SimMode::Event`, even
/// though event mode may detect the guard crossing early (before grinding
/// cycle by cycle up to the boundary). That property is pinned by
/// regression tests in `gpu.rs` and `tests/fault_injection.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Name of the kernel that deadlocked.
    pub kernel: String,
    /// The guard boundary (`GpuConfig::max_cycles`) the kernel failed to
    /// finish within.
    pub cycle: u64,
    /// Whether the memory hierarchy had drained (a deadlock with quiescent
    /// memory points at the SMs; one with in-flight memory points at the
    /// guard being too tight for the access latencies).
    pub mem_quiescent: bool,
    /// Per-SM stall snapshot, indexed by SM.
    pub per_sm: Vec<SmDeadlockState>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The first line intentionally preserves the wording of the old
        // deadlock-guard panic message.
        writeln!(
            f,
            "kernel '{}' exceeded the {}-cycle guard (memory {}):",
            self.kernel,
            self.cycle,
            if self.mem_quiescent {
                "quiescent"
            } else {
                "in flight"
            }
        )?;
        for sm in &self.per_sm {
            writeln!(f, "  {sm}")?;
        }
        write!(
            f,
            "  hint: raise GpuConfig::max_cycles if the workload is simply \
             long; a stuck last-issue cycle far below the guard indicates a \
             genuine stall"
        )
    }
}

/// One SM's stall snapshot inside a [`DeadlockReport`].
///
/// Warp counts classify every resident warp; queue depths and occupancies
/// capture where work is parked. `last_issue_cycle` is the last cycle at
/// which this SM issued any instruction (`None` if it never issued) — the
/// "last progress" marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmDeadlockState {
    /// SM index.
    pub sm: usize,
    /// Resident (non-`Finished`) warps.
    pub resident: usize,
    /// Warps ready to issue (includes timer waits that expire before the
    /// guard boundary — see `Sm::deadlock_state` for the normalization).
    pub ready: usize,
    /// Warps waiting on a timer that expires at or beyond the guard.
    pub waiting_timer: usize,
    /// Warps waiting on a memory response.
    pub waiting_mem: usize,
    /// Warps waiting on the HSU/RT unit.
    pub waiting_hsu: usize,
    /// Warps that retired all their instructions.
    pub finished: usize,
    /// Warps still queued for a resident slot.
    pub launch_queue: usize,
    /// Load lines waiting at the SM's L1 port, not yet accepted.
    pub lsu_queue: usize,
    /// RT-unit fetches waiting in the port's fetch FIFO.
    pub rt_fifo: usize,
    /// Occupied RT warp-buffer entries.
    pub warp_buffer_occupancy: usize,
    /// L1 MSHRs with misses in flight for this SM.
    pub mshrs_in_flight: usize,
    /// Warps retired so far.
    pub warps_retired: u64,
    /// Last cycle this SM issued any instruction.
    pub last_issue_cycle: Option<u64>,
}

impl fmt::Display for SmDeadlockState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sm{}: warps {} resident ({} ready, {} timer, {} mem, {} hsu), \
             {} finished, {} queued; lsu-q {}, rt-fifo {}, warp-buffer {}, \
             mshrs {}; retired {}, last issue {}",
            self.sm,
            self.resident,
            self.ready,
            self.waiting_timer,
            self.waiting_mem,
            self.waiting_hsu,
            self.finished,
            self.launch_queue,
            self.lsu_queue,
            self.rt_fifo,
            self.warp_buffer_occupancy,
            self.mshrs_in_flight,
            self.warps_retired,
            match self.last_issue_cycle {
                Some(c) => c.to_string(),
                None => "never".to_string(),
            }
        )
    }
}

/// Shared flag for cooperatively cancelling an in-flight simulation.
///
/// Clone the token, hand one clone to [`Gpu::run_guarded`] via
/// [`RunLimits`], and call [`CancelToken::cancel`] from any thread; the run
/// loop checks the flag every iteration and returns
/// [`SimError::Watchdog`] with [`WatchdogCause::Cancelled`].
///
/// [`Gpu::run_guarded`]: crate::Gpu::run_guarded
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Cooperative limits on a single simulation run.
///
/// Both limits are optional; [`RunLimits::default`] imposes none, making
/// `run_guarded(kernel, &RunLimits::default())` equivalent to `run(kernel)`.
#[derive(Debug, Clone, Default)]
pub struct RunLimits {
    /// Checked every run-loop iteration (a relaxed atomic load).
    pub cancel: Option<CancelToken>,
    /// Wall-clock deadline, checked every 1024 iterations (so healthy runs
    /// do not pay a syscall per simulated event).
    pub deadline: Option<Instant>,
}

impl RunLimits {
    /// No limits: run to completion or the cycle guard.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Adds a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn from_io_maps_decode_kinds_to_trace_decode() {
        use std::io::{Error, ErrorKind};
        let e = SimError::from_io("t.hsut", Error::new(ErrorKind::InvalidData, "bad tag"));
        assert!(matches!(e, SimError::TraceDecode { .. }));
        let e = SimError::from_io("t.hsut", Error::new(ErrorKind::PermissionDenied, "nope"));
        assert!(matches!(e, SimError::Io { .. }));
        assert_eq!(e.kind(), "io");
    }

    #[test]
    fn deadlock_display_preserves_guard_wording_and_lists_sms() {
        let report = DeadlockReport {
            kernel: "k".into(),
            cycle: 500,
            mem_quiescent: true,
            per_sm: vec![SmDeadlockState {
                sm: 0,
                resident: 1,
                ready: 0,
                waiting_timer: 1,
                waiting_mem: 0,
                waiting_hsu: 0,
                finished: 0,
                launch_queue: 0,
                lsu_queue: 0,
                rt_fifo: 0,
                warp_buffer_occupancy: 0,
                mshrs_in_flight: 0,
                warps_retired: 0,
                last_issue_cycle: Some(0),
            }],
        };
        let text = SimError::Deadlock(Box::new(report)).to_string();
        assert!(text.contains("kernel 'k' exceeded the 500-cycle guard"));
        assert!(text.contains("sm0:"));
        assert!(text.contains("last issue 0"));
    }
}
