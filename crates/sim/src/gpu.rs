//! The top-level GPU: SMs + memory hierarchy + the simulation loops.

use crate::config::{GpuConfig, SimMode};
use crate::error::{DeadlockReport, RunLimits, SimError, WatchdogCause};
use crate::memory::MemorySystem;
use crate::sm::Sm;
use crate::stats::{SchedStats, SimReport};
use crate::trace::KernelTrace;
use std::time::Instant;

/// A configured GPU ready to execute kernel traces.
///
/// # Examples
///
/// ```
/// use hsu_sim::config::GpuConfig;
/// use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
/// use hsu_sim::Gpu;
///
/// let mut k = KernelTrace::builder("tiny");
/// let mut t = ThreadTrace::new();
/// t.push(ThreadOp::Alu { count: 1 });
/// k.push_thread(t);
/// let report = Gpu::new(GpuConfig::tiny()).run(&k.finish()).unwrap();
/// assert_eq!(report.warps_retired, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    cfg: GpuConfig,
}

impl Gpu {
    /// Creates a GPU with the given configuration.
    ///
    /// Construction is infallible; the configuration is validated by
    /// [`Gpu::run`] (see [`GpuConfig::validate`]), so a nonsense config
    /// surfaces as [`SimError::InvalidConfig`] at run time rather than a
    /// panic here.
    pub fn new(cfg: GpuConfig) -> Self {
        Gpu { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs one kernel to completion and returns its report.
    ///
    /// Warps are distributed round-robin across SMs (the grid-stride launch
    /// pattern all four workloads use). The simulation is deterministic, and
    /// every architectural counter in the report is identical under both
    /// [`SimMode`]s — only [`SimReport::sched`] records how time advanced.
    ///
    /// Under [`SimMode::Stepped`] the machine ticks on every cycle (the
    /// oracle loop). Under [`SimMode::Event`] the loop asks each component
    /// for the earliest cycle its state can change and jumps straight there
    /// — and within each visited cycle it ticks only the SMs that can
    /// observe it. The memory system ticks at every visited cycle and
    /// presents the L1 ports itself, so an SM sleeps until one of two
    /// wakeups: a completion it can observe is delivered to it
    /// ([`Sm::completion_wakes`]; the others are applied on delivery), or
    /// its own self-reported [`Sm::next_event`] cycle arrives. Every cycle
    /// an SM sleeps through is provably a no-op for what it can observe in
    /// the stepped machine — its warps are blocked on timers, busy issue
    /// slots, memory, or an RT unit that is draining its datapath or
    /// refusing dispatches into a full warp buffer — and is bulk-accounted
    /// on wakeup via [`Sm::fast_forward`], down to the dispatch stalls and
    /// the datapath's beats.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidConfig`] if the configuration fails
    ///   [`GpuConfig::validate`].
    /// - [`SimError::Deadlock`] if the kernel exceeds `cfg.max_cycles`. The
    ///   diagnostic payload is identical in both modes, including when event
    ///   mode proves the deadlock early (no component reports any future
    ///   event, or the next event lies beyond the guard).
    /// - [`SimError::IllegalDispatch`] if the trace routes an op to a unit
    ///   that cannot execute it (e.g. HSU ops on a baseline RT unit).
    pub fn run(&self, kernel: &KernelTrace) -> Result<SimReport, SimError> {
        self.run_guarded(kernel, &RunLimits::none())
    }

    /// Like [`Gpu::run`], with cooperative cancellation and a wall-clock
    /// deadline.
    ///
    /// The cancel token is checked every loop iteration (one relaxed atomic
    /// load); the deadline every 1024 iterations (so healthy runs do not
    /// pay a clock read per simulated event). Either trip returns
    /// [`SimError::Watchdog`] with the matching [`WatchdogCause`].
    ///
    /// # Errors
    ///
    /// Everything [`Gpu::run`] returns, plus [`SimError::Watchdog`].
    pub fn run_guarded(
        &self,
        kernel: &KernelTrace,
        limits: &RunLimits,
    ) -> Result<SimReport, SimError> {
        self.cfg.validate()?;
        let mut sms: Vec<Sm> = (0..self.cfg.num_sms)
            .map(|i| Sm::new(i, &self.cfg))
            .collect();
        let mut mem = MemorySystem::new(&self.cfg);

        for (i, warp) in kernel.warps().enumerate() {
            sms[i % self.cfg.num_sms].enqueue_warp(warp);
        }

        let event_mode = matches!(self.cfg.sim_mode, SimMode::Event);
        let num_sms = self.cfg.num_sms;
        let mut done = Vec::new();
        let mut sched = SchedStats::default();
        // Per-SM sleep state (event mode): the cycle each SM last ticked
        // (`u64::MAX` = never), its self-reported wakeup cycle, whether it
        // must tick at the cycle being visited, and whether a completion
        // (rather than its own timer) supplied that wakeup.
        let mut last_ticked: Vec<u64> = vec![u64::MAX; num_sms];
        let mut wake: Vec<Option<u64>> = vec![Some(0); num_sms];
        let mut active: Vec<bool> = vec![true; num_sms];
        let mut woken_by_mem: Vec<bool> = vec![false; num_sms];
        // Completions held back until their SM has replayed its sleep window.
        let mut deliver: Vec<(usize, u64)> = Vec::new();
        let mut now = 0u64;
        let mut iterations = 0u64;
        let cycles = loop {
            if let Some(token) = limits.cancel.as_ref() {
                if token.is_cancelled() {
                    return Err(self.watchdog(kernel, now, WatchdogCause::Cancelled));
                }
            }
            if let Some(deadline) = limits.deadline {
                if iterations & 1023 == 0 && Instant::now() >= deadline {
                    return Err(self.watchdog(kernel, now, WatchdogCause::Deadline));
                }
            }
            iterations += 1;
            done.clear();
            mem.tick(now, &mut done);
            if event_mode {
                // An SM must tick at `now` iff it can observe the cycle:
                // its own wakeup arrived, or a completion it can observe
                // is delivered to it.
                for i in 0..num_sms {
                    woken_by_mem[i] = false;
                    active[i] = wake[i].is_some_and(|t| t <= now);
                }
            }
            // A completion a sleeping SM cannot observe yet commutes with
            // its sleep window, so it is applied on the spot; every other
            // one wakes its SM and waits for the window's replay.
            deliver.clear();
            for &(sm, waiter) in &done {
                if !active[sm] && !sms[sm].completion_wakes(waiter) {
                    sms[sm].on_mem_done(waiter)?;
                } else {
                    active[sm] = true;
                    woken_by_mem[sm] = true;
                    deliver.push((sm, waiter));
                }
            }
            // Waking SMs first replay their sleep window in bulk, so the
            // per-cycle order of the stepped oracle (memory, completion
            // delivery, SM tick) is preserved for cycle `now` itself.
            for (i, sm) in sms.iter_mut().enumerate() {
                if !active[i] {
                    continue;
                }
                // A never-ticked SM (`u64::MAX`) slept from cycle 0.
                let start = last_ticked[i].wrapping_add(1);
                let slept = now - start;
                if slept > 0 {
                    sm.fast_forward(start, slept);
                    sched.cycles_skipped += slept;
                    if woken_by_mem[i] {
                        sched.skipped_on_memory += slept;
                    } else {
                        sched.skipped_on_timers += slept;
                    }
                }
            }
            for &(sm, waiter) in &deliver {
                sms[sm].on_mem_done(waiter)?;
            }
            for (i, sm) in sms.iter_mut().enumerate() {
                if !active[i] {
                    continue;
                }
                sm.tick(now, &mut mem)?;
                sched.ticks_executed += 1;
                last_ticked[i] = now;
                if event_mode {
                    wake[i] = sm.next_event(now);
                }
            }
            if sms.iter().all(|sm| sm.finished()) && mem.quiescent() {
                break now + 1;
            }
            if now + 1 == self.cfg.max_cycles {
                return Err(self.deadlock(kernel, &sms, &mem));
            }
            now = match self.cfg.sim_mode {
                SimMode::Stepped => now + 1,
                SimMode::Event => {
                    let mem_next = mem.next_event(now);
                    // Sleeping SMs' wakeups all lie in the future; SMs
                    // that ticked at `now` just refreshed theirs.
                    let sm_next = wake.iter().filter_map(|w| *w).min();
                    let next = match (mem_next, sm_next) {
                        (Some(a), Some(b)) => a.min(b),
                        (Some(a), None) | (None, Some(a)) => a,
                        // No component will ever change state again: a true
                        // deadlock, provable without grinding to the guard.
                        (None, None) => return Err(self.deadlock(kernel, &sms, &mem)),
                    };
                    debug_assert!(next > now, "next event must lie in the future");
                    // The stepped loop's final iteration runs at cycle
                    // max_cycles - 1 and trips the guard *after* ticking;
                    // jumping at or past the guard cycle deadlocks the
                    // same way.
                    if next >= self.cfg.max_cycles {
                        return Err(self.deadlock(kernel, &sms, &mem));
                    }
                    next
                }
            };
        };

        // SMs that went quiet before the machine drained still owe the
        // bulk accounting for their final sleep window (stepped mode ticks
        // every SM on every cycle, so this is a no-op there).
        for (i, sm) in sms.iter_mut().enumerate() {
            let start = last_ticked[i].wrapping_add(1);
            let slept = cycles - start;
            if slept > 0 {
                sm.fast_forward(start, slept);
                sched.cycles_skipped += slept;
                sched.skipped_on_timers += slept;
            }
        }

        let sm_stats: Vec<_> = sms.iter().map(|s| s.stats().clone()).collect();
        let rt_stats: Vec<_> = sms.iter().map(|s| s.rt_stats()).collect();
        let mut report = SimReport::aggregate(
            kernel.name().to_string(),
            cycles,
            self.cfg.num_sms,
            &sm_stats,
            &rt_stats,
            mem.stats(),
        );
        report.sched = sched;
        Ok(report)
    }

    /// Builds the deadlock diagnostic at the moment the guard trips.
    ///
    /// Every field of the snapshot is mode-invariant (see
    /// [`DeadlockReport`]): event mode may prove the guard crossing many
    /// cycles before the stepped oracle grinds to it, but during that gap
    /// no SM state, queue depth, or MSHR occupancy can change — that is
    /// exactly why the event loop was allowed to jump. Timer waits are the
    /// one exception (the stepped loop flips expired timers to `Ready`
    /// even when nothing can issue), which `Sm::deadlock_state` normalizes
    /// against the guard boundary.
    fn deadlock(&self, kernel: &KernelTrace, sms: &[Sm], mem: &MemorySystem) -> SimError {
        SimError::Deadlock(Box::new(DeadlockReport {
            kernel: kernel.name().to_string(),
            cycle: self.cfg.max_cycles,
            mem_quiescent: mem.quiescent(),
            per_sm: sms
                .iter()
                .map(|sm| sm.deadlock_state(self.cfg.max_cycles, mem))
                .collect(),
        }))
    }

    fn watchdog(&self, kernel: &KernelTrace, now: u64, cause: WatchdogCause) -> SimError {
        SimError::Watchdog {
            kernel: kernel.name().to_string(),
            cycles_simulated: now,
            cause,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ThreadOp, ThreadTrace};
    use hsu_geometry::point::Metric;

    fn kernel_of(n_threads: usize, ops: Vec<ThreadOp>) -> KernelTrace {
        let mut k = KernelTrace::builder("k");
        for _ in 0..n_threads {
            let mut t = ThreadTrace::new();
            for &op in &ops {
                t.push(op);
            }
            k.push_thread(t);
        }
        k.finish()
    }

    #[test]
    fn determinism() {
        let k = kernel_of(
            256,
            vec![
                ThreadOp::Load {
                    addr: 0x100,
                    bytes: 64,
                },
                ThreadOp::Alu { count: 8 },
                ThreadOp::HsuDistance {
                    metric: Metric::Euclidean,
                    dim: 32,
                    candidate_addr: 0x4000,
                },
            ],
        );
        let gpu = Gpu::new(GpuConfig::tiny());
        let a = gpu.run(&k).unwrap();
        let b = gpu.run(&k).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1_accesses(), b.l1_accesses());
    }

    #[test]
    fn work_scales_across_sms() {
        // Compute-bound kernel: scaling SMs must scale throughput.
        let k = kernel_of(32 * 64, vec![ThreadOp::Alu { count: 64 }]);
        let one = Gpu::new(GpuConfig {
            num_sms: 1,
            ..GpuConfig::tiny()
        })
        .run(&k)
        .unwrap();
        let four = Gpu::new(GpuConfig {
            num_sms: 4,
            ..GpuConfig::tiny()
        })
        .run(&k)
        .unwrap();
        assert!(
            (four.cycles as f64) < one.cycles as f64 * 0.4,
            "4 SMs {} vs 1 SM {}",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn hsu_offload_beats_simt_expansion_under_divergence() {
        // The paper's core mechanism: under thread divergence (sparse active
        // masks) the SIMT lowering of a 96-dim distance pays its full
        // instruction sequence for a handful of useful lanes, while the HSU's
        // single-lane pipeline only spends cycles on active lanes (§IV-B).
        // 2 of every 32 lanes are doing distance work this "iteration".
        let warps = 16u64;
        let dim = 96u32;
        let mut hsu = KernelTrace::builder("hsu");
        let mut base = KernelTrace::builder("base");
        for w in 0..warps {
            for lane in 0..32u64 {
                let active = lane % 16 == 0; // 2 active lanes per warp
                let cand = 0x10_0000 + (w * 32 + lane) * dim as u64 * 4;
                let mut th = ThreadTrace::new();
                let mut tb = ThreadTrace::new();
                if active {
                    th.push(ThreadOp::Shared { count: 4 });
                    th.push(ThreadOp::HsuDistance {
                        metric: Metric::Euclidean,
                        dim,
                        candidate_addr: cand,
                    });
                    th.push(ThreadOp::Shared { count: 4 });

                    tb.push(ThreadOp::Shared { count: 4 });
                    tb.push(ThreadOp::Load {
                        addr: cand,
                        bytes: dim * 4,
                    });
                    tb.push(ThreadOp::Alu { count: dim * 2 });
                    tb.push(ThreadOp::Shared { count: 4 });
                }
                hsu.push_thread(th);
                base.push_thread(tb);
            }
        }
        let hsu = hsu.finish();
        let base = base.finish();
        let gpu = Gpu::new(GpuConfig::tiny());
        let hsu_r = gpu.run(&hsu).unwrap();
        let base_r = gpu.run(&base).unwrap();
        assert!(
            hsu_r.cycles < base_r.cycles,
            "HSU {} cycles vs baseline {}",
            hsu_r.cycles,
            base_r.cycles
        );
        assert!(hsu_r.rt.isa_instructions > 0);
        // Both computed the same number of distances.
        assert_eq!(hsu_r.rt.warp_instructions, warps);
    }

    #[test]
    fn rt_cache_policies_execute_correctly() {
        use crate::config::RtCachePolicy;
        // An HSU-heavy kernel with heavy node reuse.
        let mut k = KernelTrace::builder("policy");
        for i in 0..256u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Load {
                addr: i * 128,
                bytes: 4,
            });
            t.push(ThreadOp::HsuRayIntersect {
                node_addr: (i % 8) * 64,
                bytes: 64,
                triangle: false,
            });
            k.push_thread(t);
        }
        let k = k.finish();
        let shared = Gpu::new(GpuConfig::tiny()).run(&k).unwrap();
        let private = Gpu::new(GpuConfig {
            rt_cache: RtCachePolicy::Private { bytes: 16 * 1024 },
            ..GpuConfig::tiny()
        })
        .run(&k)
        .unwrap();
        let bypass = Gpu::new(GpuConfig {
            rt_cache: RtCachePolicy::Bypass,
            ..GpuConfig::tiny()
        })
        .run(&k)
        .unwrap();
        // All three complete the same work.
        for r in [&shared, &private, &bypass] {
            assert_eq!(r.warps_retired, 8);
            assert_eq!(r.rt.isa_instructions, 256);
        }
        // Private/bypass keep RT traffic out of the L1 tag stats.
        assert!(private.memory.rt_cache.accesses() > 0);
        assert!(bypass.memory.rt_cache.accesses() > 0);
        assert_eq!(shared.memory.rt_cache.accesses(), 0);
        // The private cache captures node reuse; bypass mostly misses.
        assert!(private.memory.rt_cache.miss_rate() < bypass.memory.rt_cache.miss_rate());
    }

    #[test]
    fn event_mode_matches_stepped_oracle() {
        use crate::config::SimMode;
        // A mixed kernel exercising timers, loads, and the HSU path: both
        // modes must agree on every architectural counter, and event mode
        // must actually skip cycles to earn its keep.
        let k = kernel_of(
            128,
            vec![
                ThreadOp::Load {
                    addr: 0x2000,
                    bytes: 64,
                },
                ThreadOp::Alu { count: 12 },
                ThreadOp::HsuDistance {
                    metric: Metric::Euclidean,
                    dim: 32,
                    candidate_addr: 0x9000,
                },
                ThreadOp::Shared { count: 2 },
            ],
        );
        let stepped = Gpu::new(GpuConfig::tiny().with_sim_mode(SimMode::Stepped))
            .run(&k)
            .unwrap();
        let event = Gpu::new(GpuConfig::tiny().with_sim_mode(SimMode::Event))
            .run(&k)
            .unwrap();
        assert_eq!(stepped.normalized(), event.normalized());
        // Scheduler accounting invariants: each of an SM's cycles is either
        // ticked or fast-forwarded, exactly once.
        assert_eq!(
            stepped.sched.ticks_executed,
            stepped.cycles * stepped.num_sms as u64
        );
        assert_eq!(stepped.sched.cycles_skipped, 0);
        assert_eq!(
            event.sched.ticks_executed + event.sched.cycles_skipped,
            event.cycles * event.num_sms as u64
        );
        assert_eq!(
            event.sched.cycles_skipped,
            event.sched.skipped_on_memory + event.sched.skipped_on_timers
        );
        assert!(
            event.sched.cycles_skipped > 0,
            "a memory-latency-bound kernel must fast-forward"
        );
    }

    /// Runs `k` under both modes with the given guard and returns the two
    /// deadlock errors, asserting both guards fired with identical payloads.
    fn deadlock_of(k: &KernelTrace, max_cycles: u64) -> SimError {
        use crate::config::SimMode;
        let err_of = |mode: SimMode| -> SimError {
            let cfg = GpuConfig {
                max_cycles,
                ..GpuConfig::tiny()
            }
            .with_sim_mode(mode);
            Gpu::new(cfg).run(k).expect_err("guard must fire")
        };
        let stepped = err_of(SimMode::Stepped);
        let event = err_of(SimMode::Event);
        assert_eq!(
            stepped, event,
            "deadlock payloads diverged between stepped and event modes"
        );
        assert!(matches!(stepped, SimError::Deadlock(_)));
        stepped
    }

    #[test]
    fn deadlock_guard_fires_identically_in_both_modes() {
        // A kernel whose ALU run wakes up far beyond max_cycles: the stepped
        // loop grinds to the guard, the event loop proves the overrun when
        // the only future event lies past it (the gpu.rs `next >= max_cycles`
        // jump-past-guard branch). Same typed error, same diagnostic payload.
        // (Two classes so the trace keeps a second instruction pending — a
        // warp stalled on its *last* instruction retires immediately.)
        let k = kernel_of(
            32,
            vec![
                ThreadOp::Alu { count: 1_000 },
                ThreadOp::Shared { count: 1 },
            ],
        );
        let err = deadlock_of(&k, 500);
        let SimError::Deadlock(report) = err else {
            unreachable!()
        };
        assert_eq!(report.kernel, "k");
        assert_eq!(report.cycle, 500);
        assert!(report.mem_quiescent, "pure ALU kernel never touches memory");
        assert_eq!(report.per_sm.len(), 1);
        let sm = &report.per_sm[0];
        // 32 threads = 1 warp, stalled on a timer past the guard after
        // issuing its ALU run on cycle 0.
        assert_eq!(sm.resident, 1);
        assert_eq!(sm.waiting_timer, 1);
        assert_eq!(sm.last_issue_cycle, Some(0));
        assert_eq!(sm.warps_retired, 0);
        // The old guard wording survives in the rendered diagnostic.
        let text = SimError::Deadlock(report).to_string();
        assert!(text.contains("kernel 'k' exceeded the 500-cycle guard"));
    }

    #[test]
    fn deadlock_with_memory_in_flight_reports_identical_payloads() {
        // A guard so tight the first load cannot complete: event mode jumps
        // past the guard while a memory event is still pending (mem_next >=
        // max_cycles), the stepped oracle grinds to it cycle by cycle. The
        // snapshot must agree anyway — including MSHR occupancy and the
        // memory-quiescence bit.
        let k = kernel_of(
            32,
            vec![
                ThreadOp::Load {
                    addr: 0x4000,
                    bytes: 64,
                },
                ThreadOp::Alu { count: 1 },
            ],
        );
        let SimError::Deadlock(report) = deadlock_of(&k, 4) else {
            unreachable!()
        };
        assert!(!report.mem_quiescent, "the load must still be in flight");
        let sm = &report.per_sm[0];
        assert_eq!(sm.waiting_mem, 1);
        assert_eq!(sm.mshrs_in_flight, 1);
        assert_eq!(sm.last_issue_cycle, Some(0));
    }

    #[test]
    fn deadlock_at_exact_guard_boundary_is_mode_invariant() {
        // Sweep guards around an ALU run's wakeup so one of them lands
        // exactly on the `now + 1 == max_cycles` boundary that the stepped
        // loop checks *after* ticking and the event loop may jump straight
        // past. Both modes must agree on completion vs deadlock at every
        // guard value, with equal payloads whenever they deadlock.
        use crate::config::SimMode;
        let k = kernel_of(
            32,
            vec![ThreadOp::Alu { count: 8 }, ThreadOp::Shared { count: 1 }],
        );
        let run = |mode: SimMode, max_cycles: u64| {
            let cfg = GpuConfig {
                max_cycles,
                ..GpuConfig::tiny()
            }
            .with_sim_mode(mode);
            Gpu::new(cfg).run(&k)
        };
        let unguarded = run(SimMode::Event, 1_000_000).unwrap();
        let finish = unguarded.cycles;
        let mut saw_deadlock = false;
        for guard in finish.saturating_sub(3)..finish + 3 {
            let stepped = run(SimMode::Stepped, guard);
            let event = run(SimMode::Event, guard);
            assert_eq!(
                stepped.is_ok(),
                event.is_ok(),
                "modes disagree on guard {guard} (finish {finish})"
            );
            match (stepped, event) {
                (Ok(a), Ok(b)) => assert_eq!(a.normalized(), b.normalized()),
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "payloads diverged at guard {guard}");
                    saw_deadlock = true;
                }
                _ => unreachable!(),
            }
        }
        assert!(saw_deadlock, "sweep never crossed the guard boundary");
    }

    #[test]
    fn watchdog_cancellation_and_deadline_stop_the_run() {
        use crate::error::{CancelToken, WatchdogCause};
        use std::time::Duration;
        let k = kernel_of(64, vec![ThreadOp::Alu { count: 100 }]);
        let gpu = Gpu::new(GpuConfig::tiny());

        let token = CancelToken::new();
        token.cancel();
        let err = gpu
            .run_guarded(&k, &RunLimits::none().with_cancel(token))
            .expect_err("pre-cancelled run must stop");
        assert!(matches!(
            err,
            SimError::Watchdog {
                cause: WatchdogCause::Cancelled,
                ..
            }
        ));

        let past = Instant::now() - Duration::from_millis(1);
        let err = gpu
            .run_guarded(&k, &RunLimits::none().with_deadline(past))
            .expect_err("expired deadline must stop the run");
        assert!(matches!(
            err,
            SimError::Watchdog {
                cause: WatchdogCause::Deadline,
                ..
            }
        ));

        // A generous deadline and a live token leave the run untouched.
        let report = gpu
            .run_guarded(
                &k,
                &RunLimits::none()
                    .with_cancel(CancelToken::new())
                    .with_deadline(Instant::now() + Duration::from_secs(600)),
            )
            .unwrap();
        assert_eq!(report.normalized(), gpu.run(&k).unwrap().normalized());
    }

    #[test]
    fn invalid_config_is_rejected_before_simulating() {
        let k = kernel_of(32, vec![ThreadOp::Alu { count: 1 }]);
        let err = Gpu::new(GpuConfig {
            num_sms: 0,
            ..GpuConfig::tiny()
        })
        .run(&k)
        .expect_err("zero SMs must be rejected");
        assert!(matches!(
            err,
            SimError::InvalidConfig {
                field: "num_sms",
                ..
            }
        ));
    }

    #[test]
    fn report_exposes_memory_behaviour() {
        let mut k = KernelTrace::builder("mem");
        for i in 0..512u64 {
            let mut t = ThreadTrace::new();
            // Same line for everyone: high hit rate after the first warp.
            t.push(ThreadOp::Load {
                addr: 0x8000,
                bytes: 4,
            });
            t.push(ThreadOp::Load {
                addr: i * 128,
                bytes: 4,
            });
            k.push_thread(t);
        }
        let k = k.finish();
        let r = Gpu::new(GpuConfig::tiny()).run(&k).unwrap();
        assert!(r.l1_accesses() > 0);
        assert!(r.l1_miss_rate() > 0.0 && r.l1_miss_rate() < 1.0);
        assert!(r.memory.dram.accesses > 0);
        assert!(r.row_locality() >= 1.0);
    }
}
