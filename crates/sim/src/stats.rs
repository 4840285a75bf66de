//! Aggregated simulation reports and derived paper metrics.

use crate::memory::MemoryStats;
use crate::rt_unit::RtUnitStats;
use crate::sm::SmStats;
use crate::trace::OpClass;

/// How the run loop spent simulated time — the observability counters for
/// the event-driven scheduler.
///
/// These are *scheduler* statistics, not architectural ones: they differ
/// between [`crate::config::SimMode`]s by design (that is the entire win),
/// while every other [`SimReport`] field is mode-invariant. The equivalence
/// harness compares reports with `sched` normalized to default; everything
/// else must match bit for bit.
///
/// Counting is per SM: each SM contributes one tick *or* one skipped cycle
/// for every simulated cycle, so for a completed run `ticks_executed +
/// cycles_skipped == SimReport::cycles * num_sms` and `cycles_skipped ==
/// skipped_on_memory + skipped_on_timers`. Stepped mode ticks every SM on
/// every cycle (`ticks_executed == cycles * num_sms`, nothing skipped);
/// event mode lets each SM sleep independently until a completion it can
/// observe or its own self-reported wakeup cycle arrives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// SM ticks actually executed (the unit of simulation work).
    pub ticks_executed: u64,
    /// Per-SM cycles fast-forwarded past because that SM could not change
    /// state.
    pub cycles_skipped: u64,
    /// Skipped SM-cycles spent waiting on the memory hierarchy (a
    /// completion the SM can observe supplied the wakeup).
    pub skipped_on_memory: u64,
    /// Skipped SM-cycles whose wakeup the SM's own `next_event` supplied:
    /// fixed-latency timers (ALU/shared latency) and RT-unit writebacks,
    /// including each SM's idle tail after it drains but before the
    /// machine-wide finish.
    pub skipped_on_timers: u64,
}

/// The result of simulating one kernel trace.
///
/// `PartialEq`/`Eq` compare every counter bit-for-bit — the
/// determinism-under-parallelism tests rely on this to assert that reports
/// are identical for any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Kernel name.
    pub kernel: String,
    /// Total cycles until the machine drained.
    pub cycles: u64,
    /// Warp instructions issued per class, summed over SMs.
    pub issued: [u64; 7],
    /// Weighted (expanded) instruction counts per class.
    pub issued_weighted: [u64; 7],
    /// Warps retired.
    pub warps_retired: u64,
    /// Combined RT/HSU-unit statistics (summed over SMs; occupancy averaged).
    pub rt: RtUnitStats,
    /// Memory-system statistics.
    pub memory: MemoryStats,
    /// Number of SMs simulated.
    pub num_sms: usize,
    /// Run-loop scheduler counters (the only mode-dependent field; see
    /// [`SchedStats`]).
    pub sched: SchedStats,
}

impl SimReport {
    /// Builds a report from per-SM pieces.
    pub fn aggregate(
        kernel: String,
        cycles: u64,
        num_sms: usize,
        sm_stats: &[SmStats],
        rt_stats: &[RtUnitStats],
        memory: MemoryStats,
    ) -> Self {
        let mut issued = [0u64; 7];
        let mut issued_weighted = [0u64; 7];
        let mut warps_retired = 0;
        for s in sm_stats {
            for i in 0..7 {
                issued[i] += s.issued[i];
                issued_weighted[i] += s.issued_weighted[i];
            }
            warps_retired += s.warps_retired;
        }
        let mut rt = RtUnitStats::default();
        for r in rt_stats {
            rt.warp_instructions += r.warp_instructions;
            rt.isa_instructions += r.isa_instructions;
            rt.occupancy_sum += r.occupancy_sum;
            rt.occupancy_peak = rt.occupancy_peak.max(r.occupancy_peak);
            rt.cycles += r.cycles;
            rt.dispatch_stalls += r.dispatch_stalls;
            rt.pipeline.cycles += r.pipeline.cycles;
            rt.pipeline.issue_busy_cycles += r.pipeline.issue_busy_cycles;
            for i in 0..5 {
                rt.pipeline.issued[i] += r.pipeline.issued[i];
                rt.pipeline.completed[i] += r.pipeline.completed[i];
            }
        }
        SimReport {
            kernel,
            cycles,
            issued,
            issued_weighted,
            warps_retired,
            rt,
            memory,
            num_sms,
            sched: SchedStats::default(),
        }
    }

    /// A copy with [`SchedStats`] zeroed — the mode-invariant projection the
    /// differential equivalence tests compare. Two runs of the same kernel
    /// in different [`crate::config::SimMode`]s must satisfy
    /// `a.normalized() == b.normalized()`.
    pub fn normalized(&self) -> SimReport {
        let mut r = self.clone();
        r.sched = SchedStats::default();
        r
    }

    /// HSU operations completed per cycle *per unit* — the paper's roofline
    /// performance axis (§VI-B), bounded above by 1.
    pub fn hsu_ops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.rt.pipeline.total_completed() as f64 / (self.cycles * self.num_sms as u64) as f64
    }

    /// HSU operations per L2 cache-line access — the roofline's operational
    /// intensity axis.
    pub fn operational_intensity(&self) -> f64 {
        let l2 = self.memory.l2.accesses();
        if l2 == 0 {
            0.0
        } else {
            self.rt.pipeline.total_completed() as f64 / l2 as f64
        }
    }

    /// Total L1 data-cache accesses (LSU + RT), Fig. 12's numerator.
    pub fn l1_accesses(&self) -> u64 {
        self.memory.l1_lsu_accesses + self.memory.l1_rt_accesses
    }

    /// L1 miss rate with MSHR merges counted as hits (Fig. 13).
    pub fn l1_miss_rate(&self) -> f64 {
        self.memory.l1.miss_rate()
    }

    /// DRAM row locality (Fig. 14).
    pub fn row_locality(&self) -> f64 {
        self.memory.dram.row_locality()
    }

    /// Highest warp-buffer occupancy any RT/HSU unit reached in any cycle —
    /// the suite runner's observability tables report this to show how much
    /// of the Fig. 11 buffering capacity a workload actually exercises.
    pub fn peak_warp_buffer_occupancy(&self) -> u64 {
        self.rt.occupancy_peak
    }

    /// Speedup of this run relative to `baseline`.
    ///
    /// # Panics
    ///
    /// Panics if this run took zero cycles.
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        assert!(self.cycles > 0, "zero-cycle run");
        baseline.cycles as f64 / self.cycles as f64
    }

    /// One-line summary used by the harness.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} cycles, {} warps, hsu-ops/cyc {:.3}, L1 {} accesses ({:.1}% miss), row-loc {:.1}",
            self.kernel,
            self.cycles,
            self.warps_retired,
            self.hsu_ops_per_cycle(),
            self.l1_accesses(),
            self.l1_miss_rate() * 100.0,
            self.row_locality(),
        )
    }

    /// Weighted instruction count for one class.
    pub fn weighted(&self, class: OpClass) -> u64 {
        self.issued_weighted[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report(cycles: u64) -> SimReport {
        SimReport::aggregate(
            "t".into(),
            cycles,
            2,
            &[SmStats::default()],
            &[RtUnitStats::default()],
            MemoryStats::default(),
        )
    }

    #[test]
    fn aggregation_sums() {
        let mut a = SmStats::default();
        a.issued[0] = 3;
        a.issued_weighted[0] = 30;
        a.warps_retired = 2;
        let mut b = SmStats::default();
        b.issued[0] = 4;
        b.issued_weighted[0] = 40;
        b.warps_retired = 5;
        let r = SimReport::aggregate("k".into(), 100, 2, &[a, b], &[], MemoryStats::default());
        assert_eq!(r.issued[0], 7);
        assert_eq!(r.issued_weighted[0], 70);
        assert_eq!(r.warps_retired, 7);
        assert_eq!(r.weighted(OpClass::Alu), 70);
    }

    #[test]
    fn speedup_math() {
        let base = empty_report(200);
        let fast = empty_report(100);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.speedup_over(&fast) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_erases_only_sched() {
        let mut a = empty_report(100);
        let mut b = empty_report(100);
        a.sched = SchedStats {
            ticks_executed: 10,
            cycles_skipped: 90,
            skipped_on_memory: 70,
            skipped_on_timers: 20,
        };
        b.sched = SchedStats {
            ticks_executed: 100,
            ..SchedStats::default()
        };
        assert_ne!(a, b, "sched differences are visible in full equality");
        assert_eq!(a.normalized(), b.normalized());
        // Normalizing must not touch architectural counters.
        b.cycles += 1;
        assert_ne!(a.normalized(), b.normalized());
    }

    #[test]
    fn derived_metrics_handle_zero() {
        let r = empty_report(0);
        assert_eq!(r.hsu_ops_per_cycle(), 0.0);
        assert_eq!(r.operational_intensity(), 0.0);
        assert_eq!(r.l1_miss_rate(), 0.0);
        assert_eq!(r.row_locality(), 0.0);
        assert!(!r.summary().is_empty());
    }
}
