//! Differential equivalence harness: the event-driven fast-forward run loop
//! must be observably identical to the cycle-stepped oracle.
//!
//! Three layers of evidence:
//!
//! 1. property tests over random kernels × random machine geometries
//!    (SM counts, MSHR sizes, latencies, warp-buffer depths),
//! 2. the five golden workloads of `golden_reports.rs`, run in both modes,
//! 3. the full app × dataset × variant suite matrix (release builds only),
//!    both ways, which also locks the headline win: ≥ 6× fewer run-loop
//!    ticks (6.8× measured) — and the suite's HSU traces across the
//!    Fig. 11 warp-buffer sizes, where full-buffer dispatch stalls
//!    dominate.
//!
//! "Identical" means `SimReport::normalized()` equality — every
//! architectural counter bit for bit; only the `sched` scheduler counters
//! may (and should) differ between the modes. The release-only suite
//! tests also pin a digest of every normalized report, so a change to how
//! the simulator schedules its own work cannot move what it reports.

use hsu::prelude::*;
use hsu::sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_archive::fnv1a64;
use hsu_bench::Suite;
use proptest::prelude::*;
use std::fmt::Write;

/// FNV-1a 64 over the `Debug` text of every normalized report of `suite`,
/// in matrix order (each run's HSU, baseline and stripped variants).
fn reports_digest(suite: &Suite) -> u64 {
    let mut text = String::new();
    for run in &suite.runs {
        for report in [&run.hsu, &run.base, &run.stripped] {
            write!(text, "{:?}", report.normalized()).expect("writing to a String");
        }
    }
    fnv1a64(text.as_bytes())
}

/// Runs one kernel under both modes and checks full equivalence plus the
/// scheduler-accounting invariants.
fn assert_modes_agree(cfg: &GpuConfig, kernel: &KernelTrace) -> (SimReport, SimReport) {
    let stepped = Gpu::new(cfg.clone().with_sim_mode(SimMode::Stepped))
        .run(kernel)
        .expect("stepped run failed");
    let event = Gpu::new(cfg.clone().with_sim_mode(SimMode::Event))
        .run(kernel)
        .expect("event run failed");
    assert_eq!(
        stepped.normalized(),
        event.normalized(),
        "architectural counters diverged between modes"
    );
    // Stepped mode ticks every SM on every cycle and never skips.
    assert_eq!(
        stepped.sched.ticks_executed,
        stepped.cycles * stepped.num_sms as u64
    );
    assert_eq!(stepped.sched.cycles_skipped, 0);
    // Event mode accounts for each SM's every cycle exactly once.
    assert_eq!(
        event.sched.ticks_executed + event.sched.cycles_skipped,
        event.cycles * event.num_sms as u64
    );
    assert_eq!(
        event.sched.cycles_skipped,
        event.sched.skipped_on_memory + event.sched.skipped_on_timers
    );
    (stepped, event)
}

fn arb_op() -> impl Strategy<Value = ThreadOp> {
    prop_oneof![
        (1u32..16).prop_map(|count| ThreadOp::Alu { count }),
        (0u64..1 << 16, 1u32..128).prop_map(|(a, b)| ThreadOp::Load {
            addr: a * 8,
            bytes: b
        }),
        (0u64..1 << 16, 1u32..64).prop_map(|(a, b)| ThreadOp::Store {
            addr: a * 8,
            bytes: b
        }),
        (1u32..8).prop_map(|count| ThreadOp::Shared { count }),
        (0u64..1 << 12).prop_map(|n| ThreadOp::HsuRayIntersect {
            node_addr: n * 64,
            bytes: 64,
            triangle: n % 3 == 0,
        }),
        (0u64..1 << 12, 1u32..256).prop_map(|(a, d)| ThreadOp::HsuDistance {
            metric: if d % 2 == 0 {
                Metric::Euclidean
            } else {
                Metric::Angular
            },
            dim: d,
            candidate_addr: a * 4,
        }),
        (0u64..1 << 10, 1u32..256).prop_map(|(a, s)| ThreadOp::HsuKeyCompare {
            node_addr: a * 4,
            separators: s,
        }),
    ]
}

fn arb_kernel() -> impl Strategy<Value = KernelTrace> {
    prop::collection::vec(prop::collection::vec(arb_op(), 0..10), 1..80).prop_map(|threads| {
        let mut k = KernelTrace::builder("prop");
        for ops in threads {
            let mut t = ThreadTrace::new();
            for op in ops {
                t.push(op);
            }
            k.push_thread(t);
        }
        k.finish()
    })
}

/// Random machine geometries: every knob that shapes the event schedule —
/// SM/sub-core counts, residency, MSHR file sizes, all the fixed latencies,
/// DRAM banking/timing, and the HSU warp-buffer depth.
fn arb_config() -> impl Strategy<Value = GpuConfig> {
    (
        (1usize..4, 1usize..5, 2usize..17), // num_sms, sub_cores, max_warps
        (1u64..9, 1u64..33),                // alu_latency, shared_latency
        (1usize..33, 1u64..33, 1u64..91),   // l1_mshrs, l1_latency, l2_latency
        (1usize..3, 1usize..5),             // dram_channels, dram_banks
        (1u64..25, 2u64..49, 1u64..6),      // row hit/miss, transfer
        (1usize..9),                        // warp_buffer_entries
    )
        .prop_map(
            |(
                (num_sms, sub_cores, max_warps_per_sm),
                (alu_latency, shared_latency),
                (l1_mshrs, l1_latency, l2_latency),
                (dram_channels, dram_banks),
                (dram_row_hit_cycles, dram_row_miss_cycles, dram_transfer_cycles),
                warp_buffer_entries,
            )| {
                GpuConfig {
                    num_sms,
                    sub_cores,
                    max_warps_per_sm,
                    alu_latency,
                    shared_latency,
                    l1_mshrs,
                    l1_latency,
                    l2_latency,
                    dram_channels,
                    dram_banks,
                    dram_row_hit_cycles,
                    dram_row_miss_cycles: dram_row_miss_cycles.max(dram_row_hit_cycles),
                    dram_transfer_cycles,
                    ..GpuConfig::tiny()
                }
                .with_hsu(HsuConfig::default().with_warp_buffer(warp_buffer_entries))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: for ANY kernel on ANY machine, the
    /// event-driven loop reproduces the stepped oracle bit for bit.
    #[test]
    fn event_mode_is_equivalent_on_random_kernels_and_machines(
        kernel in arb_kernel(),
        cfg in arb_config(),
    ) {
        assert_modes_agree(&cfg, &kernel);
    }

    /// Event mode is not just equal but *cheaper*: it never executes more
    /// ticks than the oracle (skips are never negative, by construction,
    /// and conservativeness degrades to equality, never to extra work).
    #[test]
    fn event_mode_never_ticks_more_than_stepped(kernel in arb_kernel()) {
        let (stepped, event) = assert_modes_agree(&GpuConfig::tiny(), &kernel);
        prop_assert!(
            event.sched.ticks_executed <= stepped.sched.ticks_executed,
            "event {} ticks > stepped {}",
            event.sched.ticks_executed,
            stepped.sched.ticks_executed
        );
    }
}

/// The five golden workloads of `golden_reports.rs`, differentially.
#[test]
fn golden_workloads_are_mode_equivalent() {
    use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
    use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
    use hsu_kernels::flann::{FlannParams, FlannWorkload};
    use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
    use hsu_kernels::rtindex::{RtIndexParams, RtIndexWorkload};

    let seed = 7;
    let mut traces = Vec::new();
    let ggnn = GgnnWorkload::build(&GgnnParams {
        points: 600,
        dim: 32,
        queries: 16,
        k: 5,
        ef: 16,
        m: 8,
        seed,
        ..Default::default()
    });
    traces.push(("ggnn", ggnn.trace(Variant::Hsu)));
    let flann = FlannWorkload::build(&FlannParams {
        points: 800,
        queries: 32,
        k: 5,
        checks: 16,
        seed,
    });
    traces.push(("flann", flann.trace(Variant::Hsu)));
    let bvhnn = BvhnnWorkload::build(&BvhnnParams {
        points: 800,
        queries: 32,
        seed,
        ..Default::default()
    });
    traces.push(("bvhnn", bvhnn.trace(Variant::Hsu)));
    let btree = BtreeWorkload::build(&BtreeParams {
        keys: 2000,
        queries: 128,
        branch: 64,
        seed,
    });
    traces.push(("btree", btree.trace(Variant::Hsu)));
    let rtindex = RtIndexWorkload::build(&RtIndexParams {
        keys: 1024,
        lookups: 128,
        seed,
    });
    traces.push(("rtindex", rtindex.trace(Variant::Hsu)));

    for (name, trace) in &traces {
        let (_, event) = assert_modes_agree(&GpuConfig::tiny(), trace);
        assert!(
            event.sched.cycles_skipped > 0,
            "{name}: event mode found nothing to skip"
        );
    }
}

/// The full matrix, both modes, release builds only (full suite builds are
/// slow unoptimized). Also locks the headline: the event loop
/// executes at least 6× fewer ticks than the oracle across the whole suite.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full suite builds are slow unoptimized; run with --release"
)]
fn full_suite_matrix_is_mode_equivalent() {
    use hsu_bench::SuiteConfig;

    // The scheduler-bench machine (simbench's default): event-mode skipping
    // is per-SM, so the ≥ 6× tick lock below is a property of a realistic
    // SM count — at paper-adjacent sizes per-SM occupancy is spotty and the
    // event loop lets idle SMs sleep.
    let cfg = SuiteConfig {
        sms: 32,
        scale_divisor: 32,
        ..SuiteConfig::default()
    };
    let stepped = Suite::build(cfg.clone().with_sim_mode(SimMode::Stepped));
    let event = Suite::build(cfg.with_sim_mode(SimMode::Event));
    assert_eq!(stepped.runs.len(), event.runs.len());
    for (a, b) in stepped.runs.iter().zip(&event.runs) {
        assert_eq!(a.label, b.label, "matrix ordering drifted");
        for (variant, ra, rb) in [
            ("hsu", &a.hsu, &b.hsu),
            ("base", &a.base, &b.base),
            ("stripped", &a.stripped, &b.stripped),
        ] {
            assert_eq!(
                ra.normalized(),
                rb.normalized(),
                "{}/{variant} diverged between modes",
                a.label
            );
        }
    }
    assert_eq!(stepped.runs.len(), 21);
    assert_eq!(
        format!("{:#018x}", reports_digest(&event)),
        "0x032c6647bf1c78f2",
        "the 32-SM suite's normalized reports moved"
    );
    let stepped_ticks: u64 = stepped.records.iter().map(|r| r.ticks_executed).sum();
    let event_ticks: u64 = event.records.iter().map(|r| r.ticks_executed).sum();
    let reduction = stepped_ticks as f64 / event_ticks as f64;
    assert!(
        reduction >= 6.0,
        "event mode must execute >= 6x fewer ticks over the suite, got \
         {reduction:.2}x ({stepped_ticks} -> {event_ticks})"
    );
}

/// The figures' own 8-SM machine at 1/32 scale, event mode, release builds
/// only: the digest of its 63 normalized reports is pinned.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full suite builds are slow unoptimized; run with --release"
)]
fn figure_machine_reports_are_pinned() {
    use hsu_bench::SuiteConfig;

    let suite = Suite::build(SuiteConfig {
        scale_divisor: 32,
        ..SuiteConfig::default()
    });
    assert_eq!(suite.runs.len(), 21);
    assert_eq!(
        format!("{:#018x}", reports_digest(&suite)),
        "0xe843f50ad368f777",
        "the 8-SM suite's normalized reports moved"
    );
}

/// The suite's HSU traces across the Fig. 11 warp-buffer sweep, both modes,
/// release builds only. The matrix above runs only the default 8-entry
/// buffer; at 1–2 entries HSU warps queue behind a full buffer, which is
/// where the event loop sleeps through refused dispatches and replays
/// them in bulk.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full suite builds are slow unoptimized; run with --release"
)]
fn warp_buffer_sweep_is_mode_equivalent() {
    use hsu_bench::{ArchiveCache, SuiteConfig};

    let cfg = SuiteConfig {
        sms: 32,
        scale_divisor: 32,
        ..SuiteConfig::default()
    };
    let traces = Suite::prepare_traces(&cfg, &ArchiveCache::disabled());
    assert_eq!(traces.len(), 21, "the suite's HSU traces");
    for entries in [1, 2, 4, 8, 16] {
        let gpu = cfg
            .gpu_config()
            .with_hsu(HsuConfig::default().with_warp_buffer(entries));
        let mut stalls = 0;
        for at in &traces {
            let run = |mode| {
                Gpu::new(gpu.clone().with_sim_mode(mode))
                    .run(&at.hsu)
                    .expect("sweep run failed")
            };
            let (stepped, event) = (run(SimMode::Stepped), run(SimMode::Event));
            assert_eq!(
                stepped.normalized(),
                event.normalized(),
                "{} with a {entries}-entry buffer diverged between modes",
                at.label
            );
            stalls += event.rt.dispatch_stalls;
        }
        if entries == 1 {
            assert!(stalls > 0, "a 1-entry buffer must refuse dispatches");
        }
    }
}
