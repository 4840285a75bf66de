//! Golden-report snapshot tests: determinism locks on the simulator.
//!
//! One small workload per application is built with a fixed seed and
//! simulated on `GpuConfig::tiny()`; the exact values of the headline
//! `SimReport` counters are compared against the constants below. Any
//! drift in workload construction, trace lowering, or the timing model
//! shows up here as an exact-integer diff.
//!
//! Re-blessing: if a change is *intended* to alter simulation results
//! (e.g. a timing-model fix), regenerate the constants with
//!
//! ```text
//! cargo test --release --test golden_reports -- --ignored --nocapture bless
//! ```
//!
//! paste the printed `GOLDENS` table over the one below, and explain the
//! semantic cause of the drift in the commit message. The values are also
//! tied to the vendored RNG stand-ins (vendor/README.md): swapping in
//! crates.io `rand` changes workload streams and requires the same
//! re-bless.

use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
use hsu_kernels::flann::{FlannParams, FlannWorkload};
use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
use hsu_kernels::rtindex::{RtIndexParams, RtIndexWorkload};
use hsu_kernels::Variant;
use hsu_sim::config::GpuConfig;
use hsu_sim::{Gpu, SimReport};

/// The locked seed. Everything here derives from it and the fixed sizes.
const SEED: u64 = 7;

/// Snapshotted counters for one (workload, variant) pair.
///
/// `cycles` through `dram_activations` are architectural and must be
/// identical in both simulation modes — the suite runs under the default
/// (event-driven) mode, so these constants double as the proof that
/// fast-forwarding preserves the stepped oracle's results.
/// `ticks_executed`/`cycles_skipped` snapshot the event-mode scheduler:
/// they satisfy `ticks_executed + cycles_skipped == cycles * num_sms` (one
/// tick or one skip per SM per cycle) and lock the fast-forward win itself
/// against regressions.
#[derive(Debug)]
struct Golden {
    name: &'static str,
    cycles: u64,
    /// Warp instructions issued per op class (the 7 `OpClass` slots).
    issued: [u64; 7],
    l1_accesses: u64,
    l1_misses: u64,
    dram_activations: u64,
    ticks_executed: u64,
    cycles_skipped: u64,
}

/// Golden constants for the current simulator + vendored RNG tree.
/// Regenerate with the `bless` test above — do not hand-edit numbers.
#[rustfmt::skip]
const GOLDENS: &[Golden] = &[
    Golden { name: "ggnn/hsu", cycles: 14848, issued: [240, 714, 0, 776, 0, 391, 0], l1_accesses: 2472, l1_misses: 643, dram_activations: 340, ticks_executed: 2519, cycles_skipped: 12329 },
    Golden { name: "flann/hsu", cycles: 23313, issued: [125, 110, 18, 96, 0, 102, 0], l1_accesses: 1333, l1_misses: 157, dram_activations: 37, ticks_executed: 553, cycles_skipped: 22760 },
    Golden { name: "bvhnn/hsu", cycles: 67849, issued: [333, 0, 25, 166, 161, 138, 0], l1_accesses: 2812, l1_misses: 1015, dram_activations: 288, ticks_executed: 1122, cycles_skipped: 66727 },
    Golden { name: "btree/hsu", cycles: 1244, issued: [16, 4, 4, 0, 0, 0, 8], l1_accesses: 298, l1_misses: 93, dram_activations: 13, ticks_executed: 34, cycles_skipped: 1210 },
    Golden { name: "rtindex/hsu", cycles: 6676, issued: [112, 0, 20, 54, 50, 0, 20], l1_accesses: 825, l1_misses: 392, dram_activations: 264, ticks_executed: 280, cycles_skipped: 6396 },
];

/// Builds and simulates the five locked cases, in `GOLDENS` order.
fn simulate_cases() -> Vec<(&'static str, SimReport)> {
    let gpu = Gpu::new(GpuConfig::tiny());
    let mut out = Vec::new();

    let ggnn = GgnnWorkload::build(&GgnnParams {
        points: 600,
        dim: 32,
        queries: 16,
        k: 5,
        ef: 16,
        m: 8,
        seed: SEED,
        ..Default::default()
    });
    out.push(("ggnn/hsu", gpu.run(&ggnn.trace(Variant::Hsu)).unwrap()));

    let flann = FlannWorkload::build(&FlannParams {
        points: 800,
        queries: 32,
        k: 5,
        checks: 16,
        seed: SEED,
    });
    out.push(("flann/hsu", gpu.run(&flann.trace(Variant::Hsu)).unwrap()));

    let bvhnn = BvhnnWorkload::build(&BvhnnParams {
        points: 800,
        queries: 32,
        seed: SEED,
        ..Default::default()
    });
    out.push(("bvhnn/hsu", gpu.run(&bvhnn.trace(Variant::Hsu)).unwrap()));

    let btree = BtreeWorkload::build(&BtreeParams {
        keys: 2000,
        queries: 128,
        branch: 64,
        seed: SEED,
    });
    out.push(("btree/hsu", gpu.run(&btree.trace(Variant::Hsu)).unwrap()));

    let rtindex = RtIndexWorkload::build(&RtIndexParams {
        keys: 1024,
        lookups: 128,
        seed: SEED,
    });
    out.push((
        "rtindex/hsu",
        gpu.run(&rtindex.trace(Variant::Hsu)).unwrap(),
    ));

    out
}

#[test]
fn reports_match_goldens() {
    let cases = simulate_cases();
    assert_eq!(cases.len(), GOLDENS.len());
    for ((name, report), golden) in cases.iter().zip(GOLDENS) {
        assert_eq!(*name, golden.name, "case order drifted");
        let explain = |field: &str| {
            format!(
                "golden mismatch: {name} {field}.\n\
                 If this change is intended to alter simulation results, re-bless with\n\
                 `cargo test --release --test golden_reports -- --ignored --nocapture bless`\n\
                 and paste the printed GOLDENS table into tests/golden_reports.rs.\n\
                 Otherwise this is a determinism regression — find it before merging."
            )
        };
        assert_eq!(report.cycles, golden.cycles, "{}", explain("cycles"));
        assert_eq!(report.issued, golden.issued, "{}", explain("issued[]"));
        assert_eq!(
            report.l1_accesses(),
            golden.l1_accesses,
            "{}",
            explain("l1_accesses")
        );
        assert_eq!(
            report.memory.l1.misses,
            golden.l1_misses,
            "{}",
            explain("l1_misses")
        );
        assert_eq!(
            report.memory.dram.activations,
            golden.dram_activations,
            "{}",
            explain("dram_activations")
        );
        assert_eq!(
            report.sched.ticks_executed,
            golden.ticks_executed,
            "{}",
            explain("ticks_executed")
        );
        assert_eq!(
            report.sched.cycles_skipped,
            golden.cycles_skipped,
            "{}",
            explain("cycles_skipped")
        );
        assert_eq!(
            report.sched.ticks_executed + report.sched.cycles_skipped,
            report.cycles * report.num_sms as u64,
            "scheduler accounting invariant broken for {name}"
        );
    }
}

/// Prints a fresh `GOLDENS` table. Run only when intentionally re-blessing:
/// `cargo test --release --test golden_reports -- --ignored --nocapture bless`
#[test]
#[ignore = "bless helper: prints constants, never asserts"]
fn bless() {
    println!("const GOLDENS: &[Golden] = &[");
    for (name, r) in simulate_cases() {
        println!(
            "    Golden {{ name: {:?}, cycles: {}, issued: {:?}, l1_accesses: {}, l1_misses: {}, dram_activations: {}, ticks_executed: {}, cycles_skipped: {} }},",
            name,
            r.cycles,
            r.issued,
            r.l1_accesses(),
            r.memory.l1.misses,
            r.memory.dram.activations,
            r.sched.ticks_executed,
            r.sched.cycles_skipped,
        );
    }
    println!("];");
}
