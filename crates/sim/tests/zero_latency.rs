//! Zero-latency pins for the memory event queue.
//!
//! With `l1_latency = 0` (or `l2_latency / 2 = 0`) the SM phase of a cycle
//! pushes events that are already due: an L1 hit completes "at `now`",
//! after the memory tick of `now` has drained. The queue must deliver such
//! late events before anything due at the next visited cycle, in
//! `(cycle, event)` order — exactly what a binary heap keyed on
//! `(cycle, event)` does. Stepped and event mode push the same late events,
//! so the stepped-vs-event comparison cannot see a wrong late-event order;
//! the cycle counts and report digests below can. They were recorded with
//! the binary-heap event queue, and re-pinned once, when `RtUnitStats`
//! dropped three counters that were always zero on this RT unit: putting
//! those three `: 0` fields back into the new reports' `Debug` text
//! reproduces the old digests exactly, and the cycle counts never moved.

use hsu_geometry::point::Metric;
use hsu_sim::config::{GpuConfig, SimMode};
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_sim::{Gpu, SimReport};

/// A mixed load / ALU / HSU kernel with divergent lanes, shared and private
/// lines, and stores, sized to keep both SMs' MSHRs and RT units busy.
fn mixed_kernel() -> KernelTrace {
    let mut k = KernelTrace::builder("zero-latency");
    for t in 0..192u64 {
        let mut th = ThreadTrace::new();
        th.push(ThreadOp::Load {
            addr: 0x1000 + (t % 8) * 128,
            bytes: 16,
        });
        th.push(ThreadOp::Alu {
            count: 1 + (t % 5) as u32,
        });
        if t % 3 == 0 {
            th.push(ThreadOp::HsuDistance {
                metric: Metric::Euclidean,
                dim: 32,
                candidate_addr: 0x40_000 + t * 512,
            });
        } else {
            th.push(ThreadOp::HsuRayIntersect {
                node_addr: 0x8000 + (t % 16) * 64,
                bytes: 64,
                triangle: t % 2 == 0,
            });
        }
        th.push(ThreadOp::Load {
            addr: 0x20_000 + t * 256,
            bytes: 8,
        });
        th.push(ThreadOp::Shared { count: 2 });
        th.push(ThreadOp::Store {
            addr: 0x60_000 + t * 4,
            bytes: 4,
        });
        if t % 4 == 1 {
            th.push(ThreadOp::HsuKeyCompare {
                node_addr: 0x9000 + (t % 32) * 128,
                separators: 40,
            });
        }
        th.push(ThreadOp::Load {
            addr: 0x1000 + (t % 8) * 128,
            bytes: 16,
        });
        k.push_thread(th);
    }
    k.finish()
}

/// FNV-1a over the `Debug` rendering of the normalized report.
fn digest(report: &SimReport) -> u64 {
    let text = format!("{:?}", report.normalized());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn run(l1_latency: u64, l2_latency: u64, mode: SimMode) -> SimReport {
    let cfg = GpuConfig {
        num_sms: 2,
        l1_latency,
        l2_latency,
        ..GpuConfig::tiny()
    }
    .with_sim_mode(mode);
    match Gpu::new(cfg).run(&mixed_kernel()) {
        Ok(r) => r,
        Err(e) => panic!("l1={l1_latency} l2={l2_latency} {mode:?}: {e}"),
    }
}

#[test]
fn zero_latency_machines_match_the_recorded_reports() {
    // (l1_latency, l2_latency, cycles, normalized-report digest)
    let pins: [(u64, u64, u64, u64); 4] = [
        (0, 0, 1784, 0xac48_bd81_1e08_136b),
        (0, 1, 1784, 0xac48_bd81_1e08_136b),
        (1, 0, 1783, 0x39f9_a0db_b47f_5146),
        (0, 2, 1755, 0x2b12_6998_7690_6a02),
    ];
    for (l1, l2, cycles, want) in pins {
        let stepped = run(l1, l2, SimMode::Stepped);
        let event = run(l1, l2, SimMode::Event);
        assert_eq!(
            stepped.normalized(),
            event.normalized(),
            "stepped and event diverged at l1={l1} l2={l2}"
        );
        assert_eq!(event.cycles, cycles, "cycle count at l1={l1} l2={l2}");
        assert_eq!(digest(&event), want, "report digest at l1={l1} l2={l2}");
    }
}
