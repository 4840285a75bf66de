//! Fault-injection harness: every fault class must surface as its matching
//! typed [`SimError`] — never a panic, never a process abort — and healthy
//! runs must stay byte-identical to their fault-free twins in every
//! simulation mode.
//!
//! The corruptions come from [`hsu_sim::faults`], which guarantees they are
//! real faults; this suite proves the *simulator's* side of the contract.
//! Every class is additionally pinned under the treelet-scheduled RT core
//! ([`hsu_sim::config::RtCoreKind::Treelet`]) with payload parity against
//! the baseline organization — a fault must look the same no matter which
//! core the machine was built with.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use hsu_core::HsuConfig;
use hsu_sim::config::{GpuConfig, RtCoreKind, SimMode};
use hsu_sim::error::{CancelToken, RunLimits, WatchdogCause};
use hsu_sim::faults::{
    corrupt_trace_bytes, forced_deadlock_config, forced_deadlock_kernel, pathological_configs,
    TraceFault, TRACE_FAULTS,
};
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_sim::trace_io::{read_trace, write_trace};
use hsu_sim::{Gpu, SimError};

fn sample_kernel(threads: u64, ops_per_thread: u32) -> KernelTrace {
    let mut k = KernelTrace::builder("fault-sample");
    for t in 0..threads {
        let mut tt = ThreadTrace::new();
        for i in 0..ops_per_thread {
            match (t + u64::from(i)) % 3 {
                0 => tt.push(ThreadOp::Alu { count: 2 }),
                1 => tt.push(ThreadOp::Load {
                    addr: (t * 64).wrapping_add(u64::from(i) * 128),
                    bytes: 8,
                }),
                _ => tt.push(ThreadOp::Shared { count: 1 }),
            }
        }
        k.push_thread(tt);
    }
    k.finish()
}

fn encoded_sample() -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&sample_kernel(8, 4), &mut buf).unwrap();
    buf
}

/// Decodes corrupted bytes under `catch_unwind`, asserting the failure is a
/// typed error rather than any flavour of panic.
fn decode_must_fail_cleanly(bytes: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| read_trace(bytes)));
    match outcome {
        Ok(Err(_)) => {} // the contract: a typed error
        Ok(Ok(_)) => panic!("{what}: corrupted trace decoded successfully"),
        Err(_) => panic!("{what}: decoder panicked instead of returning an error"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_traces_fail_with_typed_errors(seed in any::<u64>()) {
        let buf = encoded_sample();
        let bad = corrupt_trace_bytes(&buf, TraceFault::Truncate, seed);
        decode_must_fail_cleanly(&bad, "truncate");
    }

    #[test]
    fn bit_flipped_traces_fail_with_typed_errors(seed in any::<u64>()) {
        let buf = encoded_sample();
        let bad = corrupt_trace_bytes(&buf, TraceFault::BitFlip, seed);
        decode_must_fail_cleanly(&bad, "bit-flip");
    }

    #[test]
    fn bogus_opcode_traces_fail_with_typed_errors(seed in any::<u64>()) {
        let buf = encoded_sample();
        let bad = corrupt_trace_bytes(&buf, TraceFault::BogusOpcode, seed);
        decode_must_fail_cleanly(&bad, "bogus-opcode");
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Stronger than the targeted faults: feed the decoder random bytes.
        // It may reject them (it almost always will); it must never panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| read_trace(bytes.as_slice())));
        prop_assert!(outcome.is_ok(), "decoder panicked on arbitrary input");
    }

    #[test]
    fn healthy_traces_simulate_identically_after_a_round_trip(
        threads in 1u64..24,
        ops in 1u32..6,
    ) {
        let original = sample_kernel(threads, ops);
        let mut buf = Vec::new();
        write_trace(&original, &mut buf).unwrap();
        let restored = read_trace(buf.as_slice()).unwrap();
        for mode in SimMode::ALL {
            let cfg = GpuConfig { sim_mode: mode, ..GpuConfig::tiny() };
            let a = Gpu::new(cfg.clone()).run(&original).unwrap();
            let b = Gpu::new(cfg).run(&restored).unwrap();
            prop_assert_eq!(a.normalized(), b.normalized(), "mode {:?}", mode);
        }
    }
}

#[test]
fn every_fault_class_is_rejected_across_a_seed_sweep() {
    let buf = encoded_sample();
    for fault in TRACE_FAULTS {
        for seed in 0..256u64 {
            let bad = corrupt_trace_bytes(&buf, fault, seed);
            decode_must_fail_cleanly(&bad, &format!("{fault:?} seed {seed}"));
        }
    }
}

#[test]
fn pathological_configs_surface_as_invalid_config() {
    let kernel = sample_kernel(4, 2);
    for (field, cfg) in pathological_configs() {
        let outcome = catch_unwind(AssertUnwindSafe(|| Gpu::new(cfg).run(&kernel)));
        let err = match outcome {
            Ok(Err(e)) => e,
            Ok(Ok(_)) => panic!("pathological config ({field}) simulated successfully"),
            Err(_) => panic!("pathological config ({field}) panicked the simulator"),
        };
        match err {
            SimError::InvalidConfig { field: got, .. } => {
                assert_eq!(got, field, "wrong offending field reported");
            }
            other => panic!("expected InvalidConfig for {field}, got {other:?}"),
        }
    }
}

#[test]
fn forced_deadlock_reports_identical_payloads_in_every_mode() {
    let kernel = forced_deadlock_kernel();
    // Every mode that can execute the kernel.
    let configs = vec![
        GpuConfig {
            sim_mode: SimMode::Stepped,
            ..forced_deadlock_config()
        },
        GpuConfig {
            sim_mode: SimMode::Event,
            ..forced_deadlock_config()
        },
    ];
    let reports: Vec<SimError> = configs
        .into_iter()
        .map(|cfg| {
            Gpu::new(cfg)
                .run(&kernel)
                .expect_err("forced deadlock must trip the guard")
        })
        .collect();
    let SimError::Deadlock(oracle) = &reports[0] else {
        panic!("expected a Deadlock error, got {:?}", reports[0]);
    };
    assert_eq!(oracle.kernel, "forced-deadlock");
    assert_eq!(oracle.cycle, forced_deadlock_config().max_cycles);
    assert!(!oracle.per_sm.is_empty());
    for (i, report) in reports.iter().enumerate().skip(1) {
        match report {
            SimError::Deadlock(d) => {
                assert_eq!(d, oracle, "deadlock diagnostics diverged (config {i})");
            }
            other => panic!("expected Deadlock for config {i}, got {other:?}"),
        }
    }
}

#[test]
fn watchdog_cancellation_yields_a_typed_watchdog_error() {
    let kernel = sample_kernel(64, 8);
    let cancel = CancelToken::new();
    cancel.cancel();
    let limits = RunLimits::none().with_cancel(cancel);
    let err = Gpu::new(GpuConfig::tiny())
        .run_guarded(&kernel, &limits)
        .expect_err("pre-cancelled run must stop");
    match err {
        SimError::Watchdog { cause, .. } => assert_eq!(cause, WatchdogCause::Cancelled),
        other => panic!("expected Watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_deadline_yields_a_typed_watchdog_error() {
    let kernel = sample_kernel(64, 8);
    let limits = RunLimits::none().with_deadline(std::time::Instant::now());
    let err = Gpu::new(GpuConfig::tiny())
        .run_guarded(&kernel, &limits)
        .expect_err("expired deadline must stop the run");
    match err {
        SimError::Watchdog { cause, .. } => assert_eq!(cause, WatchdogCause::Deadline),
        other => panic!("expected Watchdog, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// RT-organization parity: every fault class pins the same typed error under
// the treelet-scheduled core as under the baseline organization
// ---------------------------------------------------------------------------

/// The same machine under both RT-unit organizations.
fn organizations(cfg: &GpuConfig) -> [GpuConfig; 2] {
    [
        GpuConfig {
            rt_core: RtCoreKind::Baseline,
            ..cfg.clone()
        },
        GpuConfig {
            rt_core: RtCoreKind::Treelet,
            ..cfg.clone()
        },
    ]
}

/// Byte-level corruption is rejected at decode, *before* an RT organization
/// is even constructed, so the typed error cannot depend on the core. This
/// pins the taxonomy — every trace-fault class maps to
/// [`SimError::TraceDecode`] — and then proves the healthy twin of the
/// corrupted stream executes under both organizations with identical
/// instruction issue and retirement (cycles legitimately differ).
#[test]
fn every_fault_class_is_pinned_to_trace_decode_for_both_organizations() {
    let buf = encoded_sample();
    for fault in TRACE_FAULTS {
        for seed in 0..64u64 {
            let bad = corrupt_trace_bytes(&buf, fault, seed);
            let io_err = match read_trace(bad.as_slice()) {
                Err(e) => e,
                Ok(_) => panic!("{fault:?} seed {seed}: corrupted trace decoded"),
            };
            // Lift through the same taxonomy the loaders use: every byte
            // corruption must land on `TraceDecode`, never `Io`.
            let err = SimError::from_io("fault harness", io_err);
            assert!(
                matches!(err, SimError::TraceDecode { .. }),
                "{fault:?} seed {seed}: expected TraceDecode, got {err:?}"
            );
        }
    }
    let kernel = read_trace(buf.as_slice()).expect("healthy stream decodes");
    let [a, b] = organizations(&GpuConfig::tiny()).map(|cfg| {
        Gpu::new(cfg)
            .run(&kernel)
            .expect("healthy stream simulates under both organizations")
    });
    assert_eq!(
        a.issued, b.issued,
        "issue mix diverged between organizations"
    );
    assert_eq!(a.warps_retired, b.warps_retired);
    assert_eq!(a.rt.warp_instructions, b.rt.warp_instructions);
    assert_eq!(a.rt.isa_instructions, b.rt.isa_instructions);
}

/// The forced-deadlock pair must trip the cycle guard with *identical*
/// diagnostics under the treelet core, in every mode and thread count. The
/// kernel carries no HSU ops, so the organizations run in lockstep and any
/// payload divergence is an organization bug, not a modelling difference.
#[test]
fn forced_deadlock_payloads_agree_across_organizations() {
    let kernel = forced_deadlock_kernel();
    let oracle_err = Gpu::new(forced_deadlock_config())
        .run(&kernel)
        .expect_err("baseline stepped run must deadlock");
    let SimError::Deadlock(oracle) = &oracle_err else {
        panic!("expected Deadlock, got {oracle_err:?}");
    };
    let treelet = GpuConfig {
        rt_core: RtCoreKind::Treelet,
        ..forced_deadlock_config()
    };
    let configs = vec![
        GpuConfig {
            sim_mode: SimMode::Stepped,
            ..treelet.clone()
        },
        GpuConfig {
            sim_mode: SimMode::Event,
            ..treelet.clone()
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let err = Gpu::new(cfg)
            .run(&kernel)
            .expect_err("forced deadlock must trip the guard under the treelet core");
        match &err {
            SimError::Deadlock(d) => assert_eq!(
                d.as_ref(),
                oracle.as_ref(),
                "treelet deadlock diagnostics diverged from the baseline oracle (config {i})"
            ),
            other => panic!("expected Deadlock for treelet config {i}, got {other:?}"),
        }
    }
}

/// Every pathological configuration is rejected on the same field with the
/// same rendered diagnostics under both organizations. The staging-pool
/// entry is organization-specific by design (the baseline ignores the
/// knob), so it pins the treelet core alone; everything else sweeps both.
#[test]
fn pathological_configs_are_typed_identically_for_both_organizations() {
    let kernel = sample_kernel(4, 2);
    for (field, cfg) in pathological_configs() {
        let variants = if field == "rt_staging_buffers" {
            vec![cfg.clone()]
        } else {
            organizations(&cfg).to_vec()
        };
        let payloads: Vec<String> = variants
            .into_iter()
            .map(|c| {
                let err = Gpu::new(c)
                    .run(&kernel)
                    .expect_err("pathological config must be rejected");
                match &err {
                    SimError::InvalidConfig { field: got, .. } => {
                        assert_eq!(*got, field, "wrong offending field reported");
                    }
                    other => panic!("expected InvalidConfig for {field}, got {other:?}"),
                }
                err.to_string()
            })
            .collect();
        assert!(
            payloads.windows(2).all(|w| w[0] == w[1]),
            "{field}: organizations rendered different diagnostics: {payloads:?}"
        );
    }
}

/// The fault class that *does* reach the RT core: a decodable trace whose
/// `KEY_COMPARE` the configured unit cannot execute (HSU extensions absent).
/// Both organizations must reject it with the same typed
/// [`SimError::IllegalDispatch`] payload — the support matrix and dispatch
/// plan are shared between the cores, so the diagnostics are too.
#[test]
fn hsu_ops_without_extensions_are_rejected_identically_by_both_organizations() {
    let mut kernel = KernelTrace::builder("illegal-dispatch");
    let mut thread = ThreadTrace::new();
    thread.push(ThreadOp::HsuKeyCompare {
        node_addr: 0,
        separators: 8,
    });
    kernel.push_thread(thread);
    let kernel = kernel.finish();
    let base = GpuConfig::tiny().with_hsu(HsuConfig::baseline_rt());
    let payloads: Vec<String> = organizations(&base)
        .into_iter()
        .map(|cfg| {
            let err = Gpu::new(cfg)
                .run(&kernel)
                .expect_err("a baseline RT unit must reject KEY_COMPARE");
            match &err {
                SimError::IllegalDispatch { .. } => {}
                other => panic!("expected IllegalDispatch, got {other:?}"),
            }
            err.to_string()
        })
        .collect();
    assert_eq!(
        payloads[0], payloads[1],
        "organizations rendered different dispatch diagnostics"
    );
}

// ---------------------------------------------------------------------------
// Archive-level faults: chunk corruptions surfacing through the simulator's
// typed error taxonomy
// ---------------------------------------------------------------------------

/// A keyed trace archive image holding two sample kernels, as the bench
/// cache would write it.
fn encoded_archive_sample() -> Vec<u8> {
    use hsu_sim::archive_io::encode_trace_archive;
    let hsu = sample_kernel(8, 4);
    let base = sample_kernel(6, 3);
    encode_trace_archive("fault-archive", &[("hsu", &hsu), ("base", &base)])
        .expect("healthy traces encode")
}

/// Decoding a corrupted archive must yield a typed [`SimError`] — every
/// archive corruption maps to `trace-decode` (OS failures alone map to
/// `io`, and there are none on the in-memory path) — and must never panic.
fn archive_decode_must_fail_cleanly(bytes: &[u8], what: &str) {
    use hsu_sim::archive_io::decode_trace_archive;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        decode_trace_archive(bytes, "fault-archive", &["hsu", "base"])
    }));
    match outcome {
        Ok(Err(err)) => assert_eq!(
            err.kind(),
            "trace-decode",
            "{what}: archive corruption must surface as trace-decode, got {err}"
        ),
        Ok(Ok(_)) => panic!("{what}: corrupted archive decoded successfully"),
        Err(_) => panic!("{what}: archive decoder panicked instead of returning an error"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_trace_archives_fail_with_typed_errors(
        seed in any::<u64>(),
        fault_pick in 0usize..hsu_archive::faults::ARCHIVE_FAULTS.len(),
    ) {
        let bytes = encoded_archive_sample();
        let fault = hsu_archive::faults::ARCHIVE_FAULTS[fault_pick];
        let bad = hsu_archive::faults::corrupt_archive_bytes(&bytes, fault, seed);
        archive_decode_must_fail_cleanly(&bad, "archive fault");
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_archive_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use hsu_sim::archive_io::decode_trace_archive;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decode_trace_archive(&bytes, "fault-archive", &["hsu"])
        }));
        prop_assert!(outcome.is_ok(), "archive decoder panicked on byte soup");
        if let Ok(Ok(_)) = outcome {
            // A 256-byte random blob can't carry the magic, key chunk, and
            // valid checksums all at once.
            prop_assert!(false, "byte soup decoded as a keyed trace archive");
        }
    }
}

/// Mirror of `every_fault_class_is_rejected_across_a_seed_sweep` for the
/// archive layer: each chunk-level fault class, 256 seeds, always a typed
/// `trace-decode` rejection through the simulator's error taxonomy.
#[test]
fn every_archive_fault_class_is_rejected_across_a_seed_sweep() {
    let bytes = encoded_archive_sample();
    for fault in hsu_archive::faults::ARCHIVE_FAULTS {
        for seed in 0..256u64 {
            let bad = hsu_archive::faults::corrupt_archive_bytes(&bytes, fault, seed);
            archive_decode_must_fail_cleanly(&bad, &format!("{fault:?} seed {seed}"));
        }
    }
}

/// The on-disk reader keeps OS failures (`io`) distinct from corruption
/// (`trace-decode`): a missing file is the former, a truncated file the
/// latter — the bench cache branches on exactly this distinction to decide
/// between "rebuild" and "report".
#[test]
fn file_archive_faults_keep_io_and_decode_errors_distinct() {
    use hsu_sim::archive_io::{read_trace_archive, write_trace_archive};
    let dir = std::env::temp_dir().join(format!("hsu-fault-archive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let missing = dir.join("missing.hsar");
    let err = read_trace_archive(&missing, "fault-archive", &["hsu"]).unwrap_err();
    assert_eq!(err.kind(), "io", "missing file must be an io error");

    let hsu = sample_kernel(8, 4);
    let path = dir.join("traces.hsar");
    write_trace_archive(&path, "fault-archive", &[("hsu", &hsu)]).expect("write");
    let full = std::fs::read(&path).expect("read back");
    for seed in 0..64u64 {
        let bad = hsu_archive::faults::corrupt_archive_bytes(
            &full,
            hsu_archive::faults::ArchiveFault::Truncate,
            seed,
        );
        std::fs::write(&path, &bad).expect("write corrupted");
        let err = read_trace_archive(&path, "fault-archive", &["hsu"]).unwrap_err();
        assert_eq!(
            err.kind(),
            "trace-decode",
            "seed {seed}: truncated file must be a decode error, got {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
