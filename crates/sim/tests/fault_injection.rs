//! Fault-injection harness: every fault class must surface as its matching
//! typed [`SimError`] — never a panic, never a process abort — and healthy
//! runs must stay byte-identical to their fault-free twins in every
//! simulation mode.
//!
//! The corruptions come from [`hsu_sim::faults`], which guarantees they are
//! real faults; this suite proves the *simulator's* side of the contract.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use hsu_core::HsuConfig;
use hsu_sim::config::{GpuConfig, SimMode};
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
    fn address_overflow_traces_fail_with_typed_errors(seed in any::<u64>()) {
        let buf = encoded_sample();
        let bad = corrupt_trace_bytes(&buf, TraceFault::AddressOverflow, seed);
        decode_must_fail_cleanly(&bad, "address-overflow");
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

/// Byte-level corruption is rejected at decode: every trace-fault class maps
/// to [`SimError::TraceDecode`] through the taxonomy the loaders use, never
/// to `Io`. The healthy twin of the corrupted stream decodes and simulates
/// exactly like the kernel it was written from.
#[test]
fn every_fault_class_is_pinned_to_trace_decode() {
    let buf = encoded_sample();
    for fault in TRACE_FAULTS {
        for seed in 0..64u64 {
            let bad = corrupt_trace_bytes(&buf, fault, seed);
            let io_err = match read_trace(bad.as_slice()) {
                Err(e) => e,
                Ok(_) => panic!("{fault:?} seed {seed}: corrupted trace decoded"),
            };
            let err = SimError::from_io("fault harness", io_err);
            assert!(
                matches!(err, SimError::TraceDecode { .. }),
                "{fault:?} seed {seed}: expected TraceDecode, got {err:?}"
            );
        }
    }
    let kernel = read_trace(buf.as_slice()).expect("healthy stream decodes");
    let gpu = Gpu::new(GpuConfig::tiny());
    let restored = gpu.run(&kernel).expect("healthy stream simulates");
    let original = gpu.run(&sample_kernel(8, 4)).expect("original simulates");
    assert_eq!(restored.normalized(), original.normalized());
}

/// The fault class that *does* reach the RT unit: a decodable trace whose
/// `KEY_COMPARE` the configured unit cannot execute (HSU extensions absent).
/// A whole [`Gpu::run`] must stop with a typed [`SimError::IllegalDispatch`]
/// in every simulation mode, not a panic or a wrong answer.
#[test]
fn hsu_ops_without_extensions_are_rejected_with_illegal_dispatch() {
    let mut kernel = KernelTrace::builder("illegal-dispatch");
    let mut thread = ThreadTrace::new();
    thread.push(ThreadOp::HsuKeyCompare {
        node_addr: 0,
        separators: 8,
    });
    kernel.push_thread(thread);
    let kernel = kernel.finish();
    for mode in SimMode::ALL {
        let cfg = GpuConfig {
            sim_mode: mode,
            ..GpuConfig::tiny().with_hsu(HsuConfig::baseline_rt())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| Gpu::new(cfg).run(&kernel)));
        match outcome {
            Ok(Err(SimError::IllegalDispatch { .. })) => {}
            Ok(other) => panic!("{mode:?}: expected IllegalDispatch, got {other:?}"),
            Err(_) => panic!("{mode:?}: illegal dispatch panicked the simulator"),
        }
    }
}

/// A `KEY_COMPARE` over zero separators decodes (the trace stream has no
/// reason to refuse it), but no HSU instruction compares an empty key node.
/// A whole [`Gpu::run`] over such a decoded trace must stop with a typed
/// [`SimError::IllegalDispatch`] at dispatch, before any datapath beat, in
/// every simulation mode.
#[test]
fn empty_key_compare_is_an_illegal_dispatch() {
    let mut kernel = KernelTrace::builder("empty-key-compare");
    let mut thread = ThreadTrace::new();
    thread.push(ThreadOp::HsuKeyCompare {
        node_addr: 0x1000,
        separators: 0,
    });
    kernel.push_thread(thread);
    let mut buf = Vec::new();
    write_trace(&kernel.finish(), &mut buf).expect("in-memory write");
    let kernel = read_trace(buf.as_slice()).expect("the stream itself is well-formed");
    for mode in SimMode::ALL {
        let cfg = GpuConfig {
            sim_mode: mode,
            ..GpuConfig::tiny()
        };
        match Gpu::new(cfg).run(&kernel) {
            Err(SimError::IllegalDispatch { detail }) => {
                assert!(detail.contains("zero separators"), "{mode:?}: {detail}");
            }
            other => panic!("{mode:?}: expected IllegalDispatch, got {other:?}"),
        }
    }
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

/// A built trace (never decoded, so never checked by the decoder) whose
/// Load or `RAY_INTERSECT` reads 16 bytes from 3 bytes below the top of the
/// address space: both line computations, the LSU coalescer's and the RT
/// unit's, must stop the run with a typed [`SimError::IllegalDispatch`] in
/// every simulation mode, not overflow into a panic or a false deadlock.
#[test]
fn fetches_past_the_address_space_are_rejected_with_illegal_dispatch() {
    let ops = [
        ThreadOp::Load {
            addr: u64::MAX - 2,
            bytes: 16,
        },
        ThreadOp::HsuRayIntersect {
            node_addr: u64::MAX - 2,
            bytes: 16,
            triangle: false,
        },
    ];
    for op in ops {
        let mut kernel = KernelTrace::builder("overflow");
        let mut thread = ThreadTrace::new();
        thread.push(op);
        kernel.push_thread(thread);
        let kernel = kernel.finish();
        for mode in SimMode::ALL {
            let cfg = GpuConfig {
                sim_mode: mode,
                ..GpuConfig::tiny()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| Gpu::new(cfg).run(&kernel)));
            match outcome {
                Ok(Err(SimError::IllegalDispatch { detail })) => {
                    assert!(
                        detail.contains("past the end of the address space"),
                        "{detail}"
                    );
                }
                Ok(other) => panic!("{op:?} {mode:?}: expected IllegalDispatch, got {other:?}"),
                Err(_) => panic!("{op:?} {mode:?}: the overflowing fetch panicked"),
            }
        }
    }
}
