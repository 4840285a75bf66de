//! Deterministic fault injection for the robustness harness.
//!
//! Every generator here is a pure function of its inputs (corruptions are
//! seeded, configs and kernels are fixed), so a failing fault-injection test
//! reproduces byte-for-byte. The generated faults are *guaranteed* to be
//! faults: corrupted traces always violate the format, pathological configs
//! always fail [`GpuConfig::validate`], and the forced-deadlock pair always
//! trips the cycle guard. `tests/fault_injection.rs` asserts that each class
//! surfaces as its matching typed [`crate::SimError`] — never a panic or an
//! abort.

use crate::config::GpuConfig;
use crate::trace::{KernelTrace, ThreadOp, ThreadTrace, WARP_WIDTH};
use hsu_core::HsuConfig;

// Chunk-level archive corruptions (truncation, checksum bit-flips, bogus
// chunk kinds, header version skew), re-exported so the fault harness has
// one home: each class is pinned to its typed `ArchiveError`, which
// `SimError::from_archive` folds into the `TraceDecode`/`Io` taxonomy.
pub use hsu_archive::faults::{corrupt_archive_bytes, ArchiveFault, ARCHIVE_FAULTS, BOGUS_KIND};

/// A class of byte-level trace corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFault {
    /// Cut the stream short (anywhere strictly inside it).
    Truncate,
    /// Flip one bit in a header field the decoder must reject (magic,
    /// version, or the high byte of the name-length field — the last
    /// exercises the allocation plausibility cap).
    BitFlip,
    /// Overwrite the first instruction's class byte with an undefined class.
    BogusOpcode,
}

/// All trace-fault classes, for exhaustive sweeps.
pub const TRACE_FAULTS: [TraceFault; 3] = [
    TraceFault::Truncate,
    TraceFault::BitFlip,
    TraceFault::BogusOpcode,
];

/// SplitMix64: tiny, deterministic, and plenty for picking fault sites.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Applies `fault` to an encoded trace, deterministically in `seed`.
///
/// `bytes` must be a well-formed stream from
/// [`crate::trace_io::write_trace`]; the result is guaranteed to be rejected
/// by [`crate::trace_io::read_trace`]. `BogusOpcode` needs at least one
/// instruction in the stream and falls back to truncation when there is
/// none.
pub fn corrupt_trace_bytes(bytes: &[u8], fault: TraceFault, seed: u64) -> Vec<u8> {
    let r = splitmix64(seed);
    let mut out = bytes.to_vec();
    match fault {
        TraceFault::Truncate => {
            let cut = (r % bytes.len() as u64) as usize;
            out.truncate(cut);
        }
        TraceFault::BitFlip => {
            // Offsets whose corruption the decoder must always reject:
            // byte 1 of the magic, the version byte, and the most
            // significant byte of the little-endian name length (any flip
            // there adds at least 2^24 and trips MAX_NAME_LEN).
            let candidates = [1usize, 4, 8];
            let offset = candidates[(r % candidates.len() as u64) as usize];
            let bit = ((r >> 8) % 8) as u32;
            out[offset] ^= 1 << bit;
        }
        TraceFault::BogusOpcode => match first_class_offset(bytes) {
            Some(at) => out[at] = 200, // far beyond the last defined class
            None => out.truncate(out.len().saturating_sub(1)),
        },
    }
    out
}

/// Offset of the first instruction's class byte in a well-formed stream:
/// magic(4) + version(1) + name_len(4) + name + the thread, instruction and
/// op totals (3 × 4), then one instruction count per warp, skipping warps
/// that have none. `None` when the trace holds no instruction.
fn first_class_offset(bytes: &[u8]) -> Option<usize> {
    let u32_at = |at: usize| {
        let b = bytes.get(at..at + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    };
    let name_len = u32_at(5)?;
    let warps = u32_at(9 + name_len)?.div_ceil(WARP_WIDTH);
    let mut at = 21 + name_len;
    for _ in 0..warps {
        if u32_at(at)? > 0 {
            return Some(at + 4);
        }
        at += 4;
    }
    None
}

/// Configurations that must be rejected by [`GpuConfig::validate`], paired
/// with the field each one is invalid in.
pub fn pathological_configs() -> Vec<(&'static str, GpuConfig)> {
    let base = GpuConfig::tiny;
    vec![
        (
            "num_sms",
            GpuConfig {
                num_sms: 0,
                ..base()
            },
        ),
        (
            "sub_cores",
            GpuConfig {
                sub_cores: 0,
                ..base()
            },
        ),
        (
            "max_warps_per_sm",
            GpuConfig {
                max_warps_per_sm: 0,
                ..base()
            },
        ),
        // An angular datapath half as wide as one lane has no lanes.
        (
            "hsu.euclid_width",
            GpuConfig {
                hsu: HsuConfig {
                    euclid_width: 1,
                    ..base().hsu
                },
                ..base()
            },
        ),
        (
            "hsu.key_compare_width",
            GpuConfig {
                hsu: HsuConfig {
                    key_compare_width: 0,
                    ..base().hsu
                },
                ..base()
            },
        ),
        (
            "line_bytes",
            GpuConfig {
                line_bytes: 0,
                ..base()
            },
        ),
        (
            "l1_ways",
            GpuConfig {
                l1_ways: 0,
                ..base()
            },
        ),
        (
            "l1_mshrs",
            GpuConfig {
                l1_mshrs: 0,
                ..base()
            },
        ),
        // Too small to hold even one way of every set.
        (
            "l1_bytes",
            GpuConfig {
                l1_bytes: 64,
                ..base()
            },
        ),
        (
            "l2_ways",
            GpuConfig {
                l2_ways: 0,
                ..base()
            },
        ),
        (
            "l2_banks",
            GpuConfig {
                l2_banks: 0,
                ..base()
            },
        ),
        (
            "l2_bytes",
            GpuConfig {
                l2_bytes: 1,
                ..base()
            },
        ),
        (
            "dram_channels",
            GpuConfig {
                dram_channels: 0,
                ..base()
            },
        ),
        (
            "dram_banks",
            GpuConfig {
                dram_banks: 0,
                ..base()
            },
        ),
        // A DRAM row smaller than a cache line cannot hold one transfer.
        (
            "dram_row_bytes",
            GpuConfig {
                dram_row_bytes: 8,
                ..base()
            },
        ),
        (
            "dram_transfer_cycles",
            GpuConfig {
                dram_transfer_cycles: 0,
                ..base()
            },
        ),
        // A zero-cycle guard can never be satisfied.
        (
            "max_cycles",
            GpuConfig {
                max_cycles: 0,
                ..base()
            },
        ),
    ]
}

/// A kernel that cannot finish under [`forced_deadlock_config`]'s cycle
/// guard: each warp grinds through far more ALU latency than the guard
/// allows, so the deadlock diagnostics path always fires.
pub fn forced_deadlock_kernel() -> KernelTrace {
    let mut kernel = KernelTrace::builder("forced-deadlock");
    for _ in 0..32 {
        let mut thread = ThreadTrace::new();
        thread.push(ThreadOp::Alu { count: 1000 });
        thread.push(ThreadOp::Shared { count: 1 });
        kernel.push_thread(thread);
    }
    kernel.finish()
}

/// A valid configuration whose guard is far below what
/// [`forced_deadlock_kernel`] needs.
pub fn forced_deadlock_config() -> GpuConfig {
    GpuConfig {
        max_cycles: 500,
        ..GpuConfig::tiny()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_io::write_trace;

    fn encoded_sample() -> Vec<u8> {
        let mut k = KernelTrace::builder("ft");
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 3 });
        k.push_thread(t);
        let mut buf = Vec::new();
        write_trace(&k.finish(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn corruption_is_deterministic_in_the_seed() {
        let buf = encoded_sample();
        for fault in TRACE_FAULTS {
            for seed in 0..8 {
                let a = corrupt_trace_bytes(&buf, fault, seed);
                let b = corrupt_trace_bytes(&buf, fault, seed);
                assert_eq!(a, b, "{fault:?} seed {seed} not deterministic");
                assert_ne!(a, buf, "{fault:?} seed {seed} left the bytes intact");
            }
        }
    }

    #[test]
    fn bogus_opcode_hits_the_first_instruction_past_empty_warps() {
        let mut k = KernelTrace::builder("gap");
        for t in 0..40 {
            let mut th = ThreadTrace::new();
            if t >= 32 {
                th.push(ThreadOp::Load { addr: 0, bytes: 4 });
            }
            k.push_thread(th);
        }
        let mut buf = Vec::new();
        write_trace(&k.finish(), &mut buf).unwrap();
        let bad = corrupt_trace_bytes(&buf, TraceFault::BogusOpcode, 0);
        let err = crate::trace_io::read_trace(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unknown instruction class 200"),
            "{err}"
        );

        // No instruction at all: the fault falls back to truncation.
        let mut empty = Vec::new();
        write_trace(&KernelTrace::builder("none").finish(), &mut empty).unwrap();
        let bad = corrupt_trace_bytes(&empty, TraceFault::BogusOpcode, 0);
        assert!(crate::trace_io::read_trace(bad.as_slice()).is_err());
    }

    #[test]
    fn every_pathological_config_fails_validation_on_its_field() {
        for (field, cfg) in pathological_configs() {
            let err = cfg
                .validate()
                .expect_err("pathological config passed validation");
            match err {
                crate::SimError::InvalidConfig { field: got, .. } => {
                    assert_eq!(got, field, "wrong field reported");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn forced_deadlock_pair_is_internally_consistent() {
        forced_deadlock_config().validate().unwrap();
        assert!(forced_deadlock_kernel().thread_count() > 0);
    }
}
