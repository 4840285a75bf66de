//! Compact binary serialization of kernel traces.
//!
//! The paper's methodology is trace-driven: SASS traces are post-processed
//! once and replayed many times (§V-C). This module gives the reproduction
//! the same workflow — a [`KernelTrace`] can be written to a byte stream and
//! replayed later without regenerating the workload (useful for the
//! sensitivity sweeps, which re-simulate the same trace under many machine
//! configurations).
//!
//! The stream stores the warp-packed form itself, so decoding never
//! re-packs: it fills the trace's header and op pools directly, each
//! allocated once at its exact declared size. The format is little-endian,
//! versioned, and validated on read. Version 2 layout:
//!
//! ```text
//! magic "HSUT" · version u8 = 2 · name_len u32 · name
//! threads u32 · instructions u32 · ops u32        (pool totals)
//! per warp (⌈threads / 32⌉ of them):
//!   count u32
//!   per instruction: class u8 · active_mask u32 ·
//!     Alu/Shared:  max_run u32 · weighted u64
//!     otherwise:   one tagged op per active lane, in lane order
//! ```
//!
//! Version 1 streams (one op log per thread) are rejected with
//! "unsupported trace version 1"; a trace cache holding them misses and
//! rebuilds.

use std::io::{self, Read, Write};
use std::path::Path;

use hsu_geometry::point::Metric;

use crate::error::SimError;
use crate::trace::{KernelTrace, OpClass, ThreadOp, WarpInstruction, WARP_WIDTH};

/// Magic bytes identifying a trace stream.
pub const MAGIC: &[u8; 4] = b"HSUT";
/// Current format version.
pub const VERSION: u8 = 2;

/// Longest kernel name accepted by [`read_trace`]. Real kernel names are a
/// few dozen bytes; anything larger is corruption, and the cap keeps a
/// bit-flipped length field from driving a multi-gigabyte allocation.
pub const MAX_NAME_LEN: usize = 4096;
/// Most threads accepted in one trace (64 Mi — far beyond any workload here).
pub const MAX_THREADS: usize = 1 << 26;
/// Most warp instructions accepted in one trace (64 Mi headers, 1.5 GiB).
pub const MAX_INSTRUCTIONS: usize = 1 << 26;
/// Most pooled (Load/Store/HSU) ops accepted in one trace (64 Mi, 1 GiB).
pub const MAX_OPS: usize = 1 << 26;

// Op tags of the pooled classes. Tags 0 and 3 tagged the per-lane `Alu` and
// `Shared` ops of version 1; version 2 folds those into the headers, and
// the two tags stay unassigned.
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_RAY_BOX: u8 = 4;
const TAG_RAY_TRI: u8 = 5;
const TAG_EUCLID: u8 = 6;
const TAG_ANGULAR: u8 = 7;
const TAG_KEY: u8 = 8;

/// Writes `trace` to `w`.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_trace<W: Write>(trace: &KernelTrace, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    let name = trace.name().as_bytes();
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    let (instructions, ops) = trace.pools();
    for count in [trace.thread_count(), instructions.len(), ops.len()] {
        w.write_all(&(count as u32).to_le_bytes())?;
    }
    for warp in trace.warps() {
        w.write_all(&(warp.len() as u32).to_le_bytes())?;
        for pc in 0..warp.len() {
            let (instr, lane_ops) = warp.get(pc);
            w.write_all(&[instr.class.index() as u8])?;
            w.write_all(&instr.active_mask.to_le_bytes())?;
            if instr.class.is_run() {
                w.write_all(&instr.max_run.to_le_bytes())?;
                w.write_all(&instr.weighted.to_le_bytes())?;
            }
            for op in lane_ops {
                write_op(op, &mut w)?;
            }
        }
    }
    Ok(())
}

/// Writes one pooled op.
fn write_op<W: Write>(op: &ThreadOp, w: &mut W) -> io::Result<()> {
    match *op {
        ThreadOp::Alu { .. } | ThreadOp::Shared { .. } => {
            unreachable!("run ops live in their instruction header, never in the pool")
        }
        ThreadOp::Load { addr, bytes } => {
            w.write_all(&[TAG_LOAD])?;
            w.write_all(&addr.to_le_bytes())?;
            w.write_all(&bytes.to_le_bytes())
        }
        ThreadOp::Store { addr, bytes } => {
            w.write_all(&[TAG_STORE])?;
            w.write_all(&addr.to_le_bytes())?;
            w.write_all(&bytes.to_le_bytes())
        }
        ThreadOp::HsuRayIntersect {
            node_addr,
            bytes,
            triangle,
        } => {
            w.write_all(&[if triangle { TAG_RAY_TRI } else { TAG_RAY_BOX }])?;
            w.write_all(&node_addr.to_le_bytes())?;
            w.write_all(&bytes.to_le_bytes())
        }
        ThreadOp::HsuDistance {
            metric,
            dim,
            candidate_addr,
        } => {
            let tag = match metric {
                Metric::Euclidean => TAG_EUCLID,
                Metric::Angular => TAG_ANGULAR,
            };
            w.write_all(&[tag])?;
            w.write_all(&candidate_addr.to_le_bytes())?;
            w.write_all(&dim.to_le_bytes())
        }
        ThreadOp::HsuKeyCompare {
            node_addr,
            separators,
        } => {
            w.write_all(&[TAG_KEY])?;
            w.write_all(&node_addr.to_le_bytes())?;
            w.write_all(&separators.to_le_bytes())
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads a trace previously written by [`write_trace`].
///
/// Besides the framing (magic, version, tags, truncation, count caps), the
/// decoder checks what the simulator relies on: every active mask is
/// non-zero and inside its warp's lanes, every op's tag matches its
/// instruction's class, every `Alu`/`Shared` header satisfies
/// `max_run ≤ weighted ≤ lanes × max_run`, and the pools fill exactly to
/// their declared totals.
///
/// # Errors
///
/// Returns `InvalidData` for a malformed stream, or any reader error.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<KernelTrace> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad trace magic"));
    }
    let version = read_u8(&mut r)?;
    if version != VERSION {
        return Err(invalid(format!("unsupported trace version {version}")));
    }
    let name_len = checked_count(read_u32(&mut r)?, MAX_NAME_LEN, "kernel name length")?;
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|e| invalid(e.to_string()))?;
    let threads = checked_count(read_u32(&mut r)?, MAX_THREADS, "thread count")?;
    let total_instructions =
        checked_count(read_u32(&mut r)?, MAX_INSTRUCTIONS, "instruction count")?;
    let total_ops = checked_count(read_u32(&mut r)?, MAX_OPS, "op count")?;

    let warps = threads.div_ceil(WARP_WIDTH);
    let mut warp_starts = Vec::with_capacity(warps);
    let mut instructions = Vec::with_capacity(total_instructions);
    let mut ops = Vec::with_capacity(total_ops);
    for w in 0..warps {
        let lanes = (threads - w * WARP_WIDTH).min(WARP_WIDTH);
        let lane_mask = u32::MAX >> (WARP_WIDTH - lanes);
        warp_starts.push(instructions.len() as u32);
        let count = read_u32(&mut r)? as usize;
        if count > total_instructions - instructions.len() {
            return Err(invalid(format!(
                "warp {w} overruns the declared {total_instructions} instructions"
            )));
        }
        for _ in 0..count {
            let tag = read_u8(&mut r)?;
            let class = *OpClass::ALL
                .get(tag as usize)
                .ok_or_else(|| invalid(format!("unknown instruction class {tag}")))?;
            let mask = read_u32(&mut r)?;
            if mask == 0 || mask & !lane_mask != 0 {
                return Err(invalid(format!(
                    "active mask {mask:#x} outside warp {w}'s lanes {lane_mask:#x}"
                )));
            }
            let lanes = mask.count_ones();
            let offset = ops.len();
            let instr = if class.is_run() {
                let max_run = read_u32(&mut r)?;
                let weighted = read_u64(&mut r)?;
                if weighted < u64::from(max_run) || weighted > u64::from(lanes) * u64::from(max_run)
                {
                    return Err(invalid(format!(
                        "{class:?} run weight {weighted} impossible for max run {max_run} \
                         over {lanes} lanes"
                    )));
                }
                WarpInstruction::new(class, mask, max_run, weighted, offset)
            } else {
                if lanes as usize > total_ops - ops.len() {
                    return Err(invalid(format!(
                        "warp {w} overruns the declared {total_ops} ops"
                    )));
                }
                for _ in 0..lanes {
                    let op = read_op(&mut r)?;
                    if op.class() != class {
                        return Err(invalid(format!(
                            "{:?} op inside a {class:?} instruction",
                            op.class()
                        )));
                    }
                    ops.push(op);
                }
                WarpInstruction::new(class, mask, 1, u64::from(lanes), offset)
            };
            instructions.push(instr);
        }
    }
    if instructions.len() != total_instructions || ops.len() != total_ops {
        return Err(invalid(format!(
            "pools hold {} instructions and {} ops, declared {total_instructions} and {total_ops}",
            instructions.len(),
            ops.len()
        )));
    }
    Ok(KernelTrace::from_parts(
        name,
        threads,
        warp_starts,
        instructions,
        ops,
    ))
}

fn read_op<R: Read>(r: &mut R) -> io::Result<ThreadOp> {
    let tag = read_u8(r)?;
    Ok(match tag {
        TAG_LOAD => ThreadOp::Load {
            addr: read_u64(r)?,
            bytes: read_u32(r)?,
        },
        TAG_STORE => ThreadOp::Store {
            addr: read_u64(r)?,
            bytes: read_u32(r)?,
        },
        TAG_RAY_BOX | TAG_RAY_TRI => ThreadOp::HsuRayIntersect {
            node_addr: read_u64(r)?,
            bytes: read_u32(r)?,
            triangle: tag == TAG_RAY_TRI,
        },
        TAG_EUCLID | TAG_ANGULAR => ThreadOp::HsuDistance {
            metric: if tag == TAG_EUCLID {
                Metric::Euclidean
            } else {
                Metric::Angular
            },
            candidate_addr: read_u64(r)?,
            dim: read_u32(r)?,
        },
        TAG_KEY => ThreadOp::HsuKeyCompare {
            node_addr: read_u64(r)?,
            separators: read_u32(r)?,
        },
        other => return Err(invalid(format!("unknown op tag {other}"))),
    })
}

/// Bounds-checks a length/count field before it drives an allocation or a
/// read loop, so a corrupted stream fails with `InvalidData` instead of an
/// out-of-memory abort.
fn checked_count(raw: u32, cap: usize, what: &str) -> io::Result<usize> {
    let n = raw as usize;
    if n > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible {what} {n} (cap {cap})"),
        ));
    }
    Ok(n)
}

/// Reads a trace file from `path`, mapping failures into the typed
/// [`SimError`] taxonomy.
///
/// # Errors
///
/// [`SimError::TraceDecode`] when the stream is malformed (bad magic,
/// version, tag, truncation, or an implausible length field);
/// [`SimError::Io`] for filesystem-level failures.
pub fn load_trace<P: AsRef<Path>>(path: P) -> Result<KernelTrace, SimError> {
    let path = path.as_ref();
    let ctx = || format!("loading trace {}", path.display());
    let file = std::fs::File::open(path).map_err(|e| SimError::from_io(ctx(), e))?;
    read_trace(io::BufReader::new(file)).map_err(|e| SimError::from_io(ctx(), e))
}

/// Writes a trace file to `path`, mapping failures into [`SimError::Io`].
///
/// # Errors
///
/// [`SimError::Io`] when the file cannot be created or written.
pub fn save_trace<P: AsRef<Path>>(trace: &KernelTrace, path: P) -> Result<(), SimError> {
    let path = path.as_ref();
    let ctx = || format!("saving trace {}", path.display());
    let file = std::fs::File::create(path).map_err(|e| SimError::from_io(ctx(), e))?;
    let mut w = io::BufWriter::new(file);
    write_trace(trace, &mut w).map_err(|e| SimError::from_io(ctx(), e))?;
    w.flush().map_err(|e| SimError::from_io(ctx(), e))
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ThreadTrace;

    fn sample_trace() -> KernelTrace {
        let mut k = KernelTrace::builder("sample-kernel");
        for i in 0..70u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu {
                count: (i % 7 + 1) as u32,
            });
            t.push(ThreadOp::Load {
                addr: i * 64,
                bytes: 16,
            });
            t.push(ThreadOp::HsuRayIntersect {
                node_addr: i * 128,
                bytes: 64,
                triangle: i % 2 == 0,
            });
            t.push(ThreadOp::HsuDistance {
                metric: if i % 3 == 0 {
                    Metric::Euclidean
                } else {
                    Metric::Angular
                },
                dim: (i % 200 + 1) as u32,
                candidate_addr: i * 4,
            });
            t.push(ThreadOp::HsuKeyCompare {
                node_addr: i,
                separators: 255,
            });
            t.push(ThreadOp::Store {
                addr: 0x7000_0000 + i,
                bytes: 8,
            });
            t.push(ThreadOp::Shared { count: 3 });
            k.push_thread(t);
        }
        k.finish()
    }

    fn encode(k: &KernelTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(k, &mut buf).unwrap();
        buf
    }

    /// A one-thread kernel whose only instruction is `op`.
    fn one_op(op: ThreadOp) -> KernelTrace {
        let mut k = KernelTrace::builder("t");
        let mut th = ThreadTrace::new();
        th.push(op);
        k.push_thread(th);
        k.finish()
    }

    /// Offset of the first instruction's class byte when warp 0 has one:
    /// magic(4) + version(1) + name_len(4) + name + threads, instructions,
    /// ops (3 × 4) + warp 0's count(4).
    fn first_class_at(k: &KernelTrace) -> usize {
        25 + k.name().len()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample_trace();
        let restored = read_trace(encode(&original).as_slice()).unwrap();
        assert_eq!(restored, original);
        assert_eq!(restored.total_instructions(), original.total_instructions());
        assert_eq!(restored.heap_bytes(), original.heap_bytes());
        // The simulator sees identical behaviour.
        let gpu = crate::Gpu::new(crate::config::GpuConfig::tiny());
        assert_eq!(
            gpu.run(&original).unwrap().cycles,
            gpu.run(&restored).unwrap().cycles
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(read_trace(&b"NOPE\x02"[..]).is_err());
        let mut buf = encode(&KernelTrace::builder("x").finish());
        buf[4] = 99; // version
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported trace version 99"));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let buf = encode(&sample_trace());
        for cut in [3usize, 5, 9, buf.len() / 2, buf.len() - 1] {
            assert!(read_trace(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_unknown_class_and_tag() {
        let alu = one_op(ThreadOp::Alu { count: 1 });
        let mut buf = encode(&alu);
        buf[first_class_at(&alu)] = 200;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown instruction class 200"));

        let load = one_op(ThreadOp::Load { addr: 0, bytes: 4 });
        let mut buf = encode(&load);
        // The op tag follows the class byte and the 4-byte mask.
        buf[first_class_at(&load) + 5] = 200;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown op tag 200"));
    }

    #[test]
    fn rejects_ops_of_another_class() {
        let load = one_op(ThreadOp::Load { addr: 0, bytes: 4 });
        let mut buf = encode(&load);
        buf[first_class_at(&load) + 5] = TAG_STORE;
        let err = read_trace(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err
            .to_string()
            .contains("Store op inside a Load instruction"));
    }

    #[test]
    fn rejects_masks_outside_the_warp() {
        // Three threads: lanes 0..3 exist, lane 3 does not.
        let mut k = KernelTrace::builder("m");
        for _ in 0..3 {
            let mut th = ThreadTrace::new();
            th.push(ThreadOp::Alu { count: 2 });
            k.push_thread(th);
        }
        let k = k.finish();
        let at = first_class_at(&k) + 1;
        for mask in [0u32, 0b1000, 0b1111] {
            let mut buf = encode(&k);
            buf[at..at + 4].copy_from_slice(&mask.to_le_bytes());
            let err = read_trace(buf.as_slice()).unwrap_err();
            assert!(
                err.to_string().contains("active mask"),
                "mask {mask:#b}: {err}"
            );
        }
    }

    #[test]
    fn rejects_impossible_run_summaries() {
        // Two lanes, runs 3 and 5: max_run 5, weighted 8.
        let mut k = KernelTrace::builder("r");
        for count in [3, 5] {
            let mut th = ThreadTrace::new();
            th.push(ThreadOp::Shared { count });
            k.push_thread(th);
        }
        let k = k.finish();
        let max_run_at = first_class_at(&k) + 5;
        // weighted < max_run, weighted > lanes × max_run.
        for (max_run, weighted) in [(5u32, 4u64), (5, 11)] {
            let mut buf = encode(&k);
            buf[max_run_at..max_run_at + 4].copy_from_slice(&max_run.to_le_bytes());
            buf[max_run_at + 4..max_run_at + 12].copy_from_slice(&weighted.to_le_bytes());
            let err = read_trace(buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("run weight"), "{err}");
        }
    }

    #[test]
    fn rejects_counts_that_disagree_with_the_pools() {
        let k = sample_trace();
        let totals_at = 9 + k.name().len() + 4;
        // Declared instruction total one short, then op total one long.
        for (at, delta) in [(totals_at, -1i64), (totals_at + 4, 1)] {
            let mut buf = encode(&k);
            let declared = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
            let patched = (i64::from(declared) + delta) as u32;
            buf[at..at + 4].copy_from_slice(&patched.to_le_bytes());
            let err = read_trace(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn rejects_implausible_length_fields() {
        let buf = encode(&sample_trace());
        // Flip the MSB of the name-length field (offset 5..9): without the
        // plausibility cap this would try to allocate a 2 GiB name buffer.
        let mut huge_name = buf.clone();
        huge_name[8] |= 0x80;
        let err = read_trace(huge_name.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("kernel name length"));
        // Same for the three count fields that follow the 13-byte name.
        let name_len = sample_trace().name().len();
        for (field, what) in ["thread count", "instruction count", "op count"]
            .iter()
            .enumerate()
        {
            let mut huge = buf.clone();
            huge[9 + name_len + 4 * field + 3] = 0xff;
            let err = read_trace(huge.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn load_trace_surfaces_typed_errors() {
        let dir = std::env::temp_dir().join(format!("hsu-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.hsut");
        save_trace(&sample_trace(), &good).unwrap();
        let restored = load_trace(&good).unwrap();
        assert_eq!(restored, sample_trace());

        let missing = load_trace(dir.join("missing.hsut")).unwrap_err();
        assert_eq!(missing.kind(), "io");

        let bad = dir.join("bad.hsut");
        std::fs::write(&bad, b"NOPE").unwrap();
        let decode = load_trace(&bad).unwrap_err();
        assert!(
            matches!(decode, SimError::TraceDecode { .. }),
            "expected TraceDecode, got {decode:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let restored =
            read_trace(encode(&KernelTrace::builder("empty").finish()).as_slice()).unwrap();
        assert_eq!(restored.thread_count(), 0);
        assert_eq!(restored.warp_count(), 0);
        assert_eq!(restored.name(), "empty");
    }

    #[test]
    fn empty_warps_round_trip() {
        let mut k = KernelTrace::builder("gaps");
        for i in 0..70 {
            let mut th = ThreadTrace::new();
            if i >= 64 {
                th.push(ThreadOp::Load { addr: i, bytes: 4 });
            }
            k.push_thread(th);
        }
        let k = k.finish();
        let back = read_trace(encode(&k).as_slice()).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.warp_count(), 3);
    }
}
