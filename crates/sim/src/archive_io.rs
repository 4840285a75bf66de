//! Packing kernel traces into `.hsar` archives.
//!
//! A trace chunk ([`hsu_archive::kind::TRACE`]) carries the warp-packed
//! `HSUT` stream produced by [`crate::trace_io::write_trace`], unchanged —
//! the archive adds the group tree, per-chunk checksums, and the content
//! key on top, so a trace archive is corruption-evident and cache-keyed
//! while the inner stream format stays the single source of truth.
//!
//! All traces of one suite cell live in one archive under the `traces`
//! group (e.g. `traces/hsu`, `traces/base`, `traces/stripped`), written
//! atomically. Errors surface through [`SimError::from_archive`]: OS
//! failures as [`SimError::Io`], every corruption as
//! [`SimError::TraceDecode`].

use std::path::Path;

use hsu_archive::{kind, ArchiveWriter, FileArchive, SliceArchive};

use crate::error::SimError;
use crate::trace::KernelTrace;
use crate::trace_io::{read_trace, write_trace};

/// Group holding the per-variant trace chunks.
pub const TRACES_GROUP: &str = "traces";

fn build_writer(key: &str, traces: &[(&str, &KernelTrace)]) -> Result<ArchiveWriter, SimError> {
    let mut w = ArchiveWriter::new();
    w.set_key(key);
    w.begin_group(TRACES_GROUP);
    for (name, trace) in traces {
        let mut payload = Vec::new();
        write_trace(trace, &mut payload)
            .map_err(|e| SimError::from_io(format!("encode trace '{name}'"), e))?;
        w.add_chunk(name, kind::TRACE, &payload);
    }
    w.end_group();
    Ok(w)
}

/// Encodes `traces` (name → trace) into a keyed archive image.
pub fn encode_trace_archive(
    key: &str,
    traces: &[(&str, &KernelTrace)],
) -> Result<Vec<u8>, SimError> {
    Ok(build_writer(key, traces)?.finish())
}

/// Decodes the named traces from an archive image, verifying the content
/// key first. Order of the result matches `names`.
pub fn decode_trace_archive(
    bytes: &[u8],
    key: &str,
    names: &[&str],
) -> Result<Vec<KernelTrace>, SimError> {
    let context = "trace archive";
    let archive = SliceArchive::parse(bytes).map_err(|e| SimError::from_archive(context, e))?;
    archive
        .expect_key(key)
        .map_err(|e| SimError::from_archive(context, e))?;
    names
        .iter()
        .map(|name| {
            let path = format!("{TRACES_GROUP}/{name}");
            let payload = archive
                .read(&path, kind::TRACE)
                .map_err(|e| SimError::from_archive(context, e))?;
            read_trace(payload).map_err(|e| SimError::from_io(path, e))
        })
        .collect()
}

/// Writes a trace archive to `path` atomically (tmp + rename).
pub fn write_trace_archive(
    path: &Path,
    key: &str,
    traces: &[(&str, &KernelTrace)],
) -> Result<(), SimError> {
    build_writer(key, traces)?
        .finish_to_file(path)
        .map_err(|e| SimError::from_archive(path.display().to_string(), e))
}

/// Streams the named traces out of the archive at `path`, verifying the
/// content key first. A key mismatch (stale cache file) is a
/// [`SimError::TraceDecode`]; the cache layer treats it as a miss.
pub fn read_trace_archive(
    path: &Path,
    key: &str,
    names: &[&str],
) -> Result<Vec<KernelTrace>, SimError> {
    let context = path.display().to_string();
    let mut archive =
        FileArchive::open(path).map_err(|e| SimError::from_archive(context.clone(), e))?;
    archive
        .expect_key(key)
        .map_err(|e| SimError::from_archive(context.clone(), e))?;
    names
        .iter()
        .map(|name| {
            let chunk_path = format!("{TRACES_GROUP}/{name}");
            let payload = archive
                .read(&chunk_path, kind::TRACE)
                .map_err(|e| SimError::from_archive(context.clone(), e))?;
            read_trace(payload.as_slice())
                .map_err(|e| SimError::from_io(format!("{context}:{chunk_path}"), e))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ThreadOp, ThreadTrace};

    fn sample(name: &str, threads: u64) -> KernelTrace {
        let mut k = KernelTrace::builder(name);
        for t in 0..threads {
            let mut tt = ThreadTrace::new();
            tt.push(ThreadOp::Alu {
                count: 1 + t as u32 % 3,
            });
            tt.push(ThreadOp::Load {
                addr: t * 64,
                bytes: 8,
            });
            k.push_thread(tt);
        }
        k.finish()
    }

    #[test]
    fn trace_archive_round_trips_in_memory_and_on_disk() {
        let hsu = sample("hsu", 8);
        let base = sample("base", 6);
        let pairs = [("hsu", &hsu), ("base", &base)];
        let bytes = encode_trace_archive("k1", &pairs).unwrap();
        let back = decode_trace_archive(&bytes, "k1", &["hsu", "base"]).unwrap();
        assert_eq!(back[0], hsu);
        assert_eq!(back[1], base);
        // Re-encoding the decoded traces reproduces the archive byte for
        // byte: the parity guarantee, end to end.
        let pairs2 = [("hsu", &back[0]), ("base", &back[1])];
        assert_eq!(encode_trace_archive("k1", &pairs2).unwrap(), bytes);

        let dir = std::env::temp_dir().join(format!("hsar-sim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.hsar");
        write_trace_archive(&path, "k1", &pairs).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let streamed = read_trace_archive(&path, "k1", &["base"]).unwrap();
        assert_eq!(streamed[0], base);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_mismatch_and_missing_name_are_trace_decode_errors() {
        let hsu = sample("hsu", 4);
        let bytes = encode_trace_archive("right-key", &[("hsu", &hsu)]).unwrap();
        let err = decode_trace_archive(&bytes, "wrong-key", &["hsu"]).unwrap_err();
        assert_eq!(err.kind(), "trace-decode");
        let err = decode_trace_archive(&bytes, "right-key", &["stripped"]).unwrap_err();
        assert_eq!(err.kind(), "trace-decode");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err =
            read_trace_archive(Path::new("/nonexistent/nope.hsar"), "k", &["hsu"]).unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
