//! Append-only JSON trajectory files (`BENCH_sim.json`).
//!
//! Every bench binary (`simbench`, `servebench`) records its
//! measurements by appending one entry to a shared JSON array, so
//! successive PRs accumulate history instead of erasing it. The JSON is
//! hand-rolled: the workspace deliberately has no serde.

use std::path::Path;

/// Escapes a string for embedding in a JSON string literal (control
/// characters are replaced, not escaped — labels are ASCII in practice).
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => "?".chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Appends one entry (a serialized JSON object, typically indented two
/// spaces) to the trajectory array at `path`, creating the file when
/// missing. Never erases prior entries.
///
/// # Errors
///
/// Propagates I/O errors from reading or writing `path`, and returns an
/// [`std::io::ErrorKind::InvalidData`] error, leaving the file untouched,
/// when it holds something other than a JSON array.
pub fn append_entry(path: &Path, entry: &str) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let trimmed = existing.trim();
    let json = if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(body) = trimmed
        .strip_suffix(']')
        .filter(|body| body.starts_with('['))
    {
        let body = body.trim_end().trim_end_matches(',');
        if body.trim() == "[" {
            format!("[\n{entry}\n]\n")
        } else {
            format!("{body},\n{entry}\n]\n")
        }
    } else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{} is not a JSON array; refusing to overwrite it",
                path.display()
            ),
        ));
    };
    std::fs::write(path, json)
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MiB, or `None` where that file does not exist (non-Linux hosts).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows_an_array_and_refuses_anything_else() {
        let dir = std::env::temp_dir().join(format!("hsu-traj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let _ = std::fs::remove_file(&path);

        append_entry(&path, "  { \"pr\": \"a\" }").unwrap();
        append_entry(&path, "  { \"pr\": \"b\" }").unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got.matches("\"pr\"").count(), 2);
        assert!(got.trim_start().starts_with('[') && got.trim_end().ends_with(']'));

        // A file that is not an array is an error and keeps its bytes.
        for malformed in ["{ \"old\": 1 }\n", "not json at all\n"] {
            std::fs::write(&path, malformed).unwrap();
            let err = append_entry(&path, "  { \"pr\": \"c\" }").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read_to_string(&path).unwrap(), malformed);
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_read_where_procfs_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x?y");
    }
}
