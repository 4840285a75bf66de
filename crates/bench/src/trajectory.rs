//! Append-only JSON trajectory files (`BENCH_sim.json`).
//!
//! Every bench binary (`simbench`, `servebench`) records its
//! measurements by appending one [`Json`] entry to a shared JSON array,
//! so successive PRs accumulate history instead of erasing it. The
//! workspace deliberately has no serde: [`Json`] writes the few kinds of
//! value the entries hold, and [`obj!`](crate::obj) builds their objects.

use std::io::{Error, ErrorKind};
use std::path::Path;

/// A JSON value, held as its text. Strings are escaped per RFC 8259,
/// numbers have a fixed count of decimals so that an entry's text does
/// not depend on how floats print, and absent values are `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(String);

/// A JSON object from `key => value` pairs, in order; each value is
/// anything that converts into [`Json`].
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::trajectory::Json::object(vec![$(($key.into(), $value.into())),*])
    };
}

impl Json {
    /// `x` with `decimals` decimals, or `null` when it is not finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json(match x.is_finite() {
            true => format!("{x:.decimals$}"),
            false => "null".into(),
        })
    }

    /// An object of `fields` in order. It stays on one line unless a field
    /// holds a non-empty object; then it puts one field per line.
    pub fn object(fields: Vec<(String, Json)>) -> Json {
        let nested = fields
            .iter()
            .any(|(_, v)| v.0.starts_with('{') && v.0 != "{}");
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v.0.replace('\n', "\n  ")))
            .collect();
        Json(match (fields.is_empty(), nested) {
            (true, _) => "{}".into(),
            (false, true) => format!("{{\n  {}\n}}", fields.join(",\n  ")),
            (false, false) => format!("{{ {} }}", fields.join(", ")),
        })
    }
}

macro_rules! from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json(v.to_string())
            }
        }
    )*};
}

from_display!(bool, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json(quote(s))
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or_else(|| Json("null".into()), Into::into)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `s` as a JSON string literal: `"` and `\` backslash-escaped, control
/// characters as `\u00XX`.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Appends `entry` to the trajectory array at `path`, creating the file
/// when missing. Never erases prior entries.
///
/// # Errors
///
/// Propagates I/O errors from reading or writing `path`, and returns an
/// [`ErrorKind::InvalidData`] error, leaving the file untouched, when it
/// holds something other than a JSON array.
pub fn append_entry(path: &Path, entry: &Json) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => "[]".to_string(),
        read => read?,
    };
    let trimmed = existing.trim();
    let Some(body) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        let why = format!(
            "{} is not a JSON array; refusing to overwrite it",
            path.display()
        );
        return Err(Error::new(ErrorKind::InvalidData, why));
    };
    let body = body.trim().trim_end_matches(',');
    let sep = if body.is_empty() { "" } else { ",\n  " };
    let entry = entry.0.replace('\n', "\n  ");
    std::fs::write(path, format!("[\n  {body}{sep}{entry}\n]\n"))
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

        append_entry(&path, &obj! { "pr" => "a" }).unwrap();
        append_entry(&path, &obj! { "pr" => "b" }).unwrap();
        let got = std::fs::read_to_string(&path).unwrap();
        assert_eq!(got, "[\n  { \"pr\": \"a\" },\n  { \"pr\": \"b\" }\n]\n");

        // A file that is not an array is an error and keeps its bytes.
        for malformed in ["{ \"old\": 1 }\n", "not json at all\n"] {
            std::fs::write(&path, malformed).unwrap();
            let err = append_entry(&path, &obj! { "pr" => "c" }).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData);
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
    fn strings_are_escaped_per_rfc_8259() {
        let s = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\u000ad\u0001""#);
    }

    #[test]
    fn absent_and_non_finite_values_are_null() {
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(3u64)).to_string(), "3");
        assert_eq!(Json::fixed(f64::NAN, 3).to_string(), "null");
        assert_eq!(Json::fixed(f64::INFINITY, 1).to_string(), "null");
    }

    #[test]
    fn numbers_keep_their_fixed_decimals() {
        assert_eq!(Json::fixed(2.0, 6).to_string(), "2.000000");
        assert_eq!(Json::fixed(1021.37, 1).to_string(), "1021.4");
        assert_eq!(Json::fixed(2.0625, 3).to_string(), "2.062");
        assert_eq!(Json::from(u64::MAX).to_string(), u64::MAX.to_string());
    }

    #[test]
    fn flat_objects_stay_on_one_line_and_nested_ones_do_not() {
        let outer = obj! { "ok" => true, "inner" => obj! { "x" => 1u64, "e" => obj! {} } };
        assert_eq!(
            outer.to_string(),
            "{\n  \"ok\": true,\n  \"inner\": { \"x\": 1, \"e\": {} }\n}"
        );
    }
}
