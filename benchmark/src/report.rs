//! What a workload run reports, and how it is printed.
//!
//! Every metric prints as one `workload metric value unit` line. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the same data, plus the spans of a
//! traced run, is written to a JSON file.

use std::fmt::Write as _;

use crate::spans::{self, Span};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, such as `s`, `us` or `count`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part (simulations or queries).
    pub attempted: u64,
    /// Of those, the ones that failed (errored, shed or refused).
    pub failed: u64,
    /// Failed correctness checks; empty means correct.
    pub errors: Vec<String>,
    /// The metrics of this run: end-to-end when untraced, per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Reported values that are not metrics (digests, tail percentiles
    /// with their sample counts).
    pub info: Vec<(String, String)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds a non-metric line.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The human-readable lines: info, metrics, then failed checks.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(out, "{workload} {k} {v}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{workload} {} {} {}", m.name, m.value, m.unit);
        }
        for e in &self.errors {
            let _ = writeln!(out, "{workload} CHECK FAILED: {e}");
        }
        out
    }

    /// The one-line result object.
    pub fn summary_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record written to the output file.
    pub fn file_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        format!(
            "{{\n\"workload\": \"{workload}\",\n\"seed\": {seed},\n\"traced\": {traced},\n\
             \"result\": {},\n\"info\": {{{}}},\n\"errors\": [{}],\n\"spans\": {}\n}}\n",
            self.summary_json(),
            info.join(", "),
            errors.join(", "),
            spans::to_json(&self.spans)
        )
    }
}

/// A JSON number; non-finite values (never expected) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` (0..=1) of `xs`, in any order; 0 for none.
///
/// The host this benchmark was calibrated on runs a fixed loop at one of
/// two speeds, about 1.6× apart, switching every second or so. A low
/// quantile of repetitions is the fast-state time; a median lands in
/// either state.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(rank(v.len(), q)).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile `p` (0..=1) of sorted values; 0 for none.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted.get(rank(sorted.len(), p)).copied().unwrap_or(0)
}

/// The nearest-rank index of quantile `q` among `len` sorted values.
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len.max(1)) - 1
}

/// For each metric name in `runs[0]`, the median of its values over all
/// runs, in first-run order.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            metric(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// Resets this process's peak resident set size to its current size, so
/// that [`peak_rss_mb`] reads the peak of what runs next. Where the
/// platform cannot, the peak stays the process-wide one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.1), 1.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.9), 5.0);
        assert_eq!(
            quantile(&(1..=20).map(f64::from).collect::<Vec<_>>(), 0.1),
            2.0
        );
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        let runs = vec![
            vec![metric("a", 1.0, "s"), metric("b", 10.0, "s")],
            vec![metric("a", 3.0, "s"), metric("b", 30.0, "s")],
            vec![metric("a", 2.0, "s"), metric("b", 20.0, "s")],
        ];
        assert_eq!(
            median_metrics(&runs),
            vec![metric("a", 2.0, "s"), metric("b", 20.0, "s")]
        );
    }

    #[test]
    fn summary_is_one_json_line() {
        let mut o = Outcome {
            attempted: 3,
            metrics: vec![metric("setup_s", 0.25, "s")],
            ..Outcome::default()
        };
        assert_eq!(
            o.summary_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "boom".into());
        assert!(o.summary_json().starts_with("{\"correct\": false"));
        assert!(o.lines("w").contains("w CHECK FAILED: boom"));
    }
}
