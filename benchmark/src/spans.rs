//! In-memory span recording for traced runs.
//!
//! A span brackets one call into a crate's public function: its name, its
//! start and end on the run's clock, the span that caused it and the
//! request it belongs to. Spans are kept in memory and written out when
//! the run ends. An untraced run uses a disabled [`Tracer`], which calls
//! the same closures and records nothing.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request (set-up repetition, measured iteration) it serves.
    pub request: u64,
    /// Layer name, such as `graph.build`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span recorder; spans from worker threads may overlap.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// (0 when disabled) to parent its own children.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        request: u64,
        name: &str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span recorder holder panicked")
            .push(Span {
                id,
                parent,
                request,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder holder panicked")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Nanoseconds of `span` not covered by any of its direct children.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| {
            (
                s.start_ns.max(span.start_ns),
                s.end_ns.min(span.end_ns).max(span.start_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.len_ns() - covered
}

/// Summed duration, in seconds, of the spans named `name` under `root`
/// (direct children only).
pub fn child_s(spans: &[Span], root: u64, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == name)
        .map(|s| s.len_ns() as f64 / 1e9)
        .fold(0.0, |a, b| a + b)
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n  {{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 10, 20),
            span(5, Some(1), 90, 120),
        ];
        // Children cover [10, 60) and [90, 100): 60 of 100 ns.
        assert_eq!(self_ns(&spans[0], &spans), 40);
        assert_eq!(self_ns(&spans[1], &spans), 20);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(None, 0, "a", |id| id + 5), 5);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span(None, 3, "outer", |id| t.span(Some(id), 3, "inner", |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(inner));
        assert!(to_json(&spans).contains("\"name\": \"inner\""));
    }
}
