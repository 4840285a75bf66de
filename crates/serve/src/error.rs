//! Typed serving errors — the engine refuses work it cannot take instead
//! of queueing without bound or panicking, and fails work it could not
//! finish with an error that names the fault class.

use std::fmt;

/// Why the engine rejected (or failed) a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine refused the query: either its admission queue is full
    /// past the submitting class's share, or adaptive SLO shedding kicked
    /// in (the engine's sliding-window p99 is over its SLO target, so
    /// low-priority work sheds before the queue is actually full).
    /// Open-loop callers should treat this as backpressure: shed the
    /// query or retry later.
    Overloaded {
        /// The admission-queue bound in force.
        capacity: usize,
    },
    /// The query does not fit the served index (wrong variant for the
    /// family, or wrong vector dimension).
    BadQuery(String),
    /// The query's deadline expired before a worker could serve it (or
    /// before the caller's `wait` saw a result). The query was dropped,
    /// never silently served late.
    DeadlineExceeded,
    /// The index panicked while serving this query's batch, or answered
    /// the batch with too few outputs to reach this query. The query was
    /// admitted but not answered; the worker went on to its next batch, so
    /// the engine keeps serving.
    WorkerCrashed,
    /// The index could not be opened (non-point dataset for a vector
    /// family, missing ANN metric, …). Opening never aborts the process.
    BadIndex(String),
}

impl ServeError {
    /// Stable lowercase tag naming the fault class — what harnesses and
    /// `servebench` count by.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::BadQuery(_) => "bad-query",
            ServeError::DeadlineExceeded => "deadline-exceeded",
            ServeError::WorkerCrashed => "worker-crashed",
            ServeError::BadIndex(_) => "bad-index",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "the engine shed the query (queue bound {capacity})")
            }
            ServeError::BadQuery(why) => write!(f, "bad query: {why}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before service"),
            ServeError::WorkerCrashed => write!(f, "a worker crashed while serving this batch"),
            ServeError::BadIndex(why) => write!(f, "bad index: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let all = [
            ServeError::Overloaded { capacity: 1 },
            ServeError::BadQuery("x".into()),
            ServeError::DeadlineExceeded,
            ServeError::WorkerCrashed,
            ServeError::BadIndex("x".into()),
        ];
        let kinds: Vec<_> = all.iter().map(ServeError::kind).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "kind tags must be distinct");
        assert_eq!(kinds[0], "overloaded");
        assert_eq!(kinds[2], "deadline-exceeded");
        assert_eq!(kinds[3], "worker-crashed");
    }
}
