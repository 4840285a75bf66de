//! Completion handles for submitted queries.
//!
//! A [`Ticket`] is redeemed by blocking on it ([`Ticket::wait`], or
//! [`Ticket::wait_timed`] to learn when the worker finished). The engine
//! fulfills the ticket from a shard worker and wakes the parked waiter,
//! which observes the single result.
//!
//! Tickets carry their submission's deadline: `wait`/`wait_timed` stop
//! blocking once it passes (returning `ServeError::DeadlineExceeded`), so
//! a caller is never parked beyond the latency budget it declared.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::error::ServeError;
use crate::index::QueryOutput;

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// A poisoned serve mutex means some thread panicked while holding it.
/// Index panics are caught outside every engine lock, so this takes an
/// engine bug; even then the protected state (queues, result slots) is
/// push/pop-consistent at every instant, so the data is still valid and
/// the lock keeps serving instead of cascading the panic into every
/// submitter.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One query's result slot.
#[derive(Debug, Default)]
struct Slot {
    result: Option<Result<QueryOutput, ServeError>>,
    /// When the worker fulfilled the slot — lets a latency harness that
    /// redeems tickets in submission order still measure true per-query
    /// completion times, free of head-of-line waiting skew.
    completed: Option<Instant>,
}

/// Shared completion state between the engine and the ticket holder.
#[derive(Debug, Default)]
pub(crate) struct TicketState {
    slot: Mutex<Slot>,
    done: Condvar,
    /// The submission's absolute deadline, if one was declared.
    deadline: Option<Instant>,
}

impl TicketState {
    /// State for a submission with an optional deadline.
    pub(crate) fn with_deadline(deadline: Option<Instant>) -> Self {
        TicketState {
            deadline,
            ..Default::default()
        }
    }

    /// The submission's deadline, if any.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Stores the result and wakes the waiter — first write wins, later
    /// writes are dropped. Returns whether this call won.
    ///
    /// Idempotency matters for crash recovery: a panicking worker fails
    /// its whole in-flight batch, and must not clobber entries it had
    /// already answered.
    pub(crate) fn try_fulfill(&self, result: Result<QueryOutput, ServeError>) -> bool {
        {
            let mut slot = lock_recover(&self.slot);
            if slot.result.is_some() {
                return false;
            }
            slot.result = Some(result);
            slot.completed = Some(Instant::now());
        }
        self.done.notify_all();
        true
    }

    /// Stores the result, asserting (in debug builds) nobody beat us.
    pub(crate) fn fulfill(&self, result: Result<QueryOutput, ServeError>) {
        let won = self.try_fulfill(result);
        debug_assert!(won, "ticket fulfilled twice");
    }
}

/// A claim on one submitted query's eventual result.
///
/// Obtain one from `Engine::submit`/`Engine::try_submit`; redeem it with
/// [`Ticket::wait`] or [`Ticket::wait_timed`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    state: Arc<TicketState>,
}

impl Ticket {
    pub(crate) fn new(id: u64, state: Arc<TicketState>) -> Self {
        Self { id, state }
    }

    /// The engine-assigned submission id — globally ordered, so callers
    /// can fold result hashes in submission order regardless of
    /// completion order.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The submission's absolute deadline, if one was declared.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline()
    }

    /// Blocks until the query completes — or, when the submission
    /// carried a deadline, until that deadline passes, in which case it
    /// returns [`ServeError::DeadlineExceeded`] instead of blocking on.
    /// A result that is already present is always returned, even past
    /// the deadline.
    pub fn wait(self) -> Result<QueryOutput, ServeError> {
        self.wait_timed().0
    }

    /// Like [`Ticket::wait`], but also returns the instant the worker
    /// fulfilled the query — the end point a latency harness should
    /// measure against, even when it redeems tickets in submission order
    /// long after they completed. Deadline expiry reports the expiry
    /// instant.
    pub fn wait_timed(self) -> (Result<QueryOutput, ServeError>, Instant) {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(r) = slot.result.take() {
                let at = slot.completed.unwrap_or_else(Instant::now);
                return (r, at);
            }
            match self.state.deadline {
                None => {
                    slot = self
                        .state
                        .done
                        .wait(slot)
                        .unwrap_or_else(|p| p.into_inner())
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return (Err(ServeError::DeadlineExceeded), now);
                    }
                    let (guard, _) = self
                        .state
                        .done
                        .wait_timeout(slot, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    slot = guard;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wait_returns_a_prior_fulfillment() {
        let state = Arc::new(TicketState::default());
        state.fulfill(Ok(QueryOutput::Value(Some(9))));
        let t = Ticket::new(0, state);
        assert_eq!(t.wait(), Ok(QueryOutput::Value(Some(9))));
    }

    #[test]
    fn wait_wakes_on_a_cross_thread_fulfillment() {
        let state = Arc::new(TicketState::default());
        let t = Ticket::new(1, Arc::clone(&state));
        let worker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            state.fulfill(Ok(QueryOutput::Value(None)));
        });
        assert_eq!(t.wait(), Ok(QueryOutput::Value(None)));
        worker.join().expect("fulfiller panicked");
    }

    #[test]
    fn first_fulfillment_wins() {
        let state = Arc::new(TicketState::default());
        assert!(state.try_fulfill(Ok(QueryOutput::Value(Some(1)))));
        assert!(!state.try_fulfill(Err(ServeError::WorkerCrashed { shard: 0 })));
        let t = Ticket::new(3, state);
        assert_eq!(t.wait(), Ok(QueryOutput::Value(Some(1))));
    }

    #[test]
    fn wait_expires_at_the_deadline_instead_of_blocking() {
        let state = Arc::new(TicketState::with_deadline(Some(
            Instant::now() + Duration::from_millis(30),
        )));
        let t = Ticket::new(4, state);
        let t0 = Instant::now();
        let (result, at) = t.wait_timed();
        assert_eq!(result, Err(ServeError::DeadlineExceeded));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "wait_timed blocked far past the deadline"
        );
        assert!(at >= t0, "expiry instant is the observation time");
    }

    #[test]
    fn wait_past_the_deadline_resolves_deadline_exceeded() {
        let state = Arc::new(TicketState::with_deadline(Some(
            Instant::now() - Duration::from_millis(1),
        )));
        let t = Ticket::new(5, state);
        assert_eq!(t.wait(), Err(ServeError::DeadlineExceeded));
    }

    #[test]
    fn a_present_result_beats_the_deadline() {
        let state = Arc::new(TicketState::with_deadline(Some(
            Instant::now() - Duration::from_millis(1),
        )));
        state.fulfill(Ok(QueryOutput::Value(Some(7))));
        let t = Ticket::new(6, state);
        assert_eq!(
            t.wait(),
            Ok(QueryOutput::Value(Some(7))),
            "late results are delivered, not dropped, once fulfilled"
        );
    }
}
