//! Request-deadline propagation for served calls.
//!
//! A served request may carry an `x-mqo-deadline-ms` header: an absolute
//! point (on the process-wide monotonic timebase shared by every
//! [`mqo_obs::MonotonicClock`]) past which nobody is waiting for the
//! answer. The serving layer installs that point here, in a thread-local,
//! before running the request's queries on its handler thread; the
//! resilience layer consults it on every model call and fails fast —
//! without touching the transport, so nothing is metered — once the
//! point has passed.
//!
//! A thread-local fits the serving architecture exactly: each admitted
//! request runs inline on one handler thread under its admission seat, so
//! the deadline never needs to cross threads, and the model stack (which
//! is shared and deliberately ignorant of requests) needs no per-call
//! plumbing. Batch runs never install a deadline and are unaffected.

use std::cell::Cell;

thread_local! {
    static REQUEST_DEADLINE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Install `deadline_micros` (absolute, monotonic timebase) as the
/// current thread's request deadline for the guard's lifetime. Nesting
/// restores the previous deadline on drop.
pub fn with_request_deadline(deadline_micros: u64) -> DeadlineGuard {
    let previous = REQUEST_DEADLINE.with(|d| d.replace(Some(deadline_micros)));
    DeadlineGuard { previous }
}

/// The current thread's request deadline, if one is installed.
pub fn request_deadline_micros() -> Option<u64> {
    REQUEST_DEADLINE.with(|d| d.get())
}

/// Whether the current thread's request deadline has passed as of
/// `now_micros` (false when no deadline is installed).
pub fn request_deadline_expired(now_micros: u64) -> bool {
    matches!(request_deadline_micros(), Some(d) if now_micros >= d)
}

/// RAII guard restoring the previous thread-local deadline on drop.
#[must_use = "the deadline is uninstalled when the guard drops"]
pub struct DeadlineGuard {
    previous: Option<u64>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        REQUEST_DEADLINE.with(|d| d.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_installs_and_uninstalls_with_the_guard() {
        assert_eq!(request_deadline_micros(), None);
        {
            let _g = with_request_deadline(1_000);
            assert_eq!(request_deadline_micros(), Some(1_000));
            assert!(!request_deadline_expired(999));
            assert!(request_deadline_expired(1_000));
            assert!(request_deadline_expired(2_000));
        }
        assert_eq!(request_deadline_micros(), None);
        assert!(!request_deadline_expired(u64::MAX));
    }

    #[test]
    fn nested_guards_restore_the_outer_deadline() {
        let _outer = with_request_deadline(5_000);
        {
            let _inner = with_request_deadline(2_000);
            assert_eq!(request_deadline_micros(), Some(2_000));
        }
        assert_eq!(request_deadline_micros(), Some(5_000));
    }
}
