//! Cooperative cancellation of long-running solver calls.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, thread-safe cancellation flag.
///
/// A `StopFlag` is a cheap handle (an [`Arc`]ed atomic) that can be cloned
/// into an engine configuration and raised from another thread; every clone
/// observes the same flag. The SAT solver polls it inside its search loop, so
/// raising the flag interrupts even a single long-running query: the solver
/// returns [`crate::SatResult::Unknown`] and the engines above it surface the
/// cancellation as an "unknown" verdict.
///
/// The case runner of the experiment harness uses this to enforce
/// per-case wall-clock timeouts: a watchdog thread raises the flag of every
/// case whose deadline has passed.
///
/// # Example
///
/// ```
/// use plic3_sat::StopFlag;
///
/// let flag = StopFlag::new();
/// let shared = flag.clone();
/// assert!(!flag.is_stopped());
/// shared.stop();
/// assert!(flag.is_stopped(), "all clones observe the same flag");
/// ```
#[derive(Clone, Default)]
pub struct StopFlag {
    stopped: Arc<AtomicBool>,
}

impl StopFlag {
    /// Creates a fresh, unraised flag.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Raises the flag. All clones observe the change.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// Returns `true` once any clone has called [`StopFlag::stop`].
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for StopFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StopFlag")
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

/// Two flags compare equal when they are in the same state. Identity is
/// deliberately ignored so that configurations embedding a `StopFlag` still
/// compare equal regardless of which runner created them.
impl PartialEq for StopFlag {
    fn eq(&self, other: &Self) -> bool {
        self.is_stopped() == other.is_stopped()
    }
}

impl Eq for StopFlag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = StopFlag::new();
        let b = a.clone();
        a.stop();
        assert!(b.is_stopped());
    }

    #[test]
    fn equality_ignores_identity() {
        let a = StopFlag::new();
        let b = StopFlag::new();
        assert_eq!(a, b);
        a.stop();
        assert_ne!(a, b);
        b.stop();
        assert_eq!(a, b);
    }

    #[test]
    fn raising_from_another_thread_is_observed() {
        let flag = StopFlag::new();
        let raiser = flag.clone();
        std::thread::spawn(move || raiser.stop())
            .join()
            .expect("raiser thread");
        assert!(flag.is_stopped());
    }
}
