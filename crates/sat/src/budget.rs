//! The run budget: the one handle that ends a run early.
//!
//! IC3 makes hundreds of thousands of small SAT queries, and a run may have
//! to end between or inside any of them: it is *cancelled* (a watchdog's
//! deadline passed, or a caller gave up), it runs *out of memory* (its byte
//! ledger crossed the limit), or an injected fault hits it (chaos testing).
//! [`ResourceBudget`] holds all three: one sticky "stopped" state that
//! records the first [`StopCause`], the byte ledger, and the run's
//! [`FaultPlan`]. Preprocessing, every engine and every SAT solver of a run
//! share one handle, and each polls [`ResourceBudget::is_stopped`] — one
//! relaxed atomic load — at its cancellation points. A stopped run unwinds
//! through the ordinary "interrupted query" path and surfaces as an
//! `Unknown` verdict carrying the cause; the process itself never dies.
//!
//! Charging is deliberately *advisory*: `charge` never fails and never blocks
//! an allocation that is already in flight. Components account for capacity
//! they have actually reserved (e.g. `Vec::capacity`, not `Vec::len`), so the
//! ledger tracks real allocator pressure, and the first poll after crossing
//! the limit aborts the search. The small overshoot between "crossed" and
//! "polled" is bounded by one allocation burst, which is exactly the slack a
//! supervisor must leave anyway.

use crate::fault::{FaultKind, FaultPlan, FaultSite, INJECTED_PANIC};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Why a [`ResourceBudget`] stopped its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StopCause {
    /// [`ResourceBudget::cancel`] was called (or an injected
    /// [`FaultKind::Cancel`] fired).
    Cancelled = 1,
    /// The ledger crossed the byte limit (or an injected
    /// [`FaultKind::MemOut`] fired).
    MemoryOut = 2,
}

/// The "stopped" state of a run that is still going.
const RUNNING: u8 = 0;

/// A shared, thread-safe run budget: cancellation, a byte ledger and a fault
/// plan behind one cheap `Arc`ed handle.
///
/// Every clone observes the same state. The default budget is *unlimited*
/// and inert: charging still tallies usage (useful for reporting) but never
/// stops the run, and no fault fires.
///
/// Stopping is **sticky** and the **first cause wins**: once the run is
/// cancelled or out of memory, [`ResourceBudget::stop_cause`] keeps that
/// cause even if usage later shrinks or the other cause follows. A query
/// abandoned halfway through is not resumable, so flapping around the limit
/// must not un-cancel it, and the cause reported is the one that actually
/// stopped the run.
///
/// # Example
///
/// ```
/// use plic3_sat::{ResourceBudget, StopCause};
///
/// let budget = ResourceBudget::with_limit(1024);
/// let shared = budget.clone();
/// shared.charge(1000);
/// assert!(!budget.is_stopped());
/// shared.charge(100);
/// assert_eq!(budget.stop_cause(), Some(StopCause::MemoryOut));
/// budget.cancel();
/// assert_eq!(shared.stop_cause(), Some(StopCause::MemoryOut), "first cause wins");
/// ```
#[derive(Clone)]
pub struct ResourceBudget {
    inner: Arc<BudgetInner>,
}

struct BudgetInner {
    /// Byte limit; `u64::MAX` means unlimited.
    limit: u64,
    /// Bytes currently charged.
    used: AtomicU64,
    /// [`RUNNING`], or the first [`StopCause`] recorded.
    stopped: AtomicU8,
    /// The run's fault-injection schedule (inert by default).
    faults: FaultPlan,
}

impl ResourceBudget {
    /// Creates an unlimited budget: usage is tallied but never stops the run.
    pub fn unlimited() -> Self {
        ResourceBudget::new(None, FaultPlan::inert())
    }

    /// Creates a budget of `bytes` bytes.
    pub fn with_limit(bytes: u64) -> Self {
        ResourceBudget::new(Some(bytes), FaultPlan::inert())
    }

    /// Creates a budget of `limit` bytes (`None` = unlimited) that fires the
    /// faults of `faults` at the sites polled through it.
    pub fn new(limit: Option<u64>, faults: FaultPlan) -> Self {
        ResourceBudget {
            inner: Arc::new(BudgetInner {
                limit: limit.unwrap_or(u64::MAX),
                used: AtomicU64::new(0),
                stopped: AtomicU8::new(RUNNING),
                faults,
            }),
        }
    }

    /// The configured limit, or `None` for an unlimited budget.
    fn limit(&self) -> Option<u64> {
        (self.inner.limit != u64::MAX).then_some(self.inner.limit)
    }

    /// Bytes currently charged across all clones.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Records `bytes` of additional usage; stops the run with
    /// [`StopCause::MemoryOut`] when the tally crosses the limit. Never fails
    /// and never blocks.
    pub fn charge(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let used = self.inner.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if used > self.inner.limit {
            self.stop(StopCause::MemoryOut);
        }
    }

    /// Releases `bytes` of previously charged usage. Stopping is sticky:
    /// uncharging below the limit does not resume the run.
    pub fn uncharge(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        // Saturate rather than wrap if a component double-releases; the
        // budget is advisory and must never panic in a drop path.
        let mut current = self.inner.used.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match self.inner.used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Returns `true` once the run is stopped, for either cause. One relaxed
    /// load: cheap enough for search-loop polling.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::Relaxed) != RUNNING
    }

    /// The first cause that stopped the run, or `None` while it runs.
    pub fn stop_cause(&self) -> Option<StopCause> {
        match self.inner.stopped.load(Ordering::Relaxed) {
            RUNNING => None,
            1 => Some(StopCause::Cancelled),
            _ => Some(StopCause::MemoryOut),
        }
    }

    /// Cancels the run from any thread; the current and every later query
    /// under this budget returns promptly. A run already stopped keeps its
    /// first cause.
    ///
    /// # Example
    ///
    /// ```
    /// use plic3_sat::{ResourceBudget, StopCause};
    ///
    /// let budget = ResourceBudget::unlimited();
    /// let shared = budget.clone();
    /// assert!(!budget.is_stopped());
    /// shared.cancel();
    /// assert_eq!(budget.stop_cause(), Some(StopCause::Cancelled), "all clones observe the cancellation");
    /// ```
    pub fn cancel(&self) {
        self.stop(StopCause::Cancelled);
    }

    /// Records `cause` unless the run is already stopped: the first cause
    /// wins.
    fn stop(&self, cause: StopCause) {
        let _ = self.inner.stopped.compare_exchange(
            RUNNING,
            cause as u8,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Records a visit to `site` and executes the fault the run's plan
    /// schedules there, if one is due: a panic carrying [`INJECTED_PANIC`], a
    /// memory-out or a cancellation. Compiles to nothing when the
    /// `fault-injection` feature is off.
    #[inline]
    pub fn poll_fault(&self, site: FaultSite) {
        match self.inner.faults.poll(site) {
            None => {}
            Some(FaultKind::Panic) => panic!("{INJECTED_PANIC} at {site:?}"),
            Some(FaultKind::MemOut) => self.stop(StopCause::MemoryOut),
            Some(FaultKind::Cancel) => self.cancel(),
        }
    }
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget::unlimited()
    }
}

impl fmt::Debug for ResourceBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceBudget")
            .field("limit", &self.limit())
            .field("used", &self.used())
            .field("stopped", &self.stop_cause())
            .field("faults", &self.inner.faults)
            .finish()
    }
}

/// Two budgets compare equal when they are in the same observable state and
/// share one fault plan. Identity is deliberately ignored, so that
/// configurations embedding a budget still compare equal regardless of which
/// runner created them.
impl PartialEq for ResourceBudget {
    fn eq(&self, other: &Self) -> bool {
        self.limit() == other.limit()
            && self.used() == other.used()
            && self.stop_cause() == other.stop_cause()
            && self.inner.faults == other.inner.faults
    }
}

impl Eq for ResourceBudget {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_tallies_but_never_trips() {
        let budget = ResourceBudget::unlimited();
        budget.charge(u64::MAX / 2);
        assert_eq!(budget.limit(), None);
        assert!(!budget.is_stopped());
        assert_eq!(budget.used(), u64::MAX / 2);
    }

    #[test]
    fn crossing_the_limit_trips_the_latch() {
        let budget = ResourceBudget::with_limit(100);
        budget.charge(100);
        assert!(!budget.is_stopped(), "exactly at the limit is fine");
        budget.charge(1);
        assert_eq!(budget.stop_cause(), Some(StopCause::MemoryOut));
    }

    #[test]
    fn exhaustion_is_sticky_across_uncharge() {
        let budget = ResourceBudget::with_limit(10);
        budget.charge(20);
        assert!(budget.is_stopped());
        budget.uncharge(20);
        assert_eq!(budget.used(), 0);
        assert_eq!(
            budget.stop_cause(),
            Some(StopCause::MemoryOut),
            "an abandoned query stays abandoned"
        );
    }

    #[test]
    fn uncharge_saturates_instead_of_wrapping() {
        let budget = ResourceBudget::unlimited();
        budget.charge(5);
        budget.uncharge(50);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = ResourceBudget::with_limit(8);
        let b = a.clone();
        b.charge(16);
        assert_eq!(a.stop_cause(), Some(StopCause::MemoryOut));
        assert_eq!(a.used(), 16);
    }

    #[test]
    fn a_cancellation_is_seen_by_every_clone() {
        let a = ResourceBudget::unlimited();
        let b = a.clone();
        a.cancel();
        assert_eq!(b.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn cancelling_from_another_thread_is_observed() {
        let budget = ResourceBudget::unlimited();
        let canceller = budget.clone();
        std::thread::spawn(move || canceller.cancel())
            .join()
            .expect("canceller thread");
        assert_eq!(budget.stop_cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn explicit_exhaust_works_on_unlimited_budgets() {
        let budget = ResourceBudget::unlimited();
        budget.stop(StopCause::MemoryOut);
        assert_eq!(budget.stop_cause(), Some(StopCause::MemoryOut));
    }

    #[test]
    fn exhaust_then_cancel_stays_a_memory_out() {
        let budget = ResourceBudget::with_limit(10);
        budget.charge(11);
        budget.cancel();
        assert_eq!(budget.stop_cause(), Some(StopCause::MemoryOut));
    }

    #[test]
    fn cancel_then_exhaust_stays_cancelled() {
        let budget = ResourceBudget::with_limit(10);
        budget.cancel();
        budget.charge(11);
        budget.stop(StopCause::MemoryOut);
        assert_eq!(budget.stop_cause(), Some(StopCause::Cancelled));
        assert_eq!(budget.used(), 11, "the ledger still tallies");
    }

    #[test]
    fn equality_ignores_identity() {
        let a = ResourceBudget::with_limit(64);
        let b = ResourceBudget::with_limit(64);
        assert_eq!(a, b);
        a.charge(10);
        assert_ne!(a, b);
        b.charge(10);
        assert_eq!(a, b);
    }

    #[test]
    fn equality_follows_the_stop_cause() {
        let a = ResourceBudget::unlimited();
        let b = ResourceBudget::unlimited();
        assert_eq!(a, b);
        a.cancel();
        assert_ne!(a, b);
        b.cancel();
        assert_eq!(a, b);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn each_fault_kind_fires_through_the_one_dispatch() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let kinds = [
            (FaultKind::Panic, None),
            (FaultKind::MemOut, Some(StopCause::MemoryOut)),
            (FaultKind::Cancel, Some(StopCause::Cancelled)),
        ];
        for (kind, cause) in kinds {
            let plan = FaultPlan::single(FaultSite::ArenaGc, kind, 1);
            let budget = ResourceBudget::new(None, plan.clone());
            budget.poll_fault(FaultSite::ArenaGc);
            budget.poll_fault(FaultSite::Propagate);
            assert!(!budget.is_stopped(), "{kind:?} fired before its visit");
            let fired = catch_unwind(AssertUnwindSafe(|| budget.poll_fault(FaultSite::ArenaGc)));
            match fired {
                Err(payload) => {
                    assert_eq!(kind, FaultKind::Panic);
                    let message = crate::panic_message(payload);
                    assert!(message.contains(INJECTED_PANIC), "{message}");
                    assert!(message.contains("ArenaGc"), "{message}");
                }
                Ok(()) => assert_ne!(kind, FaultKind::Panic, "the panic did not fire"),
            }
            assert_eq!(budget.stop_cause(), cause, "{kind:?}");
            assert_eq!(plan.fired(), [FaultSite::ArenaGc], "{kind:?} fired once");
            assert_eq!(plan.visits(FaultSite::ArenaGc), 2);
        }
    }
}
