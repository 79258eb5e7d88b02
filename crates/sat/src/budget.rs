//! Memory budgets: resource exhaustion as a solver verdict, not a crash.
//!
//! A production checker cannot let an adversarial instance grow the clause
//! arena until the allocator aborts the process. [`ResourceBudget`] turns the
//! memory ceiling into the same kind of cooperative signal as [`crate::StopFlag`]:
//! allocation-heavy components *charge* the budget as their backing storage
//! grows, and the solver *polls* [`ResourceBudget::is_exhausted`] at the same
//! places it polls the stop flag. An exceeded budget therefore unwinds through
//! the ordinary "interrupted query" path and surfaces as an `Unknown` verdict
//! carrying a memory-out reason — the process itself never dies.
//!
//! Charging is deliberately *advisory*: `charge` never fails and never blocks
//! an allocation that is already in flight. Components account for capacity
//! they have actually reserved (e.g. `Vec::capacity`, not `Vec::len`), so the
//! budget tracks real allocator pressure, and the first poll after crossing
//! the limit aborts the search. The small overshoot between "crossed" and
//! "polled" is bounded by one allocation burst, which is exactly the slack a
//! supervisor must leave anyway.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, thread-safe memory budget measured in bytes.
///
/// Like [`crate::StopFlag`], a `ResourceBudget` is a cheap `Arc`ed handle:
/// every clone observes the same accounting. The default budget is
/// *unlimited* — charging still tallies usage (useful for reporting) but
/// never trips exhaustion, so existing callers pay one relaxed atomic add on
/// a cold path and nothing more.
///
/// Exhaustion is **sticky**: once the tally crosses the limit (or
/// [`ResourceBudget::exhaust`] is called explicitly), `is_exhausted` stays
/// `true` even if usage later shrinks. A query abandoned halfway through is
/// not resumable, so flapping around the limit must not un-cancel it.
///
/// # Example
///
/// ```
/// use plic3_sat::ResourceBudget;
///
/// let budget = ResourceBudget::with_limit(1024);
/// let shared = budget.clone();
/// shared.charge(1000);
/// assert!(!budget.is_exhausted());
/// shared.charge(100);
/// assert!(budget.is_exhausted(), "all clones observe the same tally");
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
    /// Sticky exhaustion latch.
    exhausted: AtomicBool,
}

impl ResourceBudget {
    /// Creates an unlimited budget: usage is tallied but never trips.
    pub fn unlimited() -> Self {
        ResourceBudget::with_raw_limit(u64::MAX)
    }

    /// Creates a budget of `bytes` bytes.
    pub fn with_limit(bytes: u64) -> Self {
        ResourceBudget::with_raw_limit(bytes)
    }

    fn with_raw_limit(limit: u64) -> Self {
        ResourceBudget {
            inner: Arc::new(BudgetInner {
                limit,
                used: AtomicU64::new(0),
                exhausted: AtomicBool::new(false),
            }),
        }
    }

    /// The configured limit, or `None` for an unlimited budget.
    pub fn limit(&self) -> Option<u64> {
        (self.inner.limit != u64::MAX).then_some(self.inner.limit)
    }

    /// Bytes currently charged across all clones.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Records `bytes` of additional usage; trips the exhaustion latch when
    /// the tally crosses the limit. Never fails and never blocks.
    pub fn charge(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let used = self.inner.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if used > self.inner.limit {
            self.inner.exhausted.store(true, Ordering::Relaxed);
        }
    }

    /// Releases `bytes` of previously charged usage. Exhaustion is sticky:
    /// uncharging below the limit does not clear the latch.
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

    /// Returns `true` once the budget has been exceeded (or explicitly
    /// exhausted). Cheap enough for search-loop polling.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.inner.exhausted.load(Ordering::Relaxed)
    }

    /// Trips the exhaustion latch directly, regardless of the tally or the
    /// limit. Fault injection uses this to simulate memory pressure on
    /// budgets that are otherwise unlimited.
    pub fn exhaust(&self) {
        self.inner.exhausted.store(true, Ordering::Relaxed);
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
            .field("exhausted", &self.is_exhausted())
            .finish()
    }
}

/// Two budgets compare equal when they are in the same observable state.
/// Identity is deliberately ignored, mirroring [`crate::StopFlag`], so that
/// configurations embedding a budget still compare equal regardless of which
/// runner created them.
impl PartialEq for ResourceBudget {
    fn eq(&self, other: &Self) -> bool {
        self.limit() == other.limit()
            && self.used() == other.used()
            && self.is_exhausted() == other.is_exhausted()
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
        assert!(!budget.is_exhausted());
        assert_eq!(budget.used(), u64::MAX / 2);
    }

    #[test]
    fn crossing_the_limit_trips_the_latch() {
        let budget = ResourceBudget::with_limit(100);
        budget.charge(100);
        assert!(!budget.is_exhausted(), "exactly at the limit is fine");
        budget.charge(1);
        assert!(budget.is_exhausted());
    }

    #[test]
    fn exhaustion_is_sticky_across_uncharge() {
        let budget = ResourceBudget::with_limit(10);
        budget.charge(20);
        assert!(budget.is_exhausted());
        budget.uncharge(20);
        assert_eq!(budget.used(), 0);
        assert!(budget.is_exhausted(), "an abandoned query stays abandoned");
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
        assert!(a.is_exhausted());
        assert_eq!(a.used(), 16);
    }

    #[test]
    fn explicit_exhaust_works_on_unlimited_budgets() {
        let budget = ResourceBudget::unlimited();
        budget.exhaust();
        assert!(budget.is_exhausted());
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
}
