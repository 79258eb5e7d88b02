//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded schedule of artificial failures — panics,
//! simulated memory exhaustion, spurious cancellations — that fire at named
//! [`FaultSite`]s inside the solver and the engines above it. The chaos test
//! suite replays hundreds of seeded schedules and asserts that every one of
//! them degrades into a reported verdict: zero wrong answers, zero hangs,
//! zero process aborts.
//!
//! The entire mechanism is **compiled away** unless the `fault-injection`
//! cargo feature is enabled: with the feature off, [`FaultPlan`] is a
//! zero-sized token and [`FaultPlan::poll`] is an `#[inline(always)]` `None`,
//! so the injection points in the solver hot path cost nothing in production
//! builds. With the feature on, each scheduled fault carries a countdown
//! ("fire on the *n*-th visit to this site"); visits are counted with shared
//! atomics so the plan of a case's [`crate::ResourceBudget`], which
//! preprocessing and every solver of the case share, fires each fault
//! exactly once, whichever of them reaches it first.

#[cfg(feature = "fault-injection")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "fault-injection")]
use std::sync::Arc;

/// Places in the checker where a scheduled fault can fire.
///
/// The sites are chosen to cover every layer that holds interesting state:
/// the SAT hot path, the solver's one maintenance phase that moves clauses
/// (arena compaction), and the preprocessing pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Entry of the unit-propagation loop (the hottest solver path).
    Propagate,
    /// Just before a clause-arena garbage collection.
    ArenaGc,
    /// Once per preprocessing run in `plic3-prep`, before its analysis.
    Prep,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 3] = [FaultSite::Propagate, FaultSite::ArenaGc, FaultSite::Prep];
}

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with [`INJECTED_PANIC`] in the payload — exercises
    /// `catch_unwind` containment.
    Panic,
    /// Stop the run's [`crate::ResourceBudget`] out of memory — exercises
    /// the graceful memory-out unwind.
    MemOut,
    /// Cancel the run's [`crate::ResourceBudget`] — exercises spurious
    /// cancellation.
    Cancel,
}

/// Panic-payload marker for injected panics, so tests (and the harness's
/// crash reports) can tell an injected fault from a real bug.
pub const INJECTED_PANIC: &str = "plic3 injected fault";

/// Renders a panic payload caught by `catch_unwind` as text (the standard
/// payloads are `&str` and `String`; anything else gets a placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(feature = "fault-injection")]
#[derive(Debug)]
struct ScheduledFault {
    site: FaultSite,
    kind: FaultKind,
    /// Fire on the visit that makes the hit counter exceed this value.
    after: u64,
    hits: AtomicU64,
    fired: AtomicBool,
}

#[cfg(feature = "fault-injection")]
#[derive(Debug)]
struct PlanInner {
    seed: u64,
    schedule: Vec<ScheduledFault>,
    /// Visits per site, indexed by `FaultSite as usize`.
    visits: [AtomicU64; 3],
}

/// A seeded schedule of injected faults; inert unless the `fault-injection`
/// feature is enabled.
///
/// A run carries its plan inside its [`crate::ResourceBudget`], whose
/// [`crate::ResourceBudget::poll_fault`] executes the faults. Plans are cheap
/// `Arc`ed handles: every clone shares the hit counters, so each scheduled
/// fault fires at most once across all of them.
///
/// # Example
///
/// ```
/// use plic3_sat::{FaultPlan, FaultSite};
///
/// let plan = FaultPlan::seeded(42, &[(FaultSite::ArenaGc, 4)]);
/// // With the feature off this is always None; with it on, the seed decides.
/// let _ = plan.poll(FaultSite::ArenaGc);
/// ```
#[derive(Clone, Default)]
pub struct FaultPlan {
    #[cfg(feature = "fault-injection")]
    inner: Option<Arc<PlanInner>>,
}

impl FaultPlan {
    /// A plan that never fires (the default).
    pub fn inert() -> Self {
        FaultPlan::default()
    }

    /// Derives a schedule of one to four faults from `seed`. Each fault
    /// fires at a site drawn from `spans`, on a visit drawn below that site's
    /// span: a span equal to the visits a run makes lands faults early,
    /// mid-flight and late in it. With no spans the plan schedules nothing
    /// and only counts visits.
    ///
    /// With the `fault-injection` feature off this returns an inert plan —
    /// the seed is ignored and the injection points stay free.
    #[cfg(feature = "fault-injection")]
    pub fn seeded(seed: u64, spans: &[(FaultSite, u64)]) -> Self {
        use plic3_logic::SplitMix64;

        const KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::MemOut, FaultKind::Cancel];

        let mut rng = SplitMix64::new(seed);
        let count = if spans.is_empty() {
            0
        } else {
            1 + rng.below(4) as usize
        };
        let schedule = (0..count)
            .map(|_| {
                let (site, span) = spans[rng.below(spans.len() as u64) as usize];
                let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
                ScheduledFault {
                    site,
                    kind,
                    after: rng.below(span),
                    hits: AtomicU64::new(0),
                    fired: AtomicBool::new(false),
                }
            })
            .collect();
        FaultPlan {
            inner: Some(Arc::new(PlanInner {
                seed,
                schedule,
                visits: Default::default(),
            })),
        }
    }

    /// Feature-off stub of [`FaultPlan::seeded`]: the plan is inert.
    #[cfg(not(feature = "fault-injection"))]
    pub fn seeded(_seed: u64, _spans: &[(FaultSite, u64)]) -> Self {
        FaultPlan::inert()
    }

    /// A plan with exactly one fault: `kind` fires on visit `after` (0-based)
    /// to `site`. The precision tool for targeted robustness tests.
    #[cfg(feature = "fault-injection")]
    pub fn single(site: FaultSite, kind: FaultKind, after: u64) -> Self {
        FaultPlan {
            inner: Some(Arc::new(PlanInner {
                seed: 0,
                schedule: vec![ScheduledFault {
                    site,
                    kind,
                    after,
                    hits: AtomicU64::new(0),
                    fired: AtomicBool::new(false),
                }],
                visits: Default::default(),
            })),
        }
    }

    /// Feature-off stub of [`FaultPlan::single`]: the plan is inert.
    #[cfg(not(feature = "fault-injection"))]
    pub fn single(_site: FaultSite, _kind: FaultKind, _after: u64) -> Self {
        FaultPlan::inert()
    }

    /// The sites of the scheduled faults that have fired, in schedule order
    /// (always empty without the feature).
    pub fn fired(&self) -> Vec<FaultSite> {
        #[cfg(feature = "fault-injection")]
        {
            if let Some(inner) = &self.inner {
                return inner
                    .schedule
                    .iter()
                    .filter(|f| f.fired.load(Ordering::Relaxed))
                    .map(|f| f.site)
                    .collect();
            }
        }
        Vec::new()
    }

    /// The visits to `site` across every clone of this plan so far (always
    /// zero without the feature).
    pub fn visits(&self, site: FaultSite) -> u64 {
        #[cfg(feature = "fault-injection")]
        {
            if let Some(inner) = &self.inner {
                return inner.visits[site as usize].load(Ordering::Relaxed);
            }
        }
        let _ = site;
        0
    }

    /// Records a visit to `site` and returns the fault to execute, if one is
    /// due. Compiles to a constant `None` when the feature is off.
    #[cfg(feature = "fault-injection")]
    #[inline]
    pub fn poll(&self, site: FaultSite) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        inner.visits[site as usize].fetch_add(1, Ordering::Relaxed);
        for fault in &inner.schedule {
            if fault.site != site {
                continue;
            }
            let hits = fault.hits.fetch_add(1, Ordering::Relaxed);
            if hits >= fault.after
                && fault
                    .fired
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(fault.kind);
            }
        }
        None
    }

    /// Feature-off stub of [`FaultPlan::poll`]: always `None`, always inlined
    /// away.
    #[cfg(not(feature = "fault-injection"))]
    #[inline(always)]
    pub fn poll(&self, _site: FaultSite) -> Option<FaultKind> {
        None
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[cfg(feature = "fault-injection")]
        {
            if let Some(inner) = &self.inner {
                return f
                    .debug_struct("FaultPlan")
                    .field("seed", &inner.seed)
                    .field("faults", &inner.schedule.len())
                    .finish();
            }
        }
        f.debug_struct("FaultPlan").field("inert", &true).finish()
    }
}

/// Plans compare by schedule identity (inert plans are all equal; seeded
/// plans are equal when they share the same `Arc`). This keeps configurations
/// embedding a plan comparable without making equality depend on mutable
/// countdown state.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        #[cfg(feature = "fault-injection")]
        {
            match (&self.inner, &other.inner) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            let _ = other;
            true
        }
    }
}

impl Eq for FaultPlan {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::inert();
        for _ in 0..100 {
            assert_eq!(plan.poll(FaultSite::Propagate), None);
            assert_eq!(plan.poll(FaultSite::ArenaGc), None);
        }
        assert!(plan.fired().is_empty());
        assert_eq!(plan.visits(FaultSite::Propagate), 0);
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn feature_off_seeded_plans_are_inert() {
        // The default-build guarantee: a seeded plan is indistinguishable
        // from no plan at all, so injection points compile to nothing.
        let plan = FaultPlan::seeded(12345, &[(FaultSite::Propagate, 1)]);
        for site in FaultSite::ALL {
            assert_eq!(plan.poll(site), None);
            assert_eq!(plan.visits(site), 0);
        }
        assert!(plan.fired().is_empty());
        assert_eq!(plan, FaultPlan::inert());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn seeded_plans_are_deterministic_and_fire_once() {
        let spans = [(FaultSite::Propagate, 50_000), (FaultSite::Prep, 1)];
        let a = FaultPlan::seeded(7, &spans);
        let b = FaultPlan::seeded(7, &spans);
        let drive = |plan: &FaultPlan| {
            let mut fired = Vec::new();
            for round in 0..50_000u64 {
                for site in FaultSite::ALL {
                    if let Some(kind) = plan.poll(site) {
                        fired.push((round, site, kind));
                    }
                }
            }
            fired
        };
        let fa = drive(&a);
        let fb = drive(&b);
        assert_eq!(fa, fb, "same seed, same fault stream");
        assert!(!fa.is_empty(), "a seeded plan schedules at least one fault");
        assert!(
            fa.iter().all(|&(_, site, _)| site != FaultSite::ArenaGc),
            "only sites with a span are scheduled"
        );
        assert_eq!(a.fired().len(), fa.len(), "every fault fired exactly once");
        assert_eq!(drive(&a), Vec::new(), "no refiring");
        for site in FaultSite::ALL {
            assert_eq!(a.visits(site), 100_000, "every visit counted");
        }
        // Without spans nothing is scheduled; visits are still counted.
        let census = FaultPlan::seeded(7, &[]);
        assert_eq!(drive(&census), Vec::new());
        assert_eq!(census.visits(FaultSite::ArenaGc), 50_000);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn single_fires_at_the_requested_visit() {
        let plan = FaultPlan::single(FaultSite::Prep, FaultKind::Panic, 2);
        assert_eq!(plan.poll(FaultSite::Prep), None);
        assert_eq!(plan.poll(FaultSite::ArenaGc), None, "other sites ignored");
        assert_eq!(plan.poll(FaultSite::Prep), None);
        assert_eq!(plan.poll(FaultSite::Prep), Some(FaultKind::Panic));
        assert_eq!(plan.poll(FaultSite::Prep), None);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn clones_share_the_countdown() {
        let plan = FaultPlan::single(FaultSite::ArenaGc, FaultKind::Cancel, 1);
        let clone = plan.clone();
        assert_eq!(plan.poll(FaultSite::ArenaGc), None);
        assert_eq!(clone.poll(FaultSite::ArenaGc), Some(FaultKind::Cancel));
        assert_eq!(plan.poll(FaultSite::ArenaGc), None, "fired for all clones");
    }
}
