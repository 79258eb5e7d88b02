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
//! atomics so a plan cloned into preprocessing and several solvers of one
//! case fires each fault exactly once, whichever clone reaches it first.

#[cfg(feature = "fault-injection")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "fault-injection")]
use std::sync::Arc;

/// Places in the checker where a scheduled fault can fire.
///
/// The sites are chosen to cover every layer that holds interesting state:
/// the SAT hot path, the solver's maintenance phases, and the preprocessing
/// pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Entry of the unit-propagation loop (the hottest solver path).
    Propagate,
    /// A restart boundary, where the learnt-clause limit grows.
    Restart,
    /// Just before a clause-arena garbage collection.
    ArenaGc,
    /// Between preprocessing rounds in `plic3-prep`.
    PrepRound,
}

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with [`INJECTED_PANIC`] in the payload — exercises
    /// `catch_unwind` containment.
    Panic,
    /// Trip the [`crate::ResourceBudget`] exhaustion latch — exercises the
    /// graceful memory-out unwind.
    MemOut,
    /// Raise the [`crate::StopFlag`] — exercises spurious cancellation.
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
}

/// A seeded schedule of injected faults; inert unless the `fault-injection`
/// feature is enabled.
///
/// Plans are cheap `Arc`ed handles like [`crate::StopFlag`]: cloning a plan
/// into several solvers shares the hit counters, so each scheduled fault
/// fires at most once across all of them.
///
/// # Example
///
/// ```
/// use plic3_sat::{FaultPlan, FaultSite};
///
/// let plan = FaultPlan::seeded(42);
/// // With the feature off this is always None; with it on, the seed decides.
/// let _ = plan.poll(FaultSite::Restart);
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

    /// Derives a schedule of one to four faults from `seed`.
    ///
    /// With the `fault-injection` feature off this returns an inert plan —
    /// the seed is ignored and the injection points stay free.
    #[cfg(feature = "fault-injection")]
    pub fn seeded(seed: u64) -> Self {
        use plic3_logic::SplitMix64;

        const SITES: [FaultSite; 4] = [
            FaultSite::Propagate,
            FaultSite::Restart,
            FaultSite::ArenaGc,
            FaultSite::PrepRound,
        ];
        const KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::MemOut, FaultKind::Cancel];

        let mut rng = SplitMix64::new(seed);
        let count = 1 + rng.below(4) as usize;
        let schedule = (0..count)
            .map(|_| {
                let site = SITES[rng.below(SITES.len() as u64) as usize];
                let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
                // Countdown spans matched to how often each site is visited,
                // so faults land early, mid-flight and late in a run.
                let span = match site {
                    FaultSite::Propagate => 50_000,
                    FaultSite::Restart => 16,
                    FaultSite::ArenaGc => 4,
                    FaultSite::PrepRound => 4,
                };
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
            inner: Some(Arc::new(PlanInner { seed, schedule })),
        }
    }

    /// Feature-off stub of [`FaultPlan::seeded`]: the plan is inert.
    #[cfg(not(feature = "fault-injection"))]
    pub fn seeded(_seed: u64) -> Self {
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
            })),
        }
    }

    /// Feature-off stub of [`FaultPlan::single`]: the plan is inert.
    #[cfg(not(feature = "fault-injection"))]
    pub fn single(_site: FaultSite, _kind: FaultKind, _after: u64) -> Self {
        FaultPlan::inert()
    }

    /// Returns `true` when this plan can still fire at least one fault.
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        {
            if let Some(inner) = &self.inner {
                return inner
                    .schedule
                    .iter()
                    .any(|f| !f.fired.load(Ordering::Relaxed));
            }
        }
        false
    }

    /// Records a visit to `site` and returns the fault to execute, if one is
    /// due. Compiles to a constant `None` when the feature is off.
    #[cfg(feature = "fault-injection")]
    #[inline]
    pub fn poll(&self, site: FaultSite) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
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
        assert!(!plan.is_active());
        for _ in 0..100 {
            assert_eq!(plan.poll(FaultSite::Propagate), None);
            assert_eq!(plan.poll(FaultSite::Restart), None);
        }
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn feature_off_seeded_plans_are_inert() {
        // The default-build guarantee: a seeded plan is indistinguishable
        // from no plan at all, so injection points compile to nothing.
        let plan = FaultPlan::seeded(12345);
        assert!(!plan.is_active());
        for site in [
            FaultSite::Propagate,
            FaultSite::Restart,
            FaultSite::ArenaGc,
            FaultSite::PrepRound,
        ] {
            assert_eq!(plan.poll(site), None);
        }
        assert_eq!(plan, FaultPlan::inert());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn seeded_plans_are_deterministic_and_fire_once() {
        let a = FaultPlan::seeded(7);
        let b = FaultPlan::seeded(7);
        let sites = [
            FaultSite::Propagate,
            FaultSite::Restart,
            FaultSite::ArenaGc,
            FaultSite::PrepRound,
        ];
        let drive = |plan: &FaultPlan| {
            let mut fired = Vec::new();
            for round in 0..200_000u64 {
                for site in sites {
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
        assert!(!a.is_active(), "every fault fired exactly once");
        assert_eq!(drive(&a), Vec::new(), "no refiring");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn single_fires_at_the_requested_visit() {
        let plan = FaultPlan::single(FaultSite::PrepRound, FaultKind::Panic, 2);
        assert_eq!(plan.poll(FaultSite::PrepRound), None);
        assert_eq!(plan.poll(FaultSite::Restart), None, "other sites ignored");
        assert_eq!(plan.poll(FaultSite::PrepRound), None);
        assert_eq!(plan.poll(FaultSite::PrepRound), Some(FaultKind::Panic));
        assert_eq!(plan.poll(FaultSite::PrepRound), None);
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
