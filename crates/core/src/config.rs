//! Configuration of the IC3 engine.

use plic3_sat::{FaultPlan, ResourceBudget, StopFlag};
use std::time::Duration;

/// How blocked cubes are generalized into lemmas.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeneralizeMode {
    /// Plain MIC: drop literals one at a time, each drop validated by a single
    /// relative-induction query (Algorithm 1 of the paper, i.e. the original
    /// IC3 of Bradley).
    Mic,
    /// MIC with counterexamples-to-generalization (Hassan, Bradley, Somenzi,
    /// FMCAD'13): when a drop fails, try to block the CTG one frame below
    /// before giving up on the drop.
    CtgDown {
        /// Maximum recursion depth of nested CTG handling.
        max_depth: usize,
        /// Maximum number of CTGs blocked per `down` call.
        max_ctgs: usize,
    },
}

/// The order in which MIC attempts to drop literals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LiteralOrdering {
    /// Ascending variable order (used by [`Config::ric3_like`] and
    /// [`Config::pdr_like`]).
    Ascending,
    /// Descending variable order (used by [`Config::ic3ref_like`]).
    Descending,
    /// The CAV'23 heuristic of Xia et al. ("Searching for i-Good Lemmas"): drop
    /// literals that do **not** occur in any subsumed lemma of the previous
    /// frame first, to increase the chance the result propagates.
    ParentGuided,
}

/// Resource budgets for one [`crate::Ic3::check`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Limits {
    /// Wall-clock budget; `None` means unlimited.
    pub max_time: Option<Duration>,
    /// Total SAT-conflict budget across all queries; `None` means unlimited.
    pub max_conflicts: Option<u64>,
}

/// Configuration of the IC3 engine.
///
/// The presets correspond to the configurations evaluated in the paper:
/// [`Config::ric3_like`] and [`Config::ic3ref_like`] are the two baselines,
/// [`Config::with_lemma_prediction`] switches the paper's CTP-based lemma
/// prediction on (giving `RIC3-pl` / `IC3ref-pl`), [`Config::cav23_like`]
/// approximates `IC3ref-CAV23`, and [`Config::pdr_like`] stands in for
/// `ABC-PDR`.
///
/// # Example
///
/// ```
/// use plic3::Config;
/// let cfg = Config::ric3_like().with_lemma_prediction(true);
/// assert!(cfg.lemma_prediction);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Config {
    /// Enable the paper's CTP-based lemma prediction (Algorithm 2).
    pub lemma_prediction: bool,
    /// Generalization strategy.
    pub generalize: GeneralizeMode,
    /// Literal ordering used by MIC.
    pub ordering: LiteralOrdering,
    /// Resource budgets.
    pub limits: Limits,
    /// Shared cooperative-cancellation flag, polled between and *inside* SAT
    /// queries. Raising it (typically from the harness's watchdog thread)
    /// makes [`crate::Ic3::check`] return
    /// [`crate::CheckResult::Unknown`] promptly.
    pub stop: StopFlag,
    /// Shared memory budget, plumbed like [`Config::stop`]: the frame
    /// solvers charge it for clause storage and the engine charges it for the
    /// frame lemma store. Exhausting it makes [`crate::Ic3::check`] return
    /// [`crate::CheckResult::Unknown`] with
    /// [`crate::UnknownReason::MemoryOut`] instead of growing until the
    /// allocator aborts. Unlimited by default.
    pub budget: ResourceBudget,
    /// Deterministic fault-injection plan for chaos testing; inert unless the
    /// `fault-injection` cargo feature is enabled (see
    /// [`plic3_sat::FaultPlan`]).
    pub faults: FaultPlan,
}

impl Default for Config {
    fn default() -> Self {
        Config::ric3_like()
    }
}

impl Config {
    /// The default RIC3-style configuration: CTG generalization, ascending
    /// literal order, no lemma prediction.
    pub fn ric3_like() -> Self {
        Config {
            lemma_prediction: false,
            generalize: GeneralizeMode::CtgDown {
                max_depth: 1,
                max_ctgs: 3,
            },
            ordering: LiteralOrdering::Ascending,
            limits: Limits::default(),
            stop: StopFlag::new(),
            budget: ResourceBudget::unlimited(),
            faults: FaultPlan::inert(),
        }
    }

    /// An IC3ref-style configuration: plain MIC with descending literal order.
    pub fn ic3ref_like() -> Self {
        Config {
            generalize: GeneralizeMode::Mic,
            ordering: LiteralOrdering::Descending,
            ..Config::ric3_like()
        }
    }

    /// An approximation of the CAV'23 "i-Good Lemmas" configuration of Xia et
    /// al.: IC3ref-style generalization with parent-guided literal ordering.
    pub fn cav23_like() -> Self {
        Config {
            ordering: LiteralOrdering::ParentGuided,
            ..Config::ic3ref_like()
        }
    }

    /// An ABC-PDR-style configuration: aggressive CTG generalization.
    pub fn pdr_like() -> Self {
        Config {
            generalize: GeneralizeMode::CtgDown {
                max_depth: 2,
                max_ctgs: 5,
            },
            ordering: LiteralOrdering::Ascending,
            ..Config::ric3_like()
        }
    }

    /// Returns a copy with the paper's lemma prediction enabled or disabled.
    pub fn with_lemma_prediction(mut self, enabled: bool) -> Self {
        self.lemma_prediction = enabled;
        self
    }

    /// Returns a copy with the given wall-clock budget.
    pub fn with_max_time(mut self, max_time: Duration) -> Self {
        self.limits.max_time = Some(max_time);
        self
    }

    /// Returns a copy with the given total SAT-conflict budget.
    pub fn with_max_conflicts(mut self, max_conflicts: u64) -> Self {
        self.limits.max_conflicts = Some(max_conflicts);
        self
    }

    /// Returns a copy wired to the given cancellation flag.
    ///
    /// The flag is shared: raising it from any clone (e.g. a watchdog thread)
    /// interrupts the engine owning this configuration.
    pub fn with_stop_flag(mut self, stop: StopFlag) -> Self {
        self.stop = stop;
        self
    }

    /// Returns a copy wired to the given shared memory budget.
    ///
    /// The budget handle is shared like the stop flag: the caller can keep a
    /// clone for reporting while the engine charges and polls it.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns a copy wired to the given fault-injection plan (inert unless
    /// the `fault-injection` feature is on).
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_the_documented_ways() {
        assert!(!Config::ric3_like().lemma_prediction);
        assert!(
            Config::ric3_like()
                .with_lemma_prediction(true)
                .lemma_prediction
        );
        assert_eq!(Config::ic3ref_like().generalize, GeneralizeMode::Mic);
        assert_eq!(Config::cav23_like().ordering, LiteralOrdering::ParentGuided);
        assert!(matches!(
            Config::pdr_like().generalize,
            GeneralizeMode::CtgDown { max_ctgs: 5, .. }
        ));
        assert_eq!(Config::default(), Config::ric3_like());
    }

    #[test]
    fn builder_style_setters() {
        let cfg = Config::ric3_like()
            .with_max_time(Duration::from_secs(5))
            .with_max_conflicts(1_000_000);
        assert_eq!(cfg.limits.max_time, Some(Duration::from_secs(5)));
        assert_eq!(cfg.limits.max_conflicts, Some(1_000_000));
    }
}
