//! Configuration of the IC3 engine.

use plic3_sat::ResourceBudget;
use std::time::{Duration, Instant};

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
    /// Maximum nesting depth of MIC's counterexample-to-generalization
    /// handling (`ctgDown`, Hassan, Bradley, Somenzi, FMCAD'13): when a drop
    /// fails, MIC tries to block the CTG one frame below before giving up on
    /// the drop. With 0, or with [`Config::max_ctgs`] 0, MIC runs plain
    /// `down`, each drop validated by relative-induction queries alone
    /// (Algorithm 1 of the paper, i.e. the original IC3 of Bradley).
    pub max_ctg_depth: usize,
    /// Maximum number of CTGs blocked per `down` call.
    pub max_ctgs: usize,
    /// Literal ordering used by MIC.
    pub ordering: LiteralOrdering,
    /// The run's shared budget, the only thing that ends a run early. It is
    /// polled between and *inside* SAT queries, its deadline at each SAT
    /// conflict and between queries. The frame solvers charge it for clause
    /// storage and the engine for its lemma store and CTI cache; it fires
    /// the faults of its fault plan (chaos testing). Once it is stopped,
    /// [`crate::Ic3::check`] returns [`crate::CheckResult::Unknown`] promptly
    /// with the first cause: [`crate::UnknownReason::Timeout`] when its
    /// deadline passed, [`crate::UnknownReason::Cancelled`] when it was
    /// cancelled, [`crate::UnknownReason::MemoryOut`] when it ran out of
    /// memory. Unlimited and without a deadline by default.
    pub budget: ResourceBudget,
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
            max_ctg_depth: 1,
            max_ctgs: 3,
            ordering: LiteralOrdering::Ascending,
            budget: ResourceBudget::unlimited(),
        }
    }

    /// An IC3ref-style configuration: plain MIC with descending literal order.
    pub fn ic3ref_like() -> Self {
        Config {
            max_ctg_depth: 0,
            max_ctgs: 0,
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
            max_ctg_depth: 2,
            max_ctgs: 5,
            ordering: LiteralOrdering::Ascending,
            ..Config::ric3_like()
        }
    }

    /// Returns a copy with the paper's lemma prediction enabled or disabled.
    pub fn with_lemma_prediction(mut self, enabled: bool) -> Self {
        self.lemma_prediction = enabled;
        self
    }

    /// Returns a copy whose budget's deadline is `max_time` from now (see
    /// [`ResourceBudget::set_deadline`]): the clock starts here, not at
    /// [`crate::Ic3::check`]. The deadline lives in the budget, so a later
    /// [`Config::with_budget`] replaces it.
    pub fn with_max_time(self, max_time: Duration) -> Self {
        if let Some(deadline) = Instant::now().checked_add(max_time) {
            self.budget.set_deadline(deadline);
        }
        self
    }

    /// Returns a copy wired to the given run budget.
    ///
    /// The budget is shared: the caller keeps a clone to cancel the run from
    /// any thread, to set its deadline and to read its memory tally, while
    /// the engine charges and polls it.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
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
        let ctg = |c: Config| (c.max_ctg_depth, c.max_ctgs);
        assert_eq!(ctg(Config::ric3_like()), (1, 3));
        assert_eq!(ctg(Config::ic3ref_like()), (0, 0), "plain down");
        assert_eq!(ctg(Config::cav23_like()), (0, 0), "plain down");
        assert_eq!(Config::cav23_like().ordering, LiteralOrdering::ParentGuided);
        assert_eq!(ctg(Config::pdr_like()), (2, 5));
        assert_eq!(Config::default(), Config::ric3_like());
    }

    #[test]
    fn builder_style_setters() {
        let cfg = Config::ric3_like().with_max_time(Duration::from_secs(3600));
        assert!(!cfg.budget.poll_deadline(), "an hour away");
        let cfg = Config::ric3_like().with_max_time(Duration::ZERO);
        assert!(cfg.budget.poll_deadline());
        assert_eq!(
            cfg.budget.stop_cause(),
            Some(plic3_sat::StopCause::Deadline)
        );
        let budget = ResourceBudget::unlimited();
        let cfg = Config::ric3_like().with_budget(budget.clone());
        budget.cancel();
        assert!(cfg.budget.is_stopped(), "the budget is shared");
    }
}
