//! Run statistics, including the success rates reported in Table 2 of the paper.

use std::fmt;
use std::time::Duration;

/// Counters collected during an [`crate::Ic3::check`] run.
///
/// The four counters of Section 4.3 of the paper are tracked explicitly so the
/// harness can compute the same success rates:
///
/// * `N_g`  — [`Statistics::generalizations`], total generalization calls,
/// * `N_p`  — [`Statistics::predictions`], SAT queries spent validating
///   predicted lemmas,
/// * `N_sp` — [`Statistics::successful_predictions`], predictions that produced
///   a lemma (and therefore skipped literal dropping),
/// * `N_fp` — [`Statistics::found_failed_parents`], generalizations for which a
///   failed-push parent lemma (and hence a CTP) was available.
///
/// The derived rates are `SR_lp = N_sp / N_p`, `SR_fp = N_fp / N_g` and
/// `SR_adv = N_sp / N_g`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Statistics {
    /// `N_g`: number of calls to the generalization procedure.
    pub generalizations: u64,
    /// `N_p`: number of SAT queries made while validating predicted lemmas.
    pub predictions: u64,
    /// `N_sp`: number of generalizations resolved by a successful prediction.
    pub successful_predictions: u64,
    /// `N_fp`: number of generalizations that found a failed-push parent lemma.
    pub found_failed_parents: u64,
    /// Number of relative-induction queries `sat(F_i ∧ ¬c ∧ T ∧ c′)`, for
    /// every purpose, whether the frame solver or the CTI cache answered them.
    pub relative_queries: u64,
    /// Number of relative-induction queries answered by a recorded CTI
    /// instead of a SAT call (a subset of `relative_queries`).
    pub cached_ctis: u64,
    /// Number of SAT queries used to lift predecessor states.
    pub lift_queries: u64,
    /// Number of bad states found: SAT answers of the bad-state query
    /// `sat(F_i ∧ bad ∧ constraints)`.
    pub bad_states: u64,
    /// Number of latch literals the bad-state lift removed, summed over the
    /// bad states (each one removes at most the number of latches).
    pub bad_literals_lifted: u64,
    /// Number of literal-drop attempts during MIC.
    pub mic_drop_attempts: u64,
    /// Number of literal-drop attempts that succeeded.
    pub mic_drops: u64,
    /// Number of counterexamples to generalization blocked by `ctgDown`.
    pub ctg_blocked: u64,
    /// Number of proof obligations processed by the blocking phase.
    pub obligations: u64,
    /// Number of lemmas added to the frames.
    pub lemmas_added: u64,
    /// Number of lemmas pushed forward during propagation phases.
    pub lemmas_propagated: u64,
    /// Number of push failures recorded in the `failure_push` table.
    pub push_failures_recorded: u64,
    /// Highest frame level reached.
    pub max_level: usize,
    /// Aggregated SAT-solver conflicts across all frame solvers.
    pub sat_conflicts: u64,
    /// Total wall-clock time of the run.
    pub runtime: Duration,
    /// Wall-clock time spent inside generalization (including prediction).
    pub generalize_time: Duration,
    /// Bytes charged against the run's [`plic3_sat::ResourceBudget`] when the
    /// run ended (clause arenas, learnt DBs, the frame lemma store). For a
    /// run that ended in `Unknown(MemoryOut)` this is the figure that tripped
    /// the budget.
    pub memory_used: u64,
    /// The budget's byte limit, if one was configured (`None` = unlimited).
    pub memory_limit: Option<u64>,
    /// Number of lemma clauses in the final invariant certificate (zero unless
    /// the run ended `Safe`).
    pub certificate_lemmas: u64,
}

impl Statistics {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lemma-prediction success rate `SR_lp = N_sp / N_p`.
    ///
    /// Returns `None` when no prediction query was ever made.
    pub fn sr_lp(&self) -> Option<f64> {
        ratio(self.successful_predictions, self.predictions)
    }

    /// The failed-parent discovery rate `SR_fp = N_fp / N_g`.
    ///
    /// Returns `None` when no generalization was performed.
    pub fn sr_fp(&self) -> Option<f64> {
        ratio(self.found_failed_parents, self.generalizations)
    }

    /// The rate of generalizations that avoided dropping variables,
    /// `SR_adv = N_sp / N_g`.
    ///
    /// Returns `None` when no generalization was performed.
    pub fn sr_adv(&self) -> Option<f64> {
        ratio(self.successful_predictions, self.generalizations)
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

impl fmt::Display for Statistics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "level={} lemmas={} obligations={} relative_queries={} cached_ctis={}",
            self.max_level,
            self.lemmas_added,
            self.obligations,
            self.relative_queries,
            self.cached_ctis
        )?;
        writeln!(
            f,
            "bad_states={} bad_literals_lifted={}",
            self.bad_states, self.bad_literals_lifted
        )?;
        writeln!(
            f,
            "generalizations={} predictions={} successful_predictions={} found_failed_parents={}",
            self.generalizations,
            self.predictions,
            self.successful_predictions,
            self.found_failed_parents
        )?;
        if self.certificate_lemmas > 0 {
            writeln!(f, "certificate_lemmas={}", self.certificate_lemmas)?;
        }
        write!(
            f,
            "SR_lp={} SR_fp={} SR_adv={} runtime={:.3}s",
            fmt_rate(self.sr_lp()),
            fmt_rate(self.sr_fp()),
            fmt_rate(self.sr_adv()),
            self.runtime.as_secs_f64()
        )
    }
}

fn fmt_rate(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.2}%", 100.0 * r),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_match_the_paper_definitions() {
        let stats = Statistics {
            generalizations: 200,
            predictions: 100,
            successful_predictions: 40,
            found_failed_parents: 80,
            ..Statistics::new()
        };
        assert!((stats.sr_lp().expect("defined") - 0.40).abs() < 1e-12);
        assert!((stats.sr_fp().expect("defined") - 0.40).abs() < 1e-12);
        assert!((stats.sr_adv().expect("defined") - 0.20).abs() < 1e-12);
    }

    #[test]
    fn rates_are_none_when_denominator_is_zero() {
        let stats = Statistics::new();
        assert_eq!(stats.sr_lp(), None);
        assert_eq!(stats.sr_fp(), None);
        assert_eq!(stats.sr_adv(), None);
    }

    #[test]
    fn display_reports_the_key_counters() {
        let stats = Statistics {
            generalizations: 10,
            predictions: 5,
            successful_predictions: 2,
            relative_queries: 30,
            cached_ctis: 12,
            bad_states: 4,
            bad_literals_lifted: 9,
            ..Statistics::new()
        };
        let text = stats.to_string();
        assert!(text.contains("bad_states=4 bad_literals_lifted=9"));
        assert!(text.contains("generalizations=10"));
        assert!(text.contains("relative_queries=30 cached_ctis=12"));
        assert!(text.contains("SR_lp=40.00%"));
        assert!(text.contains("SR_adv=20.00%"));
        assert!(text.contains("SR_fp=n/a") || text.contains("SR_fp=0.00%"));
    }
}
