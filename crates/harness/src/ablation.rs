//! Ablation study over the IC3 design knobs of [`Config`] (documented in
//! `docs/PAPER_MAPPING.md`): CTG generalization, literal ordering, core
//! shrinking of predicted lemmas.

use crate::report::{percent, TextTable};
use crate::runner::{run_cases, solve_ic3, CaseResult, ExperimentData, RunnerConfig};
use plic3::{Config, GeneralizeMode, LiteralOrdering, Statistics};
use plic3_benchmarks::{Benchmark, Suite};
use std::time::Duration;

/// One ablation variant: a named engine configuration.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Human-readable name of the variant.
    pub name: String,
    /// The engine configuration.
    pub config: Config,
}

/// The default set of ablation variants.
pub fn default_variants() -> Vec<Variant> {
    let base = Config::ric3_like().with_lemma_prediction(true);
    vec![
        Variant {
            name: "pl (default)".into(),
            config: base.clone(),
        },
        Variant {
            name: "pl, no CTG".into(),
            config: base.clone().with_generalize(GeneralizeMode::Mic),
        },
        Variant {
            name: "pl, parent-guided order".into(),
            config: base.clone().with_ordering(LiteralOrdering::ParentGuided),
        },
        Variant {
            name: "pl, shrink predicted".into(),
            config: Config {
                shrink_predicted: true,
                ..base.clone()
            },
        },
        Variant {
            name: "pl, no lifting".into(),
            config: Config {
                lift_predecessors: false,
                ..base.clone()
            },
        },
        Variant {
            name: "no prediction".into(),
            config: base.with_lemma_prediction(false),
        },
    ]
}

/// One row of the ablation report.
#[derive(Clone, Debug)]
pub struct Row {
    /// Variant name.
    pub name: String,
    /// Cases solved within the budget.
    pub solved: usize,
    /// Total runtime over all cases.
    pub total_time: Duration,
    /// Average `SR_adv` over cases where it is defined.
    pub avg_sr_adv: Option<f64>,
    /// Total number of relative-induction queries.
    pub relative_queries: u64,
    /// Of those, the queries the CTI cache answered without a SAT call.
    pub cached_ctis: u64,
}

/// The ablation report.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// One row per variant.
    pub rows: Vec<Row>,
    /// Every (variant, benchmark) case, variant-major, for the failure
    /// counters.
    pub data: ExperimentData<Statistics>,
}

/// Runs every variant over the suite on the case runner and collects the
/// report. Cases are judged like every other experiment's: a wrong verdict,
/// a failed certificate check or a contained crash shows up in
/// [`Ablation::data`].
pub fn run(suite: &Suite, variants: &[Variant], runner: &RunnerConfig) -> Ablation {
    // Variant-major, so each variant's cases are one contiguous chunk.
    let cases: Vec<(&Variant, &Benchmark)> = variants
        .iter()
        .flat_map(|variant| suite.iter().map(move |benchmark| (variant, benchmark)))
        .collect();
    let results = run_cases(
        &cases,
        runner.effective_workers(),
        runner,
        |&(_, benchmark)| (benchmark, Statistics::default()),
        |(variant, _), ts, setup| solve_ic3(ts, setup, variant.config.clone()),
    );
    let n = suite.len();
    let rows = variants
        .iter()
        .enumerate()
        .map(|(i, variant)| row(&variant.name, &results[i * n..(i + 1) * n]))
        .collect();
    Ablation {
        rows,
        data: ExperimentData {
            results,
            runner: Some(runner.clone()),
        },
    }
}

fn row(name: &str, cases: &[CaseResult<Statistics>]) -> Row {
    let adv: Vec<f64> = cases.iter().filter_map(|c| c.engine.sr_adv()).collect();
    Row {
        name: name.to_string(),
        solved: cases.iter().filter(|c| c.verdict.solved()).count(),
        total_time: cases.iter().map(|c| c.runtime).sum(),
        avg_sr_adv: (!adv.is_empty()).then(|| adv.iter().sum::<f64>() / adv.len() as f64),
        relative_queries: cases.iter().map(|c| c.engine.relative_queries).sum(),
        cached_ctis: cases.iter().map(|c| c.engine.cached_ctis).sum(),
    }
}

/// Renders the ablation report.
pub fn render(ablation: &Ablation) -> String {
    let mut text = TextTable::new(vec![
        "Variant".into(),
        "Solved".into(),
        "Total time (s)".into(),
        "Avg SR_adv".into(),
        "Relative queries".into(),
        "Solver calls".into(),
    ]);
    for row in &ablation.rows {
        text.add_row(vec![
            row.name.clone(),
            row.solved.to_string(),
            format!("{:.3}", row.total_time.as_secs_f64()),
            percent(row.avg_sr_adv),
            row.relative_queries.to_string(),
            (row.relative_queries - row.cached_ctis).to_string(),
        ]);
    }
    format!("Ablation study\n{}", text.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_all_variants_on_a_tiny_suite() {
        let suite = Suite::quick().filter(|b| matches!(b.family(), "ring"));
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let variants = default_variants();
        let report = run(&suite, &variants, &runner);
        assert_eq!(report.rows.len(), variants.len());
        assert_eq!(report.data.results.len(), suite.len() * variants.len());
        assert_eq!(report.data.wrong_verdicts(), 0);
        assert_eq!(report.data.cert_failures(), 0);
        for row in &report.rows {
            assert_eq!(row.solved, suite.len(), "{} failed to solve", row.name);
            assert!(row.relative_queries > 0);
            assert!(row.cached_ctis <= row.relative_queries, "{}", row.name);
        }
        // The prediction-free variant must not report a prediction rate.
        let no_pred = report
            .rows
            .iter()
            .find(|r| r.name == "no prediction")
            .expect("variant exists");
        assert!(no_pred.avg_sr_adv.is_none() || no_pred.avg_sr_adv == Some(0.0));
        let text = render(&report);
        assert!(text.contains("Ablation"));
        assert!(text.contains("pl (default)"));
        assert!(text.contains("Solver calls"));
    }
}
