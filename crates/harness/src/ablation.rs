//! Ablation study over the IC3 design knobs of [`Config`] (documented in
//! `docs/PAPER_MAPPING.md`): CTG generalization, literal ordering, core
//! shrinking of predicted lemmas.

use crate::report::{percent, TextTable};
use crate::RunnerConfig;
use plic3::{Config, GeneralizeMode, Ic3, LiteralOrdering};
use plic3_benchmarks::Suite;
use plic3_prep::preprocess;
use plic3_ts::TransitionSystem;
use std::time::{Duration, Instant};

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
}

/// The ablation report.
#[derive(Clone, Debug, Default)]
pub struct Ablation {
    /// One row per variant.
    pub rows: Vec<Row>,
}

/// Runs every variant over the suite and collects the report.
pub fn run(suite: &Suite, variants: &[Variant], runner: &RunnerConfig) -> Ablation {
    let mut rows = Vec::new();
    for variant in variants {
        let mut solved = 0usize;
        let mut total_time = Duration::ZERO;
        let mut adv = Vec::new();
        let mut queries = 0u64;
        for benchmark in suite {
            let started = Instant::now();
            // Same pipeline as the portfolio runner: preprocessing (when
            // enabled) runs inside the measured window, and its cost is
            // deducted from the engine's wall-clock budget so a case never
            // exceeds `runner.timeout` overall.
            let mut prep_time = Duration::ZERO;
            let ts = if runner.preprocess {
                let prep = preprocess(benchmark.aig());
                prep_time = prep.stats.prep_time;
                TransitionSystem::from_aig(&prep.aig)
            } else {
                benchmark.ts()
            };
            let mut config = variant
                .config
                .clone()
                .with_max_time(runner.timeout.saturating_sub(prep_time));
            config.limits.max_conflicts = runner.max_conflicts;
            let mut engine = Ic3::new(ts, config);
            let result = engine.check();
            total_time += started.elapsed();
            if !result.is_unknown() {
                solved += 1;
            }
            if let Some(rate) = engine.statistics().sr_adv() {
                adv.push(rate);
            }
            queries += engine.statistics().relative_queries;
        }
        let avg_sr_adv = if adv.is_empty() {
            None
        } else {
            Some(adv.iter().sum::<f64>() / adv.len() as f64)
        };
        rows.push(Row {
            name: variant.name.clone(),
            solved,
            total_time,
            avg_sr_adv,
            relative_queries: queries,
        });
    }
    Ablation { rows }
}

/// Renders the ablation report.
pub fn render(ablation: &Ablation) -> String {
    let mut text = TextTable::new(vec![
        "Variant".into(),
        "Solved".into(),
        "Total time (s)".into(),
        "Avg SR_adv".into(),
        "Relative queries".into(),
    ]);
    for row in &ablation.rows {
        text.add_row(vec![
            row.name.clone(),
            row.solved.to_string(),
            format!("{:.3}", row.total_time.as_secs_f64()),
            percent(row.avg_sr_adv),
            row.relative_queries.to_string(),
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
        for row in &report.rows {
            assert_eq!(row.solved, suite.len(), "{} failed to solve", row.name);
            assert!(row.relative_queries > 0);
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
    }
}
