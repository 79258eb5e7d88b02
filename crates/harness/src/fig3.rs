//! Figure 3 — per-case runtime scatter: base configuration vs. the same
//! configuration with lemma prediction.
//!
//! A point whose two runs made the same number of relative queries
//! (`Statistics::relative_queries`) is a **tie**: the runs did the same
//! work, so which one was faster is timer noise, not a win or a loss.

use crate::report::{seconds, TextTable};
use crate::{Configuration, ExperimentData};

/// One scatter point.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Benchmark instance name.
    pub benchmark: String,
    /// Measured runtime of the base configuration in seconds (a timed-out
    /// run reports how long it actually ran, not the budget).
    pub base_secs: f64,
    /// Runtime of the prediction-enabled configuration in seconds.
    pub pl_secs: f64,
    /// Whether the base configuration solved the case.
    pub base_solved: bool,
    /// Whether the prediction-enabled configuration solved the case.
    pub pl_solved: bool,
    /// Relative queries of the base configuration.
    pub base_queries: u64,
    /// Relative queries of the prediction-enabled configuration.
    pub pl_queries: u64,
}

impl Point {
    /// Returns `true` if both runs made the same number of relative queries.
    pub fn is_tie(&self) -> bool {
        self.base_queries == self.pl_queries
    }

    /// Returns `true` if the point is not a tie and lies below the diagonal,
    /// i.e. the prediction-enabled configuration was faster.
    pub fn below_diagonal(&self) -> bool {
        !self.is_tie() && self.pl_secs < self.base_secs
    }

    /// Returns `true` if the point is not a tie and the prediction-enabled
    /// configuration was not faster.
    pub fn above_diagonal(&self) -> bool {
        !self.is_tie() && self.pl_secs >= self.base_secs
    }
}

/// The scatter data of one base/prediction pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Scatter {
    /// The base configuration.
    pub base: Configuration,
    /// The prediction-enabled configuration.
    pub pl: Configuration,
    /// One point per benchmark instance present in both runs.
    pub points: Vec<Point>,
}

impl Scatter {
    /// The number of points that satisfy `pred`.
    pub fn count(&self, pred: impl Fn(&Point) -> bool) -> usize {
        self.points.iter().filter(|p| pred(p)).count()
    }

    /// Fraction of the points that are not ties which lie strictly below the
    /// diagonal (prediction faster); 0 when every point is a tie.
    pub fn fraction_below_diagonal(&self) -> f64 {
        let decided = self.points.len() - self.count(Point::is_tie);
        if decided == 0 {
            return 0.0;
        }
        self.count(Point::below_diagonal) as f64 / decided as f64
    }
}

/// The data behind Figure 3: one scatter per base/prediction pair present in
/// the experiment.
#[derive(Clone, Debug, Default)]
pub struct Fig3 {
    /// The scatters (RIC3 vs RIC3-pl and IC3ref vs IC3ref-pl in the paper).
    pub scatters: Vec<Scatter>,
}

/// Builds the Figure 3 data.
pub fn build(data: &ExperimentData) -> Fig3 {
    let pairs = data.prediction_pairs();
    let scatters = pairs
        .chunk_by(|a, b| a.1.configuration == b.1.configuration)
        .map(|group| Scatter {
            base: group[0].0.configuration,
            pl: group[0].1.configuration,
            points: group
                .iter()
                .map(|(base_result, pl_result)| Point {
                    benchmark: pl_result.benchmark.clone(),
                    base_secs: base_result.runtime_secs(),
                    pl_secs: pl_result.runtime_secs(),
                    base_solved: base_result.verdict.solved(),
                    pl_solved: pl_result.verdict.solved(),
                    base_queries: base_result.run.stats.relative_queries,
                    pl_queries: pl_result.run.stats.relative_queries,
                })
                .collect(),
        })
        .collect();
    Fig3 { scatters }
}

/// Renders the scatter data as per-pair tables.
pub fn render(fig: &Fig3) -> String {
    let mut out = String::from("Figure 3: runtime scatter, base vs. lemma prediction\n");
    for scatter in &fig.scatters {
        let ties = scatter.count(Point::is_tie);
        out.push_str(&format!(
            "\n{} vs {} ({} cases: {} below the diagonal, {} ties, {} above; \
             {:.1}% below the diagonal among the {} non-ties)\n",
            scatter.base.label(),
            scatter.pl.label(),
            scatter.points.len(),
            scatter.count(Point::below_diagonal),
            ties,
            scatter.count(Point::above_diagonal),
            100.0 * scatter.fraction_below_diagonal(),
            scatter.points.len() - ties
        ));
        let mut text = TextTable::new(vec![
            "benchmark".into(),
            format!("{} (s)", scatter.base.label()),
            format!("{} (s)", scatter.pl.label()),
            format!("{} queries", scatter.base.label()),
            format!("{} queries", scatter.pl.label()),
            "faster".into(),
        ]);
        for p in &scatter.points {
            let faster = if p.is_tie() {
                "tie"
            } else if p.below_diagonal() {
                "pl"
            } else {
                "base"
            };
            text.add_row(vec![
                p.benchmark.clone(),
                seconds(p.base_secs),
                seconds(p.pl_secs),
                p.base_queries.to_string(),
                p.pl_queries.to_string(),
                faster.into(),
            ]);
        }
        out.push_str(&text.render());
    }
    out
}

/// Renders the scatter data as CSV (all pairs concatenated, tagged by pair).
pub fn to_csv(fig: &Fig3) -> String {
    let mut text = TextTable::new(vec![
        "pair".into(),
        "benchmark".into(),
        "base_secs".into(),
        "pl_secs".into(),
        "base_solved".into(),
        "pl_solved".into(),
        "base_queries".into(),
        "pl_queries".into(),
    ]);
    for scatter in &fig.scatters {
        for p in &scatter.points {
            text.add_row(vec![
                format!("{}_vs_{}", scatter.base.label(), scatter.pl.label()),
                p.benchmark.clone(),
                format!("{}", p.base_secs),
                format!("{}", p.pl_secs),
                p.base_solved.to_string(),
                p.pl_solved.to_string(),
                p.base_queries.to_string(),
                p.pl_queries.to_string(),
            ]);
        }
    }
    text.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, RunnerConfig};
    use plic3_benchmarks::Suite;
    use std::time::Duration;

    #[test]
    fn scatter_pairs_base_with_prediction_runs() {
        let suite = Suite::quick().filter(|b| matches!(b.family(), "counter" | "lock"));
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let data = run_experiment(
            &suite,
            &[
                Configuration::Ric3,
                Configuration::Ric3Pl,
                Configuration::Ic3refCav23,
            ],
            &runner,
        );
        let fig = build(&data);
        assert_eq!(fig.scatters.len(), 1, "only the RIC3 pair is complete");
        let scatter = &fig.scatters[0];
        assert_eq!(scatter.base, Configuration::Ric3);
        assert_eq!(scatter.pl, Configuration::Ric3Pl);
        assert_eq!(scatter.points.len(), suite.len());
        let fraction = scatter.fraction_below_diagonal();
        assert!((0.0..=1.0).contains(&fraction));
        let text = render(&fig);
        assert!(text.contains("Figure 3"));
        assert!(text.contains("below the diagonal"));
        assert!(to_csv(&fig).starts_with("pair,benchmark,"));
    }

    #[test]
    fn empty_scatter_is_well_behaved() {
        let scatter = Scatter {
            base: Configuration::Ric3,
            pl: Configuration::Ric3Pl,
            points: Vec::new(),
        };
        assert_eq!(scatter.fraction_below_diagonal(), 0.0);
    }

    #[test]
    fn equal_query_counts_are_ties_whatever_the_times() {
        let point = |name: &str, secs: (f64, f64), queries: (u64, u64)| Point {
            benchmark: name.into(),
            base_secs: secs.0,
            pl_secs: secs.1,
            base_solved: true,
            pl_solved: true,
            base_queries: queries.0,
            pl_queries: queries.1,
        };
        let scatter = Scatter {
            base: Configuration::Ric3,
            pl: Configuration::Ric3Pl,
            points: vec![
                point("won", (0.2, 0.1), (90, 40)),
                point("won_more_queries", (0.3, 0.1), (40, 90)),
                point("tie_faster", (0.2, 0.1), (50, 50)),
                point("tie_slower", (0.1, 0.2), (50, 50)),
                point("lost", (0.1, 0.2), (40, 90)),
                point("lost_equal_time", (0.1, 0.1), (90, 40)),
            ],
        };
        assert_eq!(scatter.count(Point::below_diagonal), 2);
        assert_eq!(scatter.count(Point::is_tie), 2);
        assert_eq!(scatter.count(Point::above_diagonal), 2);
        assert_eq!(scatter.fraction_below_diagonal(), 0.5);
        let fig = Fig3 {
            scatters: vec![scatter],
        };
        let text = render(&fig);
        assert!(
            text.contains(
                "6 cases: 2 below the diagonal, 2 ties, 2 above; \
                 50.0% below the diagonal among the 4 non-ties"
            ),
            "{text}"
        );
        let csv = to_csv(&fig);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with(",base_queries,pl_queries"));
        assert!(csv.contains("RIC3_vs_RIC3-pl,tie_slower,0.1,0.2,true,true,50,50"));
    }
}
