//! Figure 4 — runtime improvement vs. the success rate of avoiding dropped
//! variables (`SR_adv`), with the cumulative count of improved cases.

use crate::report::{percent, TextTable};
use crate::{Configuration, ExperimentData};
use std::time::Duration;

/// One case of the Figure 4 analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Benchmark instance name.
    pub benchmark: String,
    /// The prediction-enabled configuration the point belongs to.
    pub configuration: Configuration,
    /// The per-case `SR_adv` of the prediction-enabled run (the x axis).
    pub sr_adv: f64,
    /// `runtime(base) / runtime(prediction)` — values above 1 mean the
    /// prediction-enabled run was faster (the left y axis).
    pub runtime_ratio: f64,
    /// Cumulative number of improved cases among all points with `SR_adv` less
    /// than or equal to this one (the right y axis).
    pub cumulative_improved: usize,
}

/// The data behind Figure 4.
#[derive(Clone, Debug, Default)]
pub struct Fig4 {
    /// Points sorted by increasing `SR_adv`.
    pub points: Vec<Point>,
    /// Cases dropped because both runs were faster than the threshold or both
    /// hit the budget (as in the paper).
    pub filtered_out: usize,
}

impl Fig4 {
    /// The Pearson correlation between `SR_adv` and the runtime ratio, if it is
    /// defined (needs at least two points with non-zero variance).
    pub fn correlation(&self) -> Option<f64> {
        let n = self.points.len();
        if n < 2 {
            return None;
        }
        let xs: Vec<f64> = self.points.iter().map(|p| p.sr_adv).collect();
        let ys: Vec<f64> = self.points.iter().map(|p| p.runtime_ratio).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = (mean(&xs), mean(&ys));
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for i in 0..n {
            cov += (xs[i] - mx) * (ys[i] - my);
            vx += (xs[i] - mx).powi(2);
            vy += (ys[i] - my).powi(2);
        }
        if vx == 0.0 || vy == 0.0 {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }

    /// Number of cases where prediction improved the runtime.
    pub fn improved_cases(&self) -> usize {
        self.points.iter().filter(|p| p.runtime_ratio > 1.0).count()
    }
}

/// Cases where both members of a base/prediction pair finish faster than this
/// are dropped from the Figure 4 analysis. The paper uses 1 s; the generated
/// suite's cases are far smaller.
pub const FAST_CASE_THRESHOLD: Duration = Duration::from_millis(10);

/// Builds the Figure 4 data.
///
/// As in the paper, cases where both members of the base/prediction pair hit
/// the budget or both finished faster than `fast_threshold` are ignored.
pub fn build(data: &ExperimentData, fast_threshold: Duration) -> Fig4 {
    let mut raw: Vec<Point> = Vec::new();
    let mut filtered_out = 0usize;
    for (base_result, pl_result) in data.prediction_pairs() {
        let both_unknown = !pl_result.verdict.solved() && !base_result.verdict.solved();
        let both_fast =
            pl_result.run.runtime < fast_threshold && base_result.run.runtime < fast_threshold;
        if both_unknown || both_fast {
            filtered_out += 1;
            continue;
        }
        let Some(sr_adv) = pl_result.run.stats.sr_adv() else {
            filtered_out += 1;
            continue;
        };
        let pl_secs = pl_result.runtime_secs().max(1e-6);
        let ratio = base_result.runtime_secs() / pl_secs;
        raw.push(Point {
            benchmark: pl_result.benchmark.clone(),
            configuration: pl_result.configuration,
            sr_adv,
            runtime_ratio: ratio,
            cumulative_improved: 0,
        });
    }
    raw.sort_by(|a, b| {
        a.sr_adv
            .partial_cmp(&b.sr_adv)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut improved = 0usize;
    for point in &mut raw {
        if point.runtime_ratio > 1.0 {
            improved += 1;
        }
        point.cumulative_improved = improved;
    }
    Fig4 {
        points: raw,
        filtered_out,
    }
}

/// Renders the figure data as a table sorted by `SR_adv`.
pub fn render(fig: &Fig4) -> String {
    let mut text = TextTable::new(vec![
        "benchmark".into(),
        "configuration".into(),
        "SR_adv".into(),
        "runtime ratio (base/pl)".into(),
        "cumulative improved".into(),
    ]);
    for p in &fig.points {
        text.add_row(vec![
            p.benchmark.clone(),
            p.configuration.label().to_string(),
            percent(Some(p.sr_adv)),
            format!("{:.3}", p.runtime_ratio),
            p.cumulative_improved.to_string(),
        ]);
    }
    let correlation = fig
        .correlation()
        .map(|c| format!("{c:.3}"))
        .unwrap_or_else(|| "n/a".to_string());
    format!(
        "Figure 4: runtime ratio vs SR_adv ({} cases, {} filtered, {} improved, correlation {})\n{}",
        fig.points.len(),
        fig.filtered_out,
        fig.improved_cases(),
        correlation,
        text.render()
    )
}

/// Renders the figure data as CSV.
pub fn to_csv(fig: &Fig4) -> String {
    let mut text = TextTable::new(vec![
        "benchmark".into(),
        "configuration".into(),
        "sr_adv".into(),
        "runtime_ratio".into(),
        "cumulative_improved".into(),
    ]);
    for p in &fig.points {
        text.add_row(vec![
            p.benchmark.clone(),
            p.configuration.label().to_string(),
            format!("{}", p.sr_adv),
            format!("{}", p.runtime_ratio),
            p.cumulative_improved.to_string(),
        ]);
    }
    text.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, RunnerConfig};
    use plic3_benchmarks::Suite;

    #[test]
    fn points_are_sorted_and_cumulative_counts_are_monotone() {
        let suite = Suite::quick();
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let data = run_experiment(
            &suite,
            &[Configuration::Ric3, Configuration::Ric3Pl],
            &runner,
        );
        let fig = build(&data, Duration::ZERO);
        assert!(!fig.points.is_empty(), "no Figure 4 points were produced");
        for w in fig.points.windows(2) {
            assert!(w[0].sr_adv <= w[1].sr_adv);
            assert!(w[0].cumulative_improved <= w[1].cumulative_improved);
        }
        assert!(fig.improved_cases() <= fig.points.len());
        let text = render(&fig);
        assert!(text.contains("Figure 4"));
        assert!(to_csv(&fig).starts_with("benchmark,"));
    }

    #[test]
    fn fast_cases_are_filtered() {
        let suite = Suite::quick().filter(|b| b.family() == "ring");
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let data = run_experiment(
            &suite,
            &[Configuration::Ric3, Configuration::Ric3Pl],
            &runner,
        );
        // With an absurdly large threshold every pair is "fast" and filtered.
        let fig = build(&data, Duration::from_secs(3600));
        assert!(fig.points.is_empty());
        assert_eq!(fig.filtered_out, suite.len());
        assert_eq!(fig.correlation(), None);
    }

    #[test]
    fn correlation_of_synthetic_points() {
        let fig = Fig4 {
            points: vec![
                Point {
                    benchmark: "a".into(),
                    configuration: Configuration::Ric3Pl,
                    sr_adv: 0.1,
                    runtime_ratio: 1.0,
                    cumulative_improved: 0,
                },
                Point {
                    benchmark: "b".into(),
                    configuration: Configuration::Ric3Pl,
                    sr_adv: 0.5,
                    runtime_ratio: 2.0,
                    cumulative_improved: 1,
                },
                Point {
                    benchmark: "c".into(),
                    configuration: Configuration::Ric3Pl,
                    sr_adv: 0.9,
                    runtime_ratio: 3.0,
                    cumulative_improved: 2,
                },
            ],
            filtered_out: 0,
        };
        let r = fig.correlation().expect("defined");
        assert!(
            (r - 1.0).abs() < 1e-9,
            "perfectly correlated synthetic data"
        );
    }
}
