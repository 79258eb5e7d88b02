//! Figure 2 — cases solved within a given time limit, per configuration.

use crate::report::TextTable;
use crate::{Configuration, ExperimentData};
use std::time::Duration;

/// The solved-within-limit curve of one configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// The configuration the series describes.
    pub configuration: Configuration,
    /// `(time limit, number of cases solved within it)`, ordered by limit.
    pub points: Vec<(Duration, usize)>,
}

/// The data behind Figure 2.
#[derive(Clone, Debug, Default)]
pub struct Fig2 {
    /// The time limits at which the curves are sampled.
    pub limits: Vec<Duration>,
    /// One series per configuration.
    pub series: Vec<Series>,
}

/// Default sampling grid: a geometric sweep from 1 ms up to the per-case budget.
pub fn default_limits(timeout: Duration) -> Vec<Duration> {
    let mut limits = Vec::new();
    let mut t = Duration::from_millis(1);
    while t < timeout {
        limits.push(t);
        t = Duration::from_secs_f64(t.as_secs_f64() * 2.0);
    }
    limits.push(timeout);
    limits
}

/// Builds the Figure 2 data by counting, for each configuration and each time
/// limit, the cases whose runtime does not exceed the limit (only solved cases
/// count).
pub fn build(data: &ExperimentData, limits: &[Duration]) -> Fig2 {
    let series = data
        .configurations()
        .into_iter()
        .map(|configuration| {
            let results = data.for_configuration(configuration);
            let points = limits
                .iter()
                .map(|&limit| {
                    let solved = results
                        .iter()
                        .filter(|r| r.verdict.solved() && r.run.runtime <= limit)
                        .count();
                    (limit, solved)
                })
                .collect();
            Series {
                configuration,
                points,
            }
        })
        .collect();
    Fig2 {
        limits: limits.to_vec(),
        series,
    }
}

/// Renders the figure data as a table: one row per time limit, one column per
/// configuration.
pub fn render(fig: &Fig2) -> String {
    let mut header = vec!["time limit (s)".to_string()];
    header.extend(
        fig.series
            .iter()
            .map(|s| s.configuration.label().to_string()),
    );
    let mut text = TextTable::new(header);
    for (i, limit) in fig.limits.iter().enumerate() {
        let mut row = vec![format!("{:.3}", limit.as_secs_f64())];
        for series in &fig.series {
            row.push(series.points[i].1.to_string());
        }
        text.add_row(row);
    }
    format!(
        "Figure 2: cases solved within a time limit, per configuration\n{}",
        text.render()
    )
}

/// Renders the figure data as CSV.
pub fn to_csv(fig: &Fig2) -> String {
    let mut header = vec!["time_limit_s".to_string()];
    header.extend(
        fig.series
            .iter()
            .map(|s| s.configuration.label().to_string()),
    );
    let mut text = TextTable::new(header);
    for (i, limit) in fig.limits.iter().enumerate() {
        let mut row = vec![format!("{}", limit.as_secs_f64())];
        for series in &fig.series {
            row.push(series.points[i].1.to_string());
        }
        text.add_row(row);
    }
    text.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, RunnerConfig};
    use plic3_benchmarks::Suite;

    #[test]
    fn curves_are_monotone_and_bounded() {
        let suite = Suite::quick().filter(|b| matches!(b.family(), "ring" | "shift"));
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let data = run_experiment(
            &suite,
            &[Configuration::Ric3, Configuration::Ric3Pl],
            &runner,
        );
        let limits = default_limits(runner.timeout);
        let fig = build(&data, &limits);
        assert_eq!(fig.series.len(), 2);
        for series in &fig.series {
            let counts: Vec<usize> = series.points.iter().map(|(_, c)| *c).collect();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]), "not monotone");
            assert!(*counts.last().expect("non-empty") <= suite.len());
            // Everything in the quick suite solves within the budget.
            assert_eq!(*counts.last().expect("non-empty"), suite.len());
        }
        let text = render(&fig);
        assert!(text.contains("Figure 2"));
        assert!(to_csv(&fig).starts_with("time_limit_s,"));
    }

    #[test]
    fn default_limits_are_geometric_and_end_at_timeout() {
        let limits = default_limits(Duration::from_secs(1));
        assert_eq!(*limits.last().expect("non-empty"), Duration::from_secs(1));
        assert!(limits.len() > 5);
        assert!(limits.windows(2).all(|w| w[0] < w[1]));
    }
}
