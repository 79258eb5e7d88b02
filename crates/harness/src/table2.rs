//! Table 2 — Average Success Rates of the prediction-enabled configurations.

use crate::report::{percent, TextTable};
use crate::{Configuration, ExperimentData};

/// One row of Table 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The (prediction-enabled) configuration.
    pub configuration: Configuration,
    /// Average lemma-prediction success rate `SR_lp = N_sp / N_p`.
    pub avg_sr_lp: Option<f64>,
    /// Average failed-parent discovery rate `SR_fp = N_fp / N_g`.
    pub avg_sr_fp: Option<f64>,
    /// Average rate of avoided variable dropping `SR_adv = N_sp / N_g`.
    pub avg_sr_adv: Option<f64>,
    /// Number of cases contributing to the averages.
    pub cases: usize,
}

/// The reproduced Table 2.
#[derive(Clone, Debug, Default)]
pub struct Table2 {
    /// One row per prediction-enabled configuration.
    pub rows: Vec<Row>,
}

/// Builds Table 2: for every prediction-enabled configuration, the per-case
/// success rates are averaged over the cases where they are defined (i.e. at
/// least one generalization / prediction query happened), mirroring the
/// per-case averaging of the paper.
pub fn build(data: &ExperimentData) -> Table2 {
    let rows = data
        .configurations()
        .into_iter()
        .filter(Configuration::has_prediction)
        .map(|configuration| {
            let results = data.for_configuration(configuration);
            let mut lp = Vec::new();
            let mut fp = Vec::new();
            let mut adv = Vec::new();
            let mut cases = 0;
            for result in results {
                let stats = &result.run.stats;
                if stats.generalizations == 0 {
                    continue;
                }
                cases += 1;
                if let Some(rate) = stats.sr_lp() {
                    lp.push(rate);
                }
                if let Some(rate) = stats.sr_fp() {
                    fp.push(rate);
                }
                if let Some(rate) = stats.sr_adv() {
                    adv.push(rate);
                }
            }
            Row {
                configuration,
                avg_sr_lp: mean(&lp),
                avg_sr_fp: mean(&fp),
                avg_sr_adv: mean(&adv),
                cases,
            }
        })
        .collect();
    Table2 { rows }
}

fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Renders Table 2 in the layout of the paper.
pub fn render(table: &Table2) -> String {
    let mut text = TextTable::new(vec![
        "Configuration".into(),
        "Avg SR_lp".into(),
        "Avg SR_fp".into(),
        "Avg SR_adv".into(),
        "Cases".into(),
    ]);
    for row in &table.rows {
        text.add_row(vec![
            row.configuration.label().to_string(),
            percent(row.avg_sr_lp),
            percent(row.avg_sr_fp),
            percent(row.avg_sr_adv),
            row.cases.to_string(),
        ]);
    }
    format!("Table 2: Average Success Rates\n{}", text.render())
}

/// Renders Table 2 as CSV.
pub fn to_csv(table: &Table2) -> String {
    let mut text = TextTable::new(vec![
        "configuration".into(),
        "avg_sr_lp".into(),
        "avg_sr_fp".into(),
        "avg_sr_adv".into(),
        "cases".into(),
    ]);
    for row in &table.rows {
        text.add_row(vec![
            row.configuration.label().to_string(),
            row.avg_sr_lp.map(|r| format!("{r:.4}")).unwrap_or_default(),
            row.avg_sr_fp.map(|r| format!("{r:.4}")).unwrap_or_default(),
            row.avg_sr_adv
                .map(|r| format!("{r:.4}"))
                .unwrap_or_default(),
            row.cases.to_string(),
        ]);
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
    fn only_prediction_configurations_appear() {
        let suite = Suite::quick().filter(|b| matches!(b.family(), "counter" | "shift"));
        let runner = RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        };
        let data = run_experiment(
            &suite,
            &[
                Configuration::Ric3,
                Configuration::Ric3Pl,
                Configuration::Ic3refPl,
            ],
            &runner,
        );
        let table = build(&data);
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert!(row.configuration.has_prediction());
            assert!(row.cases > 0);
            for rate in [row.avg_sr_lp, row.avg_sr_fp, row.avg_sr_adv]
                .into_iter()
                .flatten()
            {
                assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
            }
        }
        let text = render(&table);
        assert!(text.contains("Table 2"));
        assert!(text.contains("RIC3-pl"));
        assert!(text.contains("IC3ref-pl"));
        assert!(!text.contains("ABC"));
        assert!(to_csv(&table).starts_with("configuration,"));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[0.5]), Some(0.5));
        assert!((mean(&[0.2, 0.4]).expect("defined") - 0.3).abs() < 1e-12);
    }
}
