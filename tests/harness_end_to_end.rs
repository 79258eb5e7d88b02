//! End-to-end harness test: run a miniature version of the paper's experiment
//! and build every table and figure from the collected data.

use plic3_repro::benchmarks::Suite;
use plic3_repro::harness::{
    fig2, fig3, fig4, run_experiment, table1, table2, Configuration, RunnerConfig,
};
use std::time::Duration;

fn mini_experiment() -> (Suite, plic3_repro::harness::ExperimentData, RunnerConfig) {
    let suite = Suite::quick();
    let runner = RunnerConfig {
        timeout: Duration::from_secs(10),
        ..RunnerConfig::default()
    };
    let data = run_experiment(&suite, &Configuration::all(), &runner);
    (suite, data, runner)
}

#[test]
fn all_tables_and_figures_can_be_built_from_one_run() {
    let (suite, data, runner) = mini_experiment();
    assert_eq!(data.results.len(), suite.len() * 6);
    assert_eq!(
        data.wrong_verdicts(),
        0,
        "a configuration returned a wrong verdict"
    );
    for result in &data.results {
        assert!(
            result.run.evidence.verified(),
            "{}: unverified verdict",
            result.benchmark
        );
    }

    // Table 1: every configuration solves the whole quick suite.
    let t1 = table1::build(&data);
    assert_eq!(t1.rows.len(), 6);
    let (expected_safe, expected_unsafe) = suite.expected_counts();
    for row in &t1.rows {
        assert_eq!(
            row.solved,
            suite.len(),
            "{} timed out on the quick suite",
            row.configuration
        );
        assert_eq!(row.safe, expected_safe);
        assert_eq!(row.unsafe_, expected_unsafe);
    }
    assert!(table1::render(&t1).contains("ABC-PDR"));

    // Table 2: both prediction configurations report defined averages.
    let t2 = table2::build(&data);
    assert_eq!(t2.rows.len(), 2);
    for row in &t2.rows {
        assert!(row.cases > 0);
        assert!(row.avg_sr_fp.is_some());
        assert!(row.avg_sr_adv.is_some());
    }
    assert!(table2::render(&t2).contains("Avg SR_adv"));

    // Figure 2: monotone curves ending at full coverage.
    let f2 = fig2::build(&data, &fig2::default_limits(runner.timeout));
    for series in &f2.series {
        let last = series.points.last().expect("non-empty").1;
        assert_eq!(last, suite.len());
    }
    assert!(fig2::render(&f2).contains("Figure 2"));

    // Figure 3: both base/prediction pairs are present and complete.
    let f3 = fig3::build(&data);
    assert_eq!(f3.scatters.len(), 2);
    for scatter in &f3.scatters {
        assert_eq!(scatter.points.len(), suite.len());
    }
    assert!(fig3::render(&f3).contains("below the diagonal"));

    // Figure 4: with a zero fast-case threshold every pair with a defined
    // SR_adv contributes a point.
    let f4 = fig4::build(&data, 0);
    assert!(!f4.points.is_empty());
    assert!(fig4::render(&f4).contains("Figure 4"));
    assert!(fig4::to_csv(&f4).lines().count() == f4.points.len() + 1);
}
