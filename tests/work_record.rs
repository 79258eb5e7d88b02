//! The golden work records: the quick suite and the full suite under all six
//! configurations must do exactly the work written down in
//! `tests/golden/quick_work.txt` and `tests/golden/full_work.txt`.
//!
//! Each line is `CaseResult::work_line` of one case, the same line that
//! `plic3-exp --csv <dir>` writes to `<dir>/work.txt` before its
//! `memory_used` column: the verdict, every engine counter (relative
//! queries, obligations, lemmas, drops, predictions, ...) and the
//! certificate check's counts, with no timing in it. A change that claims
//! to do the same work must leave every line in place. A change that alters
//! the work regenerates both fixtures and says which lines moved and why:
//!
//! ```text
//! plic3-exp table1 --timeout 300 --csv quick
//! plic3-exp table1 --full --timeout 300 --csv full
//! for suite in quick full; do
//!     cut -d'|' -f1-3 $suite/work.txt | sed 's/ $//' \
//!         > tests/golden/${suite}_work.txt
//! done
//! ```
//!
//! Both records run through `run_experiment` on every core. The quick record
//! runs in tier-1. The full record takes about 13 s in a release build on
//! two cores and is `#[ignore]`d; run it with
//! `cargo test --release --test work_record -- --ignored`.

use plic3_repro::benchmarks::Suite;
use plic3_repro::harness::{run_experiment, Configuration, RunnerConfig};
use std::time::Duration;

/// Runs every circuit of `suite` under all six configurations and asserts
/// that the work lines equal `golden`, listing each moved line as `-`/`+`.
fn assert_recorded_work(suite_name: &str, suite: &Suite, golden: &str) {
    // The conflict budget, not the wall clock, ends a case that runs out, so
    // a debug build records the same work as a release build.
    let runner = RunnerConfig {
        timeout: Duration::from_secs(300),
        ..RunnerConfig::default()
    };
    let data = run_experiment(suite, &Configuration::all(), &runner);
    let lines: Vec<String> = data
        .results
        .iter()
        .map(|r| r.work_line(suite_name))
        .collect();
    let golden: Vec<&str> = golden.lines().collect();
    let moved: Vec<String> = golden
        .iter()
        .zip(&lines)
        .filter(|(want, got)| *want != got)
        .map(|(want, got)| format!("- {want}\n+ {got}"))
        .collect();
    assert!(
        moved.is_empty() && golden.len() == lines.len(),
        "{} of {} work lines moved ({} recorded, {} run):\n{}",
        moved.len(),
        golden.len(),
        golden.len(),
        lines.len(),
        moved.join("\n")
    );
}

#[test]
fn quick_suite_does_the_recorded_work() {
    assert_recorded_work(
        "quick",
        &Suite::quick(),
        include_str!("golden/quick_work.txt"),
    );
}

#[test]
#[ignore = "full suite: run in release with --ignored"]
fn full_suite_does_the_recorded_work() {
    assert_recorded_work(
        "full",
        &Suite::hwmcc_like(),
        include_str!("golden/full_work.txt"),
    );
}
