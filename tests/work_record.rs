//! The golden work record: the quick suite under all six configurations must
//! do exactly the work written down in `tests/golden/quick_work.txt`.
//!
//! Each line is `CircuitRun::work_line` of one case, the same line the
//! `counter_dump` example prints before its `memory_used` column: the
//! verdict, every engine counter (relative queries, obligations, lemmas,
//! drops, predictions, ...) and the certificate check's counts, with no
//! timing in it. A change that claims to do the same work must leave every
//! line in place. A change that alters the work regenerates the fixture and
//! says which lines moved and why:
//!
//! ```text
//! cargo run --release -q --example counter_dump | grep '^quick ' \
//!     | cut -d'|' -f1-3 | sed 's/ $//' > tests/golden/quick_work.txt
//! ```

use plic3_repro::benchmarks::Suite;
use plic3_repro::harness::{check_circuit, Configuration, RunnerConfig};
use plic3_repro::sat::StopFlag;
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/quick_work.txt");

#[test]
fn quick_suite_does_the_recorded_work() {
    // The conflict budget, not the wall clock, ends a case that runs out, so
    // a debug build records the same work as a release build.
    let runner = RunnerConfig {
        timeout: Duration::from_secs(300),
        workers: 1,
        ..RunnerConfig::default()
    };
    let mut lines = Vec::new();
    for bench in &Suite::quick() {
        for configuration in Configuration::all() {
            let run = check_circuit(bench.aig(), configuration, &runner, StopFlag::new());
            lines.push(run.work_line("quick", bench.name(), configuration));
        }
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
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
