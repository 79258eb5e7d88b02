//! The benchmark's own checks.
//!
//! * Each workload's smoke case runs in two separate processes; every count
//!   the benchmark reports (`ic3.*`, `predict.*`, `bmc.depths`, ...) must
//!   repeat exactly, so later changes can cite counts as evidence.
//! * Every metric named in `BENCHMARK.json` must be emitted, with its unit.
//! * The correctness gate must report a verdict that contradicts the ground
//!   truth as wrong, for IC3 and for BMC.

use plic3_benchmarks::families::{fifo, shift};
use plic3_benchmarks::ExpectedResult;
use plic3_perfbench::cases::{Case, Engine, Workload};
use plic3_perfbench::pipeline::{run_case, Outcome};
use plic3_perfbench::run::{END_TO_END, PER_LAYER};
use plic3_perfbench::trace::{Side, Tracer};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

/// One metric of a result line: name, value, unit.
type Metric = (String, f64, String);

/// Runs the benchmark binary on a workload's smoke case and returns the
/// metrics of its result line, after checking the run was correct.
fn run_smoke(workload: &str, trace: bool) -> Vec<Metric> {
    let output = Command::new(env!("CARGO_BIN_EXE_plic3-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true,"),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
    parse_metrics(line)
}

/// Parses the `metrics` object of a result line, which the benchmark prints
/// as `"name": {"value": v, "unit": "u"}` entries.
fn parse_metrics(line: &str) -> Vec<Metric> {
    let (_, body) = line.split_once("\"metrics\": {").expect("a metrics object");
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")
                .expect("a metric entry");
            let (value, rest) = rest.split_once(", \"unit\": \"").expect("a unit");
            let unit = rest.split('"').next().expect("a quoted unit");
            let value = value.parse().expect("a numeric value");
            (name.to_string(), value, unit.to_string())
        })
        .collect()
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("the section is present");
    let list = &json[start..];
    let list = &list[..list.find(']').expect("the list ends")];
    let field = |entry: &str, key: &str| {
        let (_, rest) = entry
            .split_once(&format!("\"{key}\": \""))
            .expect("the key");
        rest.split('"').next().expect("a quoted value").to_string()
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.clone()))
        .collect()
}

fn as_pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    assert_eq!(declared("end_to_end"), as_pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), as_pairs(&PER_LAYER));
}

#[test]
fn every_workload_emits_every_metric_and_repeats_its_counts() {
    for workload in Workload::ALL {
        let name = workload.name();
        let untraced = run_smoke(name, false);
        assert_eq!(names_and_units(&untraced), as_pairs(&END_TO_END), "{name}");

        let first = run_smoke(name, true);
        let second = run_smoke(name, true);
        assert_eq!(names_and_units(&first), as_pairs(&PER_LAYER), "{name}");
        for ((metric, a, unit), (_, b, _)) in first.iter().zip(&second) {
            let is_count = matches!(unit.as_str(), "count" | "bytes" | "ratio");
            if is_count && !metric.starts_with("env.") {
                assert_eq!(a, b, "{name}: {metric} differs between two processes");
            }
        }
        let value = |metric: &str| {
            first
                .iter()
                .find(|(n, _, _)| n == metric)
                .map(|(_, v, _)| *v)
                .expect("emitted")
        };
        match workload {
            Workload::BmcDeep => assert!(value("bmc.depths") > 0.0),
            _ => {
                assert!(value("ic3.queries") > 0.0, "{name}");
                assert!(value("predict.queries") > 0.0, "{name}");
            }
        }
    }
}

#[test]
fn a_verdict_against_the_ground_truth_is_wrong() {
    let mut tracer = Tracer::new(false);
    let unsafe_at = |depth| ExpectedResult::Unsafe {
        min_depth: Some(depth),
    };
    let cases = [
        // A safe circuit claimed unsafe: IC3's certificate cannot match.
        Case {
            id: "parity_shift_register(4)".into(),
            why: "test",
            expected: unsafe_at(3),
            engine: Engine::Ic3,
            aig: shift::parity_shift_register(4),
        },
        // An unsafe circuit claimed safe: IC3 finds the counterexample.
        Case {
            id: "fifo_unguarded(3,5)".into(),
            why: "test",
            expected: ExpectedResult::Safe,
            engine: Engine::Ic3,
            aig: fifo::fifo_unguarded(3, 5),
        },
        // A wrong counterexample depth: BMC finds the shortest one at 6.
        Case {
            id: "fifo_unguarded(3,5)".into(),
            why: "test",
            expected: unsafe_at(4),
            engine: Engine::Bmc { depth: 8 },
            aig: fifo::fifo_unguarded(3, 5),
        },
    ];
    for case in &cases {
        for side in [Side::Primary, Side::Base] {
            let run = run_case(case, side, &mut tracer);
            assert!(
                matches!(run.outcome, Outcome::Wrong(_)),
                "{} ({}): {:?}",
                case.id,
                side.name(),
                run.outcome
            );
        }
    }
}
