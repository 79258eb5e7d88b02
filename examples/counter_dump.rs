//! Dumps the work every configuration does on every suite circuit, with no
//! timing in it, so that two builds can be compared byte for byte.
//!
//! Usage: `cargo run --release -q --example counter_dump > counters.txt`
//!
//! For each circuit of the quick and of the full suite, and for each of the
//! six configurations, one line holds the suite, the circuit, the
//! configuration, the verdict, every `Statistics` field with its timers
//! zeroed, and the SAT-query, lemma and fact counts of the certificate check
//! on the original circuit (`-` unless the verdict is Safe). Each case runs
//! through the harness's per-circuit pipeline (`check_circuit`) with
//! preprocessing on and a 300 s timeout, so the conflict budget, not the wall
//! clock, ends a case that runs out. A change that claims to do the same work
//! faster must leave this output unchanged (`diff` two dumps).

use plic3_repro::benchmarks::Suite;
use plic3_repro::harness::{check_circuit, Configuration, Evidence, RunnerConfig};
use plic3_repro::sat::StopFlag;
use std::time::Duration;

fn main() {
    let runner = RunnerConfig {
        timeout: Duration::from_secs(300),
        workers: 1,
        ..RunnerConfig::default()
    };
    for (suite_name, suite) in [("quick", Suite::quick()), ("full", Suite::hwmcc_like())] {
        for bench in &suite {
            for configuration in Configuration::all() {
                let run = check_circuit(bench.aig(), configuration, &runner, StopFlag::new());
                let mut stats = run.stats;
                stats.runtime = Duration::ZERO;
                stats.generalize_time = Duration::ZERO;
                let cert = match &run.evidence {
                    Evidence::Certificate(Ok(report)) => format!(
                        "queries={} lemmas={} facts={}",
                        report.queries, report.lemmas, report.facts
                    ),
                    Evidence::Certificate(Err(e)) => format!("FAILED ({e})"),
                    Evidence::Replay(replays) => format!("replay={replays}"),
                    Evidence::Absent => "-".to_string(),
                };
                println!(
                    "{suite_name} {} {configuration} {} | {stats:?} | {cert}",
                    bench.name(),
                    run.result
                );
            }
        }
    }
}
