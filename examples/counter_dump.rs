//! Dumps the work every configuration does on every suite circuit, with no
//! timing in it, so that two builds can be compared byte for byte.
//!
//! Usage: `cargo run --release -q --example counter_dump > counters.txt`
//!
//! For each circuit of the quick and of the full suite, and for each of the
//! six configurations, one line holds the work record of
//! `CircuitRun::work_line`: the suite, the circuit, the configuration, the
//! verdict, every `Statistics` field with its timers and its memory tally
//! zeroed, and the SAT-query, lemma and fact counts of the certificate check
//! on the original circuit (`-` unless the verdict is Safe); a last `|`
//! column holds `memory_used`, the memory budget's byte tally, which moves
//! with data layout rather than work. Each case runs through the harness's
//! per-circuit pipeline (`check_circuit`) with preprocessing on and a 300 s
//! timeout, so the conflict budget, not the wall clock, ends a case that runs
//! out. A change that claims to do the same work faster must leave the work
//! columns unchanged: compare two dumps with `cut -d'|' -f1-3`. The work
//! columns of the quick and of the full suite are the two fixtures of
//! `tests/work_record.rs` (`tests/golden/quick_work.txt` and
//! `tests/golden/full_work.txt`); its header holds the command that
//! regenerates them from this dump.

use plic3_repro::benchmarks::Suite;
use plic3_repro::harness::{check_circuit, Configuration, RunnerConfig};
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
                let run = check_circuit(bench.aig(), configuration, &runner, runner.budget());
                println!(
                    "{} | memory_used={}",
                    run.work_line(suite_name, bench.name(), configuration),
                    run.stats.memory_used
                );
            }
        }
    }
}
