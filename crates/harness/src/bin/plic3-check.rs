//! Check an AIGER circuit and independently verify the evidence.
//!
//! `plic3-check` is the repository's single-circuit command line: it runs the
//! paper's RIC3-pl configuration (IC3 with CTP-based lemma prediction) on one
//! AIGER file through the case runner's per-circuit pipeline
//! ([`plic3_harness::check_circuit`]), prints the preprocessing and engine
//! statistics, and then refuses to take the engine's word for its verdict:
//!
//! * a `Safe` verdict's invariant certificate is checked on the **original**
//!   circuit through the preprocessing reconstruction;
//! * an `Unsafe` verdict's counterexample trace is replayed gate by gate on
//!   the original circuit.
//!
//! Exit codes: `0` verdict reached and evidence verified, `1` evidence failed
//! verification, `2` usage error, `3` no verdict within the budget.

use plic3::CheckResult;
use plic3_aig::parse_aiger;
use plic3_harness::{check_circuit, Configuration, Evidence, RunnerConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: plic3-check [options] <circuit.aag|circuit.aig>

Runs IC3 with lemma prediction (RIC3-pl) on the circuit, prints the engine
statistics, and independently verifies the evidence behind the verdict:
invariant certificates are checked on the original circuit, and
counterexample traces are replayed on it. Builds with the `proof-log`
feature also DRAT-check every SAT answer the certificate check relies on.

options:
  --no-preprocess   run the engine on the raw circuit (default: preprocess)
  --timeout <secs>  time budget in seconds, preprocessing included,
                    fractions allowed (default: 60)
  --help            show this help

exit codes: 0 verified, 1 verification failed, 2 usage error, 3 no verdict";

struct Options {
    path: String,
    preprocess: bool,
    timeout: Duration,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut path = None;
    let mut preprocess = true;
    let mut timeout = Duration::from_secs(60);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--no-preprocess" => preprocess = false,
            "--timeout" => {
                let value = iter.next().ok_or("--timeout needs a value")?;
                timeout = value
                    .parse()
                    .ok()
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .ok_or_else(|| format!("invalid --timeout value: {value}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option: {other}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("expected exactly one circuit file".to_string());
                }
            }
        }
    }
    let path = path.ok_or("expected a circuit file")?;
    Ok(Options {
        path,
        preprocess,
        timeout,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("plic3-check: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let bytes = match std::fs::read(&options.path) {
        Ok(bytes) => bytes,
        Err(err) => {
            eprintln!("plic3-check: cannot read {}: {err}", options.path);
            return ExitCode::from(2);
        }
    };
    let aig = match parse_aiger(&bytes) {
        Ok(aig) => aig,
        Err(err) => {
            eprintln!("plic3-check: cannot parse {}: {err}", options.path);
            return ExitCode::from(2);
        }
    };

    let runner = RunnerConfig {
        timeout: options.timeout,
        preprocess: options.preprocess,
        max_conflicts: None,
        ..RunnerConfig::default()
    };
    let run = check_circuit(&aig, Configuration::Ric3Pl, &runner, runner.budget());
    println!("{}", run.prep);
    println!("{}", run.stats);
    match &run.result {
        CheckResult::Safe(cert) => println!(
            "verdict: safe ({} lemmas, level {})",
            cert.lemmas.len(),
            cert.level
        ),
        CheckResult::Unsafe(trace) => println!("verdict: unsafe ({} steps)", trace.len()),
        CheckResult::Unknown(reason) => println!("verdict: unknown ({reason:?})"),
    }
    match run.evidence {
        Evidence::Certificate(Ok(report)) => {
            println!(
                "certificate verified on the original circuit: {} lemmas, {} \
                 preprocessing facts, {} SAT queries, {} DRAT-checked",
                report.lemmas, report.facts, report.queries, report.drat_checked
            );
            ExitCode::SUCCESS
        }
        Evidence::Certificate(Err(err)) => {
            eprintln!("plic3-check: {err}");
            ExitCode::from(1)
        }
        Evidence::Replay(true) => {
            println!("counterexample replayed on the original circuit");
            ExitCode::SUCCESS
        }
        Evidence::Replay(false) => {
            eprintln!("plic3-check: counterexample does NOT replay on the original circuit");
            ExitCode::from(1)
        }
        Evidence::Absent => ExitCode::from(3),
    }
}
