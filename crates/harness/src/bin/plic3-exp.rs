//! `plic3-exp` — command-line driver regenerating the tables and figures of
//! *Predicting Lemmas in Generalization of IC3* (DAC 2024).
//!
//! ```text
//! plic3-exp [COMMAND] [OPTIONS]
//!
//! Commands:
//!   all       run the experiment and print every table/figure (default)
//!   table1    Table 1 — summary of results
//!   table2    Table 2 — average success rates
//!   fig2      Figure 2 — solved cases vs time limit
//!   fig3      Figure 3 — runtime scatter base vs prediction
//!   fig4      Figure 4 — runtime ratio vs SR_adv
//!
//! Options:
//!   --full            run the full HWMCC-style suite (default: quick suite)
//!   --timeout <secs>  per-case wall-clock budget (default: 10)
//!   --jobs <n>        cases run in parallel (default: all cores)
//!   --no-preprocess   skip the AIG preprocessing pipeline (default: on)
//!   --memory <n>[K]   per-case memory budget in MiB, or in KiB with a `K`
//!                     suffix (`--memory 64K`); exceeding it ends the case as
//!                     `memout`, never as an allocator abort (default: none)
//!   --csv <dir>       also write CSV files into <dir>, and work.txt: each
//!                     case's work line plus its memory_used, in case order
//!
//! Every command runs the six configurations on the same case runner: each
//! Safe certificate is checked on the original, pre-preprocessing circuit,
//! each Unsafe trace is replayed there, and each verdict is compared with the
//! ground truth. Every command ends with the same failure line.
//!
//! Exit codes: 0 success, 1 wrong verdicts, 2 usage error, 3 contained
//! crashes (cases that panicked but were isolated), 4 certificate-check
//! failures (a solved case whose proof artifact failed independent
//! verification). When several apply, the gravest wins: 1 over 4 over 3.
//! ```

use plic3_benchmarks::Suite;
use plic3_harness::{
    fig2, fig3, fig4, run_experiment, table1, table2, Configuration, ExperimentData, RunnerConfig,
};
use std::path::PathBuf;
use std::time::Duration;

struct Options {
    command: String,
    full: bool,
    timeout: Duration,
    jobs: usize,
    preprocess: bool,
    max_memory: Option<u64>,
    csv_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        command: "all".to_string(),
        full: false,
        timeout: Duration::from_secs(10),
        jobs: 0,
        preprocess: true,
        max_memory: None,
        csv_dir: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    if let Some(first) = args.peek() {
        if !first.starts_with("--") {
            options.command = args.next().expect("peeked");
        }
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => options.full = true,
            "--timeout" => {
                let value = args.next().ok_or("--timeout needs a value")?;
                options.timeout = value
                    .parse()
                    .ok()
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .ok_or("invalid --timeout value")?;
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a value")?;
                options.jobs = value.parse().map_err(|_| "invalid --jobs value")?;
            }
            "--no-preprocess" => options.preprocess = false,
            "--memory" => {
                let value = args
                    .next()
                    .ok_or("--memory needs a value (MiB, or KiB with a K suffix)")?;
                options.max_memory = Some(parse_memory(&value)?);
            }
            "--csv" => {
                let value = args.next().ok_or("--csv needs a directory")?;
                options.csv_dir = Some(PathBuf::from(value));
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    const COMMANDS: [&str; 6] = ["all", "table1", "table2", "fig2", "fig3", "fig4"];
    if !COMMANDS.contains(&options.command.as_str()) {
        return Err(format!(
            "unknown command '{}' (expected one of {})",
            options.command,
            COMMANDS.join(", ")
        ));
    }
    Ok(options)
}

/// Parses a `--memory` value into bytes: a positive whole number of MiB, or
/// of KiB with a `K` suffix.
fn parse_memory(value: &str) -> Result<u64, String> {
    let (amount, unit) = match value.strip_suffix('K') {
        Some(kib) => (kib, 1024),
        None => (value, 1024 * 1024),
    };
    let amount: u64 = amount.parse().map_err(|_| "invalid --memory value")?;
    if amount == 0 {
        return Err("--memory must be positive".to_string());
    }
    amount
        .checked_mul(unit)
        .ok_or_else(|| "invalid --memory value".to_string())
}

fn write_csv(dir: &Option<PathBuf>, name: &str, contents: &str) {
    if let Some(dir) = dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {dir:?}: {e}");
            return;
        }
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("warning: cannot write {path:?}: {e}");
        } else {
            eprintln!("wrote {path:?}");
        }
    }
}

/// One line per suite describing what the preprocessing pipeline achieved,
/// so reports account for the cost and the effect of the simplification.
///
/// Every configuration preprocesses each circuit the same way, so the line
/// sums the first configuration's cases.
fn print_preprocessing_summary(data: &ExperimentData) {
    let Some(&first) = data.configurations().first() else {
        return;
    };
    let cases = data.for_configuration(first);
    let mut latches = (0usize, 0usize);
    let mut ands = (0usize, 0usize);
    let mut total = Duration::ZERO;
    for case in &cases {
        latches.0 += case.run.prep.latches_before;
        latches.1 += case.run.prep.latches_after;
        ands.0 += case.run.prep.ands_before;
        ands.1 += case.run.prep.ands_after;
        total += case.run.prep.prep_time;
    }
    eprintln!(
        "preprocessing: latches {}→{}, ands {}→{} across {} instances \
         ({:?} total, {:?}/case; per-case cost is included in runtimes)",
        latches.0,
        latches.1,
        ands.0,
        ands.1,
        cases.len(),
        total,
        total / cases.len().max(1) as u32,
    );
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let suite = if options.full {
        Suite::hwmcc_like()
    } else {
        Suite::quick()
    };
    let runner = RunnerConfig {
        timeout: options.timeout,
        workers: options.jobs,
        preprocess: options.preprocess,
        max_memory: options.max_memory,
        ..RunnerConfig::default()
    };
    eprintln!(
        "running {} instances x 6 configurations on {} workers (per-case timeout {:?})",
        suite.len(),
        runner.effective_workers(),
        runner.timeout
    );

    let data = run_experiment(&suite, &Configuration::all(), &runner);
    print_preprocessing_summary(&data);

    let want = |name: &str| options.command == "all" || options.command == name;
    if want("table1") {
        let table = table1::build(&data);
        println!("{}", table1::render(&table));
        write_csv(&options.csv_dir, "table1.csv", &table1::to_csv(&table));
    }
    if want("table2") {
        let table = table2::build(&data);
        println!("{}", table2::render(&table));
        write_csv(&options.csv_dir, "table2.csv", &table2::to_csv(&table));
    }
    if want("fig2") {
        let fig = fig2::build(&data, &fig2::default_limits(runner.timeout));
        println!("{}", fig2::render(&fig));
        write_csv(&options.csv_dir, "fig2.csv", &fig2::to_csv(&fig));
    }
    if want("fig3") {
        let fig = fig3::build(&data);
        println!("{}", fig3::render(&fig));
        write_csv(&options.csv_dir, "fig3.csv", &fig3::to_csv(&fig));
    }
    if want("fig4") {
        let fig = fig4::build(&data, fig4::MIN_RELATIVE_QUERIES);
        println!("{}", fig4::render(&fig));
        write_csv(&options.csv_dir, "fig4.csv", &fig4::to_csv(&fig));
    }
    let suite_name = if options.full { "full" } else { "quick" };
    let work: String = data
        .results
        .iter()
        .map(|r| {
            let memory_used = r.run.stats.memory_used;
            format!("{} | memory_used={memory_used}\n", r.work_line(suite_name))
        })
        .collect();
    write_csv(&options.csv_dir, "work.txt", &work);
    finish(&data);
}

/// Prints the failure line every command ends with and exits with its code.
///
/// Budget trips degrade to `memout` and contained panics to `crashed` —
/// neither is ever a wrong verdict. Certificate-check failures get their own
/// count (and exit code): a solved case whose proof artifact fails
/// independent checking must fail CI loudly even when the verdict agrees with
/// the ground truth.
fn finish(data: &ExperimentData) -> ! {
    eprintln!(
        "failures: {} wrong verdicts, {} certificate-check failures, {} memout, {} crashed \
         across {} cases ({:?} checking certificates)",
        data.wrong_verdicts(),
        data.cert_failures(),
        data.memouts(),
        data.crashed(),
        data.results.len(),
        data.cert_time()
    );
    std::process::exit(exit_code(
        data.wrong_verdicts(),
        data.cert_failures(),
        data.crashed(),
    ))
}

/// Exit code of a finished run: `1` for wrong verdicts (the gravest failure),
/// `4` for certificate-check failures (a solved case whose proof artifact
/// failed independent verification), `3` for contained crashes, `0`
/// otherwise. Usage errors exit `2` before any case runs.
fn exit_code(wrong: usize, cert_failed: usize, crashed: usize) -> i32 {
    if wrong > 0 {
        1
    } else if cert_failed > 0 {
        4
    } else if crashed > 0 {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::parse_memory;

    #[test]
    fn memory_values_are_mib_or_kib() {
        assert_eq!(parse_memory("1"), Ok(1 << 20));
        assert_eq!(parse_memory("64K"), Ok(64 << 10));
        assert_eq!(parse_memory("1K"), Ok(1024));
        for zero in ["0", "0K"] {
            assert_eq!(parse_memory(zero), Err("--memory must be positive".into()));
        }
        // 2^54 KiB and 2^44 MiB are 2^64 bytes, one more than a u64 holds.
        for bad in [
            "18014398509481984K",
            "17592186044416",
            "K",
            "",
            "64k",
            "64KB",
            "-1",
            "1.5",
        ] {
            assert_eq!(
                parse_memory(bad),
                Err("invalid --memory value".into()),
                "{bad}"
            );
        }
        assert_eq!(parse_memory("18014398509481983K"), Ok(u64::MAX - 1023));
    }
}
