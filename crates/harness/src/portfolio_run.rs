//! Suite execution under the in-process portfolio engine
//! (`plic3-exp --engine portfolio`).
//!
//! Where [`crate::run_experiment`] races *cases* (benchmark × configuration)
//! against each other on a thread pool, this module races *strategies inside
//! one case*: every benchmark is handed to a [`Portfolio`] that runs BMC,
//! k-induction and several IC3 variants on the same instance, first
//! conclusive verdict wins. The two layers nest through a thread-budget
//! split — see [`ThreadBudget`].

use crate::runner::{
    run_cases, run_pipeline, CaseResult, EngineSetup, ExperimentData, RunnerConfig,
};
use plic3::StopFlag;
use plic3_benchmarks::{Benchmark, Suite};
use plic3_portfolio::{
    default_workers, ExchangeStats, Portfolio, PortfolioConfig, PortfolioResult, WorkerReport,
};
use plic3_ts::TransitionSystem;
use std::fmt::Write as _;

/// How a total thread budget (`plic3-exp --jobs`) is split between concurrent
/// cases and the workers racing inside each case.
///
/// The portfolio engine wants [`default_workers`] threads per case; the split
/// gives each case `min(workers_per_case, budget)` threads and runs
/// `max(1, budget / workers_per_case)` cases concurrently, so the product
/// never exceeds the budget (beyond the unavoidable minimum of one case with
/// one thread).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Worker threads inside each portfolio race.
    pub workers_per_case: usize,
    /// Cases running concurrently.
    pub concurrent_cases: usize,
}

impl ThreadBudget {
    /// Splits `total` threads for portfolios of `portfolio_size` workers.
    pub fn split(total: usize, portfolio_size: usize) -> ThreadBudget {
        let total = total.max(1);
        let portfolio_size = portfolio_size.max(1);
        ThreadBudget {
            workers_per_case: portfolio_size.min(total),
            concurrent_cases: (total / portfolio_size).max(1),
        }
    }
}

/// What a portfolio race reports beyond the verdict.
#[derive(Clone, Debug, Default)]
pub struct PortfolioRun {
    /// Label of the winning worker (`None` for `Unknown`).
    pub winner: Option<String>,
    /// Per-worker reports of the race (status, runtime, engine statistics).
    pub workers: Vec<WorkerReport>,
    /// Lemma-exchange traffic of the race.
    pub exchange: ExchangeStats,
    /// Foreign lemmas adopted across the IC3 workers (after re-checking).
    pub lemmas_imported: u64,
    /// Foreign lemmas rejected by the re-checks.
    pub lemmas_rejected: u64,
    /// Worker slots that panicked at least once during the race (each crash
    /// was contained by the portfolio supervisor).
    pub worker_crashes: usize,
    /// Worker slots the supervisor restarted, detached from the lemma
    /// exchange, after a first panic.
    pub worker_restarts: usize,
}

/// The outcome of one benchmark under the portfolio engine.
pub type PortfolioCaseResult = CaseResult<PortfolioRun>;

/// All results of a portfolio experiment, in suite order.
pub type PortfolioData = ExperimentData<PortfolioRun>;

impl ExperimentData<PortfolioRun> {
    /// Total worker crashes contained by the portfolio supervisors, with the
    /// number of supervised restarts, summed over all cases.
    pub fn worker_crash_totals(&self) -> (usize, usize) {
        let crashes = self.results.iter().map(|r| r.engine.worker_crashes).sum();
        let restarts = self.results.iter().map(|r| r.engine.worker_restarts).sum();
        (crashes, restarts)
    }

    /// How often each worker won, as `(label, wins)` sorted by wins.
    pub fn winner_histogram(&self) -> Vec<(String, usize)> {
        let mut wins: Vec<(String, usize)> = Vec::new();
        for result in &self.results {
            let Some(winner) = &result.engine.winner else {
                continue;
            };
            match wins.iter_mut().find(|(label, _)| label == winner) {
                Some((_, count)) => *count += 1,
                None => wins.push((winner.clone(), 1)),
            }
        }
        wins.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        wins
    }

    /// Total lemma-exchange traffic across all cases.
    pub fn exchange_totals(&self) -> (ExchangeStats, u64, u64) {
        let mut totals = ExchangeStats::default();
        let (mut imported, mut rejected) = (0, 0);
        for r in &self.results {
            totals.published += r.engine.exchange.published;
            totals.dropped += r.engine.exchange.dropped;
            imported += r.engine.lemmas_imported;
            rejected += r.engine.lemmas_rejected;
        }
        (totals, imported, rejected)
    }
}

/// The engine half of a portfolio case: a race of `threads` workers.
fn solve_portfolio(
    ts: TransitionSystem,
    setup: EngineSetup,
    threads: usize,
) -> (PortfolioResult, PortfolioRun) {
    let config = PortfolioConfig {
        threads,
        limits: setup.limits,
        stop: setup.stop,
        budget: setup.budget,
        faults: setup.faults,
        // Every Safe claim is vetted before it may win the race, so a
        // poisoned proof is demoted to a worker crash instead of ever
        // becoming the verdict.
        certify: true,
        ..PortfolioConfig::default()
    };
    let outcome = Portfolio::new(ts, config).check();
    let run = PortfolioRun {
        winner: outcome.winner_label().map(str::to_string),
        exchange: outcome.exchange,
        lemmas_imported: outcome.lemmas_imported(),
        lemmas_rejected: outcome.lemmas_rejected(),
        worker_crashes: outcome.worker_crashes(),
        worker_restarts: outcome.worker_restarts(),
        workers: outcome.workers,
    };
    (outcome.result, run)
}

/// Runs one benchmark under the portfolio engine with an externally owned
/// cancellation flag and the given number of worker threads.
pub fn run_portfolio_case(
    benchmark: &Benchmark,
    runner: &RunnerConfig,
    workers_per_case: usize,
    stop: StopFlag,
) -> PortfolioCaseResult {
    run_pipeline(benchmark, runner, stop, |ts, setup| {
        solve_portfolio(ts, setup, workers_per_case)
    })
}

/// The thread-budget split [`run_portfolio_experiment`] will use for this
/// runner configuration (exposed so callers can report it without
/// re-deriving it).
pub fn experiment_thread_budget(runner: &RunnerConfig) -> ThreadBudget {
    ThreadBudget::split(runner.effective_workers(), default_workers(0).len())
}

/// Runs the whole `suite` under the portfolio engine.
///
/// [`RunnerConfig::effective_workers`] is the *total* thread budget; it is
/// split by [`experiment_thread_budget`] between concurrent cases and the
/// workers racing inside each case. Results come back in suite order
/// regardless of scheduling, and — because every worker is sound — the
/// *verdicts* are scheduling-independent too (the winner labels and runtimes
/// are not).
pub fn run_portfolio_experiment(suite: &Suite, runner: &RunnerConfig) -> PortfolioData {
    let budget = experiment_thread_budget(runner);
    let benchmarks: Vec<&Benchmark> = suite.iter().collect();
    let results = run_cases(
        &benchmarks,
        budget.concurrent_cases,
        runner,
        |&benchmark| (benchmark, PortfolioRun::default()),
        |_, ts, setup| solve_portfolio(ts, setup, budget.workers_per_case),
    );
    ExperimentData {
        results,
        runner: Some(runner.clone()),
    }
}

/// Renders the portfolio results as an ASCII table plus a summary block.
pub fn render(data: &PortfolioData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>9} {:>14} {:>7} {:>7}",
        "benchmark", "verdict", "time", "winner", "shared", "rej"
    );
    for r in &data.results {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8.3}s {:>14} {:>7} {:>7}",
            r.benchmark,
            r.verdict.to_string(),
            r.runtime.as_secs_f64(),
            r.engine.winner.as_deref().unwrap_or("-"),
            r.engine.lemmas_imported,
            r.engine.lemmas_rejected,
        );
    }
    let (exchange, imported, rejected) = data.exchange_totals();
    let _ = writeln!(
        out,
        "\nsolved {}/{} (wrong verdicts: {}, certificate-check failures: {})",
        data.solved(),
        data.results.len(),
        data.wrong_verdicts(),
        data.cert_failures()
    );
    let (worker_crashes, worker_restarts) = data.worker_crash_totals();
    let _ = writeln!(
        out,
        "failures: {} memout, {} crashed cases, {} worker crashes ({} supervised restarts)",
        data.memouts(),
        data.crashed(),
        worker_crashes,
        worker_restarts
    );
    if let Some(budget) = data.runner.as_ref().map(experiment_thread_budget) {
        let _ = writeln!(
            out,
            "thread budget: {} workers/case x {} concurrent cases",
            budget.workers_per_case, budget.concurrent_cases
        );
    }
    let _ = writeln!(
        out,
        "lemma exchange: {} published, {} dropped, {} adopted, {} rejected",
        exchange.published, exchange.dropped, imported, rejected
    );
    let wins = data.winner_histogram();
    if !wins.is_empty() {
        let rendered: Vec<String> = wins
            .iter()
            .map(|(label, count)| format!("{label}={count}"))
            .collect();
        let _ = writeln!(out, "wins: {}", rendered.join(" "));
    }
    out
}

/// Renders the portfolio results as CSV (one row per benchmark).
pub fn to_csv(data: &PortfolioData) -> String {
    let mut out = String::from(
        "benchmark,family,verdict,correct,verified,runtime_s,prep_s,winner,\
         lemmas_imported,lemmas_rejected,worker_crashes,worker_restarts\n",
    );
    for r in &data.results {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{},{},{},{},{}",
            r.benchmark,
            r.family,
            r.verdict,
            r.correct,
            r.verified,
            r.runtime.as_secs_f64(),
            r.prep_time.as_secs_f64(),
            r.engine.winner.as_deref().unwrap_or(""),
            r.engine.lemmas_imported,
            r.engine.lemmas_rejected,
            r.engine.worker_crashes,
            r.engine.worker_restarts,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn tiny_runner() -> RunnerConfig {
        RunnerConfig {
            timeout: Duration::from_secs(5),
            max_conflicts: Some(200_000),
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn thread_budget_split_never_exceeds_the_total() {
        for (total, size, per_case, cases) in [
            (1, 6, 1, 1),
            (4, 6, 4, 1),
            (6, 6, 6, 1),
            (12, 6, 6, 2),
            (16, 6, 6, 2),
            (24, 6, 6, 4),
            (5, 1, 1, 5),
        ] {
            let budget = ThreadBudget::split(total, size);
            assert_eq!(budget.workers_per_case, per_case, "total={total}");
            assert_eq!(budget.concurrent_cases, cases, "total={total}");
            if total >= size {
                assert!(budget.workers_per_case * budget.concurrent_cases <= total);
            }
        }
    }

    #[test]
    fn portfolio_experiment_matches_ground_truth_on_a_small_suite() {
        let suite = Suite::quick().filter(|b| matches!(b.family(), "counter" | "ring"));
        assert!(!suite.is_empty());
        let data = run_portfolio_experiment(&suite, &tiny_runner());
        assert_eq!(data.results.len(), suite.len());
        assert_eq!(data.wrong_verdicts(), 0);
        assert_eq!(data.cert_failures(), 0);
        assert_eq!(data.solved(), suite.len(), "budget is ample for these");
        // Results come back in suite order.
        let names: Vec<&str> = data.results.iter().map(|r| r.benchmark.as_str()).collect();
        let expected: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert_eq!(names, expected);
        // The rendering covers every case and the summary block.
        let rendered = render(&data);
        assert!(rendered.contains("solved"));
        assert!(rendered.contains("lemma exchange"));
        let csv = to_csv(&data);
        assert_eq!(csv.lines().count(), suite.len() + 1);
    }

    #[test]
    fn expired_watchdog_budget_yields_unknowns_not_wrong_verdicts() {
        let suite = Suite::quick().filter(|b| b.family() == "fifo");
        assert!(!suite.is_empty());
        let runner = RunnerConfig {
            timeout: Duration::from_millis(1),
            max_conflicts: None,
            ..RunnerConfig::default()
        };
        let started = Instant::now();
        let data = run_portfolio_experiment(&suite, &runner);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "cancellation failed to bound the run"
        );
        assert_eq!(data.wrong_verdicts(), 0);
    }
}
