//! Suite execution under the in-process portfolio engine
//! (`plic3-exp --engine portfolio`).
//!
//! Where [`crate::run_experiment`] races *cases* (benchmark × configuration)
//! against each other on a thread pool, this module races *strategies inside
//! one case*: every benchmark is handed to a [`Portfolio`] that runs BMC,
//! k-induction and several IC3 variants on the same instance, first
//! conclusive verdict wins. The two layers nest through a thread-budget
//! split — see [`ThreadBudget`].

use crate::runner::{panic_message, RunnerConfig, Verdict, Watchdog};
use plic3::{ResourceBudget, StopFlag, UnknownReason};
use plic3_benchmarks::{Benchmark, ExpectedResult, Suite};
use plic3_check::{CertCheckError, CheckOptions};
use plic3_portfolio::{
    default_workers, verify_safety_proof, ExchangeStats, Portfolio, PortfolioConfig,
    PortfolioResult, WorkerReport,
};
use plic3_prep::{Preprocessor, Reconstruction};
use plic3_ts::TransitionSystem;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

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

/// The outcome of one benchmark under the portfolio engine.
#[derive(Clone, Debug)]
pub struct PortfolioCaseResult {
    /// Benchmark instance name.
    pub benchmark: String,
    /// Benchmark family.
    pub family: String,
    /// Ground-truth expectation.
    pub expected: ExpectedResult,
    /// The verdict reached.
    pub verdict: Verdict,
    /// Whether the verdict matches the ground truth (`true` for `Unknown`).
    pub correct: bool,
    /// Whether the winning proof / counterexample passed independent checking
    /// (`Unsafe` traces replay on the **original**, pre-preprocessing
    /// circuit).
    pub verified: bool,
    /// Wall-clock runtime of the case, *including* preprocessing time.
    pub runtime: Duration,
    /// Time spent in the preprocessing pipeline.
    pub prep_time: Duration,
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
    /// Stringified panic payload when the whole case crashed *outside* the
    /// portfolio's own containment (e.g. during preprocessing); `None`
    /// otherwise.
    pub crash: Option<String>,
}

/// All results of a portfolio experiment, in suite order.
#[derive(Clone, Debug, Default)]
pub struct PortfolioData {
    /// One entry per benchmark.
    pub results: Vec<PortfolioCaseResult>,
    /// The thread-budget split that was used.
    pub budget: Option<ThreadBudget>,
}

impl PortfolioData {
    /// Number of solved cases (safe or unsafe).
    pub fn solved(&self) -> usize {
        self.results.iter().filter(|r| r.verdict.solved()).count()
    }

    /// Number of wrong verdicts (should always be zero).
    pub fn wrong_verdicts(&self) -> usize {
        self.results.iter().filter(|r| !r.correct).count()
    }

    /// Number of solved cases whose proof/trace failed re-checking (should
    /// always be zero).
    pub fn unverified(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.verdict.solved() && !r.verified)
            .count()
    }

    /// Number of cases that ended as [`Verdict::MemOut`].
    pub fn memouts(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.verdict == Verdict::MemOut)
            .count()
    }

    /// Number of cases that crashed outside the portfolio's containment
    /// ([`Verdict::Crashed`]).
    pub fn crashed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.verdict == Verdict::Crashed)
            .count()
    }

    /// Total worker crashes contained by the portfolio supervisors, with the
    /// number of supervised restarts, summed over all cases.
    pub fn worker_crash_totals(&self) -> (usize, usize) {
        self.results.iter().fold((0, 0), |(c, r), case| {
            (c + case.worker_crashes, r + case.worker_restarts)
        })
    }

    /// How often each worker won, as `(label, wins)` sorted by wins.
    pub fn winner_histogram(&self) -> Vec<(String, usize)> {
        let mut wins: Vec<(String, usize)> = Vec::new();
        for result in &self.results {
            let Some(winner) = &result.winner else {
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
            totals.published += r.exchange.published;
            totals.dropped += r.exchange.dropped;
            imported += r.lemmas_imported;
            rejected += r.lemmas_rejected;
        }
        (totals, imported, rejected)
    }
}

/// Runs one benchmark under the portfolio engine with an externally owned
/// cancellation flag (armed by the caller's watchdog) and the given number of
/// worker threads.
pub fn run_portfolio_case(
    benchmark: &Benchmark,
    runner: &RunnerConfig,
    workers_per_case: usize,
    stop: StopFlag,
) -> PortfolioCaseResult {
    let started = Instant::now();
    // One fresh memory budget per case; the portfolio splits it into
    // per-worker sub-budgets.
    let budget = runner
        .max_memory
        .map_or_else(ResourceBudget::unlimited, ResourceBudget::with_limit);
    // Preprocessing runs inside the measured window, exactly as in the
    // single-engine `run_case`, under the same stop flag / budget / fault
    // plan; the witness map replays `Unsafe` traces on the original circuit.
    let prep = runner.preprocess.then(|| {
        Preprocessor::default().run_under(benchmark.aig(), &stop, &budget, &runner.faults)
    });
    let ts = match &prep {
        Some(p) => TransitionSystem::from_aig(&p.aig),
        None => benchmark.ts(),
    };
    let prep_time = prep.as_ref().map_or(Duration::ZERO, |p| p.stats.prep_time);
    // Kept for the certificate check below: the portfolio takes ownership of
    // `stop`, and the checker must observe the same watchdog.
    let case_stop = stop.clone();
    let mut config = PortfolioConfig {
        threads: workers_per_case,
        stop,
        budget,
        faults: runner.faults.clone(),
        // With --certify the portfolio additionally vets every Safe claim at
        // winner-claim time, so a poisoned proof is demoted to a worker crash
        // instead of ever becoming the race verdict.
        certify: runner.certify,
        ..PortfolioConfig::default()
    };
    config.limits.max_time = Some(runner.timeout.saturating_sub(prep_time));
    config.limits.max_conflicts = runner.max_conflicts;
    let mut portfolio = Portfolio::new(ts, config);
    let outcome = portfolio.check();
    let runtime = started.elapsed();
    let (verdict, verified) = match &outcome.result {
        PortfolioResult::Safe(proof) => {
            let mut verified = verify_safety_proof(portfolio.ts(), proof).is_ok();
            // The stronger --certify check replays certificate-backed proofs
            // on the original, pre-preprocessing circuit (k-induction winners
            // have no certificate; they are fully re-derived above). A check
            // the watchdog interrupts stays unproven, not failed.
            if verified && runner.certify {
                if let Some(cert) = outcome.result.certificate() {
                    let identity = Reconstruction::identity(
                        benchmark.aig().num_inputs(),
                        benchmark.aig().num_latches(),
                    );
                    let recon = prep.as_ref().map_or(&identity, |p| &p.reconstruction);
                    let options = CheckOptions {
                        stop: Some(case_stop.clone()),
                        drat: false,
                    };
                    verified = match plic3_check::check_certificate_on_original(
                        benchmark.aig(),
                        recon,
                        portfolio.ts(),
                        cert,
                        &options,
                    ) {
                        Ok(_) | Err(CertCheckError::Interrupted) => true,
                        Err(CertCheckError::Invalid(_)) => false,
                    };
                }
            }
            (Verdict::Safe, verified)
        }
        PortfolioResult::Unsafe(trace) => {
            let replays = match &prep {
                Some(p) => p.replay_on_original(portfolio.ts(), trace),
                None => plic3::verify_trace(portfolio.ts(), benchmark.aig(), trace),
            };
            (Verdict::Unsafe, replays)
        }
        PortfolioResult::Unknown(UnknownReason::MemoryOut) => (Verdict::MemOut, true),
        PortfolioResult::Unknown(_) => (Verdict::Unknown, true),
    };
    let correct = matches!(
        (verdict, benchmark.expected()),
        (Verdict::Safe, ExpectedResult::Safe)
            | (Verdict::Unsafe, ExpectedResult::Unsafe { .. })
            | (Verdict::Unknown | Verdict::MemOut | Verdict::Crashed, _)
    );
    PortfolioCaseResult {
        benchmark: benchmark.name().to_string(),
        family: benchmark.family().to_string(),
        expected: benchmark.expected(),
        verdict,
        correct,
        verified,
        runtime,
        prep_time,
        winner: outcome.winner_label().map(str::to_string),
        exchange: outcome.exchange,
        lemmas_imported: outcome.lemmas_imported(),
        lemmas_rejected: outcome.lemmas_rejected(),
        worker_crashes: outcome.worker_crashes(),
        worker_restarts: outcome.worker_restarts(),
        workers: outcome.workers,
        crash: None,
    }
}

/// The synthetic result of a portfolio case that panicked outside the
/// portfolio's own containment (e.g. in preprocessing): contained here, at
/// the case level, so the rest of the suite keeps running.
fn crashed_portfolio_case(
    benchmark: &Benchmark,
    payload: String,
    runtime: Duration,
) -> PortfolioCaseResult {
    PortfolioCaseResult {
        benchmark: benchmark.name().to_string(),
        family: benchmark.family().to_string(),
        expected: benchmark.expected(),
        verdict: Verdict::Crashed,
        correct: true,
        verified: true,
        runtime,
        prep_time: Duration::ZERO,
        winner: None,
        workers: Vec::new(),
        exchange: ExchangeStats::default(),
        lemmas_imported: 0,
        lemmas_rejected: 0,
        worker_crashes: 0,
        worker_restarts: 0,
        crash: Some(payload),
    }
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
    let total = benchmarks.len();
    let mut results: Vec<Option<PortfolioCaseResult>> = Vec::new();
    results.resize_with(total, || None);
    let next_case = AtomicUsize::new(0);
    let watchdog = Watchdog::new();
    let (tx, rx) = mpsc::channel::<(usize, PortfolioCaseResult)>();
    thread::scope(|scope| {
        let watchdog = &watchdog;
        let benchmarks = &benchmarks;
        let next_case = &next_case;
        scope.spawn(move || watchdog.run());
        for _ in 0..budget.concurrent_cases.min(total.max(1)) {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let index = next_case.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    return;
                }
                let stop = StopFlag::new();
                let token = watchdog.arm(Instant::now() + runner.timeout, stop.clone());
                let case_started = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_portfolio_case(benchmarks[index], runner, budget.workers_per_case, stop)
                }))
                .unwrap_or_else(|payload| {
                    crashed_portfolio_case(
                        benchmarks[index],
                        panic_message(payload),
                        case_started.elapsed(),
                    )
                });
                watchdog.disarm(token);
                if tx.send((index, result)).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            results[index] = Some(result);
        }
        watchdog.shutdown();
    });
    PortfolioData {
        results: results
            .into_iter()
            .map(|result| result.expect("every case reports exactly once"))
            .collect(),
        budget: Some(budget),
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
            r.winner.as_deref().unwrap_or("-"),
            r.lemmas_imported,
            r.lemmas_rejected,
        );
    }
    let (exchange, imported, rejected) = data.exchange_totals();
    let _ = writeln!(
        out,
        "\nsolved {}/{} (wrong verdicts: {}, unverified: {})",
        data.solved(),
        data.results.len(),
        data.wrong_verdicts(),
        data.unverified()
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
    if let Some(budget) = data.budget {
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
            r.winner.as_deref().unwrap_or(""),
            r.lemmas_imported,
            r.lemmas_rejected,
            r.worker_crashes,
            r.worker_restarts,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(data.unverified(), 0);
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
