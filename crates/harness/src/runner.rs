//! The case runner: resource-limited execution of benchmark cases under the
//! paper's configurations ([`run_experiment`]).
//!
//! It has two parts. **One pool** (`run_cases`) fans the cases out over
//! worker threads; each case's [`ResourceBudget`] carries its deadline
//! ([`RunnerConfig::budget`]), which ends the case even inside a single long
//! SAT query, a panicking case is contained as [`Verdict::Crashed`], and the
//! results come back in input order, so every table and figure built from
//! them is independent of scheduling. **One per-circuit pipeline**
//! ([`check_circuit`]) runs preprocessing → encoding → the engine under the
//! case's one budget, then one check of the evidence on the original
//! circuit: `Unsafe` traces replay there and `Safe` certificates are checked
//! there. It needs no ground truth, so the `plic3-check` binary runs it on a
//! single circuit; the pool compares each of its verdicts with the
//! benchmark's expectation.

use plic3::{
    panic_message, CheckResult, Config, FaultPlan, Ic3, ResourceBudget, Statistics, UnknownReason,
};
use plic3_aig::Aig;
use plic3_benchmarks::{Benchmark, ExpectedResult, Suite};
use plic3_check::{check_certificate_on_original, CertCheckError, CertCheckReport, CheckOptions};
use plic3_prep::{PrepStats, Preprocessed, Preprocessor};
use plic3_ts::TransitionSystem;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// The configurations evaluated in Table 1 of the paper.
///
/// `RIC3` and `IC3ref` are the two base implementations, the `-pl` variants add
/// the CTP-based lemma prediction, `IC3ref-CAV23` is the parent-guided
/// generalization of Xia et al., and `ABC-PDR` is the PDR implementation of
/// ABC. In this reproduction all six are the same Rust engine under the
/// corresponding [`Config`] presets (see "Deliberate deviations" in
/// `docs/PAPER_MAPPING.md` for the substitution rationale).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Configuration {
    /// RIC3-style baseline (CTG generalization).
    Ric3,
    /// RIC3 plus the paper's lemma prediction.
    Ric3Pl,
    /// IC3ref-style baseline (plain MIC).
    Ic3ref,
    /// IC3ref plus the paper's lemma prediction.
    Ic3refPl,
    /// The CAV'23 parent-guided generalization ordering.
    Ic3refCav23,
    /// An ABC-PDR-style configuration.
    AbcPdr,
}

impl Configuration {
    /// All six configurations, in the order of Table 1 of the paper.
    pub fn all() -> [Configuration; 6] {
        [
            Configuration::Ric3,
            Configuration::Ric3Pl,
            Configuration::Ic3ref,
            Configuration::Ic3refPl,
            Configuration::Ic3refCav23,
            Configuration::AbcPdr,
        ]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Configuration::Ric3 => "RIC3",
            Configuration::Ric3Pl => "RIC3-pl",
            Configuration::Ic3ref => "IC3ref",
            Configuration::Ic3refPl => "IC3ref-pl",
            Configuration::Ic3refCav23 => "IC3ref-CAV23",
            Configuration::AbcPdr => "ABC-PDR",
        }
    }

    /// Returns `true` for the prediction-enabled configurations.
    pub fn has_prediction(&self) -> bool {
        matches!(self, Configuration::Ric3Pl | Configuration::Ic3refPl)
    }

    /// The base configuration a prediction-enabled configuration extends, if
    /// any (used by the Figure 3 and Figure 4 pairings).
    pub fn base(&self) -> Option<Configuration> {
        match self {
            Configuration::Ric3Pl => Some(Configuration::Ric3),
            Configuration::Ic3refPl => Some(Configuration::Ic3ref),
            _ => None,
        }
    }

    /// The engine configuration preset for this evaluation configuration.
    pub fn to_config(&self) -> Config {
        match self {
            Configuration::Ric3 => Config::ric3_like(),
            Configuration::Ric3Pl => Config::ric3_like().with_lemma_prediction(true),
            Configuration::Ic3ref => Config::ic3ref_like(),
            Configuration::Ic3refPl => Config::ic3ref_like().with_lemma_prediction(true),
            Configuration::Ic3refCav23 => Config::cav23_like(),
            Configuration::AbcPdr => Config::pdr_like(),
        }
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The outcome of one (configuration, benchmark) run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Proved safe (with a verified certificate).
    Safe,
    /// Proved unsafe (with a verified counterexample).
    Unsafe,
    /// No verdict within the per-case budget.
    Unknown,
    /// The per-case memory budget tripped before a verdict was reached; the
    /// engine unwound gracefully (never an allocator abort).
    MemOut,
    /// The case panicked; the panic was contained by the runner, the payload
    /// is in [`CaseResult::crash`], and the rest of the suite kept running.
    Crashed,
}

impl Verdict {
    /// Returns `true` if the case was solved (safe or unsafe).
    pub fn solved(&self) -> bool {
        matches!(self, Verdict::Safe | Verdict::Unsafe)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => write!(f, "safe"),
            Verdict::Unsafe => write!(f, "unsafe"),
            Verdict::Unknown => write!(f, "unknown"),
            Verdict::MemOut => write!(f, "memout"),
            Verdict::Crashed => write!(f, "crashed"),
        }
    }
}

/// Per-case resource budgets and the worker pool's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct RunnerConfig {
    /// Per-case wall-clock budget (the paper uses 1000 s; scale to the
    /// suite): the deadline of the case's [`RunnerConfig::budget`].
    pub timeout: Duration,
    /// Number of worker threads the case runner fans cases out over; `0`
    /// means one worker per available core, `1` runs sequentially.
    pub workers: usize,
    /// Run the AIG preprocessing pipeline (`plic3-prep`) before encoding each
    /// circuit. On by default; `plic3-exp --no-preprocess` disables it. With
    /// preprocessing on, witnesses are checked by mapping them back to the
    /// **original** circuit.
    pub preprocess: bool,
    /// Per-case memory budget in bytes (`None` = unlimited). Every case gets
    /// a **fresh** [`ResourceBudget`] of this size ([`RunnerConfig::budget`])
    /// covering preprocessing and the engine's clause/lemma storage; a case
    /// that trips it ends as [`Verdict::MemOut`], never as an allocator
    /// abort.
    pub max_memory: Option<u64>,
    /// Deterministic fault-injection schedule carried by every case's
    /// budget. Inert by default (and always inert without the
    /// `fault-injection` cargo feature); the chaos tests seed it to exercise
    /// crash containment.
    pub faults: FaultPlan,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            timeout: Duration::from_secs(10),
            workers: 0,
            preprocess: true,
            max_memory: None,
            faults: FaultPlan::inert(),
        }
    }
}

impl RunnerConfig {
    /// A fresh budget for one case: [`RunnerConfig::max_memory`] bytes, a
    /// deadline [`RunnerConfig::timeout`] from now, and the faults of
    /// [`RunnerConfig::faults`]. The case's clock starts here.
    pub fn budget(&self) -> ResourceBudget {
        let budget = ResourceBudget::new(self.max_memory, self.faults.clone());
        if let Some(deadline) = Instant::now().checked_add(self.timeout) {
            budget.set_deadline(deadline);
        }
        budget
    }

    /// The worker-pool size this configuration resolves to: `workers`, or one
    /// per available core when it is `0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// The outcome of one (configuration, benchmark) case.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// The configuration that ran.
    pub configuration: Configuration,
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
    /// Stringified panic payload when the case crashed (see
    /// [`Verdict::Crashed`]); `None` for every other verdict.
    pub crash: Option<String>,
    /// The pipeline run the verdict is judged from: the engine's statistics,
    /// the preprocessing statistics, the checked evidence and the runtimes.
    /// A crashed case's run holds only the time until the panic, with zero
    /// statistics and no evidence.
    pub run: CircuitRun,
}

impl CaseResult {
    /// The measured runtime in seconds, preprocessing included: a case that
    /// ran out of time reports how long it ran, not the budget.
    pub fn runtime_secs(&self) -> f64 {
        self.run.runtime.as_secs_f64()
    }

    /// One line of the work record: the suite, circuit and configuration, the
    /// engine's result (`crashed` for a crashed case), every [`Statistics`]
    /// field with its timers and its memory tally zeroed, and the SAT-query,
    /// lemma and fact counts of the certificate check (`-` when there was no
    /// verdict). It holds no timing and no data-layout figure, so two builds
    /// that do the same work print the same line.
    pub fn work_line(&self, suite: &str) -> String {
        let stats = Statistics {
            runtime: Duration::ZERO,
            generalize_time: Duration::ZERO,
            memory_used: 0,
            ..self.run.stats
        };
        let result = match self.crash {
            Some(_) => "crashed".to_string(),
            None => self.run.result.to_string(),
        };
        let evidence = match &self.run.evidence {
            Evidence::Certificate(Ok(report)) => format!(
                "queries={} lemmas={} facts={}",
                report.queries, report.lemmas, report.facts
            ),
            Evidence::Certificate(Err(e)) => format!("FAILED ({e})"),
            Evidence::Replay(replays) => format!("replay={replays}"),
            Evidence::Absent => "-".to_string(),
        };
        format!(
            "{suite} {} {} {result} | {stats:?} | {evidence}",
            self.benchmark, self.configuration
        )
    }

    /// Judges a finished pipeline run of `benchmark` against its ground
    /// truth.
    fn judged(benchmark: &Benchmark, configuration: Configuration, run: CircuitRun) -> Self {
        let verdict = match run.result {
            CheckResult::Safe(_) => Verdict::Safe,
            CheckResult::Unsafe(_) => Verdict::Unsafe,
            CheckResult::Unknown(UnknownReason::MemoryOut) => Verdict::MemOut,
            CheckResult::Unknown(_) => Verdict::Unknown,
        };
        let correct = matches!(
            (verdict, benchmark.expected()),
            (Verdict::Safe, ExpectedResult::Safe)
                | (Verdict::Unsafe, ExpectedResult::Unsafe { .. })
                | (Verdict::Unknown | Verdict::MemOut | Verdict::Crashed, _)
        );
        CaseResult {
            configuration,
            benchmark: benchmark.name().to_string(),
            family: benchmark.family().to_string(),
            expected: benchmark.expected(),
            verdict,
            correct,
            crash: None,
            run,
        }
    }

    /// The synthetic result of a case that panicked: the runner contains the
    /// crash, reports it, and moves on to the next case. A crash is never a
    /// verdict, so it can never be a *wrong* verdict.
    fn crashed(
        benchmark: &Benchmark,
        configuration: Configuration,
        payload: String,
        runtime: Duration,
    ) -> Self {
        CaseResult {
            configuration,
            benchmark: benchmark.name().to_string(),
            family: benchmark.family().to_string(),
            expected: benchmark.expected(),
            verdict: Verdict::Crashed,
            correct: true,
            crash: Some(payload),
            // The runner abandoned the case; `work_line` prints `crashed`.
            run: CircuitRun {
                result: CheckResult::Unknown(UnknownReason::Cancelled),
                stats: Statistics::default(),
                prep: PrepStats::default(),
                evidence: Evidence::Absent,
                runtime,
                cert_time: Duration::ZERO,
            },
        }
    }
}

/// All results of an experiment run, in case order.
#[derive(Clone, Debug)]
pub struct ExperimentData {
    /// One entry per case.
    pub results: Vec<CaseResult>,
}

impl ExperimentData {
    /// Number of solved cases (safe or unsafe).
    pub fn solved(&self) -> usize {
        self.count(|r| r.verdict.solved())
    }

    /// Number of wrong verdicts (should always be zero).
    pub fn wrong_verdicts(&self) -> usize {
        self.count(|r| !r.correct)
    }

    /// Number of cases that ended as [`Verdict::MemOut`].
    pub fn memouts(&self) -> usize {
        self.count(|r| r.verdict == Verdict::MemOut)
    }

    /// Number of cases that ended as [`Verdict::Crashed`] (panic contained by
    /// the runner).
    pub fn crashed(&self) -> usize {
        self.count(|r| r.verdict == Verdict::Crashed)
    }

    /// Number of solved cases whose proof artifact failed independent
    /// checking on the original circuit: a `Safe` proof the checker rejects
    /// or an `Unsafe` trace that does not replay. Should always be zero;
    /// `plic3-exp` exits with a dedicated code when it is not.
    pub fn cert_failures(&self) -> usize {
        self.count(|r| r.verdict.solved() && !r.run.evidence.verified())
    }

    /// Total wall-clock time spent checking `Safe` proofs.
    pub fn cert_time(&self) -> Duration {
        self.results.iter().map(|r| r.run.cert_time).sum()
    }

    fn count(&self, pred: impl Fn(&CaseResult) -> bool) -> usize {
        self.results.iter().filter(|r| pred(r)).count()
    }

    /// Results of a single configuration.
    pub fn for_configuration(&self, config: Configuration) -> Vec<&CaseResult> {
        self.results
            .iter()
            .filter(|r| r.configuration == config)
            .collect()
    }

    /// The result of `config` on the named benchmark, if present.
    pub fn result_of(&self, config: Configuration, benchmark: &str) -> Option<&CaseResult> {
        self.results
            .iter()
            .find(|r| r.configuration == config && r.benchmark == benchmark)
    }

    /// Every result of a prediction-enabled configuration paired with its
    /// base configuration's result on the same benchmark, as `(base,
    /// prediction)`: grouped by configuration in first-seen order, then in
    /// case order (the Figure 3 and Figure 4 pairings).
    pub fn prediction_pairs(&self) -> Vec<(&CaseResult, &CaseResult)> {
        let mut pairs = Vec::new();
        for pl in self.configurations() {
            let Some(base) = pl.base() else { continue };
            for pl_result in self.for_configuration(pl) {
                if let Some(base_result) = self.result_of(base, &pl_result.benchmark) {
                    pairs.push((base_result, pl_result));
                }
            }
        }
        pairs
    }

    /// All configurations present in the data, in first-seen order.
    pub fn configurations(&self) -> Vec<Configuration> {
        let mut seen = Vec::new();
        for r in &self.results {
            if !seen.contains(&r.configuration) {
                seen.push(r.configuration);
            }
        }
        seen
    }
}

/// What the evidence behind a verdict showed when checked on the original
/// circuit.
#[derive(Clone, Debug)]
pub enum Evidence {
    /// The check of a `Safe` verdict's invariant certificate.
    Certificate(Result<CertCheckReport, CertCheckError>),
    /// Whether an `Unsafe` verdict's counterexample trace replays.
    Replay(bool),
    /// No verdict, so nothing to check.
    Absent,
}

impl Evidence {
    /// Whether the evidence passed its check (`true` when there was none).
    pub fn verified(&self) -> bool {
        match self {
            Evidence::Certificate(checked) => checked.is_ok(),
            Evidence::Replay(replays) => *replays,
            Evidence::Absent => true,
        }
    }
}

/// One run of the per-circuit pipeline ([`check_circuit`]).
#[derive(Clone, Debug)]
pub struct CircuitRun {
    /// The engine's result on the (preprocessed) circuit.
    pub result: CheckResult,
    /// Engine statistics (including the prediction counters).
    pub stats: Statistics,
    /// Statistics of the preprocessing run.
    pub prep: PrepStats,
    /// The result's evidence, checked on the original circuit.
    pub evidence: Evidence,
    /// Wall-clock time of preprocessing, encoding and the engine.
    pub runtime: Duration,
    /// Time spent checking the `Safe` proof (zero for every other result).
    pub cert_time: Duration,
}

/// The per-circuit pipeline: preprocessing → encoding → IC3 under
/// `configuration` → the evidence checked on the original circuit.
///
/// `budget` is the run's one handle, normally a fresh
/// [`RunnerConfig::budget`], whose deadline is the only clock of the run;
/// the caller may keep a clone to cancel the run. Preprocessing and the
/// engine share it, so the whole run, not each phase, stays under the
/// deadline and the memory limit and sees each injected fault once. With
/// [`RunnerConfig::preprocess`] off, the pipeline runs on
/// [`Preprocessed::identity`], so every path checks evidence through a
/// reconstruction.
///
/// The deadline is read between the passes of preprocessing's latch
/// analysis, between the engine's SAT queries, and at each conflict inside
/// a query. Encoding and [`Ic3::new`] read no clock, so a run can overshoot its deadline by its encoding, its
/// engine setup, or the conflict-free stretch of a query it was in. The
/// evidence check runs after `runtime` is taken and is not interruptible:
/// every `Safe` certificate is fully checked.
pub fn check_circuit(
    aig: &Aig,
    configuration: Configuration,
    runner: &RunnerConfig,
    budget: ResourceBudget,
) -> CircuitRun {
    let started = Instant::now();
    let prep = if runner.preprocess {
        Preprocessor.run_under(aig, &budget)
    } else {
        Preprocessed::identity(aig)
    };
    let ts = TransitionSystem::from_aig(&prep.aig);
    let config = Config {
        budget,
        ..configuration.to_config()
    };
    // The engine owns its copy; the evidence below is checked against this
    // one.
    let mut engine = Ic3::new(ts.clone(), config);
    let result = engine.check();
    let stats = *engine.statistics();
    let runtime = started.elapsed();

    let check_started = Instant::now();
    let evidence = match &result {
        CheckResult::Safe(cert) => Evidence::Certificate(check_certificate_on_original(
            prep.original(),
            &prep.reconstruction,
            &ts,
            cert,
            &CheckOptions::default(),
        )),
        CheckResult::Unsafe(trace) => Evidence::Replay(prep.replay_on_original(&ts, trace)),
        CheckResult::Unknown(_) => Evidence::Absent,
    };
    let cert_time = if matches!(result, CheckResult::Safe(_)) {
        check_started.elapsed()
    } else {
        Duration::ZERO
    };
    CircuitRun {
        result,
        stats,
        prep: prep.stats,
        evidence,
        runtime,
        cert_time,
    }
}

/// Runs a single benchmark under a single configuration with the given
/// budgets: [`check_circuit`] under a fresh [`RunnerConfig::budget`], judged
/// against the benchmark's expectation, exactly as one case of
/// [`run_experiment`] (without its panic containment).
pub fn run_case(
    benchmark: &Benchmark,
    configuration: Configuration,
    runner: &RunnerConfig,
) -> CaseResult {
    let run = check_circuit(benchmark.aig(), configuration, runner, runner.budget());
    CaseResult::judged(benchmark, configuration, run)
}

/// The one pool: runs every (benchmark, configuration) case through
/// [`check_circuit`] on `workers` threads, judges each against its ground
/// truth, and returns the results in input order.
///
/// Each case runs under a fresh [`RunnerConfig::budget`], whose deadline
/// ends it, and its panics are contained: a panicking case is recorded as
/// [`Verdict::Crashed`] and the rest keep running.
fn run_cases(
    cases: &[(&Benchmark, Configuration)],
    workers: usize,
    runner: &RunnerConfig,
) -> Vec<CaseResult> {
    let total = cases.len();
    let mut results: Vec<Option<CaseResult>> = Vec::new();
    results.resize_with(total, || None);
    let next_case = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CaseResult)>();
    thread::scope(|scope| {
        let next_case = &next_case;
        for _ in 0..workers.max(1).min(total.max(1)) {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let index = next_case.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    return;
                }
                let (benchmark, configuration) = cases[index];
                let budget = runner.budget();
                let started = Instant::now();
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let run = check_circuit(benchmark.aig(), configuration, runner, budget);
                    CaseResult::judged(benchmark, configuration, run)
                }))
                .unwrap_or_else(|payload| {
                    CaseResult::crashed(
                        benchmark,
                        configuration,
                        panic_message(payload),
                        started.elapsed(),
                    )
                });
                if tx.send((index, result)).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            results[index] = Some(result);
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("every case reports exactly once"))
        .collect()
}

/// Runs the whole `suite` under every configuration in `configurations`.
///
/// Cases are distributed over [`RunnerConfig::effective_workers`] worker
/// threads by the case runner and come back in benchmark-major order, so the
/// returned [`ExperimentData`] is ordered identically no matter how the cases
/// were scheduled — repeated runs differ only in measured runtimes.
pub fn run_experiment(
    suite: &Suite,
    configurations: &[Configuration],
    runner: &RunnerConfig,
) -> ExperimentData {
    let cases: Vec<(&Benchmark, Configuration)> = suite
        .iter()
        .flat_map(|benchmark| {
            configurations
                .iter()
                .map(move |&configuration| (benchmark, configuration))
        })
        .collect();
    ExperimentData {
        results: run_cases(&cases, runner.effective_workers(), runner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_runner() -> RunnerConfig {
        RunnerConfig {
            timeout: Duration::from_secs(5),
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn configuration_metadata_is_consistent() {
        assert_eq!(Configuration::all().len(), 6);
        for config in Configuration::all() {
            assert!(!config.label().is_empty());
            if let Some(base) = config.base() {
                assert!(config.has_prediction());
                assert!(!base.has_prediction());
                assert!(!base.to_config().lemma_prediction);
                assert!(config.to_config().lemma_prediction);
            }
        }
        assert_eq!(Configuration::Ric3Pl.to_string(), "RIC3-pl");
    }

    #[test]
    fn run_case_agrees_with_ground_truth_on_quick_suite() {
        let suite = Suite::quick();
        let runner = tiny_runner();
        for benchmark in suite.iter().take(6) {
            let result = run_case(benchmark, Configuration::Ric3Pl, &runner);
            assert!(result.correct, "{} got wrong verdict", benchmark.name());
            if result.verdict.solved() {
                assert!(
                    result.run.evidence.verified(),
                    "{} result not verified",
                    benchmark.name()
                );
            }
        }
    }

    #[test]
    fn preprocessing_preserves_verdicts_and_keeps_witnesses_replayable() {
        let raw = RunnerConfig {
            preprocess: false,
            ..tiny_runner()
        };
        let pre = tiny_runner();
        assert!(pre.preprocess, "preprocessing is on by default");
        for benchmark in Suite::quick().iter() {
            let a = run_case(benchmark, Configuration::Ric3Pl, &raw);
            let b = run_case(benchmark, Configuration::Ric3Pl, &pre);
            assert_eq!(
                a.verdict,
                b.verdict,
                "{}: preprocessing changed the verdict",
                benchmark.name()
            );
            assert!(b.correct, "{}: wrong verdict", benchmark.name());
            assert!(
                b.run.evidence.verified(),
                "{}: preprocessed witness failed verification on the original circuit",
                benchmark.name()
            );
            assert!(
                a.run.evidence.verified(),
                "{}: raw witness failed verification through the identity reconstruction",
                benchmark.name()
            );
            assert!(!a.run.prep.cancelled);
            assert_eq!(a.run.prep.prep_time, Duration::ZERO);
            assert_eq!(a.run.prep.latches_after, benchmark.aig().num_latches());
        }
    }

    #[test]
    fn every_safe_case_is_checked_on_the_original_circuit_by_default() {
        let runner = tiny_runner();
        assert!(runner.preprocess, "the check must invert real witness maps");
        let suite = Suite::quick();
        let data = run_experiment(&suite, &[Configuration::Ric3Pl], &runner);
        let mut safe_cases = 0;
        for r in &data.results {
            let name = &r.benchmark;
            assert!(r.correct, "{name} got wrong verdict");
            if r.verdict.solved() {
                assert!(
                    r.run.evidence.verified(),
                    "{name} failed independent checking"
                );
            }
            if r.verdict == Verdict::Safe {
                safe_cases += 1;
                assert!(
                    r.run.cert_time > Duration::ZERO,
                    "{name}: no certificate check"
                );
            } else {
                assert_eq!(r.run.cert_time, Duration::ZERO);
            }
        }
        assert!(safe_cases >= 2, "the quick suite has safe instances");
    }

    #[test]
    fn experiment_data_accessors() {
        let suite = Suite::quick().filter(|b| b.family() == "counter");
        let runner = tiny_runner();
        let configs = [Configuration::Ric3, Configuration::Ric3Pl];
        let data = run_experiment(&suite, &configs, &runner);
        assert_eq!(data.results.len(), suite.len() * 2);
        assert_eq!(data.configurations(), configs.to_vec());
        assert_eq!(data.wrong_verdicts(), 0);
        assert_eq!(
            data.for_configuration(Configuration::Ric3).len(),
            suite.len()
        );
        let name = suite.iter().next().expect("non-empty").name();
        assert!(data.result_of(Configuration::Ric3Pl, name).is_some());
        assert!(data.result_of(Configuration::AbcPdr, name).is_none());
    }

    #[test]
    fn parallel_and_sequential_runs_agree() {
        // Fanning the cases out over several workers must not change what is
        // reported, only how fast. All cases below solve well within the
        // budget, so the verdicts are deterministic.
        let suite = Suite::quick().filter(|b| matches!(b.family(), "counter" | "ring"));
        let configs = [Configuration::Ric3, Configuration::Ric3Pl];
        let on = |workers| RunnerConfig {
            workers,
            ..tiny_runner()
        };
        let sequential = run_experiment(&suite, &configs, &on(1));
        let parallel = run_experiment(&suite, &configs, &on(4));
        assert_eq!(sequential.results.len(), parallel.results.len());
        for (s, p) in sequential.results.iter().zip(&parallel.results) {
            assert_eq!(s.benchmark, p.benchmark, "case order must be identical");
            assert_eq!(s.configuration, p.configuration);
            assert_eq!(
                s.verdict, p.verdict,
                "{} under {} changed verdict across schedulers",
                s.benchmark, s.configuration
            );
            assert_eq!(s.correct, p.correct);
            assert_eq!(s.run.evidence.verified(), p.run.evidence.verified());
        }
    }

    #[test]
    fn results_come_back_in_benchmark_major_order() {
        let suite = Suite::quick().filter(|b| b.family() == "counter");
        let runner = RunnerConfig {
            workers: 3,
            ..tiny_runner()
        };
        let configs = [Configuration::Ric3, Configuration::Ic3ref];
        let data = run_experiment(&suite, &configs, &runner);
        let mut expected = Vec::new();
        for benchmark in &suite {
            for &configuration in &configs {
                expected.push((benchmark.name().to_string(), configuration));
            }
        }
        let actual: Vec<(String, Configuration)> = data
            .results
            .iter()
            .map(|r| (r.benchmark.clone(), r.configuration))
            .collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn deadline_ends_cases_that_blow_their_budget() {
        // A budget far below what any real case needs: every verdict must come
        // back Unknown (counted correct), and the whole experiment must finish
        // quickly instead of running the cases to completion.
        let suite = Suite::hwmcc_like().filter(|b| b.family() == "fifo");
        assert!(!suite.is_empty());
        let runner = RunnerConfig {
            timeout: Duration::from_millis(1),
            workers: 2,
            ..RunnerConfig::default()
        };
        let started = Instant::now();
        let data = run_experiment(&suite, &[Configuration::Ric3], &runner);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "cancellation failed to bound the run"
        );
        assert_eq!(data.results.len(), suite.len());
        assert_eq!(data.wrong_verdicts(), 0);
    }

    #[test]
    fn a_memory_out_that_a_cancellation_follows_counts_as_memout() {
        let suite = Suite::quick();
        let benchmark = suite.iter().next().expect("quick suite is non-empty");
        let runner = RunnerConfig {
            max_memory: Some(1),
            ..tiny_runner()
        };
        let budget = runner.budget();
        budget.charge(2);
        // The deadline passes after the memory-out.
        budget.set_deadline(Instant::now());
        let run = check_circuit(benchmark.aig(), Configuration::Ric3, &runner, budget);
        assert_eq!(run.result, CheckResult::Unknown(UnknownReason::MemoryOut));
        let case = CaseResult::judged(benchmark, Configuration::Ric3, run);
        assert_eq!(case.verdict, Verdict::MemOut);
    }

    #[test]
    fn effective_workers_resolves_auto() {
        assert!(RunnerConfig::default().effective_workers() >= 1);
        let one = RunnerConfig {
            workers: 1,
            ..RunnerConfig::default()
        };
        assert_eq!(one.effective_workers(), 1);
    }

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Safe.solved());
        assert!(Verdict::Unsafe.solved());
        assert!(!Verdict::Unknown.solved());
        assert!(!Verdict::MemOut.solved());
        assert!(!Verdict::Crashed.solved());
        assert_eq!(Verdict::Unknown.to_string(), "unknown");
        assert_eq!(Verdict::MemOut.to_string(), "memout");
        assert_eq!(Verdict::Crashed.to_string(), "crashed");
    }

    #[test]
    fn tight_memory_budget_degrades_to_memout_never_aborts() {
        // A budget far too small for these cases: every verdict must come
        // back MemOut (or Unknown if something else trips first), counted
        // correct, with the process alive and well.
        let suite = Suite::hwmcc_like().filter(|b| b.family() == "fifo");
        assert!(!suite.is_empty());
        let runner = RunnerConfig {
            max_memory: Some(16 * 1024),
            workers: 2,
            ..tiny_runner()
        };
        let data = run_experiment(&suite, &[Configuration::Ric3], &runner);
        assert_eq!(data.wrong_verdicts(), 0);
        assert_eq!(data.crashed(), 0);
        assert!(
            data.memouts() > 0,
            "a 16 KiB budget must trip on at least one fifo case: {:?}",
            data.results
                .iter()
                .map(|r| (r.benchmark.as_str(), r.verdict))
                .collect::<Vec<_>>()
        );
    }
}
