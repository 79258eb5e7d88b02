//! The strategies a portfolio races and the code that runs one of them.

use crate::exchange::Hub;
use plic3::{CheckResult, Config, Ic3, LiteralOrdering, Statistics, UnknownReason};
use plic3_bmc::{BmcDepthStatus, KInduction, KInductionResult};
use plic3_sat::{FaultPlan, ResourceBudget, StopFlag};
use plic3_ts::{Trace, TransitionSystem};
use std::sync::Arc;
use std::time::Duration;

/// One strategy a portfolio worker can run.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Incremental bounded model checking with unbounded depth: finds
    /// counterexamples (often much faster than IC3) but can never prove
    /// safety — on safe instances it runs until cancelled. When the portfolio
    /// degrades to a (partially) sequential chain, the depth is clamped by
    /// [`FallbackBounds`] so this worker cannot starve the complete engines
    /// behind it.
    Bmc,
    /// k-induction with unbounded induction depth: proves k-inductive
    /// properties almost immediately and finds counterexamples through its
    /// base case; incomplete for everything else, and bounded by
    /// [`FallbackBounds`] in (partially) sequential chains like
    /// [`Strategy::Bmc`].
    KInduction,
    /// A full IC3 engine under the given configuration. IC3 workers are the
    /// only ones that take part in lemma sharing.
    Ic3(Config),
}

/// Depth bounds applied to the *incomplete* strategies (BMC, k-induction)
/// whenever the thread budget is smaller than the worker count.
///
/// With every worker running in parallel, an incomplete engine that can never
/// conclude is harmless — the winner cancels it. In a sequential fallback
/// chain it would run forever and starve the complete IC3 workers queued
/// behind it, so it gets a bound and reports
/// [`UnknownReason::FrameLimit`] when the bound is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FallbackBounds {
    /// Maximum BMC depth explored before giving up.
    pub bmc_depth: usize,
    /// Maximum k-induction depth tried before giving up.
    pub max_k: usize,
}

impl Default for FallbackBounds {
    fn default() -> Self {
        FallbackBounds {
            bmc_depth: 120,
            max_k: 60,
        }
    }
}

/// A labelled strategy inside a portfolio.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Short, stable identifier (reported as the winner label).
    pub label: String,
    /// What this worker runs.
    pub strategy: Strategy,
}

impl WorkerSpec {
    /// Creates a spec with the given label.
    pub fn new(label: impl Into<String>, strategy: Strategy) -> Self {
        WorkerSpec {
            label: label.into(),
            strategy,
        }
    }

    /// Returns `true` for IC3 workers (the lemma-sharing participants).
    pub fn shares_lemmas(&self) -> bool {
        matches!(self.strategy, Strategy::Ic3(_))
    }
}

/// The proof backing a portfolio `Safe` verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum SafetyProof {
    /// An inductive-invariant certificate from an IC3 worker; check it with
    /// [`plic3_check::check_certificate`].
    Invariant(plic3::Certificate),
    /// The property was proven `k`-inductive; re-check it by running a fresh
    /// [`KInduction`] engine to depth `k` (see
    /// [`crate::verify_safety_proof`]).
    KInductive {
        /// The induction depth at which the step case closed.
        k: usize,
    },
}

/// What one worker produced.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerOutcome {
    /// The property holds.
    Safe(SafetyProof),
    /// A counterexample was found.
    Unsafe(Trace),
    /// The worker gave up (cancelled by the winner, by the external stop flag,
    /// or by a resource limit).
    Unknown(UnknownReason),
    /// The worker was never started (thread budget exhausted before its turn,
    /// or the race was already over).
    NotRun,
    /// The worker panicked (and, if the supervisor revived it once, panicked
    /// again). The payload is the stringified panic message. A crashed worker
    /// contributes no verdict — the race continues without it, so a crash can
    /// never flip the portfolio result.
    Crashed {
        /// The stringified panic payload of the (last) crash.
        payload: String,
    },
}

impl WorkerOutcome {
    /// Returns `true` for `Safe` and `Unsafe` (the verdicts that end a race).
    pub fn is_conclusive(&self) -> bool {
        matches!(self, WorkerOutcome::Safe(_) | WorkerOutcome::Unsafe(_))
    }
}

/// Per-worker report of one portfolio run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The worker's label.
    pub label: String,
    /// How the worker ended (traces/proofs live in the portfolio result, not
    /// here).
    pub status: WorkerStatus,
    /// Wall-clock time this worker ran for.
    pub runtime: Duration,
    /// Engine statistics (IC3 workers only), including the lemma-exchange
    /// counters.
    pub stats: Option<Statistics>,
    /// Stringified panic payload of the last crash in this slot, if the
    /// worker panicked at least once (even when the supervisor's retry then
    /// finished cleanly and [`WorkerReport::status`] is not `Crashed`).
    pub crash: Option<String>,
    /// `true` when the supervisor restarted this slot once, detached from the
    /// lemma exchange, after a first panic.
    pub restarted: bool,
}

/// A [`WorkerOutcome`] stripped of its payload, for reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Proved the property.
    Safe,
    /// Found a counterexample.
    Unsafe,
    /// Gave up for the stated reason.
    Unknown(UnknownReason),
    /// Never started.
    NotRun,
    /// Panicked (see [`WorkerReport::crash`] for the payload).
    Crashed,
}

impl WorkerOutcome {
    pub(crate) fn status(&self) -> WorkerStatus {
        match self {
            WorkerOutcome::Safe(_) => WorkerStatus::Safe,
            WorkerOutcome::Unsafe(_) => WorkerStatus::Unsafe,
            WorkerOutcome::Unknown(reason) => WorkerStatus::Unknown(*reason),
            WorkerOutcome::NotRun => WorkerStatus::NotRun,
            WorkerOutcome::Crashed { .. } => WorkerStatus::Crashed,
        }
    }
}

/// Runs one worker to completion (or cancellation). Returns the outcome and,
/// for IC3 workers, the engine statistics.
///
/// The argument list mirrors the full per-slot context the supervisor owns
/// (stop flag, sub-budget, fault plan, exchange hookup); bundling it into a
/// struct would only move the same eight names one level down.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker(
    ts: &TransitionSystem,
    spec: &WorkerSpec,
    limits: &plic3::Limits,
    bounds: Option<FallbackBounds>,
    stop: StopFlag,
    budget: ResourceBudget,
    faults: FaultPlan,
    exchange: Option<(Arc<Hub>, usize)>,
) -> (WorkerOutcome, Option<Statistics>) {
    match &spec.strategy {
        Strategy::Bmc => (run_bmc(ts, limits, bounds, stop, budget, faults), None),
        Strategy::KInduction => (run_kind(ts, limits, bounds, stop, budget, faults), None),
        Strategy::Ic3(config) => run_ic3(ts, config, limits, stop, budget, faults, exchange),
    }
}

fn run_bmc(
    ts: &TransitionSystem,
    limits: &plic3::Limits,
    bounds: Option<FallbackBounds>,
    stop: StopFlag,
    budget: ResourceBudget,
    faults: FaultPlan,
) -> WorkerOutcome {
    let mut bmc = plic3_bmc::Bmc::new(ts);
    bmc.set_stop_flag(stop.clone());
    bmc.set_budget(budget.clone());
    bmc.set_fault_plan(faults);
    bmc.set_conflict_budget(limits.max_conflicts);
    let max_depth = bounds.map(|b| b.bmc_depth).unwrap_or(usize::MAX);
    let mut depth = 0usize;
    loop {
        if stop.is_stopped() || budget.is_exhausted() {
            return WorkerOutcome::Unknown(interruption_reason(&stop, &budget));
        }
        if depth > max_depth {
            return WorkerOutcome::Unknown(UnknownReason::FrameLimit);
        }
        match bmc.check_depth_status(depth) {
            BmcDepthStatus::Unsafe(trace) => return WorkerOutcome::Unsafe(trace),
            BmcDepthStatus::Clean => depth += 1,
            BmcDepthStatus::Unknown => {
                return WorkerOutcome::Unknown(interruption_reason(&stop, &budget));
            }
        }
        // On machines with fewer cores than workers the racers time-share;
        // yielding at query granularity keeps a cheap competitor (usually
        // k-induction) from waiting out a whole scheduler quantum behind
        // this CPU-bound loop.
        std::thread::yield_now();
    }
}

fn run_kind(
    ts: &TransitionSystem,
    limits: &plic3::Limits,
    bounds: Option<FallbackBounds>,
    stop: StopFlag,
    budget: ResourceBudget,
    faults: FaultPlan,
) -> WorkerOutcome {
    let mut kind = KInduction::new(ts);
    kind.set_stop_flag(stop.clone());
    kind.set_budget(budget.clone());
    kind.set_fault_plan(faults);
    kind.set_conflict_budget(limits.max_conflicts);
    let max_k = bounds.map(|b| b.max_k).unwrap_or(usize::MAX);
    match kind.check(max_k) {
        KInductionResult::Safe { k } => WorkerOutcome::Safe(SafetyProof::KInductive { k }),
        KInductionResult::Unsafe { trace, .. } => WorkerOutcome::Unsafe(trace),
        KInductionResult::Unknown { bound } => {
            // Distinguish "ran out of bound" from a genuine interruption.
            if bound >= max_k && !stop.is_stopped() && !budget.is_exhausted() {
                WorkerOutcome::Unknown(UnknownReason::FrameLimit)
            } else {
                WorkerOutcome::Unknown(interruption_reason(&stop, &budget))
            }
        }
    }
}

fn run_ic3(
    ts: &TransitionSystem,
    config: &Config,
    limits: &plic3::Limits,
    stop: StopFlag,
    budget: ResourceBudget,
    faults: FaultPlan,
    exchange: Option<(Arc<Hub>, usize)>,
) -> (WorkerOutcome, Option<Statistics>) {
    let mut config = config
        .clone()
        .with_stop_flag(stop)
        .with_budget(budget)
        .with_fault_plan(faults);
    config.limits = *limits;
    let mut engine = Ic3::new(ts.clone(), config);
    if let Some((hub, slot)) = exchange {
        let publisher = hub.clone();
        engine.set_lemma_sink(move |cube, level| publisher.publish(slot, cube, level));
        let inbox = hub.inbox(slot);
        engine.set_lemma_source(move |buf| inbox.drain_into(buf));
    }
    let outcome = match engine.check() {
        CheckResult::Safe(cert) => WorkerOutcome::Safe(SafetyProof::Invariant(cert)),
        CheckResult::Unsafe(trace) => WorkerOutcome::Unsafe(trace),
        CheckResult::Unknown(reason) => WorkerOutcome::Unknown(reason),
    };
    (outcome, Some(*engine.statistics()))
}

/// Why an engine came back interrupted: the memory budget when it tripped
/// (the budget never raises the stop flag, so it is checked first),
/// cancellation when the stop flag is up, otherwise the only other in-query
/// interruption source, the conflict budget.
fn interruption_reason(stop: &StopFlag, budget: &ResourceBudget) -> UnknownReason {
    if budget.is_exhausted() {
        UnknownReason::MemoryOut
    } else if stop.is_stopped() {
        UnknownReason::Cancelled
    } else {
        UnknownReason::ConflictLimit
    }
}

/// The default worker set: BMC, k-induction, and four diversified IC3
/// variants — CTG generalization with prediction off and on, plain-MIC with
/// prediction, and a seeded drop order (keyed on `seed`) with prediction.
///
/// Diversity lives at the IC3 level only (generalization, literal ordering,
/// prediction): every worker drives the same SAT search.
pub fn default_workers(seed: u64) -> Vec<WorkerSpec> {
    vec![
        WorkerSpec::new("bmc", Strategy::Bmc),
        WorkerSpec::new("k-induction", Strategy::KInduction),
        WorkerSpec::new("ic3-ctg", Strategy::Ic3(Config::ric3_like())),
        WorkerSpec::new(
            "ic3-ctg-pl",
            Strategy::Ic3(Config::ric3_like().with_lemma_prediction(true)),
        ),
        WorkerSpec::new(
            "ic3-mic-pl",
            Strategy::Ic3(Config::ic3ref_like().with_lemma_prediction(true)),
        ),
        WorkerSpec::new(
            "ic3-seeded-pl",
            Strategy::Ic3(
                Config::ric3_like()
                    .with_lemma_prediction(true)
                    .with_ordering(LiteralOrdering::Seeded(seed)),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_worker_set_shape() {
        let workers = default_workers(7);
        assert_eq!(workers.len(), 6);
        let ic3 = workers.iter().filter(|w| w.shares_lemmas()).count();
        assert!(ic3 >= 3, "the issue demands at least three IC3 variants");
        let labels: std::collections::HashSet<&str> =
            workers.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(labels.len(), workers.len(), "labels are unique");
    }

    #[test]
    fn outcome_statuses() {
        assert!(WorkerOutcome::Safe(SafetyProof::KInductive { k: 1 }).is_conclusive());
        assert!(!WorkerOutcome::NotRun.is_conclusive());
        assert_eq!(
            WorkerOutcome::Unknown(UnknownReason::Cancelled).status(),
            WorkerStatus::Unknown(UnknownReason::Cancelled)
        );
        let crashed = WorkerOutcome::Crashed {
            payload: "boom".into(),
        };
        assert!(!crashed.is_conclusive(), "a crash never decides the race");
        assert_eq!(crashed.status(), WorkerStatus::Crashed);
    }
}
