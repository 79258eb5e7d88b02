//! An **in-process portfolio engine**: several model-checking strategies race
//! on the *same* instance, the first conclusive verdict wins and cancels the
//! rest, and the IC3 workers exchange pushed lemmas along the way.
//!
//! The default portfolio ([`default_workers`]) races six workers:
//!
//! * **BMC** — unbeatable on shallow counterexamples, useless for proofs,
//! * **k-induction** — instant on k-inductive properties, incomplete
//!   otherwise,
//! * **four IC3 variants** — CTG generalization with the paper's CTP lemma
//!   prediction off and on, plain MIC with prediction, and a seeded
//!   pseudo-random drop order (see
//!   [`plic3::LiteralOrdering::Seeded`]).
//!
//! Cancellation goes through one shared [`StopFlag`]: the winner raises it,
//! losing workers observe it inside their SAT queries and return promptly. An
//! external owner (e.g. the experiment harness watchdog) can raise the same
//! flag to cancel the whole race.
//!
//! **Lemma sharing is sound by construction**: IC3 workers publish pushed
//! lemmas into bounded per-receiver inboxes, and a receiver re-proves every
//! foreign lemma against its *own* frames (initiation + consecution) before
//! adopting it — see [`plic3::Ic3::set_lemma_source`]. A buggy or adversarial
//! sender can cost a receiver one SAT query per candidate, but can never make
//! it unsound; the poisoned-lemma tests pin this down.
//!
//! **Determinism contract**: the *winner* (and therefore the wall-clock) is a
//! race and varies run to run, but every worker is individually sound, so the
//! *verdict* is determined by the instance alone. Tests must pin verdicts,
//! never winners.
//!
//! **Winner gate**: every worker's `Safe` claim passes
//! [`vet_safety_outcome`] before it may claim the race. Its proof is
//! re-checked by [`verify_safety_proof`] (certificates by
//! `plic3_check::check_certificate`, k-induction proofs by a fresh
//! k-induction run), and a proof that fails is demoted to a worker crash, so
//! a poisoned certificate costs the race one worker's coverage but can never
//! become its verdict. `Unsafe` traces are not vetted here; callers replay
//! them on the original circuit (the experiment harness always does).
//!
//! # Example
//!
//! ```
//! use plic3_aig::AigBuilder;
//! use plic3_portfolio::{Portfolio, PortfolioConfig, PortfolioResult};
//!
//! // An unsafe 3-bit counter: some worker (usually BMC) finds the bug.
//! let mut b = AigBuilder::new();
//! let state = b.latches(3, Some(false));
//! let inc = b.vec_increment(&state);
//! for (s, n) in state.iter().zip(&inc) {
//!     b.set_latch_next(*s, *n);
//! }
//! let bad = b.vec_equals_const(&state, 6);
//! b.add_bad(bad);
//!
//! let mut portfolio = Portfolio::from_aig(&b.build(), PortfolioConfig::default());
//! let outcome = portfolio.check();
//! assert!(matches!(outcome.result, PortfolioResult::Unsafe(_)));
//! let trace = outcome.result.trace().expect("counterexample");
//! assert!(trace.len() >= 6, "needs six steps to reach 6");
//! assert!(outcome.winner_label().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exchange;
mod worker;

pub use exchange::ExchangeStats;
pub use worker::{
    default_workers, FallbackBounds, SafetyProof, Strategy, WorkerOutcome, WorkerReport,
    WorkerSpec, WorkerStatus,
};

use plic3::{Certificate, Limits, UnknownReason};
use plic3_aig::Aig;
use plic3_bmc::KInduction;
use plic3_check::{check_certificate, CheckOptions};
use plic3_sat::{panic_message, FaultPlan, ResourceBudget, StopFlag};
use plic3_ts::{Trace, TransitionSystem};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Bound of each IC3 worker's foreign-lemma inbox; deliveries to a full
/// inbox are dropped, never blocked on.
const INBOX_CAPACITY: usize = 4096;

/// Seed of the diversified (seeded-drop-order) IC3 variant.
const DROP_ORDER_SEED: u64 = 0x5eed_1e44a;

/// Configuration of a [`Portfolio`] run.
#[derive(Clone, Debug)]
pub struct PortfolioConfig {
    /// Maximum number of worker threads running at once; `0` means one thread
    /// per worker, capped at the machine's available parallelism (but at
    /// least 2) — oversubscribing a small machine only makes every worker
    /// slower. With fewer threads than workers, the remaining strategies
    /// start as earlier ones finish inconclusively (a thread budget of 1
    /// degrades to a sequential fallback chain), with the incomplete
    /// strategies bounded by [`PortfolioConfig::fallback_bounds`].
    pub threads: usize,
    /// Resource budgets handed to every worker. The wall-clock budget is
    /// enforced by the portfolio itself: when `limits.max_time` is set, an
    /// internal timer raises the shared stop flag at the deadline, so even
    /// the incomplete workers (BMC, k-induction — which have no in-engine
    /// clock) wind down on time without an external watchdog.
    pub limits: Limits,
    /// Shared cancellation flag: raised by the winner to cancel the losers,
    /// and by external owners (e.g. a watchdog) to cancel the whole race.
    pub stop: StopFlag,
    /// Depth bounds for the incomplete strategies, applied whenever the
    /// thread budget is smaller than the worker count (so a never-terminating
    /// BMC run cannot starve the complete IC3 workers queued behind it).
    pub fallback_bounds: FallbackBounds,
    /// Memory budget of the whole race; [`Portfolio::check`] splits it into
    /// one equal, independent sub-budget per worker slot, so one strategy's
    /// blow-up cannot eat the others' headroom. A worker whose sub-budget
    /// trips unwinds to [`UnknownReason::MemoryOut`]; the race continues on
    /// the remaining workers.
    pub budget: ResourceBudget,
    /// Deterministic fault-injection schedule handed to every worker (inert
    /// unless the `fault-injection` feature is enabled *and* the plan is
    /// seeded). The plan's fire-once bookkeeping is shared, so a fault
    /// consumed by a worker's first run cannot re-fire in its supervised
    /// retry.
    pub faults: FaultPlan,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            threads: 0,
            limits: Limits::default(),
            stop: StopFlag::new(),
            fallback_bounds: FallbackBounds::default(),
            budget: ResourceBudget::unlimited(),
            faults: FaultPlan::inert(),
        }
    }
}

/// The verdict of a portfolio race.
#[derive(Clone, Debug, PartialEq)]
pub enum PortfolioResult {
    /// The property holds, backed by the winning worker's proof.
    Safe(SafetyProof),
    /// The property is violated; the trace is the winning counterexample.
    Unsafe(Trace),
    /// No worker reached a verdict (cancelled or out of budget).
    Unknown(UnknownReason),
}

impl PortfolioResult {
    /// Returns `true` for [`PortfolioResult::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, PortfolioResult::Safe(_))
    }

    /// Returns `true` for [`PortfolioResult::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, PortfolioResult::Unsafe(_))
    }

    /// Returns `true` for [`PortfolioResult::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, PortfolioResult::Unknown(_))
    }

    /// The counterexample trace, if the result is unsafe.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            PortfolioResult::Unsafe(trace) => Some(trace),
            _ => None,
        }
    }

    /// The invariant certificate, if the result is safe *and* the winning
    /// proof is certificate-backed (IC3 winners; k-induction winners carry a
    /// [`SafetyProof::KInductive`] proof instead).
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            PortfolioResult::Safe(SafetyProof::Invariant(cert)) => Some(cert),
            _ => None,
        }
    }
}

/// Everything a portfolio race produced: the verdict, the winner, per-worker
/// reports, and the lemma-exchange traffic.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The race verdict (the winner's, or `Unknown` when nobody won).
    pub result: PortfolioResult,
    /// Index (into [`PortfolioOutcome::workers`]) of the winning worker.
    pub winner: Option<usize>,
    /// One report per configured worker, in configuration order.
    pub workers: Vec<WorkerReport>,
    /// Lemma-exchange traffic counters.
    pub exchange: ExchangeStats,
    /// Wall-clock time of the whole race.
    pub runtime: Duration,
}

impl PortfolioOutcome {
    /// The winning worker's label.
    pub fn winner_label(&self) -> Option<&str> {
        self.winner.map(|w| self.workers[w].label.as_str())
    }

    /// Total foreign lemmas adopted across all IC3 workers (each one
    /// re-proved locally before adoption).
    pub fn lemmas_imported(&self) -> u64 {
        self.worker_stat(|s| s.lemmas_imported)
    }

    /// Total pushed lemmas exported across all IC3 workers.
    pub fn lemmas_exported(&self) -> u64 {
        self.worker_stat(|s| s.lemmas_exported)
    }

    /// Total foreign lemmas rejected by the local re-checks.
    pub fn lemmas_rejected(&self) -> u64 {
        self.worker_stat(|s| s.lemmas_import_rejected)
    }

    /// Number of worker slots that panicked at least once (including slots
    /// whose supervised retry then finished cleanly).
    pub fn worker_crashes(&self) -> usize {
        self.workers.iter().filter(|w| w.crash.is_some()).count()
    }

    /// Number of worker slots the supervisor restarted after a first panic.
    pub fn worker_restarts(&self) -> usize {
        self.workers.iter().filter(|w| w.restarted).count()
    }

    fn worker_stat(&self, pick: impl Fn(&plic3::Statistics) -> u64) -> u64 {
        self.workers
            .iter()
            .filter_map(|w| w.stats.as_ref())
            .map(pick)
            .sum()
    }
}

/// Independently re-checks the proof behind a portfolio `Safe` verdict.
///
/// Certificate proofs go through [`plic3_check::check_certificate`] on `ts`;
/// k-induction proofs are re-established by a **fresh** [`KInduction`] engine run to the
/// claimed depth (sound because the claim `Safe { k }` is fully re-derived,
/// nothing from the original run is reused).
///
/// # Example
///
/// ```
/// use plic3_aig::AigBuilder;
/// use plic3_portfolio::{verify_safety_proof, Portfolio, PortfolioConfig, PortfolioResult};
/// use plic3_ts::TransitionSystem;
///
/// // A 4-cell one-hot token ring is safe; whoever wins, the proof re-checks.
/// let mut b = AigBuilder::new();
/// let cells: Vec<_> = (0..4).map(|i| b.latch(Some(i == 0))).collect();
/// for i in 0..4 {
///     b.set_latch_next(cells[i], cells[(i + 3) % 4]);
/// }
/// let mut clashes = Vec::new();
/// for i in 0..4 {
///     let clash = b.and(cells[i], cells[(i + 1) % 4]);
///     clashes.push(clash);
/// }
/// let bad = b.or_many(&clashes);
/// b.add_bad(bad);
/// let aig = b.build();
///
/// let mut portfolio = Portfolio::from_aig(&aig, PortfolioConfig::default());
/// let outcome = portfolio.check();
/// let PortfolioResult::Safe(proof) = &outcome.result else {
///     panic!("the ring is safe");
/// };
/// let ts = TransitionSystem::from_aig(&aig);
/// verify_safety_proof(&ts, proof).expect("independently re-checked");
/// ```
pub fn verify_safety_proof(ts: &TransitionSystem, proof: &SafetyProof) -> Result<(), String> {
    match proof {
        SafetyProof::Invariant(cert) => check_certificate(ts, cert, &CheckOptions::default())
            .map(|_| ())
            .map_err(|e| e.to_string()),
        SafetyProof::KInductive { k } => {
            let mut kind = KInduction::new(ts);
            if kind.check(*k).is_safe() {
                Ok(())
            } else {
                Err(format!("the property is not {k}-inductive"))
            }
        }
    }
}

/// Vets a worker outcome before it may claim a portfolio race.
///
/// `Safe` outcomes are re-checked with [`verify_safety_proof`]; a proof that
/// fails the re-check is demoted to [`WorkerOutcome::Crashed`] with a
/// `"proof rejected: …"` payload, so a poisoned certificate reads exactly
/// like a worker crash — it costs the race one worker's coverage, but it can
/// never flip the verdict. All other outcomes pass through unchanged.
///
/// This is the gate every worker outcome passes at winner-claim time; it is
/// public so test harnesses can feed it adversarial proofs directly.
///
/// # Example
///
/// ```
/// use plic3_portfolio::{vet_safety_outcome, SafetyProof, WorkerOutcome};
/// use plic3_aig::AigBuilder;
/// use plic3_ts::TransitionSystem;
///
/// // A self-looping bad latch initialised true is NOT safe; a forged
/// // "0-inductive" claim must not survive vetting.
/// let mut b = AigBuilder::new();
/// let s = b.latch(Some(true));
/// b.set_latch_next(s, s);
/// b.add_bad(s);
/// let ts = TransitionSystem::from_aig(&b.build());
///
/// let forged = WorkerOutcome::Safe(SafetyProof::KInductive { k: 1 });
/// let vetted = vet_safety_outcome(&ts, forged);
/// assert!(matches!(vetted, WorkerOutcome::Crashed { .. }));
/// ```
pub fn vet_safety_outcome(ts: &TransitionSystem, outcome: WorkerOutcome) -> WorkerOutcome {
    match outcome {
        WorkerOutcome::Safe(proof) => match verify_safety_proof(ts, &proof) {
            Ok(()) => WorkerOutcome::Safe(proof),
            Err(why) => WorkerOutcome::Crashed {
                payload: format!("proof rejected: {why}"),
            },
        },
        other => other,
    }
}

/// The in-process portfolio engine. See the [crate docs](crate) for the
/// design and the determinism contract.
pub struct Portfolio {
    ts: TransitionSystem,
    config: PortfolioConfig,
    workers: Vec<WorkerSpec>,
}

impl Portfolio {
    /// Creates a portfolio over `ts` with the [`default_workers`] set.
    pub fn new(ts: TransitionSystem, config: PortfolioConfig) -> Self {
        let workers = default_workers(DROP_ORDER_SEED);
        Portfolio {
            ts,
            config,
            workers,
        }
    }

    /// Encodes `aig` and creates a portfolio for it.
    pub fn from_aig(aig: &Aig, config: PortfolioConfig) -> Self {
        Portfolio::new(TransitionSystem::from_aig(aig), config)
    }

    /// Replaces the worker set (labels should stay unique).
    pub fn with_workers(mut self, workers: Vec<WorkerSpec>) -> Self {
        assert!(!workers.is_empty(), "a portfolio needs at least one worker");
        self.workers = workers;
        self
    }

    /// The configured workers, in the order their reports come back.
    pub fn workers(&self) -> &[WorkerSpec] {
        &self.workers
    }

    /// The transition system being checked.
    pub fn ts(&self) -> &TransitionSystem {
        &self.ts
    }

    /// Races the workers and returns the first conclusive verdict.
    ///
    /// The shared stop flag is raised when a winner emerges, so losing
    /// workers return promptly; the same flag doubles as the external
    /// cancellation point. Workers that never got a thread before the race
    /// ended report [`WorkerStatus::NotRun`].
    pub fn check(&mut self) -> PortfolioOutcome {
        let started = Instant::now();
        let stop = self.config.stop.clone();
        let n = self.workers.len();
        let threads = match self.config.threads {
            0 => {
                let cores = thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1);
                n.min(cores.max(2))
            }
            t => t.min(n),
        }
        .max(1);
        // With fewer threads than workers the race degrades to a (partially)
        // sequential chain; bound the incomplete engines so the chain always
        // reaches a complete one.
        let bounds = (threads < n).then_some(self.config.fallback_bounds);

        // Lemma exchange spans the IC3 workers only (and only when there are
        // at least two of them to talk to each other).
        let sharers: Vec<usize> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.shares_lemmas())
            .map(|(i, _)| i)
            .collect();
        let hub = (sharers.len() >= 2).then(|| exchange::Hub::new(sharers.len(), INBOX_CAPACITY));
        let slot_of = |worker: usize| sharers.iter().position(|&i| i == worker);

        let reports: Vec<Mutex<WorkerReport>> = self
            .workers
            .iter()
            .map(|w| {
                Mutex::new(WorkerReport {
                    label: w.label.clone(),
                    status: WorkerStatus::NotRun,
                    runtime: Duration::ZERO,
                    stats: None,
                    crash: None,
                    restarted: false,
                })
            })
            .collect();
        let winner: Mutex<Option<(usize, WorkerOutcome)>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        // One independent memory sub-budget per worker slot; a supervised
        // retry reuses its slot's (partially spent) budget.
        let budgets = self.config.budget.split(n);

        thread::scope(|scope| {
            // Wall-clock enforcement: without this, a BMC or k-induction
            // worker that can never conclude would outlive every timed-out
            // IC3 worker and block the scope join forever. The timer polls in
            // small steps so it also exits promptly once a winner (or an
            // external owner) raises the flag.
            if let Some(budget) = self.config.limits.max_time {
                let stop = stop.clone();
                scope.spawn(move || {
                    let deadline = Instant::now() + budget;
                    while !stop.is_stopped() {
                        let now = Instant::now();
                        if now >= deadline {
                            stop.stop();
                            return;
                        }
                        thread::sleep((deadline - now).min(Duration::from_millis(10)));
                    }
                });
            }
            for _ in 0..threads {
                let stop = stop.clone();
                let hub = hub.clone();
                let slot_of = &slot_of;
                let ts = &self.ts;
                let workers = &self.workers;
                let limits = &self.config.limits;
                let reports = &reports;
                let winner = &winner;
                let next = &next;
                let budgets = &budgets;
                let faults = &self.config.faults;
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        return;
                    }
                    // The race may already be over (or externally cancelled)
                    // before this strategy ever got a thread: leave it NotRun
                    // instead of spinning up an engine that instantly aborts.
                    if stop.is_stopped() {
                        return;
                    }
                    let exchange = hub
                        .as_ref()
                        .and_then(|hub| slot_of(index).map(|slot| (hub.clone(), slot)));
                    let worker_started = Instant::now();
                    // Fault containment: the worker body runs under
                    // `catch_unwind`, so a panic in one strategy is an
                    // isolated crash of that slot, never of the race. The
                    // supervisor restarts the slot once, detached from the
                    // lemma exchange; a second panic retires the slot as
                    // `Crashed`. Crashes produce no outcome, so they can
                    // cost coverage but never flip the verdict.
                    let attempt = |spec: &worker::WorkerSpec,
                                   exchange: Option<(
                        std::sync::Arc<exchange::Hub>,
                        usize,
                    )>| {
                        catch_unwind(AssertUnwindSafe(|| {
                            worker::run_worker(
                                ts,
                                spec,
                                limits,
                                bounds,
                                stop.clone(),
                                budgets[index].clone(),
                                faults.clone(),
                                exchange,
                            )
                        }))
                    };
                    let (outcome, stats) = match attempt(&workers[index], exchange) {
                        Ok(done) => done,
                        Err(payload) => {
                            let first_crash = panic_message(payload);
                            {
                                let mut report = lock(&reports[index]);
                                report.crash = Some(first_crash.clone());
                            }
                            // Don't bother reviving a slot whose race is
                            // already over (or externally cancelled).
                            if stop.is_stopped() {
                                (
                                    WorkerOutcome::Crashed {
                                        payload: first_crash,
                                    },
                                    None,
                                )
                            } else {
                                lock(&reports[index]).restarted = true;
                                match attempt(&workers[index], None) {
                                    Ok(done) => done,
                                    Err(payload) => {
                                        let second_crash = panic_message(payload);
                                        lock(&reports[index]).crash = Some(second_crash.clone());
                                        (
                                            WorkerOutcome::Crashed {
                                                payload: second_crash,
                                            },
                                            None,
                                        )
                                    }
                                }
                            }
                        }
                    };
                    // Certificate vetting: a `Safe` claim must survive an
                    // independent proof re-check before it may touch the
                    // winner slot; a rejected proof is recorded as a crash of
                    // this slot and never decides the race.
                    let outcome = vet_safety_outcome(ts, outcome);
                    if let WorkerOutcome::Crashed { payload } = &outcome {
                        lock(&reports[index]).crash = Some(payload.clone());
                    }
                    {
                        let mut report = lock(&reports[index]);
                        report.status = outcome.status();
                        report.runtime = worker_started.elapsed();
                        report.stats = stats;
                    }
                    if outcome.is_conclusive() {
                        let mut slot = lock(winner);
                        if slot.is_none() {
                            *slot = Some((index, outcome));
                            // Cancel everyone else.
                            stop.stop();
                        }
                    }
                });
            }
        });

        let workers: Vec<WorkerReport> = reports
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect();
        let (winner_index, result) = match winner.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some((index, WorkerOutcome::Safe(proof))) => {
                (Some(index), PortfolioResult::Safe(proof))
            }
            Some((index, WorkerOutcome::Unsafe(trace))) => {
                (Some(index), PortfolioResult::Unsafe(trace))
            }
            // A winner is only recorded for conclusive outcomes.
            Some(_) => unreachable!("inconclusive outcomes never claim the race"),
            None => {
                let mut reason = unknown_reason(&workers);
                // Workers cancelled by the internal wall-clock timer report
                // a bare cancellation; attribute it to the budget.
                if reason == UnknownReason::Cancelled {
                    if let Some(budget) = self.config.limits.max_time {
                        if started.elapsed() >= budget {
                            reason = UnknownReason::Timeout;
                        }
                    }
                }
                (None, PortfolioResult::Unknown(reason))
            }
        };
        PortfolioOutcome {
            result,
            winner: winner_index,
            workers,
            exchange: hub.as_ref().map(|h| h.stats()).unwrap_or_default(),
            runtime: started.elapsed(),
        }
    }
}

/// The reason to report when nobody won: the most informative one any worker
/// hit (budget exhaustion — conflicts or memory — beats a bare cancellation).
/// Crashed workers carry no reason and are skipped; when *every* worker
/// crashed the race reports a bare cancellation and the per-worker reports
/// tell the real story.
fn unknown_reason(workers: &[WorkerReport]) -> UnknownReason {
    let mut best = UnknownReason::Cancelled;
    for report in workers {
        if let WorkerStatus::Unknown(reason) = report.status {
            best = match (best, reason) {
                (UnknownReason::Cancelled, other) => other,
                (current, UnknownReason::Cancelled) => current,
                (UnknownReason::Timeout, _) | (_, UnknownReason::Timeout) => UnknownReason::Timeout,
                (current, _) => current,
            };
        }
    }
    best
}

/// Locks a mutex, tolerating poison: a poisoned report or winner lock means
/// some thread panicked *while holding it*, but the data underneath (plain
/// status/counter fields) is never left half-written in a way the race could
/// misread, so the supervisor keeps going instead of amplifying one crash
/// into a portfolio-wide abort.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;

    fn token_ring(n: usize) -> Aig {
        let mut b = AigBuilder::new();
        let cells: Vec<_> = (0..n).map(|i| b.latch(Some(i == 0))).collect();
        for i in 0..n {
            b.set_latch_next(cells[i], cells[(i + n - 1) % n]);
        }
        let mut bads = Vec::new();
        for i in 0..n {
            let pair = b.and(cells[i], cells[(i + 1) % n]);
            bads.push(pair);
        }
        let bad = b.or_many(&bads);
        b.add_bad(bad);
        b.build()
    }

    /// Safe, but *not* k-inductive for any k: the reachable states are the
    /// counter values 0..=5 (wrapping to 0), while the unreachable values
    /// 8..=14 form a cycle with an input-controlled exit into the bad state
    /// 15 — so arbitrarily long all-good paths into the bad state exist and
    /// the k-induction step case never closes. BMC can never refute it
    /// either; only IC3 concludes.
    fn trap_cycle() -> Aig {
        let mut b = AigBuilder::new();
        let x = b.input();
        let zero = b.constant_false();
        let one = b.constant_true();
        let state = b.latches(4, Some(false));
        let inc = b.vec_increment(&state);
        let is5 = b.vec_equals_const(&state, 5);
        let is14 = b.vec_equals_const(&state, 14);
        let is15 = b.vec_equals_const(&state, 15);
        for i in 0..4 {
            let bit8 = if i == 3 { one } else { zero };
            let exit = b.ite(x, one, bit8); // 14 → 15 when x, else back to 8
            let after5 = b.ite(is5, zero, inc[i]); // 5 → 0
            let after14 = b.ite(is14, exit, after5);
            let next = b.ite(is15, one, after14); // 15 is absorbing
            b.set_latch_next(state[i], next);
        }
        b.add_bad(is15);
        b.build()
    }

    fn free_counter(bits: usize, bad_at: u64) -> Aig {
        let mut b = AigBuilder::new();
        let state = b.latches(bits, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, bad_at);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn safe_instance_wins_with_a_verifiable_proof() {
        let aig = token_ring(5);
        let mut portfolio = Portfolio::from_aig(&aig, PortfolioConfig::default());
        let outcome = portfolio.check();
        let PortfolioResult::Safe(proof) = &outcome.result else {
            panic!("ring is safe, got {:?}", outcome.result);
        };
        verify_safety_proof(portfolio.ts(), proof).expect("proof re-checks");
        let winner = outcome.winner.expect("someone won");
        assert_eq!(outcome.workers[winner].status, WorkerStatus::Safe);
        assert!(outcome.winner_label().is_some());
    }

    #[test]
    fn unsafe_instance_yields_a_replayable_trace() {
        let aig = free_counter(3, 6);
        let mut portfolio = Portfolio::from_aig(&aig, PortfolioConfig::default());
        let outcome = portfolio.check();
        let trace = outcome.result.trace().expect("counter reaches 6");
        let ts = TransitionSystem::from_aig(&aig);
        assert!(trace.replay_on_aig(&ts, &aig), "winning trace replays");
    }

    #[test]
    fn thread_budget_of_one_degrades_to_a_fallback_chain() {
        let aig = free_counter(2, 3);
        let config = PortfolioConfig {
            threads: 1,
            ..PortfolioConfig::default()
        };
        let mut portfolio = Portfolio::from_aig(&aig, config);
        let outcome = portfolio.check();
        assert!(outcome.result.is_unsafe());
        // With one thread the first worker (BMC) finds the bug and every
        // later strategy is never started.
        assert_eq!(outcome.winner, Some(0));
        for report in &outcome.workers[1..] {
            assert_eq!(report.status, WorkerStatus::NotRun, "{}", report.label);
        }
    }

    #[test]
    fn sequential_chain_still_proves_safe_instances() {
        // The trap-cycle circuit is neither k-inductive nor BMC-refutable, so
        // with a single thread the bounded incomplete engines must step aside
        // and let an IC3 worker finish the job.
        let aig = trap_cycle();
        let config = PortfolioConfig {
            threads: 1,
            fallback_bounds: FallbackBounds {
                bmc_depth: 8,
                max_k: 4,
            },
            ..PortfolioConfig::default()
        };
        let mut portfolio = Portfolio::from_aig(&aig, config);
        let outcome = portfolio.check();
        let PortfolioResult::Safe(proof) = &outcome.result else {
            panic!("ring is safe, got {:?}", outcome.result);
        };
        verify_safety_proof(portfolio.ts(), proof).expect("proof re-checks");
        // BMC and k-induction ran, hit their bounds, and reported FrameLimit.
        assert_eq!(
            outcome.workers[0].status,
            WorkerStatus::Unknown(UnknownReason::FrameLimit)
        );
        assert_eq!(
            outcome.workers[1].status,
            WorkerStatus::Unknown(UnknownReason::FrameLimit)
        );
        assert_eq!(outcome.workers[2].status, WorkerStatus::Safe);
    }

    #[test]
    fn pre_raised_stop_flag_cancels_the_whole_race() {
        let aig = token_ring(6);
        let stop = StopFlag::new();
        stop.stop();
        let config = PortfolioConfig {
            stop,
            ..PortfolioConfig::default()
        };
        let mut portfolio = Portfolio::from_aig(&aig, config);
        let outcome = portfolio.check();
        assert_eq!(
            outcome.result,
            PortfolioResult::Unknown(UnknownReason::Cancelled)
        );
        assert!(outcome.winner.is_none());
        for report in &outcome.workers {
            assert_eq!(report.status, WorkerStatus::NotRun);
        }
    }

    #[test]
    fn wall_clock_budget_bounds_workers_without_an_engine_clock() {
        // BMC and k-induction have no in-engine wall clock and, unbounded on
        // a safe instance, would never return; the portfolio's own timer must
        // cancel them at the budget even with no external watchdog.
        let aig = trap_cycle();
        let config = PortfolioConfig {
            limits: Limits {
                max_time: Some(Duration::from_millis(50)),
                ..Limits::default()
            },
            ..PortfolioConfig::default()
        };
        let workers = vec![
            WorkerSpec::new("bmc", Strategy::Bmc),
            WorkerSpec::new("k-induction", Strategy::KInduction),
        ];
        let mut portfolio = Portfolio::from_aig(&aig, config).with_workers(workers);
        let started = Instant::now();
        let outcome = portfolio.check();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the budget failed to bound the race"
        );
        assert_eq!(
            outcome.result,
            PortfolioResult::Unknown(UnknownReason::Timeout)
        );
    }

    #[test]
    fn poisoned_certificates_are_demoted_to_crashes() {
        use plic3_logic::Clause;
        // A genuine certificate with one lemma flipped: the exact payload a
        // compromised worker would race with. The winner-claim vetting gate
        // must turn it into a crash, never a Safe verdict.
        let aig = token_ring(5);
        let ts = TransitionSystem::from_aig(&aig);
        let mut engine = plic3::Ic3::new(ts.clone(), plic3::Config::ric3_like());
        let plic3::CheckResult::Safe(mut cert) = engine.check() else {
            panic!("the ring is safe");
        };
        cert.lemmas[0] = Clause::from_lits(cert.lemmas[0].iter().map(|l| !l));
        let poisoned = WorkerOutcome::Safe(SafetyProof::Invariant(cert));
        let vetted = vet_safety_outcome(&ts, poisoned);
        let WorkerOutcome::Crashed { payload } = vetted else {
            panic!("a poisoned certificate must not survive vetting: {vetted:?}");
        };
        assert!(payload.starts_with("proof rejected:"), "{payload}");
    }

    #[test]
    fn vetting_passes_genuine_and_inconclusive_outcomes_through() {
        let aig = token_ring(4);
        let ts = TransitionSystem::from_aig(&aig);
        let mut engine = plic3::Ic3::new(ts.clone(), plic3::Config::ric3_like());
        let plic3::CheckResult::Safe(cert) = engine.check() else {
            panic!("the ring is safe");
        };
        let genuine = WorkerOutcome::Safe(SafetyProof::Invariant(cert));
        assert!(matches!(
            vet_safety_outcome(&ts, genuine),
            WorkerOutcome::Safe(_)
        ));
        let unknown = WorkerOutcome::Unknown(UnknownReason::Cancelled);
        assert_eq!(vet_safety_outcome(&ts, unknown.clone()), unknown);
    }

    #[test]
    fn custom_worker_sets_are_respected() {
        let aig = token_ring(4);
        let workers = vec![WorkerSpec::new(
            "only-ic3",
            Strategy::Ic3(plic3::Config::ric3_like()),
        )];
        let mut portfolio =
            Portfolio::from_aig(&aig, PortfolioConfig::default()).with_workers(workers);
        let outcome = portfolio.check();
        assert!(outcome.result.is_safe());
        assert_eq!(outcome.winner_label(), Some("only-ic3"));
        assert_eq!(outcome.exchange, ExchangeStats::default());
        assert!(outcome.result.certificate().is_some());
    }
}
