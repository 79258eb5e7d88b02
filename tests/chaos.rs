//! The deterministic chaos suite (`--features fault-injection`).
//!
//! Every test here replays seeded [`FaultPlan`] schedules — injected panics,
//! simulated memory exhaustion, spurious cancellations — against BMC,
//! k-induction, IC3 and the portfolio, and asserts the fault-containment
//! contract of `docs/ROBUSTNESS.md`:
//!
//! * **zero wrong verdicts** — a conclusive answer under injection is still
//!   correct and independently verifiable,
//! * **zero hangs** — every run degrades into a *reported* outcome,
//! * **zero process aborts** — injected panics unwind into `catch_unwind`
//!   (single engines) or the portfolio supervisor, never out of the process.
//!
//! The single engines are allowed to panic — containment is their *caller's*
//! job (the portfolio supervisor, the harness case loop) — so the drivers
//! here wrap them in `catch_unwind` and insist the payload is the injected
//! marker, never a real bug. `Portfolio::check` gets no such indulgence: it
//! must never panic, whatever is injected into its workers.
//!
//! Scaled by `PLIC3_FUZZ_SCALE` like the other fuzz-flavoured suites (the
//! nightly CI profile sets it to 10).

#![cfg(feature = "fault-injection")]

use plic3_repro::aig::{Aig, AigBuilder};
use plic3_repro::bmc::{Bmc, BmcDepthStatus, KInduction, KInductionResult};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::harness::{
    ablation, run_case, run_experiment, run_portfolio_experiment, Configuration, ExperimentData,
    RunnerConfig, Verdict,
};
use plic3_repro::ic3::{
    verify_trace, CheckResult, Config, FaultKind, FaultPlan, FaultSite, Ic3, Limits,
    ResourceBudget, StopFlag, UnknownReason, INJECTED_PANIC,
};
use plic3_repro::logic::{Clause, Cube, Lit};
use plic3_repro::portfolio::{
    verify_safety_proof, vet_safety_outcome, Portfolio, PortfolioConfig, PortfolioResult,
    SafetyProof, Strategy, WorkerOutcome, WorkerSpec, WorkerStatus,
};
use plic3_repro::ts::TransitionSystem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Base iteration count scaled by the `PLIC3_FUZZ_SCALE` environment
/// variable (the nightly CI profile sets it to 10).
fn iterations(base: u64) -> u64 {
    let scale = std::env::var("PLIC3_FUZZ_SCALE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    base * scale
}

/// Silences the default panic-hook backtrace spam for *injected* panics
/// (hundreds fire per chaos run); real panics keep the standard report.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains(INJECTED_PANIC) {
                previous(info);
            }
        }));
    });
}

/// `true` when a payload caught by `catch_unwind` is the injected marker —
/// anything else escaping an engine under chaos is a genuine bug.
fn is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .is_some_and(|s| s.contains(INJECTED_PANIC))
}

/// A safe one-hot token ring (bad: two adjacent tokens).
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

/// An unsafe free-running counter (bad when the counter reaches `bad_at`).
fn unsafe_counter(bits: usize, bad_at: u64) -> Aig {
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

// ---------------------------------------------------------------------------
// Chaos drivers — one per engine. Each runs to completion under the given
// fault plan and asserts the containment contract.
// ---------------------------------------------------------------------------

fn chaos_bmc(aig: &Aig, expect_safe: bool, faults: FaultPlan) {
    let ts = TransitionSystem::from_aig(aig);
    let stop = StopFlag::new();
    let budget = ResourceBudget::unlimited();
    let mut bmc = Bmc::new(&ts);
    bmc.set_stop_flag(stop.clone());
    bmc.set_budget(budget.clone());
    bmc.set_fault_plan(faults);
    let run = catch_unwind(AssertUnwindSafe(|| {
        // Depth-bounded like the portfolio's sequential fallback: BMC cannot
        // conclude safety, so on the safe ring it must stop somewhere.
        for depth in 0..=40usize {
            if stop.is_stopped() || budget.is_exhausted() {
                return None;
            }
            match bmc.check_depth_status(depth) {
                BmcDepthStatus::Unsafe(trace) => return Some(trace),
                BmcDepthStatus::Clean => {}
                BmcDepthStatus::Unknown => return None,
            }
        }
        None
    }));
    match run {
        Err(payload) => assert!(is_injected(&*payload), "BMC leaked a real panic"),
        Ok(Some(trace)) => {
            assert!(!expect_safe, "bogus BMC counterexample under chaos");
            assert!(trace.replay_on_aig(&ts, aig), "non-replayable chaos trace");
        }
        Ok(None) => {}
    }
}

fn chaos_kind(aig: &Aig, expect_safe: bool, faults: FaultPlan) {
    let ts = TransitionSystem::from_aig(aig);
    let stop = StopFlag::new();
    let budget = ResourceBudget::unlimited();
    let mut kind = KInduction::new(&ts);
    kind.set_stop_flag(stop);
    kind.set_budget(budget);
    kind.set_fault_plan(faults);
    match catch_unwind(AssertUnwindSafe(|| kind.check(25))) {
        Err(payload) => assert!(is_injected(&*payload), "k-induction leaked a real panic"),
        Ok(KInductionResult::Safe { .. }) => {
            assert!(expect_safe, "bogus k-induction Safe under chaos");
        }
        Ok(KInductionResult::Unsafe { trace, .. }) => {
            assert!(!expect_safe, "bogus k-induction Unsafe under chaos");
            assert!(trace.replay_on_aig(&ts, aig), "non-replayable chaos trace");
        }
        Ok(KInductionResult::Unknown { .. }) => {}
    }
}

fn chaos_ic3(aig: &Aig, expect_safe: bool, faults: FaultPlan) {
    let config = Config::ric3_like()
        .with_budget(ResourceBudget::unlimited())
        .with_fault_plan(faults);
    let mut engine = Ic3::from_aig(aig, config);
    let ts = engine.ts().clone();
    match catch_unwind(AssertUnwindSafe(|| engine.check())) {
        Err(payload) => assert!(is_injected(&*payload), "IC3 leaked a real panic"),
        Ok(CheckResult::Safe(cert)) => {
            assert!(expect_safe, "bogus IC3 Safe under chaos");
            // The *independent* checker (fresh solvers, no fault plan of its
            // own) re-establishes the certificate on the circuit: a faulted
            // run either emits no certificate or a fully checkable one.
            check_certificate(aig, &cert, &CheckOptions::default())
                .expect("chaos certificate passes the independent checker");
        }
        Ok(CheckResult::Unsafe(trace)) => {
            assert!(!expect_safe, "bogus IC3 Unsafe under chaos");
            assert!(verify_trace(&ts, aig, &trace), "non-replayable chaos trace");
        }
        Ok(CheckResult::Unknown(_)) => {}
    }
}

fn chaos_portfolio(aig: &Aig, expect_safe: bool, faults: FaultPlan) {
    // No catch_unwind here: whatever is injected into the workers,
    // `Portfolio::check` itself must never panic — that is the tentpole
    // containment contract.
    let config = PortfolioConfig {
        limits: Limits {
            max_time: Some(Duration::from_secs(60)),
            ..Limits::default()
        },
        faults,
        ..PortfolioConfig::default()
    };
    let mut portfolio = Portfolio::from_aig(aig, config);
    let outcome = portfolio.check();
    match &outcome.result {
        PortfolioResult::Safe(proof) => {
            assert!(expect_safe, "bogus portfolio Safe under chaos");
            verify_safety_proof(portfolio.ts(), proof).expect("chaos proof verifies");
        }
        PortfolioResult::Unsafe(trace) => {
            assert!(!expect_safe, "bogus portfolio Unsafe under chaos");
            let ts = TransitionSystem::from_aig(aig);
            assert!(trace.replay_on_aig(&ts, aig), "non-replayable chaos trace");
        }
        PortfolioResult::Unknown(_) => {}
    }
}

/// The headline sweep: hundreds of seeded fault schedules (≥ 200 at scale 1,
/// ten times that in the nightly profile) across all four drivers and both
/// polarities of ground truth. Completion of this test *is* the zero-hang
/// assertion; the drivers assert the rest.
#[test]
fn seeded_fault_schedules_never_corrupt_a_verdict() {
    silence_injected_panics();
    let cases = [(token_ring(5), true), (unsafe_counter(3, 6), false)];
    let mut schedules = 0u64;
    for _ in 0..iterations(25) {
        for (aig, expect_safe) in &cases {
            chaos_bmc(aig, *expect_safe, FaultPlan::seeded(schedules));
            chaos_kind(aig, *expect_safe, FaultPlan::seeded(schedules + 1));
            chaos_ic3(aig, *expect_safe, FaultPlan::seeded(schedules + 2));
            chaos_portfolio(aig, *expect_safe, FaultPlan::seeded(schedules + 3));
            schedules += 4;
        }
    }
    assert!(
        schedules >= 200,
        "the chaos suite replays at least 200 seeded schedules, got {schedules}"
    );
}

// ---------------------------------------------------------------------------
// Targeted containment tests — one deterministic fault each.
// ---------------------------------------------------------------------------

/// An injected memory-out on the very first propagation unwinds to
/// `Unknown(MemoryOut)` — graceful degradation, never an allocator abort.
#[test]
fn injected_memout_degrades_to_a_memory_out_verdict() {
    let config = Config::ric3_like()
        .with_budget(ResourceBudget::unlimited())
        .with_fault_plan(FaultPlan::single(
            FaultSite::Propagate,
            FaultKind::MemOut,
            0,
        ));
    let mut engine = Ic3::from_aig(&token_ring(5), config);
    assert_eq!(
        engine.check(),
        CheckResult::Unknown(UnknownReason::MemoryOut)
    );
    // A faulted, inconclusive run must not leave certificate debris behind.
    assert_eq!(engine.statistics().certificate_lemmas, 0);
}

/// An injected spurious cancellation surfaces as `Unknown(Cancelled)`.
#[test]
fn injected_cancel_surfaces_as_cancelled() {
    let config = Config::ric3_like().with_fault_plan(FaultPlan::single(
        FaultSite::Propagate,
        FaultKind::Cancel,
        0,
    ));
    let mut engine = Ic3::from_aig(&token_ring(5), config);
    assert_eq!(
        engine.check(),
        CheckResult::Unknown(UnknownReason::Cancelled)
    );
    assert_eq!(engine.statistics().certificate_lemmas, 0);
}

/// A worker panicking mid-race never kills `Portfolio::check`: the supervisor
/// records the crash, the race continues, and the verdict stays correct and
/// verifiable. Repeated because on these small instances the race can finish
/// before any worker reaches the faulted site — across ten rounds the fault
/// must land (and be contained) at least once.
#[test]
fn injected_worker_panic_never_kills_the_race() {
    silence_injected_panics();
    let cases = [(token_ring(9), true), (unsafe_counter(4, 12), false)];
    let mut contained = 0usize;
    for round in 0..10 {
        let (aig, expect_safe) = &cases[round % cases.len()];
        let faults = FaultPlan::single(FaultSite::Propagate, FaultKind::Panic, 0);
        let config = PortfolioConfig {
            faults: faults.clone(),
            ..PortfolioConfig::default()
        };
        let mut portfolio = Portfolio::from_aig(aig, config);
        let outcome = portfolio.check();
        match &outcome.result {
            PortfolioResult::Safe(proof) => {
                assert!(expect_safe, "round {round}: bogus Safe");
                verify_safety_proof(portfolio.ts(), proof).expect("proof verifies");
            }
            PortfolioResult::Unsafe(trace) => {
                assert!(!expect_safe, "round {round}: bogus Unsafe");
                let ts = TransitionSystem::from_aig(aig);
                assert!(trace.replay_on_aig(&ts, aig), "trace replays");
            }
            PortfolioResult::Unknown(reason) => {
                panic!("round {round}: one crashed worker lost the whole race ({reason})")
            }
        }
        // A single scheduled fault fires at most once.
        assert!(outcome.worker_crashes() <= 1);
        assert!(outcome.worker_restarts() <= outcome.worker_crashes());
        if outcome.worker_crashes() == 1 {
            let report = outcome
                .workers
                .iter()
                .find(|r| r.crash.is_some())
                .expect("a counted crash has a report");
            assert!(
                report.crash.as_deref().unwrap().contains(INJECTED_PANIC),
                "the recorded payload is the injected marker"
            );
            contained += 1;
        } else {
            assert!(
                faults.is_active(),
                "round {round}: the fault fired but no crash was recorded"
            );
        }
    }
    assert!(
        contained >= 1,
        "ten rounds and the injected panic never landed in a worker"
    );
}

/// A slot whose supervised retry panics again retires as `Crashed` — and even
/// a race of *only* crashed workers ends in a reported `Unknown`, not an
/// abort. The single-worker portfolio makes the restart deterministic: no
/// competitor can win (and cancel the slot) before the supervisor retries.
#[test]
fn a_twice_crashed_slot_retires_without_aborting_the_race() {
    silence_injected_panics();
    let faults = FaultPlan::from_schedule(&[
        (FaultSite::Propagate, FaultKind::Panic, 0),
        (FaultSite::Propagate, FaultKind::Panic, 0),
    ]);
    let config = PortfolioConfig {
        faults,
        ..PortfolioConfig::default()
    };
    let mut portfolio =
        Portfolio::from_aig(&token_ring(5), config).with_workers(vec![WorkerSpec::new(
            "lone-ic3",
            Strategy::Ic3(Config::ric3_like()),
        )]);
    let outcome = portfolio.check();
    assert!(
        matches!(outcome.result, PortfolioResult::Unknown(_)),
        "a fully crashed race still reports an outcome, got {:?}",
        outcome.result
    );
    let report = &outcome.workers[0];
    assert_eq!(report.status, WorkerStatus::Crashed);
    assert!(report.restarted, "the supervisor retried the slot once");
    assert!(
        report.crash.as_deref().unwrap().contains(INJECTED_PANIC),
        "the retiring crash payload is recorded"
    );
    assert_eq!(outcome.worker_crashes(), 1);
    assert_eq!(outcome.worker_restarts(), 1);
}

/// A crash during a supervised retry that *changed nothing else*: the fire-
/// once bookkeeping is shared between the original run and the retry, so a
/// fault consumed by the first attempt cannot re-trip the fallback. One
/// scheduled panic ⇒ the retry completes and the slot still wins.
#[test]
fn a_supervised_retry_survives_the_consumed_fault() {
    silence_injected_panics();
    let faults = FaultPlan::single(FaultSite::Propagate, FaultKind::Panic, 0);
    let config = PortfolioConfig {
        faults,
        ..PortfolioConfig::default()
    };
    let mut portfolio =
        Portfolio::from_aig(&token_ring(7), config).with_workers(vec![WorkerSpec::new(
            "lone-ic3",
            Strategy::Ic3(Config::ric3_like()),
        )]);
    let outcome = portfolio.check();
    let proof = match &outcome.result {
        PortfolioResult::Safe(proof) => proof,
        other => panic!("the retried slot should finish the proof, got {other:?}"),
    };
    verify_safety_proof(portfolio.ts(), proof).expect("the retry's proof verifies");
    let report = &outcome.workers[0];
    assert_eq!(report.status, WorkerStatus::Safe);
    assert!(report.restarted);
    assert!(report.crash.is_some(), "the first crash stays on record");
    assert_eq!(outcome.worker_crashes(), 1);
    assert_eq!(outcome.worker_restarts(), 1);
}

/// The certificate side of the containment contract, satellite to the proof
/// pipeline: a poisoned certificate fed into the portfolio's winner-claim
/// vetting gate ([`PortfolioConfig::certify`] → [`vet_safety_outcome`]) is
/// demoted to a worker crash, never a `Safe` verdict…
#[test]
fn a_poisoned_certificate_is_demoted_at_the_winner_gate() {
    let aig = token_ring(7);
    let ts = TransitionSystem::from_aig(&aig);
    let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
    let CheckResult::Safe(mut cert) = engine.check() else {
        panic!("the ring is safe");
    };
    // The exact payload a compromised or fault-corrupted worker would race
    // with: a genuine certificate with one lemma flipped.
    cert.lemmas[0] = Clause::from_lits(cert.lemmas[0].iter().map(|l| !l));
    let poisoned = WorkerOutcome::Safe(SafetyProof::Invariant(cert));
    let WorkerOutcome::Crashed { payload } = vet_safety_outcome(&ts, poisoned) else {
        panic!("a poisoned certificate must not survive the winner gate");
    };
    assert!(payload.starts_with("proof rejected:"), "{payload}");
}

/// …and a *certified* race under seeded fault schedules still concludes: the
/// vetting gate rejects corrupted proofs, injected panics are contained, and
/// whatever `Safe` emerges is independently re-checkable. (An all-workers-
/// faulted round may end `Unknown`; that is containment, not a failure.)
#[test]
fn certified_races_survive_fault_schedules() {
    silence_injected_panics();
    let aig = token_ring(7);
    let mut concluded = 0usize;
    for round in 0..iterations(10) {
        let config = PortfolioConfig {
            certify: true,
            limits: Limits {
                max_time: Some(Duration::from_secs(60)),
                ..Limits::default()
            },
            faults: FaultPlan::seeded(0x9e11 + round),
            ..PortfolioConfig::default()
        };
        let mut portfolio = Portfolio::from_aig(&aig, config);
        let outcome = portfolio.check();
        match &outcome.result {
            PortfolioResult::Safe(proof) => {
                verify_safety_proof(portfolio.ts(), proof).expect("the vetted winner re-checks");
                concluded += 1;
            }
            PortfolioResult::Unsafe(_) => panic!("round {round}: bogus Unsafe under chaos"),
            PortfolioResult::Unknown(_) => {}
        }
    }
    assert!(
        concluded >= 1,
        "every certified round was faulted into Unknown"
    );
}

/// A poisoned foreign lemma whose *import* panics the engine: deterministic
/// at the engine level (the payload is the injected marker, proving the
/// importer is the panic site)…
#[test]
fn a_poisoned_lemma_import_panics_the_bare_engine() {
    silence_injected_panics();
    let aig = token_ring(7);
    let ts = TransitionSystem::from_aig(&aig);
    let genuine: Cube = ts.latch_vars().map(Lit::pos).collect();
    let mut served = Some(vec![(genuine, 1usize)]);
    let config = Config::ric3_like().with_fault_plan(FaultPlan::single(
        FaultSite::LemmaImport,
        FaultKind::Panic,
        0,
    ));
    let mut engine = Ic3::new(ts, config);
    engine.set_lemma_source(move |buf| {
        if let Some(batch) = served.take() {
            buf.extend(batch);
        }
    });
    let payload = catch_unwind(AssertUnwindSafe(|| engine.check()))
        .expect_err("the poisoned import must panic the bare engine");
    assert!(is_injected(&*payload), "panic site is the lemma importer");
}

/// …and contained at the portfolio level: two IC3 workers exchanging lemmas,
/// the importer panics mid-drain, the race still produces the (verified)
/// verdict and counts the crash. Repeated because lemma traffic is a race —
/// across the rounds the importer must actually trip at least once.
#[test]
fn a_poisoned_lemma_import_cannot_flip_the_portfolio_verdict() {
    silence_injected_panics();
    let aig = token_ring(9);
    let mut contained = 0usize;
    for round in 0..10 {
        let faults = FaultPlan::single(FaultSite::LemmaImport, FaultKind::Panic, 0);
        let config = PortfolioConfig {
            faults: faults.clone(),
            ..PortfolioConfig::default()
        };
        let workers = vec![
            WorkerSpec::new(
                "ic3-a",
                Strategy::Ic3(Config::ric3_like().with_lemma_prediction(true)),
            ),
            WorkerSpec::new("ic3-b", Strategy::Ic3(Config::ic3ref_like())),
        ];
        let mut portfolio = Portfolio::from_aig(&aig, config).with_workers(workers);
        let outcome = portfolio.check();
        match &outcome.result {
            PortfolioResult::Safe(proof) => {
                verify_safety_proof(portfolio.ts(), proof).expect("proof verifies")
            }
            other => panic!("round {round}: the ring must still be proved, got {other:?}"),
        }
        contained += outcome.worker_crashes();
        assert!(
            outcome.worker_crashes() >= 1 || faults.is_active(),
            "round {round}: the import fault fired without a recorded crash"
        );
    }
    assert!(
        contained >= 1,
        "ten rounds of lemma exchange and the poisoned import never fired"
    );
}

// ---------------------------------------------------------------------------
// Harness-level containment: faults injected through `RunnerConfig`.
// ---------------------------------------------------------------------------

/// A cancellation raised *during preprocessing* (deterministically, at the
/// second round edge — exactly where a watchdog firing mid-prep lands): the
/// case winds down to `Unknown` well inside its deadline instead of running
/// the engine to completion.
#[test]
fn a_cancellation_during_preprocessing_ends_the_case_within_its_deadline() {
    let bench_suite = plic3_repro::benchmarks::Suite::quick();
    let bench = bench_suite.iter().next().expect("quick suite is non-empty");
    let runner = RunnerConfig {
        timeout: Duration::from_secs(30),
        preprocess: true,
        faults: FaultPlan::single(FaultSite::PrepRound, FaultKind::Cancel, 1),
        ..RunnerConfig::default()
    };
    let result = run_case(bench, Configuration::Ric3, &runner);
    assert_eq!(result.verdict, Verdict::Unknown);
    assert!(result.correct, "a cancelled case is never a wrong verdict");
    assert!(
        result.runtime < Duration::from_secs(10),
        "mid-prep cancellation must end the case promptly, took {:?}",
        result.runtime
    );
}

/// A panic during preprocessing is contained by the case runner in every
/// experiment mode — the paper's configurations, the portfolio and the
/// ablation: the case ends `crashed` (payload recorded), every other case
/// still runs, and the suite counts zero wrong verdicts.
#[test]
fn a_preprocessing_panic_is_contained_at_the_case_level() {
    silence_injected_panics();
    let suite = plic3_repro::benchmarks::Suite::quick();
    // A fresh single-fault plan per run: each plan fires exactly once.
    let runner = || RunnerConfig {
        timeout: Duration::from_secs(30),
        workers: 1,
        preprocess: true,
        faults: FaultPlan::single(FaultSite::PrepRound, FaultKind::Panic, 0),
        ..RunnerConfig::default()
    };
    let single = run_experiment(&suite, &[Configuration::Ric3], &runner());
    assert_one_contained_crash(&single, suite.len());
    let portfolio = run_portfolio_experiment(&suite, &runner());
    assert_one_contained_crash(&portfolio, suite.len());
    let variants = ablation::default_variants();
    let report = ablation::run(&suite, &variants, &runner());
    assert_one_contained_crash(&report.data, suite.len() * variants.len());
}

fn assert_one_contained_crash<E>(data: &ExperimentData<E>, cases: usize) {
    assert_eq!(data.results.len(), cases, "every case still ran");
    assert_eq!(data.wrong_verdicts(), 0);
    assert_eq!(data.crashed(), 1, "exactly one case ate the injected panic");
    let crashed = data
        .results
        .iter()
        .find(|r| r.verdict == Verdict::Crashed)
        .expect("the crashed case is reported");
    assert!(
        crashed.crash.as_deref().unwrap().contains(INJECTED_PANIC),
        "the contained payload is the injected marker"
    );
}
