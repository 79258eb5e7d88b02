//! The deterministic chaos suite (`--features fault-injection`).
//!
//! Every test here replays seeded [`FaultPlan`] schedules — injected panics,
//! simulated memory exhaustion, spurious cancellations — carried by each
//! run's [`ResourceBudget`] into BMC, k-induction, IC3 and the harness's case
//! runner, and asserts the fault-containment contract of
//! `docs/ROBUSTNESS.md`:
//!
//! * **zero wrong verdicts** — a conclusive answer under injection is still
//!   correct and independently verifiable,
//! * **zero hangs** — every run degrades into a *reported* outcome,
//! * **zero process aborts** — injected panics unwind into `catch_unwind`,
//!   never out of the process.
//!
//! The engines are allowed to panic — containment is their *caller's* job
//! (the harness case runner) — so the drivers here wrap them in
//! `catch_unwind` and insist the payload is the injected marker, never a real
//! bug.
//!
//! Scaled by `PLIC3_FUZZ_SCALE` like the other fuzz-flavoured suites (the
//! nightly CI profile sets it to 10).

#![cfg(feature = "fault-injection")]

use plic3_repro::aig::{Aig, AigBuilder};
use plic3_repro::bmc::{Bmc, BmcDepthStatus, KInduction, KInductionResult};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::harness::{
    check_circuit, run_case, run_experiment, Configuration, ExperimentData, RunnerConfig, Verdict,
};
use plic3_repro::ic3::{
    CheckResult, Config, FaultKind, FaultPlan, FaultSite, Ic3, ResourceBudget, UnknownReason,
    INJECTED_PANIC,
};
use plic3_repro::prep::Preprocessor;
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

/// An unsafe circuit that preprocessing rewrites over several rounds: a
/// 2-bit counter, a duplicate copy of it, a guard stuck at 1 and a junk
/// latch outside the property's cone (bad when either copy reaches 3).
fn redundant_counter() -> Aig {
    let mut b = AigBuilder::new();
    let enable = b.input();
    let junk_in = b.input();
    let mut at3 = Vec::new();
    for _ in 0..2 {
        let bits = b.latches(2, Some(false));
        let inc = b.vec_increment(&bits);
        for (s, n) in bits.iter().zip(&inc) {
            let next = b.ite(enable, *n, *s);
            b.set_latch_next(*s, next);
        }
        at3.push(b.vec_equals_const(&bits, 3));
    }
    let guard = b.latch(Some(true));
    b.set_latch_next(guard, guard);
    let junk = b.latch(Some(false));
    b.set_latch_next(junk, junk_in);
    let either = b.or(at3[0], at3[1]);
    let bad = b.and(either, guard);
    b.add_bad(bad);
    b.build()
}

// ---------------------------------------------------------------------------
// Chaos drivers — one per engine. Each runs to completion under the given
// fault plan and asserts the containment contract.
// ---------------------------------------------------------------------------

fn chaos_bmc(aig: &Aig, expect_safe: bool, faults: FaultPlan) {
    let ts = TransitionSystem::from_aig(aig);
    let budget = ResourceBudget::new(None, faults);
    let mut bmc = Bmc::new(&ts);
    bmc.set_budget(budget.clone());
    let run = catch_unwind(AssertUnwindSafe(|| {
        // Depth-bounded: BMC cannot conclude safety, so on the safe ring it
        // must stop somewhere.
        for depth in 0..=40usize {
            if budget.is_stopped() {
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
    let mut kind = KInduction::new(&ts);
    kind.set_budget(ResourceBudget::new(None, faults));
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
    let config = Config::ric3_like().with_budget(ResourceBudget::new(None, faults));
    let ts = TransitionSystem::from_aig(aig);
    // Building the engine already propagates, so a fault can fire there too.
    match catch_unwind(AssertUnwindSafe(|| Ic3::new(ts.clone(), config).check())) {
        Err(payload) => assert!(is_injected(&*payload), "IC3 leaked a real panic"),
        Ok(CheckResult::Safe(cert)) => {
            assert!(expect_safe, "bogus IC3 Safe under chaos");
            // The *independent* checker (fresh solvers, no fault plan of its
            // own) re-establishes the certificate on the circuit: a faulted
            // run either emits no certificate or a fully checkable one.
            check_certificate(&ts, &cert, &CheckOptions::default())
                .expect("chaos certificate passes the independent checker");
        }
        Ok(CheckResult::Unsafe(trace)) => {
            assert!(!expect_safe, "bogus IC3 Unsafe under chaos");
            assert!(trace.replay_on_aig(&ts, aig), "non-replayable chaos trace");
        }
        Ok(CheckResult::Unknown(_)) => {}
    }
}

/// The whole per-circuit pipeline of the case runner: preprocessing, IC3
/// with prediction, and the evidence check on the original circuit.
fn chaos_pipeline(aig: &Aig, expect_safe: bool, faults: FaultPlan) {
    let runner = RunnerConfig {
        timeout: Duration::from_secs(30),
        faults,
        ..RunnerConfig::default()
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        check_circuit(aig, Configuration::Ric3Pl, &runner, runner.budget())
    }));
    match run {
        Err(payload) => assert!(is_injected(&*payload), "the pipeline leaked a real panic"),
        Ok(run) => {
            assert!(
                run.evidence.verified(),
                "chaos evidence fails its check on the original circuit"
            );
            match run.result {
                CheckResult::Safe(_) => assert!(expect_safe, "bogus pipeline Safe under chaos"),
                CheckResult::Unsafe(_) => {
                    assert!(!expect_safe, "bogus pipeline Unsafe under chaos")
                }
                CheckResult::Unknown(_) => {}
            }
        }
    }
}

type Driver = fn(&Aig, bool, FaultPlan);

/// The visits a fault-free run of `driver` makes to each site it reaches.
fn census(driver: Driver, aig: &Aig, expect_safe: bool) -> Vec<(FaultSite, u64)> {
    let plan = FaultPlan::seeded(0, &[]);
    driver(aig, expect_safe, plan.clone());
    FaultSite::ALL
        .into_iter()
        .map(|site| (site, plan.visits(site)))
        .filter(|&(_, visits)| visits > 0)
        .collect()
}

/// The headline sweep: hundreds of seeded fault schedules (≥ 200 at scale 1,
/// ten times that in the nightly profile) across all four drivers and both
/// polarities of ground truth. Completion of this test *is* the zero-hang
/// assertion; the drivers assert the rest.
///
/// Each schedule draws its faults only from the sites its driver reaches on
/// its circuit, with countdown spans equal to the visits a fault-free run
/// makes there (`census`). Up to its first fault a faulted run is that
/// fault-free run, so every schedule fires at least one fault. The 6-bit
/// counter is there because IC3 compacts a clause arena on it; the pipeline
/// driver is the one that preprocesses, and the redundant counter is the
/// circuit it preprocesses over several rounds, so its `PrepRound` faults
/// also land between two rewrite rounds.
#[test]
fn seeded_fault_schedules_never_corrupt_a_verdict() {
    silence_injected_panics();
    let cases = [
        (token_ring(5), true),
        (unsafe_counter(3, 6), false),
        (unsafe_counter(6, 40), false),
        (redundant_counter(), false),
    ];
    let drivers: [Driver; 4] = [chaos_bmc, chaos_kind, chaos_ic3, chaos_pipeline];
    let runs: Vec<_> = cases
        .iter()
        .flat_map(|(aig, expect_safe)| {
            drivers
                .into_iter()
                .map(move |driver| (driver, aig, *expect_safe, census(driver, aig, *expect_safe)))
        })
        .collect();
    let mut schedules = 0u64;
    let mut firing_schedules = 0u64;
    let mut fired = [0u64; FaultSite::ALL.len()];
    for _ in 0..iterations(17) {
        for (driver, aig, expect_safe, spans) in &runs {
            let plan = FaultPlan::seeded(schedules, spans);
            driver(aig, *expect_safe, plan.clone());
            let sites = plan.fired();
            firing_schedules += u64::from(!sites.is_empty());
            for site in sites {
                fired[site as usize] += 1;
            }
            schedules += 1;
        }
    }
    assert!(
        schedules >= 200,
        "the chaos suite replays at least 200 seeded schedules, got {schedules}"
    );
    assert_eq!(
        firing_schedules, schedules,
        "every schedule fires a fault (fired per site: {fired:?})"
    );
    for (site, count) in FaultSite::ALL.into_iter().zip(fired) {
        assert!(
            count > 0,
            "no fault fired at {site:?} (fired per site: {fired:?})"
        );
    }
}

// ---------------------------------------------------------------------------
// Targeted containment tests — one deterministic fault each.
// ---------------------------------------------------------------------------

/// An injected memory-out on the very first propagation unwinds to
/// `Unknown(MemoryOut)` — graceful degradation, never an allocator abort.
#[test]
fn injected_memout_degrades_to_a_memory_out_verdict() {
    let config = Config::ric3_like().with_budget(ResourceBudget::new(
        None,
        FaultPlan::single(FaultSite::Propagate, FaultKind::MemOut, 0),
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
    let config = Config::ric3_like().with_budget(ResourceBudget::new(
        None,
        FaultPlan::single(FaultSite::Propagate, FaultKind::Cancel, 0),
    ));
    let mut engine = Ic3::from_aig(&token_ring(5), config);
    assert_eq!(
        engine.check(),
        CheckResult::Unknown(UnknownReason::Cancelled)
    );
    assert_eq!(engine.statistics().certificate_lemmas, 0);
}

/// A fault at the edge between the first and the second preprocessing round,
/// where the pipeline holds a half-rewritten circuit and the reconstruction
/// of one round: each kind of fault fires there and is contained. A
/// cancellation there leaves the first round's rewrite, on which IC3 still
/// finds a counterexample that replays on the original circuit.
#[test]
fn a_fault_between_preprocessing_rounds_is_contained() {
    silence_injected_panics();
    let aig = redundant_counter();
    let rounds = census(chaos_pipeline, &aig, false)
        .into_iter()
        .find(|&(site, _)| site == FaultSite::PrepRound)
        .map(|(_, visits)| visits);
    assert!(
        rounds >= Some(2),
        "preprocessing takes several rounds, got {rounds:?} round edges"
    );
    // Visit 1 (0-based) is the edge after the first round.
    for kind in [FaultKind::Panic, FaultKind::MemOut, FaultKind::Cancel] {
        let plan = FaultPlan::single(FaultSite::PrepRound, kind, 1);
        chaos_pipeline(&aig, false, plan.clone());
        assert_eq!(
            plan.fired(),
            [FaultSite::PrepRound],
            "{kind:?} did not fire"
        );
    }
    let prep = Preprocessor.run_under(
        &aig,
        &ResourceBudget::new(
            None,
            FaultPlan::single(FaultSite::PrepRound, FaultKind::Cancel, 1),
        ),
    );
    assert!(prep.stats.cancelled);
    assert_eq!(prep.stats.rounds, 1);
    assert!(
        prep.aig.num_latches() < aig.num_latches(),
        "the first round rewrote the circuit"
    );
    let ts = TransitionSystem::from_aig(&prep.aig);
    let result = Ic3::new(ts.clone(), Config::ric3_like().with_lemma_prediction(true)).check();
    let trace = result.trace().expect("the counter reaches 3");
    assert!(
        prep.replay_on_original(&ts, trace),
        "the trace replays through one round's reconstruction"
    );
}

// ---------------------------------------------------------------------------
// Harness-level containment: faults injected through `RunnerConfig`.
// ---------------------------------------------------------------------------

/// A cancellation raised *during preprocessing* (deterministically, at the
/// second round edge — where a deadline passing mid-prep is noticed): the
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
        result.run.runtime < Duration::from_secs(10),
        "mid-prep cancellation must end the case promptly, took {:?}",
        result.run.runtime
    );
}

/// A panic during preprocessing is contained by the case runner: the case
/// ends `crashed` (payload recorded), every other case still runs, and the
/// suite counts zero wrong verdicts.
#[test]
fn a_preprocessing_panic_is_contained_at_the_case_level() {
    silence_injected_panics();
    let suite = plic3_repro::benchmarks::Suite::quick();
    // A single-fault plan fires exactly once.
    let runner = RunnerConfig {
        timeout: Duration::from_secs(30),
        workers: 1,
        preprocess: true,
        faults: FaultPlan::single(FaultSite::PrepRound, FaultKind::Panic, 0),
        ..RunnerConfig::default()
    };
    let data = run_experiment(&suite, &[Configuration::Ric3], &runner);
    assert_one_contained_crash(&data, suite.len());
}

fn assert_one_contained_crash(data: &ExperimentData, cases: usize) {
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
    assert!(
        crashed.work_line("quick").contains(" crashed | "),
        "the work record names the crash: {}",
        crashed.work_line("quick")
    );
}
