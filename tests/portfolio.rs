//! Portfolio-engine integration tests: the portfolio must agree with the
//! single engine on every instance (that's the determinism contract — the
//! winner may vary, the verdict may not), losing workers must observe
//! cancellation promptly, and poisoned foreign lemmas must be rejected by the
//! consecution re-check instead of corrupting a verdict.

use plic3_repro::benchmarks::families::random::{random_circuit, RandomCircuitConfig};
use plic3_repro::benchmarks::{ExpectedResult, Suite};
use plic3_repro::harness::{run_portfolio_case, RunnerConfig, Verdict};
use plic3_repro::ic3::{Config, Ic3, StopFlag, UnknownReason};
use plic3_repro::portfolio::{
    verify_safety_proof, Portfolio, PortfolioConfig, PortfolioResult, WorkerStatus,
};
use plic3_repro::ts::TransitionSystem;
use std::time::{Duration, Instant};

fn tiny_runner() -> RunnerConfig {
    RunnerConfig {
        timeout: Duration::from_secs(10),
        max_conflicts: Some(500_000),
        ..RunnerConfig::default()
    }
}

#[test]
fn portfolio_agrees_with_ground_truth_and_single_engine_on_quick_suite() {
    let runner = tiny_runner();
    for bench in &Suite::quick() {
        let result = run_portfolio_case(bench, &runner, 6, StopFlag::new());
        let expected = match bench.expected() {
            ExpectedResult::Safe => Verdict::Safe,
            ExpectedResult::Unsafe { .. } => Verdict::Unsafe,
        };
        assert_eq!(
            result.verdict,
            expected,
            "{}: portfolio disagrees with ground truth (winner {:?})",
            bench.name(),
            result.engine.winner
        );
        assert!(result.correct);
        assert!(
            result.verified,
            "{}: winning proof/trace failed independent checking",
            bench.name()
        );
    }
}

#[test]
fn portfolio_matches_single_engine_on_seeded_random_circuits() {
    // No ground truth here: the single engine is the oracle. Instances the
    // single engine cannot settle within the budget are skipped (the
    // portfolio may legitimately settle them — it is allowed to be stronger,
    // never different).
    let config = RandomCircuitConfig {
        latches: 6,
        inputs: 2,
        gates: 24,
    };
    for seed in 0..25 {
        let aig = random_circuit(seed, config);
        let mut single = Ic3::from_aig(&aig, Config::ric3_like().with_max_conflicts(200_000));
        let single_result = single.check();
        let mut portfolio = Portfolio::from_aig(&aig, PortfolioConfig::default());
        let outcome = portfolio.check();
        match (&single_result, &outcome.result) {
            (plic3_repro::ic3::CheckResult::Safe(_), PortfolioResult::Safe(proof)) => {
                verify_safety_proof(portfolio.ts(), proof)
                    .unwrap_or_else(|e| panic!("seed {seed}: bogus proof: {e}"));
            }
            (plic3_repro::ic3::CheckResult::Unsafe(_), PortfolioResult::Unsafe(trace)) => {
                let ts = TransitionSystem::from_aig(&aig);
                assert!(
                    trace.replay_on_aig(&ts, &aig),
                    "seed {seed}: non-replayable portfolio trace"
                );
            }
            (plic3_repro::ic3::CheckResult::Unknown(_), _) => {}
            (single, portfolio) => {
                panic!("seed {seed}: single engine says {single}, portfolio says {portfolio:?}")
            }
        }
    }
}

#[test]
fn losing_workers_observe_cancellation_promptly() {
    // A ring large enough that IC3 takes visible time. The external stop flag
    // is raised shortly after the race starts; the whole portfolio — all
    // workers, including those in the middle of SAT queries — must wind down
    // promptly rather than run to completion.
    let mut b = plic3_repro::aig::AigBuilder::new();
    let n = 14;
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
    let aig = b.build();

    let stop = StopFlag::new();
    let raiser = stop.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        raiser.stop();
    });
    let config = PortfolioConfig {
        stop,
        ..PortfolioConfig::default()
    };
    let mut portfolio = Portfolio::from_aig(&aig, config);
    let started = Instant::now();
    let outcome = portfolio.check();
    let elapsed = started.elapsed();
    handle.join().expect("raiser thread");
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?}"
    );
    // Either the external stop won (Unknown, all started workers cancelled)
    // or some worker legitimately finished inside 30 ms — both are sound; an
    // unverifiable verdict is not.
    match &outcome.result {
        PortfolioResult::Unknown(UnknownReason::Cancelled) => {
            for report in &outcome.workers {
                assert!(
                    matches!(
                        report.status,
                        WorkerStatus::Unknown(UnknownReason::Cancelled) | WorkerStatus::NotRun
                    ),
                    "worker {} ended as {:?} after cancellation",
                    report.label,
                    report.status
                );
            }
        }
        PortfolioResult::Safe(proof) => {
            verify_safety_proof(portfolio.ts(), proof).expect("finished proofs still verify");
        }
        other => panic!("cancellation produced {other:?}"),
    }
}

/// An unsafe 3-bit counter used by the poisoned-lemma tests: bit 0 toggles on
/// every step, so "bit 0 is never 1" is a *false* lemma — adopting it
/// unchecked would block states on the only path to the bad state.
fn unsafe_counter() -> plic3_repro::aig::Aig {
    let mut b = plic3_repro::aig::AigBuilder::new();
    let state = b.latches(3, Some(false));
    let inc = b.vec_increment(&state);
    for (s, n) in state.iter().zip(&inc) {
        b.set_latch_next(*s, *n);
    }
    let bad = b.vec_equals_const(&state, 5);
    b.add_bad(bad);
    b.build()
}

#[test]
fn poisoned_foreign_lemmas_are_rejected_by_the_consecution_recheck() {
    use plic3_repro::logic::{Cube, Lit};
    let aig = unsafe_counter();
    let ts = TransitionSystem::from_aig(&aig);
    // Poison of every flavour: a lemma blocking a reachable state (fails
    // consecution), a lemma containing the initial state (fails initiation),
    // an empty cube, and a cube over a non-state variable.
    let poison_bit0: Cube = [Lit::pos(ts.latch_var(0))].into_iter().collect();
    let poison_init: Cube = ts.latch_vars().map(Lit::neg).collect();
    let poison_primed: Cube = [Lit::pos(ts.primed_var(0))].into_iter().collect();
    let batch = vec![
        (poison_bit0, 1usize),
        (poison_init, 1),
        (Cube::default(), 1),
        (poison_primed, 1),
    ];
    let mut served = Some(batch);
    let mut engine = Ic3::new(ts, Config::ric3_like());
    engine.set_lemma_source(move |buf| {
        if let Some(batch) = served.take() {
            buf.extend(batch);
        }
    });
    let result = engine.check();
    let stats = *engine.statistics();
    assert!(
        stats.lemmas_import_rejected >= 4,
        "all four poisoned lemmas must be rejected, got {}",
        stats.lemmas_import_rejected
    );
    assert_eq!(stats.lemmas_imported, 0, "nothing poisonous was adopted");
    // The verdict is unharmed: the counter still provably reaches 5.
    let trace = result.trace().expect("counter reaches 5");
    assert!(
        trace.replay_on_aig(engine.ts(), &aig),
        "trace must replay on the original circuit"
    );
    assert!(trace.len() >= 5);
}

#[test]
fn genuine_foreign_lemmas_pass_the_recheck_and_help() {
    use plic3_repro::logic::{Cube, Lit};
    // The safe saturating counter: "state == 7" is unreachable, and the cube
    // {b2, b1, b0} (i.e. the lemma ¬7) is inductive — a receiver must adopt
    // it after re-proving consecution locally.
    let mut b = plic3_repro::aig::AigBuilder::new();
    let state = b.latches(3, Some(false));
    let at5 = b.vec_equals_const(&state, 5);
    let inc = b.vec_increment(&state);
    for (s, n) in state.iter().zip(&inc) {
        let held = b.ite(at5, *s, *n);
        b.set_latch_next(*s, held);
    }
    let bad = b.vec_equals_const(&state, 7);
    b.add_bad(bad);
    let aig = b.build();
    let ts = TransitionSystem::from_aig(&aig);
    let genuine: Cube = ts.latch_vars().map(Lit::pos).collect(); // all-ones
    let mut served = Some(vec![(genuine, 1usize)]);
    let mut engine = Ic3::new(ts, Config::ric3_like());
    engine.set_lemma_source(move |buf| {
        if let Some(batch) = served.take() {
            buf.extend(batch);
        }
    });
    let result = engine.check();
    let stats = *engine.statistics();
    assert_eq!(stats.lemmas_imported, 1, "the sound lemma is adopted");
    let cert = result.certificate().expect("saturating counter is safe");
    plic3_repro::check::check_certificate(
        engine.ts(),
        cert,
        &plic3_repro::check::CheckOptions::default(),
    )
    .expect("certificate verifies");
}

#[test]
fn portfolio_handles_trivial_and_degenerate_circuits() {
    // Bad at reset: a zero-step counterexample must win the race.
    let mut b = plic3_repro::aig::AigBuilder::new();
    let l = b.latch(Some(true));
    b.set_latch_next(l, l);
    b.add_bad(l);
    let mut portfolio = Portfolio::from_aig(&b.build(), PortfolioConfig::default());
    let outcome = portfolio.check();
    let trace = outcome.result.trace().expect("bad at reset");
    assert_eq!(trace.len(), 0);

    // No property at all: trivially safe.
    let mut b = plic3_repro::aig::AigBuilder::new();
    let l = b.latch(Some(false));
    b.set_latch_next(l, l);
    let mut portfolio = Portfolio::from_aig(&b.build(), PortfolioConfig::default());
    let outcome = portfolio.check();
    assert!(outcome.result.is_safe(), "got {:?}", outcome.result);
}

/// The determinism contract (docs/PORTFOLIO.md) with a worker set other than
/// the default one, diversified on IC3-level knobs (generalization, literal
/// ordering, prediction): verdicts are pinned to the ground truth on the
/// quick suite across repeated runs — winners are a race and deliberately
/// never asserted. Every winning proof is re-verified independently.
#[test]
fn ic3_diversified_portfolio_pins_verdicts_on_quick_suite() {
    use plic3_repro::ic3::LiteralOrdering;
    use plic3_repro::portfolio::{Strategy, WorkerSpec};

    fn diversified_workers() -> Vec<WorkerSpec> {
        vec![
            WorkerSpec::new("bmc", Strategy::Bmc),
            WorkerSpec::new("k-induction", Strategy::KInduction),
            WorkerSpec::new(
                "ic3-ctg-pl",
                Strategy::Ic3(Config::ric3_like().with_lemma_prediction(true)),
            ),
            WorkerSpec::new("ic3-pdr", Strategy::Ic3(Config::pdr_like())),
            WorkerSpec::new(
                "ic3-cav23-pl",
                Strategy::Ic3(Config::cav23_like().with_lemma_prediction(true)),
            ),
            WorkerSpec::new(
                "ic3-mic-seeded",
                Strategy::Ic3(Config::ic3ref_like().with_ordering(LiteralOrdering::Seeded(11))),
            ),
        ]
    }

    for bench in &Suite::quick() {
        let expect_safe = matches!(bench.expected(), ExpectedResult::Safe);
        for round in 0..2 {
            let config = PortfolioConfig {
                limits: plic3_repro::ic3::Limits {
                    max_time: Some(Duration::from_secs(60)),
                    ..plic3_repro::ic3::Limits::default()
                },
                ..PortfolioConfig::default()
            };
            let mut portfolio =
                Portfolio::from_aig(bench.aig(), config).with_workers(diversified_workers());
            let outcome = portfolio.check();
            match &outcome.result {
                PortfolioResult::Safe(proof) => {
                    assert!(
                        expect_safe,
                        "{} round {round}: bogus Safe (winner {:?})",
                        bench.name(),
                        outcome.winner_label()
                    );
                    verify_safety_proof(portfolio.ts(), proof).unwrap_or_else(|e| {
                        panic!("{} round {round}: unverifiable proof: {e}", bench.name())
                    });
                }
                PortfolioResult::Unsafe(trace) => {
                    assert!(
                        !expect_safe,
                        "{} round {round}: bogus Unsafe (winner {:?})",
                        bench.name(),
                        outcome.winner_label()
                    );
                    let ts = TransitionSystem::from_aig(bench.aig());
                    assert!(
                        trace.replay_on_aig(&ts, bench.aig()),
                        "{} round {round}: non-replayable trace",
                        bench.name()
                    );
                }
                PortfolioResult::Unknown(reason) => panic!(
                    "{} round {round}: no verdict on a quick-suite instance ({reason})",
                    bench.name()
                ),
            }
        }
    }
}
