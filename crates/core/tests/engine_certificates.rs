//! The engine's `Safe` answers, re-checked by the repository's one
//! certificate checker (`plic3_check::check_certificate`) across every
//! configuration, generalization mode and prediction option. These live as an
//! integration test because `plic3-check` depends on this crate: only here do
//! the two crates share one `Certificate` type.

use plic3::{
    Certificate, CheckResult, Config, Ic3, LiteralOrdering, ResourceBudget, UnknownReason,
};
use plic3_aig::{Aig, AigBuilder};
use plic3_check::{check_certificate, CertCheckError, CertCheckReport, CheckOptions};
use plic3_ts::TransitionSystem;
use std::time::{Duration, Instant};

/// Re-checks `cert` against the transition system the engine ran on.
fn check(ts: &TransitionSystem, cert: &Certificate) -> Result<CertCheckReport, CertCheckError> {
    check_certificate(ts, cert, &CheckOptions::default())
}

/// An n-bit counter with an enable input (or free running); bad when the
/// counter reaches `bad_at`.
fn counter_aig(bits: usize, bad_at: u64, free_running: bool) -> Aig {
    let mut b = AigBuilder::new();
    let enable = if free_running {
        b.constant_true()
    } else {
        b.input()
    };
    let state = b.latches(bits, Some(false));
    let inc = b.vec_increment(&state);
    for (s, n) in state.iter().zip(&inc) {
        let next = b.ite(enable, *n, *s);
        b.set_latch_next(*s, next);
    }
    let bad = b.vec_equals_const(&state, bad_at);
    b.add_bad(bad);
    b.build()
}

/// A safe circuit: a one-hot token ring. The bad state (two adjacent tokens)
/// is unreachable from the one-hot initial state.
fn token_ring_aig(n: usize) -> Aig {
    let mut b = AigBuilder::new();
    let cells: Vec<_> = (0..n).map(|i| b.latch(Some(i == 0))).collect();
    for i in 0..n {
        let prev = cells[(i + n - 1) % n];
        b.set_latch_next(cells[i], prev);
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

/// A saturating counter plus a shadow register: its invariant needs several
/// related lemmas per frame, so propagation failures (CTPs) occur and
/// prediction has material to work with.
fn saturating_counter(bits: usize) -> Aig {
    let mut b = AigBuilder::new();
    let state = b.latches(bits, Some(false));
    let shadow = b.latches(bits, Some(false));
    let max = (1u64 << bits) - 2;
    let at_max = b.vec_equals_const(&state, max);
    let inc = b.vec_increment(&state);
    for (s, n) in state.iter().zip(&inc) {
        let held = b.ite(at_max, *s, *n);
        b.set_latch_next(*s, held);
    }
    for (sh, s) in shadow.iter().zip(&state) {
        b.set_latch_next(*sh, *s);
    }
    let state_all_ones = b.vec_equals_const(&state, (1 << bits) - 1);
    let shadow_all_ones = b.vec_equals_const(&shadow, (1 << bits) - 1);
    let bad = b.or(state_all_ones, shadow_all_ones);
    b.add_bad(bad);
    b.build()
}

/// A shift register whose head is always 0: every lemma generalizes well.
fn shift_register(n: usize) -> Aig {
    let mut b = AigBuilder::new();
    let cells = b.latches(n, Some(false));
    let zero = b.constant_false();
    for i in 0..n {
        let prev = if i == 0 { zero } else { cells[i - 1] };
        b.set_latch_next(cells[i], prev);
    }
    b.add_bad(cells[n - 1]);
    b.build()
}

/// A shift register fed by a free input plus a latch tracking the parity of
/// its cells; bad when the two disagree. Safe, but no IC3 configuration
/// proves the 12-cell instance within 10 s, so a run on it is still going
/// when its budget is cancelled a few milliseconds in.
fn parity_shift_register(n: usize) -> Aig {
    let mut b = AigBuilder::new();
    let head = b.input();
    let cells = b.latches(n, Some(false));
    for i in 0..n {
        let prev = if i == 0 { head } else { cells[i - 1] };
        b.set_latch_next(cells[i], prev);
    }
    let parity = b.latch(Some(false));
    let mut next_parity = head;
    for &c in &cells[..n - 1] {
        next_parity = b.xor(next_parity, c);
    }
    b.set_latch_next(parity, next_parity);
    let mut cell_parity = b.constant_false();
    for &c in &cells {
        cell_parity = b.xor(cell_parity, c);
    }
    let mismatch = b.xor(parity, cell_parity);
    b.add_bad(mismatch);
    b.build()
}

/// The one-hot ring of [`token_ring_aig`], unsafe: bad when cell `k` holds
/// the token, which it first does after `k` steps.
fn token_at_aig(n: usize, k: usize) -> Aig {
    let mut b = AigBuilder::new();
    let cells: Vec<_> = (0..n).map(|i| b.latch(Some(i == 0))).collect();
    for i in 0..n {
        b.set_latch_next(cells[i], cells[(i + n - 1) % n]);
    }
    b.add_bad(cells[k]);
    b.build()
}

fn check_with(aig: &Aig, config: Config) -> (CheckResult, TransitionSystem) {
    let mut engine = Ic3::from_aig(aig, config);
    let result = engine.check();
    (result, engine.ts().clone())
}

#[test]
fn safe_token_ring_produces_valid_certificate() {
    for config in [
        Config::ric3_like(),
        Config::ric3_like().with_lemma_prediction(true),
        Config::ic3ref_like(),
        Config::cav23_like(),
    ] {
        let mut engine = Ic3::from_aig(&token_ring_aig(5), config);
        let result = engine.check();
        let cert = result.certificate().expect("token ring is safe");
        check(engine.ts(), cert).expect("certificate must verify");
        assert_eq!(
            engine.statistics().certificate_lemmas,
            cert.lemmas.len() as u64
        );
    }
}

/// With 70 latches every cube and packed state the engine keeps spans two
/// words. Under each of the six presets, the safe ring's certificate checks
/// and the unsafe ring's 3-step counterexample replays on the circuit.
#[test]
fn seventy_cell_ring_spans_two_state_words() {
    let safe = token_ring_aig(70);
    let unsafe_ring = token_at_aig(70, 3);
    for config in [
        Config::ric3_like(),
        Config::ric3_like().with_lemma_prediction(true),
        Config::ic3ref_like(),
        Config::ic3ref_like().with_lemma_prediction(true),
        Config::cav23_like(),
        Config::pdr_like(),
    ] {
        let (result, ts) = check_with(&safe, config.clone());
        assert_eq!(ts.num_latches(), 70);
        let cert = result.certificate().expect("the ring is safe");
        check(&ts, cert).expect("certificate must verify");
        let (result, ts) = check_with(&unsafe_ring, config);
        let trace = result
            .trace()
            .expect("cell 3 holds the token after 3 steps");
        assert_eq!(trace.len(), 3);
        assert!(trace.replay_on_aig(&ts, &unsafe_ring), "trace must replay");
    }
}

#[test]
fn trivially_safe_circuit_without_property() {
    let mut b = AigBuilder::new();
    let l = b.latch(Some(false));
    b.set_latch_next(l, l);
    let aig = b.build();
    let (result, ts) = check_with(&aig, Config::ric3_like());
    let cert = result.certificate().expect("no bad literal means safe");
    check(&ts, cert).expect("certificate verifies");
}

#[test]
fn unreachable_bad_value_is_safe_with_prediction() {
    // A 3-bit counter that resets to 0 when it reaches 5 can never be 6 or 7.
    let mut b = AigBuilder::new();
    let state = b.latches(3, Some(false));
    let inc = b.vec_increment(&state);
    let at5 = b.vec_equals_const(&state, 5);
    let zero = b.constant_false();
    for (s, n) in state.iter().zip(&inc) {
        let wrapped = b.ite(at5, zero, *n);
        b.set_latch_next(*s, wrapped);
    }
    let bad = b.vec_equals_const(&state, 7);
    b.add_bad(bad);
    let aig = b.build();
    for config in [
        Config::ric3_like(),
        Config::ric3_like().with_lemma_prediction(true),
        Config::pdr_like().with_lemma_prediction(true),
    ] {
        let (result, ts) = check_with(&aig, config);
        let cert = result.certificate().expect("7 unreachable");
        check(&ts, cert).expect("certificate verifies");
    }
}

#[test]
fn stop_flag_raised_from_another_thread_interrupts_the_run() {
    // The canceller fires 20 ms into a run that cannot finish in seconds,
    // so the only acceptable outcome is a prompt cancellation.
    let aig = parity_shift_register(12);
    let budget = ResourceBudget::unlimited();
    let canceller = budget.clone();
    let config = Config::ric3_like().with_budget(budget);
    let mut engine = Ic3::from_aig(&aig, config);
    let started = Instant::now();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        canceller.cancel();
    });
    let result = engine.check();
    let elapsed = started.elapsed();
    handle.join().expect("canceller thread");
    assert_eq!(result, CheckResult::Unknown(UnknownReason::Cancelled));
    assert!(
        elapsed < Duration::from_secs(5),
        "the cancellation took {elapsed:?} to end the run"
    );
}

#[test]
fn results_agree_across_configurations() {
    // Differential testing across configurations on a mixed set of circuits.
    let circuits: Vec<(Aig, bool)> = vec![
        (token_ring_aig(4), true),
        (counter_aig(2, 3, false), false),
        (counter_aig(3, 6, true), false),
        (token_ring_aig(7), true),
    ];
    let configs = [
        Config::ric3_like(),
        Config::ric3_like().with_lemma_prediction(true),
        Config::ic3ref_like(),
        Config::ic3ref_like().with_lemma_prediction(true),
        Config::cav23_like(),
        Config::pdr_like(),
    ];
    for (aig, expect_safe) in &circuits {
        for config in &configs {
            let (result, ts) = check_with(aig, config.clone());
            assert_eq!(
                result.is_safe(),
                *expect_safe,
                "config {config:?} disagrees on expected verdict"
            );
            if let Some(cert) = result.certificate() {
                check(&ts, cert).expect("certificate verifies");
            }
            if let Some(trace) = result.trace() {
                assert!(trace.replay_on_aig(&ts, aig));
            }
        }
    }
}

#[test]
fn prediction_preserves_the_verdict_and_produces_successes() {
    let aig = saturating_counter(4);
    let mut base = Ic3::from_aig(&aig, Config::ric3_like());
    let base_result = base.check();
    let mut predicted = Ic3::from_aig(&aig, Config::ric3_like().with_lemma_prediction(true));
    let pl_result = predicted.check();
    assert_eq!(base_result.is_safe(), pl_result.is_safe());
    if let Some(cert) = pl_result.certificate() {
        check(predicted.ts(), cert).expect("certificate verifies");
    }
    let stats = predicted.statistics();
    // The instance is crafted so push failures occur; prediction must at
    // least have been attempted.
    assert!(stats.push_failures_recorded > 0, "no CTPs were recorded");
    assert!(
        stats.found_failed_parents > 0,
        "prediction never found a failed parent lemma"
    );
    assert!(stats.predictions >= stats.successful_predictions);
}

#[test]
fn all_generalization_modes_prove_the_shift_register() {
    let aig = shift_register(6);
    // (max_ctg_depth, max_ctgs): plain `down`, and RIC3's `ctgDown`.
    let modes = [(0, 0), (1, 3)];
    let orderings = [
        LiteralOrdering::Ascending,
        LiteralOrdering::Descending,
        LiteralOrdering::ParentGuided,
    ];
    for (max_ctg_depth, max_ctgs) in modes {
        for ordering in orderings {
            for lemma_prediction in [false, true] {
                let config = Config {
                    max_ctg_depth,
                    max_ctgs,
                    ordering,
                    lemma_prediction,
                    ..Config::ric3_like()
                };
                let mut engine = Ic3::from_aig(&aig, config);
                let result = engine.check();
                let cert = result.certificate().unwrap_or_else(|| {
                    panic!("ctg=({max_ctg_depth},{max_ctgs})/{ordering:?}/pl={lemma_prediction}: not proved safe")
                });
                check(engine.ts(), cert).expect("valid certificate");
            }
        }
    }
}
