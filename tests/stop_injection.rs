//! Engine-level cancellation soundness: randomized memory and conflict
//! budgets must only ever surface as `Unknown` — never as a verdict the
//! engine did not finish deriving. This is the engine-side counterpart of
//! `crates/sat/tests/cancellation_soundness.rs` and the regression guard for
//! the k-induction bug class of concluding Safe from an interrupted base case.
//! A run budget cancelled mid-run from another thread is pinned by
//! `crates/core/tests/engine_certificates.rs`.

use plic3_repro::aig::{Aig, AigBuilder};
use plic3_repro::bmc::{KInduction, KInductionResult};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::ic3::{CheckResult, Config, Ic3, ResourceBudget};
use plic3_repro::logic::SplitMix64 as Rng;
use plic3_repro::ts::TransitionSystem;

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

/// The largest random byte limit. Both runs below end using 8–10 KiB (their
/// engines start at 2–4 KiB), so about half of the limits stop a run, most of
/// them part way through.
const MAX_LIMIT: u64 = 16 * 1024;

/// Randomized memory budgets: the verdicts that do get through must be
/// correct (and verifiable); everything else must be `Unknown`. A byte limit
/// stops a run at a deterministic point, also inside a SAT query, through
/// the clause arena's charge. The unsafe counter guards against a bogus
/// `Safe`, the safe ring against a bogus `Unsafe`.
#[test]
fn ic3_with_random_budgets_is_never_wrong() {
    let cases: Vec<(Aig, bool)> = vec![(token_ring(5), true), (unsafe_counter(3, 6), false)];
    let mut rng = Rng::new(0xb06e7);
    let (mut unknown, mut solved) = (0, 0);
    for (aig, expect_safe) in &cases {
        for _ in 0..iterations(24) {
            let limit = 1 + rng.below(MAX_LIMIT);
            let config = Config::ric3_like().with_budget(ResourceBudget::with_limit(limit));
            let mut engine = Ic3::from_aig(aig, config);
            let ts = engine.ts().clone();
            match engine.check() {
                CheckResult::Safe(cert) => {
                    assert!(*expect_safe, "limit {limit}: bogus Safe");
                    check_certificate(&ts, &cert, &CheckOptions::default())
                        .expect("certificate verifies");
                    solved += 1;
                }
                CheckResult::Unsafe(trace) => {
                    assert!(!*expect_safe, "limit {limit}: bogus Unsafe");
                    assert!(trace.replay_on_aig(&ts, aig), "trace replays");
                    solved += 1;
                }
                CheckResult::Unknown(_) => unknown += 1,
            }
        }
    }
    assert!(unknown > 0, "no limit stopped a run");
    assert!(solved > 0, "no limit let a run finish");
}

/// An interrupted k-induction base case must never be read as "depth clean".
/// A Safe verdict from k-induction on the unsafe counter would be exactly
/// that bug resurfacing.
#[test]
fn k_induction_never_concludes_from_interrupted_queries() {
    let safe = token_ring(5);
    let unsafe_aig = unsafe_counter(3, 6);
    let safe_ts = TransitionSystem::from_aig(&safe);
    let unsafe_ts = TransitionSystem::from_aig(&unsafe_aig);
    let mut rng = Rng::new(0x14d);
    for _ in 0..iterations(32) {
        let budget = 1 + rng.below(60);
        let mut kind = KInduction::new(&unsafe_ts);
        kind.set_conflict_budget(Some(budget));
        match kind.check(20) {
            KInductionResult::Safe { .. } => {
                panic!("budget {budget}: Safe on an unsafe counter")
            }
            KInductionResult::Unsafe { trace, .. } => {
                assert!(
                    trace.replay_on_aig(&unsafe_ts, &unsafe_aig),
                    "budget {budget}: non-replayable trace"
                );
            }
            KInductionResult::Unknown { .. } => {}
        }
        let mut kind = KInduction::new(&safe_ts);
        kind.set_conflict_budget(Some(budget));
        if let KInductionResult::Unsafe { .. } = kind.check(20) {
            panic!("budget {budget}: Unsafe on a safe ring");
        }
    }
}
