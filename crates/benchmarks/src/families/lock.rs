//! Combination locks: deep but narrow counterexamples.

use super::{Benchmark, ExpectedResult};
use plic3_aig::{Aig, AigBuilder};

const FAMILY: &str = "lock";

/// A combination lock with `stages` stages and a `digit_bits`-bit input digit.
///
/// The lock advances one stage per cycle when the input digit equals the
/// stage's secret digit and falls back to stage 0 otherwise. The bad state is
/// "all stages passed". With a reachable secret the shortest counterexample has
/// exactly `stages` steps; the `impossible_stage` variant requires a digit
/// value with a bit forced by construction to be unreachable, making it safe.
fn lock(stages: usize, digit_bits: usize, secret_seed: u64, impossible_stage: bool) -> Aig {
    let mut b = AigBuilder::new();
    let digit = b.inputs(digit_bits);
    // One-hot progress register, stage 0 hot initially.
    let progress: Vec<_> = (0..=stages).map(|i| b.latch(Some(i == 0))).collect();
    // Secret digit per stage, derived deterministically from the seed.
    let mut matches = Vec::new();
    for stage in 0..stages {
        let secret = (secret_seed
            .wrapping_mul(0x9e37_79b9)
            .rotate_left(stage as u32 * 7)
            >> 3)
            & ((1 << digit_bits) - 1);
        let mut m = b.vec_equals_const(&digit, secret);
        if impossible_stage && stage == stages - 1 {
            // The final stage additionally requires the digit to differ from
            // itself — unsatisfiable, so the lock can never fully open.
            let also_not = b.vec_equals_const(&digit, secret ^ 1);
            m = b.and(m, also_not);
        }
        matches.push(m);
    }
    for stage in 0..=stages {
        let next = if stage == 0 {
            // Stage 0 becomes hot again whenever the current stage's digit is
            // wrong (or we are already unlocked and stay there — handled below).
            let mut wrongs = Vec::new();
            for s in 0..stages {
                let wrong = b.and(progress[s], !matches[s]);
                wrongs.push(wrong);
            }
            let fallback = b.or_many(&wrongs);
            b.or(fallback, progress[stages])
        } else {
            b.and(progress[stage - 1], matches[stage - 1])
        };
        let hold_unlocked = if stage == stages {
            b.or(next, progress[stages])
        } else {
            next
        };
        b.set_latch_next(progress[stage], hold_unlocked);
    }
    b.add_bad(progress[stages]);
    b.build()
}

/// A lock whose secret can be entered: unsafe with a `stages`-step
/// counterexample.
pub fn openable_lock(stages: usize, digit_bits: usize, seed: u64) -> Aig {
    lock(stages, digit_bits, seed, false)
}

/// A lock whose final stage is impossible to pass: safe.
pub fn unopenable_lock(stages: usize, digit_bits: usize, seed: u64) -> Aig {
    lock(stages, digit_bits, seed, true)
}

/// The parameter sweep for the full suite.
pub fn instances() -> Vec<Benchmark> {
    let mut out = Vec::new();
    for (stages, bits, seed) in [
        (2usize, 2usize, 1u64),
        (3, 2, 2),
        (3, 3, 3),
        (4, 3, 4),
        (5, 3, 5),
        (6, 4, 6),
        (8, 4, 13),
        (10, 3, 14),
    ] {
        out.push(Benchmark::new(
            format!("lock_open_unsafe_{stages}_{bits}_{seed}"),
            FAMILY,
            ExpectedResult::Unsafe {
                min_depth: Some(stages),
            },
            openable_lock(stages, bits, seed),
        ));
    }
    for (stages, bits, seed) in [(3usize, 2usize, 7u64), (4, 3, 8), (5, 3, 9), (6, 4, 10)] {
        out.push(Benchmark::new(
            format!("lock_closed_safe_{stages}_{bits}_{seed}"),
            FAMILY,
            ExpectedResult::Safe,
            unopenable_lock(stages, bits, seed),
        ));
    }
    out
}

/// Small instances for the quick suite.
pub fn quick() -> Vec<Benchmark> {
    vec![
        Benchmark::new(
            "lock_open_unsafe_q",
            FAMILY,
            ExpectedResult::Unsafe { min_depth: Some(3) },
            openable_lock(3, 2, 11),
        ),
        Benchmark::new(
            "lock_closed_safe_q",
            FAMILY,
            ExpectedResult::Safe,
            unopenable_lock(3, 2, 12),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_bmc::{Bmc, BmcDepthStatus};
    use plic3_ts::TransitionSystem;

    #[test]
    fn openable_lock_opens_at_expected_depth() {
        let aig = openable_lock(3, 2, 2);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        assert_eq!(bmc.check_depth_status(2), BmcDepthStatus::Clean);
        let BmcDepthStatus::Unsafe(trace) = bmc.check_depth_status(3) else {
            panic!("opens in 3 steps");
        };
        assert!(trace.replay_on_aig(&ts, &aig));
    }

    #[test]
    fn unopenable_lock_stays_closed() {
        let aig = unopenable_lock(3, 2, 7);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        for depth in 0..8 {
            assert_eq!(
                bmc.check_depth_status(depth),
                BmcDepthStatus::Clean,
                "opened at depth {depth}"
            );
        }
    }
}
