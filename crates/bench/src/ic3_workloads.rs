//! Engine-level workloads for the end-to-end benchmark (`perfbench/`).
//!
//! The circuits here are deliberately *redundant* in the ways real HWMCC
//! netlists are — duplicated cones, shadow registers, stuck configuration
//! latches — so the raw-vs-preprocessed pairs measure the end-to-end effect
//! of the `plic3-prep` pipeline on the IC3 engine, not just the SAT backend.

use plic3_aig::{Aig, AigBuilder, AigLit};

/// A safe circuit of `copies` identical one-hot token rings with `cells`
/// latches each; bad = two adjacent cells of *any* copy both hold the token.
///
/// Every copy feeds the property, so cone-of-influence reduction alone cannot
/// remove anything — only latch-equivalence merging collapses the copies onto
/// one ring, shrinking the IC3 state space by a factor of `copies`.
pub fn redundant_rings(copies: usize, cells: usize) -> Aig {
    assert!(copies >= 1 && cells >= 3);
    let mut b = AigBuilder::new();
    let mut bads = Vec::new();
    for _ in 0..copies {
        let ring: Vec<AigLit> = (0..cells).map(|i| b.latch(Some(i == 0))).collect();
        for i in 0..cells {
            b.set_latch_next(ring[i], ring[(i + cells - 1) % cells]);
        }
        for i in 0..cells {
            let pair = b.and(ring[i], ring[(i + 1) % cells]);
            bads.push(pair);
        }
    }
    let bad = b.or_many(&bads);
    b.add_bad(bad);
    b.build()
}

/// A safe saturating counter whose bad state is additionally gated by a
/// conjunction of `guards` stuck-at-one configuration latches.
///
/// The guards are part of the property cone, so raw IC3 drags them through
/// every counterexample-to-induction and every MIC drop; constant sweeping
/// removes them (and the gating logic) entirely.
pub fn guarded_counter(bits: usize, guards: usize) -> Aig {
    assert!(bits >= 2);
    let mut b = AigBuilder::new();
    let state = b.latches(bits, Some(false));
    let saturate = (1u64 << bits) - 2;
    let at_max = b.vec_equals_const(&state, saturate);
    let inc = b.vec_increment(&state);
    for (s, n) in state.iter().zip(&inc) {
        let held = b.ite(at_max, *s, *n);
        b.set_latch_next(*s, held);
    }
    let guard_latches: Vec<AigLit> = (0..guards).map(|_| b.latch(Some(true))).collect();
    for &g in &guard_latches {
        b.set_latch_next(g, g);
    }
    let enabled = b.and_many(&guard_latches);
    let all_ones = b.vec_equals_const(&state, (1 << bits) - 1);
    let bad = b.and(all_ones, enabled);
    b.add_bad(bad);
    b.build()
}

/// An unsafe circuit: a free-running counter duplicated `copies` times, bad =
/// any copy reaching the all-ones value. Exercises the witness-mapping path
/// end to end — the counterexample is found on the merged single-copy circuit
/// and must replay on the original.
pub fn redundant_unsafe_counter(copies: usize, bits: usize) -> Aig {
    assert!(copies >= 1 && bits >= 2);
    let mut b = AigBuilder::new();
    let mut bads = Vec::new();
    for _ in 0..copies {
        let state = b.latches(bits, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        bads.push(b.vec_equals_const(&state, (1 << bits) - 1));
    }
    let bad = b.or_many(&bads);
    b.add_bad(bad);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3::{Config, Ic3};
    use plic3_prep::preprocess;
    use plic3_ts::TransitionSystem;

    #[test]
    fn redundant_rings_collapse_to_one_copy() {
        let aig = redundant_rings(3, 5);
        assert_eq!(aig.num_latches(), 15);
        let prep = preprocess(&aig);
        assert_eq!(prep.aig.num_latches(), 5);
        let mut engine = Ic3::from_aig(&prep.aig, Config::ric3_like());
        assert!(engine.check().is_safe());
    }

    #[test]
    fn guarded_counter_loses_its_guards() {
        let aig = guarded_counter(4, 6);
        assert_eq!(aig.num_latches(), 10);
        let prep = preprocess(&aig);
        assert_eq!(prep.aig.num_latches(), 4);
        let mut engine = Ic3::from_aig(&prep.aig, Config::ric3_like());
        assert!(engine.check().is_safe());
    }

    #[test]
    fn unsafe_counter_witness_replays_on_the_original() {
        let aig = redundant_unsafe_counter(3, 3);
        let prep = preprocess(&aig);
        assert_eq!(prep.aig.num_latches(), 3);
        let ts = TransitionSystem::from_aig(&prep.aig);
        let mut engine = Ic3::new(ts, Config::ric3_like());
        let result = engine.check();
        let trace = result.trace().expect("counter reaches all-ones");
        assert!(prep.replay_on_original(engine.ts(), trace));
    }
}
