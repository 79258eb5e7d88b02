//! Sequential latch-equivalence detection by *signed* partition refinement
//! (van-Eijk-style, but purely structural: candidate classes are refined with
//! strashed next-state signatures instead of SAT checks, so every surviving
//! class is proven equivalent by induction and no solver is needed).
//!
//! Classes are signed: a latch can be equivalent to a classmate (`l ≡ m`) or
//! to its complement (`l ≡ ¬m`). The phase of each latch relative to its
//! class representative is tracked explicitly, so a pair of registers that
//! reset to opposite values and toggle in lock-step still collapses onto one
//! representative.

use plic3_aig::{Aig, AigBuilder, AigLit};
use plic3_sat::ResourceBudget;
use std::collections::HashMap;

/// Partitions the latches of `aig` into signed classes that provably hold the
/// same (or the complemented) value in every reachable state. Returns, for
/// each latch index, the representative (smallest) latch index of its class
/// and the phase relative to it: `(i, false)` means the latch is its own
/// class, `(r, true)` means the latch always equals `¬r`.
///
/// `stuck` is the per-latch stuck-at result of
/// [`crate::ternary::stuck_latches`]; stuck latches are excluded from
/// the partition (they are handled by constant sweeping) but their constants
/// strengthen the signatures of everything downstream.
///
/// Soundness is by induction over time. The initial partition puts every
/// *initialized*, non-stuck latch into one class, with the phase recording
/// whether its reset value is the complement of the representative's — so
/// classmates agree (phase-adjusted) at step 0. Uninitialized latches are
/// frozen as singletons: their step-0 values are independent. The refinement
/// loop keeps two latches together only if their next-state functions are
/// structurally identical *after substituting every latch by its
/// phase-adjusted class representative* (and every stuck latch by its
/// constant), **and** the structural phase between the two next-state
/// functions matches the phase between the latches. Under the induction
/// hypothesis that classmates agree phase-adjusted at step `t`, identical
/// substituted functions then yield phase-consistent values at step `t + 1`.
/// A partition the loop cannot refine further is therefore an inductive
/// (signed) equivalence.
pub(crate) fn equivalent_latches(
    aig: &Aig,
    stuck: &[Option<bool>],
    budget: &ResourceBudget,
) -> Vec<(usize, bool)> {
    let n = aig.num_latches();
    let mut reps: Vec<usize> = (0..n).collect();
    let mut phase: Vec<bool> = vec![false; n];
    let frozen: Vec<bool> = aig
        .latches()
        .iter()
        .zip(stuck)
        .map(|(latch, stuck)| latch.init.is_none() || stuck.is_some())
        .collect();
    // Initial partition: one signed class holding every candidate; the phase
    // encodes the reset value relative to the first candidate's.
    let mut leader: Option<(usize, bool)> = None;
    for (i, latch) in aig.latches().iter().enumerate() {
        if frozen[i] {
            continue;
        }
        let init = latch.init == Some(true);
        match leader {
            None => leader = Some((i, init)),
            Some((l, leader_init)) => {
                reps[i] = l;
                phase[i] = init != leader_init;
            }
        }
    }
    if reps.iter().enumerate().all(|(i, &r)| r == i) {
        return reps.into_iter().zip(phase).collect();
    }
    // Refine until stable. Each round either splits a class or terminates (a
    // stable round keeps every leader, which pins the phases too), so at most
    // n rounds run.
    loop {
        if budget.is_stopped() {
            // Stopped mid-refinement: the current partition is not yet
            // proven inductive, so the only sound answer is "merge nothing".
            return (0..n).map(|i| (i, false)).collect();
        }
        let sigs = signatures(aig, stuck, &reps, &phase);
        let mut group_leader: HashMap<(usize, u32), usize> = HashMap::new();
        let mut next_reps: Vec<usize> = (0..n).collect();
        let mut next_phase: Vec<bool> = vec![false; n];
        for i in 0..n {
            if frozen[i] {
                continue;
            }
            // Two classmates may stay together only if their substituted
            // next-state functions sit on the same strashed node AND the
            // structural phase between the functions equals the phase between
            // the latches — i.e. `sig_neg XOR phase` agrees.
            let bit = sigs[i].is_negated() != phase[i];
            let key = (reps[i], (sigs[i].variable() << 1) | u32::from(bit));
            let leader = *group_leader.entry(key).or_insert(i);
            next_reps[i] = leader;
            next_phase[i] = phase[i] != phase[leader];
        }
        if next_reps == reps && next_phase == phase {
            return reps.into_iter().zip(phase).collect();
        }
        reps = next_reps;
        phase = next_phase;
    }
}

/// Computes, for each latch, the structural signature of its next-state
/// function with every latch substituted by its phase-adjusted class
/// representative and every stuck latch substituted by its constant.
/// Signatures are literals in a strashed scratch builder, so structurally
/// identical (or complemented) functions collide exactly (up to negation).
fn signatures(aig: &Aig, stuck: &[Option<bool>], reps: &[usize], phase: &[bool]) -> Vec<AigLit> {
    let mut b = AigBuilder::new();
    let mut mapped: Vec<AigLit> = vec![AigLit::FALSE; aig.max_var() as usize + 1];
    for i in 0..aig.num_inputs() {
        mapped[aig.input(i).variable() as usize] = b.input();
    }
    // One scratch latch node per representative, created in ascending order so
    // the assignment is deterministic.
    let mut rep_node: HashMap<usize, AigLit> = HashMap::new();
    for (i, latch) in aig.latches().iter().enumerate() {
        let node = match stuck[i] {
            Some(c) => {
                if c {
                    AigLit::TRUE
                } else {
                    AigLit::FALSE
                }
            }
            None => rep_node
                .entry(reps[i])
                .or_insert_with(|| b.latch(latch.init))
                .negate_if(phase[i]),
        };
        mapped[latch.lit.variable() as usize] = node;
    }
    for gate in aig.ands() {
        let a = map(&mapped, gate.rhs0);
        let c = map(&mapped, gate.rhs1);
        mapped[gate.lhs.variable() as usize] = b.and(a, c);
    }
    aig.latches()
        .iter()
        .map(|latch| map(&mapped, latch.next))
        .collect()
}

fn map(mapped: &[AigLit], lit: AigLit) -> AigLit {
    mapped[lit.variable() as usize].negate_if(lit.is_negated())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary;

    fn analyse(aig: &Aig) -> Vec<(usize, bool)> {
        equivalent_latches(
            aig,
            &ternary::stuck_latches(aig),
            &ResourceBudget::unlimited(),
        )
    }

    #[test]
    fn duplicated_toggle_latches_are_merged() {
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(false));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let both = b.and(a, c);
        b.add_bad(both);
        assert_eq!(analyse(&b.build()), vec![(0, false), (0, false)]);
    }

    #[test]
    fn a_budget_out_of_memory_merges_nothing() {
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(false));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let both = b.and(a, c);
        b.add_bad(both);
        let aig = b.build();
        let budget = ResourceBudget::with_limit(0);
        budget.charge(1);
        assert_eq!(
            equivalent_latches(&aig, &ternary::stuck_latches(&aig), &budget),
            vec![(0, false), (1, false)]
        );
    }

    #[test]
    fn cyclically_duplicated_rings_collapse_onto_one_copy() {
        // Two identical 3-cell token rings: no latch's next literal matches
        // another's syntactically, so only the inductive refinement can merge
        // the copies.
        let mut b = AigBuilder::new();
        let mut rings = Vec::new();
        for _ in 0..2 {
            let cells: Vec<AigLit> = (0..3).map(|i| b.latch(Some(i == 0))).collect();
            for i in 0..3 {
                b.set_latch_next(cells[i], cells[(i + 2) % 3]);
            }
            rings.push(cells);
        }
        let bad = b.and(rings[0][0], rings[1][1]);
        b.add_bad(bad);
        let reps = analyse(&b.build());
        let expected: Vec<(usize, bool)> =
            [0, 1, 2, 0, 1, 2].into_iter().map(|r| (r, false)).collect();
        assert_eq!(reps, expected);
    }

    #[test]
    fn latches_with_different_behaviour_stay_apart() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let toggle = b.latch(Some(false));
        let follow = b.latch(Some(false));
        let hold = b.latch(Some(false));
        b.set_latch_next(toggle, !toggle);
        b.set_latch_next(follow, x);
        b.set_latch_next(hold, hold);
        b.add_bad(toggle);
        let reps = analyse(&b.build());
        // `hold` is stuck (handled elsewhere), the other two differ.
        assert_eq!(reps, vec![(0, false), (1, false), (2, false)]);
    }

    #[test]
    fn complemented_toggles_merge_with_a_negated_phase() {
        // a resets to 0, c resets to 1, both toggle: c ≡ ¬a in every
        // reachable state. The equality-only analysis of PR 3 kept them apart;
        // the signed refinement merges them.
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(true));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let bad = b.and(a, c);
        b.add_bad(bad);
        assert_eq!(analyse(&b.build()), vec![(0, false), (0, true)]);
    }

    #[test]
    fn complemented_followers_merge_when_phases_are_consistent() {
        // a follows x, c follows ¬x, with complemented resets: c ≡ ¬a.
        let mut b = AigBuilder::new();
        let x = b.input();
        let a = b.latch(Some(false));
        let c = b.latch(Some(true));
        b.set_latch_next(a, x);
        b.set_latch_next(c, !x);
        let bad = b.and(a, c);
        b.add_bad(bad);
        assert_eq!(analyse(&b.build()), vec![(0, false), (0, true)]);
    }

    #[test]
    fn complement_candidates_with_inconsistent_phases_stay_apart() {
        // Complemented resets but *identical* next-state functions: the
        // latches agree at every step ≥ 1 yet differ at step 0, so no signed
        // class may keep them together.
        let mut b = AigBuilder::new();
        let x = b.input();
        let a = b.latch(Some(false));
        let c = b.latch(Some(true));
        b.set_latch_next(a, x);
        b.set_latch_next(c, x);
        let bad = b.and(a, c);
        b.add_bad(bad);
        assert_eq!(analyse(&b.build()), vec![(0, false), (1, false)]);
    }

    #[test]
    fn uninitialized_latches_are_never_merged() {
        // Same next-state function, but free (independent) step-0 values.
        let mut b = AigBuilder::new();
        let x = b.input();
        let a = b.latch(None);
        let c = b.latch(None);
        b.set_latch_next(a, x);
        b.set_latch_next(c, x);
        let bad = b.and(a, !c);
        b.add_bad(bad);
        assert_eq!(analyse(&b.build()), vec![(0, false), (1, false)]);
    }
}
