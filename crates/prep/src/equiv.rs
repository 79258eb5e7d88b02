//! Preprocessing's one latch analysis: *signed* partition refinement of the
//! latches together with the constant `false` (van-Eijk-style, but purely
//! structural: candidate classes are refined with strashed next-state
//! signatures instead of SAT checks, so every surviving class is proven
//! equivalent by induction and no solver is needed).
//!
//! Classes are signed: a latch can be equivalent to a classmate (`l ≡ m`) or
//! to its complement (`l ≡ ¬m`). The phase of each latch relative to its
//! class representative is tracked explicitly, so a pair of registers that
//! reset to opposite values and toggle in lock-step still collapses onto one
//! representative. A latch that ends up in the constant's class is stuck at
//! the constant its phase names.

use crate::rewrite::{map, LatchFate};
use plic3_aig::{Aig, AigBuilder, AigLit};
use plic3_sat::ResourceBudget;
use std::collections::HashMap;

/// Partitions the latches of `aig`, plus the constant `false`, into signed
/// classes that provably hold the same (or the complemented) value in every
/// reachable state, and returns each latch's fate: [`LatchFate::Stuck`] for
/// a latch in the constant's class (at its phase), [`LatchFate::Merge`] onto
/// the smallest latch index of any other class, and [`LatchFate::Keep`] for
/// that representative and for singletons.
///
/// Soundness is by induction over time. The initial partition puts the
/// constant and every *initialized* latch into one class, with the phase
/// recording the latch's reset value — so classmates agree (phase-adjusted)
/// at step 0. Uninitialized latches are frozen as singletons: their step-0
/// values are independent. The refinement loop keeps two members together
/// only if their next-state functions are structurally identical *after
/// substituting every latch by its phase-adjusted class representative* (the
/// constant's own next-state function is `false`, and a latch in its class is
/// substituted by a constant), **and** the structural phase between the two
/// functions matches the phase between the members. Under the induction
/// hypothesis that classmates agree phase-adjusted at step `t`, identical
/// substituted functions then yield phase-consistent values at step `t + 1`.
/// A partition the loop cannot refine further is therefore an inductive
/// (signed) equivalence.
///
/// Once `budget` is stopped mid-refinement the current partition is not yet
/// proven inductive, so every latch is kept.
pub(crate) fn equivalent_latches(aig: &Aig, budget: &ResourceBudget) -> Vec<LatchFate> {
    let n = aig.num_latches();
    // Members 0..n are the latches; member n is the constant `false`.
    let constant = n;
    let mut reps: Vec<usize> = (0..=n).collect();
    let mut phase: Vec<bool> = vec![false; n + 1];
    for (i, latch) in aig.latches().iter().enumerate() {
        if let Some(init) = latch.init {
            reps[i] = constant;
            phase[i] = init;
        }
    }
    // Visiting the constant first makes it the leader of its class; every
    // other class is led by its smallest latch index.
    let members: Vec<usize> = std::iter::once(constant)
        .chain((0..n).filter(|&i| reps[i] == constant))
        .collect();
    // Refine until stable. Each pass either splits a class or ends the loop (a
    // stable pass keeps every leader, which pins the phases too), so at most
    // n + 1 passes run.
    loop {
        if budget.poll_deadline() {
            return vec![LatchFate::Keep; n];
        }
        let sigs = signatures(aig, &reps, &phase);
        let mut group_leader: HashMap<(usize, u32), usize> = HashMap::new();
        let mut next_reps = reps.clone();
        let mut next_phase = phase.clone();
        for &i in &members {
            // Two classmates may stay together only if their substituted
            // next-state functions sit on the same strashed node AND the
            // structural phase between the functions equals the phase between
            // the members — i.e. `sig_neg XOR phase` agrees.
            let bit = sigs[i].is_negated() != phase[i];
            let key = (reps[i], (sigs[i].variable() << 1) | u32::from(bit));
            let leader = *group_leader.entry(key).or_insert(i);
            next_reps[i] = leader;
            next_phase[i] = phase[i] != phase[leader];
        }
        if next_reps == reps && next_phase == phase {
            break;
        }
        reps = next_reps;
        phase = next_phase;
    }
    (0..n)
        .map(|i| match reps[i] {
            r if r == constant => LatchFate::Stuck(phase[i]),
            r if r == i => LatchFate::Keep,
            representative => LatchFate::Merge {
                representative,
                negated: phase[i],
            },
        })
        .collect()
}

/// Computes, for each member of the partition (the latches, then the
/// constant), the structural signature of its next-state function with every
/// latch substituted by its phase-adjusted class representative — a constant
/// for the constant's class. Signatures are literals in a strashed scratch
/// builder, so structurally identical (or complemented) functions collide
/// exactly (up to negation).
fn signatures(aig: &Aig, reps: &[usize], phase: &[bool]) -> Vec<AigLit> {
    let mut b = AigBuilder::new();
    let mut mapped: Vec<AigLit> = vec![AigLit::FALSE; aig.max_var() as usize + 1];
    for i in 0..aig.num_inputs() {
        mapped[aig.input(i).variable() as usize] = b.input();
    }
    // One scratch latch node per representative, created in ascending order so
    // the assignment is deterministic; the constant's node is `false`.
    let mut rep_node: Vec<Option<AigLit>> = vec![None; reps.len()];
    rep_node[aig.num_latches()] = Some(AigLit::FALSE);
    for (i, latch) in aig.latches().iter().enumerate() {
        let node = *rep_node[reps[i]].get_or_insert_with(|| b.latch(latch.init));
        mapped[latch.lit.variable() as usize] = node.negate_if(phase[i]);
    }
    for gate in aig.ands() {
        let a = map(&mapped, gate.rhs0);
        let c = map(&mapped, gate.rhs1);
        mapped[gate.lhs.variable() as usize] = b.and(a, c);
    }
    aig.latches()
        .iter()
        .map(|latch| map(&mapped, latch.next))
        .chain(std::iter::once(AigLit::FALSE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use LatchFate::{Keep, Stuck};

    fn analyse(aig: &Aig) -> Vec<LatchFate> {
        equivalent_latches(aig, &ResourceBudget::unlimited())
    }

    fn merge(representative: usize, negated: bool) -> LatchFate {
        LatchFate::Merge {
            representative,
            negated,
        }
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
        assert_eq!(analyse(&b.build()), vec![Keep, merge(0, false)]);
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
        assert_eq!(equivalent_latches(&aig, &budget), vec![Keep, Keep]);
    }

    #[test]
    fn a_stopped_budget_proves_nothing_stuck() {
        let mut b = AigBuilder::new();
        let zero = b.latch(Some(false));
        b.set_latch_next(zero, zero);
        b.add_bad(zero);
        let aig = b.build();
        let cancelled = ResourceBudget::unlimited();
        cancelled.cancel();
        let out_of_memory = ResourceBudget::with_limit(0);
        out_of_memory.charge(1);
        for budget in [cancelled, out_of_memory] {
            assert_eq!(equivalent_latches(&aig, &budget), vec![Keep], "{budget:?}");
        }
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
        let expected = vec![
            Keep,
            Keep,
            Keep,
            merge(0, false),
            merge(1, false),
            merge(2, false),
        ];
        assert_eq!(analyse(&b.build()), expected);
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
        // `hold` stays in the constant's class; the other two differ.
        assert_eq!(analyse(&b.build()), vec![Keep, Keep, Stuck(false)]);
    }

    #[test]
    fn complemented_toggles_merge_with_a_negated_phase() {
        // a resets to 0, c resets to 1, both toggle: c ≡ ¬a in every
        // reachable state. An equality-only analysis keeps them apart; the
        // signed refinement merges them.
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(true));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let bad = b.and(a, c);
        b.add_bad(bad);
        assert_eq!(analyse(&b.build()), vec![Keep, merge(0, true)]);
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
        assert_eq!(analyse(&b.build()), vec![Keep, merge(0, true)]);
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
        assert_eq!(analyse(&b.build()), vec![Keep, Keep]);
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
        assert_eq!(analyse(&b.build()), vec![Keep, Keep]);
    }

    #[test]
    fn uninitialized_latches_never_count_as_stuck() {
        let mut b = AigBuilder::new();
        let l = b.latch(None);
        b.set_latch_next(l, l);
        b.add_bad(l);
        assert_eq!(analyse(&b.build()), vec![Keep]);
    }

    #[test]
    fn self_looping_latches_are_stuck_at_their_reset_value() {
        let mut b = AigBuilder::new();
        let zero = b.latch(Some(false));
        let one = b.latch(Some(true));
        b.set_latch_next(zero, zero);
        b.set_latch_next(one, one);
        b.add_bad(zero);
        assert_eq!(analyse(&b.build()), vec![Stuck(false), Stuck(true)]);
    }

    #[test]
    fn constants_propagate_through_gates_and_latch_chains() {
        // l0 is fed the constant false, l1 copies l0, l2 = AND(l1, input):
        // l0 and l1 are stuck at 0, and so is l2 (false dominates the input).
        let mut b = AigBuilder::new();
        let x = b.input();
        let l0 = b.latch(Some(false));
        let l1 = b.latch(Some(false));
        let l2 = b.latch(Some(false));
        b.set_latch_next(l0, b.constant_false());
        b.set_latch_next(l1, l0);
        let guarded = b.and(l1, x);
        b.set_latch_next(l2, guarded);
        b.add_bad(l2);
        assert_eq!(analyse(&b.build()), vec![Stuck(false); 3]);
    }

    #[test]
    fn toggling_and_input_driven_latches_are_not_stuck() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let toggle = b.latch(Some(false));
        let follow = b.latch(Some(false));
        b.set_latch_next(toggle, !toggle);
        b.set_latch_next(follow, x);
        b.add_bad(toggle);
        assert_eq!(analyse(&b.build()), vec![Keep, Keep]);
    }

    #[test]
    fn eventually_constant_latches_are_not_claimed_stuck() {
        // A chain l0 <- false, l1 <- l0, ..., each initialized to 1: every
        // latch is 1 at reset but becomes 0 forever after i+1 steps — so none
        // of them is stuck (their value changes over time), and no two agree
        // at every step.
        let mut b = AigBuilder::new();
        let chain = b.latches(4, Some(true));
        b.set_latch_next(chain[0], b.constant_false());
        for i in 1..4 {
            b.set_latch_next(chain[i], chain[i - 1]);
        }
        b.add_bad(chain[3]);
        assert_eq!(analyse(&b.build()), vec![Keep; 4]);
    }
}
