//! The rewrite engine shared by every preprocessing round: rebuilds the
//! circuit through a structural-hashing builder (which also folds constants),
//! applies the per-latch fates decided by the latch analysis (stuck-at
//! constants, equivalence merges), and restricts the rebuild to the cone of
//! influence of the checked property and the invariant constraints. This is
//! the repository's one cone-of-influence reduction: the transition-system
//! encoder keeps every latch, input and gate it is given.

use crate::recon::{Reconstruction, SignalSource};
use plic3_aig::{Aig, AigBuilder, AigLit};
use std::collections::HashSet;

/// What happens to one latch during a rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LatchFate {
    /// The latch survives (subject to cone-of-influence pruning).
    Keep,
    /// The latch is replaced by a constant everywhere.
    Stuck(bool),
    /// The latch is replaced by the (kept) representative latch of its signed
    /// equivalence class, complemented when `negated` is set (`l ≡ ¬rep`).
    Merge {
        /// Index of the representative latch; must itself be [`LatchFate::Keep`].
        representative: usize,
        /// `true` when the latch is the *complement* of its representative.
        negated: bool,
    },
}

/// Rebuilds `aig` with the given latch fates applied.
///
/// Only the logic transitively feeding the checked property
/// ([`Aig::property_literal`]) and the invariant constraints is rebuilt;
/// everything else — including secondary outputs and bad literals, which the
/// model checkers never look at — is dropped.
///
/// Constant folding happens on the way: constraints that fold to `true`
/// disappear, and the property may itself collapse to a constant (the
/// trivially safe / trivially unsafe cases).
pub(crate) fn rewrite(aig: &Aig, fates: &[LatchFate]) -> (Aig, Reconstruction) {
    debug_assert_eq!(fates.len(), aig.num_latches());
    for fate in fates {
        if let LatchFate::Merge { representative, .. } = fate {
            debug_assert_eq!(
                fates[*representative],
                LatchFate::Keep,
                "merge representative must itself be kept"
            );
        }
    }

    // ------------------------------------------------------------------
    // Demand analysis: which original variables are still needed, with the
    // fates already applied (a merged latch forwards demand to its
    // representative, a stuck latch demands nothing).
    // ------------------------------------------------------------------
    let mut needed: HashSet<u32> = HashSet::new();
    let mut stack: Vec<u32> = Vec::new();
    let demand = |lit: AigLit, stack: &mut Vec<u32>, needed: &mut HashSet<u32>| {
        let mut v = lit.variable();
        loop {
            if v == 0 {
                return;
            }
            if let Some(idx) = aig.latch_index(AigLit::positive(v)) {
                match fates[idx] {
                    LatchFate::Stuck(_) => return,
                    LatchFate::Merge { representative, .. } => {
                        v = aig.latches()[representative].lit.variable();
                        continue;
                    }
                    LatchFate::Keep => {}
                }
            }
            if needed.insert(v) {
                stack.push(v);
            }
            return;
        }
    };
    if let Some(property) = aig.property_literal() {
        demand(property, &mut stack, &mut needed);
    }
    for &c in aig.constraints() {
        demand(c, &mut stack, &mut needed);
    }
    while let Some(v) = stack.pop() {
        let lit = AigLit::positive(v);
        if let Some(gate) = aig.and_for(lit) {
            demand(gate.rhs0, &mut stack, &mut needed);
            demand(gate.rhs1, &mut stack, &mut needed);
        } else if let Some(idx) = aig.latch_index(lit) {
            demand(aig.latches()[idx].next, &mut stack, &mut needed);
        }
    }

    // ------------------------------------------------------------------
    // Rebuild. Inputs and latches first (their nodes have no operands), then
    // the gates in ascending variable order (operands always refer to earlier
    // variables), then the latch next-state functions.
    // ------------------------------------------------------------------
    let mut b = AigBuilder::new();
    let mut mapped: Vec<Option<AigLit>> = vec![None; aig.max_var() as usize + 1];
    mapped[0] = Some(AigLit::FALSE);
    let mut input_sources = Vec::with_capacity(aig.num_inputs());
    let mut new_input_count = 0usize;
    for i in 0..aig.num_inputs() {
        let var = aig.input(i).variable();
        if needed.contains(&var) {
            mapped[var as usize] = Some(b.input());
            input_sources.push(SignalSource::Kept {
                index: new_input_count,
                negated: false,
            });
            new_input_count += 1;
        } else {
            input_sources.push(SignalSource::Free);
        }
    }
    let mut new_latch_index: Vec<Option<usize>> = vec![None; aig.num_latches()];
    let mut new_latch_count = 0usize;
    for (i, latch) in aig.latches().iter().enumerate() {
        if fates[i] == LatchFate::Keep && needed.contains(&latch.lit.variable()) {
            mapped[latch.lit.variable() as usize] = Some(b.latch(latch.init));
            new_latch_index[i] = Some(new_latch_count);
            new_latch_count += 1;
        }
    }
    // Merged and stuck latches map through their fate; this must happen after
    // the kept latches exist so representatives resolve.
    for (i, latch) in aig.latches().iter().enumerate() {
        let var = latch.lit.variable() as usize;
        match fates[i] {
            LatchFate::Keep => {}
            LatchFate::Stuck(c) => {
                mapped[var] = Some(if c { AigLit::TRUE } else { AigLit::FALSE });
            }
            LatchFate::Merge {
                representative,
                negated,
            } => {
                mapped[var] = mapped[aig.latches()[representative].lit.variable() as usize]
                    .map(|l| l.negate_if(negated));
            }
        }
    }
    let map = |mapped: &[Option<AigLit>], lit: AigLit| -> AigLit {
        mapped[lit.variable() as usize]
            .expect("literal inside the demanded cone")
            .negate_if(lit.is_negated())
    };
    for gate in aig.ands() {
        if needed.contains(&gate.lhs.variable()) {
            let a = map(&mapped, gate.rhs0);
            let c = map(&mapped, gate.rhs1);
            mapped[gate.lhs.variable() as usize] = Some(b.and(a, c));
        }
    }
    for (i, latch) in aig.latches().iter().enumerate() {
        if new_latch_index[i].is_some() {
            let target = mapped[latch.lit.variable() as usize].expect("kept latch was created");
            b.set_latch_next(target, map(&mapped, latch.next));
        }
    }

    // ------------------------------------------------------------------
    // Properties. Only the checked property survives, re-attached in the
    // slot kind the checkers read it from (a bad literal when the original
    // had any, the first output otherwise).
    // ------------------------------------------------------------------
    if let Some(property) = aig.property_literal() {
        let p = map(&mapped, property);
        if aig.num_bad() > 0 {
            b.add_bad(p);
        } else {
            b.add_output(p);
        }
    }
    for &c in aig.constraints() {
        let constraint = map(&mapped, c);
        // A constraint folded to `true` never restricts anything; one folded
        // to `false` must stay (it makes the circuit vacuously safe).
        if constraint != AigLit::TRUE {
            b.add_constraint(constraint);
        }
    }

    let latch_sources = (0..aig.num_latches())
        .map(|i| match fates[i] {
            LatchFate::Stuck(c) => SignalSource::Constant(c),
            LatchFate::Keep => match new_latch_index[i] {
                Some(index) => SignalSource::Kept {
                    index,
                    negated: false,
                },
                None => SignalSource::Free,
            },
            LatchFate::Merge {
                representative,
                negated,
            } => match new_latch_index[representative] {
                Some(index) => SignalSource::Kept { index, negated },
                None => SignalSource::Equivalent {
                    latch: representative,
                    negated,
                },
            },
        })
        .collect();
    (
        b.build(),
        Reconstruction::new(
            input_sources,
            latch_sources,
            new_input_count,
            new_latch_count,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::Simulator;

    #[test]
    fn coi_drops_unrelated_logic_and_records_free_sources() {
        let mut b = AigBuilder::new();
        let relevant_in = b.input();
        let junk_in = b.input();
        let s = b.latch(Some(false));
        let junk = b.latch(Some(false));
        let next = b.and(relevant_in, !s);
        b.set_latch_next(s, next);
        b.set_latch_next(junk, junk_in);
        b.add_bad(s);
        let aig = b.build();
        let (out, recon) = rewrite(&aig, &[LatchFate::Keep, LatchFate::Keep]);
        out.validate().expect("rewrite output is valid");
        assert_eq!(out.num_inputs(), 1);
        assert_eq!(out.num_latches(), 1);
        assert_eq!(
            recon.input_source(1),
            SignalSource::Free,
            "the junk input is outside the cone"
        );
        assert_eq!(recon.latch_source(1), SignalSource::Free);
        assert_eq!(
            recon.latch_source(0),
            SignalSource::Kept {
                index: 0,
                negated: false
            }
        );
    }

    #[test]
    fn stuck_fates_fold_into_constants() {
        // bad = s AND stuck; with stuck-at-false applied, bad folds to the
        // constant false and the whole circuit loses its state.
        let mut b = AigBuilder::new();
        let s = b.latch(Some(false));
        let stuck = b.latch(Some(false));
        b.set_latch_next(s, !s);
        b.set_latch_next(stuck, stuck);
        let bad = b.and(s, stuck);
        b.add_bad(bad);
        let aig = b.build();
        let (out, recon) = rewrite(&aig, &[LatchFate::Keep, LatchFate::Stuck(false)]);
        assert_eq!(out.bad()[0], AigLit::FALSE);
        assert_eq!(recon.latch_source(1), SignalSource::Constant(false));
        // Demand is computed before folding, so the toggle latch survives this
        // round; a second round sees the constant property and drops it.
        assert_eq!(out.num_latches(), 1);
        let (out2, _) = rewrite(&out, &[LatchFate::Keep]);
        assert_eq!(out2.num_latches(), 0);
    }

    #[test]
    fn merged_latches_redirect_demand_to_the_representative() {
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(false));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let bad = b.and(a, c);
        b.add_bad(bad);
        let aig = b.build();
        let fates = [
            LatchFate::Keep,
            LatchFate::Merge {
                representative: 0,
                negated: false,
            },
        ];
        let (out, recon) = rewrite(&aig, &fates);
        assert_eq!(out.num_latches(), 1);
        // bad = a AND a folds to a single literal.
        assert_eq!(out.num_ands(), 0);
        assert_eq!(
            recon.latch_source(1),
            SignalSource::Kept {
                index: 0,
                negated: false
            }
        );
        // Semantics: the toggle reaches bad at step 1 in both circuits.
        let mut sim = Simulator::new(&out);
        assert!(!sim.step(&[]).property_violated());
        assert!(sim.step(&[]).property_violated());
    }

    #[test]
    fn negated_merges_substitute_the_complement() {
        // a toggles from 0, c toggles from 1: c ≡ ¬a. bad = a AND c is then
        // a AND ¬a ≡ false, so the rewrite folds the property away entirely.
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(true));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let bad = b.and(a, c);
        b.add_bad(bad);
        let aig = b.build();
        let fates = [
            LatchFate::Keep,
            LatchFate::Merge {
                representative: 0,
                negated: true,
            },
        ];
        let (out, recon) = rewrite(&aig, &fates);
        out.validate().expect("rewrite output is valid");
        assert_eq!(out.bad()[0], AigLit::FALSE, "a AND ¬a folds to false");
        assert_eq!(
            recon.latch_source(1),
            SignalSource::Kept {
                index: 0,
                negated: true
            }
        );
    }

    #[test]
    fn tautological_constraints_disappear() {
        let mut b = AigBuilder::new();
        let s = b.latch(Some(false));
        b.set_latch_next(s, !s);
        b.add_bad(s);
        b.add_constraint(AigLit::TRUE);
        let aig = b.build();
        let (out, _) = rewrite(&aig, &[LatchFate::Keep]);
        assert_eq!(out.num_constraints(), 0);
    }

    #[test]
    fn property_kept_as_output_for_aiger_1_0_circuits() {
        let mut b = AigBuilder::new();
        let s = b.latch(Some(false));
        b.set_latch_next(s, !s);
        b.add_output(s);
        let aig = b.build();
        let (out, _) = rewrite(&aig, &[LatchFate::Keep]);
        assert_eq!(out.num_bad(), 0);
        assert_eq!(out.num_outputs(), 1);
        assert!(out.property_literal().is_some());
    }
}
