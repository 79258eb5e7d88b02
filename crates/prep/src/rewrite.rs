//! Preprocessing's one rewrite: rebuilds the circuit through a
//! structural-hashing builder (which also folds constants) with the per-latch
//! fates decided by the latch analysis applied (stuck-at constants,
//! equivalence merges), and keeps only the cone of influence of the folded
//! property and invariant constraints. This is the repository's one
//! cone-of-influence reduction: the transition-system encoder keeps every
//! latch, input and gate it is given.

use crate::recon::{Reconstruction, SignalSource};
use plic3_aig::{Aig, AigBuilder, AigLit};

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
/// The whole circuit is rebuilt with the fates substituted, so constants fold
/// before the cone is taken: only the logic that the folded checked property
/// ([`Aig::property_literal`]) and invariant constraints still read survives.
/// Everything else — including secondary outputs and bad literals, which the
/// model checkers never look at — is dropped.
///
/// Constraints that fold to `true` disappear, and the property may itself
/// collapse to a constant (the trivially safe / trivially unsafe cases).
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

    // Inputs and kept latches first (their nodes have no operands), then
    // stuck and merged latches through their fates, then the gates in
    // ascending variable order (operands always refer to earlier variables),
    // then the kept latches' next-state functions.
    let mut b = AigBuilder::new();
    let mut mapped = vec![AigLit::FALSE; aig.max_var() as usize + 1];
    let inputs: Vec<AigLit> = (0..aig.num_inputs())
        .map(|i| {
            let node = b.input();
            mapped[aig.input(i).variable() as usize] = node;
            node
        })
        .collect();
    let kept: Vec<Option<AigLit>> = aig
        .latches()
        .iter()
        .zip(fates)
        .map(|(latch, fate)| (*fate == LatchFate::Keep).then(|| b.latch(latch.init)))
        .collect();
    for (i, latch) in aig.latches().iter().enumerate() {
        mapped[latch.lit.variable() as usize] = match fates[i] {
            LatchFate::Keep => kept[i].expect("kept latch was created"),
            LatchFate::Stuck(c) => AigLit::FALSE.negate_if(c),
            LatchFate::Merge {
                representative,
                negated,
            } => kept[representative]
                .expect("merge representative is kept")
                .negate_if(negated),
        };
    }
    for gate in aig.ands() {
        let a = map(&mapped, gate.rhs0);
        let c = map(&mapped, gate.rhs1);
        mapped[gate.lhs.variable() as usize] = b.and(a, c);
    }
    for (latch, node) in aig.latches().iter().zip(&kept) {
        if let Some(node) = *node {
            b.set_latch_next(node, map(&mapped, latch.next));
        }
    }

    // Only the checked property survives, re-attached in the slot kind the
    // checkers read it from (a bad literal when the original had any, the
    // first output otherwise).
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

    let (out, survivors) = b.build_cone();
    // Surviving inputs take the variables 1..=I of `out`, then its latches.
    let survivor = |node: AigLit| survivors[node.variable() as usize].map(|v| v as usize - 1);
    let input_sources = inputs
        .iter()
        .map(|&node| match survivor(node) {
            Some(index) => SignalSource::Kept {
                index,
                negated: false,
            },
            None => SignalSource::Free,
        })
        .collect();
    let kept_index = |i: usize| kept[i].and_then(survivor).map(|v| v - out.num_inputs());
    let latch_sources = (0..aig.num_latches())
        .map(|i| match fates[i] {
            LatchFate::Stuck(c) => SignalSource::Constant(c),
            LatchFate::Keep => match kept_index(i) {
                Some(index) => SignalSource::Kept {
                    index,
                    negated: false,
                },
                None => SignalSource::Free,
            },
            LatchFate::Merge {
                representative,
                negated,
            } => match kept_index(representative) {
                Some(index) => SignalSource::Kept { index, negated },
                None => SignalSource::Equivalent {
                    latch: representative,
                    negated,
                },
            },
        })
        .collect();
    let reconstruction = Reconstruction::new(
        input_sources,
        latch_sources,
        out.num_inputs(),
        out.num_latches(),
    );
    (out, reconstruction)
}

/// `lit` with its variable replaced by the literal `mapped` gives it.
pub(crate) fn map(mapped: &[AigLit], lit: AigLit) -> AigLit {
    mapped[lit.variable() as usize].negate_if(lit.is_negated())
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
        // The cone is taken after folding, so the toggle latch, which only
        // the folded-away gate read, goes in the same rewrite.
        assert_eq!(out.num_latches(), 0);
        assert_eq!(recon.latch_source(0), SignalSource::Free);
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
        // a AND ¬a ≡ false, so the rewrite folds the property away entirely
        // and the cone drops the class {a, c} whole.
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
        assert_eq!(out.num_latches(), 0);
        assert_eq!(recon.latch_source(0), SignalSource::Free);
        assert_eq!(
            recon.latch_source(1),
            SignalSource::Equivalent {
                latch: 0,
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
