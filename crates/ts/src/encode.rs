//! Tseitin encoding of an AIG into a [`TransitionSystem`], with
//! cone-of-influence reduction.

use crate::TransitionSystem;
use plic3_aig::{Aig, AigLit};
use plic3_logic::{Clause, Cnf, Cube, Lit, Var};
use std::collections::HashSet;

impl TransitionSystem {
    /// Encodes `aig` into a CNF transition system.
    ///
    /// The encoding:
    ///
    /// 1. computes the cone of influence of the property (the first bad literal,
    ///    or the first output for AIGER 1.0 circuits) and of all invariant
    ///    constraints, dropping latches, inputs and gates outside of it,
    /// 2. allocates the variable ranges documented on [`TransitionSystem`],
    /// 3. Tseitin-encodes every kept AND gate over the current-state variables
    ///    (and records its two inputs for [`TransitionSystem::gate`]),
    /// 4. ties each primed state variable to its latch's next-state literal, and
    /// 5. asserts the constant-true variable and the constraints on the source
    ///    state of every transition.
    ///
    /// Circuits without any bad literal or output get a constant-false property
    /// (trivially safe).
    ///
    /// # Panics
    ///
    /// Panics if `aig` fails [`Aig::validate`].
    pub fn from_aig(aig: &Aig) -> Self {
        aig.validate().expect("cannot encode an invalid AIG");
        let property = aig.property_literal().unwrap_or(AigLit::FALSE);

        // ------------------------------------------------------------------
        // Cone of influence: collect every AIG variable transitively feeding the
        // property, the constraints, or the next-state function of a kept latch.
        // ------------------------------------------------------------------
        let mut needed: HashSet<u32> = HashSet::new();
        let mut stack: Vec<u32> = Vec::new();
        let push = |lit: AigLit, stack: &mut Vec<u32>, needed: &mut HashSet<u32>| {
            let v = lit.variable();
            if v != 0 && needed.insert(v) {
                stack.push(v);
            }
        };
        push(property, &mut stack, &mut needed);
        for &c in aig.constraints() {
            push(c, &mut stack, &mut needed);
        }
        while let Some(v) = stack.pop() {
            let lit = AigLit::positive(v);
            if let Some(gate) = aig.and_for(lit) {
                push(gate.rhs0, &mut stack, &mut needed);
                push(gate.rhs1, &mut stack, &mut needed);
            } else if let Some(idx) = aig.latch_index(lit) {
                push(aig.latches()[idx].next, &mut stack, &mut needed);
            }
        }

        // Kept latches and inputs, in their original order.
        let latch_aig_index: Vec<usize> = (0..aig.num_latches())
            .filter(|&i| needed.contains(&aig.latches()[i].lit.variable()))
            .collect();
        let input_aig_index: Vec<usize> = (0..aig.num_inputs())
            .filter(|&i| needed.contains(&aig.input(i).variable()))
            .collect();
        let num_latches = latch_aig_index.len();
        let num_inputs = input_aig_index.len();

        // ------------------------------------------------------------------
        // Variable allocation.
        // ------------------------------------------------------------------
        let const_true = Var::new((2 * num_latches + num_inputs) as u32);
        let mut next_free = const_true.raw() + 1;
        // Map from AIG variable to CNF literal (positive phase).
        let mut var_map: Vec<Option<Lit>> = vec![None; aig.max_var() as usize + 1];
        var_map[0] = Some(Lit::pos(const_true)); // AIG constant TRUE is variable 0 lit 1
        for (ts_idx, &aig_idx) in latch_aig_index.iter().enumerate() {
            var_map[aig.latches()[aig_idx].lit.variable() as usize] =
                Some(Lit::pos(Var::new(ts_idx as u32)));
        }
        for (ts_idx, &aig_idx) in input_aig_index.iter().enumerate() {
            var_map[aig.input(aig_idx).variable() as usize] =
                Some(Lit::pos(Var::new((num_latches + ts_idx) as u32)));
        }
        for gate in aig.ands() {
            if needed.contains(&gate.lhs.variable()) {
                var_map[gate.lhs.variable() as usize] = Some(Lit::pos(Var::new(next_free)));
                next_free += 1;
            }
        }
        let num_vars = next_free as usize;

        // Maps an AIG literal (constant, input, latch or gate) to a CNF literal.
        // The AIG constant variable 0 maps so that literal 1 (TRUE) becomes the
        // positive constant literal and literal 0 (FALSE) its negation.
        let map_lit = |lit: AigLit| -> Lit {
            let base =
                var_map[lit.variable() as usize].expect("literal outside the cone of influence");
            if lit.variable() == 0 {
                // AIG code 1 = TRUE  -> +const, code 0 = FALSE -> -const.
                base.with_polarity(lit.code() == 1)
            } else {
                base.with_polarity(!lit.is_negated())
            }
        };

        // ------------------------------------------------------------------
        // Transition relation.
        // ------------------------------------------------------------------
        let mut trans = Cnf::new();
        trans.push_unit(Lit::pos(const_true));
        let mut gates = Vec::new();
        for gate in aig.ands() {
            if !needed.contains(&gate.lhs.variable()) {
                continue;
            }
            let g = map_lit(gate.lhs);
            let a = map_lit(gate.rhs0);
            let b = map_lit(gate.rhs1);
            // g ↔ a ∧ b
            trans.push(Clause::from_lits([!g, a]));
            trans.push(Clause::from_lits([!g, b]));
            trans.push(Clause::from_lits([g, !a, !b]));
            gates.push((a, b));
        }
        for (ts_idx, &aig_idx) in latch_aig_index.iter().enumerate() {
            let primed = Lit::pos(Var::new((num_latches + num_inputs + ts_idx) as u32));
            let next = map_lit(aig.latches()[aig_idx].next);
            // primed ↔ next
            trans.push(Clause::from_lits([!primed, next]));
            trans.push(Clause::from_lits([primed, !next]));
        }
        let constraints: Vec<Lit> = aig.constraints().iter().map(|&c| map_lit(c)).collect();
        for &c in &constraints {
            trans.push_unit(c);
        }

        // ------------------------------------------------------------------
        // Initial states.
        // ------------------------------------------------------------------
        let init_cube = Cube::from_lits(latch_aig_index.iter().enumerate().filter_map(
            |(ts_idx, &aig_idx)| {
                aig.latches()[aig_idx]
                    .init
                    .map(|v| Lit::new(Var::new(ts_idx as u32), v))
            },
        ));
        let mut init_cnf = Cnf::new();
        init_cnf.push_unit(Lit::pos(const_true));
        for l in &init_cube {
            init_cnf.push_unit(l);
        }

        let bad = map_lit(property);

        TransitionSystem {
            num_latches,
            num_inputs,
            num_vars,
            init_cube,
            init_cnf,
            trans,
            gates,
            bad,
            constraints,
            latch_aig_index,
            input_aig_index,
            aig_num_latches: aig.num_latches(),
            aig_num_inputs: aig.num_inputs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;
    use plic3_sat::{SatResult, Solver};

    /// Loads the transition relation into a fresh solver.
    fn trans_solver(ts: &TransitionSystem) -> Solver {
        let mut solver = Solver::new();
        solver.ensure_vars(ts.num_vars());
        for clause in ts.trans() {
            solver.add_clause_ref(clause);
        }
        solver
    }

    fn toggle_ts() -> TransitionSystem {
        let mut b = AigBuilder::new();
        let s = b.latch(Some(false));
        b.set_latch_next(s, !s);
        b.add_bad(s);
        TransitionSystem::from_aig(&b.build())
    }

    #[test]
    fn toggle_transition_semantics() {
        let ts = toggle_ts();
        let mut solver = trans_solver(&ts);
        let s = Lit::pos(ts.latch_var(0));
        let s_next = Lit::pos(ts.primed_var(0));
        // From s=0 the only successor has s'=1.
        assert_eq!(solver.solve(&[!s, s_next]), SatResult::Sat);
        assert_eq!(solver.solve(&[!s, !s_next]), SatResult::Unsat);
        // From s=1 the only successor has s'=0.
        assert_eq!(solver.solve(&[s, !s_next]), SatResult::Sat);
        assert_eq!(solver.solve(&[s, s_next]), SatResult::Unsat);
    }

    #[test]
    fn counter_transition_semantics() {
        // A 2-bit free-running counter: check 01 -> 10 and 11 -> 00 transitions.
        let mut b = AigBuilder::new();
        let bits = b.latches(2, Some(false));
        let inc = b.vec_increment(&bits);
        for (s, n) in bits.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&bits, 3);
        b.add_bad(bad);
        let ts = TransitionSystem::from_aig(&b.build());
        let mut solver = trans_solver(&ts);
        let b0 = Lit::pos(ts.latch_var(0));
        let b1 = Lit::pos(ts.latch_var(1));
        let p0 = Lit::pos(ts.primed_var(0));
        let p1 = Lit::pos(ts.primed_var(1));
        // 01 (b0=1,b1=0) -> 10 (b0'=0,b1'=1)
        assert_eq!(solver.solve(&[b0, !b1, !p0, p1]), SatResult::Sat);
        assert_eq!(solver.solve(&[b0, !b1, p0]), SatResult::Unsat);
        // 11 -> 00 (wrap-around)
        assert_eq!(solver.solve(&[b0, b1, !p0, !p1]), SatResult::Sat);
        assert_eq!(solver.solve(&[b0, b1, p1]), SatResult::Unsat);
    }

    #[test]
    fn bad_literal_tracks_property() {
        let ts = toggle_ts();
        let mut solver = trans_solver(&ts);
        let s = Lit::pos(ts.latch_var(0));
        // bad ↔ s for the toggle circuit.
        assert_eq!(solver.solve(&[s, !ts.bad_lit()]), SatResult::Unsat);
        assert_eq!(solver.solve(&[!s, ts.bad_lit()]), SatResult::Unsat);
        assert_eq!(solver.solve(&[s, ts.bad_lit()]), SatResult::Sat);
    }

    #[test]
    fn cone_of_influence_drops_unrelated_logic() {
        let mut b = AigBuilder::new();
        // Relevant part: one latch toggling, bad = latch.
        let s = b.latch(Some(false));
        b.set_latch_next(s, !s);
        b.add_bad(s);
        // Irrelevant part: a 4-bit counter driven by 2 unused inputs.
        let junk_in = b.inputs(2);
        let junk = b.latches(4, Some(false));
        let inc = b.vec_increment(&junk);
        for ((j, n), g) in junk.iter().zip(&inc).zip(junk_in.iter().cycle()) {
            let nxt = b.ite(*g, *n, *j);
            b.set_latch_next(*j, nxt);
        }
        let aig = b.build();
        assert_eq!(aig.num_latches(), 5);
        assert_eq!(aig.num_inputs(), 2);
        let ts = TransitionSystem::from_aig(&aig);
        assert_eq!(ts.num_latches(), 1, "junk latches must be cut away");
        assert_eq!(ts.num_inputs(), 0, "junk inputs must be cut away");
        assert_eq!(ts.aig_num_latches(), 5);
        assert_eq!(ts.aig_latch_index(0), 0);
    }

    #[test]
    fn circuit_without_property_is_trivially_safe() {
        let mut b = AigBuilder::new();
        let s = b.latch(Some(false));
        b.set_latch_next(s, s);
        let ts = TransitionSystem::from_aig(&b.build());
        // bad literal is the negated constant: unsatisfiable together with trans.
        let mut solver = trans_solver(&ts);
        assert_eq!(solver.solve(&[ts.bad_lit()]), SatResult::Unsat);
    }

    #[test]
    fn uninitialized_latches_are_unconstrained_in_init() {
        let mut b = AigBuilder::new();
        let s = b.latch(None);
        let t = b.latch(Some(true));
        b.set_latch_next(s, s);
        b.set_latch_next(t, t);
        let both = b.and(s, t);
        b.add_bad(both);
        let ts = TransitionSystem::from_aig(&b.build());
        assert_eq!(ts.num_latches(), 2);
        assert_eq!(
            ts.init_cube().len(),
            1,
            "only the initialized latch is constrained"
        );
    }

    #[test]
    fn constraints_are_enforced_on_source_states() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let l = b.latch(Some(false));
        b.set_latch_next(l, x);
        b.add_bad(l);
        b.add_constraint(!l);
        let ts = TransitionSystem::from_aig(&b.build());
        let mut solver = trans_solver(&ts);
        // The constraint ¬l is part of the transition relation, so a source
        // state with l=1 admits no transition.
        assert_eq!(solver.solve(&[Lit::pos(ts.latch_var(0))]), SatResult::Unsat);
        assert_eq!(solver.solve(&[Lit::neg(ts.latch_var(0))]), SatResult::Sat);
    }
}
