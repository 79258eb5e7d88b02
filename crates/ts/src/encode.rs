//! Tseitin encoding of an AIG into a [`TransitionSystem`].

use crate::TransitionSystem;
use plic3_aig::{Aig, AigLit};
use plic3_logic::{Clause, Cube, Lit, Var};

impl TransitionSystem {
    /// Encodes `aig` into a CNF transition system, one to one: latch `i`,
    /// input `j` and AND gate `k` of the circuit become transition-system
    /// latch `i`, input `j` and gate variable `k`. Logic outside the
    /// property's cone is encoded too; cone-of-influence reduction is
    /// preprocessing's job (`plic3-prep`).
    ///
    /// The encoding:
    ///
    /// 1. allocates the variable ranges documented on [`TransitionSystem`],
    /// 2. Tseitin-encodes every AND gate over the current-state variables
    ///    (and records its two inputs for [`TransitionSystem::gate`]),
    /// 3. ties each primed state variable to its latch's next-state literal, and
    /// 4. asserts the constant-true variable and the constraints on the source
    ///    state of every transition.
    ///
    /// The property is the first bad literal, or the first output for AIGER
    /// 1.0 circuits. Circuits without any bad literal or output get a
    /// constant-false property (trivially safe).
    ///
    /// # Panics
    ///
    /// Panics if `aig` fails [`Aig::validate`].
    pub fn from_aig(aig: &Aig) -> Self {
        aig.validate().expect("cannot encode an invalid AIG");
        let property = aig.property_literal().unwrap_or(AigLit::FALSE);
        let num_latches = aig.num_latches();
        let num_inputs = aig.num_inputs();

        // ------------------------------------------------------------------
        // Variable allocation. A valid AIG numbers its variables densely: 0 is
        // the constant, then come the inputs, the latches and the gates.
        // ------------------------------------------------------------------
        let const_true = Var::new((2 * num_latches + num_inputs) as u32);
        let num_vars = const_true.index() + 1 + aig.num_ands();

        // Maps an AIG literal (constant, input, latch or gate) to a CNF literal.
        // The AIG constant variable 0 maps so that literal 1 (TRUE) becomes the
        // positive constant literal and literal 0 (FALSE) its negation.
        let map_lit = |lit: AigLit| -> Lit {
            let v = lit.variable() as usize;
            let var = if v == 0 {
                const_true.index()
            } else if v <= num_inputs {
                num_latches + v - 1
            } else if v <= num_inputs + num_latches {
                v - 1 - num_inputs
            } else {
                const_true.index() + v - num_inputs - num_latches
            };
            let positive = if v == 0 {
                lit.code() == 1
            } else {
                !lit.is_negated()
            };
            Lit::new(Var::new(var as u32), positive)
        };

        // ------------------------------------------------------------------
        // Transition relation.
        // ------------------------------------------------------------------
        let mut trans = vec![Clause::unit(Lit::pos(const_true))];
        let mut gates = Vec::with_capacity(aig.num_ands());
        for gate in aig.ands() {
            let g = map_lit(gate.lhs);
            let a = map_lit(gate.rhs0);
            let b = map_lit(gate.rhs1);
            // g ↔ a ∧ b
            trans.push(Clause::from_lits([!g, a]));
            trans.push(Clause::from_lits([!g, b]));
            trans.push(Clause::from_lits([g, !a, !b]));
            gates.push((a, b));
        }
        for (i, latch) in aig.latches().iter().enumerate() {
            let primed = Lit::pos(Var::new((num_latches + num_inputs + i) as u32));
            let next = map_lit(latch.next);
            // primed ↔ next
            trans.push(Clause::from_lits([!primed, next]));
            trans.push(Clause::from_lits([primed, !next]));
        }
        let constraints: Vec<Lit> = aig.constraints().iter().map(|&c| map_lit(c)).collect();
        trans.extend(constraints.iter().map(|&c| Clause::unit(c)));

        // ------------------------------------------------------------------
        // Initial states.
        // ------------------------------------------------------------------
        let init_cube = Cube::from_lits(
            aig.latches()
                .iter()
                .enumerate()
                .filter_map(|(i, latch)| latch.init.map(|v| Lit::new(Var::new(i as u32), v))),
        );
        let init_cnf = std::iter::once(Lit::pos(const_true))
            .chain(&init_cube)
            .map(Clause::unit)
            .collect();

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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
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
    fn logic_outside_the_cone_is_encoded_in_aig_order() {
        let mut b = AigBuilder::new();
        // Irrelevant part first: a 4-bit counter driven by 2 unused inputs.
        let junk_in = b.inputs(2);
        let junk = b.latches(4, Some(false));
        let inc = b.vec_increment(&junk);
        for ((j, n), g) in junk.iter().zip(&inc).zip(junk_in.iter().cycle()) {
            let nxt = b.ite(*g, *n, *j);
            b.set_latch_next(*j, nxt);
        }
        // Relevant part: one latch toggling, bad = latch.
        let s = b.latch(Some(false));
        b.set_latch_next(s, !s);
        b.add_bad(s);
        let aig = b.build();
        let ts = TransitionSystem::from_aig(&aig);
        assert_eq!(ts.num_latches(), 5, "every latch is kept");
        assert_eq!(ts.num_inputs(), 2, "every input is kept");
        assert_eq!(
            ts.num_vars(),
            2 * aig.num_latches() + aig.num_inputs() + 1 + aig.num_ands()
        );
        // The toggle is AIG latch 4, so it is transition-system latch 4.
        assert_eq!(ts.bad_lit(), Lit::pos(ts.latch_var(4)));
        let trace = Trace::from_bits(
            &ts,
            &[&[false; 5], &[false, false, false, false, true]],
            &[&[false, false]],
        );
        assert!(trace.replay_on_aig(&ts, &aig));
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
        // BMC and k-induction load these clauses first, so their order is
        // part of the solver's trail: the constant unit, then one unit per
        // initial-cube literal in cube order.
        assert_eq!(
            ts.init_cnf(),
            [
                Clause::unit(Lit::pos(ts.const_true_var())),
                Clause::unit(Lit::pos(ts.latch_var(1))),
            ]
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
