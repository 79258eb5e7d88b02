//! Time-frame expansion of the transition relation.

use crate::TransitionSystem;
use plic3_logic::{Clause, Cube, Lit, Var};

/// Unrolls a [`TransitionSystem`] over time frames for bounded model checking
/// and k-induction.
///
/// Frame `k` gets its own copy of every transition-system variable; the primed
/// variables of frame `k` are identified with the state variables of frame
/// `k + 1`, so consecutive copies of the transition relation chain together
/// without extra equality clauses.
///
/// # Example
///
/// ```
/// use plic3_aig::AigBuilder;
/// use plic3_ts::{TransitionSystem, Unroller};
///
/// let mut b = AigBuilder::new();
/// let s = b.latch(Some(false));
/// b.set_latch_next(s, !s);
/// b.add_bad(s);
/// let ts = TransitionSystem::from_aig(&b.build());
/// let unroller = Unroller::new(&ts);
/// // The initial-state constraint and two copies of the transition relation:
/// let mut clauses = unroller.init_clauses();
/// clauses.extend(unroller.trans_clauses(0));
/// clauses.extend(unroller.trans_clauses(1));
/// assert!(clauses.len() > 2 * ts.trans().len());
/// ```
#[derive(Clone, Debug)]
pub struct Unroller<'a> {
    ts: &'a TransitionSystem,
    stride: usize,
}

impl<'a> Unroller<'a> {
    /// Creates an unroller for `ts`.
    pub fn new(ts: &'a TransitionSystem) -> Self {
        Unroller {
            ts,
            stride: ts.num_vars(),
        }
    }

    /// The transition system being unrolled.
    pub fn ts(&self) -> &TransitionSystem {
        self.ts
    }

    /// Number of solver variables needed to hold frames `0..=frame`.
    pub fn num_vars_through(&self, frame: usize) -> usize {
        (frame + 1) * self.stride
    }

    /// Maps a transition-system variable into time frame `frame`.
    ///
    /// State variables of frame `k + 1` coincide with the primed variables of
    /// frame `k`.
    fn var_at(&self, frame: usize, var: Var) -> Var {
        debug_assert!(var.index() < self.stride);
        if frame > 0 && self.ts.is_latch_var(var) {
            // Identify with the primed copy of the previous frame.
            let i = var.index();
            self.var_at(frame - 1, self.ts.primed_var(i))
        } else {
            Var::new((frame * self.stride + var.index()) as u32)
        }
    }

    /// Maps a literal into time frame `frame`.
    pub fn lit_at(&self, frame: usize, lit: Lit) -> Lit {
        Lit::new(self.var_at(frame, lit.var()), lit.asserted_value())
    }

    /// The initial-state constraint, expressed in frame 0.
    pub fn init_clauses(&self) -> Vec<Clause> {
        self.map_cnf(0, self.ts.init_cnf())
    }

    /// A copy of the transition relation for the step from frame `frame` to
    /// frame `frame + 1`.
    pub fn trans_clauses(&self, frame: usize) -> Vec<Clause> {
        self.map_cnf(frame, self.ts.trans())
    }

    /// The bad literal evaluated in frame `frame` (with the constraints that
    /// must hold there), as assumption literals.
    pub fn bad_assumptions_at(&self, frame: usize) -> Vec<Lit> {
        self.ts
            .bad_assumptions()
            .into_iter()
            .map(|l| self.lit_at(frame, l))
            .collect()
    }

    /// Extracts the state cube of frame `frame` from a SAT model over the
    /// unrolled variables.
    pub fn state_cube_at(&self, frame: usize, model: impl Fn(Var) -> Option<bool>) -> Cube {
        Cube::from_lits(self.ts.latch_vars().filter_map(|v| {
            let fv = self.var_at(frame, v);
            model(fv).map(|val| Lit::new(v, val))
        }))
    }

    /// Extracts the input cube of frame `frame` from a SAT model over the
    /// unrolled variables.
    pub fn input_cube_at(&self, frame: usize, model: impl Fn(Var) -> Option<bool>) -> Cube {
        Cube::from_lits(self.ts.input_vars().filter_map(|v| {
            let fv = self.var_at(frame, v);
            model(fv).map(|val| Lit::new(v, val))
        }))
    }

    fn map_cnf(&self, frame: usize, clauses: &[Clause]) -> Vec<Clause> {
        clauses
            .iter()
            .map(|clause| clause.iter().map(|l| self.lit_at(frame, l)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;
    use plic3_sat::{SatResult, Solver};

    fn counter_ts(bits: usize, bad_at: u64) -> TransitionSystem {
        let mut b = AigBuilder::new();
        let state = b.latches(bits, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, bad_at);
        b.add_bad(bad);
        TransitionSystem::from_aig(&b.build())
    }

    fn bmc_reaches_bad(ts: &TransitionSystem, depth: usize) -> Option<usize> {
        let unroller = Unroller::new(ts);
        let mut solver = Solver::new();
        solver.ensure_vars(unroller.num_vars_through(depth + 1));
        for clause in unroller.init_clauses() {
            solver.add_clause_ref(&clause);
        }
        for k in 0..=depth {
            if k > 0 {
                for clause in unroller.trans_clauses(k - 1) {
                    solver.add_clause_ref(&clause);
                }
            }
            // Frame k's own copy of the combinational logic is needed to
            // evaluate the bad literal there.
            for clause in unroller.trans_clauses(k) {
                solver.add_clause_ref(&clause);
            }
            if solver.solve(&unroller.bad_assumptions_at(k)) == SatResult::Sat {
                return Some(k);
            }
        }
        None
    }

    #[test]
    fn frame_zero_is_identity() {
        let ts = counter_ts(2, 3);
        let u = Unroller::new(&ts);
        let v = ts.latch_var(1);
        assert_eq!(u.var_at(0, v), v);
        assert_eq!(u.lit_at(0, Lit::neg(v)), Lit::neg(v));
    }

    #[test]
    fn consecutive_frames_share_state_variables() {
        let ts = counter_ts(2, 3);
        let u = Unroller::new(&ts);
        // State var of frame 1 == primed var of frame 0.
        assert_eq!(u.var_at(1, ts.latch_var(0)), u.var_at(0, ts.primed_var(0)));
        // And frame 2 chains through frame 1.
        assert_eq!(u.var_at(2, ts.latch_var(1)), u.var_at(1, ts.primed_var(1)));
        // Input variables are frame-local.
        let ts_inputs = counter_input_ts();
        let u = Unroller::new(&ts_inputs);
        assert_ne!(
            u.var_at(0, ts_inputs.input_var(0)),
            u.var_at(1, ts_inputs.input_var(0))
        );
    }

    fn counter_input_ts() -> TransitionSystem {
        let mut b = AigBuilder::new();
        let en = b.input();
        let s = b.latch(Some(false));
        let next = b.xor(s, en);
        b.set_latch_next(s, next);
        b.add_bad(s);
        TransitionSystem::from_aig(&b.build())
    }

    #[test]
    fn bmc_finds_counter_bug_at_exact_depth() {
        // A 3-bit counter that is bad when it reaches 5: exactly 5 steps.
        let ts = counter_ts(3, 5);
        assert_eq!(bmc_reaches_bad(&ts, 10), Some(5));
    }

    #[test]
    fn bmc_respects_unreachable_bad_value() {
        // A 2-bit counter can never reach value 7.
        let mut b = AigBuilder::new();
        let state = b.latches(2, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let three = b.vec_equals_const(&state, 3);
        let extra = b.input();
        let bad = b.and(three, extra);
        // The bad also needs the input to be high.
        b.add_bad(bad);
        // Constraint forbids the input from ever being high: unreachable.
        b.add_constraint(!extra);
        let ts = TransitionSystem::from_aig(&b.build());
        assert_eq!(bmc_reaches_bad(&ts, 8), None);
    }

    #[test]
    fn state_and_input_extraction_from_bmc_model() {
        let ts = counter_input_ts();
        let u = Unroller::new(&ts);
        let mut solver = Solver::new();
        solver.ensure_vars(u.num_vars_through(2));
        for clause in u.init_clauses() {
            solver.add_clause_ref(&clause);
        }
        for clause in u.trans_clauses(0) {
            solver.add_clause_ref(&clause);
        }
        for clause in u.trans_clauses(1) {
            solver.add_clause_ref(&clause);
        }
        // Reach the bad state (latch = 1) at frame 1.
        assert_eq!(solver.solve(&u.bad_assumptions_at(1)), SatResult::Sat);
        let model = solver.model();
        let s0 = u.state_cube_at(0, |v| model.value(v));
        let i0 = u.input_cube_at(0, |v| model.value(v));
        let s1 = u.state_cube_at(1, |v| model.value(v));
        assert!(s0.contains(Lit::neg(ts.latch_var(0))));
        assert!(i0.contains(Lit::pos(ts.input_var(0))));
        assert!(s1.contains(Lit::pos(ts.latch_var(0))));
    }

    #[test]
    fn num_vars_through_grows_linearly() {
        let ts = counter_ts(2, 3);
        let u = Unroller::new(&ts);
        assert_eq!(u.num_vars_through(0), ts.num_vars());
        assert_eq!(u.num_vars_through(3), 4 * ts.num_vars());
    }
}
