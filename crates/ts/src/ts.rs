//! The symbolic transition-system representation.

use plic3_logic::{Cnf, Cube, Lit, Var};
use std::fmt;

/// A Boolean transition system `⟨X, Y, I, T⟩` with a bad-state literal and
/// optional invariant constraints, encoded in CNF.
///
/// The variable space is laid out in fixed ranges:
///
/// * `0 .. L` — current-state (latch) variables `X`,
/// * `L .. L+I` — primary-input variables `Y`,
/// * `L+I .. L+I+L` — next-state variables `X'` (the *primed* copies of `X`),
/// * `L+I+L` — a constant-true variable,
/// * the remainder — Tseitin auxiliaries for the AND gates of the circuit.
///
/// The transition relation [`TransitionSystem::trans`] constrains all of them:
/// it defines every auxiliary gate variable, ties each primed variable to the
/// latch's next-state function, asserts the constant variable, and asserts the
/// invariant constraints on the *source* state of the transition. Use
/// [`TransitionSystem::from_aig`] to build one from a circuit: latch `i`,
/// input `j` and AND gate `k` of the circuit are latch `i`, input `j` and
/// gate variable `k` here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionSystem {
    pub(crate) num_latches: usize,
    pub(crate) num_inputs: usize,
    pub(crate) num_vars: usize,
    pub(crate) init_cube: Cube,
    pub(crate) init_cnf: Cnf,
    pub(crate) trans: Cnf,
    /// The two input literals of each Tseitin gate variable, in variable
    /// order: entry `k` belongs to variable `const_true_var() + 1 + k`.
    pub(crate) gates: Vec<(Lit, Lit)>,
    pub(crate) bad: Lit,
    pub(crate) constraints: Vec<Lit>,
}

impl TransitionSystem {
    // ------------------------------------------------------------------
    // Sizes and variable ranges
    // ------------------------------------------------------------------

    /// Number of state (latch) variables: the circuit's latch count.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Number of primary-input variables: the circuit's input count.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Total number of CNF variables used by the encoding (latches, inputs,
    /// primed copies, the constant, and Tseitin auxiliaries).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The `i`-th current-state variable.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_latches()`.
    pub fn latch_var(&self, i: usize) -> Var {
        assert!(i < self.num_latches, "latch index out of range");
        Var::new(i as u32)
    }

    /// The `i`-th primary-input variable.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn input_var(&self, i: usize) -> Var {
        assert!(i < self.num_inputs, "input index out of range");
        Var::new((self.num_latches + i) as u32)
    }

    /// The primed (next-state) copy of the `i`-th latch variable.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_latches()`.
    pub fn primed_var(&self, i: usize) -> Var {
        assert!(i < self.num_latches, "latch index out of range");
        Var::new((self.num_latches + self.num_inputs + i) as u32)
    }

    /// The always-true variable of the encoding.
    pub fn const_true_var(&self) -> Var {
        Var::new((2 * self.num_latches + self.num_inputs) as u32)
    }

    /// Iterator over the current-state variables.
    pub fn latch_vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.num_latches).map(|i| self.latch_var(i))
    }

    /// Iterator over the input variables.
    pub fn input_vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.num_inputs).map(|i| self.input_var(i))
    }

    /// Iterator over the primed state variables.
    pub fn primed_vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.num_latches).map(|i| self.primed_var(i))
    }

    /// Returns `true` if `var` is a current-state variable.
    pub fn is_latch_var(&self, var: Var) -> bool {
        var.index() < self.num_latches
    }

    /// The latch index of a current-state variable, if it is one.
    pub fn latch_index_of(&self, var: Var) -> Option<usize> {
        self.is_latch_var(var).then_some(var.index())
    }

    // ------------------------------------------------------------------
    // Formulas
    // ------------------------------------------------------------------

    /// The initial states as a cube over the current-state variables
    /// (uninitialized latches are unconstrained and simply absent).
    pub fn init_cube(&self) -> &Cube {
        &self.init_cube
    }

    /// The initial states as CNF: the constant-true unit and the
    /// [`TransitionSystem::init_cube`] literals as units. The invariant
    /// constraints are not included; they are in [`TransitionSystem::trans`].
    pub fn init_cnf(&self) -> &Cnf {
        &self.init_cnf
    }

    /// The transition relation `T(X, Y, X')` in CNF.
    pub fn trans(&self) -> &Cnf {
        &self.trans
    }

    /// The two input literals of the AND gate that defines `var`, or `None`
    /// when `var` is not a gate variable. `T` contains the gate's three
    /// Tseitin clauses `var ↔ a ∧ b`, and both inputs are variables below
    /// `var`, so evaluating the gates in variable order is a topological
    /// simulation of the circuit.
    pub fn gate(&self, var: Var) -> Option<(Lit, Lit)> {
        let first = self.const_true_var().index() + 1;
        var.index()
            .checked_sub(first)
            .and_then(|k| self.gates.get(k).copied())
    }

    /// The literal that is true exactly in the bad states (`¬P`).
    pub fn bad_lit(&self) -> Lit {
        self.bad
    }

    /// The invariant-constraint literals (over the current-state network).
    pub fn constraint_lits(&self) -> &[Lit] {
        &self.constraints
    }

    /// Assumption literals for a "does a bad state exist here" query: the bad
    /// literal plus all invariant constraints.
    pub fn bad_assumptions(&self) -> Vec<Lit> {
        let mut lits = self.constraints.clone();
        lits.push(self.bad);
        lits
    }

    // ------------------------------------------------------------------
    // Priming and projection helpers
    // ------------------------------------------------------------------

    /// Maps a literal over a current-state variable to the primed copy.
    ///
    /// # Panics
    ///
    /// Panics if the literal is not over a current-state variable.
    pub fn prime_lit(&self, lit: Lit) -> Lit {
        let i = self
            .latch_index_of(lit.var())
            .expect("prime_lit requires a current-state literal");
        Lit::new(self.primed_var(i), lit.asserted_value())
    }

    /// Extracts the current-state cube from a (total or partial) SAT model.
    pub fn state_cube_from(&self, model: impl Fn(Var) -> Option<bool>) -> Cube {
        cube_of(self.num_latches, |i| {
            let v = self.latch_var(i);
            model(v).map(|val| Lit::new(v, val))
        })
    }

    /// Extracts the successor-state cube (over current-state variables) from a
    /// SAT model by reading the primed variables.
    pub fn next_state_cube_from(&self, model: impl Fn(Var) -> Option<bool>) -> Cube {
        cube_of(self.num_latches, |i| {
            model(self.primed_var(i)).map(|val| Lit::new(self.latch_var(i), val))
        })
    }

    /// Extracts the input cube from a SAT model.
    pub fn input_cube_from(&self, model: impl Fn(Var) -> Option<bool>) -> Cube {
        cube_of(self.num_inputs, |i| {
            let v = self.input_var(i);
            model(v).map(|val| Lit::new(v, val))
        })
    }

    // ------------------------------------------------------------------
    // Initial-state tests
    // ------------------------------------------------------------------

    /// Returns `true` if the cube (over current-state variables) has a non-empty
    /// intersection with the initial states.
    ///
    /// Because the initial states form a cube, this is a simple syntactic check:
    /// the intersection is empty iff some literal of `cube` is negated in the
    /// initial cube.
    pub fn cube_intersects_init(&self, cube: &Cube) -> bool {
        !cube.iter().any(|l| self.init_cube.contains(!l))
    }

    /// Returns `true` if the clause `¬cube` holds in all initial states, i.e.
    /// the cube excludes the initial states. This is the `I ⇒ ¬cand` side
    /// condition of the generalization algorithms.
    pub fn cube_excludes_init(&self, cube: &Cube) -> bool {
        !self.cube_intersects_init(cube)
    }
}

/// The cube of the literals `lit` gives for `0..n`, in one allocation.
fn cube_of(n: usize, lit: impl FnMut(usize) -> Option<Lit>) -> Cube {
    let mut lits = Vec::with_capacity(n);
    lits.extend((0..n).filter_map(lit));
    Cube::from_lits(lits)
}

impl fmt::Display for TransitionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ts latches={} inputs={} vars={} trans_clauses={} constraints={}",
            self.num_latches,
            self.num_inputs,
            self.num_vars,
            self.trans.len(),
            self.constraints.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;
    use plic3_logic::Assignment;

    fn two_bit_counter() -> TransitionSystem {
        let mut b = AigBuilder::new();
        let en = b.input();
        let bits = b.latches(2, Some(false));
        let inc = b.vec_increment(&bits);
        for (s, n) in bits.iter().zip(&inc) {
            let nxt = b.ite(en, *n, *s);
            b.set_latch_next(*s, nxt);
        }
        let bad = b.vec_equals_const(&bits, 3);
        b.add_bad(bad);
        TransitionSystem::from_aig(&b.build())
    }

    #[test]
    fn variable_ranges_are_disjoint_and_classified() {
        let ts = two_bit_counter();
        assert_eq!(ts.num_latches(), 2);
        assert_eq!(ts.num_inputs(), 1);
        let l0 = ts.latch_var(0);
        let i0 = ts.input_var(0);
        let p0 = ts.primed_var(0);
        assert!(ts.is_latch_var(l0));
        assert!(!ts.is_latch_var(i0) && !ts.is_latch_var(p0));
        assert_eq!(i0.index(), ts.num_latches());
        assert!(ts.primed_vars().all(|p| p != l0 && p != i0));
        assert!(ts.num_vars() > 2 * ts.num_latches() + ts.num_inputs());
        assert_eq!(ts.latch_vars().count(), 2);
        assert_eq!(ts.primed_vars().count(), 2);
        assert_eq!(ts.input_vars().count(), 1);
    }

    #[test]
    fn priming_roundtrip() {
        let ts = two_bit_counter();
        // Latch `i` primes to primed variable `i` with its polarity kept.
        let primed: Vec<Var> = ts.primed_vars().collect();
        for (i, v) in ts.latch_vars().enumerate() {
            assert_eq!(ts.latch_index_of(v), Some(i));
            for positive in [true, false] {
                assert_eq!(
                    ts.prime_lit(Lit::new(v, positive)),
                    Lit::new(primed[i], positive)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "current-state literal")]
    fn prime_rejects_non_latch_literal() {
        let ts = two_bit_counter();
        let _ = ts.prime_lit(Lit::pos(ts.input_var(0)));
    }

    #[test]
    fn init_cube_and_intersection_checks() {
        let ts = two_bit_counter();
        // Both latches reset to 0.
        assert_eq!(ts.init_cube().len(), 2);
        let zero = Cube::from_lits([Lit::neg(ts.latch_var(0)), Lit::neg(ts.latch_var(1))]);
        let three = Cube::from_lits([Lit::pos(ts.latch_var(0)), Lit::pos(ts.latch_var(1))]);
        assert!(ts.cube_intersects_init(&zero));
        assert!(!ts.cube_intersects_init(&three));
        assert!(ts.cube_excludes_init(&three));
        // A cube mentioning only one latch still intersects init if compatible.
        let partial = Cube::from_lits([Lit::neg(ts.latch_var(1))]);
        assert!(ts.cube_intersects_init(&partial));
    }

    #[test]
    fn model_projection_helpers() {
        let ts = two_bit_counter();
        let mut assignment = Assignment::new(ts.num_vars());
        assignment.assign(ts.latch_var(0), true);
        assignment.assign(ts.latch_var(1), false);
        assignment.assign(ts.input_var(0), true);
        assignment.assign(ts.primed_var(0), false);
        assignment.assign(ts.primed_var(1), true);
        let state = ts.state_cube_from(|v| assignment.value(v));
        assert_eq!(state.len(), 2);
        assert!(state.contains(Lit::pos(ts.latch_var(0))));
        let next = ts.next_state_cube_from(|v| assignment.value(v));
        assert_eq!(
            next,
            Cube::from_lits([Lit::neg(ts.latch_var(0)), Lit::pos(ts.latch_var(1))])
        );
        let inputs = ts.input_cube_from(|v| assignment.value(v));
        assert_eq!(inputs, Cube::from_lits([Lit::pos(ts.input_var(0))]));
    }

    #[test]
    fn bad_assumptions_include_constraints() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let l = b.latch(Some(false));
        b.set_latch_next(l, x);
        b.add_bad(l);
        b.add_constraint(!x);
        let ts = TransitionSystem::from_aig(&b.build());
        assert_eq!(ts.constraint_lits().len(), 1);
        let assumptions = ts.bad_assumptions();
        assert_eq!(assumptions.len(), 2);
        assert_eq!(*assumptions.last().expect("non-empty"), ts.bad_lit());
    }

    #[test]
    fn display_reports_sizes() {
        let ts = two_bit_counter();
        let s = ts.to_string();
        assert!(s.contains("latches=2"));
        assert!(s.contains("inputs=1"));
    }
}
