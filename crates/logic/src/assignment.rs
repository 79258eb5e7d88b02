//! Partial truth assignments.

use crate::{Clause, Cube, Lit, Var};
use std::fmt;

/// A (possibly partial) truth assignment over a dense range of variables.
///
/// Assignments are produced by the SAT solver as models, by the AIG simulator
/// when replaying counterexample traces, and by the benchmark generators when
/// describing initial states.
///
/// # Example
///
/// ```
/// use plic3_logic::{Assignment, Cube, Lit, Var};
/// let mut a = Assignment::new(3);
/// a.assign(Var::new(0), true);
/// a.assign(Var::new(2), false);
/// assert_eq!(a.value(Var::new(1)), None);
/// let cube = a.to_cube([Var::new(0), Var::new(2)]);
/// assert_eq!(cube, Cube::from_lits([Lit::pos(Var::new(0)), Lit::neg(Var::new(2))]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Assignment {
    values: Vec<Option<bool>>,
}

impl Assignment {
    /// Creates an all-unassigned assignment over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Assignment {
            values: vec![None; num_vars],
        }
    }

    /// Creates an assignment from explicit per-variable values.
    pub fn from_values(values: Vec<Option<bool>>) -> Self {
        Assignment { values }
    }

    /// Number of variable slots (assigned or not).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the assignment has no variable slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Assigns `value` to `var`, growing the assignment if necessary.
    pub fn assign(&mut self, var: Var, value: bool) {
        if var.index() >= self.values.len() {
            self.values.resize(var.index() + 1, None);
        }
        self.values[var.index()] = Some(value);
    }

    /// The value of `var`, if assigned.
    pub fn value(&self, var: Var) -> Option<bool> {
        self.values.get(var.index()).copied().flatten()
    }

    /// The truth value of `lit` under this assignment, if its variable is assigned.
    pub fn eval_lit(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var())
            .map(|v| if lit.is_pos() { v } else { !v })
    }

    /// Evaluates a cube: `Some(false)` if any literal is false, `Some(true)` if
    /// all are true, `None` otherwise.
    pub fn eval_cube(&self, cube: &Cube) -> Option<bool> {
        let mut all_true = true;
        for lit in cube {
            match self.eval_lit(lit) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all_true = false,
            }
        }
        if all_true {
            Some(true)
        } else {
            None
        }
    }

    /// Evaluates a clause: `Some(true)` if any literal is true, `Some(false)` if
    /// all are false, `None` otherwise.
    pub fn eval_clause(&self, clause: &Clause) -> Option<bool> {
        let mut all_false = true;
        for lit in clause {
            match self.eval_lit(lit) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => all_false = false,
            }
        }
        if all_false {
            Some(false)
        } else {
            None
        }
    }

    /// Returns `true` if the cube is satisfied (all literals true). Unassigned
    /// variables count as *not* satisfied.
    pub fn satisfies_cube(&self, cube: &Cube) -> bool {
        self.eval_cube(cube) == Some(true)
    }

    /// Projects the assignment onto `vars`, producing a cube that asserts the
    /// current value of each assigned variable in `vars` (unassigned variables
    /// are skipped).
    pub fn to_cube<I: IntoIterator<Item = Var>>(&self, vars: I) -> Cube {
        Cube::from_lits(
            vars.into_iter()
                .filter_map(|v| self.value(v).map(|val| Lit::new(v, val))),
        )
    }

    /// Iterates over `(Var, bool)` pairs for all assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|val| (Var::new(i as u32), val)))
    }
}

impl FromIterator<Lit> for Assignment {
    /// Builds an assignment asserting every literal of the iterator.
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        let mut a = Assignment::new(0);
        for lit in iter {
            a.assign(lit.var(), lit.asserted_value());
        }
        a
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (var, val) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{var}={}", u8::from(val))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn assign_and_read_back() {
        let mut a = Assignment::new(2);
        assert_eq!(a.len(), 2);
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), false);
        assert_eq!(a.value(Var::new(0)), Some(true));
        assert_eq!(a.value(Var::new(1)), Some(false));
        a.assign(Var::new(0), false);
        assert_eq!(a.value(Var::new(0)), Some(false));
    }

    #[test]
    fn assign_grows_automatically() {
        let mut a = Assignment::new(0);
        a.assign(Var::new(10), true);
        assert_eq!(a.len(), 11);
        assert_eq!(a.value(Var::new(10)), Some(true));
        assert_eq!(a.value(Var::new(3)), None);
        // Reading past the end is also fine.
        assert_eq!(a.value(Var::new(100)), None);
    }

    #[test]
    fn eval_lit_respects_polarity() {
        let mut a = Assignment::new(1);
        a.assign(Var::new(0), false);
        assert_eq!(a.eval_lit(lit(0, true)), Some(false));
        assert_eq!(a.eval_lit(lit(0, false)), Some(true));
        assert_eq!(a.eval_lit(lit(1, true)), None);
    }

    #[test]
    fn eval_cube_and_clause() {
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), false);
        let cube = Cube::from_lits([lit(0, true), lit(1, false)]);
        assert_eq!(a.eval_cube(&cube), Some(true));
        assert!(a.satisfies_cube(&cube));
        let cube2 = Cube::from_lits([lit(0, true), lit(2, true)]);
        assert_eq!(a.eval_cube(&cube2), None);
        assert!(!a.satisfies_cube(&cube2));
        let clause = Clause::from_lits([lit(0, false), lit(1, true)]);
        assert_eq!(a.eval_clause(&clause), Some(false));
        let clause2 = Clause::from_lits([lit(0, false), lit(2, true)]);
        assert_eq!(a.eval_clause(&clause2), None);
        let clause3 = Clause::from_lits([lit(1, false), lit(2, true)]);
        assert_eq!(a.eval_clause(&clause3), Some(true));
    }

    #[test]
    fn empty_cube_is_true_empty_clause_is_false() {
        let a = Assignment::new(0);
        assert_eq!(a.eval_cube(&Cube::top()), Some(true));
        assert_eq!(a.eval_clause(&Clause::empty()), Some(false));
    }

    #[test]
    fn projection_to_cube_skips_unassigned() {
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), true);
        a.assign(Var::new(2), false);
        let c = a.to_cube([Var::new(0), Var::new(1), Var::new(2)]);
        assert_eq!(c, Cube::from_lits([lit(0, true), lit(2, false)]));
    }

    #[test]
    fn from_literals_collects_assignment() {
        let a: Assignment = [lit(0, false), lit(3, true)].into_iter().collect();
        assert_eq!(a.value(Var::new(0)), Some(false));
        assert_eq!(a.value(Var::new(3)), Some(true));
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn display_lists_assigned_vars() {
        let mut a = Assignment::new(2);
        a.assign(Var::new(1), true);
        assert_eq!(a.to_string(), "{x1=1}");
    }

    #[test]
    fn iter_yields_pairs_in_index_order() {
        let mut a = Assignment::new(4);
        a.assign(Var::new(3), false);
        a.assign(Var::new(1), true);
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs, vec![(Var::new(1), true), (Var::new(3), false)]);
    }
}
