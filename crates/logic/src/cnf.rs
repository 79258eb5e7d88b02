//! CNF formulas: conjunctions of clauses.

use crate::{Assignment, Clause, Lit, Var};
use std::fmt;

/// A formula in conjunctive normal form: a conjunction of [`Clause`]s.
///
/// Used for the initial-state constraint, the Tseitin-encoded transition
/// relation, and frame contents when they need to be handled as plain formulas
/// (e.g. by the certificate checker).
///
/// # Example
///
/// ```
/// use plic3_logic::{Clause, Cnf, Lit, Var};
/// let x = Var::new(0);
/// let mut cnf = Cnf::new();
/// cnf.push(Clause::unit(Lit::pos(x)));
/// assert_eq!(cnf.len(), 1);
/// assert_eq!(cnf.max_var(), Some(x));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Cnf {
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty CNF (the constant `⊤`).
    pub const fn new() -> Self {
        Cnf {
            clauses: Vec::new(),
        }
    }

    /// Creates a CNF from an iterator of clauses.
    pub fn from_clauses<I: IntoIterator<Item = Clause>>(clauses: I) -> Self {
        Cnf {
            clauses: clauses.into_iter().collect(),
        }
    }

    /// Appends a clause.
    pub fn push(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// Appends a unit clause asserting `lit`.
    pub fn push_unit(&mut self, lit: Lit) {
        self.clauses.push(Clause::unit(lit));
    }

    /// Returns the clauses of the formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Returns the number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` if the formula has no clauses (the constant `⊤`).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The largest variable index mentioned in the formula, if any.
    pub fn max_var(&self) -> Option<Var> {
        self.clauses.iter().filter_map(Clause::max_var).max()
    }

    /// Evaluates the formula under a (possibly partial) assignment.
    ///
    /// Returns `Some(false)` as soon as one clause is falsified, `Some(true)` if
    /// every clause is satisfied, and `None` otherwise.
    pub fn eval(&self, assignment: &Assignment) -> Option<bool> {
        let mut all_true = true;
        for clause in &self.clauses {
            match assignment.eval_clause(clause) {
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

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        Cnf::from_clauses(iter)
    }
}

impl Extend<Clause> for Cnf {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        self.clauses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Cnf {
    type Item = &'a Clause;
    type IntoIter = std::slice::Iter<'a, Clause>;

    fn into_iter(self) -> Self::IntoIter {
        self.clauses.iter()
    }
}

impl IntoIterator for Cnf {
    type Item = Clause;
    type IntoIter = std::vec::IntoIter<Clause>;

    fn into_iter(self) -> Self::IntoIter {
        self.clauses.into_iter()
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "⊤");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cube;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn push_and_inspect() {
        let mut cnf = Cnf::new();
        assert!(cnf.is_empty());
        cnf.push(Clause::from_lits([lit(0, true), lit(2, false)]));
        cnf.push_unit(lit(1, true));
        assert_eq!(cnf.len(), 2);
        assert_eq!(cnf.max_var(), Some(Var::new(2)));
    }

    #[test]
    fn empty_clause_detection() {
        // A formula holding the empty clause is false under every assignment.
        let cnf = Cnf::from_clauses([Clause::unit(lit(0, true)), Clause::empty()]);
        let mut a = Assignment::new(1);
        assert_eq!(cnf.eval(&a), Some(false));
        a.assign(Var::new(0), true);
        assert_eq!(cnf.eval(&a), Some(false));
    }

    #[test]
    fn eval_partial_and_total() {
        // (x0 ∨ ¬x1) ∧ (x1)
        let cnf = Cnf::from_clauses([
            Clause::from_lits([lit(0, true), lit(1, false)]),
            Clause::unit(lit(1, true)),
        ]);
        let mut a = Assignment::new(2);
        assert_eq!(cnf.eval(&a), None);
        a.assign(Var::new(1), true);
        assert_eq!(cnf.eval(&a), None); // first clause still unknown
        a.assign(Var::new(0), false);
        assert_eq!(cnf.eval(&a), Some(false));
        a.assign(Var::new(0), true);
        assert_eq!(cnf.eval(&a), Some(true));
    }

    #[test]
    fn eval_of_empty_cnf_is_true() {
        let cnf = Cnf::new();
        let a = Assignment::new(0);
        assert_eq!(cnf.eval(&a), Some(true));
    }

    #[test]
    fn collect_and_iterate() {
        let clauses = vec![Clause::unit(lit(0, true)), Clause::unit(lit(1, false))];
        let cnf: Cnf = clauses.clone().into_iter().collect();
        let back: Vec<Clause> = cnf.iter().cloned().collect();
        assert_eq!(back, clauses);
    }

    #[test]
    fn extend_appends() {
        let mut cnf = Cnf::new();
        cnf.extend([Clause::unit(lit(0, true))]);
        cnf.extend([Clause::unit(lit(1, true))]);
        assert_eq!(cnf.len(), 2);
    }

    #[test]
    fn display_formats_clauses() {
        let cnf = Cnf::from_clauses([
            Clause::from_lits([lit(0, true), lit(1, false)]),
            Clause::unit(lit(2, true)),
        ]);
        assert_eq!(cnf.to_string(), "(x0 ∨ ¬x1) ∧ (x2)");
        assert_eq!(Cnf::new().to_string(), "⊤");
    }

    #[test]
    fn cube_negation_into_cnf_units() {
        // Blocking a cube adds the negated cube as one clause; sanity check the
        // interplay of the types.
        let cube = Cube::from_lits([lit(0, true), lit(1, false)]);
        let mut cnf = Cnf::new();
        cnf.push(cube.negate());
        assert_eq!(cnf.clauses()[0].lits(), &[lit(0, false), lit(1, true)]);
    }
}
