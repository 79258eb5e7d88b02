//! Clauses: disjunctions of literals.

use crate::cube::is_sorted_subset;
use crate::{Cube, Lit, Var};
use std::fmt;

/// A clause — a disjunction of literals, stored as a sorted, duplicate-free vector.
///
/// Clauses are the *lemmas* of IC3: the negation of a blocked cube. The empty
/// clause is `⊥` (unsatisfiable); a clause containing a literal and its negation
/// is a tautology.
///
/// # Example
///
/// ```
/// use plic3_logic::{Clause, Cube, Lit, Var};
/// let x = Var::new(0);
/// let y = Var::new(1);
/// let lemma = Clause::from_lits([Lit::neg(x), Lit::pos(y)]);
/// // The lemma ¬x ∨ y blocks the cube x ∧ ¬y.
/// assert_eq!(lemma.negate(), Cube::from_lits([Lit::pos(x), Lit::neg(y)]));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates a clause from an iterator of literals, sorting and deduplicating.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        Clause { lits }
    }

    /// Creates a unit clause.
    pub fn unit(lit: Lit) -> Self {
        Clause { lits: vec![lit] }
    }

    /// Returns the literals of this clause in sorted order.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Returns the number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if this is the empty clause `⊥`.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if `lit` occurs in the clause.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Returns `true` if some literal of the clause is over `var`.
    pub fn mentions(&self, var: Var) -> bool {
        self.contains(Lit::pos(var)) || self.contains(Lit::neg(var))
    }

    /// Set-inclusion test: `true` iff every literal of `self` occurs in `other`.
    ///
    /// For clauses, the subset is the logically *stronger* formula: if
    /// `self ⊆ other` then `self ⇒ other`. This is the "parent lemma" relation
    /// `p ⊆ c` used by Algorithm 2 of the paper.
    pub fn subsumes(&self, other: &Clause) -> bool {
        is_sorted_subset(&self.lits, &other.lits)
    }

    /// The negation of this clause, as a cube (De Morgan).
    pub fn negate(&self) -> Cube {
        Cube::from_lits(self.lits.iter().map(|&l| !l))
    }

    /// Iterates over the literals of the clause.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Lit>> {
        self.lits.iter().copied()
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause::from_lits(iter)
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = Lit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Lit>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊥");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let c = Clause::from_lits([lit(3, false), lit(1, true), lit(3, false)]);
        assert_eq!(c.lits(), &[lit(1, true), lit(3, false)]);
    }

    #[test]
    fn empty_clause_is_bottom() {
        let c = Clause::from_lits([]);
        assert!(c.is_empty());
        assert_eq!(c, Clause::default());
        assert_eq!(c.to_string(), "⊥");
    }

    #[test]
    fn unit_clause() {
        let c = Clause::unit(lit(7, false));
        assert_eq!(c.len(), 1);
        assert!(c.contains(lit(7, false)));
    }

    #[test]
    fn subsumption_matches_parent_lemma_relation() {
        // p ⊆ c  means the lemma p implies the clause c.
        let p = Clause::from_lits([lit(1, false)]);
        let c = Clause::from_lits([lit(1, false), lit(2, true)]);
        assert!(p.subsumes(&c));
        assert!(!c.subsumes(&p));
    }

    #[test]
    fn negate_roundtrip_with_cube() {
        let cl = Clause::from_lits([lit(0, true), lit(4, false)]);
        let cube = cl.negate();
        assert_eq!(cube.lits(), &[lit(0, false), lit(4, true)]);
        assert_eq!(cube.negate(), cl);
    }

    #[test]
    fn mentions_checks_both_polarities() {
        let c = Clause::from_lits([lit(2, false)]);
        assert!(c.mentions(Var::new(2)));
        assert!(!c.mentions(Var::new(1)));
    }

    #[test]
    fn display_joins_with_or() {
        let c = Clause::from_lits([lit(0, true), lit(1, false)]);
        assert_eq!(c.to_string(), "x0 ∨ ¬x1");
    }
}
