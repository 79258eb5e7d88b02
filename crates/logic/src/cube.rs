//! Cubes: conjunctions of literals.

use crate::{Clause, Lit, Var};
use std::fmt;

/// A cube — a conjunction of literals, stored as a sorted, duplicate-free vector.
///
/// Cubes represent (sets of) states where IC3 meets its solvers and
/// checkers: solver assumptions and UNSAT cores, a predecessor or input
/// valuation read off a SAT model, the states of a counterexample trace, and
/// (negated) the clauses of an invariant certificate. The IC3 engine keeps its
/// obligations and lemmas in a packed form of its own, and its differential
/// tests use this type's set algebra as the reference. Because the literal
/// vector is kept sorted, subset tests ([`Cube::subsumes`]) are linear merges.
///
/// A cube containing both a literal and its negation is contradictory
/// ([`Cube::is_contradictory`] — the `⊥` of the paper); the empty cube is the
/// trivially true cube `⊤`.
///
/// # Example
///
/// ```
/// use plic3_logic::{Cube, Lit, Var};
/// let x = Var::new(0);
/// let y = Var::new(1);
/// let c = Cube::from_lits([Lit::pos(y), Lit::neg(x)]);
/// assert_eq!(c.len(), 2);
/// assert!(c.contains(Lit::neg(x)));
/// assert!(!c.contains(Lit::pos(x)));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// Creates the empty cube `⊤` (true under every assignment).
    pub const fn top() -> Self {
        Cube { lits: Vec::new() }
    }

    /// Creates a cube from an iterator of literals, sorting and deduplicating.
    ///
    /// Contradictory inputs (containing `l` and `¬l`) are kept as-is and can be
    /// detected with [`Cube::is_contradictory`].
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        Cube { lits }
    }

    /// Returns the literals of this cube in sorted order.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Returns the number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` if this is the empty cube `⊤`.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Returns `true` if the cube contains a literal and its negation, i.e. it is
    /// the unsatisfiable cube `⊥`.
    pub fn is_contradictory(&self) -> bool {
        self.lits
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
    }

    /// Returns `true` if `lit` occurs in the cube.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Returns `true` if some literal of the cube is over `var` (either polarity).
    pub fn mentions(&self, var: Var) -> bool {
        self.contains(Lit::pos(var)) || self.contains(Lit::neg(var))
    }

    /// Returns the polarity the cube asserts for `var`, if any.
    pub fn value_of(&self, var: Var) -> Option<bool> {
        if self.contains(Lit::pos(var)) {
            Some(true)
        } else if self.contains(Lit::neg(var)) {
            Some(false)
        } else {
            None
        }
    }

    /// Set-inclusion test: `true` iff every literal of `self` occurs in `other`.
    ///
    /// By Theorem 3.4 of the paper, for non-contradictory cubes this is exactly
    /// the semantic entailment `other ⇒ self` (the *smaller* literal set is the
    /// *weaker*, larger set of states).
    pub fn subsumes(&self, other: &Cube) -> bool {
        is_sorted_subset(&self.lits, &other.lits)
    }

    /// The diff set of Definition 3.1: the literals `l ∈ self` with `¬l ∈ other`.
    ///
    /// By Theorem 3.2, the diff set is non-empty iff `self ∧ other` is
    /// unsatisfiable (for non-contradictory cubes).
    ///
    /// # Example
    ///
    /// ```
    /// use plic3_logic::{Cube, Lit, Var};
    /// let x = Var::new(0);
    /// let y = Var::new(1);
    /// let a = Cube::from_lits([Lit::pos(x), Lit::pos(y)]);
    /// let b = Cube::from_lits([Lit::neg(x), Lit::pos(y)]);
    /// assert_eq!(a.diff(&b), Cube::from_lits([Lit::pos(x)]));
    /// // diff is not symmetric:
    /// assert_eq!(b.diff(&a), Cube::from_lits([Lit::neg(x)]));
    /// ```
    pub fn diff(&self, other: &Cube) -> Cube {
        Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|&l| other.contains(!l))
                .collect(),
        }
    }

    /// Intersection of the literal sets of two cubes.
    pub fn intersection(&self, other: &Cube) -> Cube {
        Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|&l| other.contains(l))
                .collect(),
        }
    }

    /// Returns a new cube with `lit` added (no-op if already present).
    pub fn with_lit(&self, lit: Lit) -> Cube {
        if self.contains(lit) {
            self.clone()
        } else {
            let mut lits = self.lits.clone();
            let pos = lits.binary_search(&lit).unwrap_err();
            lits.insert(pos, lit);
            Cube { lits }
        }
    }

    /// Returns a new cube with `lit` removed (no-op if absent).
    pub fn without_lit(&self, lit: Lit) -> Cube {
        Cube {
            lits: self.lits.iter().copied().filter(|&l| l != lit).collect(),
        }
    }

    /// The negation of this cube, as a clause (De Morgan).
    pub fn negate(&self) -> Clause {
        Clause::from_lits(self.lits.iter().map(|&l| !l))
    }

    /// Iterates over the literals of the cube.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Lit>> {
        self.lits.iter().copied()
    }
}

impl FromIterator<Lit> for Cube {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Cube::from_lits(iter)
    }
}

impl Extend<Lit> for Cube {
    fn extend<I: IntoIterator<Item = Lit>>(&mut self, iter: I) {
        self.lits.extend(iter);
        self.lits.sort_unstable();
        self.lits.dedup();
    }
}

impl<'a> IntoIterator for &'a Cube {
    type Item = Lit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Lit>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Cube {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊤");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// Returns `true` iff sorted slice `a` is a subset of sorted slice `b`.
pub(crate) fn is_sorted_subset(a: &[Lit], b: &[Lit]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0;
    'outer: for &la in a {
        while bi < b.len() {
            match b[bi].cmp(&la) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let c = Cube::from_lits([lit(2, true), lit(0, false), lit(2, true)]);
        assert_eq!(c.lits(), &[lit(0, false), lit(2, true)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn top_is_empty_and_not_contradictory() {
        let t = Cube::top();
        assert!(t.is_empty());
        assert!(!t.is_contradictory());
        assert_eq!(t.to_string(), "⊤");
    }

    #[test]
    fn contradiction_detection() {
        let c = Cube::from_lits([lit(1, true), lit(1, false)]);
        assert!(c.is_contradictory());
        let ok = Cube::from_lits([lit(1, true), lit(2, false)]);
        assert!(!ok.is_contradictory());
    }

    #[test]
    fn contains_and_value_of() {
        let c = Cube::from_lits([lit(1, true), lit(2, false)]);
        assert!(c.contains(lit(1, true)));
        assert!(!c.contains(lit(1, false)));
        assert_eq!(c.value_of(Var::new(1)), Some(true));
        assert_eq!(c.value_of(Var::new(2)), Some(false));
        assert_eq!(c.value_of(Var::new(3)), None);
        assert!(c.mentions(Var::new(2)));
        assert!(!c.mentions(Var::new(3)));
    }

    #[test]
    fn subsumption_is_subset_inclusion() {
        let small = Cube::from_lits([lit(1, true)]);
        let big = Cube::from_lits([lit(1, true), lit(2, false), lit(3, true)]);
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        assert!(Cube::top().subsumes(&big));
        assert!(big.subsumes(&big));
        // Same variable, different polarity is not inclusion.
        let other = Cube::from_lits([lit(1, false)]);
        assert!(!other.subsumes(&big));
    }

    #[test]
    fn diff_set_definition() {
        // Paper Definition 3.1: diff(a, b) = { l | l ∈ a ∧ ¬l ∈ b }.
        let a = Cube::from_lits([lit(0, true), lit(1, true), lit(2, false)]);
        let b = Cube::from_lits([lit(0, false), lit(1, true), lit(2, true)]);
        assert_eq!(a.diff(&b), Cube::from_lits([lit(0, true), lit(2, false)]));
        assert_eq!(b.diff(&a), Cube::from_lits([lit(0, false), lit(2, true)]));
        // Not symmetric in general; equal only by coincidence of polarities.
        assert_ne!(a.diff(&b), b.diff(&a));
    }

    #[test]
    fn diff_empty_iff_compatible_small_cases() {
        // Theorem 3.2 on a couple of concrete cases.
        let a = Cube::from_lits([lit(0, true), lit(1, false)]);
        let compatible = Cube::from_lits([lit(1, false), lit(2, true)]);
        assert!(a.diff(&compatible).is_empty());
        let incompatible = Cube::from_lits([lit(1, true)]);
        assert!(!a.diff(&incompatible).is_empty());
    }

    #[test]
    fn with_and_without_lit() {
        let c = Cube::from_lits([lit(1, true)]);
        let c2 = c.with_lit(lit(0, false));
        assert_eq!(c2.lits(), &[lit(0, false), lit(1, true)]);
        assert_eq!(c2.with_lit(lit(1, true)), c2);
        assert_eq!(c2.without_lit(lit(0, false)), c);
        assert_eq!(c.without_lit(lit(5, true)), c);
    }

    #[test]
    fn negate_gives_clause_of_negated_lits() {
        let c = Cube::from_lits([lit(0, true), lit(1, false)]);
        let cl = c.negate();
        assert_eq!(cl.lits(), &[lit(0, false), lit(1, true)]);
        // Double negation gives back the cube.
        assert_eq!(cl.negate(), c);
    }

    #[test]
    fn intersection_of_literal_sets() {
        let a = Cube::from_lits([lit(0, true), lit(1, true), lit(2, false)]);
        let b = Cube::from_lits([lit(1, true), lit(2, true)]);
        assert_eq!(a.intersection(&b), Cube::from_lits([lit(1, true)]));
    }

    #[test]
    fn iteration_and_collect() {
        let c: Cube = [lit(3, true), lit(1, false)].into_iter().collect();
        let back: Vec<Lit> = c.iter().collect();
        assert_eq!(back, vec![lit(1, false), lit(3, true)]);
    }

    #[test]
    fn extend_keeps_sorted_invariant() {
        let mut c = Cube::from_lits([lit(5, true)]);
        c.extend([lit(1, false), lit(5, true)]);
        assert_eq!(c.lits(), &[lit(1, false), lit(5, true)]);
    }

    #[test]
    fn display_joins_with_and() {
        let c = Cube::from_lits([lit(0, true), lit(1, false)]);
        assert_eq!(c.to_string(), "x0 ∧ ¬x1");
    }
}
