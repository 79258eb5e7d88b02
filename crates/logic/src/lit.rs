//! Literals: a variable or its negation.

use crate::Var;
use std::fmt;
use std::ops::Not;

/// A literal, i.e. a [`Var`] with a polarity.
///
/// Internally encoded as `2 * var + sign` (the AIGER / MiniSat convention), so
/// that literals can be used directly as dense indices into watch lists.
///
/// # Example
///
/// ```
/// use plic3_logic::{Lit, Var};
/// let x = Var::new(3);
/// let l = Lit::pos(x);
/// assert_eq!(!l, Lit::neg(x));
/// assert_eq!((!l).var(), x);
/// assert!(l.is_pos());
/// assert!((!l).is_neg());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    pub const fn pos(var: Var) -> Self {
        Lit(var.raw() << 1)
    }

    /// Creates the negative literal of `var`.
    pub const fn neg(var: Var) -> Self {
        Lit((var.raw() << 1) | 1)
    }

    /// Creates a literal from a variable and a polarity (`true` = positive).
    pub const fn new(var: Var, positive: bool) -> Self {
        if positive {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// Creates a literal from its dense code (`2 * var + sign`).
    pub const fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// Returns the dense code of this literal (`2 * var + sign`).
    pub const fn code(self) -> usize {
        self.0 as usize
    }

    /// Returns the variable of this literal.
    pub const fn var(self) -> Var {
        Var::new(self.0 >> 1)
    }

    /// Returns `true` if this literal is the positive occurrence of its variable.
    pub const fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns `true` if this literal is the negative occurrence of its variable.
    pub const fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the truth value this literal asserts for its variable
    /// (`true` for a positive literal, `false` for a negative one).
    pub const fn asserted_value(self) -> bool {
        self.is_pos()
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬")?;
        }
        write!(f, "{}", self.var())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_and_var() {
        let v = Var::new(5);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert!(p.is_pos() && !p.is_neg());
        assert!(n.is_neg() && !n.is_pos());
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.asserted_value());
        assert!(!n.asserted_value());
    }

    #[test]
    fn negation_is_involutive() {
        let l = Lit::neg(Var::new(9));
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn code_roundtrip() {
        for code in 0..50u32 {
            let l = Lit::from_code(code);
            assert_eq!(l.code(), code as usize);
        }
        assert_eq!(Lit::pos(Var::new(3)).code(), 6);
        assert_eq!(Lit::neg(Var::new(3)).code(), 7);
    }

    #[test]
    fn display_marks_negative() {
        assert_eq!(Lit::pos(Var::new(1)).to_string(), "x1");
        assert_eq!(Lit::neg(Var::new(1)).to_string(), "¬x1");
    }

    #[test]
    fn ordering_groups_by_variable() {
        // Positive literal sorts immediately before the negative literal of the
        // same variable, and both sort before any literal of a larger variable.
        let v1 = Var::new(1);
        let v2 = Var::new(2);
        assert!(Lit::pos(v1) < Lit::neg(v1));
        assert!(Lit::neg(v1) < Lit::pos(v2));
    }
}
