//! Boolean variables and fresh-variable allocation.

use std::fmt;

/// A Boolean variable, represented as a dense index.
///
/// Variables are cheap `Copy` handles; the structures that give them meaning
/// (transition systems, SAT solvers) index their internal arrays with
/// [`Var::index`].
///
/// # Example
///
/// ```
/// use plic3_logic::Var;
/// let v = Var::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(v.to_string(), "x7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given dense index.
    pub const fn new(index: u32) -> Self {
        Var(index)
    }

    /// Returns the dense index of this variable.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for Var {
    fn from(index: u32) -> Self {
        Var::new(index)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrip() {
        let v = Var::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(Var::from(42u32), v);
    }

    #[test]
    fn var_ordering_follows_index() {
        assert!(Var::new(1) < Var::new(2));
        assert!(Var::new(2) > Var::new(1));
        assert_eq!(Var::new(3), Var::new(3));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(Var::new(0).to_string(), "x0");
    }
}
