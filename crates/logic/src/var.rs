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

/// A monotone source of fresh [`Var`]s.
///
/// Used by the Tseitin encoder and by the IC3 engine when it needs activation
/// literals. Allocation never reuses an index.
///
/// # Example
///
/// ```
/// use plic3_logic::VarAllocator;
/// let mut alloc = VarAllocator::new();
/// let a = alloc.fresh();
/// let b = alloc.fresh();
/// assert_ne!(a, b);
/// assert_eq!(alloc.num_vars(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarAllocator {
    next: u32,
}

impl VarAllocator {
    /// Creates an allocator whose first fresh variable has index `0`.
    pub const fn new() -> Self {
        VarAllocator { next: 0 }
    }

    /// Creates an allocator whose first fresh variable has index `first`.
    ///
    /// Useful when a block of low indices is reserved (e.g. for state variables).
    pub const fn starting_at(first: u32) -> Self {
        VarAllocator { next: first }
    }

    /// Returns a variable that has never been returned before.
    pub fn fresh(&mut self) -> Var {
        let v = Var::new(self.next);
        self.next += 1;
        v
    }

    /// Returns the number of variables allocated so far (i.e. the next free index).
    pub const fn num_vars(&self) -> usize {
        self.next as usize
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
    fn allocator_is_monotone() {
        let mut a = VarAllocator::new();
        let mut last = None;
        for _ in 0..100 {
            let v = a.fresh();
            if let Some(prev) = last {
                assert!(v > prev);
            }
            last = Some(v);
        }
        assert_eq!(a.num_vars(), 100);
    }

    #[test]
    fn allocator_starting_at_skips_reserved_block() {
        let mut a = VarAllocator::starting_at(10);
        assert_eq!(a.fresh(), Var::new(10));
        assert_eq!(a.fresh(), Var::new(11));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(Var::new(0).to_string(), "x0");
    }
}
