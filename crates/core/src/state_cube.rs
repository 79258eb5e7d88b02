//! The one form of every cube IC3 keeps or tests internally. [`Cube`] stays at
//! the crate boundary: solver assumptions and UNSAT cores, the lift, the
//! trace, the certificate's clauses and the debug re-checks.

use plic3_logic::{Clause, Cube, Lit, Var};

/// A cube over the latches of a transition system, held as one `(mask,
/// value)` word pair per 64 latches. Latches are the transition system's
/// variables `0..L`, so bit `v % 64` of pair `v / 64` is latch `v`: the cube
/// holds a literal over latch `v` when its mask bit is set, positive when its
/// value bit is set too. Value bits outside the mask are always clear, so the
/// derived `Eq` and `Hash` are set equality.
///
/// A *state* is packed the same way without a mask: `L.div_ceil(64)` words,
/// bit `v` the value of latch `v`. Set operations against a state
/// ([`StateCube::contains_state`], [`StateCube::join`], [`StateCube::diff`])
/// cost one word operation per word.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct StateCube(Box<[(u64, u64)]>);

/// The word of latch `v` and its bit in that word.
fn position(lit: Lit) -> (usize, u64) {
    let v = lit.var().index();
    (v / 64, 1 << (v % 64))
}

impl StateCube {
    /// The cube of `lits`, all over latches below `latches`. Of two opposite
    /// literals, the later one stays.
    pub(crate) fn from_lits(lits: impl IntoIterator<Item = Lit>, latches: usize) -> Self {
        let mut c = StateCube(vec![(0, 0); latches.div_ceil(64)].into());
        for l in lits {
            c.insert(l);
        }
        c
    }

    /// The full state packed in `state`, as a cube over all `latches`
    /// latches.
    pub(crate) fn state(state: &[u64], latches: usize) -> Self {
        // The low `latches - 64·w` bits of word `w`, at most all 64.
        let mask = |w: usize| u64::MAX >> (64 * (w + 1)).saturating_sub(latches);
        let pairs = state
            .iter()
            .enumerate()
            .map(|(w, &s)| (mask(w), s & mask(w)));
        StateCube(pairs.collect())
    }

    /// The number of literals.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|&(m, _)| m.count_ones() as usize).sum()
    }

    /// Whether this is the empty cube `⊤`.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|&(m, _)| m == 0)
    }

    /// Whether `lit` occurs in the cube.
    pub(crate) fn contains(&self, lit: Lit) -> bool {
        let (w, bit) = position(lit);
        let (m, v) = self.0[w];
        m & bit != 0 && (v & bit != 0) == lit.is_pos()
    }

    /// Adds `lit`, replacing a literal of the other polarity.
    pub(crate) fn insert(&mut self, lit: Lit) {
        let (w, bit) = position(lit);
        let (m, v) = &mut self.0[w];
        *m |= bit;
        *v = (*v & !bit) | (bit * u64::from(lit.is_pos()));
    }

    /// Removes the literal over `lit`'s latch, if any.
    pub(crate) fn remove(&mut self, lit: Lit) {
        let (w, bit) = position(lit);
        let (m, v) = &mut self.0[w];
        *m &= !bit;
        *v &= !bit;
    }

    /// The literals in ascending latch order, the order of [`Cube::iter`].
    pub(crate) fn iter(&self) -> impl Iterator<Item = Lit> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &(m, v))| {
            let mut rest = m;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    Lit::new(Var::new(64 * w as u32 + b), v >> b & 1 == 1)
                })
            })
        })
    }

    /// The same literals as a [`Cube`].
    pub(crate) fn to_cube(&self) -> Cube {
        Cube::from_lits(self.iter())
    }

    /// The negation of the cube: its lemma, as a clause.
    pub(crate) fn negate(&self) -> Clause {
        Clause::from_lits(self.iter().map(|l| !l))
    }

    /// Whether every literal of `self` occurs in `other`, i.e. `other ⇒
    /// self`.
    pub(crate) fn subsumes(&self, other: &StateCube) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(&(am, av), &(bm, bv))| am & !bm == 0 && (av ^ bv) & am == 0)
    }

    /// Whether some state lies in both cubes: no latch has opposite literals
    /// in them.
    pub(crate) fn intersects(&self, other: &StateCube) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(&(am, av), &(bm, bv))| (av ^ bv) & am & bm == 0)
    }

    /// Whether the packed state lies in the cube.
    pub(crate) fn contains_state(&self, state: &[u64]) -> bool {
        debug_assert_eq!(self.0.len(), state.len());
        self.0.iter().zip(state).all(|(&(m, v), &s)| s & m == v)
    }

    /// The literals that hold in the packed state `s`: the join `self ∩ s`
    /// of `down`.
    pub(crate) fn join(&self, s: &[u64]) -> StateCube {
        self.filter(s, |v, s| !(v ^ s))
    }

    /// The literals whose negation holds in the packed state `t`: the diff
    /// set `diff(self, t)` of Definition 3.1.
    pub(crate) fn diff(&self, t: &[u64]) -> StateCube {
        self.filter(t, |v, t| v ^ t)
    }

    /// The literals whose bits `keep(value, state)` sets, per word.
    fn filter(&self, state: &[u64], keep: impl Fn(u64, u64) -> u64) -> StateCube {
        debug_assert_eq!(self.0.len(), state.len());
        let pairs = self.0.iter().zip(state).map(|(&(m, v), &s)| {
            let m = m & keep(v, s);
            (m, v & m)
        });
        StateCube(pairs.collect())
    }

    /// Bytes the cube takes: its word pairs plus the box's pointer and length.
    pub(crate) fn bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.0)) as u64
    }
}
