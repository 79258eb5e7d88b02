//! Flat clause arena: contiguous `u32` storage for every clause in the solver.
//!
//! Each clause is a header of [`HEADER_WORDS`] `u32` words followed by its
//! literal codes, all living inline in one `Vec<u32>` bump arena:
//!
//! ```text
//! word 0   len << 2 | deleted << 1 | relocated
//! word 1   LBD (literal block distance), or forwarding ClauseRef when relocated
//! word 2.. literal codes (2 * var + sign), `len` of them
//! ```
//!
//! A [`ClauseRef`] is the offset of word 0. Deleting a clause only sets a flag
//! and counts the words as wasted; [`ClauseArena::garbage_collect`] compacts
//! the storage and hands back a relocation oracle so the solver can patch
//! every stored reference (watch lists, reasons, clause lists).

use crate::solver::clone_at_capacity;
use plic3_logic::Lit;

/// Reference to a clause: the arena offset of its header word.
pub(crate) type ClauseRef = u32;

/// Number of header words preceding the literals of a clause.
pub(crate) const HEADER_WORDS: u32 = 2;

const DELETED_FLAG: u32 = 1 << 1;
const RELOCATED_FLAG: u32 = 1;
const LEN_SHIFT: u32 = 2;

/// The bump arena holding every clause of a solver.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses (headers included).
    wasted: usize,
}

/// Copies the arena at its capacity, so a copy is charged what the original
/// is and grows when the original would.
impl Clone for ClauseArena {
    fn clone(&self) -> Self {
        ClauseArena {
            data: clone_at_capacity(&self.data),
            wasted: self.wasted,
        }
    }
}

impl ClauseArena {
    pub(crate) fn new() -> Self {
        ClauseArena::default()
    }

    fn with_capacity(words: usize) -> Self {
        ClauseArena {
            data: Vec::with_capacity(words),
            wasted: 0,
        }
    }

    /// Total words currently in use (including wasted ones).
    pub(crate) fn words(&self) -> usize {
        self.data.len()
    }

    /// Bytes of backing storage currently reserved (capacity, not length):
    /// what the solver charges against its [`crate::ResourceBudget`].
    pub(crate) fn capacity_bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Words occupied by deleted clauses, reclaimable by a collection.
    pub(crate) fn wasted(&self) -> usize {
        self.wasted
    }

    /// Appends a clause and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit]) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "arena clauses have at least two literals");
        let cref = self.data.len() as ClauseRef;
        self.data.push((lits.len() as u32) << LEN_SHIFT);
        self.data.push(0); // LBD; the solver stamps learnt clauses after analyze
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        cref
    }

    #[inline]
    pub(crate) fn len(&self, cref: ClauseRef) -> usize {
        (self.data[cref as usize] >> LEN_SHIFT) as usize
    }

    /// Length and deleted flag from a single header read (the propagation
    /// loop's one-touch probe).
    #[inline]
    pub(crate) fn len_and_deleted(&self, cref: ClauseRef) -> (usize, bool) {
        let header = self.data[cref as usize];
        ((header >> LEN_SHIFT) as usize, header & DELETED_FLAG != 0)
    }

    #[inline]
    pub(crate) fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.data[cref as usize] & DELETED_FLAG != 0
    }

    /// Marks the clause deleted; the storage is reclaimed by the next
    /// [`ClauseArena::garbage_collect`]. Watchers pointing at it are dropped
    /// lazily when propagation next visits them.
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        self.data[cref as usize] |= DELETED_FLAG;
        self.wasted += HEADER_WORDS as usize + self.len(cref);
    }

    #[inline]
    pub(crate) fn lit(&self, cref: ClauseRef, i: usize) -> Lit {
        debug_assert!(i < self.len(cref));
        Lit::from_code(self.data[cref as usize + HEADER_WORDS as usize + i])
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, cref: ClauseRef, i: usize, j: usize) {
        debug_assert!(i < self.len(cref) && j < self.len(cref));
        let base = cref as usize + HEADER_WORDS as usize;
        self.data.swap(base + i, base + j);
    }

    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        self.data[cref as usize + 1]
    }

    pub(crate) fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        self.data[cref as usize + 1] = lbd;
    }

    /// Compacts the arena, dropping deleted clauses. Returns the new arena
    /// paired with a relocation table usable through [`Relocation::map`]; the
    /// old arena (self) is consumed as the table's backing store.
    pub(crate) fn garbage_collect(mut self) -> (ClauseArena, Relocation) {
        let mut to = ClauseArena::with_capacity(self.data.len() - self.wasted);
        let mut from = 0usize;
        while from < self.data.len() {
            let header = self.data[from];
            let len = (header >> LEN_SHIFT) as usize;
            let words = HEADER_WORDS as usize + len;
            if header & DELETED_FLAG == 0 {
                let new_ref = to.data.len() as ClauseRef;
                to.data.extend_from_slice(&self.data[from..from + words]);
                // Leave a forwarding pointer in the old header.
                self.data[from] |= RELOCATED_FLAG;
                self.data[from + 1] = new_ref;
            }
            from += words;
        }
        (to, Relocation { old: self })
    }
}

/// Relocation oracle produced by [`ClauseArena::garbage_collect`].
pub(crate) struct Relocation {
    old: ClauseArena,
}

impl Relocation {
    /// Maps a pre-collection reference to its post-collection location.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the clause was deleted rather than moved.
    pub(crate) fn map(&self, cref: ClauseRef) -> ClauseRef {
        let header = self.old.data[cref as usize];
        debug_assert!(
            header & RELOCATED_FLAG != 0,
            "relocating a deleted clause reference"
        );
        self.old.data[cref as usize + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_roundtrips_literals_and_flags() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&lits(&[0, 3, 4]));
        let b = arena.alloc(&lits(&[5, 7]));
        assert_eq!(arena.len(a), 3);
        assert_eq!(arena.len(b), 2);
        assert_eq!(arena.len_and_deleted(b), (2, false));
        assert_eq!(arena.lit(a, 1), Lit::from_code(3));
        assert_eq!(arena.lit(b, 0), Lit::from_code(5));
        arena.swap_lits(a, 0, 2);
        assert_eq!(arena.lit(a, 0), Lit::from_code(4));
        assert_eq!(arena.lit(a, 2), Lit::from_code(0));
    }

    #[test]
    fn lbd_is_stored_inline() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&lits(&[0, 2]));
        assert_eq!(arena.lbd(c), 0);
        arena.set_lbd(c, 7);
        assert_eq!(arena.lbd(c), 7);
        assert_eq!(
            arena.lit(c, 1),
            Lit::from_code(2),
            "the LBD word is not a literal"
        );
    }

    #[test]
    fn delete_tracks_wasted_words() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&lits(&[0, 2, 4]));
        let _b = arena.alloc(&lits(&[1, 3]));
        assert_eq!(arena.wasted(), 0);
        arena.delete(a);
        assert!(arena.is_deleted(a));
        assert_eq!(arena.wasted(), HEADER_WORDS as usize + 3);
    }

    #[test]
    fn garbage_collect_compacts_and_forwards() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&lits(&[0, 2, 4]));
        let b = arena.alloc(&lits(&[1, 3]));
        let c = arena.alloc(&lits(&[6, 8]));
        arena.set_lbd(b, 5);
        arena.delete(a);
        let (compact, reloc) = arena.garbage_collect();
        let nb = reloc.map(b);
        let nc = reloc.map(c);
        assert_eq!(compact.wasted(), 0);
        assert_eq!(
            compact.words(),
            2 * (HEADER_WORDS as usize + 2),
            "only b and c survive"
        );
        assert_eq!(compact.lbd(nb), 5, "the LBD survives the move");
        assert_eq!(compact.lit(nb, 1), Lit::from_code(3));
        assert_eq!(compact.lit(nc, 0), Lit::from_code(6));
    }
}
