//! The CTI cache: SAT answers of relative-induction queries, kept per frame
//! and reused as answers to later queries.
//!
//! A counterexample to induction (CTI) of `sat(F_i ∧ ¬c ∧ T ∧ c′)` is a
//! transition `(s, x, t)` of the circuit with `s ∈ F_i`. It answers any later
//! query `sat(F_i ∧ ¬d ∧ T ∧ d′)` whose cube `d` contains `t` and not `s`, as
//! long as `s` is still in `F_i`. Frames only shrink, so that last condition
//! needs only the lemmas that entered `F_i` since it was last confirmed
//! ([`Frames::blocked_since`]).

use crate::engine::SolveRelative;
use crate::frames::Frames;
use plic3_logic::{Cube, Lit, Var};
use plic3_sat::{ModelView, ResourceBudget};
use plic3_ts::TransitionSystem;

/// Transitions kept per frame level. Median perfbench `solve_s` over three
/// runs each on a two-core x86-64 VM: `gen-paired` 0.074 s at 64, 0.061 s at
/// 128 and 0.057 s at 256; `wide-safe` 0.117 s, 0.106 s and 0.110 s (within
/// its run-to-run spread). A slot costs one word for its clock plus one bit
/// per latch, input and primed latch.
const CAPACITY: usize = 256;

fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// A cube as per-word `(mask, value)` pairs over the bit positions of a
/// packed model, so testing a model against it costs one word operation per
/// 64 variables.
struct PackedCube {
    mask: Vec<u64>,
    value: Vec<u64>,
}

impl PackedCube {
    fn new(words: usize) -> Self {
        PackedCube {
            mask: vec![0; words],
            value: vec![0; words],
        }
    }

    /// Replaces the cube by the `(bit position, asserted value)` pairs.
    fn load(&mut self, lits: impl Iterator<Item = (usize, bool)>) {
        self.mask.fill(0);
        self.value.fill(0);
        for (i, positive) in lits {
            self.mask[i / 64] |= 1 << (i % 64);
            self.value[i / 64] |= u64::from(positive) << (i % 64);
        }
    }

    /// Whether the packed model lies in the cube.
    fn contains(&self, model: &[u64]) -> bool {
        model
            .iter()
            .zip(&self.mask)
            .zip(&self.value)
            .all(|((w, m), v)| w & m == *v)
    }
}

/// Packs CTIs into, and finds them in, the slot vector of a frame level
/// ([`crate::frames::Level::ctis`]), up to [`CAPACITY`] per level `≥ 1`.
///
/// A transition `(s, x, t)` is stored as its frame solver's model restricted
/// to the transition system's first `2·latches + inputs` variables (latches,
/// inputs, then the primed latches), one bit per variable, preceded by the
/// frame clock at which `s` was last confirmed to lie in the frame. A level's
/// slots hold its transitions least recently recorded or returned first,
/// `1 + words` words each.
pub(crate) struct CtiCache {
    /// Words per packed model.
    words: usize,
    /// Scratch: the query cube over the current-state bits (tests `s`) and
    /// over the next-state bits (tests `t`).
    state: PackedCube,
    next: PackedCube,
    /// Memory budget charged for every stored transition.
    budget: ResourceBudget,
}

impl CtiCache {
    pub(crate) fn new(ts: &TransitionSystem, budget: ResourceBudget) -> Self {
        let words = (2 * ts.num_latches() + ts.num_inputs()).div_ceil(64);
        CtiCache {
            words,
            state: PackedCube::new(words),
            next: PackedCube::new(words),
            budget,
        }
    }

    /// Bytes one stored transition takes.
    fn slot_bytes(&self) -> u64 {
        (8 * (1 + self.words)) as u64
    }

    /// Records into a level's `slots` the SAT model of a relative query at
    /// that level, whose predecessor lies in the frame at frame clock `clock`.
    pub(crate) fn record(
        &mut self,
        ts: &TransitionSystem,
        slots: &mut Vec<u64>,
        clock: u64,
        model: ModelView<'_>,
    ) {
        let stride = 1 + self.words;
        if slots.len() == CAPACITY * stride {
            slots.drain(..stride);
        } else {
            self.budget.charge(self.slot_bytes());
        }
        let start = slots.len();
        slots.resize(start + stride, 0);
        slots[start] = clock;
        let packed = &mut slots[start + 1..];
        for v in 0..2 * ts.num_latches() + ts.num_inputs() {
            if model.value(Var::new(v as u32)) == Some(true) {
                packed[v / 64] |= 1 << (v % 64);
            }
        }
    }

    /// A recorded model of `sat(F_level ∧ ¬cube ∧ T ∧ cube′)` (without the
    /// `¬cube` conjunct unless `outside_cube`), most recently recorded or
    /// returned first. Drops every transition it meets whose predecessor a
    /// lemma has since excluded.
    pub(crate) fn lookup(
        &mut self,
        ts: &TransitionSystem,
        frames: &mut Frames,
        cube: &Cube,
        level: usize,
        outside_cube: bool,
    ) -> Option<SolveRelative> {
        let lits = cube.iter().map(|l| (l.var().index(), l.is_pos()));
        self.state.load(lits.clone());
        self.next
            .load(lits.map(|(i, positive)| (ts.primed_var(i).index(), positive)));
        // The scan edits the level's slots while it reads the level's lemmas.
        let mut slots = std::mem::take(&mut frames[level].ctis);
        let stride = 1 + self.words;
        let mut answer = None;
        let mut end = slots.len();
        while end > 0 {
            let start = end - stride;
            end = start;
            let packed = &slots[start + 1..start + stride];
            if !self.next.contains(packed) || (outside_cube && self.state.contains(packed)) {
                continue;
            }
            let s_holds = |l: Lit| bit(packed, l.var().index()) == l.is_pos();
            if frames.blocked_since(level, slots[start], s_holds) {
                slots.drain(start..start + stride);
                self.budget.uncharge(self.slot_bytes());
                continue;
            }
            slots[start] = frames.clock();
            // The answer becomes the most recent one: eviction drops the
            // transitions that have gone longest without answering a query.
            slots[start..].rotate_left(stride);
            let start = slots.len() - stride;
            let packed = &slots[start + 1..start + stride];
            let value = |v: Var| Some(bit(packed, v.index()));
            answer = Some(SolveRelative::Cti {
                predecessor: ts.state_cube_from(value),
                inputs: ts.input_cube_from(value),
                successor: ts.next_state_cube_from(value),
            });
            break;
        }
        frames[level].ctis = slots;
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;
    use plic3_sat::{SatResult, Solver};

    #[test]
    fn stored_transitions_are_charged_to_the_budget() {
        // One latch that loads a free input each step.
        let mut b = AigBuilder::new();
        let input = b.input();
        let latch = b.latch(Some(false));
        b.set_latch_next(latch, input);
        b.add_bad(latch);
        let ts = TransitionSystem::from_aig(&b.build());
        let mut solver = Solver::new();
        solver.ensure_vars(ts.num_vars());
        for clause in ts.trans() {
            solver.add_clause_ref(clause);
        }
        assert_eq!(solver.solve(&[]), SatResult::Sat);
        let budget = ResourceBudget::unlimited();
        let mut cache = CtiCache::new(&ts, budget.clone());
        let mut frames = Frames::new(ResourceBudget::unlimited());
        frames.push_frame(Solver::new());
        frames.push_frame(Solver::new());
        cache.record(&ts, &mut frames[1].ctis, 0, solver.model());
        assert_eq!(budget.used(), cache.slot_bytes());
        // A lemma excluding the recorded predecessor drops the transition
        // and releases its bytes.
        let model = solver.model();
        let s = ts.state_cube_from(|v| model.value(v));
        let t = ts.next_state_cube_from(|v| model.value(v));
        frames.add(s, 1);
        assert!(cache.lookup(&ts, &mut frames, &t, 1, false).is_none());
        assert!(frames[1].ctis.is_empty());
        assert_eq!(budget.used(), 0);
    }
}
