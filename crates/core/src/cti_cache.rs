//! The CTI cache: SAT answers of relative-induction queries, kept per frame
//! and reused as answers to later queries.
//!
//! A counterexample to induction (CTI) of `sat(F_i ∧ ¬c ∧ T ∧ c′)` is a
//! transition `(s, x, t)` of the circuit with `s ∈ F_i`. It answers any later
//! query `sat(F_i ∧ ¬d ∧ T ∧ d′)` whose cube `d` contains `t` and not `s`, as
//! long as `s` is still in `F_i`. Frames only shrink, so that last condition
//! needs only the lemmas that entered `F_i` since it was last confirmed
//! ([`Frames::blocked_since`]).
//!
//! Every SAT answer of a relative query, from the solver or from the cache,
//! is one packed [`Transition`].

use crate::frames::Frames;
use plic3_logic::{Cube, Lit, Var};
use plic3_sat::ResourceBudget;
use plic3_ts::TransitionSystem;

/// Transitions kept per frame level. Median perfbench `solve_s` over three
/// runs each on a two-core x86-64 VM: `gen-paired` 0.074 s at 64, 0.061 s at
/// 128 and 0.057 s at 256; `wide-safe` 0.117 s, 0.106 s and 0.110 s (within
/// its run-to-run spread). A slot costs one word for its clock plus one bit
/// per latch, input and primed latch.
const CAPACITY: usize = 256;

/// Bit `i` of a packed bit vector.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// A transition `(s, x, t)` packed one bit per variable of the transition
/// system's first `2·latches + inputs` variables: the latches (`s`), the
/// inputs (`x`), then the primed latches (`t`). This is the form of every SAT
/// answer to a relative query; a cube is built from it only where a caller
/// reads one.
#[derive(Clone, Copy)]
pub(crate) struct Transition<'a>(&'a [u64]);

impl<'a> Transition<'a> {
    /// The transition packed in `words`.
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Transition(words)
    }

    /// The packed words.
    pub(crate) fn words(self) -> &'a [u64] {
        self.0
    }

    /// Whether the literal, over a latch or an input, holds in `(s, x)`.
    fn holds(self, l: Lit) -> bool {
        bit(self.0, l.var().index()) == l.is_pos()
    }

    /// The predecessor `s` as a full cube over the latches.
    pub(crate) fn predecessor(self, ts: &TransitionSystem) -> Cube {
        ts.state_cube_from(|v| Some(bit(self.0, v.index())))
    }

    /// The input valuation `x` as a cube over the inputs.
    pub(crate) fn inputs(self, ts: &TransitionSystem) -> Cube {
        ts.input_cube_from(|v| Some(bit(self.0, v.index())))
    }

    /// The successor `t` as a full cube over the latches.
    pub(crate) fn successor(self, ts: &TransitionSystem) -> Cube {
        ts.next_state_cube_from(|v| Some(bit(self.0, v.index())))
    }

    /// `cube ∩ s`: the literals of `cube` that hold in the predecessor.
    pub(crate) fn join(self, cube: &Cube) -> Cube {
        filter(cube, |l| self.holds(l))
    }

    /// Whether the predecessor lies outside the initial states, i.e. whether
    /// its full cube excludes them.
    pub(crate) fn predecessor_excludes_init(self, ts: &TransitionSystem) -> bool {
        ts.init_cube().iter().any(|l| !self.holds(l))
    }

    /// Whether the literal, over a latch, holds in the successor `t`.
    pub(crate) fn successor_holds(self, ts: &TransitionSystem, l: Lit) -> bool {
        bit(self.0, ts.prime_lit(l).var().index()) == l.is_pos()
    }

    /// The diff set `diff(b, t)` of Definition 3.1: the literals of `b` whose
    /// negation holds in the successor.
    pub(crate) fn successor_diff(self, ts: &TransitionSystem, b: &Cube) -> Cube {
        filter(b, |l| !self.successor_holds(ts, l))
    }
}

/// The literals of `cube` that `keep` accepts, in one allocation.
fn filter(cube: &Cube, mut keep: impl FnMut(Lit) -> bool) -> Cube {
    let mut lits = Vec::with_capacity(cube.len());
    lits.extend(cube.iter().filter(|&l| keep(l)));
    Cube::from_lits(lits)
}

/// A cube as `(word, mask, value)` triples over the words of a packed
/// transition it touches, so testing a transition against it costs one word
/// operation per touched word.
#[derive(Default)]
struct PackedCube {
    terms: Vec<(usize, u64, u64)>,
}

impl PackedCube {
    /// Replaces the cube by the `(bit position, asserted value)` pairs.
    fn load(&mut self, lits: impl Iterator<Item = (usize, bool)>) {
        self.terms.clear();
        for (i, positive) in lits {
            let (w, m) = (i / 64, 1 << (i % 64));
            let v = if positive { m } else { 0 };
            match self.terms.last_mut() {
                Some(term) if term.0 == w => {
                    term.1 |= m;
                    term.2 |= v;
                }
                _ => self.terms.push((w, m, v)),
            }
        }
    }

    /// Whether the packed transition lies in the cube.
    fn contains(&self, packed: &[u64]) -> bool {
        self.terms.iter().all(|&(w, m, v)| packed[w] & m == v)
    }
}

/// Holds the packed answer of the last relative query that had a model, and
/// packs CTIs into, and finds them in, the slot vector of a frame level
/// ([`crate::frames::Level::ctis`]), up to [`CAPACITY`] per level `≥ 1`.
///
/// A level's slots hold its transitions ([`Transition`]) least recently
/// recorded or returned first, `1 + words` words each: the frame clock at
/// which `s` was last confirmed to lie in the frame, then the packed words.
pub(crate) struct CtiCache {
    /// Packed bits per transition: `2·latches + inputs`.
    bits: usize,
    /// Words per packed transition.
    words: usize,
    /// The answer of the last relative query that had a model: packed from
    /// the frame solver's model, or copied from the slot that answered it.
    answer: Vec<u64>,
    /// Scratch: the query cube over the current-state bits (tests `s`) and
    /// over the next-state bits (tests `t`).
    state: PackedCube,
    next: PackedCube,
    /// Memory budget charged for every stored transition.
    budget: ResourceBudget,
}

impl CtiCache {
    pub(crate) fn new(ts: &TransitionSystem, budget: ResourceBudget) -> Self {
        let bits = 2 * ts.num_latches() + ts.num_inputs();
        let words = bits.div_ceil(64);
        CtiCache {
            bits,
            words,
            answer: vec![0; words],
            state: PackedCube::default(),
            next: PackedCube::default(),
            budget,
        }
    }

    /// Bytes one stored transition takes.
    fn slot_bytes(&self) -> u64 {
        (8 * (1 + self.words)) as u64
    }

    /// The answer of the last relative query that had a model. The next
    /// query that has one replaces it.
    pub(crate) fn answer(&self) -> Transition<'_> {
        Transition(&self.answer)
    }

    /// Makes the transition `value` assigns (a total model of `T`, read as
    /// false where it assigns nothing) the answer.
    pub(crate) fn pack(&mut self, value: impl Fn(Var) -> Option<bool>) {
        self.answer.fill(0);
        for v in 0..self.bits {
            if value(Var::new(v as u32)) == Some(true) {
                self.answer[v / 64] |= 1 << (v % 64);
            }
        }
    }

    /// Records the answer into a level's `slots`, as a transition whose
    /// predecessor lies in the level's frame at frame clock `clock`.
    pub(crate) fn record(&mut self, slots: &mut Vec<u64>, clock: u64) {
        let stride = 1 + self.words;
        if slots.len() == CAPACITY * stride {
            slots.drain(..stride);
        } else {
            self.budget.charge(self.slot_bytes());
        }
        slots.push(clock);
        slots.extend_from_slice(&self.answer);
    }

    /// Looks for a recorded model of `sat(F_level ∧ ¬cube ∧ T ∧ cube′)`
    /// (without the `¬cube` conjunct unless `outside_cube`), most recently
    /// recorded or returned first, and makes it the answer. Drops every
    /// transition it meets whose predecessor a lemma has since excluded.
    pub(crate) fn lookup(
        &mut self,
        ts: &TransitionSystem,
        frames: &mut Frames,
        cube: &Cube,
        level: usize,
        outside_cube: bool,
    ) -> bool {
        let lits = cube.iter().map(|l| (l.var().index(), l.is_pos()));
        self.state.load(lits.clone());
        self.next
            .load(lits.map(|(i, positive)| (ts.primed_var(i).index(), positive)));
        // The scan edits the level's slots while it reads the level's lemmas.
        let mut slots = std::mem::take(&mut frames[level].ctis);
        let stride = 1 + self.words;
        let mut found = false;
        let mut end = slots.len();
        while let Some(k) = slots[..end].chunks_exact(stride).rposition(|slot| {
            let packed = &slot[1..];
            self.next.contains(packed) && !(outside_cube && self.state.contains(packed))
        }) {
            let start = k * stride;
            end = start;
            // The predecessor's bits come first in a packed transition.
            if frames.blocked_since(level, slots[start], &slots[start + 1..start + stride]) {
                slots.drain(start..start + stride);
                self.budget.uncharge(self.slot_bytes());
                continue;
            }
            slots[start] = frames.clock();
            // The answer becomes the most recent one: eviction drops the
            // transitions that have gone longest without answering a query.
            slots[start..].rotate_left(stride);
            self.answer
                .copy_from_slice(&slots[slots.len() - self.words..]);
            found = true;
            break;
        }
        frames[level].ctis = slots;
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;
    use plic3_logic::SplitMix64;
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
        let model = solver.model();
        cache.pack(|v| model.value(v));
        cache.record(&mut frames[1].ctis, 0);
        assert_eq!(budget.used(), cache.slot_bytes());
        // A lemma excluding the recorded predecessor drops the transition
        // and releases its bytes.
        let s = ts.state_cube_from(|v| model.value(v));
        let t = ts.next_state_cube_from(|v| model.value(v));
        frames.add(s, 1);
        assert!(!cache.lookup(&ts, &mut frames, &t, 1, false));
        assert!(frames[1].ctis.is_empty());
        assert_eq!(budget.used(), 0);
    }

    /// A small random circuit: up to 70 latches (so `2·latches + inputs`
    /// spans one to three words) with random reset values, some of them
    /// uninitialized, and up to 4 inputs.
    fn random_ts(rng: &mut SplitMix64) -> TransitionSystem {
        let mut b = AigBuilder::new();
        let inputs: Vec<_> = (0..rng.below(5)).map(|_| b.input()).collect();
        let latches: Vec<_> = (0..rng.range(1, 71))
            .map(|_| b.latch([None, Some(false), Some(true)][rng.below(3) as usize]))
            .collect();
        for (i, &l) in latches.iter().enumerate() {
            let prev = latches[(i + latches.len() - 1) % latches.len()];
            let next = match inputs.first() {
                Some(&x) if rng.bool() => b.xor(prev, x),
                _ => prev,
            };
            b.set_latch_next(l, next);
        }
        b.add_bad(latches[0]);
        TransitionSystem::from_aig(&b.build())
    }

    /// A random cube over the latches, each one left out or taken with a
    /// random polarity.
    fn random_cube(ts: &TransitionSystem, rng: &mut SplitMix64) -> Cube {
        let mut lits = Vec::new();
        for v in ts.latch_vars() {
            if rng.below(3) == 0 {
                lits.push(Lit::new(v, rng.bool()));
            }
        }
        Cube::from_lits(lits)
    }

    /// Over random total models of random circuits, the packed transition
    /// yields the cubes the model projections build, and its bit-level
    /// join, initiation test and diff set equal the cube operations on them.
    #[test]
    fn packed_transitions_agree_with_cubes() {
        for seed in 0..60 {
            let mut rng = SplitMix64::new(seed);
            let ts = random_ts(&mut rng);
            let mut cache = CtiCache::new(&ts, ResourceBudget::unlimited());
            for _ in 0..20 {
                let values: Vec<bool> = (0..ts.num_vars()).map(|_| rng.bool()).collect();
                let model = |v: Var| Some(values[v.index()]);
                cache.pack(model);
                let t = cache.answer();
                let s_cube = ts.state_cube_from(model);
                let t_cube = ts.next_state_cube_from(model);
                assert_eq!(t.predecessor(&ts), s_cube, "seed {seed}");
                assert_eq!(t.inputs(&ts), ts.input_cube_from(model), "seed {seed}");
                assert_eq!(t.successor(&ts), t_cube, "seed {seed}");
                assert_eq!(
                    t.predecessor_excludes_init(&ts),
                    ts.cube_excludes_init(&s_cube),
                    "seed {seed}"
                );
                let cube = random_cube(&ts, &mut rng);
                assert_eq!(t.join(&cube), cube.intersection(&s_cube), "seed {seed}");
                assert_eq!(
                    t.successor_diff(&ts, &cube),
                    cube.diff(&t_cube),
                    "seed {seed}"
                );
                for l in cube.iter() {
                    assert_eq!(t.successor_holds(&ts, l), t_cube.contains(l), "seed {seed}");
                }
            }
        }
    }

    /// With no lemma in the frame, a lookup returns the most recently
    /// recorded or returned transition `(s, x, t)` with `t ∈ cube` (and
    /// `s ∉ cube` when asked), as a scan of the cubes finds it.
    #[test]
    fn lookup_agrees_with_a_scan_of_the_cubes() {
        for seed in 0..30 {
            let mut rng = SplitMix64::new(seed);
            let ts = random_ts(&mut rng);
            let mut cache = CtiCache::new(&ts, ResourceBudget::unlimited());
            let mut frames = Frames::new(ResourceBudget::unlimited());
            frames.push_frame(Solver::new());
            frames.push_frame(Solver::new());
            // Every recorded (s, t), least recently recorded or returned first.
            let mut recorded: Vec<(Cube, Cube)> = Vec::new();
            for _ in 0..200 {
                if recorded.len() < CAPACITY && rng.below(3) == 0 {
                    let values: Vec<bool> = (0..ts.num_vars()).map(|_| rng.bool()).collect();
                    let model = |v: Var| Some(values[v.index()]);
                    cache.pack(model);
                    cache.record(&mut frames[1].ctis, 0);
                    recorded.push((ts.state_cube_from(model), ts.next_state_cube_from(model)));
                    continue;
                }
                // Short cubes, so that hits are frequent.
                let cube: Cube = random_cube(&ts, &mut rng).iter().take(3).collect();
                let outside = rng.bool();
                let expected = recorded
                    .iter()
                    .rposition(|(s, t)| cube.subsumes(t) && !(outside && cube.subsumes(s)));
                let hit = cache.lookup(&ts, &mut frames, &cube, 1, outside);
                assert_eq!(hit, expected.is_some(), "seed {seed}: {cube}");
                if let Some(k) = expected {
                    let answer = cache.answer();
                    assert_eq!(answer.predecessor(&ts), recorded[k].0, "seed {seed}");
                    assert_eq!(answer.successor(&ts), recorded[k].1, "seed {seed}");
                    let entry = recorded.remove(k);
                    recorded.push(entry);
                }
            }
        }
    }
}
