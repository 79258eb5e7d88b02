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
use crate::state_cube::StateCube;
use plic3_logic::{Cube, Var};
use plic3_sat::ResourceBudget;
use plic3_ts::TransitionSystem;

/// Transitions kept per frame level. Median perfbench `solve_s` over three
/// runs each on a two-core x86-64 VM: `gen-paired` 0.074 s at 64, 0.061 s at
/// 128 and 0.057 s at 256; `wide-safe` 0.117 s, 0.106 s and 0.110 s (within
/// its run-to-run spread). A slot costs one word for its clock plus the
/// words of one transition.
const CAPACITY: usize = 256;

/// Bit `i` of a packed bit vector.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// A transition `(s, x, t)` packed word-aligned as `[s | t | x]`: the
/// predecessor `s` and the successor `t` as packed states of `W` words each
/// (bit `v` is latch `v`, see [`StateCube`]), then the inputs `x` (bit `j` is
/// input `j`). This is the form of every SAT answer to a relative query;
/// `s ∈ cube` and `t ∈ cube` are word compares, and a [`Cube`] is built from
/// it only where a caller hands one to a solver.
#[derive(Clone, Copy)]
pub(crate) struct Transition<'a> {
    pub(crate) s: &'a [u64],
    pub(crate) t: &'a [u64],
    x: &'a [u64],
}

impl Transition<'_> {
    /// The predecessor `s` as a full cube over the latches.
    pub(crate) fn predecessor(self, ts: &TransitionSystem) -> Cube {
        ts.state_cube_from(|v| Some(bit(self.s, v.index())))
    }

    /// The input valuation `x` as a cube over the inputs.
    pub(crate) fn inputs(self, ts: &TransitionSystem) -> Cube {
        ts.input_cube_from(|v| Some(bit(self.x, v.index() - ts.num_latches())))
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
    latches: usize,
    inputs: usize,
    /// The answer of the last relative query that had a model: packed from
    /// the frame solver's model, or copied from the slot that answered it.
    answer: Vec<u64>,
    /// Memory budget charged for every stored transition.
    budget: ResourceBudget,
}

impl CtiCache {
    pub(crate) fn new(ts: &TransitionSystem, budget: ResourceBudget) -> Self {
        let (latches, inputs) = (ts.num_latches(), ts.num_inputs());
        CtiCache {
            latches,
            inputs,
            answer: vec![0; 2 * latches.div_ceil(64) + inputs.div_ceil(64)],
            budget,
        }
    }

    /// Bytes one stored transition takes.
    fn slot_bytes(&self) -> u64 {
        (8 * (1 + self.answer.len())) as u64
    }

    /// The answer of the last relative query that had a model. The next
    /// query that has one replaces it.
    pub(crate) fn answer(&self) -> Transition<'_> {
        let (s, rest) = self.answer.split_at(self.latches.div_ceil(64));
        let (t, x) = rest.split_at(s.len());
        Transition { s, t, x }
    }

    /// Makes the transition `value` assigns (a total model of `T`, read as
    /// false where it assigns nothing) the answer. The variables are laid out
    /// as [`TransitionSystem`] numbers them: latches, inputs, primed latches.
    pub(crate) fn pack(&mut self, value: impl Fn(Var) -> Option<bool>) {
        let (l, n, w) = (self.latches, self.inputs, self.latches.div_ceil(64));
        let words = &mut self.answer;
        words.fill(0);
        // Sets bit `i` of the part at word `offset` to the value of `var`.
        let mut set = |offset: usize, i: usize, var: usize| {
            if value(Var::new(var as u32)) == Some(true) {
                words[offset + i / 64] |= 1 << (i % 64);
            }
        };
        for i in 0..l {
            set(0, i, i);
            set(w, i, l + n + i);
        }
        for j in 0..n {
            set(2 * w, j, l + j);
        }
    }

    /// Records the answer into a level's `slots`, as a transition whose
    /// predecessor lies in the level's frame at frame clock `clock`.
    pub(crate) fn record(&mut self, slots: &mut Vec<u64>, clock: u64) {
        let stride = 1 + self.answer.len();
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
        frames: &mut Frames,
        cube: &StateCube,
        level: usize,
        outside_cube: bool,
    ) -> bool {
        // The scan edits the level's slots while it reads the level's lemmas.
        let mut slots = std::mem::take(&mut frames[level].ctis);
        let (w, stride) = (self.latches.div_ceil(64), 1 + self.answer.len());
        let mut found = false;
        let mut end = slots.len();
        while let Some(k) = slots[..end].chunks_exact(stride).rposition(|slot| {
            let (s, t) = (&slot[1..1 + w], &slot[1 + w..1 + 2 * w]);
            cube.contains_state(t) && !(outside_cube && cube.contains_state(s))
        }) {
            let start = k * stride;
            end = start;
            if frames.blocked_since(level, slots[start], &slots[start + 1..start + 1 + w]) {
                slots.drain(start..start + stride);
                self.budget.uncharge(self.slot_bytes());
                continue;
            }
            slots[start] = frames.clock();
            // The answer becomes the most recent one: eviction drops the
            // transitions that have gone longest without answering a query.
            slots[start..].rotate_left(stride);
            let answer_start = slots.len() - self.answer.len();
            self.answer.copy_from_slice(&slots[answer_start..]);
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
    use plic3_logic::{Lit, SplitMix64};
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
        let s = StateCube::state(cache.answer().s, 1);
        let t = StateCube::state(cache.answer().t, 1);
        frames.add(s, 1);
        assert!(!cache.lookup(&mut frames, &t, 1, false));
        assert!(frames[1].ctis.is_empty());
        assert_eq!(budget.used(), 0);
    }

    /// A small random circuit: up to 150 latches (so a packed state spans
    /// one to three words) with random reset values, some of them
    /// uninitialized, and up to 4 inputs.
    fn random_ts(rng: &mut SplitMix64) -> TransitionSystem {
        let mut b = AigBuilder::new();
        let inputs: Vec<_> = (0..rng.below(5)).map(|_| b.input()).collect();
        let latches: Vec<_> = (0..rng.range(1, 151))
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

    /// Up to three literals over random latches of any word, so that the
    /// cube often contains a random state.
    fn short_cube(ts: &TransitionSystem, rng: &mut SplitMix64) -> Cube {
        let mut lit = || {
            let v = ts.latch_var(rng.below(ts.num_latches() as u64) as usize);
            Lit::new(v, rng.bool())
        };
        let cube = Cube::from_lits([lit(), lit(), lit()]);
        if cube.is_contradictory() {
            Cube::top()
        } else {
            cube
        }
    }

    /// The successor of a total model, as a cube over the latches.
    fn next_state(ts: &TransitionSystem, values: &[bool]) -> Cube {
        let lit = |v: Var| Lit::new(v, values[ts.primed_var(v.index()).index()]);
        ts.latch_vars().map(lit).collect()
    }

    /// The successor of a packed transition, read bit by bit.
    fn successor(ts: &TransitionSystem, t: Transition<'_>) -> Cube {
        ts.latch_vars()
            .map(|v| Lit::new(v, bit(t.t, v.index())))
            .collect()
    }

    /// Over random total models of random circuits with packed states of
    /// one to three words, the packed transition yields the cubes the model
    /// projections build, and the state-cube operations equal their `Cube`
    /// references: subsumption, the join `cube ∩ s`, the diff set `diff(cube,
    /// t)`, dropping and adding a literal, and initiation (Theorem 3.2: a
    /// cube excludes the initial states iff its diff set against them is
    /// non-empty).
    #[test]
    fn packed_transitions_agree_with_cubes() {
        let mut words_seen = [false; 3];
        for seed in 0..60 {
            let mut rng = SplitMix64::new(seed);
            let ts = random_ts(&mut rng);
            let latches = ts.num_latches();
            words_seen[latches.div_ceil(64) - 1] = true;
            let init_cube = ts.init_cube();
            let init = StateCube::from_lits(init_cube, latches);
            let mut cache = CtiCache::new(&ts, ResourceBudget::unlimited());
            for _ in 0..20 {
                let values: Vec<bool> = (0..ts.num_vars()).map(|_| rng.bool()).collect();
                let model = |v: Var| Some(values[v.index()]);
                cache.pack(model);
                let answer = cache.answer();
                let (s, t) = (answer.s, answer.t);
                let s_cube = ts.state_cube_from(model);
                let t_cube = next_state(&ts, &values);
                assert_eq!(answer.predecessor(&ts), s_cube, "seed {seed}");
                assert_eq!(answer.inputs(&ts), ts.input_cube_from(model), "seed {seed}");
                assert_eq!(successor(&ts, answer), t_cube, "seed {seed}");
                assert_eq!(
                    StateCube::state(s, latches).to_cube(),
                    s_cube,
                    "seed {seed}"
                );
                assert_eq!(
                    StateCube::state(t, latches).to_cube(),
                    t_cube,
                    "seed {seed}"
                );
                assert_eq!(
                    !init.contains_state(s),
                    !s_cube.diff(init_cube).is_empty(),
                    "seed {seed}: s excludes init"
                );
                let cube = random_cube(&ts, &mut rng);
                let packed = StateCube::from_lits(&cube, latches);
                assert_eq!(packed.to_cube(), cube, "seed {seed}");
                assert_eq!(packed.len(), cube.len(), "seed {seed}");
                assert_eq!(
                    !packed.intersects(&init),
                    !cube.diff(init_cube).is_empty(),
                    "seed {seed}: cube excludes init"
                );
                let short = short_cube(&ts, &mut rng);
                let short_packed = StateCube::from_lits(&short, latches);
                for (state, state_cube) in [(s, &s_cube), (t, &t_cube)] {
                    for (c, p) in [(&cube, &packed), (&short, &short_packed)] {
                        let expected = c.subsumes(state_cube);
                        assert_eq!(p.contains_state(state), expected, "seed {seed}: {c}");
                    }
                }
                let joined = packed.join(s).to_cube();
                assert_eq!(joined, cube.intersection(&s_cube), "seed {seed}");
                assert_eq!(packed.diff(t).to_cube(), cube.diff(&t_cube), "seed {seed}");
                // A second cube that is a superset of a random sub-cube of
                // the first, so that both outcomes of subsumption occur.
                let extra = random_cube(&ts, &mut rng);
                let other: Cube = cube
                    .iter()
                    .filter(|_| rng.bool())
                    .chain(extra.iter().take(2))
                    .collect();
                if !other.is_contradictory() {
                    let other_packed = StateCube::from_lits(&other, latches);
                    for (a, b, pa, pb) in [
                        (&cube, &other, &packed, &other_packed),
                        (&other, &cube, &other_packed, &packed),
                    ] {
                        assert_eq!(pa.subsumes(pb), a.subsumes(b), "seed {seed}: {a} ⊆ {b}");
                        assert_eq!(pa == pb, a == b, "seed {seed}");
                    }
                }
                for l in cube.iter() {
                    assert!(packed.contains(l) && !packed.contains(!l), "seed {seed}");
                    let mut dropped = packed.clone();
                    dropped.remove(l);
                    assert_eq!(dropped.to_cube(), cube.without_lit(l), "seed {seed}");
                    dropped.insert(l);
                    assert_eq!(dropped, packed, "seed {seed}");
                }
            }
        }
        assert_eq!(words_seen, [true; 3], "states of one, two and three words");
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
                    recorded.push((ts.state_cube_from(model), next_state(&ts, &values)));
                    continue;
                }
                // Short cubes, so that hits are frequent.
                let cube = short_cube(&ts, &mut rng);
                let outside = rng.bool();
                let expected = recorded
                    .iter()
                    .rposition(|(s, t)| cube.subsumes(t) && !(outside && cube.subsumes(s)));
                let query = StateCube::from_lits(&cube, ts.num_latches());
                let hit = cache.lookup(&mut frames, &query, 1, outside);
                assert_eq!(hit, expected.is_some(), "seed {seed}: {cube}");
                if let Some(k) = expected {
                    let answer = cache.answer();
                    assert_eq!(answer.predecessor(&ts), recorded[k].0, "seed {seed}");
                    assert_eq!(successor(&ts, answer), recorded[k].1, "seed {seed}");
                    let entry = recorded.remove(k);
                    recorded.push(entry);
                }
            }
        }
    }
}
