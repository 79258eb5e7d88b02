//! The IC3 frame sequence `F_0, …, F_k`: one [`Level`] per frame, lemmas in
//! delta encoding.

use crate::cti_cache::bit;
use plic3_logic::{Cube, Lit};
use plic3_sat::{ResourceBudget, Solver};
use std::collections::HashMap;
use std::ops::{Index, IndexMut};

/// Estimated heap footprint of a stored lemma cube: its literal payload plus
/// the `Vec` bookkeeping. Used for [`ResourceBudget`] accounting — an estimate
/// is enough, the budget is advisory.
fn cube_bytes(cube: &Cube) -> u64 {
    (cube.len() * std::mem::size_of::<plic3_logic::Lit>() + 24) as u64
}

/// A stored blocked cube and the frame-clock value at which it entered the
/// delta frame it sits in.
#[derive(Clone, Debug)]
struct Stamped {
    cube: Cube,
    stamp: u64,
    /// The cube's literals in the lowest word of a packed state that they
    /// touch (bit `v` of a packed state is the value of variable `v`), as
    /// that word's index and a `(mask, value)` pair: a state lies in the
    /// cube only if `state[word] & mask == value`. The test reads no heap,
    /// and it decides alone for a cube within one word.
    word: usize,
    mask: u64,
    value: u64,
}

impl Stamped {
    fn new(cube: Cube, stamp: u64) -> Self {
        let word = cube.iter().next().map_or(0, |l| l.var().index() / 64);
        let (mut mask, mut value) = (0, 0);
        // A cube's literals are sorted by variable.
        for l in cube.iter().take_while(|l| l.var().index() / 64 == word) {
            mask |= 1 << (l.var().index() % 64);
            value |= u64::from(l.is_pos()) << (l.var().index() % 64);
        }
        Stamped {
            cube,
            stamp,
            word,
            mask,
            value,
        }
    }

    /// Whether the packed state lies in the cube.
    fn contains(&self, state: &[u64]) -> bool {
        state[self.word] & self.mask == self.value
            && self
                .cube
                .iter()
                .all(|l| bit(state, l.var().index()) == l.is_pos())
    }
}

/// Everything IC3 keeps for one frame level `i`.
pub(crate) struct Level {
    /// The frame solver: `T` plus `I` at level 0, and above it `T` plus the
    /// clause of every lemma of `F_i`. [`Frames`] adds the lemma clauses.
    pub(crate) solver: Solver,
    /// The cubes whose lemma's highest level is exactly `i`, oldest stamp
    /// first. Always empty at level 0.
    lemmas: Vec<Stamped>,
    /// The `failure_push` table of Algorithm 2: maps a lemma cube that failed
    /// to be pushed from level `i` to the packed CTP transition
    /// ([`crate::cti_cache::Transition`]) whose successor is `t`.
    pub(crate) failure_push: HashMap<Cube, Box<[u64]>>,
    /// The CTI cache's recorded transitions at level `i`
    /// ([`crate::cti_cache::CtiCache`]).
    pub(crate) ctis: Vec<u64>,
}

/// The IC3 frame sequence. Level 0 is `F_0 = I`; above it, lemmas are stored
/// in *delta encoding*: each blocked cube is kept once, at the highest level
/// its lemma currently holds at. The clause set of frame `F_i` (`i ≥ 1`) is
/// therefore the union of the delta frames at levels `≥ i` (lemmas are
/// monotone: `F_{i+1} ⊆ F_i`), and [`Frames::add`] and [`Frames::promote`]
/// add each lemma's clause to the solver of every level it enters.
///
/// Lemmas are represented by the blocked [`Cube`] (the lemma itself is the
/// negation of the cube). Subsumption is maintained on insertion: a new, more
/// general lemma removes the less general ones it covers at levels it reaches.
///
/// A monotone *frame clock* stamps every cube when it is added or promoted.
/// The state set of each `F_i` only shrinks (a cube removed by subsumption is
/// covered by its replacement at an equal or higher level), so a state known
/// to lie in `F_i` at clock `k` still lies there unless a cube stamped after
/// `k` contains it — see [`Frames::blocked_since`]. Each delta frame is kept
/// in stamp order, so that check scans only the newest cubes.
pub(crate) struct Frames {
    levels: Vec<Level>,
    /// The stamp of the cube that entered a frame most recently.
    clock: u64,
    /// Memory budget charged for every stored lemma.
    budget: ResourceBudget,
}

impl Frames {
    /// Creates a sequence with no level yet, charging lemma storage to
    /// `budget`. The first [`Frames::push_frame`] creates level 0.
    pub fn new(budget: ResourceBudget) -> Self {
        Frames {
            levels: Vec::new(),
            clock: 0,
            budget,
        }
    }

    /// The current top level `k`.
    pub fn top_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Adds a new top level with no lemmas. `solver` holds `T`, and also `I`
    /// when the new level is level 0.
    pub fn push_frame(&mut self, solver: Solver) {
        self.levels.push(Level {
            solver,
            lemmas: Vec::new(),
            failure_push: HashMap::new(),
            ctis: Vec::new(),
        });
    }

    /// Every level, from 0 to the top.
    pub fn levels(&self) -> impl Iterator<Item = &Level> {
        self.levels.iter()
    }

    /// Every level, from 0 to the top, mutably.
    pub fn levels_mut(&mut self) -> impl Iterator<Item = &mut Level> {
        self.levels.iter_mut()
    }

    /// The cubes stored at exactly `level` (i.e. `F_level \ F_{level+1}`).
    pub fn delta(&self, level: usize) -> impl ExactSizeIterator<Item = &Cube> {
        self.levels[level].lemmas.iter().map(|s| &s.cube)
    }

    /// Iterates over all cubes belonging to `F_level` (levels `≥ level`), for
    /// `level ≥ 1`.
    pub fn cubes_at_or_above(&self, level: usize) -> impl Iterator<Item = &Cube> {
        self.levels[level.min(self.levels.len())..]
            .iter()
            .flat_map(|l| l.lemmas.iter().map(|s| &s.cube))
    }

    /// The frame clock: the stamp of the cube that entered a frame most
    /// recently (0 before any cube was stored).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Returns `true` if a cube of `F_level` contains the state whose literals
    /// satisfy `holds`, i.e. the state lies outside `F_level`. Scans the whole
    /// frame; [`Frames::blocked_since`] is the incremental form.
    pub fn blocked(&self, level: usize, holds: impl Fn(Lit) -> bool) -> bool {
        self.cubes_at_or_above(level).any(|c| c.iter().all(&holds))
    }

    /// Returns `true` if a cube that entered `F_level` after clock value
    /// `since` contains the packed state: bit `v` of `state` is the value of
    /// variable `v`, for every variable the cubes mention.
    ///
    /// For a state that lay in `F_level` at clock `since`, this agrees with
    /// [`Frames::blocked`] now, and it scans only the cubes stamped after
    /// `since` (the tail of each delta frame at levels `≥ level`).
    pub fn blocked_since(&self, level: usize, since: u64, state: &[u64]) -> bool {
        self.levels[level.min(self.levels.len())..].iter().any(|l| {
            l.lemmas
                .iter()
                .rev()
                .take_while(|s| s.stamp > since)
                .any(|s| s.contains(state))
        })
    }

    /// Returns `true` if a stored lemma at level `≥ level` already subsumes the
    /// lemma `¬cube` (i.e. a stored cube is a subset of `cube`).
    pub fn subsumed(&self, cube: &Cube, level: usize) -> bool {
        self.cubes_at_or_above(level).any(|c| c.subsumes(cube))
    }

    /// Stores `cube` at `level` under a fresh stamp.
    fn push_stamped(&mut self, cube: Cube, level: usize) {
        self.clock += 1;
        self.levels[level]
            .lemmas
            .push(Stamped::new(cube, self.clock));
    }

    /// Adds the blocked `cube` at `level`, removing lemmas it subsumes at levels
    /// `1..=level`, and adds its lemma to the solvers of those levels. Returns
    /// `false` (and stores nothing) if an existing lemma at level `≥ level`
    /// already subsumes it.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds the top level.
    pub fn add(&mut self, cube: Cube, level: usize) -> bool {
        assert!(
            level >= 1 && level <= self.top_level(),
            "lemma level out of range"
        );
        if self.subsumed(&cube, level) {
            return false;
        }
        let clause = cube.negate();
        let budget = &self.budget;
        for l in &mut self.levels[1..=level] {
            l.lemmas.retain(|existing| {
                let keep = !cube.subsumes(&existing.cube);
                if !keep {
                    budget.uncharge(cube_bytes(&existing.cube));
                }
                keep
            });
            l.solver.add_clause_ref(&clause);
        }
        self.budget.charge(cube_bytes(&cube));
        self.push_stamped(cube, level);
        true
    }

    /// Moves `cube` from `level` to `level + 1` (used by propagation) and adds
    /// its lemma to the solver of `level + 1`. Returns `true` if the cube was
    /// found and promoted.
    pub fn promote(&mut self, cube: &Cube, level: usize) -> bool {
        let delta = &mut self.levels[level].lemmas;
        let Some(pos) = delta.iter().position(|s| s.cube == *cube) else {
            return false;
        };
        let cube = delta.remove(pos).cube;
        self.levels[level + 1].solver.add_clause_ref(&cube.negate());
        // Promotion cannot make the lemma newly-subsumed at the higher level
        // unless an equal or more general lemma already lives there; keep the
        // stronger one.
        if !self.subsumed(&cube, level + 1) {
            self.push_stamped(cube, level + 1);
        } else {
            self.budget.uncharge(cube_bytes(&cube));
        }
        true
    }

    /// The parent lemmas of the clause `¬cube` at `level`, per Algorithm 2 of
    /// the paper: the cubes stored at exactly `level` whose literal set is a
    /// subset of `cube`'s (equivalently, lemmas `p` with `p ⇒ ¬cube`).
    pub fn parents_of<'a>(
        &'a self,
        cube: &'a Cube,
        level: usize,
    ) -> impl Iterator<Item = &'a Cube> {
        self.levels
            .get(level)
            .map_or(&[][..], |l| l.lemmas.as_slice())
            .iter()
            .map(|s| &s.cube)
            .filter(move |p| p.subsumes(cube))
    }

    /// Returns `true` if the delta frame at `level` is empty, i.e.
    /// `F_level = F_{level+1}` and an inductive invariant has been reached.
    pub fn is_fixpoint_at(&self, level: usize) -> bool {
        self.levels[level].lemmas.is_empty()
    }
}

impl Index<usize> for Frames {
    type Output = Level;

    fn index(&self, level: usize) -> &Level {
        &self.levels[level]
    }
}

impl IndexMut<usize> for Frames {
    fn index_mut(&mut self, level: usize) -> &mut Level {
        &mut self.levels[level]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_logic::{SplitMix64, Var};

    fn cube(lits: &[(u32, bool)]) -> Cube {
        Cube::from_lits(lits.iter().map(|&(v, p)| Lit::new(Var::new(v), p)))
    }

    /// Levels `0..=top` over empty solvers.
    fn frames(top: usize) -> Frames {
        let mut f = Frames::new(ResourceBudget::unlimited());
        for _ in 0..=top {
            f.push_frame(Solver::new());
        }
        f
    }

    #[test]
    fn new_has_one_usable_frame() {
        let f = frames(1);
        assert_eq!(f.top_level(), 1);
        assert_eq!(f.cubes_at_or_above(1).count(), 0);
        assert!(f.is_fixpoint_at(1));
    }

    #[test]
    fn add_and_query_levels() {
        let mut f = frames(3);
        assert!(f.add(cube(&[(0, true), (1, false)]), 2));
        assert!(f.add(cube(&[(2, true)]), 3));
        assert_eq!(f.delta(2).len(), 1);
        assert_eq!(f.delta(3).len(), 1);
        // F_2 contains lemmas at levels >= 2.
        assert_eq!(f.cubes_at_or_above(2).count(), 2);
        assert_eq!(f.cubes_at_or_above(3).count(), 1);
        assert_eq!(f.cubes_at_or_above(1).count(), 2);
        assert!(!f.is_fixpoint_at(2));
    }

    #[test]
    fn subsumption_on_insert() {
        let mut f = frames(2);
        assert!(f.add(cube(&[(0, true), (1, false)]), 1));
        // A more general lemma (fewer literals) at a level covering level 1
        // removes the weaker one.
        assert!(f.add(cube(&[(0, true)]), 2));
        assert_eq!(f.cubes_at_or_above(1).count(), 1);
        assert_eq!(f.delta(2).len(), 1);
        // A weaker lemma subsumed by an existing one is rejected.
        assert!(!f.add(cube(&[(0, true), (2, true)]), 1));
        assert_eq!(f.cubes_at_or_above(1).count(), 1);
    }

    #[test]
    fn weaker_lemma_at_higher_level_is_kept() {
        let mut f = frames(2);
        assert!(f.add(cube(&[(0, true)]), 1));
        // The same cube cannot be re-added at level 1, but at level 2 the
        // stronger statement is new (the existing lemma only covers F_1).
        assert!(!f.add(cube(&[(0, true)]), 1));
        assert!(f.add(cube(&[(0, true)]), 2));
        assert_eq!(f.delta(2).len(), 1);
        assert_eq!(f.delta(1).len(), 0, "old copy must be removed");
    }

    #[test]
    fn promote_moves_between_levels() {
        let mut f = frames(2);
        let c = cube(&[(0, true)]);
        f.add(c.clone(), 1);
        assert!(f.promote(&c, 1));
        assert_eq!(f.delta(1).len(), 0);
        assert_eq!(f.delta(2).len(), 1);
        assert!(!f.promote(&c, 1), "no longer present at level 1");
        assert!(f.is_fixpoint_at(1));
    }

    #[test]
    fn parents_are_subset_lemmas_at_exactly_that_level() {
        let mut f = frames(2);
        let parent = cube(&[(0, true)]);
        let unrelated = cube(&[(5, false)]);
        let bigger = cube(&[(0, true), (1, true), (2, false)]);
        f.add(parent.clone(), 1);
        f.add(unrelated, 1);
        f.add(cube(&[(0, true), (1, true)]), 2); // at level 2, not 1
        let parents: Vec<&Cube> = f.parents_of(&bigger, 1).collect();
        assert_eq!(parents, vec![&parent]);
        assert_eq!(f.parents_of(&bigger, 0).count(), 0);
        assert_eq!(f.parents_of(&bigger, 99).count(), 0);
    }

    /// Random add / promote / subsume sequences: for every state recorded as
    /// lying in `F_level` at some clock value, the stamped check from that
    /// clock agrees with a full scan of `F_level` after every later operation.
    #[test]
    fn stamped_check_agrees_with_full_scan() {
        for seed in 0..40 {
            // Few variables, or states packed into three words with cubes
            // that may span them.
            let vars: u32 = if seed % 2 == 0 { 6 } else { 130 };
            let mut rng = SplitMix64::new(seed);
            let mut f = frames(1);
            // (level, clock, state) with the state in F_level at that clock.
            let mut recorded: Vec<(usize, u64, Cube)> = Vec::new();
            for _ in 0..120 {
                let top = f.top_level();
                match rng.below(10) {
                    0 if top < 6 => {
                        f.push_frame(Solver::new());
                    }
                    0..=5 => {
                        // Short cubes subsume longer ones often.
                        let len = rng.range(1, 4) as usize;
                        let lits = (0..len)
                            .map(|_| Lit::new(Var::new(rng.below(vars as u64) as u32), rng.bool()));
                        let c = Cube::from_lits(lits);
                        if !c.is_contradictory() {
                            f.add(c, rng.range(1, top as u64 + 1) as usize);
                        }
                    }
                    _ if top > 1 => {
                        let level = rng.range(1, top as u64) as usize;
                        let n = f.delta(level).len();
                        if n > 0 {
                            let c = f.delta(level).nth(rng.below(n as u64) as usize).cloned();
                            f.promote(&c.expect("index in range"), level);
                        }
                    }
                    _ => {}
                }
                let level = rng.range(1, f.top_level() as u64 + 1) as usize;
                let state = Cube::from_lits((0..vars).map(|v| Lit::new(Var::new(v), rng.bool())));
                if !f.blocked(level, |l| state.contains(l)) {
                    recorded.push((level, f.clock(), state));
                }
                for (level, since, state) in &recorded {
                    let holds = |l| state.contains(l);
                    let mut packed = vec![0u64; (vars as usize).div_ceil(64)];
                    for l in state.iter().filter(|l| l.is_pos()) {
                        packed[l.var().index() / 64] |= 1 << (l.var().index() % 64);
                    }
                    assert_eq!(
                        f.blocked_since(*level, *since, &packed),
                        f.blocked(*level, holds),
                        "seed {seed}: level {level}, clock {since} vs {}",
                        f.clock()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lemma level out of range")]
    fn add_rejects_level_zero() {
        let mut f = frames(1);
        f.add(cube(&[(0, true)]), 0);
    }
}
