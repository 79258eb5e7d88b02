//! Inductive generalization: MIC, `ctgDown`, and literal orderings.

use crate::config::LiteralOrdering;
use crate::engine::{Ic3, SolveRelative};
use crate::state_cube::StateCube;
use plic3_logic::Lit;

impl Ic3 {
    /// Generalizes a blocked cube into (the cube of) a lemma for `level`.
    ///
    /// This is the `generalize` of Algorithm 2: when lemma prediction is
    /// enabled, the CTP-based prediction is attempted first; if it produces a
    /// validated lemma, the costly literal-dropping loop is skipped entirely.
    /// Otherwise the configured MIC variant runs.
    ///
    /// The input cube must already be inductive relative to `level - 1` and
    /// exclude the initial states; the result preserves both properties.
    pub(crate) fn generalize(&mut self, cube: StateCube, level: usize) -> StateCube {
        self.stats.generalizations += 1;
        if self.config.lemma_prediction {
            if let Some(predicted) = self.predict_lemma(&cube, level) {
                self.stats.successful_predictions += 1;
                return predicted;
            }
        }
        self.mic(cube, level, 1)
    }

    /// The minimal-inductive-clause loop: tries to drop each literal, keeping
    /// the drop when the shrunk cube can be shown (relatively) inductive.
    fn mic(&mut self, mut cube: StateCube, level: usize, depth: usize) -> StateCube {
        let order = self.drop_order(&cube, level);
        for lit in order {
            if cube.len() <= 1 {
                break;
            }
            if !cube.contains(lit) {
                // Already removed by an earlier join or core shrink.
                continue;
            }
            let mut candidate = cube.clone();
            candidate.remove(lit);
            self.stats.mic_drop_attempts += 1;
            if let Some(better) = self.try_down(candidate, level, depth) {
                self.stats.mic_drops += 1;
                cube = better;
            }
        }
        cube
    }

    /// The `down` / `ctgDown` procedure: strengthens `cube` until it is
    /// inductive relative to `level - 1`, by joining with counterexamples to
    /// induction and, within [`Config::max_ctg_depth`] and
    /// [`Config::max_ctgs`], by blocking counterexamples to generalization
    /// one frame below. With either limit 0 it is plain `down`. Returns
    /// `None` when the candidate cannot be repaired (the dropped literal must
    /// be kept).
    ///
    /// [`Config::max_ctg_depth`]: crate::Config::max_ctg_depth
    /// [`Config::max_ctgs`]: crate::Config::max_ctgs
    fn try_down(&mut self, mut cube: StateCube, level: usize, depth: usize) -> Option<StateCube> {
        let mut ctgs = 0usize;
        let mut joins = 0usize;
        loop {
            if cube.intersects(&self.init) {
                return None;
            }
            match self.solve_relative(&cube, level - 1, true) {
                SolveRelative::Inductive { core } => return Some(core),
                SolveRelative::Cti => {
                    // The join `cube ∩ s` of plain `down`, taken before a CTG
                    // query replaces the answer.
                    let s = self.cti().s;
                    let joined = cube.join(s);
                    if ctgs < self.config.max_ctgs
                        && depth <= self.config.max_ctg_depth
                        && level > 1
                        && !self.init.contains_state(s)
                    {
                        // Try to block the CTG one frame below; if it works the
                        // dropped-literal candidate gets another chance.
                        let ctg = StateCube::state(s, self.ts.num_latches());
                        if let SolveRelative::Inductive { core } =
                            self.solve_relative(&ctg, level - 1, true)
                        {
                            ctgs += 1;
                            self.stats.ctg_blocked += 1;
                            let mic = self.mic(core, level, depth + 1);
                            let final_level = self.push_lemma_forward(&mic, level);
                            self.add_lemma(mic, final_level);
                            continue;
                        }
                    }
                    // Join with the counterexample state (plain `down`).
                    ctgs = 0;
                    joins += 1;
                    if joined.is_empty() || joined.len() == cube.len() || joins > cube.len() + 1 {
                        return None;
                    }
                    cube = joined;
                }
                // Keep the dropped literal; the enclosing blocking phase will
                // observe the interruption on its next query.
                SolveRelative::Aborted => return None,
            }
        }
    }

    /// The order in which MIC attempts to drop literals.
    fn drop_order(&self, cube: &StateCube, level: usize) -> Vec<Lit> {
        let mut lits: Vec<Lit> = cube.iter().collect();
        match self.config.ordering {
            LiteralOrdering::Ascending => {}
            LiteralOrdering::Descending => lits.reverse(),
            LiteralOrdering::ParentGuided => {
                // CAV'23 heuristic: literals that do not occur in any parent
                // lemma of the previous frame are dropped first, so the
                // surviving literals look like a lemma that already propagates.
                let parents: Vec<_> = self
                    .frames
                    .parents_of(cube, level.saturating_sub(1))
                    .collect();
                lits.sort_by_key(|&l| parents.iter().any(|p| p.contains(l)));
            }
        }
        lits
    }
}

#[cfg(test)]
mod tests {
    use crate::{Config, Ic3};
    use plic3_aig::AigBuilder;

    /// A shift register whose head is always 0: every lemma generalizes well,
    /// which gives the MIC loop plenty of work.
    fn shift_register(n: usize) -> plic3_aig::Aig {
        let mut b = AigBuilder::new();
        let cells = b.latches(n, Some(false));
        let zero = b.constant_false();
        for i in 0..n {
            let prev = if i == 0 { zero } else { cells[i - 1] };
            b.set_latch_next(cells[i], prev);
        }
        b.add_bad(cells[n - 1]);
        b.build()
    }

    /// A 4-bit counter that counts up to 12 and holds there, with bad at 15.
    /// The relative-induction core of a blocked state still carries literals
    /// that MIC can drop, so the literal-dropping loop does real work.
    fn saturating_counter() -> plic3_aig::Aig {
        let mut b = AigBuilder::new();
        let state = b.latches(4, Some(false));
        let at_sat = b.vec_equals_const(&state, 12);
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            let next = b.ite(at_sat, *s, *n);
            b.set_latch_next(*s, next);
        }
        let bad = b.vec_equals_const(&state, 15);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn generalization_produces_short_lemmas() {
        // Every lemma of the invariant is shorter than the 4-literal state
        // cube it was generalized from, and some of the shortening is MIC's.
        let aig = saturating_counter();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let cert = result.certificate().expect("safe");
        assert!(!cert.lemmas.is_empty());
        for lemma in &cert.lemmas {
            assert!(lemma.len() < 4, "lemma {lemma} was not generalized");
        }
        assert!(engine.statistics().mic_drops > 0);
    }

    #[test]
    fn drop_statistics_are_recorded() {
        let aig = shift_register(5);
        let mut engine = Ic3::from_aig(&aig, Config::ic3ref_like());
        let _ = engine.check();
        let stats = engine.statistics();
        assert!(stats.mic_drop_attempts >= stats.mic_drops);
        assert!(stats.generalizations > 0);
    }
}
