//! Inductive generalization: MIC, `ctgDown`, and literal orderings.

use crate::config::{GeneralizeMode, LiteralOrdering};
use crate::engine::{Ic3, SolveRelative};
use plic3_logic::{Cube, Lit};
use std::collections::HashSet;

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
    pub(crate) fn generalize(&mut self, cube: Cube, level: usize) -> Cube {
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
    pub(crate) fn mic(&mut self, mut cube: Cube, level: usize, depth: usize) -> Cube {
        let order = self.drop_order(&cube, level);
        for lit in order {
            if cube.len() <= 1 {
                break;
            }
            if !cube.contains(lit) {
                // Already removed by an earlier join or core shrink.
                continue;
            }
            let candidate = cube.without_lit(lit);
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
    /// induction and (in [`GeneralizeMode::CtgDown`]) by blocking
    /// counterexamples to generalization one frame below. Returns `None` when
    /// the candidate cannot be repaired (the dropped literal must be kept).
    fn try_down(&mut self, mut cube: Cube, level: usize, depth: usize) -> Option<Cube> {
        let (ctg_max_depth, ctg_max) = match self.config.generalize {
            GeneralizeMode::Mic => (0, 0),
            GeneralizeMode::CtgDown {
                max_depth,
                max_ctgs,
            } => (max_depth, max_ctgs),
        };
        let mut ctgs = 0usize;
        let mut joins = 0usize;
        loop {
            if !self.ts().cube_excludes_init(&cube) {
                return None;
            }
            match self.solve_relative(&cube, level - 1, true) {
                SolveRelative::Inductive { core } => return Some(core),
                SolveRelative::Cti {
                    predecessor: ctg, ..
                } => {
                    if ctgs < ctg_max
                        && depth <= ctg_max_depth
                        && level > 1
                        && self.ts().cube_excludes_init(&ctg)
                    {
                        // Try to block the CTG one frame below; if it works the
                        // dropped-literal candidate gets another chance.
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
                    let joined = cube.intersection(&ctg);
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
    fn drop_order(&self, cube: &Cube, level: usize) -> Vec<Lit> {
        let mut lits: Vec<Lit> = cube.iter().collect();
        match self.config.ordering {
            LiteralOrdering::Ascending => {}
            LiteralOrdering::Descending => lits.reverse(),
            LiteralOrdering::ParentGuided => {
                // CAV'23 heuristic: literals that do not occur in any parent
                // lemma of the previous frame are dropped first, so the
                // surviving literals look like a lemma that already propagates.
                let parents = self.frames.parents_of(cube, level.saturating_sub(1));
                let mut in_parent: HashSet<Lit> = HashSet::new();
                for p in &parents {
                    in_parent.extend(p.iter());
                }
                lits.sort_by_key(|l| u8::from(in_parent.contains(l)));
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

    #[test]
    fn generalization_produces_short_lemmas() {
        // For the shift register the invariant lemmas are single-literal
        // clauses (each cell is always 0); MIC should find lemmas much shorter
        // than the full state cube. Core shrinking is disabled so the work is
        // actually done by the literal-dropping loop.
        let aig = shift_register(8);
        let mut config = Config::ric3_like();
        config.core_shrink = false;
        let mut engine = Ic3::from_aig(&aig, config);
        let result = engine.check();
        let cert = result.certificate().expect("safe");
        let avg_len: f64 = cert.lemmas.iter().map(|c| c.len() as f64).sum::<f64>()
            / cert.lemmas.len().max(1) as f64;
        assert!(
            avg_len < 4.0,
            "expected strongly generalized lemmas, average length {avg_len}"
        );
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
