//! CTP-based lemma prediction — the contribution of the paper (Algorithm 2).

use crate::engine::{Ic3, SolveRelative};
use plic3_logic::{Cube, Lit};

impl Ic3 {
    /// Attempts to predict a lemma for the cube `b` being blocked at `level`,
    /// using counterexamples to propagation recorded in the `failure_push`
    /// table (Algorithm 2, lines 10–27).
    ///
    /// For every *parent lemma* `¬c2` of `¬b` at `level - 1` (a lemma whose
    /// cube `c2` is a subset of `b`) that previously failed to be pushed to
    /// `level`, the recorded CTP successor `t` refutes `c2` there. The
    /// candidate cubes `c3 = c2 ∪ {l}` with `l ∈ diff(b, t)` exclude `t`
    /// (Theorem 3.3), still contain `b` (Theorem 3.4) and are only one literal
    /// larger than `c2`; a single relative-induction query validates each one.
    /// When the diff set is empty, the parent lemma itself is re-tried.
    ///
    /// Returns the predicted cube on success; on failure the caller falls back
    /// to ordinary MIC generalization.
    pub(crate) fn predict_lemma(&mut self, b: &Cube, level: usize) -> Option<Cube> {
        if level == 0 {
            return None;
        }
        // Line 12: only parents with a recorded push failure carry a CTP to
        // exploit. The frames do not change below, so the list stays current.
        let table = &self.frames[level - 1].failure_push;
        let failed: Vec<(Cube, Cube)> = self
            .frames
            .parents_of(b, level - 1)
            .filter_map(|parent| table.get(parent).map(|t| (parent.clone(), t.clone())))
            .collect();
        if !failed.is_empty() {
            self.stats.found_failed_parents += 1;
        }
        for (parent, t) in failed {
            let ds = b.diff(&t);
            if ds.is_empty() {
                // Lines 16–20: b and t intersect, so blocking b may already
                // remove the CTP — try to push the parent lemma itself.
                self.stats.predictions += 1;
                match self.solve_relative(&parent, level - 1, true) {
                    SolveRelative::Inductive { .. } => {
                        self.frames[level - 1].failure_push.remove(&parent);
                        return Some(parent);
                    }
                    SolveRelative::Cti { successor, .. } => {
                        // Line 20: remember the new CTP for later attempts.
                        self.frames[level - 1]
                            .failure_push
                            .insert(parent, successor);
                    }
                    SolveRelative::Aborted => return None,
                }
            } else {
                // Lines 22–27: grow the parent by one literal of the diff set.
                let mut remaining: Vec<Lit> = ds.iter().collect();
                while let Some(d) = remaining.pop() {
                    let candidate = parent.with_lit(d);
                    debug_assert!(
                        self.ts.cube_excludes_init(&candidate),
                        "candidate inherits initiation from the parent lemma"
                    );
                    self.stats.predictions += 1;
                    match self.solve_relative(&candidate, level - 1, true) {
                        SolveRelative::Inductive { .. } => return Some(candidate),
                        SolveRelative::Cti { successor, .. } => {
                            // Line 27: the counterexample is very likely another
                            // CTP for pushing the parent; prune the diff set to
                            // the literals that also exclude it.
                            let refreshed = b.diff(&successor);
                            remaining.retain(|l| refreshed.contains(*l));
                        }
                        SolveRelative::Aborted => return None,
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::{Config, Ic3};
    use plic3_aig::AigBuilder;
    use plic3_logic::{Cube, Lit, Var};

    #[test]
    fn predicted_lemmas_never_break_soundness_on_unsafe_instances() {
        // Unsafe variant: the saturation point is the all-ones value itself, so
        // the counter does reach it.
        let mut b = AigBuilder::new();
        let state = b.latches(3, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, 7);
        b.add_bad(bad);
        let aig = b.build();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like().with_lemma_prediction(true));
        let result = engine.check();
        let trace = result.trace().expect("counter reaches 7");
        assert!(trace.replay_on_aig(engine.ts(), &aig));
    }

    #[test]
    fn predict_lemma_uses_recorded_ctp() {
        // Latches x, y, z, w, all reset to 0: x' = y, y' = z, z' = 0, w' = w,
        // and bad = x ∧ w keeps all four in the cone.
        let mut b = AigBuilder::new();
        let l = b.latches(4, Some(false));
        let zero = b.constant_false();
        b.set_latch_next(l[0], l[1]);
        b.set_latch_next(l[1], l[2]);
        b.set_latch_next(l[2], zero);
        b.set_latch_next(l[3], l[3]);
        let bad = b.and(l[0], l[3]);
        b.add_bad(bad);
        let mut engine = Ic3::from_aig(&b.build(), Config::ric3_like().with_lemma_prediction(true));
        let v: Vec<Var> = engine.ts().latch_vars().collect();
        let (x, y, z, w) = (v[0], v[1], v[2], v[3]);
        engine.extend_frames();
        // F_1 = ¬x ∧ ¬z. The parent lemma ¬x fails to push to level 2: the
        // state (x, y, z, w) = 0101 of F_1 reaches the CTP t = 1001.
        let parent = Cube::from_lits([Lit::pos(x)]);
        engine.add_lemma(parent.clone(), 1);
        engine.add_lemma(Cube::from_lits([Lit::pos(z)]), 1);
        let t = Cube::from_lits([Lit::pos(x), Lit::neg(y), Lit::neg(z), Lit::pos(w)]);
        engine.frames[1]
            .failure_push
            .insert(parent.clone(), t.clone());
        // Blocking b = x ∧ y ∧ ¬w at level 2, with diff(b, t) = {y, ¬w}. The
        // candidate ¬(x ∧ ¬w) fails on the CTI 0100 → 1000, which shares ¬w
        // with b; the next candidate ¬(x ∧ y) is inductive relative to F_1.
        let cube = Cube::from_lits([Lit::pos(x), Lit::pos(y), Lit::neg(w)]);
        assert_eq!(cube.diff(&t), Cube::from_lits([Lit::pos(y), Lit::neg(w)]));
        let before = *engine.statistics();
        let predicted = engine.predict_lemma(&cube, 2);
        let stats = engine.statistics();
        assert_eq!(predicted, Some(parent.with_lit(Lit::pos(y))));
        assert!(engine.ts().cube_excludes_init(&predicted.unwrap()));
        let queries = stats.relative_queries - before.relative_queries;
        assert_eq!(queries, 2, "one validation query per candidate");
        assert_eq!(stats.predictions - before.predictions, queries);
        assert_eq!(stats.found_failed_parents - before.found_failed_parents, 1);
    }
}
