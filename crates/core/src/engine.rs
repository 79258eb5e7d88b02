//! The IC3 engine: frame solvers, the blocking phase, and propagation.

use crate::frames::Frames;
use crate::{Certificate, CheckResult, Config, Statistics, UnknownReason};
use plic3_aig::Aig;
use plic3_logic::{Cube, Lit};
use plic3_sat::{SatResult, Solver};
use plic3_ts::{Trace, TransitionSystem};
use std::collections::HashMap;
use std::time::Instant;

/// Outcome of a relative-induction query (`sat(F_i ∧ ¬c ∧ T ∧ c')`).
pub(crate) enum SolveRelative {
    /// The clause `¬c` is inductive relative to the frame. `core` is a subset of
    /// the cube's literals that suffices for the proof and still excludes the
    /// initial states (equal to the input cube when core shrinking is off).
    Inductive {
        /// Sufficient sub-cube.
        core: Cube,
    },
    /// A counterexample to induction exists.
    Cti {
        /// The predecessor state (full cube over the current-state variables).
        predecessor: Cube,
        /// The primary-input valuation of the transition.
        inputs: Cube,
        /// The successor state (over current-state variables, read from the
        /// primed variables of the model) — the state `t` of the paper.
        successor: Cube,
    },
    /// The query was interrupted (stop flag raised or solver budget hit)
    /// before a verdict; the caller must bail out without drawing conclusions.
    Aborted,
}

enum BlockOutcome {
    Blocked,
    Counterexample,
    LimitReached(UnknownReason),
}

/// The IC3/PDR safety model checker with optional CTP-based lemma prediction.
///
/// Construct it from a [`TransitionSystem`] (or directly from an [`Aig`] with
/// [`Ic3::from_aig`]), call [`Ic3::check`], and inspect the verdict and the
/// [`Statistics`] afterwards.
///
/// # Example
///
/// ```
/// use plic3::{Config, Ic3};
/// use plic3_aig::AigBuilder;
///
/// // A 2-bit counter that wraps before reaching the bad value 3 is impossible,
/// // so the circuit below (bad at 3, counter free-running) is unsafe; the same
/// // counter with the increment disabled is safe.
/// let mut b = AigBuilder::new();
/// let bits = b.latches(2, Some(false));
/// for s in &bits {
///     b.set_latch_next(*s, *s); // counter holds its value: stays at 0
/// }
/// let bad = b.vec_equals_const(&bits, 3);
/// b.add_bad(bad);
/// let mut ic3 = Ic3::from_aig(&b.build(), Config::ric3_like());
/// assert!(ic3.check().is_safe());
/// ```
pub struct Ic3 {
    pub(crate) ts: TransitionSystem,
    pub(crate) config: Config,
    pub(crate) frames: Frames,
    solvers: Vec<Solver>,
    lift_solver: Solver,
    pub(crate) stats: Statistics,
    /// The `failure_push` table of Algorithm 2: maps a lemma cube and the level
    /// it failed to be pushed from to the CTP successor state `t`.
    pub(crate) failure_push: HashMap<(Cube, usize), Cube>,
    start: Instant,
    cex_chain: Vec<(Cube, Cube)>,
}

impl Ic3 {
    /// Creates an engine for `ts` with the given configuration.
    pub fn new(ts: TransitionSystem, config: Config) -> Self {
        let frames = Frames::with_budget(config.budget.clone());
        let mut engine = Ic3 {
            ts,
            config,
            frames,
            solvers: Vec::new(),
            lift_solver: Solver::new(),
            stats: Statistics::new(),
            failure_push: HashMap::new(),
            start: Instant::now(),
            cex_chain: Vec::new(),
        };
        engine.lift_solver = engine.make_lift_solver();
        engine.solvers.push(engine.make_frame_solver(0));
        engine.solvers.push(engine.make_frame_solver(1));
        engine
    }

    /// Encodes `aig` into a transition system and creates an engine for it.
    pub fn from_aig(aig: &Aig, config: Config) -> Self {
        Ic3::new(TransitionSystem::from_aig(aig), config)
    }

    /// The transition system being checked.
    pub fn ts(&self) -> &TransitionSystem {
        &self.ts
    }

    /// The configuration of this engine.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Statistics of the last (or ongoing) [`Ic3::check`] call.
    pub fn statistics(&self) -> &Statistics {
        &self.stats
    }

    /// Number of lemmas currently stored across all frames.
    pub fn num_lemmas(&self) -> usize {
        self.frames.total_lemmas()
    }

    /// The current top frame level.
    pub fn level(&self) -> usize {
        self.frames.top_level()
    }

    // ------------------------------------------------------------------
    // Solver management
    // ------------------------------------------------------------------

    fn make_lift_solver(&self) -> Solver {
        let mut solver = Solver::new();
        solver.set_stop_flag(self.config.stop.clone());
        solver.set_budget(self.config.budget.clone());
        solver.set_fault_plan(self.config.faults.clone());
        solver.ensure_vars(self.ts.num_vars());
        for clause in self.ts.trans() {
            solver.add_clause_ref(clause);
        }
        solver
    }

    fn make_frame_solver(&self, level: usize) -> Solver {
        let mut solver = Solver::new();
        solver.set_stop_flag(self.config.stop.clone());
        solver.set_budget(self.config.budget.clone());
        solver.set_fault_plan(self.config.faults.clone());
        solver.ensure_vars(self.ts.num_vars());
        for clause in self.ts.trans() {
            solver.add_clause_ref(clause);
        }
        if level == 0 {
            for clause in self.ts.init_cnf() {
                solver.add_clause_ref(clause);
            }
        } else {
            for cube in self.frames.cubes_at_or_above(level) {
                solver.add_clause_ref(&cube.negate());
            }
        }
        solver
    }

    /// Rebuilds a frame solver when too many released activation variables are
    /// still pending inside it. Activation literals are normally recycled by
    /// the solver itself (`release_var` + its internal simplification), so the
    /// pending count stays far below `solver_rebuild_threshold` and this is a
    /// safety valve rather than the steady-state cleanup path it used to be.
    fn rebuild_solver_if_needed(&mut self, level: usize) {
        if self.solvers[level].num_released_pending() >= self.config.solver_rebuild_threshold {
            self.solvers[level] = self.make_frame_solver(level);
        }
    }

    fn extend_frames(&mut self) {
        let new_top = self.frames.push_frame();
        self.solvers.push(self.make_frame_solver(new_top));
    }

    pub(crate) fn add_lemma(&mut self, cube: Cube, level: usize) {
        debug_assert!(
            self.ts.cube_excludes_init(&cube),
            "lemma cube must exclude the initial states"
        );
        if self.frames.add(cube.clone(), level) {
            self.stats.lemmas_added += 1;
            let clause = cube.negate();
            for l in 1..=level {
                self.solvers[l].add_clause_ref(&clause);
            }
        }
    }

    // ------------------------------------------------------------------
    // SAT queries
    // ------------------------------------------------------------------

    /// The relative-induction query `sat(F_level ∧ ¬cube ∧ T ∧ cube')`.
    ///
    /// When `include_negated_cube` is false the `¬cube` conjunct is omitted
    /// (used for propagation, where the lemma is already part of the frame).
    pub(crate) fn solve_relative(
        &mut self,
        cube: &Cube,
        level: usize,
        include_negated_cube: bool,
    ) -> SolveRelative {
        self.stats.relative_queries += 1;
        self.rebuild_solver_if_needed(level);
        let ts = &self.ts;
        let primed: Vec<Lit> = cube.iter().map(|l| ts.prime_lit(l)).collect();
        let frame_solver = &mut self.solvers[level];
        let mut assumptions = Vec::with_capacity(primed.len() + 1);
        let mut activation = None;
        if include_negated_cube {
            let act = Lit::pos(frame_solver.new_var());
            let mut clause: Vec<Lit> = vec![!act];
            clause.extend(cube.iter().map(|l| !l));
            frame_solver.add_clause(clause);
            assumptions.push(act);
            activation = Some(act);
        }
        assumptions.extend(primed.iter().copied());
        let result = frame_solver.solve(&assumptions);
        let outcome = match result {
            SatResult::Unsat => {
                let core = if self.config.core_shrink {
                    let solver = &*frame_solver;
                    let mut shrunk: Cube = cube
                        .iter()
                        .filter(|&l| solver.core_contains(ts.prime_lit(l)))
                        .collect();
                    if ts.cube_intersects_init(&shrunk) {
                        // Repair: add back a literal that conflicts with the
                        // initial cube (one exists because `cube` excludes init).
                        let repair = cube
                            .diff(ts.init_cube())
                            .iter()
                            .next()
                            .expect("cube excludes init, so the diff set is non-empty");
                        shrunk = shrunk.with_lit(repair);
                    }
                    shrunk
                } else {
                    cube.clone()
                };
                SolveRelative::Inductive { core }
            }
            SatResult::Sat => {
                // One borrow of the packed model buffer serves all three cube
                // extractions (and the predecessor lift that follows), instead
                // of re-querying the solver literal by literal.
                let model = frame_solver.model();
                SolveRelative::Cti {
                    predecessor: ts.state_cube_from(|v| model.value(v)),
                    inputs: ts.input_cube_from(|v| model.value(v)),
                    successor: ts.next_state_cube_from(|v| model.value(v)),
                }
            }
            // No model exists to read CTI cubes from; surface the interruption.
            SatResult::Unknown => SolveRelative::Aborted,
        };
        if let Some(act) = activation {
            // Retire the activation literal: the solver asserts ¬act, removes
            // the activation clause during its next simplification, and hands
            // the variable back through a later `new_var`.
            frame_solver.release_var(!act);
        }
        outcome
    }

    /// Looks for a state in `F_level` satisfying the bad literal (and all
    /// invariant constraints). Returns the full state cube and the input
    /// valuation under which the violation is observed.
    fn solve_frame_bad(&mut self, level: usize) -> Option<(Cube, Cube)> {
        self.rebuild_solver_if_needed(level);
        let assumptions = self.ts.bad_assumptions();
        let solver = &mut self.solvers[level];
        match solver.solve(&assumptions) {
            SatResult::Sat => {
                let model = solver.model();
                let state = self.ts.state_cube_from(|v| model.value(v));
                let inputs = self.ts.input_cube_from(|v| model.value(v));
                Some((state, inputs))
            }
            _ => None,
        }
    }

    /// Shrinks a predecessor obligation by an unsat-core lifting query: the
    /// returned cube contains the original state and every state in it reaches
    /// `successor` in one step under `inputs`.
    fn lift_predecessor(&mut self, state: &Cube, inputs: &Cube, successor: &Cube) -> Cube {
        self.stats.lift_queries += 1;
        if self.lift_solver.num_released_pending() >= self.config.solver_rebuild_threshold {
            self.lift_solver = self.make_lift_solver();
        }
        let act = Lit::pos(self.lift_solver.new_var());
        let mut clause: Vec<Lit> = vec![!act];
        clause.extend(successor.iter().map(|l| !self.ts.prime_lit(l)));
        self.lift_solver.add_clause(clause);
        let mut assumptions = vec![act];
        assumptions.extend(state.iter());
        assumptions.extend(inputs.iter());
        let result = self.lift_solver.solve(&assumptions);
        let lifted = if result == SatResult::Unsat {
            let solver = &self.lift_solver;
            let lifted: Cube = state.iter().filter(|&l| solver.core_contains(l)).collect();
            if lifted.is_empty() {
                state.clone()
            } else {
                lifted
            }
        } else {
            // Should not happen for a deterministic transition function; fall
            // back to the unlifted state.
            state.clone()
        };
        self.lift_solver.release_var(!act);
        lifted
    }

    fn current_conflicts(&self) -> u64 {
        self.solvers
            .iter()
            .map(|f| f.stats().conflicts)
            .sum::<u64>()
            + self.lift_solver.stats().conflicts
    }

    fn check_limits(&self) -> Option<UnknownReason> {
        if self.config.stop.is_stopped() {
            return Some(UnknownReason::Cancelled);
        }
        if self.config.budget.is_exhausted() {
            return Some(UnknownReason::MemoryOut);
        }
        if let Some(max) = self.config.limits.max_time {
            if self.start.elapsed() >= max {
                return Some(UnknownReason::Timeout);
            }
        }
        if let Some(max) = self.config.limits.max_conflicts {
            if self.current_conflicts() >= max {
                return Some(UnknownReason::ConflictLimit);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Blocking phase
    // ------------------------------------------------------------------

    fn block(&mut self, cube: Cube, level: usize) -> BlockOutcome {
        if level == 0 {
            return BlockOutcome::Counterexample;
        }
        self.stats.obligations += 1;
        loop {
            if let Some(reason) = self.check_limits() {
                return BlockOutcome::LimitReached(reason);
            }
            match self.solve_relative(&cube, level - 1, true) {
                SolveRelative::Inductive { core } => {
                    let started = Instant::now();
                    let mic = self.generalize(core, level);
                    self.stats.generalize_time += started.elapsed();
                    let final_level = self.push_lemma_forward(&mic, level);
                    self.add_lemma(mic, final_level);
                    return BlockOutcome::Blocked;
                }
                SolveRelative::Cti {
                    predecessor,
                    inputs,
                    ..
                } => {
                    let pred = if self.config.lift_predecessors {
                        self.lift_predecessor(&predecessor, &inputs, &cube)
                    } else {
                        predecessor
                    };
                    if self.ts.cube_intersects_init(&pred) {
                        // The obligation cube reaches back into the initial
                        // states: a genuine counterexample starts here.
                        self.cex_chain.push((pred, inputs));
                        return BlockOutcome::Counterexample;
                    }
                    match self.block(pred.clone(), level - 1) {
                        BlockOutcome::Blocked => continue,
                        BlockOutcome::Counterexample => {
                            self.cex_chain.push((pred, inputs));
                            return BlockOutcome::Counterexample;
                        }
                        limit @ BlockOutcome::LimitReached(_) => return limit,
                    }
                }
                SolveRelative::Aborted => {
                    return BlockOutcome::LimitReached(self.interruption_reason());
                }
            }
        }
    }

    /// The reason to report when a SAT query came back interrupted: whichever
    /// limit fired, or a cancellation when the stop flag was raised directly.
    fn interruption_reason(&self) -> UnknownReason {
        self.check_limits().unwrap_or(UnknownReason::Cancelled)
    }

    /// Pushes the generalized lemma forward as far as it stays relatively
    /// inductive (Algorithm 1 lines 19–22). When a push fails, the CTP
    /// successor state is recorded in the `failure_push` table (Algorithm 2
    /// line 38). Returns the final level the lemma holds at.
    pub(crate) fn push_lemma_forward(&mut self, cube: &Cube, start_level: usize) -> usize {
        let mut level = start_level;
        while level < self.frames.top_level() {
            match self.solve_relative(cube, level, false) {
                SolveRelative::Inductive { .. } => level += 1,
                SolveRelative::Cti { successor, .. } => {
                    self.failure_push.insert((cube.clone(), level), successor);
                    self.stats.push_failures_recorded += 1;
                    break;
                }
                // Stop pushing; the enclosing phase notices the interruption.
                SolveRelative::Aborted => break,
            }
        }
        level
    }

    // ------------------------------------------------------------------
    // Propagation phase
    // ------------------------------------------------------------------

    fn propagate(&mut self) -> Result<Option<Certificate>, UnknownReason> {
        // Algorithm 2 line 44: the failure_push table is rebuilt from scratch on
        // every propagation phase.
        self.failure_push.clear();
        let top = self.frames.top_level();
        for level in 1..top {
            let cubes: Vec<Cube> = self.frames.delta(level).to_vec();
            for cube in cubes {
                if let Some(reason) = self.check_limits() {
                    return Err(reason);
                }
                match self.solve_relative(&cube, level, false) {
                    SolveRelative::Inductive { .. } => {
                        if self.frames.promote(&cube, level) {
                            self.solvers[level + 1].add_clause_ref(&cube.negate());
                            self.stats.lemmas_propagated += 1;
                        }
                    }
                    SolveRelative::Cti { successor, .. } => {
                        // Record the counterexample to propagation (CTP).
                        self.failure_push.insert((cube.clone(), level), successor);
                        self.stats.push_failures_recorded += 1;
                    }
                    SolveRelative::Aborted => return Err(self.interruption_reason()),
                }
            }
            if self.frames.is_fixpoint_at(level) {
                let lemmas = self
                    .frames
                    .cubes_at_or_above(level + 1)
                    .map(Cube::negate)
                    .collect();
                return Ok(Some(Certificate { lemmas, level }));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs IC3 until a verdict is reached or a resource limit fires.
    ///
    /// The result is one of:
    ///
    /// * [`CheckResult::Safe`] with an inductive-invariant [`Certificate`]
    ///   (check it with `plic3_check::check_certificate`),
    /// * [`CheckResult::Unsafe`] with a counterexample [`Trace`] (replay it with
    ///   [`Trace::replay_on_aig`]),
    /// * [`CheckResult::Unknown`] when a limit from [`Config::limits`] fired.
    pub fn check(&mut self) -> CheckResult {
        self.start = Instant::now();
        let result = self.run();
        if let CheckResult::Safe(cert) = &result {
            self.stats.certificate_lemmas = cert.lemmas.len() as u64;
        }
        self.stats.runtime = self.start.elapsed();
        self.stats.max_level = self.frames.top_level();
        self.stats.sat_conflicts = self.current_conflicts();
        self.stats.memory_used = self.config.budget.used();
        self.stats.memory_limit = self.config.budget.limit();
        result
    }

    fn run(&mut self) -> CheckResult {
        // 0-step check: a bad state among the initial states.
        if let Some((state, inputs)) = self.solve_frame_bad(0) {
            return CheckResult::Unsafe(Trace::new(vec![state], vec![inputs]));
        }
        loop {
            let level = self.frames.top_level();
            // Blocking phase: make F_level exclude all bad states.
            while let Some((bad_state, bad_inputs)) = self.solve_frame_bad(level) {
                if let Some(reason) = self.check_limits() {
                    return CheckResult::Unknown(reason);
                }
                self.cex_chain.clear();
                match self.block(bad_state.clone(), level) {
                    BlockOutcome::Blocked => {}
                    BlockOutcome::Counterexample => {
                        let mut states: Vec<Cube> =
                            self.cex_chain.iter().map(|(s, _)| s.clone()).collect();
                        let mut inputs: Vec<Cube> =
                            self.cex_chain.iter().map(|(_, i)| i.clone()).collect();
                        states.push(bad_state);
                        inputs.push(bad_inputs);
                        return CheckResult::Unsafe(Trace::new(states, inputs));
                    }
                    BlockOutcome::LimitReached(reason) => return CheckResult::Unknown(reason),
                }
            }
            if let Some(reason) = self.check_limits() {
                return CheckResult::Unknown(reason);
            }
            if let Some(max_frames) = self.config.limits.max_frames {
                if self.frames.top_level() >= max_frames {
                    return CheckResult::Unknown(UnknownReason::FrameLimit);
                }
            }
            // Propagation phase over a fresh top frame.
            self.extend_frames();
            match self.propagate() {
                Ok(Some(certificate)) => return CheckResult::Safe(certificate),
                Ok(None) => {}
                Err(reason) => return CheckResult::Unknown(reason),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;

    /// An n-bit counter with an enable input; bad when the counter reaches
    /// `bad_at`. Safe iff `bad_at >= 2^n` cannot be represented (never) — i.e.
    /// this family is always unsafe unless the counter cannot count (enable
    /// forced low elsewhere). We use it for unsafe cases.
    fn counter_aig(bits: usize, bad_at: u64, free_running: bool) -> Aig {
        let mut b = AigBuilder::new();
        let enable = if free_running {
            b.constant_true()
        } else {
            b.input()
        };
        let state = b.latches(bits, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            let next = b.ite(enable, *n, *s);
            b.set_latch_next(*s, next);
        }
        let bad = b.vec_equals_const(&state, bad_at);
        b.add_bad(bad);
        b.build()
    }

    /// A safe circuit: a one-hot token ring. The bad state (two tokens at once)
    /// is unreachable from the one-hot initial state.
    fn token_ring_aig(n: usize) -> Aig {
        let mut b = AigBuilder::new();
        let cells: Vec<_> = (0..n).map(|i| b.latch(Some(i == 0))).collect();
        for i in 0..n {
            let prev = cells[(i + n - 1) % n];
            b.set_latch_next(cells[i], prev);
        }
        // Bad: two adjacent cells both hold the token.
        let mut bads = Vec::new();
        for i in 0..n {
            let pair = b.and(cells[i], cells[(i + 1) % n]);
            bads.push(pair);
        }
        let bad = b.or_many(&bads);
        b.add_bad(bad);
        b.build()
    }

    fn check_with(aig: &Aig, config: Config) -> (CheckResult, TransitionSystem) {
        let mut engine = Ic3::from_aig(aig, config);
        let result = engine.check();
        (result, engine.ts().clone())
    }

    #[test]
    fn unsafe_counter_produces_replayable_trace() {
        for config in [
            Config::ric3_like(),
            Config::ric3_like().with_lemma_prediction(true),
            Config::ic3ref_like().with_lemma_prediction(true),
        ] {
            let aig = counter_aig(3, 5, false);
            let mut engine = Ic3::from_aig(&aig, config);
            let result = engine.check();
            let trace = result.trace().expect("counter reaches 5");
            assert!(trace.replay_on_aig(engine.ts(), &aig), "trace must replay");
            assert!(trace.len() >= 5, "needs at least 5 steps to reach 5");
            assert_eq!(engine.statistics().certificate_lemmas, 0);
        }
    }

    #[test]
    fn free_running_counter_is_unsafe_even_without_inputs() {
        let aig = counter_aig(3, 7, true);
        let (result, ts) = check_with(&aig, Config::ric3_like());
        let trace = result.trace().expect("reaches 7");
        assert!(trace.replay_on_aig(&ts, &aig));
    }

    #[test]
    fn initially_bad_circuit_gives_zero_step_trace() {
        let mut b = AigBuilder::new();
        let l = b.latch(Some(true));
        b.set_latch_next(l, l);
        b.add_bad(l);
        let aig = b.build();
        let (result, ts) = check_with(&aig, Config::ric3_like());
        let trace = result.trace().expect("bad at reset");
        assert_eq!(trace.len(), 0);
        assert!(trace.replay_on_aig(&ts, &aig));
    }

    #[test]
    fn frame_limit_reports_unknown() {
        // A deep counterexample with a tiny frame budget.
        let aig = counter_aig(4, 12, true);
        let config = Config::ric3_like().with_max_frames(3);
        let (result, _) = check_with(&aig, config);
        assert_eq!(result, CheckResult::Unknown(UnknownReason::FrameLimit));
    }

    #[test]
    fn timeout_reports_unknown() {
        let aig = token_ring_aig(14);
        let config = Config::ric3_like().with_max_time(std::time::Duration::ZERO);
        let (result, _) = check_with(&aig, config);
        assert!(matches!(
            result,
            CheckResult::Unknown(UnknownReason::Timeout) | CheckResult::Unsafe(_)
        ));
        // With a zero budget the run must never (incorrectly) claim Safe
        // without a certificate check; Unsafe is impossible for this circuit,
        // so the only acceptable outcome is a timeout.
        assert_eq!(result, CheckResult::Unknown(UnknownReason::Timeout));
    }

    #[test]
    fn pre_raised_stop_flag_cancels_immediately() {
        let aig = token_ring_aig(8);
        let stop = crate::StopFlag::new();
        stop.stop();
        let config = Config::ric3_like().with_stop_flag(stop);
        let (result, _) = check_with(&aig, config);
        assert_eq!(result, CheckResult::Unknown(UnknownReason::Cancelled));
    }

    #[test]
    fn statistics_track_prediction_counters() {
        let aig = token_ring_aig(6);
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like().with_lemma_prediction(true));
        let result = engine.check();
        assert!(result.is_safe());
        let stats = engine.statistics();
        assert!(stats.generalizations > 0);
        assert!(stats.relative_queries > 0);
        // When prediction is enabled the counters stay consistent.
        assert!(stats.successful_predictions <= stats.predictions || stats.predictions == 0);
        assert!(stats.successful_predictions <= stats.generalizations);
        // And the baseline never predicts.
        let mut baseline = Ic3::from_aig(&aig, Config::ric3_like());
        let _ = baseline.check();
        assert_eq!(baseline.statistics().predictions, 0);
        assert_eq!(baseline.statistics().successful_predictions, 0);
    }
}
