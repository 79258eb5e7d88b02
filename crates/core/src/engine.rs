//! The IC3 engine: frame solvers, the blocking phase, and propagation.

use crate::cti_cache::{bit, CtiCache, Transition};
use crate::frames::{Frames, Level};
use crate::state_cube::StateCube;
use crate::{Certificate, CheckResult, Config, Statistics, UnknownReason};
use plic3_aig::Aig;
use plic3_logic::{Cube, Lit, Var};
use plic3_sat::{ModelView, ResourceBudget, SatResult, Solver, StopCause};
use plic3_ts::{Trace, TransitionSystem};
use std::time::Instant;

/// Outcome of a relative-induction query (`sat(F_i ∧ ¬c ∧ T ∧ c')`).
pub(crate) enum SolveRelative {
    /// The clause `¬c` is inductive relative to the frame. `core` is a subset of
    /// the cube's literals that suffices for the proof and still excludes the
    /// initial states (equal to the input cube when core shrinking is off).
    Inductive {
        /// Sufficient sub-cube.
        core: StateCube,
    },
    /// A counterexample to induction exists: a transition `(s, x, t)` with
    /// `s ∈ F_i` (and `s ∉ c` when asked) and `t ∈ c`. It is packed in
    /// [`Ic3::cti`] until the next query that has a model; `t` is the CTP
    /// successor of the paper.
    Cti,
    /// The query was interrupted (the run's budget stopped) before a
    /// verdict; the caller must bail out without drawing conclusions.
    Aborted,
}

/// One entry of the blocking phase's obligation stack. The bottom entry is a
/// bad state; each entry above it is a predecessor of the one below, one
/// level lower.
struct Obligation {
    /// The cube to block. Under `inputs` every state in it reaches the cube
    /// of the entry below or, at the bottom, violates the property.
    cube: StateCube,
    /// The state a counterexample trace reports for this entry.
    state: Cube,
    /// The inputs that take `state` into the entry below or, at the bottom,
    /// under which it violates the property.
    inputs: Cube,
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
    /// One [`Level`] per frame: its solver, lemmas, `failure_push` table
    /// and recorded CTIs.
    pub(crate) frames: Frames,
    /// The solver [`Ic3::make_trans_solver`] builds, never solved: every
    /// other solver starts as a copy of it.
    trans_solver: Solver,
    lift_solver: Solver,
    /// Holds the packed SAT answer of the last relative query, and packs and
    /// finds the recent answers that each level keeps, answering later
    /// queries without the solver (`solve_relative`).
    ctis: CtiCache,
    /// The initial states, as a cube over the latches.
    pub(crate) init: StateCube,
    /// Scratch space of `solve_relative`'s assumptions, reused across
    /// queries.
    assumptions: Vec<Lit>,
    /// Scratch space of the bad-state lift (`justify`), reused across
    /// queries: a mark per variable and the variables marked so far.
    justify_marks: Vec<bool>,
    justify_queue: Vec<Var>,
    pub(crate) stats: Statistics,
    start: Instant,
}

impl Ic3 {
    /// Creates an engine for `ts` with the given configuration.
    pub fn new(ts: TransitionSystem, config: Config) -> Self {
        let trans_solver = Ic3::make_trans_solver(&ts, &config.budget);
        let lift_solver = trans_solver.clone();
        let mut init = trans_solver.clone();
        for clause in ts.init_cnf() {
            init.add_clause_ref(clause);
        }
        let mut frames = Frames::new(config.budget.clone());
        frames.push_frame(init);
        let ctis = CtiCache::new(&ts, config.budget.clone());
        let ts_vars = ts.num_vars();
        let mut engine = Ic3 {
            init: StateCube::from_lits(ts.init_cube(), ts.num_latches()),
            ts,
            config,
            frames,
            trans_solver,
            lift_solver,
            ctis,
            assumptions: Vec::new(),
            justify_marks: vec![false; ts_vars],
            justify_queue: Vec::new(),
            stats: Statistics::new(),
            start: Instant::now(),
        };
        engine.extend_frames();
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

    /// Statistics of the last (or ongoing) [`Ic3::check`] call.
    pub fn statistics(&self) -> &Statistics {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Solver management
    // ------------------------------------------------------------------

    /// A solver loaded with the transition relation (built once, in
    /// [`Ic3::new`]; the lifting solver and every frame solver start as a
    /// copy of it) that decides only latch and input variables. Every other
    /// variable of the encoding (primed, constant and Tseitin gate variables)
    /// is defined by `T`'s clauses, so once the latches and inputs are
    /// assigned, propagation assigns the rest and each SAT model is total.
    fn make_trans_solver(ts: &TransitionSystem, budget: &ResourceBudget) -> Solver {
        let mut solver = Solver::new();
        solver.set_budget(budget.clone());
        solver.ensure_vars(ts.num_vars());
        // The encoding numbers the latches, then the inputs, first.
        let decided = ts.num_latches() + ts.num_inputs();
        for v in decided..ts.num_vars() {
            solver.set_decision_var(Var::new(v as u32), false);
        }
        for clause in ts.trans() {
            solver.add_clause_ref(clause);
        }
        solver
    }

    /// Adds a new top level. It has no lemmas yet, so its solver is a copy
    /// of the transition solver.
    pub(crate) fn extend_frames(&mut self) {
        self.frames.push_frame(self.trans_solver.clone());
    }

    pub(crate) fn add_lemma(&mut self, cube: StateCube, level: usize) {
        debug_assert!(
            excludes_init_by_diff(&self.ts, &cube.to_cube()),
            "lemma cube must exclude the initial states"
        );
        if self.frames.add(cube, level) {
            self.stats.lemmas_added += 1;
        }
    }

    // ------------------------------------------------------------------
    // SAT queries
    // ------------------------------------------------------------------

    /// The relative-induction query `sat(F_level ∧ ¬cube ∧ T ∧ cube')`.
    ///
    /// When `include_negated_cube` is false the `¬cube` conjunct is omitted
    /// (used for propagation, where the lemma is already part of the frame).
    ///
    /// At levels `≥ 1` a recorded CTI that is still a model of the query
    /// answers it without the solver; every SAT answer the solver gives there
    /// is recorded. A SAT answer leaves its transition in [`Ic3::cti`].
    pub(crate) fn solve_relative(
        &mut self,
        cube: &StateCube,
        level: usize,
        include_negated_cube: bool,
    ) -> SolveRelative {
        self.stats.relative_queries += 1;
        if level > 0
            && self
                .ctis
                .lookup(&mut self.frames, cube, level, include_negated_cube)
        {
            self.stats.cached_ctis += 1;
            debug_assert!(
                self.is_model_of_query(cube, level, include_negated_cube),
                "cached CTI is not a model of the level-{level} query"
            );
            return SolveRelative::Cti;
        }
        let (ts, init) = (&self.ts, &self.init);
        let clock = self.frames.clock();
        let Level {
            solver: frame_solver,
            ctis: slots,
            ..
        } = &mut self.frames[level];
        let assumptions = &mut self.assumptions;
        assumptions.clear();
        assumptions.extend(cube.iter().map(|l| ts.prime_lit(l)));
        let result = if include_negated_cube {
            frame_solver.solve_with_clause(cube.iter().map(|l| !l), assumptions)
        } else {
            frame_solver.solve(assumptions)
        };
        match result {
            SatResult::Unsat => {
                let in_core = |&l: &Lit| frame_solver.core_contains(ts.prime_lit(l));
                let mut core = StateCube::from_lits(cube.iter().filter(in_core), ts.num_latches());
                if core.intersects(init) {
                    // Repair: add back a literal that conflicts with the
                    // initial cube (one exists because `cube` excludes init).
                    let repair = cube
                        .iter()
                        .find(|&l| init.contains(!l))
                        .expect("cube excludes init, so the diff set is non-empty");
                    core.insert(repair);
                }
                SolveRelative::Inductive { core }
            }
            SatResult::Sat => {
                let model = frame_solver.model();
                debug_assert!(model_is_total(ts, model), "partial model at level {level}");
                self.ctis.pack(|v| model.value(v));
                if level > 0 {
                    self.ctis.record(slots, clock);
                }
                SolveRelative::Cti
            }
            // No model exists to read a CTI from; surface the interruption.
            SatResult::Unknown => SolveRelative::Aborted,
        }
    }

    /// The transition of the last relative query answered
    /// [`SolveRelative::Cti`].
    pub(crate) fn cti(&self) -> Transition<'_> {
        self.ctis.answer()
    }

    /// Records the successor of the last CTI as the CTP of pushing `cube`
    /// from `level` in the `failure_push` table (Algorithm 2 line 38),
    /// reusing the words of an entry it replaces.
    pub(crate) fn record_ctp(&mut self, cube: &StateCube, level: usize) {
        let t = self.ctis.answer().t;
        let table = &mut self.frames[level].failure_push;
        match table.get_mut(cube) {
            Some(words) => words.copy_from_slice(t),
            None => {
                table.insert(cube.clone(), t.into());
            }
        }
    }

    /// Re-establishes a cached answer from scratch, on cubes read off its bits:
    /// `t` lies in `cube` and `s` outside it (when asked), a full scan of
    /// `F_level` keeps `s`, and the lift solver finds `s ∧ x ∧ T ∧ t′` SAT.
    fn is_model_of_query(&mut self, cube: &StateCube, level: usize, outside_cube: bool) -> bool {
        let cti = self.cti();
        let predecessor = cti.predecessor(&self.ts);
        let inputs = cti.inputs(&self.ts);
        let successor = self.ts.state_cube_from(|v| Some(bit(cti.t, v.index())));
        let cube = cube.to_cube();
        if !cube.subsumes(&successor)
            || (outside_cube && cube.subsumes(&predecessor))
            || self.frames.blocked(level, |l| predecessor.contains(l))
        {
            return false;
        }
        let mut assumptions: Vec<Lit> = predecessor.iter().chain(inputs.iter()).collect();
        assumptions.extend(successor.iter().map(|l| self.ts.prime_lit(l)));
        // `Unknown` is an interruption (the run's budget stopped), not a refutation.
        self.lift_solver.solve(&assumptions) != SatResult::Unsat
    }

    /// Looks for a state in `F_level` satisfying the bad literal and all
    /// invariant constraints, and returns it as the bottom entry of an
    /// obligation stack (`None` when the frame excludes every bad state). On a
    /// SAT answer the state is lifted without a further SAT call: `justify`
    /// walks the cone of `bad ∧ constraints` under the model and keeps only
    /// the latches it needs, so the obligation cube drives the property false
    /// under the entry's inputs from every state it contains. Above level 0
    /// (where `run` has refuted `F_0 ∧ bad`) the cube therefore excludes the
    /// initial states.
    fn solve_frame_bad(&mut self, level: usize) -> Result<Option<Obligation>, UnknownReason> {
        let assumptions = self.ts.bad_assumptions();
        let solver = &mut self.frames[level].solver;
        match solver.solve(&assumptions) {
            SatResult::Sat => {}
            SatResult::Unsat => return Ok(None),
            SatResult::Unknown => return Err(self.interruption_reason()),
        }
        let model = solver.model();
        debug_assert!(
            model_is_total(&self.ts, model),
            "partial model at level {level}"
        );
        let state = self.ts.state_cube_from(|v| model.value(v));
        let inputs = self.ts.input_cube_from(|v| model.value(v));
        let cube = justify(
            &self.ts,
            model,
            &assumptions,
            &mut self.justify_marks,
            &mut self.justify_queue,
        );
        self.stats.bad_states += 1;
        self.stats.bad_literals_lifted += (state.len() - cube.len()) as u64;
        debug_assert!(
            self.is_lifted_bad_cube(&cube, &state, &inputs, level),
            "lifted bad cube at level {level} does not justify the bad state"
        );
        Ok(Some(Obligation {
            cube: StateCube::from_lits(&cube, self.ts.num_latches()),
            state,
            inputs,
        }))
    }

    /// Re-establishes a lifted bad cube on the lift solver: it is a subset
    /// of the full state, it excludes the initial states (above level 0),
    /// and `cube ∧ inputs ∧ T ∧ ¬(bad ∧ constraints)` is unsatisfiable.
    fn is_lifted_bad_cube(
        &mut self,
        cube: &Cube,
        state: &Cube,
        inputs: &Cube,
        level: usize,
    ) -> bool {
        if !cube.subsumes(state) || (level > 0 && !excludes_init_by_diff(&self.ts, cube)) {
            return false;
        }
        let not_bad = self.ts.bad_assumptions().into_iter().map(|l| !l);
        let assumptions: Vec<Lit> = cube.iter().chain(inputs.iter()).collect();
        // `Unknown` is an interruption (the run's budget stopped), not a model.
        self.lift_solver.solve_with_clause(not_bad, &assumptions) != SatResult::Sat
    }

    /// Shrinks a predecessor obligation by an unsat-core lifting query: the
    /// returned cube contains the original state and every state in it reaches
    /// `successor` in one step under `inputs`.
    fn lift_predecessor(&mut self, state: &Cube, inputs: &Cube, successor: &StateCube) -> Cube {
        self.stats.lift_queries += 1;
        let ts = &self.ts;
        let assumptions: Vec<Lit> = state.iter().chain(inputs.iter()).collect();
        let not_successor = successor.iter().map(|l| !ts.prime_lit(l));
        let solver = &mut self.lift_solver;
        if solver.solve_with_clause(not_successor, &assumptions) != SatResult::Unsat {
            // Should not happen for a deterministic transition function; fall
            // back to the unlifted state.
            return state.clone();
        }
        let lifted: Cube = state.iter().filter(|&l| solver.core_contains(l)).collect();
        if lifted.is_empty() {
            state.clone()
        } else {
            lifted
        }
    }

    fn current_conflicts(&self) -> u64 {
        self.frames
            .levels()
            .map(|l| l.solver.stats().conflicts)
            .sum::<u64>()
            + self.lift_solver.stats().conflicts
    }

    /// Polls the run's budget, its deadline included, and reports its first
    /// stop cause.
    fn check_limits(&self) -> Result<(), UnknownReason> {
        self.config.budget.poll_deadline();
        match self.config.budget.stop_cause() {
            None => Ok(()),
            Some(StopCause::Deadline) => Err(UnknownReason::Timeout),
            Some(StopCause::Cancelled) => Err(UnknownReason::Cancelled),
            Some(StopCause::MemoryOut) => Err(UnknownReason::MemoryOut),
        }
    }

    // ------------------------------------------------------------------
    // Blocking phase
    // ------------------------------------------------------------------

    /// Blocks the bad state `bad` of `F_level` (Algorithm 1's `block`) with
    /// one stack of proof obligations, worked last-in first-out: the entry
    /// `d` deep is at level `level - d`. The top entry is blocked by a lemma
    /// and popped, or its predecessor is pushed. A predecessor at level 0 or
    /// in the initial states ends the search: the stack, read from the top,
    /// is then the counterexample. Returns `None` once the stack is empty.
    fn block(&mut self, bad: Obligation, level: usize) -> Result<Option<Trace>, UnknownReason> {
        let mut stack = Vec::new();
        let mut pushed = Some(bad);
        loop {
            if let Some(obligation) = pushed.take() {
                let reached = stack.len() == level || obligation.cube.intersects(&self.init);
                stack.push(obligation);
                if reached {
                    let (states, inputs) =
                        stack.into_iter().rev().map(|o| (o.state, o.inputs)).unzip();
                    return Ok(Some(Trace::new(states, inputs)));
                }
                self.stats.obligations += 1;
            }
            let Some(top) = stack.last() else {
                return Ok(None);
            };
            let at = level + 1 - stack.len();
            self.check_limits()?;
            match self.solve_relative(&top.cube, at - 1, true) {
                SolveRelative::Inductive { core } => {
                    let started = Instant::now();
                    let mic = self.generalize(core, at);
                    self.stats.generalize_time += started.elapsed();
                    let final_level = self.push_lemma_forward(&mic, at);
                    self.add_lemma(mic, final_level);
                    stack.pop();
                }
                SolveRelative::Cti => {
                    let state = self.cti().predecessor(&self.ts);
                    let inputs = self.cti().inputs(&self.ts);
                    let state = self.lift_predecessor(&state, &inputs, &top.cube);
                    pushed = Some(Obligation {
                        cube: StateCube::from_lits(&state, self.ts.num_latches()),
                        state,
                        inputs,
                    });
                }
                SolveRelative::Aborted => return Err(self.interruption_reason()),
            }
        }
    }

    /// The reason to report when a SAT query came back interrupted: the cause
    /// that stopped the run's budget (a frame solver polls nothing else).
    fn interruption_reason(&self) -> UnknownReason {
        self.check_limits()
            .err()
            .unwrap_or(UnknownReason::Cancelled)
    }

    /// Pushes the generalized lemma forward as far as it stays relatively
    /// inductive (Algorithm 1 lines 19–22). When a push fails, the CTP
    /// successor state is recorded in the `failure_push` table (Algorithm 2
    /// line 38, [`Ic3::record_ctp`]). Returns the final level the lemma holds
    /// at.
    pub(crate) fn push_lemma_forward(&mut self, cube: &StateCube, start_level: usize) -> usize {
        let mut level = start_level;
        while level < self.frames.top_level() {
            match self.solve_relative(cube, level, false) {
                SolveRelative::Inductive { .. } => level += 1,
                SolveRelative::Cti => {
                    self.record_ctp(cube, level);
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
        for l in self.frames.levels_mut() {
            l.failure_push.clear();
        }
        let top = self.frames.top_level();
        for level in 1..top {
            let cubes: Vec<StateCube> = self.frames.delta(level).cloned().collect();
            for cube in cubes {
                self.check_limits()?;
                match self.solve_relative(&cube, level, false) {
                    SolveRelative::Inductive { .. } => {
                        if self.frames.promote(&cube, level) {
                            self.stats.lemmas_propagated += 1;
                        }
                    }
                    SolveRelative::Cti => {
                        // Record the counterexample to propagation (CTP).
                        self.record_ctp(&cube, level);
                        self.stats.push_failures_recorded += 1;
                    }
                    SolveRelative::Aborted => return Err(self.interruption_reason()),
                }
            }
            if self.frames.is_fixpoint_at(level) {
                let lemmas = self
                    .frames
                    .cubes_at_or_above(level + 1)
                    .map(StateCube::negate)
                    .collect();
                return Ok(Some(Certificate { lemmas, level }));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs IC3 until a verdict is reached or the run's budget stops.
    ///
    /// The result is one of:
    ///
    /// * [`CheckResult::Safe`] with an inductive-invariant [`Certificate`]
    ///   (check it with `plic3_check::check_certificate`),
    /// * [`CheckResult::Unsafe`] with a counterexample [`Trace`] (replay it with
    ///   [`Trace::replay_on_aig`]),
    /// * [`CheckResult::Unknown`] when the run's [`Config::budget`] stopped
    ///   (its deadline passed, it was cancelled or it ran out of memory).
    pub fn check(&mut self) -> CheckResult {
        self.start = Instant::now();
        let result = self.run().unwrap_or_else(CheckResult::Unknown);
        if let CheckResult::Safe(cert) = &result {
            self.stats.certificate_lemmas = cert.lemmas.len() as u64;
        }
        self.stats.runtime = self.start.elapsed();
        self.stats.max_level = self.frames.top_level();
        self.stats.sat_conflicts = self.current_conflicts();
        self.stats.memory_used = self.config.budget.used();
        result
    }

    fn run(&mut self) -> Result<CheckResult, UnknownReason> {
        // Level 0 checks the initial states for a bad state; `new` has
        // already built F_1, so level 1 follows it without a propagation.
        for level in 0.. {
            // Blocking phase: make F_level exclude all bad states.
            while let Some(bad) = self.solve_frame_bad(level)? {
                if let Some(trace) = self.block(bad, level)? {
                    return Ok(CheckResult::Unsafe(trace));
                }
            }
            if level > 0 {
                self.check_limits()?;
                // Propagation phase over a fresh top frame.
                self.extend_frames();
                if let Some(certificate) = self.propagate()? {
                    return Ok(CheckResult::Safe(certificate));
                }
            }
        }
        unreachable!("the level loop only ends with a verdict")
    }
}

/// Lifts a bad state by justification: walks the cone of `roots` (literals
/// true under `model`, a total model of `T`) backward and returns the latch
/// literals the walk reaches. A true gate needs both inputs; a false gate
/// needs one false input, preferring one already needed, then a primary input
/// or the constant (which cost no latch), else the first. Every state that
/// agrees with the returned cube makes `roots` true under the model's inputs.
///
/// `marks` (one flag per variable, all clear) and `queue` (empty) are scratch
/// space; both are left as found. The walk is linear in the cone it visits.
fn justify(
    ts: &TransitionSystem,
    model: ModelView<'_>,
    roots: &[Lit],
    marks: &mut [bool],
    queue: &mut Vec<Var>,
) -> Cube {
    let value = |l: Lit| model.lit_value(l).expect("frame models are total");
    let need = |v: Var, marks: &mut [bool], queue: &mut Vec<Var>| {
        if !std::mem::replace(&mut marks[v.index()], true) {
            queue.push(v);
        }
    };
    for &root in roots {
        debug_assert!(value(root), "root {root} is false in the model");
        need(root.var(), marks, queue);
    }
    let mut next = 0;
    while let Some(&v) = queue.get(next) {
        next += 1;
        let Some((a, b)) = ts.gate(v) else {
            continue;
        };
        if value(Lit::pos(v)) {
            need(a.var(), marks, queue);
            need(b.var(), marks, queue);
            continue;
        }
        let free = |l: Lit| !ts.is_latch_var(l.var()) && ts.gate(l.var()).is_none();
        let pick = match (value(a), value(b)) {
            (false, true) => a,
            (true, false) => b,
            _ if marks[b.var().index()] && !marks[a.var().index()] => b,
            _ if marks[a.var().index()] => a,
            _ if free(b) && !free(a) => b,
            _ => a,
        };
        need(pick.var(), marks, queue);
    }
    let cube = queue
        .iter()
        .filter(|&&v| ts.is_latch_var(v))
        .map(|&v| Lit::new(v, value(Lit::pos(v))))
        .collect();
    for v in queue.drain(..) {
        marks[v.index()] = false;
    }
    cube
}

/// Whether `cube` excludes the initial states: by Theorem 3.2, whether its
/// diff set against the initial cube is non-empty. Independent of [`StateCube`].
pub(crate) fn excludes_init_by_diff(ts: &TransitionSystem, cube: &Cube) -> bool {
    !cube.diff(ts.init_cube()).is_empty()
}

/// Whether a frame solver's model assigns every latch, input and primed
/// variable. The predecessor, its inputs and the CTP successor `t` that
/// prediction diffs against are read from these, so a partial model would
/// silently shrink them.
fn model_is_total(ts: &TransitionSystem, model: ModelView<'_>) -> bool {
    ts.latch_vars()
        .chain(ts.input_vars())
        .chain(ts.primed_vars())
        .all(|v| model.value(v).is_some())
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
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let trace = result.trace().expect("bad at reset");
        assert_eq!(trace.len(), 0);
        assert!(trace.replay_on_aig(engine.ts(), &aig));
        // The bad state is a stack of one at level 0: no obligation to block.
        assert_eq!(engine.statistics().obligations, 0);
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
        let budget = crate::ResourceBudget::unlimited();
        budget.cancel();
        let config = Config::ric3_like().with_budget(budget);
        let (result, _) = check_with(&aig, config);
        assert_eq!(result, CheckResult::Unknown(UnknownReason::Cancelled));
    }

    #[test]
    fn the_first_stop_cause_is_the_one_reported() {
        let aig = token_ring_aig(8);
        // Out of memory, then cancelled: still a memory-out.
        let budget = crate::ResourceBudget::with_limit(1);
        budget.charge(2);
        budget.cancel();
        let (result, _) = check_with(&aig, Config::ric3_like().with_budget(budget));
        assert_eq!(result, CheckResult::Unknown(UnknownReason::MemoryOut));
        // Cancelled, then out of memory: still a cancellation.
        let budget = crate::ResourceBudget::with_limit(1);
        budget.cancel();
        budget.charge(2);
        let (result, _) = check_with(&aig, Config::ric3_like().with_budget(budget));
        assert_eq!(result, CheckResult::Unknown(UnknownReason::Cancelled));
    }

    #[test]
    fn interrupted_bad_query_reports_the_interruption() {
        let aig = token_ring_aig(8);
        let budget = crate::ResourceBudget::unlimited();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like().with_budget(budget.clone()));
        assert!(matches!(engine.solve_frame_bad(1), Ok(Some(_))));
        budget.cancel();
        assert!(matches!(
            engine.solve_frame_bad(1),
            Err(UnknownReason::Cancelled)
        ));
        assert_eq!(engine.interruption_reason(), UnknownReason::Cancelled);
    }

    /// Four latches; `bad` is `l0 ⊕ l1` and the constraint `l2 ∨ x` (`x` an
    /// input). `l3` feeds only `l1`'s next state, so it stays in the cone.
    fn lift_aig() -> Aig {
        let mut b = AigBuilder::new();
        let x = b.input();
        let l = b.latches(4, Some(false));
        b.set_latch_next(l[0], l[2]);
        b.set_latch_next(l[1], l[3]);
        b.set_latch_next(l[2], x);
        b.set_latch_next(l[3], !l[3]);
        let bad = b.xor(l[0], l[1]);
        b.add_bad(bad);
        let constraint = b.or(l[2], x);
        b.add_constraint(constraint);
        b.build()
    }

    #[test]
    fn bad_states_are_lifted_to_the_support_of_bad_and_constraints() {
        let aig = lift_aig();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let ts = engine.ts().clone();
        assert_eq!((ts.num_latches(), ts.num_inputs()), (4, 1));
        let l: Vec<Var> = ts.latch_vars().collect();
        let x = Lit::pos(ts.input_var(0));
        let mut obligations = 0;
        while let Some(Obligation {
            cube,
            state,
            inputs,
        }) = engine.solve_frame_bad(1).expect("no limit is set")
        {
            let cube = cube.to_cube();
            obligations += 1;
            assert!(obligations <= 4, "a blocked bad state came back");
            assert!(cube.subsumes(&state), "the cube is part of the state");
            assert!(excludes_init_by_diff(&ts, &cube));
            // `l0` and `l1` decide the xor. The constraint costs `l2` only
            // when the input cannot justify it; `l3` never appears.
            assert!(cube.mentions(l[0]) && cube.mentions(l[1]), "{cube}");
            assert_eq!(cube.mentions(l[2]), !inputs.contains(x), "{cube}");
            assert!(!cube.mentions(l[3]), "{cube}");
            assert_eq!(cube.len(), 2 + usize::from(cube.mentions(l[2])));
            engine.add_lemma(StateCube::from_lits(&cube, 4), 1);
        }
        assert!(obligations >= 2, "both xor patterns are bad");
        let stats = engine.statistics();
        assert_eq!(stats.bad_states, obligations);
        assert!(
            stats.bad_literals_lifted >= obligations,
            "l3 is dropped every time"
        );
    }

    #[test]
    fn cached_cti_is_dropped_once_a_lemma_excludes_its_predecessor() {
        // The 3-bit enabled counter reaches 5 only from 4 with the enable
        // high, so `sat(F_1 ∧ ¬c ∧ T ∧ c′)` for c = "counter is 5" has the one
        // model s = 4.
        let aig = counter_aig(3, 5, false);
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let bits: Vec<Var> = engine.ts().latch_vars().collect();
        let value =
            |n: u32| Cube::from_lits(bits.iter().map(|&v| Lit::new(v, n >> v.index() & 1 == 1)));
        let five = StateCube::from_lits(value(5), 3);
        let predecessor = |engine: &mut Ic3| match engine.solve_relative(&five, 1, true) {
            SolveRelative::Cti => Some(engine.cti().predecessor(engine.ts())),
            _ => None,
        };
        let first = predecessor(&mut engine);
        assert_eq!(first, Some(value(4)));
        assert_eq!(
            engine.statistics().cached_ctis,
            0,
            "the solver answers first"
        );
        let again = predecessor(&mut engine);
        assert_eq!(again, Some(value(4)));
        assert_eq!(
            engine.statistics().cached_ctis,
            1,
            "the repeat comes from the cache"
        );
        // A lemma more general than s = 4 lands in F_1: the recorded
        // transition is no longer a model, and no other one exists.
        let top_bit = StateCube::from_lits([Lit::pos(bits[2])], 3);
        engine.add_lemma(top_bit, 1);
        let after = engine.solve_relative(&five, 1, true);
        assert!(matches!(after, SolveRelative::Inductive { .. }));
        assert_eq!(engine.statistics().cached_ctis, 1);
        assert_eq!(engine.statistics().relative_queries, 3);
    }

    /// After a run under every preset, the solver of each level `i ≥ 1`
    /// refutes every cube of `F_i`, and the solver of level 0 holds `I` and
    /// no lemma.
    #[test]
    fn level_solvers_hold_their_frames() {
        let presets = [
            Config::ric3_like(),
            Config::ric3_like().with_lemma_prediction(true),
            Config::ic3ref_like(),
            Config::ic3ref_like().with_lemma_prediction(true),
            Config::cav23_like(),
            Config::pdr_like(),
        ];
        for (aig, safe) in [(token_ring_aig(6), true), (counter_aig(3, 5, false), false)] {
            for config in presets.clone() {
                let mut engine = Ic3::from_aig(&aig, config);
                assert_eq!(engine.check().is_safe(), safe);
                let ts = engine.ts().clone();
                let frames = &mut engine.frames;
                let top = frames.top_level();
                assert!(top >= 2, "the run built frames above F_1");
                for level in 1..=top {
                    let cubes: Vec<Cube> = frames
                        .cubes_at_or_above(level)
                        .map(StateCube::to_cube)
                        .collect();
                    for cube in cubes {
                        let lits: Vec<Lit> = cube.iter().collect();
                        assert_eq!(
                            frames[level].solver.solve(&lits),
                            SatResult::Unsat,
                            "level {level} solver admits {cube}"
                        );
                    }
                }
                assert_eq!(frames.delta(0).len(), 0);
                let init = &mut frames[0].solver;
                let init_lits: Vec<Lit> = ts.init_cube().iter().collect();
                assert_eq!(init.solve(&init_lits), SatResult::Sat);
                for l in ts.latch_vars().flat_map(|v| [Lit::pos(v), Lit::neg(v)]) {
                    let expected = if ts.init_cube().contains(!l) {
                        SatResult::Unsat
                    } else {
                        SatResult::Sat
                    };
                    assert_eq!(init.solve(&[l]), expected, "level 0 solver on {l}");
                }
            }
        }
    }

    /// A fixed set of assumptions over latches, inputs and primed latches,
    /// with the bad-state query.
    fn probe_assumptions(ts: &TransitionSystem) -> Vec<Vec<Lit>> {
        let vars = ts.latch_vars().chain(ts.input_vars());
        let mut probes: Vec<Vec<Lit>> = vars
            .flat_map(|v| [vec![Lit::pos(v)], vec![Lit::neg(v)]])
            .collect();
        probes.extend(ts.latch_vars().map(|v| vec![ts.prime_lit(Lit::pos(v))]));
        probes.push(ts.init_cube().iter().collect());
        probes.push(ts.bad_assumptions());
        probes
    }

    /// One answer of `solver`: the verdict with its model or its core.
    fn answer(
        solver: &mut Solver,
        assumptions: &[Lit],
    ) -> (SatResult, Vec<Option<bool>>, Vec<Lit>) {
        let result = solver.solve(assumptions);
        let mut model = Vec::new();
        if result == SatResult::Sat {
            let view = solver.model();
            model = (0..solver.num_vars() as u32)
                .map(|v| view.value(Var::new(v)))
                .collect();
        }
        let core = match result {
            SatResult::Unsat => solver.unsat_core().to_vec(),
            _ => Vec::new(),
        };
        (result, model, core)
    }

    /// The top level's solver matches a fresh [`Ic3::make_trans_solver`] in
    /// its statistics and in its answers to [`probe_assumptions`].
    fn assert_top_starts_as_the_transition_solver(engine: &mut Ic3) {
        let mut fresh = Ic3::make_trans_solver(&engine.ts, &engine.config.budget);
        let top = engine.frames.top_level();
        let solver = &mut engine.frames[top].solver;
        assert_eq!(solver.stats(), fresh.stats(), "level {top}");
        for assumptions in probe_assumptions(&engine.ts) {
            assert_eq!(
                answer(solver, &assumptions),
                answer(&mut fresh, &assumptions),
                "level {top} under {assumptions:?}"
            );
            assert_eq!(solver.stats(), fresh.stats(), "level {top}");
        }
    }

    #[test]
    fn each_new_level_starts_as_the_transition_solver() {
        let config = Config::ric3_like().with_lemma_prediction(true);
        for (aig, safe) in [(token_ring_aig(6), true), (counter_aig(3, 5, false), false)] {
            let mut engine = Ic3::from_aig(&aig, config.clone());
            assert_eq!(engine.frames.top_level(), 1);
            assert_top_starts_as_the_transition_solver(&mut engine);
            engine.extend_frames();
            assert_top_starts_as_the_transition_solver(&mut engine);
            // A whole run leaves the transition solver as it was built.
            let mut engine = Ic3::from_aig(&aig, config.clone());
            assert_eq!(engine.check().is_safe(), safe);
            engine.extend_frames();
            assert_top_starts_as_the_transition_solver(&mut engine);
        }
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
        // Every successful prediction follows the query that validated it.
        assert!(stats.successful_predictions <= stats.predictions);
        assert!(stats.successful_predictions <= stats.generalizations);
        // And the baseline never predicts.
        let mut baseline = Ic3::from_aig(&aig, Config::ric3_like());
        let _ = baseline.check();
        assert_eq!(baseline.statistics().predictions, 0);
        assert_eq!(baseline.statistics().successful_predictions, 0);
    }
}
