//! Incremental bounded model checking.

use plic3_logic::Cube;
use plic3_sat::{ResourceBudget, SatResult, SearchConfig, Solver};
use plic3_ts::{Trace, TransitionSystem, Unroller};
use std::fmt;

/// The verdict of a bounded model-checking run.
#[derive(Clone, Debug, PartialEq)]
pub enum BmcResult {
    /// A counterexample of exactly `depth` transition steps was found.
    Unsafe {
        /// The violating execution.
        trace: Trace,
        /// Number of transition steps of the counterexample.
        depth: usize,
    },
    /// No counterexample exists with at most `depth` transition steps.
    NoCounterexample {
        /// The bound that was fully explored.
        depth: usize,
    },
    /// The per-call conflict budget was exhausted.
    Unknown,
}

impl BmcResult {
    /// Returns `true` if a counterexample was found.
    pub fn is_unsafe(&self) -> bool {
        matches!(self, BmcResult::Unsafe { .. })
    }

    /// The counterexample trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            BmcResult::Unsafe { trace, .. } => Some(trace),
            _ => None,
        }
    }
}

/// The outcome of a single-depth query ([`Bmc::check_depth_status`]).
#[derive(Clone, Debug, PartialEq)]
pub enum BmcDepthStatus {
    /// A counterexample of exactly the queried depth exists.
    Unsafe(Trace),
    /// The queried depth is proven free of counterexamples.
    Clean,
    /// The query was interrupted (conflict budget or run budget): nothing may
    /// be concluded about this depth.
    Unknown,
}

impl fmt::Display for BmcResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcResult::Unsafe { depth, .. } => write!(f, "unsafe at depth {depth}"),
            BmcResult::NoCounterexample { depth } => {
                write!(f, "no counterexample up to depth {depth}")
            }
            BmcResult::Unknown => write!(f, "unknown"),
        }
    }
}

/// An incremental bounded model checker.
///
/// The transition relation is unrolled frame by frame into a single
/// incremental SAT solver; the bad-state check at each depth is posed through
/// assumptions so learnt clauses are shared across depths.
pub struct Bmc<'a> {
    ts: &'a TransitionSystem,
    unroller: Unroller<'a>,
    solver: Solver,
    /// Number of time frames whose combinational logic has been loaded.
    loaded_frames: usize,
}

impl<'a> Bmc<'a> {
    /// Creates a bounded model checker for `ts`, with the initial-state
    /// constraint already asserted at frame 0.
    pub fn new(ts: &'a TransitionSystem) -> Self {
        Bmc::with_options(ts, false)
    }

    /// [`Bmc::new`] with DRAT proof tracing enabled on the unrolling solver
    /// *before* any clause is loaded, so every `Clean`/`NoCounterexample`
    /// answer carries a checkable refutation ([`Bmc::proof`]). A no-op (plain
    /// `new`) without the `proof-log` feature of `plic3-sat`.
    pub fn with_proof_tracing(ts: &'a TransitionSystem) -> Self {
        Bmc::with_options(ts, true)
    }

    fn with_options(ts: &'a TransitionSystem, trace_proof: bool) -> Self {
        let unroller = Unroller::new(ts);
        let mut solver = Solver::new();
        if trace_proof {
            // Must precede clause loading: the checker needs the axioms too.
            solver.enable_proof_tracing();
        }
        solver.ensure_vars(unroller.num_vars_through(0));
        for clause in unroller.init_clauses() {
            solver.add_clause_ref(&clause);
        }
        Bmc {
            ts,
            unroller,
            solver,
            loaded_frames: 0,
        }
    }

    /// The DRAT proof recorded so far (see [`Bmc::with_proof_tracing`]);
    /// `None` when tracing is off or compiled out. After an UNSAT depth
    /// query, checking the proof under [`Bmc::bad_assumptions_at`] for that
    /// depth verifies the "no counterexample at this depth" claim.
    pub fn proof(&self) -> Option<&plic3_sat::Proof> {
        self.solver.proof()
    }

    /// The assumption literals of the depth-`depth` bad-state query, for
    /// checking the recorded proof against exactly what was asked.
    pub fn bad_assumptions_at(&self, depth: usize) -> Vec<plic3_logic::Lit> {
        self.unroller.bad_assumptions_at(depth)
    }

    /// Caps the SAT conflicts spent in each per-depth query; `None` removes
    /// the cap.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.solver.set_conflict_budget(budget);
    }

    /// Installs the run's shared budget: the unrolling solver charges its
    /// clause storage against it, and once it is stopped (cancelled or out of
    /// memory) the current and every future [`Bmc::check`] call returns
    /// [`BmcResult::Unknown`] promptly.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.solver.set_budget(budget);
    }

    /// Does nothing: the SAT solver has a single search, so there is no
    /// configuration to replace (see [`SearchConfig`]). Kept so existing
    /// callers compile.
    pub fn set_search_config(&mut self, _search: SearchConfig) {}

    fn load_frame(&mut self, frame: usize) {
        while self.loaded_frames <= frame {
            let k = self.loaded_frames;
            self.solver
                .ensure_vars(self.unroller.num_vars_through(k + 1));
            for clause in self.unroller.trans_clauses(k) {
                self.solver.add_clause_ref(&clause);
            }
            self.loaded_frames += 1;
        }
    }

    /// Checks whether a bad state is reachable within exactly `depth` steps.
    /// An interrupted query (conflict budget or run budget) is reported as
    /// [`BmcDepthStatus::Unknown`], so callers drawing safety conclusions
    /// (k-induction) cannot mistake an exhausted budget for an exhaustively
    /// checked depth. Depths may be queried in any order; the unrolling is
    /// extended on demand.
    pub fn check_depth_status(&mut self, depth: usize) -> BmcDepthStatus {
        self.load_frame(depth);
        let assumptions = self.unroller.bad_assumptions_at(depth);
        match self.solver.solve(&assumptions) {
            SatResult::Sat => BmcDepthStatus::Unsafe(self.extract_trace(depth)),
            SatResult::Unsat => BmcDepthStatus::Clean,
            SatResult::Unknown => BmcDepthStatus::Unknown,
        }
    }

    /// Checks depths `0..=max_depth` in order and stops at the first
    /// counterexample.
    pub fn check(&mut self, max_depth: usize) -> BmcResult {
        for depth in 0..=max_depth {
            match self.check_depth_status(depth) {
                BmcDepthStatus::Unsafe(trace) => return BmcResult::Unsafe { trace, depth },
                BmcDepthStatus::Clean => {}
                BmcDepthStatus::Unknown => return BmcResult::Unknown,
            }
        }
        BmcResult::NoCounterexample { depth: max_depth }
    }

    fn extract_trace(&self, depth: usize) -> Trace {
        let view = self.solver.model();
        let model = |v| view.value(v);
        let states: Vec<Cube> = (0..=depth)
            .map(|k| self.unroller.state_cube_at(k, model))
            .collect();
        // One input valuation per transition plus the observation frame at the
        // final step (the bad literal may depend on inputs).
        let inputs: Vec<Cube> = (0..=depth)
            .map(|k| self.unroller.input_cube_at(k, model))
            .collect();
        Trace::new(states, inputs)
    }

    /// The transition system being checked.
    pub fn ts(&self) -> &TransitionSystem {
        self.ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::{Aig, AigBuilder};

    fn counter(bits: usize, bad_at: u64) -> Aig {
        let mut b = AigBuilder::new();
        let state = b.latches(bits, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, bad_at);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn finds_counterexample_at_exact_depth() {
        let aig = counter(4, 9);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        match bmc.check(20) {
            BmcResult::Unsafe { trace, depth } => {
                assert_eq!(depth, 9);
                assert_eq!(trace.len(), 9);
                assert!(trace.replay_on_aig(&ts, &aig));
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn reports_clean_bound_when_no_counterexample() {
        let aig = counter(3, 7);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        assert_eq!(bmc.check(5), BmcResult::NoCounterexample { depth: 5 });
        // The same engine can keep going incrementally and find the bug later.
        assert!(bmc.check(7).is_unsafe());
    }

    #[test]
    fn check_depth_is_order_independent() {
        let aig = counter(3, 4);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        assert_eq!(bmc.check_depth_status(6), BmcDepthStatus::Clean);
        assert!(matches!(
            bmc.check_depth_status(4),
            BmcDepthStatus::Unsafe(_)
        ));
        assert_eq!(bmc.check_depth_status(2), BmcDepthStatus::Clean);
    }

    #[test]
    fn zero_step_violation_detected() {
        let mut b = AigBuilder::new();
        let l = b.latch(Some(true));
        b.set_latch_next(l, l);
        b.add_bad(l);
        let ts = TransitionSystem::from_aig(&b.build());
        let mut bmc = Bmc::new(&ts);
        assert!(matches!(bmc.check(3), BmcResult::Unsafe { depth: 0, .. }));
    }

    #[test]
    fn input_dependent_bad_requires_right_inputs() {
        // bad = latch ∧ input; latch toggles; reachable at depth 1 with input=1.
        let mut b = AigBuilder::new();
        let x = b.input();
        let l = b.latch(Some(false));
        b.set_latch_next(l, !l);
        let bad = b.and(l, x);
        b.add_bad(bad);
        let aig = b.build();
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        match bmc.check(4) {
            BmcResult::Unsafe { trace, depth } => {
                assert_eq!(depth, 1);
                assert!(
                    trace.replay_on_aig(&ts, &aig),
                    "observation inputs preserved"
                );
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        let aig = counter(4, 12);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        // A zero conflict budget aborts the very first query.
        bmc.set_conflict_budget(Some(0));
        assert_eq!(bmc.check(10), BmcResult::Unknown);
        // Lifting the budget lets the same engine finish the job.
        bmc.set_conflict_budget(None);
        assert!(bmc.check(12).is_unsafe());
    }

    #[test]
    fn display_and_accessors() {
        let aig = counter(2, 3);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::new(&ts);
        let result = bmc.check(1);
        assert_eq!(result.to_string(), "no counterexample up to depth 1");
        assert!(result.trace().is_none());
        assert_eq!(bmc.ts().num_latches(), 2);
        let unsafe_result = bmc.check(3);
        assert!(unsafe_result.to_string().contains("unsafe at depth 3"));
        assert!(unsafe_result.trace().is_some());
    }
}
