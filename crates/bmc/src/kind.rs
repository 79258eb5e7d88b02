//! k-induction.

use crate::Bmc;
use plic3_logic::Lit;
use plic3_sat::{ResourceBudget, SatResult, Solver};
use plic3_ts::{Trace, TransitionSystem, Unroller};
use std::fmt;

/// The verdict of a k-induction run.
#[derive(Clone, Debug, PartialEq)]
pub enum KInductionResult {
    /// The property is `k`-inductive (and therefore holds).
    Safe {
        /// The induction depth at which the step case became unsatisfiable.
        k: usize,
    },
    /// A counterexample was found by the base case.
    Unsafe {
        /// The violating execution.
        trace: Trace,
        /// Length of the counterexample.
        depth: usize,
    },
    /// Neither case closed within the bound (k-induction without strengthening
    /// is incomplete, so this is a common outcome).
    Unknown {
        /// The largest induction depth that was tried.
        bound: usize,
    },
}

impl KInductionResult {
    /// Returns `true` if the property was proved.
    pub fn is_safe(&self) -> bool {
        matches!(self, KInductionResult::Safe { .. })
    }

    /// Returns `true` if a counterexample was found.
    pub fn is_unsafe(&self) -> bool {
        matches!(self, KInductionResult::Unsafe { .. })
    }
}

impl fmt::Display for KInductionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KInductionResult::Safe { k } => write!(f, "safe ({k}-inductive)"),
            KInductionResult::Unsafe { depth, .. } => write!(f, "unsafe at depth {depth}"),
            KInductionResult::Unknown { bound } => write!(f, "unknown up to k={bound}"),
        }
    }
}

/// A k-induction engine: interleaves BMC base cases with inductive step cases
/// of increasing depth.
///
/// The step case does not add simple-path (uniqueness) constraints, so the
/// procedure is sound but incomplete: [`KInductionResult::Safe`] and
/// [`KInductionResult::Unsafe`] answers are definitive, `Unknown` is not.
///
/// # Example
///
/// ```
/// use plic3_aig::AigBuilder;
/// use plic3_bmc::{KInduction, KInductionResult};
/// use plic3_ts::TransitionSystem;
///
/// // A latch stuck at 0 with bad = latch: 1-inductive.
/// let mut b = AigBuilder::new();
/// let s = b.latch(Some(false));
/// b.set_latch_next(s, s);
/// b.add_bad(s);
/// let ts = TransitionSystem::from_aig(&b.build());
/// let mut kind = KInduction::new(&ts);
/// assert!(kind.check(5).is_safe());
/// ```
pub struct KInduction<'a> {
    ts: &'a TransitionSystem,
    bmc: Bmc<'a>,
    unroller: Unroller<'a>,
    step_solver: Solver,
    loaded_frames: usize,
}

impl<'a> KInduction<'a> {
    /// Creates a k-induction engine for `ts`.
    pub fn new(ts: &'a TransitionSystem) -> Self {
        KInduction::with_options(ts, false)
    }

    /// [`KInduction::new`] with DRAT proof tracing enabled on both backing
    /// solvers before any clause is loaded. A `Safe { k }` verdict is then
    /// backed by two checkable refutations: the base-case proof under
    /// [`KInduction::base_assumptions_at`]`(k)` and the step-case proof under
    /// [`KInduction::step_assumptions_at`]`(k)`. A no-op (plain `new`) without
    /// the `proof-log` feature of `plic3-sat`.
    pub fn with_proof_tracing(ts: &'a TransitionSystem) -> Self {
        KInduction::with_options(ts, true)
    }

    fn with_options(ts: &'a TransitionSystem, trace_proof: bool) -> Self {
        let unroller = Unroller::new(ts);
        let mut step_solver = Solver::new();
        if trace_proof {
            step_solver.enable_proof_tracing();
        }
        step_solver.ensure_vars(unroller.num_vars_through(0));
        KInduction {
            ts,
            bmc: if trace_proof {
                Bmc::with_proof_tracing(ts)
            } else {
                Bmc::new(ts)
            },
            unroller,
            step_solver,
            loaded_frames: 0,
        }
    }

    /// The base-case (BMC) DRAT proof recorded so far; `None` when tracing is
    /// off or compiled out.
    pub fn base_proof(&self) -> Option<&plic3_sat::Proof> {
        self.bmc.proof()
    }

    /// The step-case DRAT proof recorded so far; `None` when tracing is off
    /// or compiled out.
    pub fn step_proof(&self) -> Option<&plic3_sat::Proof> {
        self.step_solver.proof()
    }

    /// The assumptions of the depth-`k` base-case query (delegates to the
    /// backing BMC engine), for checking [`KInduction::base_proof`].
    pub fn base_assumptions_at(&self, k: usize) -> Vec<Lit> {
        self.bmc.bad_assumptions_at(k)
    }

    /// The assumptions of the depth-`k` step-case query — `k` good
    /// constraint-satisfying states followed by a bad one — exactly as
    /// [`KInduction::check`]'s step case poses it, for checking
    /// [`KInduction::step_proof`].
    pub fn step_assumptions_at(&self, k: usize) -> Vec<Lit> {
        let mut assumptions: Vec<Lit> = Vec::new();
        for frame in 0..k {
            assumptions.push(!self.unroller.lit_at(frame, self.ts.bad_lit()));
            for &c in self.ts.constraint_lits() {
                assumptions.push(self.unroller.lit_at(frame, c));
            }
        }
        assumptions.extend(self.unroller.bad_assumptions_at(k));
        assumptions
    }

    /// Limits the SAT conflicts spent per query in both the base and the step
    /// solver.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.bmc.set_conflict_budget(budget);
        self.step_solver.set_conflict_budget(budget);
    }

    /// Installs the run's shared budget on both backing solvers (base-case
    /// unroller and step solver); once it is stopped (cancelled or out of
    /// memory), [`KInduction::check`] returns [`KInductionResult::Unknown`]
    /// promptly.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.bmc.set_budget(budget.clone());
        self.step_solver.set_budget(budget);
    }

    /// Does nothing: the SAT solver has a single search, so there is no
    /// configuration to replace (see [`plic3_sat::SearchConfig`]). Kept so
    /// existing callers compile.
    pub fn set_search_config(&mut self, _search: plic3_sat::SearchConfig) {}

    fn load_step_frame(&mut self, frame: usize) {
        while self.loaded_frames <= frame {
            let k = self.loaded_frames;
            self.step_solver
                .ensure_vars(self.unroller.num_vars_through(k + 1));
            for clause in self.unroller.trans_clauses(k) {
                self.step_solver.add_clause_ref(&clause);
            }
            self.loaded_frames += 1;
        }
    }

    /// Checks the inductive step case at depth `k`: a path of `k` good states
    /// followed by a bad one. Returns `true` if no such path exists.
    fn step_case_holds(&mut self, k: usize) -> Option<bool> {
        self.load_step_frame(k);
        let assumptions = self.step_assumptions_at(k);
        match self.step_solver.solve(&assumptions) {
            SatResult::Unsat => Some(true),
            SatResult::Sat => Some(false),
            SatResult::Unknown => None,
        }
    }

    /// Runs interleaved base and step cases for `k = 0..=max_k`.
    pub fn check(&mut self, max_k: usize) -> KInductionResult {
        for k in 0..=max_k {
            // An interrupted base case must surface as Unknown: concluding
            // Safe from the step case alone would be unsound when depth k was
            // never exhaustively checked.
            match self.bmc.check_depth_status(k) {
                crate::BmcDepthStatus::Unsafe(trace) => {
                    return KInductionResult::Unsafe { trace, depth: k }
                }
                crate::BmcDepthStatus::Clean => {}
                crate::BmcDepthStatus::Unknown => return KInductionResult::Unknown { bound: k },
            }
            match self.step_case_holds(k) {
                Some(true) => return KInductionResult::Safe { k },
                Some(false) => {}
                None => return KInductionResult::Unknown { bound: k },
            }
        }
        KInductionResult::Unknown { bound: max_k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::{Aig, AigBuilder};

    fn shift_register(n: usize) -> Aig {
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
    fn proves_k_inductive_property() {
        // The n-cell zero shift register needs k = n to become inductive
        // without strengthening.
        let aig = shift_register(4);
        let ts = TransitionSystem::from_aig(&aig);
        let mut kind = KInduction::new(&ts);
        match kind.check(10) {
            KInductionResult::Safe { k } => assert!(k <= 4, "k={k}"),
            other => panic!("expected safe, got {other}"),
        }
    }

    #[test]
    fn finds_counterexamples_via_base_case() {
        let mut b = AigBuilder::new();
        let state = b.latches(3, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, 5);
        b.add_bad(bad);
        let aig = b.build();
        let ts = TransitionSystem::from_aig(&aig);
        let mut kind = KInduction::new(&ts);
        match kind.check(10) {
            KInductionResult::Unsafe { trace, depth } => {
                assert_eq!(depth, 5);
                assert!(trace.replay_on_aig(&ts, &aig));
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn interrupted_base_case_reports_unknown_not_safe() {
        // An *unsafe* circuit (counter reaches 5) whose base-case queries are
        // starved by a zero conflict budget: the step case may well hold, but
        // concluding Safe would be unsound — the verdict must be Unknown.
        let mut b = AigBuilder::new();
        let state = b.latches(3, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, 5);
        b.add_bad(bad);
        let ts = TransitionSystem::from_aig(&b.build());
        let mut kind = KInduction::new(&ts);
        kind.set_conflict_budget(Some(0));
        match kind.check(10) {
            KInductionResult::Unknown { .. } => {}
            other => panic!("starved base case must yield unknown, got {other}"),
        }
        // Lifting the budget finds the genuine counterexample.
        kind.set_conflict_budget(None);
        assert!(kind.check(10).is_unsafe());
    }

    #[test]
    fn reports_unknown_when_not_inductive_within_bound() {
        // A wrap-around counter with an unreachable bad value is safe but not
        // k-inductive for small k without simple-path constraints.
        let mut b = AigBuilder::new();
        let state = b.latches(4, Some(false));
        let at9 = b.vec_equals_const(&state, 9);
        let inc = b.vec_increment(&state);
        let zero = b.constant_false();
        for (s, n) in state.iter().zip(&inc) {
            let next = b.ite(at9, zero, *n);
            b.set_latch_next(*s, next);
        }
        let bad = b.vec_equals_const(&state, 12);
        b.add_bad(bad);
        let ts = TransitionSystem::from_aig(&b.build());
        let mut kind = KInduction::new(&ts);
        assert_eq!(kind.check(2), KInductionResult::Unknown { bound: 2 });
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            KInductionResult::Safe { k: 3 }.to_string(),
            "safe (3-inductive)"
        );
        assert_eq!(
            KInductionResult::Unknown { bound: 7 }.to_string(),
            "unknown up to k=7"
        );
    }
}
