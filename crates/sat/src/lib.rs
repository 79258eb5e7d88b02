//! An incremental CDCL SAT solver built for IC3-style model checking.
//!
//! The solver is a from-scratch reimplementation of the MiniSat 2.2 architecture
//! (the solver embedded in IC3ref, the baseline of *Predicting Lemmas in
//! Generalization of IC3*, DAC 2024):
//!
//! * two-literal watching with blocker literals,
//! * first-UIP conflict analysis with basic clause minimization,
//! * VSIDS variable activities with an indexed max-heap, per-variable
//!   decision eligibility, and an O(1) SAT exit once nothing is left to
//!   decide,
//! * phase saving and LBD-ranked learnt-clause database reduction, with no
//!   restarts (see `docs/SAT_SEARCH.md`),
//! * incremental solving under **assumptions** with extraction of the
//!   **assumption core** (the subset of assumptions used to derive UNSAT),
//!   which IC3 uses to shrink blocked cubes for free.
//!
//! A run is supervised through one [`ResourceBudget`], shared by every solver
//! of the run (and by the preprocessing and engines above): cancelling it from
//! any thread, or charging it past its byte limit, makes the current and every
//! later [`Solver::solve`] call return [`SatResult::Unknown`], and the first of
//! the two causes is the one it reports ([`StopCause`]). The budget also
//! carries the run's [`FaultPlan`], whose injected faults fire only in builds
//! with the `fault-injection` feature.
//!
//! `Solver` is [`Clone`]. A copy shares only the budget handle, and charges
//! the budget for its own clause arena. It shares nothing else: it has its own
//! clauses, watch lists, assignments, activities, phases, free variables and
//! [`SolverStats`], so the copy answers every later call exactly as the
//! original would, and neither sees the other's later clauses. Every buffer
//! keeps the original's capacity. IC3 builds its transition-relation solver
//! once and starts each frame solver as a copy of it.
//!
//! # Example
//!
//! ```
//! use plic3_logic::{Lit, Var};
//! use plic3_sat::{SatResult, Solver};
//!
//! let mut solver = Solver::new();
//! let a = Lit::pos(solver.new_var());
//! let b = Lit::pos(solver.new_var());
//! solver.add_clause([a, b]);
//! solver.add_clause([!a, b]);
//! assert_eq!(solver.solve(&[]), SatResult::Sat);
//! assert_eq!(solver.model().lit_value(b), Some(true));
//! // Under the assumption ¬b the formula is unsatisfiable, and the core says so.
//! assert_eq!(solver.solve(&[!b]), SatResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[!b]);
//! // A clause that holds for one call only: b holds, so ¬b ∨ ¬c refutes c.
//! // The core holds only assumptions of the call.
//! let c = Lit::pos(solver.new_var());
//! assert_eq!(solver.solve_with_clause([!b, !c], &[c]), SatResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[c]);
//! assert_eq!(solver.solve(&[c]), SatResult::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod brute;
mod budget;
mod fault;
mod heap;
mod proof;
mod solver;
mod stats;

pub use brute::brute_force_sat;
pub use budget::{ResourceBudget, StopCause};
pub use fault::{panic_message, FaultKind, FaultPlan, FaultSite, INJECTED_PANIC};
pub use proof::{proof_logging_compiled, Proof, ProofStep};
pub use solver::{ModelView, SatResult, SearchConfig, Solver};
pub use stats::SolverStats;
