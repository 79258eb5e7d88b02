//! An incremental CDCL SAT solver built for IC3-style model checking.
//!
//! The solver is a from-scratch reimplementation of the MiniSat 2.2 architecture
//! (the solver embedded in IC3ref, the baseline of *Predicting Lemmas in
//! Generalization of IC3*, DAC 2024):
//!
//! * two-literal watching with blocker literals,
//! * first-UIP conflict analysis with basic clause minimization,
//! * VSIDS variable activities with an indexed max-heap,
//! * Luby restarts, phase saving, and LBD-ranked learnt-clause database
//!   reduction (see `docs/SAT_SEARCH.md`),
//! * incremental solving under **assumptions** with extraction of the
//!   **assumption core** (the subset of assumptions used to derive UNSAT),
//!   which IC3 uses to shrink blocked cubes for free.
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
//! assert_eq!(solver.model_value_lit(b), Some(true));
//! // Under the assumption ¬b the formula is unsatisfiable, and the core says so.
//! assert_eq!(solver.solve(&[!b]), SatResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[!b]);
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
mod stop;

pub use brute::brute_force_sat;
pub use budget::ResourceBudget;
pub use fault::{panic_message, FaultKind, FaultPlan, FaultSite, INJECTED_PANIC};
pub use proof::{proof_logging_compiled, Proof, ProofStep};
pub use solver::{ModelView, SatResult, SearchConfig, Solver, SolverConfig};
pub use stats::SolverStats;
pub use stop::StopFlag;
