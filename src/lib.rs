//! `plic3-repro` — umbrella crate of the PLIC3 reproduction.
//!
//! This crate re-exports the individual layers of the from-scratch Rust
//! reproduction of *Predicting Lemmas in Generalization of IC3* (Su, Yang, Ci —
//! DAC 2024) under one roof, and hosts the runnable examples (`examples/`) and
//! the cross-crate integration tests (`tests/`).
//!
//! The layers, bottom-up:
//!
//! * [`logic`] — variables, literals, cubes, clauses, CNF, diff sets,
//! * [`sat`] — the incremental CDCL SAT solver with assumption cores,
//! * [`aig`] — and-inverter graphs, the AIGER format, simulation,
//! * [`ts`] — transition systems, Tseitin encoding, unrolling, traces,
//! * [`prep`] — the AIG preprocessing pipeline (COI, strashing, constant
//!   sweeping, latch-equivalence merging) with witness reconstruction,
//! * [`ic3`] — the IC3/PDR engine with CTP-based lemma prediction (the paper's
//!   contribution),
//! * [`bmc`] — bounded model checking and k-induction baselines,
//! * [`check`] — independent proof checkers: backward DRAT for SAT-core
//!   refutations, invariant certificates replayed on the original circuit,
//! * [`benchmarks`] — the synthetic HWMCC-style circuit suite,
//! * [`harness`] — the experiment harness regenerating the paper's tables and
//!   figures.
//!
//! # Example
//!
//! ```
//! use plic3_repro::ic3::{Config, Ic3};
//! use plic3_repro::aig::AigBuilder;
//!
//! let mut b = AigBuilder::new();
//! let s = b.latch(Some(false));
//! b.set_latch_next(s, s);
//! b.add_bad(s);
//! let mut engine = Ic3::from_aig(&b.build(), Config::ric3_like().with_lemma_prediction(true));
//! assert!(engine.check().is_safe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The IC3/PDR engine with CTP-based lemma prediction (the core crate).
pub use plic3 as ic3;
pub use plic3_aig as aig;
pub use plic3_benchmarks as benchmarks;
pub use plic3_bmc as bmc;
pub use plic3_check as check;
pub use plic3_harness as harness;
pub use plic3_logic as logic;
pub use plic3_prep as prep;
pub use plic3_sat as sat;
pub use plic3_ts as ts;
