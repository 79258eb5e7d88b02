//! Independent proof checkers for the model checker's answers.
//!
//! This crate closes the trust loop around the engines: instead of believing
//! a `Safe`/`Unsafe` verdict, the harness and the `plic3-check` binary demand
//! evidence and have it re-checked with fresh SAT queries that share no state
//! with the engine that produced it. The checks do share *code* with the
//! engine: the invariant checker runs its queries on [`plic3_sat::Solver`] and
//! encodes the circuit through `plic3_ts`, the engine's own solver and
//! encoding (item 6 of `ROADMAP.md` replaces both).
//!
//! * [`check_unsat_proof`] — a backward DRAT (RUP) checker for the clause
//!   proofs the SAT core emits when its `proof-log` tracer is enabled
//!   ([`plic3_sat::Solver::enable_proof_tracing`]). It verifies that every
//!   derived clause the final conflict depends on is a reverse-unit-propagation
//!   consequence of the clauses before it.
//! * [`check_certificate_on_original`] — an inductive-invariant checker that
//!   takes the certificate an engine produced on the *simplified* circuit and
//!   discharges initiation, consecution, and the property on the **original,
//!   pre-preprocessing** circuit by composing through the preprocessing
//!   [`plic3_prep::Reconstruction`]. It encodes the whole original circuit,
//!   with no cone-of-influence reduction. [`check_certificate`] runs the same
//!   discharge on the transition system the engine ran on, with no
//!   reconstruction in between; it is the repository's one check for
//!   certificates that never left the engine's own system.
//!
//! See `docs/CERTIFICATES.md` for the proof formats and the soundness
//! argument per tracer hook site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drat;
mod invariant;

pub use drat::{check_unsat_proof, DratStats};
pub use invariant::{
    check_certificate, check_certificate_on_original, CertCheckError, CertCheckReport, CheckOptions,
};
