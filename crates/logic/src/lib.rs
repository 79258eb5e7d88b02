//! Propositional-logic primitives for the PLIC3 model checker.
//!
//! This crate provides the small, allocation-friendly building blocks that every
//! other layer of the reproduction of *Predicting Lemmas in Generalization of IC3*
//! (DAC 2024) is written in terms of:
//!
//! * [`Var`] — a Boolean variable, a dense index.
//! * [`Lit`] — a literal, i.e. a variable or its negation.
//! * [`Cube`] — a conjunction of literals (used for states and proof obligations).
//! * [`Clause`] — a disjunction of literals (used for lemmas and CNF clauses).
//! * [`SplitMix64`] — the seeded generator behind the random benchmark
//!   circuits and the randomized tests.
//!
//! The *diff set* of Definition 3.1 in the paper is provided by [`Cube::diff`], and
//! Theorems 3.2–3.4 are exercised by the unit and property tests of this crate.
//!
//! # Example
//!
//! ```
//! use plic3_logic::{Cube, Lit, Var};
//!
//! let x = Var::new(0);
//! let y = Var::new(1);
//! let b = Cube::from_lits([Lit::pos(x), Lit::pos(y)]);
//! let t = Cube::from_lits([Lit::neg(x), Lit::pos(y)]);
//! // diff(b, t) = { x } because x ∈ b and ¬x ∈ t.
//! assert_eq!(b.diff(&t).lits(), &[Lit::pos(x)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod cube;
mod lit;
mod rng;
mod var;

pub use clause::Clause;
pub use cube::Cube;
pub use lit::Lit;
pub use rng::SplitMix64;
pub use var::Var;
