//! Boolean transition systems for the PLIC3 model checkers.
//!
//! This crate turns an [`plic3_aig::Aig`] circuit into the symbolic
//! transition-system representation `⟨X, Y, I, T⟩` that IC3, BMC and
//! k-induction operate on (Section 2.1 of *Predicting Lemmas in Generalization
//! of IC3*, DAC 2024):
//!
//! * [`TransitionSystem`] — state variables `X`, input variables `Y`, the
//!   initial-state cube `I`, the Tseitin-encoded transition relation
//!   `T(X, Y, X')`, the bad-state literal and invariant constraints, together
//!   with the current/next (`prime`) variable maps; it encodes every latch,
//!   input and gate of the circuit (cone-of-influence reduction is
//!   `plic3-prep`'s),
//! * [`Unroller`] — time-frame expansion of `T` for bounded model checking and
//!   k-induction,
//! * [`Trace`] — a finite counterexample path, replayable on the original AIG.
//!
//! # Example
//!
//! ```
//! use plic3_aig::AigBuilder;
//! use plic3_ts::TransitionSystem;
//!
//! let mut b = AigBuilder::new();
//! let s = b.latch(Some(false));
//! b.set_latch_next(s, !s);
//! b.add_bad(s);
//! let ts = TransitionSystem::from_aig(&b.build());
//! assert_eq!(ts.num_latches(), 1);
//! assert!(!ts.trans().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod trace;
mod ts;
mod unroll;

pub use trace::Trace;
pub use ts::TransitionSystem;
pub use unroll::Unroller;
