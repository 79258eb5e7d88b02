//! `plic3` — an IC3/PDR safety model checker with CTP-based lemma prediction.
//!
//! This crate is the core of a from-scratch Rust reproduction of
//! *Predicting Lemmas in Generalization of IC3* (Su, Yang, Ci — DAC 2024).
//! It implements:
//!
//! * the standard IC3/PDR algorithm (Algorithm 1 of the paper): frames in
//!   delta encoding, a blocking phase over one obligation stack with
//!   predecessor lifting, MIC / `ctgDown` inductive generalization, and
//!   lemma propagation,
//! * the paper's contribution (Algorithm 2): a `failure_push` table recording
//!   **counterexamples to propagation (CTP)**, and a prediction step that
//!   grows a failed parent lemma by a single literal of the *diff set*
//!   `diff(b, t)` to obtain a candidate lemma validated by one SAT query —
//!   skipping the literal-dropping loop entirely when it succeeds,
//! * the CAV'23 parent-guided literal ordering used as a comparison point,
//! * statistics matching the paper's `SR_lp`, `SR_fp` and `SR_adv` rates.
//!
//! A `Safe` answer carries an inductive-invariant [`Certificate`] and an
//! `Unsafe` answer a counterexample [`plic3_ts::Trace`]. Certificates are
//! checked by the `plic3-check` crate, traces by
//! [`plic3_ts::Trace::replay_on_aig`].
//!
//! # Quick start
//!
//! ```
//! use plic3::{Config, Ic3};
//! use plic3_aig::AigBuilder;
//! use plic3_check::{check_certificate, CheckOptions};
//!
//! // A token that rotates around a 4-cell ring; two adjacent cells can never
//! // both hold it.
//! let mut b = AigBuilder::new();
//! let cells: Vec<_> = (0..4).map(|i| b.latch(Some(i == 0))).collect();
//! for i in 0..4 {
//!     b.set_latch_next(cells[i], cells[(i + 3) % 4]);
//! }
//! let mut clashes = Vec::new();
//! for i in 0..4 {
//!     let clash = b.and(cells[i], cells[(i + 1) % 4]);
//!     clashes.push(clash);
//! }
//! let bad = b.or_many(&clashes);
//! b.add_bad(bad);
//!
//! let config = Config::ric3_like().with_lemma_prediction(true);
//! let mut engine = Ic3::from_aig(&b.build(), config);
//! let result = engine.check();
//! let certificate = result.certificate().expect("the ring is safe");
//! check_certificate(engine.ts(), certificate, &CheckOptions::default()).expect("re-checked");
//! println!("prediction success rate: {:?}", engine.statistics().sr_adv());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cti_cache;
mod engine;
mod frames;
mod generalize;
mod predict;
mod result;
mod state_cube;
mod statistics;

pub use config::{Config, LiteralOrdering};
pub use engine::Ic3;
pub use plic3_sat::{
    panic_message, FaultKind, FaultPlan, FaultSite, ResourceBudget, SearchConfig, StopCause,
    INJECTED_PANIC,
};
pub use result::{Certificate, CheckResult, UnknownReason};
pub use statistics::Statistics;
