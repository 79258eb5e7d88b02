//! AIG preprocessing for the PLIC3 model checkers.
//!
//! Real HWMCC-style circuits are dominated by redundant logic that IC3 then
//! pays for on every relative-induction query. This crate implements the
//! simplification pass every serious checker front-loads before encoding:
//!
//! * **structural hashing + constant folding** — the circuit is rebuilt
//!   through [`plic3_aig::AigBuilder`], merging syntactically identical AND
//!   gates and folding constants through gates,
//! * **constant sweeping** — latches proven stuck at a constant by ternary
//!   fixed-point simulation ([`ternary::stuck_latches`]) are replaced by that
//!   constant, which lets more folding happen downstream,
//! * **latch-equivalence merging** — latches proven pairwise equal *or
//!   complementary* in every reachable state (signed partition refinement
//!   with strashed next-state signatures) collapse onto one representative,
//!   with the phase recorded in the witness map,
//! * **cone-of-influence reduction** — inputs, latches and gates that do not
//!   transitively feed the checked property or an invariant constraint are
//!   dropped.
//!
//! The passes run as rounds of one combined rewrite until the circuit stops
//! changing. Crucially, every round records an invertible [`Reconstruction`],
//! so a counterexample found on the simplified circuit replays on the
//! **original** circuit ([`Preprocessed::replay_on_original`]) and an
//! inductive invariant of the simplified circuit certifies the original
//! property. `docs/PREPROCESSING.md` gives the per-pass soundness argument.
//!
//! # Example
//!
//! ```
//! use plic3_aig::AigBuilder;
//! use plic3_prep::preprocess;
//!
//! // Two identical toggles plus a stuck guard; preprocessing collapses the
//! // state to a single latch.
//! let mut b = AigBuilder::new();
//! let t1 = b.latch(Some(false));
//! let t2 = b.latch(Some(false));
//! let guard = b.latch(Some(true));
//! b.set_latch_next(t1, !t1);
//! b.set_latch_next(t2, !t2);
//! b.set_latch_next(guard, guard);
//! let both = b.and(t1, t2);
//! let bad = b.and(both, guard);
//! b.add_bad(bad);
//! let prep = preprocess(&b.build());
//! assert_eq!(prep.aig.num_latches(), 1);
//! assert_eq!(prep.stats.latches_before, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equiv;
mod recon;
mod rewrite;
pub mod ternary;

pub use recon::{Reconstruction, SignalSource};

use plic3_aig::{Aig, Simulator};
use plic3_sat::{FaultSite, ResourceBudget};
use plic3_ts::{Trace, TransitionSystem};
use rewrite::LatchFate;
use std::fmt;
use std::time::{Duration, Instant};

/// Maximum number of rewrite rounds: each round re-runs the analyses on the
/// previous round's output, and the loop stops early at a fixpoint.
const MAX_ROUNDS: usize = 4;

/// The preprocessing pipeline.
///
/// Every pass is always on: structural hashing and constant folding (intrinsic
/// to the rewrite engine), constant sweeping, latch-equivalence merging and
/// cone-of-influence reduction, for up to four rounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Preprocessor;

/// Size and effect statistics of one preprocessing run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PrepStats {
    /// Rewrite rounds executed.
    pub rounds: usize,
    /// Inputs before / after.
    pub inputs_before: usize,
    /// Inputs surviving preprocessing.
    pub inputs_after: usize,
    /// Latches before preprocessing.
    pub latches_before: usize,
    /// Latches surviving preprocessing.
    pub latches_after: usize,
    /// AND gates before preprocessing.
    pub ands_before: usize,
    /// AND gates surviving preprocessing.
    pub ands_after: usize,
    /// Latches replaced by constants (summed over rounds).
    pub stuck_latches: usize,
    /// Latches merged into an equivalent representative (summed over rounds).
    pub merged_latches: usize,
    /// Wall-clock time spent preprocessing.
    pub prep_time: Duration,
    /// `true` when the run was interrupted (its budget cancelled, past its
    /// deadline or out of memory) before reaching a fixpoint; the returned
    /// circuit is the partial — but still sound — result of the completed
    /// rounds.
    pub cancelled: bool,
}

impl fmt::Display for PrepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prep {} rounds, latches {}→{}, ands {}→{}, inputs {}→{}, {} stuck, {} merged, {:?}",
            self.rounds,
            self.latches_before,
            self.latches_after,
            self.ands_before,
            self.ands_after,
            self.inputs_before,
            self.inputs_after,
            self.stuck_latches,
            self.merged_latches,
            self.prep_time
        )
    }
}

/// The result of preprocessing: the simplified circuit, the witness map back
/// to the original, and run statistics.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// The simplified circuit. Encode this (not the original) into the
    /// transition system handed to the engines.
    pub aig: Aig,
    /// The witness map from executions of [`Preprocessed::aig`] back to
    /// executions of the original circuit.
    pub reconstruction: Reconstruction,
    /// Statistics of the run.
    pub stats: PrepStats,
    original: Aig,
}

impl Preprocessed {
    /// The result of running no pass at all: `aig` is a copy of `original`,
    /// the reconstruction is [`Reconstruction::identity`], and the statistics
    /// report zero rounds with every size unchanged. Callers that can skip
    /// preprocessing hold this instead of an `Option`, so witnesses are
    /// checked on the original circuit the same way on every path.
    pub fn identity(original: &Aig) -> Self {
        Preprocessed {
            aig: original.clone(),
            reconstruction: Reconstruction::identity(original.num_inputs(), original.num_latches()),
            stats: PrepStats {
                inputs_before: original.num_inputs(),
                inputs_after: original.num_inputs(),
                latches_before: original.num_latches(),
                latches_after: original.num_latches(),
                ands_before: original.num_ands(),
                ands_after: original.num_ands(),
                ..PrepStats::default()
            },
            original: original.clone(),
        }
    }

    /// The original (un-preprocessed) circuit.
    pub fn original(&self) -> &Aig {
        &self.original
    }

    /// Replays a counterexample trace found on the simplified circuit on the
    /// **original** circuit and returns `true` if it reaches a bad state there
    /// (with all invariant constraints holding on the way). The trace's
    /// execution of [`Preprocessed::aig`] ([`Trace::aig_execution`]) is mapped
    /// through the reconstruction: its initial state and every input frame.
    ///
    /// This is the end-to-end witness check used by the experiment harness
    /// before reporting `Unsafe` for a preprocessed run.
    ///
    /// # Panics
    ///
    /// Panics if `ts` was encoded from a circuit with different input/latch
    /// counts than [`Preprocessed::aig`].
    pub fn replay_on_original(&self, ts: &TransitionSystem, trace: &Trace) -> bool {
        let Some((initial, frames)) = trace.aig_execution(ts, &self.aig) else {
            return false;
        };
        let initial = self
            .reconstruction
            .map_initial_state(&initial, &self.original);
        let inputs: Vec<Vec<bool>> = frames
            .iter()
            .map(|frame| self.reconstruction.map_input_frame(frame))
            .collect();
        Simulator::from_state(&self.original, initial).run_reaches_bad(&inputs)
    }
}

impl Preprocessor {
    /// Runs the pipeline on `original`.
    ///
    /// # Panics
    ///
    /// Panics if `original` fails [`Aig::validate`].
    pub fn run(&self, original: &Aig) -> Preprocessed {
        self.run_under(original, &ResourceBudget::unlimited())
    }

    /// Runs the pipeline under the run's `budget`: it is polled, its deadline
    /// included, between rewrite rounds, ternary-sweep iterations and
    /// equivalence-refinement passes; the circuits built along the way are
    /// charged against it; and its fault plan fires chaos-test failures at
    /// round edges.
    ///
    /// Once the budget is stopped (cancelled, past its deadline or out of
    /// memory) the pipeline returns the partial result of the rounds
    /// completed so far — each round is individually sound, so a half-done
    /// preprocessing is still a correct (just less simplified) circuit —
    /// with [`PrepStats::cancelled`] set. A run interrupted before the first
    /// round finishes returns the identity rewrite of the original circuit.
    ///
    /// # Panics
    ///
    /// Panics if `original` fails [`Aig::validate`], or when an injected
    /// fault of kind [`plic3_sat::FaultKind::Panic`] fires (chaos testing
    /// only).
    pub fn run_under(&self, original: &Aig, budget: &ResourceBudget) -> Preprocessed {
        let started = Instant::now();
        original
            .validate()
            .expect("cannot preprocess an invalid AIG");
        let mut stats = PrepStats {
            inputs_before: original.num_inputs(),
            latches_before: original.num_latches(),
            ands_before: original.num_ands(),
            ..PrepStats::default()
        };
        let mut current = original.clone();
        let mut charged = current.estimated_bytes();
        budget.charge(charged);
        let mut reconstruction =
            Reconstruction::identity(original.num_inputs(), original.num_latches());
        for _ in 0..MAX_ROUNDS {
            budget.poll_fault(FaultSite::PrepRound);
            if budget.poll_deadline() {
                stats.cancelled = true;
                break;
            }
            let fates = self.latch_fates(&current, &mut stats, budget);
            if budget.is_stopped() {
                // The analyses were interrupted and fell back to "change
                // nothing"; don't spend a rewrite on that.
                stats.cancelled = true;
                break;
            }
            let (next, step) = rewrite::rewrite(&current, &fates);
            let changed = next != current;
            reconstruction = reconstruction.compose(&step);
            current = next;
            // Re-charge for the round's output; the rewrite builder's peak is
            // transient and bounded by the input size, so the steady-state
            // circuit is what the budget tracks.
            budget.uncharge(charged);
            charged = current.estimated_bytes();
            budget.charge(charged);
            stats.rounds += 1;
            if !changed {
                break;
            }
        }
        stats.inputs_after = current.num_inputs();
        stats.latches_after = current.num_latches();
        stats.ands_after = current.num_ands();
        stats.prep_time = started.elapsed();
        debug_assert!(current.validate().is_ok());
        Preprocessed {
            aig: current,
            reconstruction,
            stats,
            original: original.clone(),
        }
    }

    /// Decides the fate of every latch of `aig` for one round: stuck-at
    /// constants win, then equivalence merges, then plain keeps.
    fn latch_fates(
        &self,
        aig: &Aig,
        stats: &mut PrepStats,
        budget: &ResourceBudget,
    ) -> Vec<LatchFate> {
        let stuck = ternary::stuck_latches_under(aig, budget);
        let reps = equiv::equivalent_latches(aig, &stuck, budget);
        (0..aig.num_latches())
            .map(|i| match stuck[i] {
                Some(c) => {
                    stats.stuck_latches += 1;
                    LatchFate::Stuck(c)
                }
                None if reps[i].0 != i => {
                    stats.merged_latches += 1;
                    LatchFate::Merge {
                        representative: reps[i].0,
                        negated: reps[i].1,
                    }
                }
                None => LatchFate::Keep,
            })
            .collect()
    }
}

/// Runs the default preprocessing pipeline on `aig`.
///
/// # Panics
///
/// Panics if `aig` fails [`Aig::validate`].
pub fn preprocess(aig: &Aig) -> Preprocessed {
    Preprocessor.run(aig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;
    use plic3_logic::{Cube, Lit};

    /// An unsafe circuit with every kind of redundancy: a counting core, a
    /// duplicate copy of it, a stuck guard, and junk outside the cone.
    fn redundant_counter() -> Aig {
        let mut b = AigBuilder::new();
        let enable = b.input();
        let junk_in = b.input();
        let mut copies = Vec::new();
        for _ in 0..2 {
            let bits = b.latches(2, Some(false));
            let inc = b.vec_increment(&bits);
            for (s, n) in bits.iter().zip(&inc) {
                let nxt = b.ite(enable, *n, *s);
                b.set_latch_next(*s, nxt);
            }
            copies.push(bits);
        }
        let guard = b.latch(Some(true));
        b.set_latch_next(guard, guard);
        let junk = b.latch(Some(false));
        b.set_latch_next(junk, junk_in);
        let at3_a = b.vec_equals_const(&copies[0], 3);
        let at3_b = b.vec_equals_const(&copies[1], 3);
        let either = b.or(at3_a, at3_b);
        let bad = b.and(either, guard);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn pipeline_collapses_all_redundancy() {
        let aig = redundant_counter();
        let prep = preprocess(&aig);
        prep.aig.validate().expect("preprocessed AIG is valid");
        assert_eq!(prep.aig.num_latches(), 2, "one 2-bit counter remains");
        assert_eq!(prep.aig.num_inputs(), 1, "the junk input is dropped");
        assert!(prep.stats.stuck_latches >= 1);
        assert!(prep.stats.merged_latches >= 2);
        assert_eq!(prep.stats.latches_before, 6);
        assert_eq!(prep.stats.latches_after, 2);
        assert!(prep.stats.rounds >= 2);
        assert_eq!(prep.original(), &aig);
        let rendered = prep.stats.to_string();
        assert!(rendered.contains("latches 6→2"), "got: {rendered}");
    }

    #[test]
    fn witness_maps_back_to_the_original_circuit() {
        let aig = redundant_counter();
        let prep = preprocess(&aig);
        let ts = TransitionSystem::from_aig(&prep.aig);
        assert_eq!(ts.num_latches(), 2);
        // Drive the simplified counter 00 → 01 → 10 → 11 with enable high.
        let trace = Trace::from_bits(
            &ts,
            &[
                &[false, false],
                &[true, false],
                &[false, true],
                &[true, true],
            ],
            &[&[true], &[true], &[true]],
        );
        assert!(
            trace.replay_on_aig(&ts, &prep.aig),
            "trace is valid on the simplified circuit"
        );
        let (initial, frames) = trace.aig_execution(&ts, &prep.aig).expect("non-empty");
        let initial = prep.reconstruction.map_initial_state(&initial, &aig);
        assert_eq!(initial.len(), aig.num_latches());
        let inputs = prep.reconstruction.map_input_frame(&frames[0]);
        assert_eq!(inputs.len(), aig.num_inputs());
        assert!(prep.replay_on_original(&ts, &trace));
        // The empty trace maps to nothing.
        assert!(!prep.replay_on_original(&ts, &Trace::default()));
    }

    #[test]
    fn identity_keeps_the_circuit_and_replays_its_traces() {
        let aig = redundant_counter();
        let prep = Preprocessed::identity(&aig);
        assert_eq!(prep.aig, aig);
        assert_eq!(prep.original(), &aig);
        assert_eq!(prep.stats.rounds, 0);
        assert_eq!(prep.stats.latches_before, prep.stats.latches_after);
        assert_eq!(prep.stats.ands_before, aig.num_ands());
        assert_eq!(prep.stats.ands_after, aig.num_ands());
        assert_eq!(prep.stats.prep_time, Duration::ZERO);
        // A toggle is bad after one step; its raw trace replays unchanged.
        let mut b = AigBuilder::new();
        let l = b.latch(Some(false));
        b.set_latch_next(l, !l);
        b.add_bad(l);
        let toggle = Preprocessed::identity(&b.build());
        let ts = TransitionSystem::from_aig(&toggle.aig);
        let trace = Trace::from_bits(&ts, &[&[false], &[true]], &[&[]]);
        assert!(toggle.replay_on_original(&ts, &trace));
    }

    #[test]
    fn complemented_shadow_register_merges_and_round_trips() {
        // A 2-bit free-running counter plus a shadow register `c` that always
        // holds ¬b0 (complemented reset, complemented next-state function).
        // bad = b1 ∧ b0 ∧ ¬c ≡ counter == 3. The signed merge collapses `c`
        // into ¬b0; the witness found on the 2-latch circuit must replay on
        // the original 3-latch one, with `c` reconstructed through the
        // negated source.
        let mut b = AigBuilder::new();
        let b0 = b.latch(Some(false));
        let b1 = b.latch(Some(false));
        let c = b.latch(Some(true));
        let b1_next = b.xor(b1, b0);
        b.set_latch_next(b0, !b0);
        b.set_latch_next(b1, b1_next);
        b.set_latch_next(c, b0);
        let hi = b.and(b1, b0);
        let bad = b.and(hi, !c);
        b.add_bad(bad);
        let aig = b.build();
        let prep = preprocess(&aig);
        assert_eq!(prep.aig.num_latches(), 2, "the shadow register is merged");
        assert!(prep.stats.merged_latches >= 1);
        let negated_sources = (0..aig.num_latches())
            .filter(|&i| {
                matches!(
                    prep.reconstruction.latch_source(i),
                    SignalSource::Kept { negated: true, .. }
                )
            })
            .count();
        assert_eq!(negated_sources, 1, "exactly the shadow is complemented");
        // Drive the simplified counter 00 → 01 → 10 → 11 (free-running).
        let ts = TransitionSystem::from_aig(&prep.aig);
        let trace = Trace::from_bits(
            &ts,
            &[
                &[false, false],
                &[true, false],
                &[false, true],
                &[true, true],
            ],
            &[&[], &[], &[]],
        );
        assert!(trace.replay_on_aig(&ts, &prep.aig));
        let (initial, _) = trace.aig_execution(&ts, &prep.aig).expect("non-empty");
        assert_eq!(
            prep.reconstruction.map_initial_state(&initial, &aig),
            vec![false, false, true],
            "c reconstructs to ¬b0"
        );
        assert!(
            prep.replay_on_original(&ts, &trace),
            "round trip: the witness replays on the original circuit"
        );
    }

    #[test]
    fn trivially_constant_properties_survive_the_pipeline() {
        // Property stuck at false → trivially safe circuit.
        let mut b = AigBuilder::new();
        let guard = b.latch(Some(false));
        b.set_latch_next(guard, guard);
        let toggle = b.latch(Some(false));
        b.set_latch_next(toggle, !toggle);
        let bad = b.and(guard, toggle);
        b.add_bad(bad);
        let prep = preprocess(&b.build());
        assert_eq!(prep.aig.num_latches(), 0);
        assert_eq!(prep.aig.bad()[0], plic3_aig::AigLit::FALSE);
    }

    #[test]
    fn circuits_without_a_property_do_not_panic() {
        let mut b = AigBuilder::new();
        let l = b.latch(Some(false));
        b.set_latch_next(l, l);
        let prep = preprocess(&b.build());
        assert_eq!(prep.aig.num_latches(), 0);
        assert!(prep.aig.property_literal().is_none());
    }

    #[test]
    fn single_state_trace_on_an_initially_bad_circuit_maps_back() {
        // Original: bad = guard (stuck at 1) AND latch (init 1). The
        // preprocessed circuit is bad at reset; a 0-step trace must replay.
        let mut b = AigBuilder::new();
        let guard = b.latch(Some(true));
        b.set_latch_next(guard, guard);
        let l = b.latch(Some(true));
        b.set_latch_next(l, !l);
        let bad = b.and(guard, l);
        b.add_bad(bad);
        let aig = b.build();
        let prep = preprocess(&aig);
        let ts = TransitionSystem::from_aig(&prep.aig);
        let state: Cube = ts.latch_vars().map(Lit::pos).collect();
        let trace = Trace::single_state(state);
        assert!(prep.replay_on_original(&ts, &trace));
    }
}
