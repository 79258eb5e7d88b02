//! Counterexample traces.

use crate::TransitionSystem;
use plic3_aig::{Aig, Simulator};
use plic3_logic::{Cube, Lit};
use std::fmt;

/// A finite execution of a [`TransitionSystem`] demonstrating a property
/// violation: a sequence of states (cubes over the current-state variables) and
/// the input valuations used to move between them.
///
/// `states[0]` is an initial state, `states.last()` is a bad state, and for
/// each step `i` the inputs `inputs[i]` drive the system from `states[i]` to
/// `states[i + 1]`. States and inputs may be partial cubes (variables the SAT
/// solver left unconstrained are absent); [`Trace::aig_execution`] fills the
/// gaps when replaying.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Trace {
    states: Vec<Cube>,
    inputs: Vec<Cube>,
}

impl Trace {
    /// Creates a trace from state and input sequences.
    ///
    /// A trace over `k` transition steps has `k + 1` states and either `k` input
    /// valuations (one per transition) or `k + 1` (the extra final valuation is
    /// the one under which the bad literal is observed in the last state, for
    /// properties that also depend on primary inputs).
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not satisfy the relation above (the empty trace
    /// is allowed).
    pub fn new(states: Vec<Cube>, inputs: Vec<Cube>) -> Self {
        if !(states.is_empty() && inputs.is_empty()) {
            assert!(
                inputs.len() + 1 == states.len() || inputs.len() == states.len(),
                "a trace over k steps has k+1 states and k or k+1 input valuations"
            );
        }
        Trace { states, inputs }
    }

    /// The state sequence.
    pub fn states(&self) -> &[Cube] {
        &self.states
    }

    /// The input sequence.
    pub fn inputs(&self) -> &[Cube] {
        &self.inputs
    }

    /// Number of transition steps (states minus one).
    pub fn len(&self) -> usize {
        self.states.len().saturating_sub(1)
    }

    /// Returns `true` for the empty trace.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The execution of `aig` this trace describes, in the circuit's own
    /// order (transition-system latch `i` is AIG latch `i`, input `j` is AIG
    /// input `j`): the initial latch valuation and one input vector per step.
    /// Latches the first state leaves open take their reset value (`false`
    /// when uninitialized), and open inputs are `false`. The bad literal is
    /// observed when stepping *from* the final state, so a trace without an
    /// observation input frame gets an all-false one. Returns `None` for the
    /// empty trace.
    ///
    /// # Panics
    ///
    /// Panics if `ts` was not encoded from a circuit of `aig`'s latch and
    /// input counts.
    pub fn aig_execution(
        &self,
        ts: &TransitionSystem,
        aig: &Aig,
    ) -> Option<(Vec<bool>, Vec<Vec<bool>>)> {
        assert_eq!(
            (ts.num_latches(), ts.num_inputs()),
            (aig.num_latches(), aig.num_inputs()),
            "transition system does not belong to the circuit"
        );
        let first = self.states.first()?;
        let initial = aig
            .latches()
            .iter()
            .zip(ts.latch_vars())
            .map(|(latch, var)| first.value_of(var).or(latch.init).unwrap_or(false))
            .collect();
        let mut frames: Vec<Vec<bool>> = self
            .inputs
            .iter()
            .map(|cube| {
                ts.input_vars()
                    .map(|var| cube.value_of(var).unwrap_or(false))
                    .collect()
            })
            .collect();
        if frames.len() < self.states.len() {
            frames.push(vec![false; ts.num_inputs()]);
        }
        Some((initial, frames))
    }

    /// Replays the trace on `aig`, the circuit `ts` was encoded from, and
    /// returns `true` if it indeed reaches a bad state (with all invariant
    /// constraints holding on the way).
    ///
    /// This is the end-to-end validation used by the engines before reporting
    /// `Unsafe`.
    ///
    /// # Example
    ///
    /// ```
    /// use plic3_aig::AigBuilder;
    /// use plic3_ts::{Trace, TransitionSystem};
    ///
    /// // A latch that follows its input; bad once the latch is 1. Replay
    /// // re-simulates the circuit from the trace's initial state under the
    /// // trace's inputs, so only executions that genuinely reach a bad
    /// // state pass.
    /// let mut b = AigBuilder::new();
    /// let x = b.input();
    /// let l = b.latch(Some(false));
    /// b.set_latch_next(l, x);
    /// b.add_bad(l);
    /// let aig = b.build();
    /// let ts = TransitionSystem::from_aig(&aig);
    /// let good = Trace::from_bits(&ts, &[&[false], &[true]], &[&[true]]);
    /// assert!(good.replay_on_aig(&ts, &aig));
    /// // Driving the input low instead never violates the property.
    /// let bogus = Trace::from_bits(&ts, &[&[false], &[false]], &[&[false]]);
    /// assert!(!bogus.replay_on_aig(&ts, &aig));
    /// ```
    pub fn replay_on_aig(&self, ts: &TransitionSystem, aig: &Aig) -> bool {
        let Some((initial, frames)) = self.aig_execution(ts, aig) else {
            return false;
        };
        Simulator::from_state(aig, initial).run_reaches_bad(&frames)
    }

    /// Returns the states as pretty-printed strings (for reports and debugging).
    pub fn render(&self, ts: &TransitionSystem) -> String {
        let mut out = String::new();
        for (i, state) in self.states.iter().enumerate() {
            let bits: String = (0..ts.num_latches())
                .map(|l| match state.value_of(ts.latch_var(l)) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => 'x',
                })
                .collect();
            out.push_str(&format!("state {i}: {bits}\n"));
            if let Some(inputs) = self.inputs.get(i) {
                let bits: String = (0..ts.num_inputs())
                    .map(|j| match inputs.value_of(ts.input_var(j)) {
                        Some(true) => '1',
                        Some(false) => '0',
                        None => 'x',
                    })
                    .collect();
                out.push_str(&format!("input {i}: {bits}\n"));
            }
        }
        out
    }

    /// Builds a one-state trace from an initial bad state.
    pub fn single_state(state: Cube) -> Self {
        Trace {
            states: vec![state],
            inputs: Vec::new(),
        }
    }

    /// Convenience constructor used in tests: a trace over explicit latch bit
    /// patterns and input bit patterns.
    pub fn from_bits(ts: &TransitionSystem, states: &[&[bool]], inputs: &[&[bool]]) -> Self {
        let states = states
            .iter()
            .map(|bits| {
                Cube::from_lits(
                    bits.iter()
                        .enumerate()
                        .map(|(i, &b)| Lit::new(ts.latch_var(i), b)),
                )
            })
            .collect();
        let inputs = inputs
            .iter()
            .map(|bits| {
                Cube::from_lits(
                    bits.iter()
                        .enumerate()
                        .map(|(i, &b)| Lit::new(ts.input_var(i), b)),
                )
            })
            .collect();
        Trace::new(states, inputs)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace with {} steps", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;

    fn counter_aig() -> Aig {
        let mut b = AigBuilder::new();
        let en = b.input();
        let bits = b.latches(2, Some(false));
        let inc = b.vec_increment(&bits);
        for (s, n) in bits.iter().zip(&inc) {
            let nxt = b.ite(en, *n, *s);
            b.set_latch_next(*s, nxt);
        }
        let bad = b.vec_equals_const(&bits, 3);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn valid_trace_replays_successfully() {
        let aig = counter_aig();
        let ts = TransitionSystem::from_aig(&aig);
        // 00 --en--> 01 --en--> 10 --en--> 11 (bad)
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
        assert_eq!(trace.len(), 3);
        assert!(trace.replay_on_aig(&ts, &aig));
    }

    #[test]
    fn invalid_trace_fails_replay() {
        let aig = counter_aig();
        let ts = TransitionSystem::from_aig(&aig);
        // Inputs never enable the counter: never reaches 11.
        let trace = Trace::from_bits(&ts, &[&[false, false], &[false, false]], &[&[false]]);
        assert!(!trace.replay_on_aig(&ts, &aig));
        assert!(!Trace::default().replay_on_aig(&ts, &aig));
    }

    #[test]
    #[should_panic(expected = "k+1 states")]
    fn mismatched_lengths_panic() {
        let _ = Trace::new(
            vec![Cube::top()],
            vec![Cube::top(), Cube::top(), Cube::top()],
        );
    }

    #[test]
    fn render_and_display() {
        let aig = counter_aig();
        let ts = TransitionSystem::from_aig(&aig);
        let trace = Trace::from_bits(&ts, &[&[false, false], &[true, false]], &[&[true]]);
        let text = trace.render(&ts);
        assert!(text.contains("state 0: 00"));
        assert!(text.contains("input 0: 1"));
        assert!(text.contains("state 1: 10"));
        assert_eq!(trace.to_string(), "trace with 1 steps");
    }

    #[test]
    fn partial_cubes_default_to_reset_values() {
        let aig = counter_aig();
        let ts = TransitionSystem::from_aig(&aig);
        // States mention only the bits that matter; missing input literals mean
        // "any value", which the replay resolves to false.
        let trace = Trace::new(
            vec![Cube::top(), Cube::from_lits([Lit::pos(ts.latch_var(0))])],
            vec![Cube::from_lits([Lit::pos(ts.input_var(0))])],
        );
        let (initial, frames) = trace.aig_execution(&ts, &aig).expect("non-empty trace");
        assert_eq!(initial, vec![false, false]);
        assert_eq!(frames, vec![vec![true], vec![false]]);
        assert_eq!(Trace::default().aig_execution(&ts, &aig), None);
    }
}
