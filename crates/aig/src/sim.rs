//! Cycle-accurate simulation of and-inverter graphs.

use crate::{Aig, AigLit};

/// The values observed during one simulation step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimStep {
    /// Values of the output literals during the step.
    pub outputs: Vec<bool>,
    /// Values of the bad-state literals during the step.
    pub bad: Vec<bool>,
    /// Values of the invariant-constraint literals during the step.
    pub constraints: Vec<bool>,
}

impl SimStep {
    /// Returns `true` if the circuit's *checked property* was violated this
    /// step: the first bad-state literal when the circuit has any, otherwise
    /// the first output (the HWMCC convention for AIGER 1.0 files).
    ///
    /// This deliberately mirrors [`Aig::property_literal`] — the literal the
    /// transition-system encoding and the model checkers prove or refute — so
    /// that replaying an engine trace on the simulator agrees with the engine
    /// about what counts as "bad".
    pub fn property_violated(&self) -> bool {
        match self.bad.first() {
            Some(&b) => b,
            None => self.outputs.first().copied().unwrap_or(false),
        }
    }

    /// Returns `true` if every invariant constraint held this step.
    fn constraints_hold(&self) -> bool {
        self.constraints.iter().all(|&c| c)
    }
}

/// A cycle-accurate simulator for an [`Aig`].
///
/// Used by the model checkers to replay counterexample traces and confirm that
/// they really drive a bad-state literal to `1`.
///
/// # Example
///
/// ```
/// use plic3_aig::{AigBuilder, Simulator};
/// let mut b = AigBuilder::new();
/// let s = b.latch(Some(false));
/// b.set_latch_next(s, !s);
/// b.add_bad(s);
/// let aig = b.build();
/// let mut sim = Simulator::new(&aig);
/// assert!(!sim.step(&[]).property_violated()); // starts at 0
/// assert!(sim.step(&[]).property_violated());  // toggles to 1
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    aig: &'a Aig,
    latch_values: Vec<bool>,
    steps: usize,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator positioned at the reset state (uninitialized latches
    /// start at `false`).
    pub fn new(aig: &'a Aig) -> Self {
        let latch_values = aig
            .latches()
            .iter()
            .map(|l| l.init.unwrap_or(false))
            .collect();
        Simulator {
            aig,
            latch_values,
            steps: 0,
        }
    }

    /// Creates a simulator starting from an explicit latch valuation.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the number of latches.
    pub fn from_state(aig: &'a Aig, state: Vec<bool>) -> Self {
        assert_eq!(state.len(), aig.num_latches(), "latch state width mismatch");
        Simulator {
            aig,
            latch_values: state,
            steps: 0,
        }
    }

    /// The current latch valuation (little-endian in latch order).
    pub fn latch_values(&self) -> &[bool] {
        &self.latch_values
    }

    /// Number of steps simulated so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The value of every AIG variable (indexed by variable; the constant
    /// variable 0 is `false`) in the current state under the given
    /// primary-input values, without advancing the state. Missing input
    /// values default to `false`; extra values are ignored.
    pub fn values(&self, inputs: &[bool]) -> Vec<bool> {
        let aig = self.aig;
        let mut values = vec![false; aig.max_var() as usize + 1];
        for i in 0..aig.num_inputs() {
            values[aig.input(i).variable() as usize] = inputs.get(i).copied().unwrap_or(false);
        }
        for (latch, &v) in aig.latches().iter().zip(&self.latch_values) {
            values[latch.lit.variable() as usize] = v;
        }
        for gate in aig.ands() {
            let a = eval(&values, gate.rhs0);
            let b = eval(&values, gate.rhs1);
            values[gate.lhs.variable() as usize] = a && b;
        }
        values
    }

    /// Simulates one clock cycle with the given primary-input values.
    /// Missing input values default to `false`; extra values are ignored.
    pub fn step(&mut self, inputs: &[bool]) -> SimStep {
        let aig = self.aig;
        let values = self.values(inputs);
        let step = SimStep {
            outputs: aig.outputs().iter().map(|&l| eval(&values, l)).collect(),
            bad: aig.bad().iter().map(|&l| eval(&values, l)).collect(),
            constraints: aig
                .constraints()
                .iter()
                .map(|&l| eval(&values, l))
                .collect(),
        };
        self.latch_values = aig
            .latches()
            .iter()
            .map(|latch| eval(&values, latch.next))
            .collect();
        self.steps += 1;
        step
    }

    /// Runs `inputs.len()` steps and returns `true` if the checked property
    /// (see [`SimStep::property_violated`]) was violated in any of them while
    /// all constraints held up to and including that step.
    pub fn run_reaches_bad(&mut self, inputs: &[Vec<bool>]) -> bool {
        for frame in inputs {
            let step = self.step(frame);
            if !step.constraints_hold() {
                return false;
            }
            if step.property_violated() {
                return true;
            }
        }
        false
    }
}

fn eval(values: &[bool], lit: AigLit) -> bool {
    let v = values[lit.variable() as usize];
    v != lit.is_negated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AigBuilder;

    /// A 2-bit counter with an enable input; bad when the counter reaches 3.
    fn counter() -> Aig {
        let mut b = AigBuilder::new();
        let enable = b.input();
        let bits = b.latches(2, Some(false));
        let incremented = b.vec_increment(&bits);
        for (s, n) in bits.iter().zip(&incremented) {
            let held = b.ite(enable, *n, *s);
            b.set_latch_next(*s, held);
        }
        let bad = b.vec_equals_const(&bits, 3);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn counter_reaches_bad_only_when_enabled() {
        let aig = counter();
        let mut sim = Simulator::new(&aig);
        // Never enabled: never bad.
        assert!(!sim.run_reaches_bad(&vec![vec![false]; 10]));
        let mut sim = Simulator::new(&aig);
        // Enabled every cycle: bad at the fourth step (counter value 3).
        assert!(sim.run_reaches_bad(&vec![vec![true]; 4]));
        assert_eq!(sim.steps(), 4);
    }

    #[test]
    fn from_state_starts_where_requested() {
        let aig = counter();
        let mut sim = Simulator::from_state(&aig, vec![true, true]);
        assert!(sim.step(&[false]).property_violated());
    }

    #[test]
    #[should_panic(expected = "latch state width mismatch")]
    fn from_state_checks_width() {
        let aig = counter();
        let _ = Simulator::from_state(&aig, vec![true]);
    }

    #[test]
    fn missing_inputs_default_to_false() {
        let aig = counter();
        let mut sim = Simulator::new(&aig);
        let step = sim.step(&[]);
        assert!(!step.property_violated());
        assert_eq!(sim.latch_values(), &[false, false]);
    }

    #[test]
    fn outputs_count_as_bad_for_aiger_1_0_circuits() {
        // A toggling latch exposed through an *output* (AIGER 1.0 / HWMCC
        // style, no bad literal): property_violated must track the output so traces on
        // such circuits replay.
        let mut b = AigBuilder::new();
        let l = b.latch(Some(false));
        b.set_latch_next(l, !l);
        b.add_output(l);
        let aig = b.build();
        assert_eq!(aig.num_bad(), 0);
        let mut sim = Simulator::new(&aig);
        assert!(!sim.step(&[]).property_violated());
        assert!(sim.step(&[]).property_violated());
    }

    #[test]
    fn constraints_are_reported() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let l = b.latch(Some(false));
        b.set_latch_next(l, x);
        b.add_constraint(!l);
        b.add_bad(l);
        let aig = b.build();
        let mut sim = Simulator::new(&aig);
        let s1 = sim.step(&[true]);
        assert!(s1.constraints_hold());
        let s2 = sim.step(&[true]);
        assert!(!s2.constraints_hold());
        assert!(s2.property_violated());
        // run_reaches_bad refuses traces that violate constraints.
        let mut sim = Simulator::new(&aig);
        assert!(!sim.run_reaches_bad(&[vec![true], vec![true]]));
    }
}
