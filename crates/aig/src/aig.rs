//! The and-inverter graph data structure.

use crate::AigLit;
use std::error::Error;
use std::fmt;

/// A latch (state-holding element) of an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Latch {
    /// The (positive) literal representing the latch output.
    pub lit: AigLit,
    /// The literal driving the next-state value.
    pub next: AigLit,
    /// The reset value: `Some(false)` / `Some(true)` for constant resets, `None`
    /// for an uninitialized latch (free initial value).
    pub init: Option<bool>,
}

/// A two-input AND gate of an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AndGate {
    /// The (positive, even) literal defined by this gate.
    pub lhs: AigLit,
    /// First operand.
    pub rhs0: AigLit,
    /// Second operand.
    pub rhs1: AigLit,
}

/// An and-inverter graph in the AIGER variable numbering:
/// variable `0` is the constant, variables `1..=I` are inputs, the next `L`
/// variables are latches, and the remaining `A` variables are AND gates.
///
/// Sequential properties are expressed through `bad` literals (AIGER 1.9) or,
/// for AIGER 1.0 files, through `outputs` which are conventionally interpreted
/// as bad-state indicators by HWMCC tools. Invariant `constraints` restrict the
/// reachable state space.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Aig {
    pub(crate) num_inputs: usize,
    pub(crate) latches: Vec<Latch>,
    pub(crate) ands: Vec<AndGate>,
    pub(crate) outputs: Vec<AigLit>,
    pub(crate) bad: Vec<AigLit>,
    pub(crate) constraints: Vec<AigLit>,
    pub(crate) comments: Vec<String>,
}

impl Aig {
    /// Creates an empty graph (no inputs, latches, gates, or properties).
    pub fn new() -> Self {
        Aig::default()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.ands.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of bad-state properties.
    pub fn num_bad(&self) -> usize {
        self.bad.len()
    }

    /// Number of invariant constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The maximum variable index (the `M` of the AIGER header).
    pub fn max_var(&self) -> u32 {
        (self.num_inputs + self.latches.len() + self.ands.len()) as u32
    }

    /// Estimated heap footprint of the graph in bytes, for memory-budget
    /// accounting (e.g. against a `ResourceBudget` held by a caller). An
    /// estimate is enough: budgets are advisory, not allocator hooks.
    pub fn estimated_bytes(&self) -> u64 {
        (self.latches.len() * std::mem::size_of::<Latch>()
            + self.ands.len() * std::mem::size_of::<AndGate>()
            + (self.outputs.len() + self.bad.len() + self.constraints.len())
                * std::mem::size_of::<AigLit>()
            + self.comments.iter().map(String::len).sum::<usize>()) as u64
    }

    /// The literal of the `i`-th primary input (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn input(&self, i: usize) -> AigLit {
        assert!(i < self.num_inputs, "input index out of range");
        AigLit::positive(1 + i as u32)
    }

    /// The latches of the graph.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// The AND gates of the graph, in topological (increasing-variable) order.
    pub fn ands(&self) -> &[AndGate] {
        &self.ands
    }

    /// The output literals.
    pub fn outputs(&self) -> &[AigLit] {
        &self.outputs
    }

    /// The bad-state literals.
    pub fn bad(&self) -> &[AigLit] {
        &self.bad
    }

    /// The invariant-constraint literals.
    pub fn constraints(&self) -> &[AigLit] {
        &self.constraints
    }

    /// Comment lines carried by the AIGER file (if any).
    pub fn comments(&self) -> &[String] {
        &self.comments
    }

    /// The literal to be used as *the* safety property for model checking: the
    /// first bad literal if present, otherwise the first output (the HWMCC
    /// convention for AIGER 1.0 files), otherwise `None`.
    pub fn property_literal(&self) -> Option<AigLit> {
        self.bad.first().or_else(|| self.outputs.first()).copied()
    }

    /// Returns `true` if `lit` refers to a latch variable.
    fn is_latch_lit(&self, lit: AigLit) -> bool {
        let v = lit.variable() as usize;
        v > self.num_inputs && v <= self.num_inputs + self.latches.len()
    }

    /// Returns `true` if `lit` refers to an AND-gate variable.
    fn is_and_lit(&self, lit: AigLit) -> bool {
        let v = lit.variable() as usize;
        v > self.num_inputs + self.latches.len() && v <= self.max_var() as usize
    }

    /// The index of the latch whose output variable is `lit.variable()`, if any.
    pub fn latch_index(&self, lit: AigLit) -> Option<usize> {
        if self.is_latch_lit(lit) {
            Some(lit.variable() as usize - self.num_inputs - 1)
        } else {
            None
        }
    }

    /// The gate defining `lit.variable()`, if it is an AND variable.
    pub fn and_for(&self, lit: AigLit) -> Option<&AndGate> {
        if self.is_and_lit(lit) {
            let idx = lit.variable() as usize - self.num_inputs - self.latches.len() - 1;
            Some(&self.ands[idx])
        } else {
            None
        }
    }

    /// Checks the structural invariants of the AIGER format.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateAigError`] if a gate is defined by a negated or
    /// non-increasing literal, if an operand refers to a variable defined later
    /// (a combinational cycle), or if a latch/property refers to an unknown
    /// variable.
    pub fn validate(&self) -> Result<(), ValidateAigError> {
        let max = self.max_var();
        let check_ref = |lit: AigLit, what: &str| {
            if lit.variable() > max {
                Err(ValidateAigError::new(format!(
                    "{what} literal {lit} refers to unknown variable {}",
                    lit.variable()
                )))
            } else {
                Ok(())
            }
        };
        let first_and_var = (self.num_inputs + self.latches.len() + 1) as u32;
        for (i, gate) in self.ands.iter().enumerate() {
            let expected = first_and_var + i as u32;
            if gate.lhs.is_negated() || gate.lhs.variable() != expected {
                return Err(ValidateAigError::new(format!(
                    "gate {i} must be defined by literal {}, found {}",
                    AigLit::positive(expected),
                    gate.lhs
                )));
            }
            for rhs in [gate.rhs0, gate.rhs1] {
                check_ref(rhs, "gate operand")?;
                if rhs.variable() >= gate.lhs.variable() {
                    return Err(ValidateAigError::new(format!(
                        "gate {} uses operand {} that is not defined earlier",
                        gate.lhs, rhs
                    )));
                }
            }
        }
        for (i, latch) in self.latches.iter().enumerate() {
            let expected = (self.num_inputs + 1 + i) as u32;
            if latch.lit.is_negated() || latch.lit.variable() != expected {
                return Err(ValidateAigError::new(format!(
                    "latch {i} must be variable {expected}, found {}",
                    latch.lit
                )));
            }
            check_ref(latch.next, "latch next-state")?;
        }
        for &o in &self.outputs {
            check_ref(o, "output")?;
        }
        for &b in &self.bad {
            check_ref(b, "bad")?;
        }
        for &c in &self.constraints {
            check_ref(c, "constraint")?;
        }
        Ok(())
    }
}

impl fmt::Display for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aig M={} I={} L={} O={} A={} B={} C={}",
            self.max_var(),
            self.num_inputs,
            self.latches.len(),
            self.outputs.len(),
            self.ands.len(),
            self.bad.len(),
            self.constraints.len()
        )
    }
}

/// Error returned by [`Aig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidateAigError {
    message: String,
}

impl ValidateAigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ValidateAigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ValidateAigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid AIG: {}", self.message)
    }
}

impl Error for ValidateAigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AigBuilder;

    fn toggle_aig() -> Aig {
        let mut b = AigBuilder::new();
        let enable = b.input();
        let state = b.latch(Some(false));
        let toggled = b.xor(state, enable);
        b.set_latch_next(state, toggled);
        b.add_bad(state);
        b.add_output(state);
        b.build()
    }

    #[test]
    fn counts_and_classification() {
        let aig = toggle_aig();
        assert_eq!(aig.num_inputs(), 1);
        assert_eq!(aig.num_latches(), 1);
        assert!(aig.num_ands() >= 1);
        assert_eq!(aig.num_bad(), 1);
        assert_eq!(aig.num_outputs(), 1);
        let input = aig.input(0);
        assert!(!aig.is_latch_lit(input) && !aig.is_and_lit(input));
        let latch = aig.latches()[0].lit;
        assert!(aig.is_latch_lit(latch));
        assert_eq!(aig.latch_index(latch), Some(0));
        assert_eq!(aig.latch_index(input), None);
        let gate = aig.ands()[0].lhs;
        assert!(aig.is_and_lit(gate));
        assert!(aig.and_for(gate).is_some());
        assert!(aig.and_for(input).is_none());
    }

    #[test]
    fn property_literal_prefers_bad_over_output() {
        let aig = toggle_aig();
        assert_eq!(aig.property_literal(), Some(aig.bad()[0]));
        let mut b = AigBuilder::new();
        let i = b.input();
        b.add_output(i);
        let out_only = b.build();
        assert_eq!(out_only.property_literal(), Some(out_only.outputs()[0]));
        assert_eq!(Aig::new().property_literal(), None);
    }

    #[test]
    fn validation_accepts_builder_output() {
        toggle_aig().validate().expect("builder output is valid");
    }

    #[test]
    fn validation_rejects_forward_references() {
        let mut aig = toggle_aig();
        // Point a gate operand at a variable defined later.
        let last = aig.max_var();
        aig.ands[0].rhs0 = AigLit::positive(last + 5);
        assert!(aig.validate().is_err());
    }

    #[test]
    fn validation_rejects_negated_definitions() {
        let mut aig = toggle_aig();
        aig.ands[0].lhs = !aig.ands[0].lhs;
        let err = aig.validate().unwrap_err();
        assert!(err.to_string().contains("must be defined"));
    }

    #[test]
    #[should_panic(expected = "input index out of range")]
    fn input_accessor_bounds_checked() {
        let aig = toggle_aig();
        let _ = aig.input(5);
    }

    #[test]
    fn display_summarises_sizes() {
        let s = toggle_aig().to_string();
        assert!(s.starts_with("aig M="));
        assert!(s.contains("I=1"));
        assert!(s.contains("L=1"));
    }
}
