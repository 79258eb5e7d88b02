//! DRAT-style proof tracing (`proof-log` feature).
//!
//! When a solver's tracer is enabled ([`crate::Solver::enable_proof_tracing`])
//! every change to the clause database is recorded as a [`ProofStep`]:
//!
//! * [`ProofStep::Input`] — an axiom handed to the solver by its caller
//!   (`add_clause`), recorded verbatim after sorting and deduplication. Input
//!   lines are *not* checked by the DRAT checker; they are the formula the
//!   proof is about, auditable against the caller's clauses.
//! * [`ProofStep::Add`] — a clause the solver *derived* (a learnt clause, a
//!   simplified input, the negated assumption core of an UNSAT answer, or the
//!   empty clause). Every `Add` line has the RUP property with respect to the
//!   clauses preceding it, which is exactly what `plic3-check`'s backward
//!   DRAT checker verifies.
//! * [`ProofStep::Delete`] — a clause removed from the database (database
//!   reduction and satisfied-clause sweeps).
//!   Deletions of *locked* clauses (reasons of root-level literals) are not
//!   recorded, following the drat-trim convention: removing the reason of a
//!   fixed literal would make later derivations uncheckable even though the
//!   solver legitimately keeps relying on the literal.
//!
//! Clauses are identified by content (as literal sets), never by arena
//! address, so garbage collection and watch-order permutation need no tracer
//! interaction.
//!
//! # Cost model
//!
//! The tracer mirrors the `fault-injection` design: without the `proof-log`
//! cargo feature the recorder is a zero-sized no-op whose `is_active()` is the
//! constant `false`, so every hook branch in the solver hot path folds away.
//! With the feature compiled in, recording is still opt-in per solver at
//! runtime and costs one well-predicted branch per hook site when off.

use plic3_logic::Lit;

/// One line of a DRAT-style proof trace (`docs/CERTIFICATES.md` lists which
/// solver step logs which variant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An axiom: a clause added by the solver's caller.
    Input(Vec<Lit>),
    /// A derived clause; has the RUP property w.r.t. the preceding lines.
    Add(Vec<Lit>),
    /// A clause removed from the database.
    Delete(Vec<Lit>),
}

impl ProofStep {
    /// The literals of this line's clause.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofStep::Input(l) | ProofStep::Add(l) | ProofStep::Delete(l) => l,
        }
    }
}

/// A recorded proof trace: the sequence of clause additions and deletions of
/// one solver, in order. Obtained from [`crate::Solver::proof`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proof {
    steps: Vec<ProofStep>,
}

impl Proof {
    /// Builds a proof from explicit steps. Intended for checker tests and
    /// external tooling (e.g. reading a proof back from a file); solvers
    /// produce proofs through the tracer, not through this constructor.
    pub fn from_steps(steps: Vec<ProofStep>) -> Self {
        Proof { steps }
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// `true` if this build compiles the proof tracer in (the `proof-log` cargo
/// feature). When `false`, [`crate::Solver::enable_proof_tracing`] is a no-op
/// that returns `false` and no tracing branch survives in the solver.
pub const fn proof_logging_compiled() -> bool {
    cfg!(feature = "proof-log")
}

/// The per-solver recorder. A no-op ZST-alike when `proof-log` is off.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProofRecorder {
    #[cfg(feature = "proof-log")]
    log: Option<Box<Proof>>,
}

#[cfg(feature = "proof-log")]
impl ProofRecorder {
    /// Starts recording (idempotent). Returns `true`: tracing is compiled in.
    pub(crate) fn enable(&mut self) -> bool {
        if self.log.is_none() {
            self.log = Some(Box::default());
        }
        true
    }

    /// `true` while recording. Hook sites branch on this.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.log.is_some()
    }

    /// The proof recorded so far, if tracing was enabled.
    pub(crate) fn proof(&self) -> Option<&Proof> {
        self.log.as_deref()
    }

    #[inline]
    fn push(&mut self, step: ProofStep) {
        if let Some(log) = &mut self.log {
            log.steps.push(step);
        }
    }

    pub(crate) fn input(&mut self, lits: &[Lit]) {
        self.push(ProofStep::Input(lits.to_vec()));
    }

    pub(crate) fn add(&mut self, lits: &[Lit]) {
        self.push(ProofStep::Add(lits.to_vec()));
    }

    pub(crate) fn delete(&mut self, lits: &[Lit]) {
        self.push(ProofStep::Delete(lits.to_vec()));
    }
}

#[cfg(not(feature = "proof-log"))]
impl ProofRecorder {
    /// Tracing is compiled out: stays inert, returns `false`.
    #[inline(always)]
    pub(crate) fn enable(&mut self) -> bool {
        false
    }

    /// Constant `false`: every hook branch folds away.
    #[inline(always)]
    pub(crate) fn is_active(&self) -> bool {
        false
    }

    /// Always `None` without the feature.
    #[inline(always)]
    pub(crate) fn proof(&self) -> Option<&Proof> {
        None
    }

    #[inline(always)]
    pub(crate) fn input(&mut self, _lits: &[Lit]) {}

    #[inline(always)]
    pub(crate) fn add(&mut self, _lits: &[Lit]) {}

    #[inline(always)]
    pub(crate) fn delete(&mut self, _lits: &[Lit]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SatResult, Solver};
    use plic3_logic::{Lit, Var};

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    /// The default-build inertness contract (the CI check named in the
    /// workflow): without the `proof-log` feature, enabling the tracer is a
    /// no-op, `proof()` stays `None`, and the recorder occupies no memory.
    #[cfg(not(feature = "proof-log"))]
    #[test]
    fn feature_off_tracer_is_inert() {
        assert!(!proof_logging_compiled());
        assert_eq!(std::mem::size_of::<ProofRecorder>(), 0);
        let mut solver = Solver::new();
        assert!(!solver.enable_proof_tracing());
        let a = Lit::pos(solver.new_var());
        solver.add_clause([a]);
        solver.add_clause([!a]);
        assert_eq!(solver.solve(&[]), SatResult::Unsat);
        assert!(solver.proof().is_none());
    }

    #[cfg(feature = "proof-log")]
    #[test]
    fn tracing_is_runtime_opt_in() {
        assert!(proof_logging_compiled());
        // Not enabled: nothing is recorded even with the feature compiled in.
        let mut solver = Solver::new();
        let a = Lit::pos(solver.new_var());
        solver.add_clause([a]);
        assert!(solver.proof().is_none());
        // Enabled: inputs are recorded verbatim (sorted, deduplicated).
        let mut solver = Solver::new();
        assert!(solver.enable_proof_tracing());
        let a = Lit::pos(solver.new_var());
        let b = Lit::pos(solver.new_var());
        solver.add_clause([b, a, b]);
        let proof = solver.proof().expect("tracing enabled");
        assert_eq!(proof.steps(), &[ProofStep::Input(vec![a, b])]);
    }

    #[cfg(feature = "proof-log")]
    #[test]
    fn unsat_answers_end_in_a_derived_clause() {
        let mut solver = Solver::new();
        solver.enable_proof_tracing();
        let a = Lit::pos(solver.new_var());
        solver.add_clause([a]);
        solver.add_clause([!a]);
        assert_eq!(solver.solve(&[]), SatResult::Unsat);
        let proof = solver.proof().expect("tracing enabled");
        assert!(
            proof
                .steps()
                .iter()
                .any(|s| matches!(s, ProofStep::Add(l) if l.is_empty())),
            "a top-level UNSAT must derive the empty clause: {proof:?}"
        );
    }

    #[cfg(feature = "proof-log")]
    #[test]
    fn assumption_unsat_logs_the_negated_core() {
        let mut solver = Solver::new();
        solver.enable_proof_tracing();
        let a = Lit::pos(solver.new_var());
        let b = Lit::pos(solver.new_var());
        solver.add_clause([!a, b]);
        assert_eq!(solver.solve(&[a, !b]), SatResult::Unsat);
        let core: Vec<Lit> = solver.unsat_core().to_vec();
        assert!(!core.is_empty());
        let mut negated: Vec<Lit> = core.iter().map(|&l| !l).collect();
        negated.sort_unstable();
        let proof = solver.proof().expect("tracing enabled");
        assert!(
            proof.steps().iter().any(|s| {
                if let ProofStep::Add(l) = s {
                    let mut l = l.clone();
                    l.sort_unstable();
                    l == negated
                } else {
                    false
                }
            }),
            "assumption UNSAT must log the negated core: {proof:?}"
        );
    }

    #[test]
    fn step_lits_views_every_variant() {
        let lits = vec![lit(0, true), lit(1, false)];
        for step in [
            ProofStep::Input(lits.clone()),
            ProofStep::Add(lits.clone()),
            ProofStep::Delete(lits.clone()),
        ] {
            assert_eq!(step.lits(), &lits[..]);
        }
        assert!(Proof::default().is_empty());
        assert_eq!(Proof::default().len(), 0);
    }
}
