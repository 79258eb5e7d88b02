//! Results of a model-checking run: safety certificates, counterexamples, or
//! resource exhaustion.

use plic3_logic::Clause;
use plic3_ts::Trace;
use std::fmt;

/// A proof of safety: an inductive invariant strengthening the property.
///
/// The invariant is the conjunction of the stored [`Clause`]s together with the
/// property `P = ¬bad`. The `plic3-check` crate re-checks the three
/// conditions of Section 2.2 of the paper (`plic3_check::check_certificate`
/// on the engine's own transition system, `check_certificate_on_original`
/// through a preprocessing reconstruction).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Certificate {
    /// The lemma clauses over the current-state variables.
    pub lemmas: Vec<Clause>,
    /// The frame level at which the fixpoint `F_i = F_{i+1}` was detected.
    pub level: usize,
}

impl Certificate {
    /// Number of lemma clauses.
    pub fn len(&self) -> usize {
        self.lemmas.len()
    }

    /// Returns `true` if the certificate has no lemmas (the property alone is
    /// inductive).
    pub fn is_empty(&self) -> bool {
        self.lemmas.is_empty()
    }
}

/// Why a run stopped without a verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnknownReason {
    /// The wall-clock budget was exhausted.
    Timeout,
    /// The SAT-conflict budget was exhausted.
    ConflictLimit,
    /// The run's [`ResourceBudget`](plic3_sat::ResourceBudget) was cancelled
    /// (e.g. by the harness's watchdog) before anything else stopped it.
    Cancelled,
    /// The run's [`ResourceBudget`](plic3_sat::ResourceBudget) ran out of
    /// memory before anything else stopped it: the run was abandoned
    /// gracefully instead of letting the allocator abort the process.
    MemoryOut,
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::Timeout => write!(f, "timeout"),
            UnknownReason::ConflictLimit => write!(f, "conflict limit"),
            UnknownReason::Cancelled => write!(f, "cancelled"),
            UnknownReason::MemoryOut => write!(f, "memory out"),
        }
    }
}

/// The verdict of a model-checking run.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckResult {
    /// The property holds; the certificate contains the inductive invariant.
    Safe(Certificate),
    /// The property is violated; the trace is a counterexample execution.
    Unsafe(Trace),
    /// No verdict within the configured resource limits.
    Unknown(UnknownReason),
}

impl CheckResult {
    /// Returns `true` for [`CheckResult::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, CheckResult::Safe(_))
    }

    /// Returns `true` for [`CheckResult::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, CheckResult::Unsafe(_))
    }

    /// Returns `true` for [`CheckResult::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, CheckResult::Unknown(_))
    }

    /// The certificate, if the result is [`CheckResult::Safe`].
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            CheckResult::Safe(cert) => Some(cert),
            _ => None,
        }
    }

    /// The counterexample trace, if the result is [`CheckResult::Unsafe`].
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            CheckResult::Unsafe(trace) => Some(trace),
            _ => None,
        }
    }
}

impl fmt::Display for CheckResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckResult::Safe(cert) => write!(f, "safe ({} lemmas)", cert.len()),
            CheckResult::Unsafe(trace) => write!(f, "unsafe ({} steps)", trace.len()),
            CheckResult::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_logic::{Lit, Var};

    #[test]
    fn certificate_accessors() {
        let cert = Certificate {
            lemmas: vec![Clause::unit(Lit::neg(Var::new(0)))],
            level: 3,
        };
        assert_eq!(cert.len(), 1);
        assert!(!cert.is_empty());
        assert!(Certificate::default().is_empty());
    }

    #[test]
    fn result_predicates_and_accessors() {
        let safe = CheckResult::Safe(Certificate::default());
        let unsafe_ = CheckResult::Unsafe(Trace::default());
        let unknown = CheckResult::Unknown(UnknownReason::Timeout);
        assert!(safe.is_safe() && !safe.is_unsafe() && !safe.is_unknown());
        assert!(unsafe_.is_unsafe());
        assert!(unknown.is_unknown());
        assert!(safe.certificate().is_some());
        assert!(safe.trace().is_none());
        assert!(unsafe_.trace().is_some());
        assert!(unsafe_.certificate().is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            CheckResult::Safe(Certificate::default()).to_string(),
            "safe (0 lemmas)"
        );
        assert_eq!(
            CheckResult::Unknown(UnknownReason::ConflictLimit).to_string(),
            "unknown (conflict limit)"
        );
        assert_eq!(
            CheckResult::Unsafe(Trace::default()).to_string(),
            "unsafe (0 steps)"
        );
        assert_eq!(UnknownReason::Timeout.to_string(), "timeout");
    }
}
