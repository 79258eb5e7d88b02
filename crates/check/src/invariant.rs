//! Checking inductive-invariant certificates on the **original** circuit.
//!
//! An IC3 or k-induction `Safe` verdict comes with a [`Certificate`]: a set of
//! lemma clauses whose conjunction with the property is an inductive invariant
//! of the transition system the engine actually ran on. When preprocessing is
//! in the loop, that system is the *simplified* circuit — so a checker that
//! replays the certificate on the simplified circuit would trust every
//! preprocessing pass. This module does better: it translates the certificate
//! back through the preprocessing [`Reconstruction`] and discharges all three
//! invariant conditions (initiation, consecution, property) on a transition
//! system built from the **original, untouched** circuit. That system encodes
//! the whole original circuit, every latch, input and gate, with no
//! cone-of-influence reduction: original latch `o` is its latch `o`.
//!
//! # Translation
//!
//! Each preprocessing pass records, for every original latch, a
//! [`SignalSource`]: kept (possibly negated) as simplified latch `n`, proved
//! constant, dropped with its whole equivalence class, or dropped as
//! irrelevant. The checker inverts that map:
//!
//! * every simplified latch gets a **representative** original latch (the
//!   first original latch kept as it); lemma literals are rewritten onto the
//!   representatives with the recorded polarities;
//! * every *other* kept original latch yields an **equivalence fact** tying it
//!   to its class representative, and so does every latch of a class that
//!   was dropped whole ([`SignalSource::Equivalent`]); every constant-folded
//!   latch yields a **unit fact** — these are exactly the reachability facts
//!   preprocessing claimed, and the checker does not take them on faith: the
//!   facts are checked for initiation and consecution right alongside the
//!   lemmas, so a preprocessing soundness bug fails the certificate check
//!   loudly.
//!
//! The translated lemmas and the facts together (conjoined with the property)
//! form the candidate invariant `INV` on the original system, and the standard
//! conditions are discharged with fresh SAT queries: `I ⇒ INV`, `INV ∧ T ⇒
//! INV'`, and `INV ∧ T ⇒ P'` (plus `I ⇒ P` directly).
//!
//! [`check_certificate`] is the same discharge without a reconstruction: it
//! checks a certificate against the transition system the engine ran on, as
//! the tests do.
//!
//! When the solver's `proof-log` feature is compiled in, every UNSAT answer
//! the checker relies on is itself DRAT checked by
//! [`crate::check_unsat_proof`]: the certificate check then rests only on the
//! tiny RUP kernel and the CNF encoding, which is the engine's own `plic3_ts`
//! encoding.

use plic3::Certificate;
use plic3_aig::Aig;
use plic3_logic::Lit;
use plic3_prep::{Reconstruction, SignalSource};
use plic3_sat::{proof_logging_compiled, ResourceBudget, SatResult, Solver};
use plic3_ts::{TransitionSystem, Unroller};

use crate::drat::check_unsat_proof;

/// Why a certificate check did not succeed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertCheckError {
    /// The certificate is wrong: a condition is violated (with a description
    /// of the first violation found), or the certificate cannot even be
    /// expressed on the original circuit.
    Invalid(String),
    /// The check was interrupted (its budget stopped) before reaching a
    /// verdict. This is **not** evidence against the certificate.
    Interrupted,
}

impl std::fmt::Display for CertCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertCheckError::Invalid(why) => write!(f, "invalid certificate: {why}"),
            CertCheckError::Interrupted => write!(f, "certificate check interrupted"),
        }
    }
}

impl std::error::Error for CertCheckError {}

/// What a successful certificate check actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertCheckReport {
    /// Number of lemma clauses translated and checked.
    pub lemmas: usize,
    /// Number of preprocessing facts (equivalences, constants) checked.
    pub facts: usize,
    /// Total SAT queries discharged (all UNSAT on success).
    pub queries: usize,
    /// How many of those UNSAT answers were additionally DRAT checked: all
    /// of them when the solver is built with the `proof-log` feature, none
    /// otherwise.
    pub drat_checked: usize,
}

/// Options for a certificate check.
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// The budget the checker's solvers run under (unlimited by default):
    /// once it is stopped (cancelled or out of memory), the check returns
    /// [`CertCheckError::Interrupted`] instead of a verdict.
    pub budget: ResourceBudget,
}

/// Runs one "must be UNSAT" query, mapping `Sat` to [`CertCheckError::Invalid`]
/// and `Unknown` (a stopped budget — the checker sets no conflict budget) to
/// [`CertCheckError::Interrupted`], DRAT-checking the answer when the solver
/// traces proofs. `what` describes the violated condition; it is formatted
/// only when the query fails.
fn expect_unsat(
    solver: &mut Solver,
    assumptions: &[Lit],
    what: impl FnOnce() -> String,
    report: &mut CertCheckReport,
) -> Result<(), CertCheckError> {
    report.queries += 1;
    match solver.solve(assumptions) {
        SatResult::Sat => Err(CertCheckError::Invalid(what())),
        SatResult::Unknown => Err(CertCheckError::Interrupted),
        SatResult::Unsat => {
            if let Some(proof) = solver.proof() {
                check_unsat_proof(proof, assumptions).map_err(|e| {
                    CertCheckError::Invalid(format!("DRAT check failed for \"{}\": {e}", what()))
                })?;
                report.drat_checked += 1;
            }
            Ok(())
        }
    }
}

/// A fresh solver for the checker's queries: under `options.budget`, and
/// tracing DRAT proofs whenever the `proof-log` feature is compiled in.
fn checker_solver(options: &CheckOptions) -> Solver {
    let mut solver = Solver::new();
    solver.set_budget(options.budget.clone());
    if proof_logging_compiled() {
        solver.enable_proof_tracing();
    }
    solver
}

/// Checks `cert` — produced on the *simplified* transition system
/// `simplified_ts` — against the **original** circuit, composing through the
/// preprocessing reconstruction `recon`.
///
/// On success, the certificate proves the original circuit safe: the
/// translated lemmas plus the preprocessing facts plus the property form an
/// inductive invariant of `TransitionSystem::from_aig(original)`. The check
/// shares no *state* with the engine or the preprocessor, but it does share
/// *code* with the engine: its queries run on [`plic3_sat::Solver`] and the
/// circuit is encoded by [`plic3_ts::TransitionSystem`] and
/// [`plic3_ts::Unroller`], the engine's own solver and Tseitin encoding. In
/// the `proof-log` build the solver's UNSAT answers are DRAT checked; the
/// encoding is always trusted. Giving the checker its own encoder and solver
/// is item 6 of `ROADMAP.md`.
///
/// # Errors
///
/// [`CertCheckError::Invalid`] if any condition fails — including initiation
/// or consecution of a *preprocessing fact*, which would indicate an unsound
/// preprocessing pass rather than a bad engine. [`CertCheckError::Interrupted`]
/// if the budget of [`CheckOptions`] stopped mid-check.
pub fn check_certificate_on_original(
    original: &Aig,
    recon: &Reconstruction,
    simplified_ts: &TransitionSystem,
    cert: &Certificate,
    options: &CheckOptions,
) -> Result<CertCheckReport, CertCheckError> {
    if recon.num_original_inputs() != original.num_inputs()
        || recon.num_original_latches() != original.num_latches()
    {
        return Err(CertCheckError::Invalid(format!(
            "reconstruction shape ({} inputs, {} latches) does not match the original \
             circuit ({} inputs, {} latches)",
            recon.num_original_inputs(),
            recon.num_original_latches(),
            original.num_inputs(),
            original.num_latches()
        )));
    }

    // The original circuit's latch `o` is its transition system's latch `o`.
    let ts_orig = TransitionSystem::from_aig(original);

    // Simplified latch -> representative original latch: the first original
    // latch kept as it, with the polarity of that mapping.
    // A reconstruction that belongs to another simplified circuit may name a
    // latch this one does not have.
    let mut rep: Vec<Option<(usize, bool)>> = vec![None; simplified_ts.num_latches()];
    for o in 0..original.num_latches() {
        if let SignalSource::Kept { index, negated } = recon.latch_source(o) {
            let Some(slot) = rep.get_mut(index) else {
                return Err(CertCheckError::Invalid(format!(
                    "original latch {o} is kept as simplified latch {index}, but the \
                     simplified circuit has {} latches",
                    simplified_ts.num_latches()
                )));
            };
            slot.get_or_insert((o, negated));
        }
    }

    // Translate the lemmas onto the representatives. A lemma literal asserts
    // "simplified latch = b"; with original = simplified XOR negated, that is
    // "representative = b XOR negated".
    let mut items: Vec<Vec<Lit>> = Vec::with_capacity(cert.lemmas.len());
    for (i, clause) in cert.lemmas.iter().enumerate() {
        let mut translated = Vec::with_capacity(clause.len());
        for lit in clause.iter() {
            let Some(simpl_latch) = simplified_ts.latch_index_of(lit.var()) else {
                return Err(CertCheckError::Invalid(format!(
                    "lemma {i} ({clause}) mentions a non-state variable"
                )));
            };
            let Some((o, negated)) = rep[simpl_latch] else {
                return Err(CertCheckError::Invalid(format!(
                    "lemma {i} ({clause}) mentions simplified latch {simpl_latch}, which no \
                     original latch is kept as"
                )));
            };
            translated.push(Lit::new(
                ts_orig.latch_var(o),
                lit.asserted_value() != negated,
            ));
        }
        items.push(translated);
    }

    // The facts preprocessing claimed about reachable states of the original
    // circuit: class equivalences, between kept latches and within classes
    // that were dropped whole, and constants.
    let mut facts: Vec<Vec<Lit>> = Vec::new();
    for o in 0..original.num_latches() {
        let o_var = ts_orig.latch_var(o);
        // o = rep XOR flip for the class representative `rep`.
        let (rep_latch, flip) = match recon.latch_source(o) {
            SignalSource::Kept { index, negated } => {
                // Skip the representative itself: it defines its class.
                let Some((rep_latch, rep_negated)) = rep[index].filter(|&(r, _)| r != o) else {
                    continue;
                };
                // o = simplified XOR negated, rep = simplified XOR rep_negated.
                (rep_latch, negated != rep_negated)
            }
            SignalSource::Equivalent { latch, negated } => (latch, negated),
            SignalSource::Constant(value) => {
                facts.push(vec![Lit::new(o_var, value)]);
                continue;
            }
            SignalSource::Free => continue,
        };
        let rep_equal = Lit::new(ts_orig.latch_var(rep_latch), !flip);
        facts.push(vec![Lit::new(o_var, false), rep_equal]);
        facts.push(vec![Lit::new(o_var, true), !rep_equal]);
    }

    discharge(&ts_orig, &items, &facts, options)
}

/// Checks a certificate against the transition system `ts` the engine ran
/// on, with no preprocessing in between: the lemmas must mention only latch
/// variables of `ts`, and together with the property they must form an
/// inductive invariant of `ts`.
///
/// # Errors
///
/// [`CertCheckError::Invalid`] if a lemma mentions a non-state variable or a
/// condition fails; [`CertCheckError::Interrupted`] if the budget of
/// [`CheckOptions`] stopped mid-check.
///
/// # Example
///
/// ```
/// use plic3::{Config, Ic3};
/// use plic3_aig::AigBuilder;
/// use plic3_check::{check_certificate, CheckOptions};
///
/// let mut b = AigBuilder::new();
/// let s = b.latch(Some(false));
/// b.set_latch_next(s, s);
/// b.add_bad(s);
/// let mut engine = Ic3::from_aig(&b.build(), Config::ric3_like());
/// let result = engine.check();
/// let cert = result.certificate().expect("safe circuit");
/// check_certificate(engine.ts(), cert, &CheckOptions::default()).expect("certificate is valid");
/// ```
pub fn check_certificate(
    ts: &TransitionSystem,
    cert: &Certificate,
    options: &CheckOptions,
) -> Result<CertCheckReport, CertCheckError> {
    let mut lemmas: Vec<Vec<Lit>> = Vec::with_capacity(cert.lemmas.len());
    for (i, clause) in cert.lemmas.iter().enumerate() {
        if clause
            .iter()
            .any(|lit| ts.latch_index_of(lit.var()).is_none())
        {
            return Err(CertCheckError::Invalid(format!(
                "lemma {i} ({clause}) mentions a non-state variable"
            )));
        }
        lemmas.push(clause.lits().to_vec());
    }
    discharge(ts, &lemmas, &[], options)
}

/// Discharges the invariant conditions for `lemmas ∧ facts ∧ P` on `ts`:
/// initiation of every lemma and fact plus `I ⇒ P` on a single-frame solver,
/// then consecution of every lemma and fact plus `INV ∧ T ⇒ P'` on a
/// two-frame step solver.
///
/// The step solver holds frame 0's copy of `T`, `INV` in frame 0 and the
/// shared premise `¬bad(s₀)` as input clauses, so each consecution query
/// assumes only the negated lemma in frame 1. Frame 1's copy of `T` defines
/// nothing a consecution query mentions (frame-1 gates and inputs, frame-2
/// latches, a constant), so it is added right before the property query.
/// Circuits with invariant constraints are the exception: their frame-1
/// copy asserts the constraints in the successor, so it is added up front.
/// The conditions and the number of queries are the same either way.
fn discharge(
    ts: &TransitionSystem,
    lemmas: &[Vec<Lit>],
    facts: &[Vec<Lit>],
    options: &CheckOptions,
) -> Result<CertCheckReport, CertCheckError> {
    let mut report = CertCheckReport {
        lemmas: lemmas.len(),
        facts: facts.len(),
        queries: 0,
        drat_checked: 0,
    };
    let mut assumptions: Vec<Lit> = Vec::new();

    // --- Initiation (and I => P), on a single-frame solver. ---
    let mut init_solver = checker_solver(options);
    init_solver.ensure_vars(ts.num_vars());
    for clause in ts.trans() {
        init_solver.add_clause_ref(clause);
    }
    for clause in ts.init_cnf() {
        init_solver.add_clause_ref(clause);
    }
    for (kind, clauses) in [("lemma", lemmas), ("preprocessing fact", facts)] {
        for (i, c) in clauses.iter().enumerate() {
            assumptions.clear();
            assumptions.extend(c.iter().map(|&l| !l));
            expect_unsat(
                &mut init_solver,
                &assumptions,
                || format!("{kind} {i} does not hold in the initial states"),
                &mut report,
            )?;
        }
    }
    expect_unsat(
        &mut init_solver,
        &ts.bad_assumptions(),
        || "an initial state violates the property".to_string(),
        &mut report,
    )?;

    // --- Consecution (and INV ∧ T => P'), on a two-frame unrolling. ---
    // Frame 0 of the unrolling is `ts`'s own variable space.
    let unroller = Unroller::new(ts);
    let mut step_solver = checker_solver(options);
    step_solver.ensure_vars(ts.num_vars());
    for clause in ts.trans() {
        step_solver.add_clause_ref(clause);
    }
    for c in lemmas.iter().chain(facts) {
        step_solver.add_clause(c.iter().copied());
    }
    step_solver.add_clause([!ts.bad_lit()]);
    let add_frame_1 = |solver: &mut Solver| {
        solver.ensure_vars(unroller.num_vars_through(1));
        for clause in ts.trans() {
            solver.add_clause(clause.iter().map(|l| unroller.lit_at(1, l)));
        }
    };
    let constrained = !ts.constraint_lits().is_empty();
    if constrained {
        add_frame_1(&mut step_solver);
    }
    for (kind, clauses) in [("lemma", lemmas), ("preprocessing fact", facts)] {
        for (i, c) in clauses.iter().enumerate() {
            assumptions.clear();
            assumptions.extend(c.iter().map(|&l| unroller.lit_at(1, !l)));
            expect_unsat(
                &mut step_solver,
                &assumptions,
                || format!("{kind} {i} is not preserved by the transition relation"),
                &mut report,
            )?;
        }
    }
    if !constrained {
        add_frame_1(&mut step_solver);
    }
    assumptions.clear();
    assumptions.push(unroller.lit_at(1, ts.bad_lit()));
    assumptions.extend(ts.constraint_lits().iter().map(|&c| unroller.lit_at(1, c)));
    expect_unsat(
        &mut step_solver,
        &assumptions,
        || "the invariant does not imply the property after one step".to_string(),
        &mut report,
    )?;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3::{Config, Ic3};
    use plic3_aig::AigBuilder;
    use plic3_logic::{Clause, Cube};

    fn safe_counter() -> Aig {
        // A 3-bit counter saturating at 5; bad at 7 (unreachable).
        let mut b = AigBuilder::new();
        let state = b.latches(3, Some(false));
        let at5 = b.vec_equals_const(&state, 5);
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            let held = b.ite(at5, *s, *n);
            b.set_latch_next(*s, held);
        }
        let bad = b.vec_equals_const(&state, 7);
        b.add_bad(bad);
        b.build()
    }

    #[test]
    fn accepts_a_genuine_certificate_without_preprocessing() {
        let aig = safe_counter();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let cert = result.certificate().expect("safe").clone();
        let report = check_certificate(engine.ts(), &cert, &CheckOptions::default())
            .expect("certificate valid");
        assert_eq!(report.lemmas, cert.lemmas.len());
        assert_eq!(report.facts, 0, "identity reconstruction has no facts");
        assert!(
            report.queries > report.lemmas,
            "initiation + consecution + property"
        );
    }

    #[test]
    fn rejects_a_tampered_certificate() {
        let aig = safe_counter();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let mut cert = result.certificate().expect("safe").clone();
        // Negate every literal of the first lemma: almost surely not inductive
        // (and if it were, it would fail initiation instead).
        let tampered: Clause = Clause::from_lits(cert.lemmas[0].iter().map(|l| !l));
        cert.lemmas[0] = tampered;
        let err = check_certificate(engine.ts(), &cert, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CertCheckError::Invalid(_)), "{err}");
    }

    #[test]
    fn rejects_an_empty_certificate_for_a_non_inductive_property() {
        let mut b = AigBuilder::new();
        let state = b.latches(3, Some(false));
        let inc = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&inc) {
            b.set_latch_next(*s, *n);
        }
        let bad = b.vec_equals_const(&state, 7);
        b.add_bad(bad);
        let ts = TransitionSystem::from_aig(&b.build());
        let err =
            check_certificate(&ts, &Certificate::default(), &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CertCheckError::Invalid(ref why) if why.contains("after one step")));
    }

    #[test]
    fn a_raised_stop_flag_interrupts_instead_of_failing() {
        let aig = safe_counter();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let cert = result.certificate().expect("safe").clone();
        let budget = ResourceBudget::unlimited();
        budget.cancel();
        let err = check_certificate(engine.ts(), &cert, &CheckOptions { budget }).unwrap_err();
        assert_eq!(err, CertCheckError::Interrupted);
    }

    #[test]
    fn rejects_a_lemma_over_non_state_variables() {
        let aig = safe_counter();
        let ts = TransitionSystem::from_aig(&aig);
        let bogus = Certificate {
            lemmas: vec![Clause::unit(Lit::pos(ts.primed_var(0)))],
            level: 1,
        };
        let err = check_certificate(&ts, &bogus, &CheckOptions::default()).unwrap_err();
        assert!(matches!(err, CertCheckError::Invalid(ref why) if why.contains("non-state")));
    }

    #[test]
    fn rejects_certificates_violating_initiation() {
        let ts = TransitionSystem::from_aig(&safe_counter());
        // The clause ¬(all latches 0) is false in the initial state.
        let bogus = Certificate {
            lemmas: vec![Clause::from_lits((0..3).map(|i| Lit::pos(ts.latch_var(i))))],
            level: 1,
        };
        let err = check_certificate(&ts, &bogus, &CheckOptions::default()).unwrap_err();
        assert_eq!(
            err,
            CertCheckError::Invalid("lemma 0 does not hold in the initial states".to_string())
        );
    }

    #[test]
    fn rejects_certificates_violating_consecution() {
        let ts = TransitionSystem::from_aig(&safe_counter());
        // "Counter never reaches 1" is initially true but not inductive.
        let bogus = Certificate {
            lemmas: vec![Cube::from_lits([
                Lit::pos(ts.latch_var(0)),
                Lit::neg(ts.latch_var(1)),
                Lit::neg(ts.latch_var(2)),
            ])
            .negate()],
            level: 1,
        };
        let err = check_certificate(&ts, &bogus, &CheckOptions::default()).unwrap_err();
        assert_eq!(
            err,
            CertCheckError::Invalid(
                "lemma 0 is not preserved by the transition relation".to_string()
            )
        );
    }

    #[test]
    fn consecution_assumes_the_property_in_the_pre_state() {
        // Two latches that swap, both starting at 0; bad = b. The lemma ¬a is
        // preserved only from pre-states that satisfy the property: a' = b.
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let bad = b.latch(Some(false));
        b.set_latch_next(a, bad);
        b.set_latch_next(bad, a);
        b.add_bad(bad);
        let ts = TransitionSystem::from_aig(&b.build());
        let not_a = Lit::neg(ts.latch_var(0));

        // On its own, ¬a is not inductive: ¬a ∧ T ∧ a' is satisfiable.
        let mut solver = Solver::new();
        for clause in ts.trans() {
            solver.add_clause_ref(clause);
        }
        assert_eq!(solver.solve(&[not_a, !ts.prime_lit(not_a)]), SatResult::Sat);

        let cert = Certificate {
            lemmas: vec![Clause::unit(not_a)],
            level: 1,
        };
        let report = check_certificate(&ts, &cert, &CheckOptions::default())
            .expect("¬a is inductive relative to the property");
        assert_eq!(report.queries, 4, "initiation ×2, consecution, property");
        let drat = if proof_logging_compiled() { 4 } else { 0 };
        assert_eq!(report.drat_checked, drat);
    }

    /// Latch `a` is driven by a free input and feeds the stuck-at-0 bad
    /// latch; with `constrained`, the invariant constraint ¬a holds in every
    /// state of a run.
    fn free_latch_circuit(constrained: bool) -> Aig {
        let mut b = AigBuilder::new();
        let input = b.input();
        let a = b.latch(Some(false));
        let bad = b.latch(Some(false));
        b.set_latch_next(a, input);
        let next_bad = b.and(bad, a);
        b.set_latch_next(bad, next_bad);
        b.add_bad(bad);
        if constrained {
            b.add_constraint(!a);
        }
        b.build()
    }

    #[test]
    fn consecution_asserts_the_constraints_in_the_successor() {
        let check = |constrained: bool| {
            let ts = TransitionSystem::from_aig(&free_latch_circuit(constrained));
            assert_eq!(ts.constraint_lits().len(), usize::from(constrained));
            let cert = Certificate {
                lemmas: vec![Clause::unit(Lit::neg(ts.latch_var(0)))],
                level: 1,
            };
            check_certificate(&ts, &cert, &CheckOptions::default())
        };
        // ¬a holds in every successor that satisfies the constraint ¬a.
        let report = check(true).expect("the constraint holds in frame 1");
        assert_eq!(report.queries, 4, "initiation ×2, consecution, property");
        let drat = if proof_logging_compiled() { 4 } else { 0 };
        assert_eq!(report.drat_checked, drat);
        // Without the constraint, the free input can set a.
        assert_eq!(
            check(false).unwrap_err(),
            CertCheckError::Invalid(
                "lemma 0 is not preserved by the transition relation".to_string()
            )
        );
    }

    #[test]
    fn rejects_a_reconstruction_of_another_circuit() {
        // The safe counter's three latches map one to one, but the engine
        // ran on a two-latch circuit: original latch 2 has no simplified
        // latch to be kept as.
        let original = safe_counter();
        let recon = Reconstruction::identity(original.num_inputs(), original.num_latches());
        let smaller = TransitionSystem::from_aig(&free_latch_circuit(false));
        assert_eq!(smaller.num_latches(), 2);
        let err = check_certificate_on_original(
            &original,
            &recon,
            &smaller,
            &Certificate::default(),
            &CheckOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CertCheckError::Invalid(ref why)
                if why.contains("original latch 2") && why.contains("simplified latch 2")),
            "{err}"
        );
    }

    #[test]
    fn facts_that_rest_on_a_class_the_cone_dropped_still_check() {
        // Two equal toggles a ≡ b, and the bad latch g (reset 0, next
        // g ∨ (a ∧ ¬b)) that stays 0 only because a ≡ b. Preprocessing proves
        // g constant, so the class {a, b} leaves the cone; the fact ¬g is
        // inductive on the original circuit only together with b ≡ a.
        let mut b = AigBuilder::new();
        let a = b.latch(Some(false));
        let c = b.latch(Some(false));
        let g = b.latch(Some(false));
        b.set_latch_next(a, !a);
        b.set_latch_next(c, !c);
        let differ = b.and(a, !c);
        let g_next = b.or(g, differ);
        b.set_latch_next(g, g_next);
        b.add_bad(g);
        let original = b.build();
        let prep = plic3_prep::preprocess(&original);
        let ts = TransitionSystem::from_aig(&prep.aig);
        let mut engine = Ic3::new(ts.clone(), Config::ric3_like());
        let cert = engine.check().certificate().expect("safe").clone();
        let report = check_certificate_on_original(
            &original,
            &prep.reconstruction,
            &ts,
            &cert,
            &CheckOptions::default(),
        )
        .expect("the facts are inductive on the original circuit");
        assert_eq!(report.facts, 3, "b ≡ a (two clauses) and ¬g");
    }

    #[test]
    fn drat_option_is_graceful_without_the_feature() {
        let aig = safe_counter();
        let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
        let result = engine.check();
        let cert = result.certificate().expect("safe").clone();
        let report = check_certificate(engine.ts(), &cert, &CheckOptions::default())
            .expect("certificate valid");
        if plic3_sat::proof_logging_compiled() {
            assert_eq!(report.drat_checked, report.queries);
        } else {
            assert_eq!(report.drat_checked, 0);
        }
    }
}
