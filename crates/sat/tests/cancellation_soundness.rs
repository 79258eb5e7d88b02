//! Cancellation soundness of the search loop: interruptions — whether from a
//! cancelled [`ResourceBudget`] or an exhausted conflict budget — may only
//! ever surface as [`SatResult::Unknown`], never as a *wrong* verdict, and a
//! budget cancelled up front must prevent any verdict that requires search.
//!
//! This is the regression guard for the k-induction class of bug
//! (concluding from an interrupted query as if it had completed), pushed down
//! to the solver level.

use plic3_logic::{Clause, Lit, SplitMix64 as Rng, Var};
use plic3_sat::{brute_force_sat, ResourceBudget, SatResult, Solver};

mod common;
use common::iterations;

const MAX_VAR: u32 = 12;

/// A dense random 3-CNF over `MAX_VAR` variables (conflict-heavy; roughly at
/// the phase transition, so both verdicts occur across seeds).
fn hard_cnf(rng: &mut Rng) -> Vec<Clause> {
    let len = 46 + rng.below(12) as usize;
    (0..len)
        .map(|_| {
            let mut vars = [0u32; 3];
            for i in 0..3 {
                loop {
                    let candidate = rng.below(MAX_VAR as u64) as u32;
                    if !vars[..i].contains(&candidate) {
                        vars[i] = candidate;
                        break;
                    }
                }
            }
            Clause::from_lits(vars.iter().map(|&v| Lit::new(Var::new(v), rng.bool())))
        })
        .collect()
}

fn load(cnf: &[Clause]) -> Solver {
    let mut solver = Solver::new();
    solver.ensure_vars(MAX_VAR as usize);
    for clause in cnf {
        solver.add_clause_ref(clause);
    }
    solver
}

/// Randomized interruption points: a conflict budget `k` below the full cost
/// of the query may only produce `Unknown` or the *correct* verdict (a
/// cascade of conflicts can legitimately finish a proof past the budget
/// check) — never the wrong one. Afterwards, a cancelled budget on the
/// half-searched solver state must yield `Unknown`, and a fresh budget must
/// recover the correct verdict from the same (learnt-clause-laden) state.
#[test]
fn budget_and_stop_injection_never_flip_a_verdict() {
    let mut rng = Rng::new(0xcafe_57a9);
    for seed in 0..iterations(120) {
        let cnf = hard_cnf(&mut rng);
        let expected = if brute_force_sat(MAX_VAR as usize, &cnf, &[]).is_some() {
            SatResult::Sat
        } else {
            SatResult::Unsat
        };
        // Full run to learn the query's conflict cost.
        let mut reference = load(&cnf);
        assert_eq!(reference.solve(&[]), expected, "seed {seed}");
        let full_cost = reference.stats().conflicts;
        if full_cost == 0 {
            continue; // solved by propagation alone: nothing to interrupt
        }
        // Interrupt at a random conflict count below the full cost.
        let k = 1 + rng.below(full_cost);
        let mut solver = load(&cnf);
        solver.set_conflict_budget(Some(k));
        let interrupted = solver.solve(&[]);
        assert!(
            interrupted == SatResult::Unknown || interrupted == expected,
            "seed {seed}: budget {k}/{full_cost} produced the wrong verdict {interrupted}"
        );
        // A cancelled budget on the half-searched state: Unknown, or a
        // correct Unsat that needed no search (the interrupted run may
        // already have made the database contradictory at level 0 —
        // reporting that is sound regardless of the budget). `Sat` is
        // impossible: the stop check precedes every decision.
        solver.set_conflict_budget(None);
        let budget = ResourceBudget::unlimited();
        solver.set_budget(budget.clone());
        budget.cancel();
        let stopped = solver.solve(&[]);
        assert!(
            stopped == SatResult::Unknown
                || (stopped == SatResult::Unsat && expected == SatResult::Unsat),
            "seed {seed}: cancelled budget produced {stopped} (expected verdict {expected})"
        );
        // A fresh budget recovers the correct verdict from the same state.
        solver.set_budget(ResourceBudget::unlimited());
        assert_eq!(
            solver.solve(&[]),
            expected,
            "seed {seed}: state corrupted by the interruptions"
        );
    }
}

/// A budget cancelled up front must return `Unknown` for a query that
/// requires any search at all — in particular it must never report `Sat`
/// (the solver cannot have found a model it never searched for).
#[test]
fn pre_raised_flag_reports_unknown() {
    let mut rng = Rng::new(0x57a9_f1a6);
    for seed in 0..iterations(40) {
        let cnf = hard_cnf(&mut rng);
        let mut solver = load(&cnf);
        let budget = ResourceBudget::unlimited();
        solver.set_budget(budget.clone());
        budget.cancel();
        assert_eq!(solver.solve(&[]), SatResult::Unknown, "seed {seed}");
    }
}

/// Stops injected under assumptions: the unsat core of an *interrupted* call
/// is never consulted, but the next uninterrupted call must still produce a
/// correct verdict and a well-formed core.
#[test]
fn interrupted_assumption_queries_recover() {
    let mut rng = Rng::new(0xa55_0c1a);
    for seed in 0..iterations(80) {
        let cnf = hard_cnf(&mut rng);
        let assumptions: Vec<Lit> = (0..3).map(|i| Lit::new(Var::new(i), rng.bool())).collect();
        let mut solver = load(&cnf);
        solver.set_conflict_budget(Some(1 + rng.below(8)));
        let _ = solver.solve(&assumptions);
        solver.set_conflict_budget(None);
        let expected = brute_force_sat(MAX_VAR as usize, &cnf, &assumptions).is_some();
        let got = solver.solve(&assumptions);
        assert_eq!(
            got == SatResult::Sat,
            expected,
            "seed {seed}: wrong verdict after interruption"
        );
        if got == SatResult::Unsat {
            let core: Vec<Lit> = solver.unsat_core().to_vec();
            for l in &core {
                assert!(assumptions.contains(l), "seed {seed}");
            }
            assert!(
                brute_force_sat(MAX_VAR as usize, &cnf, &core).is_none(),
                "seed {seed}: insufficient core {core:?}"
            );
        }
    }
}
