//! Differential testing of the CDCL solver against the exhaustive reference
//! solver on random small formulas, with and without assumptions, including
//! incremental use and unsat-core checks.
//!
//! The formulas come from a deterministic seeded generator (the workspace is
//! dependency-free, so no proptest); every failing case is reproducible from
//! the seed reported in the assertion message. With the `proof-log` feature
//! compiled in, every UNSAT answer is additionally backed by a DRAT-checked
//! refutation (see [`drat_check`]); without it that check is a no-op.
//!
//! The iteration counts of the seeded loops scale with `PLIC3_FUZZ_SCALE`
//! (the nightly CI profile sets it to 10).

use plic3_logic::{Clause, Lit, SplitMix64 as Rng, Var};
use plic3_sat::{brute_force_sat, SatResult, Solver};
use std::collections::BTreeMap;

mod common;
use common::iterations;

const MAX_VAR: u32 = 10;
const CASES: u64 = 256;

fn arb_lit(rng: &mut Rng) -> Lit {
    Lit::new(Var::new(rng.below(MAX_VAR as u64) as u32), rng.bool())
}

fn arb_clause(rng: &mut Rng) -> Clause {
    let len = 1 + rng.below(4) as usize;
    Clause::from_lits((0..len).map(|_| arb_lit(rng)))
}

fn arb_cnf(rng: &mut Rng) -> Vec<Clause> {
    let len = rng.below(30) as usize;
    (0..len).map(|_| arb_clause(rng)).collect()
}

/// A random 3-CNF near the satisfiability phase transition (clause/variable
/// ratio ≈ 4.3): small enough for the brute-force oracle, hard enough that
/// the solver produces real conflict streaks and learnt clauses.
fn hard_cnf(rng: &mut Rng) -> Vec<Clause> {
    let len = 38 + rng.below(10) as usize;
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

/// The formula as `(c₁) ∧ (c₂) ∧ …`, for failure messages.
fn show(clauses: &[Clause]) -> String {
    let parts: Vec<String> = clauses.iter().map(|c| format!("({c})")).collect();
    parts.join(" ∧ ")
}

/// Up to 3 assumption literals over distinct variables below `num_vars`.
fn arb_assumptions(rng: &mut Rng, num_vars: u32) -> Vec<Lit> {
    let len = rng.below(4) as usize;
    let mut polarities: BTreeMap<u32, bool> = BTreeMap::new();
    for _ in 0..len {
        polarities.insert(rng.below(num_vars as u64) as u32, rng.bool());
    }
    polarities
        .into_iter()
        .map(|(v, p)| Lit::new(Var::new(v), p))
        .collect()
}

fn load(cnf: &[Clause]) -> Solver {
    let mut solver = Solver::new();
    // Inert unless the `proof-log` feature is compiled in; then every UNSAT
    // answer below is DRAT-checked.
    solver.enable_proof_tracing();
    solver.ensure_vars(MAX_VAR as usize);
    for clause in cnf {
        solver.add_clause_ref(clause);
    }
    solver
}

/// DRAT-checks the solver's recorded proof against `assumptions` after an
/// UNSAT answer. The trace spans every call since the solver was loaded, so
/// clauses added between calls must appear in it too.
fn drat_check(solver: &Solver, assumptions: &[Lit], context: &str) {
    if let Some(proof) = solver.proof() {
        if let Err(err) = plic3_check::check_unsat_proof(proof, assumptions) {
            panic!("{context}: DRAT check failed: {err}");
        }
    }
}

#[test]
fn agrees_with_brute_force() {
    let mut rng = Rng::new(0xb001);
    for seed in 0..CASES {
        let cnf = arb_cnf(&mut rng);
        let mut solver = load(&cnf);
        let expected = brute_force_sat(MAX_VAR as usize, &cnf, &[]).is_some();
        let got = solver.solve(&[]);
        assert_eq!(
            got,
            if expected {
                SatResult::Sat
            } else {
                SatResult::Unsat
            },
            "seed {seed}: {}",
            show(&cnf)
        );
        if got == SatResult::Sat {
            // The reported model must satisfy every clause.
            for clause in &cnf {
                assert!(
                    clause
                        .iter()
                        .any(|l| solver.model().lit_value(l) == Some(true)),
                    "seed {seed}: model does not satisfy {clause}"
                );
            }
        } else {
            drat_check(&solver, &[], &format!("seed {seed}"));
        }
    }
}

#[test]
fn agrees_with_brute_force_under_assumptions() {
    let mut rng = Rng::new(0xb002);
    for seed in 0..CASES {
        let cnf = arb_cnf(&mut rng);
        let assumptions = arb_assumptions(&mut rng, MAX_VAR);
        let mut solver = load(&cnf);
        let expected = brute_force_sat(MAX_VAR as usize, &cnf, &assumptions).is_some();
        let got = solver.solve(&assumptions);
        assert_eq!(
            got,
            if expected {
                SatResult::Sat
            } else {
                SatResult::Unsat
            },
            "seed {seed}: {} under {assumptions:?}",
            show(&cnf)
        );
        if got == SatResult::Sat {
            for &a in &assumptions {
                assert_eq!(solver.model().lit_value(a), Some(true), "seed {seed}");
            }
        } else {
            // The unsat core must be a subset of the assumptions and itself
            // sufficient for unsatisfiability.
            let core: Vec<Lit> = solver.unsat_core().to_vec();
            for l in &core {
                assert!(assumptions.contains(l), "seed {seed}");
            }
            assert!(
                brute_force_sat(MAX_VAR as usize, &cnf, &core).is_none(),
                "seed {seed}: core {core:?} is not sufficient for unsat"
            );
            drat_check(&solver, &assumptions, &format!("seed {seed}"));
        }
    }
}

#[test]
fn incremental_solving_matches_monolithic() {
    let mut rng = Rng::new(0xb003);
    for seed in 0..CASES {
        let cnf1 = arb_cnf(&mut rng);
        let cnf2 = arb_cnf(&mut rng);
        let assumptions = arb_assumptions(&mut rng, MAX_VAR);
        // Solve cnf1, then add cnf2 and solve again: the second answer must
        // match a fresh solver on cnf1 ∧ cnf2.
        let mut solver = load(&cnf1);
        let _ = solver.solve(&[]);
        for clause in &cnf2 {
            solver.add_clause_ref(clause);
        }
        let combined = [cnf1.as_slice(), cnf2.as_slice()].concat();
        let expected = brute_force_sat(MAX_VAR as usize, &combined, &assumptions).is_some();
        let got = solver.solve(&assumptions);
        assert_eq!(
            got,
            if expected {
                SatResult::Sat
            } else {
                SatResult::Unsat
            },
            "seed {seed}"
        );
    }
}

/// Incremental rounds: clauses are added between solve calls, so learnt
/// clauses and saved phases survive into later calls and must stay sound.
/// Odd seeds split one dense 3-CNF into two rounds, so the second round
/// starts with learnt clauses from a conflict-heavy first call. Every round
/// is checked against brute force, every UNSAT answer is DRAT-checked, and a
/// repeated call must agree with the one before it.
#[test]
fn incremental_rounds_stay_sound() {
    let mut rng = Rng::new(0x14c4);
    for seed in 0..iterations(150) {
        let (cnf1, cnf2) = if seed % 2 == 0 {
            (arb_cnf(&mut rng), arb_cnf(&mut rng))
        } else {
            let dense = hard_cnf(&mut rng);
            let half = dense.len() / 2;
            (
                dense.iter().take(half).cloned().collect(),
                dense.iter().skip(half).cloned().collect(),
            )
        };
        let assumptions = arb_assumptions(&mut rng, MAX_VAR);
        let mut solver = load(&cnf1);
        let first_expected = brute_force_sat(MAX_VAR as usize, &cnf1, &[]).is_some();
        let first = solver.solve(&[]);
        assert_eq!(
            first == SatResult::Sat,
            first_expected,
            "seed {seed}: first solve"
        );
        for clause in &cnf2 {
            solver.add_clause_ref(clause);
        }
        let combined = [cnf1.as_slice(), cnf2.as_slice()].concat();
        let expected = brute_force_sat(MAX_VAR as usize, &combined, &assumptions).is_some();
        let got = solver.solve(&assumptions);
        assert_eq!(
            got == SatResult::Sat,
            expected,
            "seed {seed}: incremental solve"
        );
        if got == SatResult::Unsat {
            drat_check(&solver, &assumptions, &format!("seed {seed}: incremental"));
        }
        assert_eq!(
            got,
            solver.solve(&assumptions),
            "seed {seed}: repeated solve"
        );
    }
}

/// Solves `cnf` under `assumptions` and cross-checks the verdict against
/// exhaustive enumeration. A model must honour the assumptions and satisfy
/// every clause; an unsat core must be (a) a subset of the assumptions, (b)
/// unsatisfiable by brute force, and (c) reported unsatisfiable by the solver
/// itself when solved as the only assumptions. Every UNSAT answer is
/// DRAT-checked. Returns the solver's conflict count.
fn check_against_brute_force(cnf: &[Clause], assumptions: &[Lit], seed: u64) -> u64 {
    let mut solver = load(cnf);
    check_solve(&mut solver, MAX_VAR as usize, cnf, assumptions, seed);
    solver.stats().conflicts
}

/// The checks of [`check_against_brute_force`] on a solver already loaded
/// with `cnf` over the variables `0..num_vars`, which a model must assign
/// in full.
fn check_solve(
    solver: &mut Solver,
    num_vars: usize,
    cnf: &[Clause],
    assumptions: &[Lit],
    seed: u64,
) {
    let expected = brute_force_sat(num_vars, cnf, assumptions).is_some();
    let got = solver.solve(assumptions);
    assert_eq!(
        got,
        if expected {
            SatResult::Sat
        } else {
            SatResult::Unsat
        },
        "seed {seed}: {} under {assumptions:?}",
        show(cnf)
    );
    if got == SatResult::Sat {
        for v in 0..num_vars {
            let var = Var::new(v as u32);
            assert!(
                solver.model().value(var).is_some(),
                "seed {seed}: {var} unassigned"
            );
        }
        for &a in assumptions {
            assert_eq!(solver.model().lit_value(a), Some(true), "seed {seed}");
        }
        for clause in cnf {
            assert!(
                clause
                    .iter()
                    .any(|l| solver.model().lit_value(l) == Some(true)),
                "seed {seed}: model does not satisfy {clause}"
            );
        }
    } else {
        let core: Vec<Lit> = solver.unsat_core().to_vec();
        for l in &core {
            assert!(assumptions.contains(l), "seed {seed}: {l} not assumed");
            assert!(solver.core_contains(*l), "seed {seed}: core_contains({l})");
        }
        assert!(
            brute_force_sat(num_vars, cnf, &core).is_none(),
            "seed {seed}: core {core:?} is not sufficient for unsat"
        );
        drat_check(solver, assumptions, &format!("seed {seed}"));
        // The core must reproduce UNSAT when used as the assumptions of
        // the same (incremental) solver.
        assert_eq!(
            solver.solve(&core),
            SatResult::Unsat,
            "seed {seed}: core {core:?} not self-unsatisfiable"
        );
        drat_check(solver, &core, &format!("seed {seed}: core"));
    }
}

/// The load-bearing assumption fuzz: 1000 seeded iterations of solving
/// unconstrained random CNFs (edge cases: empty clauses after simplification,
/// tautologies, units) under random assumption sets, each fully checked by
/// [`check_against_brute_force`].
#[test]
fn assumption_fuzz_1000_iterations_with_core_checks() {
    let mut rng = Rng::new(0xc0de);
    for seed in 0..iterations(1000) {
        let cnf = arb_cnf(&mut rng);
        let assumptions = arb_assumptions(&mut rng, MAX_VAR);
        check_against_brute_force(&cnf, &assumptions, seed);
    }
}

/// The same checks on dense 3-CNFs, whose real conflict streaks make learnt
/// clauses take part in every verdict and refutation.
#[test]
fn hard_3cnfs_agree_with_brute_force() {
    let mut rng = Rng::new(0x5ea_c4d1);
    let mut conflicts = 0;
    for seed in 0..iterations(500) {
        let cnf = hard_cnf(&mut rng);
        let assumptions = arb_assumptions(&mut rng, MAX_VAR);
        conflicts += check_against_brute_force(&cnf, &assumptions, seed);
    }
    // Otherwise the fuzz tests nothing but propagation.
    assert!(conflicts > 100, "almost no conflicts: {conflicts}");
}

/// Decisions restricted to the inputs of a Tseitin-encoded circuit, the way
/// IC3's frame solvers decide only latches and inputs: random AND gates over
/// `k` inputs and earlier gates, random side clauses over the inputs, and
/// random assumptions over any variable. The gates are never decided, yet
/// every verdict must match brute force and every model must be total. Two
/// assumption sets per solver exercise the heap state a SAT answer leaves
/// behind.
#[test]
fn input_only_decisions_on_tseitin_circuits_agree_with_brute_force() {
    let mut rng = Rng::new(0xde_c1);
    for seed in 0..iterations(200) {
        let inputs = 2 + rng.below(4) as u32;
        let gates = 1 + rng.below(7) as u32;
        let num_vars = (inputs + gates) as usize;
        let mut cnf = Vec::new();
        for g in inputs..inputs + gates {
            let fanin = |rng: &mut Rng| Lit::new(Var::new(rng.below(g as u64) as u32), rng.bool());
            let (a, b, g) = (fanin(&mut rng), fanin(&mut rng), Lit::pos(Var::new(g)));
            cnf.push(Clause::from_lits([!g, a]));
            cnf.push(Clause::from_lits([!g, b]));
            cnf.push(Clause::from_lits([g, !a, !b]));
        }
        for _ in 0..rng.below(4) {
            let len = 1 + rng.below(3) as usize;
            cnf.push(Clause::from_lits((0..len).map(|_| {
                Lit::new(Var::new(rng.below(inputs as u64) as u32), rng.bool())
            })));
        }
        let mut solver = Solver::new();
        solver.enable_proof_tracing();
        solver.ensure_vars(num_vars);
        for g in inputs..inputs + gates {
            solver.set_decision_var(Var::new(g), false);
        }
        for clause in &cnf {
            solver.add_clause_ref(clause);
        }
        for _ in 0..2 {
            let assumptions = arb_assumptions(&mut rng, inputs + gates);
            check_solve(&mut solver, num_vars, &cnf, &assumptions, seed);
        }
    }
}

/// A conflict-heavy unsatisfiable workload (7 pigeons, 6 holes): deep enough
/// that learnt-clause database reduction and arena garbage collection occur
/// with real learnt clauses in flight, and the refutation, deletions
/// included, is DRAT-checked.
#[test]
fn pigeonhole_is_unsat_and_its_refutation_checks() {
    let n = 7u32; // pigeons
    let m = 6u32; // holes
    let var = |i: u32, j: u32| Lit::pos(Var::new(i * m + j));
    let mut solver = Solver::new();
    solver.enable_proof_tracing();
    solver.ensure_vars((n * m) as usize);
    for i in 0..n {
        solver.add_clause((0..m).map(|j| var(i, j)));
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                solver.add_clause([!var(i1, j), !var(i2, j)]);
            }
        }
    }
    assert_eq!(solver.solve(&[]), SatResult::Unsat);
    let stats = solver.stats();
    assert!(
        stats.removed_clauses > 0 && stats.garbage_collections > 0,
        "no reduction or no collection: {stats}"
    );
    drat_check(&solver, &[], "pigeonhole");
    // The database is unsatisfiable at the top level now: re-solving stays
    // Unsat.
    assert_eq!(solver.solve(&[]), SatResult::Unsat);
}

/// Differential fuzz of `solve_with_clause`, IC3's temporary-clause query: a
/// base formula solved repeatedly, each round with one extra clause that
/// holds for that call only. The solver retires the clause's activation
/// variable after each call and recycles it in a later round.
#[test]
fn activation_release_fuzz_matches_brute_force() {
    let mut rng = Rng::new(0xac7);
    for seed in 0..250u64 {
        let cnf = arb_cnf(&mut rng);
        let mut solver = load(&cnf);
        for round in 0..4 {
            let extra = arb_clause(&mut rng);
            let assumptions = arb_assumptions(&mut rng, MAX_VAR);
            // For this call, the solver must agree with cnf ∧ extra.
            let mut with_extra = cnf.clone();
            with_extra.push(extra.clone());
            let expected = brute_force_sat(MAX_VAR as usize, &with_extra, &assumptions).is_some();
            let got = solver.solve_with_clause(extra.iter(), &assumptions);
            assert_eq!(
                got,
                if expected {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
                "seed {seed} round {round}: {} + {extra} under {assumptions:?}",
                show(&cnf)
            );
            if got == SatResult::Sat {
                let model = solver.model();
                for &a in &assumptions {
                    assert_eq!(model.lit_value(a), Some(true), "seed {seed}");
                }
                for clause in with_extra.iter() {
                    assert!(
                        clause.iter().any(|l| model.lit_value(l) == Some(true)),
                        "seed {seed} round {round}: model misses {clause}"
                    );
                }
            } else {
                // The core holds only the caller's assumptions, and they
                // suffice for unsatisfiability against cnf ∧ extra.
                let core: Vec<Lit> = solver.unsat_core().to_vec();
                for l in &core {
                    assert!(
                        assumptions.contains(l),
                        "seed {seed} round {round}: {l} in core {core:?} not assumed"
                    );
                }
                assert!(
                    brute_force_sat(MAX_VAR as usize, &with_extra, &core).is_none(),
                    "seed {seed} round {round}: core {core:?} insufficient"
                );
            }
            // One activation variable per call at most, none of them a
            // problem variable.
            assert!(
                solver.num_vars() <= MAX_VAR as usize + round + 1,
                "seed {seed} round {round}: {} variables",
                solver.num_vars()
            );
            // After the call the extra clause is inert.
            let expected = brute_force_sat(MAX_VAR as usize, &cnf, &assumptions).is_some();
            let got = solver.solve(&assumptions);
            assert_eq!(
                got,
                if expected {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
                "seed {seed} round {round}: post-call solve"
            );
        }
    }
}

#[test]
fn repeated_solves_are_consistent() {
    let mut rng = Rng::new(0xb004);
    for seed in 0..CASES {
        let cnf = arb_cnf(&mut rng);
        let assumptions = arb_assumptions(&mut rng, MAX_VAR);
        // Solving twice with the same assumptions must give the same verdict
        // (exercises trail cleanup / phase saving interactions).
        let mut solver = load(&cnf);
        let first = solver.solve(&assumptions);
        let second = solver.solve(&assumptions);
        assert_eq!(first, second, "seed {seed}");
        // And an unconstrained solve afterwards agrees with brute force.
        let expected = brute_force_sat(MAX_VAR as usize, &cnf, &[]).is_some();
        let third = solver.solve(&[]);
        assert_eq!(
            third,
            if expected {
                SatResult::Sat
            } else {
                SatResult::Unsat
            },
            "seed {seed}"
        );
    }
}
