//! Shared SAT formula constructors used by the `engine` micro-benchmarks and
//! the `plic3-bench-sat` baseline emitter, so both measure the same workloads.

use plic3_logic::{Lit, SplitMix64, Var};
use plic3_sat::{SatResult, Solver};

/// Pigeonhole formula: `n + 1` pigeons into `n` holes (unsatisfiable).
///
/// The classic resolution-hard instance; its solve time is dominated by
/// conflict analysis and learnt-clause management.
pub fn pigeonhole(n: u32) -> Solver {
    let mut solver = Solver::new();
    let pigeons = n + 1;
    let var = |p: u32, h: u32| Lit::pos(Var::new(p * n + h));
    solver.ensure_vars((pigeons * n) as usize);
    for p in 0..pigeons {
        solver.add_clause((0..n).map(|h| var(p, h)));
    }
    for h in 0..n {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                solver.add_clause([!var(p1, h), !var(p2, h)]);
            }
        }
    }
    solver
}

/// A long chained-implication formula `x_0 → x_1 → … → x_{n-1}`, returned with
/// the trigger literal `x_0`.
///
/// Solving under the assumption `x_0` forces one unit propagation per link
/// with no conflicts, so `solve(&[trigger])` isolates raw propagation /
/// watch-list throughput: `n - 1` propagations per call, dominated by the
/// two-watched-literal walk.
pub fn implication_chain(n: usize) -> (Solver, Lit) {
    assert!(n >= 2, "a chain needs at least two variables");
    let mut solver = Solver::new();
    let lits: Vec<Lit> = (0..n).map(|_| Lit::pos(solver.new_var())).collect();
    for w in lits.windows(2) {
        solver.add_clause([!w[0], w[1]]);
    }
    (solver, lits[0])
}

/// A seeded uniform random 3-CNF over `vars` variables with `clauses`
/// clauses (distinct variables within each clause).
///
/// At clause/variable ratios near the phase transition (≈ 4.26) these are
/// the standard conflict-heavy workloads: restarts, learnt clauses and
/// database reduction all take part.
pub fn random_3sat(vars: u32, clauses: u32, seed: u64) -> Solver {
    let mut rng = SplitMix64::new(seed);
    let mut solver = Solver::new();
    solver.ensure_vars(vars as usize);
    for _ in 0..clauses {
        let mut picked = [0u32; 3];
        for i in 0..3 {
            loop {
                let candidate = rng.below(vars as u64) as u32;
                if !picked[..i].contains(&candidate) {
                    picked[i] = candidate;
                    break;
                }
            }
        }
        solver.add_clause(picked.iter().map(|&v| Lit::new(Var::new(v), rng.bool())));
    }
    solver
}

/// An IC3-shaped incremental workload: a fixed random 3-CNF base (at a
/// satisfiable ratio) solved over and over under per-round activation
/// clauses and assumption sets, with the activation variable released after
/// each round — the access pattern of `Ic3::solve_relative`.
///
/// Returns the number of `Sat` verdicts over `rounds` rounds (a deterministic
/// function of the seed, asserted by the bench so a broken solver cannot
/// masquerade as a fast one). Phase saving pays off here: consecutive
/// queries differ only in one activation clause, so most of the previous
/// model is reusable.
pub fn incremental_activation_rounds(vars: u32, clauses: u32, rounds: u32, seed: u64) -> u32 {
    let mut rng = SplitMix64::new(seed);
    let mut solver = random_3sat(vars, clauses, seed ^ 0xba5e);
    let mut sat_count = 0u32;
    for _ in 0..rounds {
        let act = Lit::pos(solver.new_var());
        // act → (random ternary clause): the "negated cube" of the round.
        let mut clause = vec![!act];
        for _ in 0..3 {
            let v = rng.below(vars as u64) as u32;
            clause.push(Lit::new(Var::new(v), rng.bool()));
        }
        solver.add_clause(clause);
        // Two assumption literals next to the activation literal.
        let mut assumptions = vec![act];
        for _ in 0..2 {
            let v = rng.below(vars as u64) as u32;
            assumptions.push(Lit::new(Var::new(v), rng.bool()));
        }
        match solver.solve(&assumptions) {
            SatResult::Sat => sat_count += 1,
            SatResult::Unsat => {}
            SatResult::Unknown => unreachable!("no budget or stop flag is set"),
        }
        solver.release_var(!act);
    }
    sat_count
}

/// A circuit miter: two copies of the same seeded random AND/OR/XOR netlist
/// over shared inputs, Tseitin-encoded, with the two outputs asserted to
/// differ (unsatisfiable — the copies compute the same function).
///
/// The structured counterpart of the random workloads: the shape of an
/// equivalence check between two encodings of one circuit. Each gate reads
/// the immediately preceding signal plus one random earlier signal, so the
/// outputs' cone of influence covers the whole netlist (no dead gates to
/// make the miter trivially easy).
pub fn circuit_miter(inputs: u32, gates: u32, seed: u64) -> Solver {
    assert!(inputs >= 2 && gates >= 1);
    let mut rng = SplitMix64::new(seed);
    let mut solver = Solver::new();
    solver.ensure_vars((inputs + 2 * gates) as usize);
    // The shared netlist: gate `g` combines the latest signal (chaining the
    // whole circuit) with a random earlier one, under random polarities.
    // Signals are numbered inputs-first, then gates in creation order. One
    // gate in four is an XOR — AND/OR-only miters collapse under unit
    // propagation too easily to measure search.
    let netlist: Vec<(u8, u32, bool, u32, bool)> = (0..gates)
        .map(|g| {
            let pool = inputs + g;
            let a = pool - 1;
            let mut b = rng.below(pool as u64) as u32;
            while b == a {
                b = rng.below(pool as u64) as u32;
            }
            let op = rng.below(4) as u8; // 0 = XOR, 1 = AND/AND/OR mix below
            (op, a, rng.bool(), b, rng.bool())
        })
        .collect();
    for copy in 0..2u32 {
        let signal = |s: u32| {
            if s < inputs {
                Var::new(s)
            } else {
                Var::new(s + copy * gates)
            }
        };
        for (g, &(op, a, neg_a, b, neg_b)) in netlist.iter().enumerate() {
            let gate = Lit::pos(Var::new(inputs + copy * gates + g as u32));
            let la = Lit::new(signal(a), neg_a);
            let lb = Lit::new(signal(b), neg_b);
            match op {
                0 => {
                    // gate ↔ la ⊕ lb
                    solver.add_clause([!gate, la, lb]);
                    solver.add_clause([!gate, !la, !lb]);
                    solver.add_clause([gate, la, !lb]);
                    solver.add_clause([gate, !la, lb]);
                }
                1 | 2 => {
                    // gate ↔ la ∧ lb
                    solver.add_clause([!gate, la]);
                    solver.add_clause([!gate, lb]);
                    solver.add_clause([gate, !la, !lb]);
                }
                _ => {
                    // gate ↔ la ∨ lb
                    solver.add_clause([gate, !la]);
                    solver.add_clause([gate, !lb]);
                    solver.add_clause([!gate, la, lb]);
                }
            }
        }
    }
    // The miter: the two copies' outputs (their last gates) must differ.
    let out_a = Lit::pos(Var::new(inputs + gates - 1));
    let out_b = Lit::pos(Var::new(inputs + 2 * gates - 1));
    solver.add_clause([out_a, out_b]);
    solver.add_clause([!out_a, !out_b]);
    solver
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pigeonhole_is_unsat() {
        let mut s = pigeonhole(3);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn chain_propagates_every_link() {
        let (mut s, trigger) = implication_chain(64);
        let before = s.stats().propagations;
        assert_eq!(s.solve(&[trigger]), SatResult::Sat);
        let propagated = s.stats().propagations - before;
        assert!(propagated >= 63, "expected ≥ 63 propagations: {propagated}");
    }

    #[test]
    fn random_3sat_verdicts_are_search_independent() {
        // The verdict is a property of the formula: a solver whose search was
        // steered elsewhere first (learnt clauses and saved phases left
        // behind by a solve under assumptions) must reach the same answer as
        // a fresh one.
        for seed in 0..4u64 {
            let mut fresh = random_3sat(60, 250, seed);
            let mut steered = random_3sat(60, 250, seed);
            let _ = steered.solve(&[Lit::pos(Var::new(0)), Lit::neg(Var::new(1))]);
            assert_eq!(fresh.solve(&[]), steered.solve(&[]), "seed {seed}");
        }
    }

    #[test]
    fn circuit_miter_is_unsat() {
        for seed in 0..3u64 {
            let mut s = circuit_miter(12, 40, seed);
            assert_eq!(s.solve(&[]), SatResult::Unsat, "seed {seed}");
        }
    }

    #[test]
    fn incremental_rounds_are_deterministic() {
        let a = incremental_activation_rounds(40, 150, 20, 7);
        let b = incremental_activation_rounds(40, 150, 20, 7);
        assert_eq!(a, b, "same seed, same verdict sequence");
    }
}
