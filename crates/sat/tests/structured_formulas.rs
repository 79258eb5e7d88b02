//! Structured formulas the random differential fuzz does not produce: a
//! long implication chain (raw propagation) and XOR-heavy circuit miters (a
//! structured UNSAT, the shape of an equivalence check).

use plic3_logic::{Lit, SplitMix64, Var};
use plic3_sat::{SatResult, Solver};

/// A circuit miter: two copies of the same seeded random AND/OR/XOR netlist
/// over shared inputs, Tseitin-encoded, with the two outputs asserted to
/// differ (unsatisfiable — the copies compute the same function).
///
/// The shape of an equivalence check between two encodings of one circuit.
/// Each gate reads the immediately preceding signal plus one random earlier
/// signal, so the outputs' cone of influence covers the whole netlist (no
/// dead gates to make the miter trivially easy).
fn circuit_miter(inputs: u32, gates: u32, seed: u64) -> Solver {
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

#[test]
fn circuit_miter_is_unsat() {
    for seed in 0..3u64 {
        let mut s = circuit_miter(12, 40, seed);
        assert_eq!(s.solve(&[]), SatResult::Unsat, "seed {seed}");
    }
}

/// Solving a chain `x_0 → x_1 → … → x_63` under the assumption `x_0` forces
/// one unit propagation per link and no conflicts.
#[test]
fn chain_propagates_every_link() {
    let mut s = Solver::new();
    let lits: Vec<Lit> = (0..64).map(|_| Lit::pos(s.new_var())).collect();
    for w in lits.windows(2) {
        s.add_clause([!w[0], w[1]]);
    }
    let before = s.stats().propagations;
    assert_eq!(s.solve(&[lits[0]]), SatResult::Sat);
    let propagated = s.stats().propagations - before;
    assert!(propagated >= 63, "expected ≥ 63 propagations: {propagated}");
}
