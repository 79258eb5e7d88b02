//! Differential property test: the Tseitin-encoded transition relation must
//! agree, transition by transition, with the cycle-accurate AIG simulator on
//! randomly generated circuits.
//!
//! The circuits come from a deterministic seeded generator (the workspace is
//! dependency-free, so no proptest); failures report the seed that produced
//! the circuit.

use plic3_aig::{AigBuilder, AigLit, Simulator};
use plic3_logic::{Clause, Lit, SplitMix64 as Rng, Var};
use plic3_sat::{SatResult, Solver};
use plic3_ts::TransitionSystem;
use std::collections::HashSet;

const CASES: u64 = 48;

/// A reproducible random circuit description: gate operands are indices into
/// the pool of already-available nodes.
#[derive(Clone, Debug)]
struct CircuitSpec {
    inputs: usize,
    /// (operand index, negate, operand index, negate) per gate.
    gates: Vec<(usize, bool, usize, bool)>,
    /// Next-state selector per latch: index into the pool, plus negation.
    nexts: Vec<(usize, bool)>,
    /// Bad literal selector.
    bad: (usize, bool),
    init: Vec<bool>,
}

fn arb_spec(rng: &mut Rng) -> CircuitSpec {
    let latches = rng.range(2, 5) as usize;
    let inputs = rng.range(1, 3) as usize;
    let num_gates = rng.below(12) as usize;
    let pool0 = 1 + latches + inputs; // constant + latches + inputs
    let operand = |rng: &mut Rng| (rng.below((pool0 + num_gates) as u64) as usize, rng.bool());
    CircuitSpec {
        inputs,
        gates: (0..num_gates)
            .map(|_| {
                let (x, nx) = operand(rng);
                let (y, ny) = operand(rng);
                (x, nx, y, ny)
            })
            .collect(),
        nexts: (0..latches).map(|_| operand(rng)).collect(),
        bad: operand(rng),
        init: (0..latches).map(|_| rng.bool()).collect(),
    }
}

/// Materializes a spec into an AIG. Operand indices are clamped to the part of
/// the pool that already exists, which keeps the construction well-founded.
fn build(spec: &CircuitSpec) -> plic3_aig::Aig {
    let mut b = AigBuilder::new();
    let mut pool: Vec<AigLit> = vec![b.constant_true()];
    let latches: Vec<AigLit> = spec.init.iter().map(|&v| b.latch(Some(v))).collect();
    pool.extend(latches.iter().copied());
    pool.extend(b.inputs(spec.inputs));
    for &(x, nx, y, ny) in &spec.gates {
        let a = pool[x % pool.len()].negate_if(nx);
        let c = pool[y % pool.len()].negate_if(ny);
        let gate = b.and(a, c);
        pool.push(gate);
    }
    for (latch, &(idx, neg)) in latches.iter().zip(&spec.nexts) {
        b.set_latch_next(*latch, pool[idx % pool.len()].negate_if(neg));
    }
    b.add_bad(pool[spec.bad.0 % pool.len()].negate_if(spec.bad.1));
    b.build()
}

/// For every random circuit, random starting state, and random input
/// sequence, the successor computed by the simulator is the unique
/// successor admitted by the CNF transition relation.
#[test]
fn transition_relation_matches_simulator() {
    let mut rng = Rng::new(0x75_0001);
    for seed in 0..CASES {
        let spec = arb_spec(&mut rng);
        let start: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
        let num_steps = rng.range(1, 4) as usize;
        let steps: Vec<Vec<bool>> = (0..num_steps)
            .map(|_| (0..4).map(|_| rng.bool()).collect())
            .collect();

        let aig = build(&spec);
        let ts = TransitionSystem::from_aig(&aig);
        let mut solver = Solver::new();
        solver.ensure_vars(ts.num_vars());
        for clause in ts.trans() {
            solver.add_clause_ref(clause);
        }
        // Latch `i` and input `j` of the circuit are latch `i` and input `j`
        // of the encoding.
        let mut current: Vec<bool> = (0..aig.num_latches())
            .map(|i| start.get(i).copied().unwrap_or(false))
            .collect();
        let mut sim = Simulator::from_state(&aig, current.clone());
        for frame in &steps {
            let inputs: Vec<bool> = (0..aig.num_inputs())
                .map(|i| frame.get(i).copied().unwrap_or(false))
                .collect();
            sim.step(&inputs);
            let next = sim.latch_values().to_vec();

            // Assumptions: current state, inputs, and the simulator's successor.
            let mut assumptions: Vec<Lit> = Vec::new();
            for (i, &v) in current.iter().enumerate() {
                assumptions.push(Lit::new(ts.latch_var(i), v));
            }
            for (i, &v) in inputs.iter().enumerate() {
                assumptions.push(Lit::new(ts.input_var(i), v));
            }
            let state_and_inputs = assumptions.clone();
            for (i, &v) in next.iter().enumerate() {
                assumptions.push(Lit::new(ts.primed_var(i), v));
            }
            assert_eq!(
                solver.solve(&assumptions),
                SatResult::Sat,
                "seed {seed}: simulator successor rejected by the transition relation"
            );
            // And it is the *only* successor: flipping any single primed bit is
            // inconsistent with the (deterministic) transition relation.
            for (i, &v) in next.iter().enumerate() {
                let mut flipped = state_and_inputs.clone();
                flipped.push(Lit::new(ts.primed_var(i), !v));
                assert_eq!(
                    solver.solve(&flipped),
                    SatResult::Unsat,
                    "seed {seed}: transition relation admits a second successor"
                );
            }
            current = next;
        }
    }
}

/// The bad literal of the encoding agrees with the simulator's bad output
/// in the very first step.
#[test]
fn bad_literal_matches_simulator() {
    let mut rng = Rng::new(0x75_0002);
    for seed in 0..CASES {
        let spec = arb_spec(&mut rng);
        let start: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
        let inputs: Vec<bool> = (0..4).map(|_| rng.bool()).collect();

        let aig = build(&spec);
        let ts = TransitionSystem::from_aig(&aig);
        let full_state: Vec<bool> = (0..aig.num_latches())
            .map(|i| start.get(i).copied().unwrap_or(false))
            .collect();
        let full_inputs: Vec<bool> = (0..aig.num_inputs())
            .map(|i| inputs.get(i).copied().unwrap_or(false))
            .collect();
        let mut sim = Simulator::from_state(&aig, full_state.clone());
        let observed_bad = sim.step(&full_inputs).property_violated();

        let mut solver = Solver::new();
        solver.ensure_vars(ts.num_vars());
        for clause in ts.trans() {
            solver.add_clause_ref(clause);
        }
        let mut assumptions: Vec<Lit> = Vec::new();
        for (i, &v) in full_state.iter().enumerate() {
            assumptions.push(Lit::new(ts.latch_var(i), v));
        }
        for (i, &v) in full_inputs.iter().enumerate() {
            assumptions.push(Lit::new(ts.input_var(i), v));
        }
        assumptions.push(if observed_bad {
            ts.bad_lit()
        } else {
            !ts.bad_lit()
        });
        assert_eq!(solver.solve(&assumptions), SatResult::Sat, "seed {seed}");
        // The opposite polarity must be impossible.
        *assumptions.last_mut().expect("non-empty") = if observed_bad {
            !ts.bad_lit()
        } else {
            ts.bad_lit()
        };
        assert_eq!(solver.solve(&assumptions), SatResult::Unsat, "seed {seed}");
    }
}

/// The encoding's gate list is the circuit's. Evaluating `gate()` in
/// variable order under random latch and input values reproduces the
/// simulator's value of the AIG gate each entry encodes, and every listed
/// gate's three Tseitin clauses are in `trans()`.
#[test]
fn gates_match_the_simulator_and_the_transition_relation() {
    let mut rng = Rng::new(0x75_0003);
    // This cheap test runs more circuits than the others.
    for seed in 0..4 * CASES {
        let spec = arb_spec(&mut rng);
        let start: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
        let inputs: Vec<bool> = (0..4).map(|_| rng.bool()).collect();

        let aig = build(&spec);
        let ts = TransitionSystem::from_aig(&aig);
        let full_state: Vec<bool> = (0..aig.num_latches())
            .map(|i| start.get(i).copied().unwrap_or(false))
            .collect();
        let full_inputs: Vec<bool> = (0..aig.num_inputs())
            .map(|i| inputs.get(i).copied().unwrap_or(false))
            .collect();
        let sim_values = Simulator::from_state(&aig, full_state.clone()).values(&full_inputs);

        // The encoding's literal for each AIG variable seen so far, and the
        // value of each encoding variable under the same latches and inputs.
        let const_true = ts.const_true_var();
        let mut ts_lit: Vec<Option<Lit>> = vec![None; aig.max_var() as usize + 1];
        let mut value = vec![false; ts.num_vars()];
        ts_lit[0] = Some(Lit::neg(const_true)); // AIG variable 0 is FALSE
        value[const_true.index()] = true;
        for (i, latch) in aig.latches().iter().enumerate() {
            ts_lit[latch.lit.variable() as usize] = Some(Lit::pos(ts.latch_var(i)));
            value[ts.latch_var(i).index()] = full_state[i];
        }
        for (j, &v) in full_inputs.iter().enumerate() {
            ts_lit[aig.input(j).variable() as usize] = Some(Lit::pos(ts.input_var(j)));
            value[ts.input_var(j).index()] = v;
        }
        let map = |ts_lit: &[Option<Lit>], l: AigLit| {
            ts_lit[l.variable() as usize].map(|t| if l.is_negated() { !t } else { t })
        };
        let eval = |value: &[bool], l: Lit| value[l.var().index()] == l.is_pos();

        // Circuit gate `k` is the encoding's gate variable `k`.
        for (k, gate) in aig.ands().iter().enumerate() {
            let var = Var::new(const_true.raw() + 1 + k as u32);
            let (a, b) = ts.gate(var).expect("every circuit gate is encoded");
            assert_eq!(
                (map(&ts_lit, gate.rhs0), map(&ts_lit, gate.rhs1)),
                (Some(a), Some(b)),
                "seed {seed}: gate {var} has other operands than circuit gate {k}"
            );
            value[var.index()] = eval(&value, a) && eval(&value, b);
            assert_eq!(
                value[var.index()],
                sim_values[gate.lhs.variable() as usize],
                "seed {seed}: gate {var} disagrees with the simulator"
            );
            ts_lit[gate.lhs.variable() as usize] = Some(Lit::pos(var));
        }
        let next = Var::new(const_true.raw() + 1 + aig.num_ands() as u32);
        assert_eq!(next.index(), ts.num_vars(), "seed {seed}");
        assert_eq!(ts.gate(next), None, "seed {seed}");
        for v in (0..=const_true.raw()).map(Var::new) {
            assert_eq!(ts.gate(v), None, "seed {seed}: {v} is not a gate");
        }

        let trans: HashSet<&Clause> = ts.trans().iter().collect();
        for g in (const_true.raw() + 1..next.raw()).map(|v| Lit::pos(Var::new(v))) {
            let (a, b) = ts.gate(g.var()).expect("listed gate");
            for clause in [
                Clause::from_lits([!g, a]),
                Clause::from_lits([!g, b]),
                Clause::from_lits([g, !a, !b]),
            ] {
                assert!(
                    trans.contains(&clause),
                    "seed {seed}: {clause} of gate {g} is not in T"
                );
            }
        }
    }
}
