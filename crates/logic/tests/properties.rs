//! Property-based tests for the logic primitives.
//!
//! These encode Definition 3.1 and Theorems 3.2–3.4 of *Predicting Lemmas in
//! Generalization of IC3* (DAC 2024) as executable properties, plus general
//! sanity invariants of the cube and clause types. The properties are
//! exercised over a deterministic seeded sample (the workspace is
//! dependency-free, so no proptest) — every case is reproducible from its
//! seed, which failure messages report. Semantic checks enumerate every total
//! assignment over the `MAX_VAR` variables as a bitmask: bit `i` is the value
//! of variable `i`.

use plic3_logic::{Cube, Lit, SplitMix64 as Rng, Var};
use std::collections::BTreeMap;

const MAX_VAR: u32 = 8;
const CASES: u64 = 300;

fn arb_lit(rng: &mut Rng) -> Lit {
    Lit::new(Var::new(rng.below(MAX_VAR as u64) as u32), rng.bool())
}

/// An arbitrary (possibly contradictory) cube of up to 9 literals.
fn arb_cube(rng: &mut Rng) -> Cube {
    let len = rng.below(10) as usize;
    Cube::from_lits((0..len).map(|_| arb_lit(rng)))
}

/// A consistent cube (at most one polarity per variable), possibly empty.
fn arb_consistent_cube(rng: &mut Rng, min_len: usize) -> Cube {
    let len = min_len + rng.below(8 - min_len as u64) as usize;
    let mut polarities: BTreeMap<u32, bool> = BTreeMap::new();
    while polarities.len() < len {
        polarities.insert(rng.below(MAX_VAR as u64) as u32, rng.bool());
    }
    Cube::from_lits(
        polarities
            .into_iter()
            .map(|(v, pos)| Lit::new(Var::new(v), pos)),
    )
}

/// The value of `lit` under the total assignment `bits`.
fn holds(lit: Lit, bits: u32) -> bool {
    (bits >> lit.var().index() & 1 == 1) == lit.is_pos()
}

/// Whether the total assignment `bits` satisfies every literal of `cube`.
fn satisfies(cube: &Cube, bits: u32) -> bool {
    cube.iter().all(|l| holds(l, bits))
}

/// Every total assignment over `MAX_VAR` variables (2^8 = 256 of them).
fn all_assignments() -> std::ops::Range<u32> {
    0..1 << MAX_VAR
}

// ------------------------------------------------------------------
// Literal and negation basics
// ------------------------------------------------------------------

#[test]
fn lit_double_negation() {
    let mut rng = Rng::new(1);
    for seed in 0..CASES {
        let l = arb_lit(&mut rng);
        assert_eq!(!!l, l, "seed {seed}");
        assert_ne!(!l, l, "seed {seed}");
        assert_eq!((!l).var(), l.var(), "seed {seed}");
    }
}

// ------------------------------------------------------------------
// Cube invariants
// ------------------------------------------------------------------

#[test]
fn cube_lits_sorted_and_unique() {
    let mut rng = Rng::new(3);
    for seed in 0..CASES {
        let c = arb_cube(&mut rng);
        for w in c.lits().windows(2) {
            assert!(w[0] < w[1], "seed {seed}: {c}");
        }
    }
}

#[test]
fn cube_negate_involutive() {
    let mut rng = Rng::new(4);
    for seed in 0..CASES {
        let c = arb_cube(&mut rng);
        assert_eq!(c.negate().negate(), c, "seed {seed}");
    }
}

#[test]
fn cube_with_then_without() {
    let mut rng = Rng::new(5);
    for seed in 0..CASES {
        let c = arb_cube(&mut rng);
        let l = arb_lit(&mut rng);
        let added = c.with_lit(l);
        assert!(added.contains(l), "seed {seed}");
        if !c.contains(l) {
            assert_eq!(added.without_lit(l), c, "seed {seed}");
        }
    }
}

#[test]
fn cube_subsumes_is_reflexive_and_monotone() {
    let mut rng = Rng::new(6);
    for seed in 0..CASES {
        let c = arb_cube(&mut rng);
        let l = arb_lit(&mut rng);
        assert!(c.subsumes(&c), "seed {seed}");
        assert!(c.subsumes(&c.with_lit(l)), "seed {seed}");
        assert!(Cube::top().subsumes(&c), "seed {seed}");
    }
}

// ------------------------------------------------------------------
// Theorem 3.4: for consistent non-empty cubes a, b:  a ⇒ b  iff  b ⊆ a.
// ------------------------------------------------------------------

#[test]
fn theorem_3_4_subset_iff_entailment() {
    let mut rng = Rng::new(7);
    for seed in 0..CASES {
        let a = arb_consistent_cube(&mut rng, 1);
        let b = arb_consistent_cube(&mut rng, 1);
        let subset = b.subsumes(&a); // b ⊆ a as literal sets
                                     // Semantic entailment a ⇒ b checked by enumerating all assignments.
        let entails = all_assignments()
            .filter(|&bits| satisfies(&a, bits))
            .all(|bits| satisfies(&b, bits));
        assert_eq!(subset, entails, "seed {seed}: a={a} b={b}");
    }
}

// ------------------------------------------------------------------
// Definition 3.1 / Theorem 3.2: diff(a,b) ≠ ∅ iff a ∧ b unsatisfiable.
// ------------------------------------------------------------------

#[test]
fn theorem_3_2_diff_nonempty_iff_conjunction_unsat() {
    let mut rng = Rng::new(8);
    for seed in 0..CASES {
        let a = arb_consistent_cube(&mut rng, 1);
        let b = arb_consistent_cube(&mut rng, 1);
        let diff_nonempty = !a.diff(&b).is_empty();
        let conjunction_unsat =
            !all_assignments().any(|bits| satisfies(&a, bits) && satisfies(&b, bits));
        assert_eq!(diff_nonempty, conjunction_unsat, "seed {seed}: a={a} b={b}");
    }
}

#[test]
fn diff_is_subset_of_lhs() {
    let mut rng = Rng::new(9);
    for seed in 0..CASES {
        let a = arb_cube(&mut rng);
        let b = arb_cube(&mut rng);
        let d = a.diff(&b);
        assert!(d.subsumes(&a), "seed {seed}");
        for l in &d {
            assert!(a.contains(l), "seed {seed}");
            assert!(b.contains(!l), "seed {seed}");
        }
    }
}

// ------------------------------------------------------------------
// Theorem 3.3: if diff(a,b) ≠ ∅ and c ∩ diff(a,b) ≠ ∅ then diff(c,b) ≠ ∅.
// ------------------------------------------------------------------

#[test]
fn theorem_3_3_diff_propagates_through_intersection() {
    let mut rng = Rng::new(10);
    for seed in 0..CASES {
        let a = arb_cube(&mut rng);
        let b = arb_cube(&mut rng);
        let c = arb_cube(&mut rng);
        let dab = a.diff(&b);
        if !dab.is_empty() && !c.intersection(&dab).is_empty() {
            assert!(!c.diff(&b).is_empty(), "seed {seed}: a={a} b={b} c={c}");
        }
    }
}

// ------------------------------------------------------------------
// The paper's candidate construction (Equation 6): c3 = c2 ∪ {l}, l ∈ diff(b, t)
// satisfies  c3 ∧ t = ⊥  (Eq. 2),  c3 ⊆ b when c2 ⊆ b (Eq. 3),  c2 ⊆ c3 (Eq. 4).
// ------------------------------------------------------------------

#[test]
fn equation_6_candidate_properties() {
    let mut rng = Rng::new(11);
    let mut exercised = 0u32;
    for seed in 0..CASES {
        let b = arb_consistent_cube(&mut rng, 1);
        let t = arb_consistent_cube(&mut rng, 1);
        let keep: Vec<bool> = (0..10).map(|_| rng.bool()).collect();
        let ds = b.diff(&t);
        if ds.is_empty() {
            continue;
        }
        exercised += 1;
        // Build a parent cube c2 ⊆ b by dropping some literals of b.
        let c2 = Cube::from_lits(
            b.iter()
                .enumerate()
                .filter(|&(i, _)| keep.get(i).copied().unwrap_or(true))
                .map(|(_, l)| l),
        );
        for l in &ds {
            let c3 = c2.with_lit(l);
            // Eq. 4: c2 ⊆ c3.
            assert!(c2.subsumes(&c3), "seed {seed}");
            // Eq. 3: c3 ⊆ b (so b ⇒ c3).
            assert!(c3.subsumes(&b), "seed {seed}");
            // Eq. 2: c3 ∧ t = ⊥, via Theorem 3.2 (diff non-empty).
            assert!(!c3.diff(&t).is_empty(), "seed {seed}");
            // And semantically: no assignment satisfies both c3 and t.
            let compatible =
                all_assignments().any(|bits| satisfies(&c3, bits) && satisfies(&t, bits));
            assert!(!compatible, "seed {seed}: c3={c3} t={t}");
        }
    }
    assert!(exercised > 20, "too few cases had a non-empty diff set");
}

// ------------------------------------------------------------------
// Cube / clause interplay
// ------------------------------------------------------------------

#[test]
fn clause_negation_flips_evaluation() {
    let mut rng = Rng::new(12);
    for seed in 0..CASES {
        let c = arb_consistent_cube(&mut rng, 0);
        let bits = rng.below(1 << MAX_VAR) as u32;
        let clause = c.negate();
        // Under a total assignment the cube and its negated clause always have
        // opposite truth values.
        let clause_val = clause.iter().any(|l| holds(l, bits));
        assert_ne!(satisfies(&c, bits), clause_val, "seed {seed}");
    }
}
