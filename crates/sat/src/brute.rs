//! Exhaustive reference solver used to cross-check the CDCL engine in tests.

use plic3_logic::{Clause, Lit};

/// Decides satisfiability of `clauses` (restricted to variables `0..num_vars`)
/// under the given `assumptions` by exhaustive enumeration, returning a
/// satisfying total assignment (entry `i` is the value of variable `i`) if one
/// exists.
///
/// This is exponential in `num_vars` and intended only for testing the CDCL
/// solver and the model-checking engines on small instances.
///
/// # Panics
///
/// Panics if `num_vars > 24` to avoid accidentally enumerating huge spaces.
///
/// # Example
///
/// ```
/// use plic3_logic::{Clause, Lit, Var};
/// use plic3_sat::brute_force_sat;
///
/// let x = Lit::pos(Var::new(0));
/// let clauses = [Clause::unit(x)];
/// assert_eq!(brute_force_sat(1, &clauses, &[]), Some(vec![true]));
/// assert!(brute_force_sat(1, &clauses, &[!x]).is_none());
/// ```
pub fn brute_force_sat(
    num_vars: usize,
    clauses: &[Clause],
    assumptions: &[Lit],
) -> Option<Vec<bool>> {
    assert!(num_vars <= 24, "brute force limited to 24 variables");
    for bits in 0u64..(1u64 << num_vars) {
        let holds =
            |l: Lit| l.var().index() < num_vars && (bits >> l.var().index() & 1 == 1) == l.is_pos();
        if assumptions.iter().all(|&l| holds(l)) && clauses.iter().all(|c| c.iter().any(holds)) {
            return Some((0..num_vars).map(|i| bits >> i & 1 == 1).collect());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_logic::Var;

    #[test]
    fn finds_model_for_satisfiable_formula() {
        let a = Lit::pos(Var::new(0));
        let b = Lit::pos(Var::new(1));
        let clauses = [Clause::from_lits([a, b]), Clause::from_lits([!a, b])];
        let model = brute_force_sat(2, &clauses, &[]).expect("sat");
        assert!(model[1], "both clauses need b");
    }

    #[test]
    fn respects_assumptions() {
        let a = Lit::pos(Var::new(0));
        let model = brute_force_sat(1, &[], &[!a]).expect("sat");
        assert_eq!(model, vec![false]);
    }

    #[test]
    fn detects_unsat() {
        let a = Lit::pos(Var::new(0));
        let clauses = [Clause::unit(a), Clause::unit(!a)];
        assert!(brute_force_sat(1, &clauses, &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "24 variables")]
    fn refuses_large_spaces() {
        let _ = brute_force_sat(30, &[], &[]);
    }
}
