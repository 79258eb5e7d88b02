//! Three-valued (ternary) fixed-point simulation for stuck-at latch detection.
//!
//! Inputs are held at the unknown value `X` and the latch state starts at the
//! reset values (`X` for uninitialized latches). One abstract step evaluates
//! every gate under ternary AND and feeds the next-state literals back into
//! the latches; a latch whose value would change is *widened* to `X`. The
//! widening makes the iteration monotone in the `{0,1} ⊑ X` lattice, so it
//! reaches a fixed point after at most `num_latches + 1` steps. Any latch that
//! still holds a Boolean constant at the fixed point provably holds that value
//! in **every** reachable state of the concrete circuit, for every input
//! sequence — it is stuck and can be replaced by the constant.

use plic3_aig::{Aig, AigLit};
use plic3_sat::ResourceBudget;

/// A value of the three-valued simulation domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ternary {
    /// Definitely false.
    False,
    /// Definitely true.
    True,
    /// Unknown (either value possible).
    Unknown,
}

impl Ternary {
    /// Lifts a Boolean constant.
    fn from_bool(value: bool) -> Ternary {
        if value {
            Ternary::True
        } else {
            Ternary::False
        }
    }

    /// Ternary conjunction: false dominates, two trues make a true, anything
    /// else is unknown.
    fn and(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::False, _) | (_, Ternary::False) => Ternary::False,
            (Ternary::True, Ternary::True) => Ternary::True,
            _ => Ternary::Unknown,
        }
    }

    /// The Boolean value, if the ternary value is a constant.
    fn constant(self) -> Option<bool> {
        match self {
            Ternary::False => Some(false),
            Ternary::True => Some(true),
            Ternary::Unknown => None,
        }
    }
}

impl std::ops::Not for Ternary {
    type Output = Ternary;

    /// Ternary negation (`X` stays `X`).
    fn not(self) -> Ternary {
        match self {
            Ternary::False => Ternary::True,
            Ternary::True => Ternary::False,
            Ternary::Unknown => Ternary::Unknown,
        }
    }
}

/// Evaluates every variable of `aig` under the given latch valuation, with all
/// primary inputs at `X`. Returns one value per variable (indexed by AIGER
/// variable number; variable 0 evaluates to false so literal 1 is true).
fn eval_all(aig: &Aig, latch_values: &[Ternary]) -> Vec<Ternary> {
    let mut values = vec![Ternary::Unknown; aig.max_var() as usize + 1];
    values[0] = Ternary::False;
    for (latch, &v) in aig.latches().iter().zip(latch_values) {
        values[latch.lit.variable() as usize] = v;
    }
    for gate in aig.ands() {
        let a = eval(&values, gate.rhs0);
        let b = eval(&values, gate.rhs1);
        values[gate.lhs.variable() as usize] = a.and(b);
    }
    values
}

fn eval(values: &[Ternary], lit: AigLit) -> Ternary {
    let v = values[lit.variable() as usize];
    if lit.is_negated() {
        !v
    } else {
        v
    }
}

/// For each latch of `aig`, `Some(c)` if ternary fixed-point simulation proves
/// the latch holds the constant `c` in every reachable state (under every
/// input sequence), `None` otherwise.
pub fn stuck_latches(aig: &Aig) -> Vec<Option<bool>> {
    stuck_latches_under(aig, &ResourceBudget::unlimited())
}

/// [`stuck_latches`] with a cancellation point between fixed-point
/// iterations: once `budget` is stopped (cancelled, past its deadline or out
/// of memory) the sweep returns the all-`None` (nothing proven stuck)
/// answer, which is always sound.
pub fn stuck_latches_under(aig: &Aig, budget: &ResourceBudget) -> Vec<Option<bool>> {
    let mut state: Vec<Ternary> = aig
        .latches()
        .iter()
        .map(|l| l.init.map_or(Ternary::Unknown, Ternary::from_bool))
        .collect();
    // Widening kills at least one constant per non-fixpoint iteration, so the
    // loop ends after at most num_latches + 1 rounds; the bound below is a
    // defensive cap, not a tuning knob.
    for _ in 0..aig.num_latches() + 2 {
        if budget.poll_deadline() {
            return vec![None; aig.num_latches()];
        }
        let values = eval_all(aig, &state);
        let mut changed = false;
        for (i, latch) in aig.latches().iter().enumerate() {
            let next = eval(&values, latch.next);
            if next != state[i] {
                // Widen: once a latch can take a second value it is unknown.
                if state[i] != Ternary::Unknown {
                    state[i] = Ternary::Unknown;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    state.into_iter().map(Ternary::constant).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plic3_aig::AigBuilder;

    #[test]
    fn ternary_operators() {
        use Ternary::*;
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(False), False);
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(!Unknown, Unknown);
        assert_eq!(!True, False);
        assert_eq!(Ternary::from_bool(true).constant(), Some(true));
        assert_eq!(Unknown.constant(), None);
    }

    #[test]
    fn self_looping_latches_are_stuck_at_their_reset_value() {
        let mut b = AigBuilder::new();
        let zero = b.latch(Some(false));
        let one = b.latch(Some(true));
        b.set_latch_next(zero, zero);
        b.set_latch_next(one, one);
        b.add_bad(zero);
        let stuck = stuck_latches(&b.build());
        assert_eq!(stuck, vec![Some(false), Some(true)]);
    }

    #[test]
    fn a_stopped_budget_proves_nothing_stuck() {
        let mut b = AigBuilder::new();
        let zero = b.latch(Some(false));
        b.set_latch_next(zero, zero);
        b.add_bad(zero);
        let aig = b.build();
        let cancelled = ResourceBudget::unlimited();
        cancelled.cancel();
        let out_of_memory = ResourceBudget::with_limit(0);
        out_of_memory.charge(1);
        for budget in [cancelled, out_of_memory] {
            assert_eq!(stuck_latches_under(&aig, &budget), vec![None], "{budget:?}");
        }
    }

    #[test]
    fn constants_propagate_through_gates_and_latch_chains() {
        // l0 is fed the constant false, l1 copies l0, l2 = AND(l1, input):
        // l0 and l1 are stuck at 0, and so is l2 (false dominates the X input).
        let mut b = AigBuilder::new();
        let x = b.input();
        let l0 = b.latch(Some(false));
        let l1 = b.latch(Some(false));
        let l2 = b.latch(Some(false));
        b.set_latch_next(l0, b.constant_false());
        b.set_latch_next(l1, l0);
        let guarded = b.and(l1, x);
        b.set_latch_next(l2, guarded);
        b.add_bad(l2);
        let stuck = stuck_latches(&b.build());
        assert_eq!(stuck, vec![Some(false), Some(false), Some(false)]);
    }

    #[test]
    fn toggling_and_input_driven_latches_are_not_stuck() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let toggle = b.latch(Some(false));
        let follow = b.latch(Some(false));
        b.set_latch_next(toggle, !toggle);
        b.set_latch_next(follow, x);
        b.add_bad(toggle);
        let stuck = stuck_latches(&b.build());
        assert_eq!(stuck, vec![None, None]);
    }

    #[test]
    fn uninitialized_latches_never_count_as_stuck() {
        let mut b = AigBuilder::new();
        let l = b.latch(None);
        b.set_latch_next(l, l);
        b.add_bad(l);
        assert_eq!(stuck_latches(&b.build()), vec![None]);
    }

    #[test]
    fn eventually_constant_latches_are_not_claimed_stuck() {
        // A chain l0 <- false, l1 <- l0, ..., each initialized to 1: every
        // latch is 1 at reset but becomes 0 forever after i+1 steps — so none
        // of them is stuck (their value changes over time).
        let mut b = AigBuilder::new();
        let chain = b.latches(4, Some(true));
        b.set_latch_next(chain[0], b.constant_false());
        for i in 1..4 {
            b.set_latch_next(chain[i], chain[i - 1]);
        }
        b.add_bad(chain[3]);
        assert_eq!(stuck_latches(&b.build()), vec![None; 4]);
    }
}
