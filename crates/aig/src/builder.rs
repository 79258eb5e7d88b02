//! Programmatic construction of and-inverter graphs.

use crate::{Aig, AigLit, AndGate, Latch};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKind {
    Const,
    Input,
    Latch,
    And,
}

/// Builds an [`Aig`] incrementally, with structural hashing and constant folding.
///
/// Nodes may be created in any order; [`AigBuilder::build`] renumbers them into
/// the canonical AIGER layout (inputs, then latches, then AND gates in
/// topological order). All the word-level helpers ([`AigBuilder::or`],
/// [`AigBuilder::xor`], [`AigBuilder::ite`], …) reduce to AND gates and
/// negations.
///
/// # Example
///
/// ```
/// use plic3_aig::AigBuilder;
/// let mut b = AigBuilder::new();
/// let x = b.input();
/// let y = b.input();
/// let both = b.and(x, y);
/// b.add_output(both);
/// let aig = b.build();
/// assert_eq!(aig.num_ands(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AigBuilder {
    kinds: Vec<NodeKind>,
    // Parallel to `kinds`, meaningful for And nodes only.
    and_operands: Vec<(AigLit, AigLit)>,
    // Latch bookkeeping indexed by builder variable.
    latch_init: HashMap<u32, Option<bool>>,
    latch_next: HashMap<u32, AigLit>,
    strash: HashMap<(u32, u32), AigLit>,
    outputs: Vec<AigLit>,
    bad: Vec<AigLit>,
    constraints: Vec<AigLit>,
    comments: Vec<String>,
}

impl AigBuilder {
    /// Creates a builder containing only the constant node.
    pub fn new() -> Self {
        AigBuilder {
            kinds: vec![NodeKind::Const],
            and_operands: vec![(AigLit::FALSE, AigLit::FALSE)],
            ..Default::default()
        }
    }

    fn new_node(&mut self, kind: NodeKind) -> AigLit {
        let var = self.kinds.len() as u32;
        self.kinds.push(kind);
        self.and_operands.push((AigLit::FALSE, AigLit::FALSE));
        AigLit::positive(var)
    }

    /// The constant-true literal.
    pub fn constant_true(&self) -> AigLit {
        AigLit::TRUE
    }

    /// The constant-false literal.
    pub fn constant_false(&self) -> AigLit {
        AigLit::FALSE
    }

    /// Creates a fresh primary input and returns its literal.
    pub fn input(&mut self) -> AigLit {
        self.new_node(NodeKind::Input)
    }

    /// Creates `n` fresh primary inputs.
    pub fn inputs(&mut self, n: usize) -> Vec<AigLit> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Creates a fresh latch with the given reset value (`None` = uninitialized)
    /// and returns its output literal. The next-state function must be set later
    /// with [`AigBuilder::set_latch_next`].
    pub fn latch(&mut self, init: Option<bool>) -> AigLit {
        let lit = self.new_node(NodeKind::Latch);
        self.latch_init.insert(lit.variable(), init);
        lit
    }

    /// Creates `n` latches with the same reset value.
    pub fn latches(&mut self, n: usize, init: Option<bool>) -> Vec<AigLit> {
        (0..n).map(|_| self.latch(init)).collect()
    }

    /// Sets the next-state function of a latch created by [`AigBuilder::latch`].
    ///
    /// # Panics
    ///
    /// Panics if `latch` is not a (positive) latch literal of this builder.
    pub fn set_latch_next(&mut self, latch: AigLit, next: AigLit) {
        assert!(
            !latch.is_negated()
                && self.kinds.get(latch.variable() as usize) == Some(&NodeKind::Latch),
            "set_latch_next requires a positive latch literal"
        );
        self.latch_next.insert(latch.variable(), next);
    }

    /// The conjunction of two literals, with constant folding and structural
    /// hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let key = if a.code() <= b.code() {
            (a.code(), b.code())
        } else {
            (b.code(), a.code())
        };
        if let Some(&lit) = self.strash.get(&key) {
            return lit;
        }
        let lit = self.new_node(NodeKind::And);
        self.and_operands[lit.variable() as usize] =
            (AigLit::from_code(key.0), AigLit::from_code(key.1));
        self.strash.insert(key, lit);
        lit
    }

    /// The disjunction of two literals.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// The exclusive or of two literals.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let not_both = !self.and(a, b);
        let either = self.or(a, b);
        self.and(not_both, either)
    }

    /// The equivalence (XNOR) of two literals.
    fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.xor(a, b)
    }

    /// The implication `a → b`.
    pub fn implies(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(a, !b)
    }

    /// The multiplexer `if c then t else e`.
    pub fn ite(&mut self, c: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let then_branch = self.and(c, t);
        let else_branch = self.and(!c, e);
        self.or(then_branch, else_branch)
    }

    /// The conjunction of all literals in `lits` (true for an empty slice).
    pub fn and_many(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// The disjunction of all literals in `lits` (false for an empty slice).
    pub fn or_many(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Equality of two bit-vectors given as little-endian literal slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn vec_equals(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        assert_eq!(a.len(), b.len(), "bit-vector width mismatch");
        let bits: Vec<AigLit> = a.iter().zip(b).map(|(&x, &y)| self.xnor(x, y)).collect();
        self.and_many(&bits)
    }

    /// Compares a little-endian bit-vector with a constant.
    pub fn vec_equals_const(&mut self, a: &[AigLit], value: u64) -> AigLit {
        let bits: Vec<AigLit> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| x.negate_if(value >> i & 1 == 0))
            .collect();
        self.and_many(&bits)
    }

    /// A ripple-carry incrementer over a little-endian bit-vector; returns the
    /// incremented bits (the final carry is dropped, i.e. the counter wraps).
    pub fn vec_increment(&mut self, a: &[AigLit]) -> Vec<AigLit> {
        let mut carry = AigLit::TRUE;
        let mut out = Vec::with_capacity(a.len());
        for &bit in a {
            out.push(self.xor(bit, carry));
            carry = self.and(bit, carry);
        }
        out
    }

    /// Adds an output literal.
    pub fn add_output(&mut self, lit: AigLit) {
        self.outputs.push(lit);
    }

    /// Adds a bad-state literal (the circuit is unsafe iff it can be made true).
    pub fn add_bad(&mut self, lit: AigLit) {
        self.bad.push(lit);
    }

    /// Adds an invariant constraint literal (only executions keeping it true are
    /// considered).
    pub fn add_constraint(&mut self, lit: AigLit) {
        self.constraints.push(lit);
    }

    /// Adds a comment line to be carried into the AIGER output.
    pub fn add_comment(&mut self, comment: impl Into<String>) {
        self.comments.push(comment.into());
    }

    /// Estimated heap footprint of the builder in bytes, for memory-budget
    /// accounting by callers that grow circuits under a `ResourceBudget`
    /// (the builder itself stays dependency-free). Covers the node tables
    /// and the structural-hashing map; an estimate is enough.
    pub fn estimated_bytes(&self) -> u64 {
        let per_node = std::mem::size_of::<NodeKind>() + std::mem::size_of::<(AigLit, AigLit)>();
        // HashMap entries cost roughly key + value + control byte, times the
        // load-factor slack; 2x is a serviceable upper bound.
        let strash = self.strash.len() * 2 * (std::mem::size_of::<(u32, u32)>() + 8);
        let latches = (self.latch_init.len() + self.latch_next.len()) * 2 * 16;
        (self.kinds.len() * per_node
            + strash
            + latches
            + (self.outputs.len() + self.bad.len() + self.constraints.len())
                * std::mem::size_of::<AigLit>()) as u64
    }

    /// Finalizes the graph, renumbering nodes into the canonical AIGER layout.
    ///
    /// # Panics
    ///
    /// Panics if a latch was created but never given a next-state function.
    pub fn build(&self) -> Aig {
        self.build_nodes(&vec![true; self.kinds.len()]).0
    }

    /// Finalizes only the cone of influence of the outputs, bad literals and
    /// constraints: the nodes they reach through AND operands and latch
    /// next-state functions, renumbered like [`AigBuilder::build`] does.
    /// Also returns, for each builder variable, the variable it became in the
    /// graph, or `None` when it lies outside the cone.
    ///
    /// # Panics
    ///
    /// Panics if a latch in the cone was never given a next-state function.
    pub fn build_cone(&self) -> (Aig, Vec<Option<u32>>) {
        let mut keep = vec![false; self.kinds.len()];
        keep[0] = true;
        let mut stack: Vec<AigLit> = self
            .outputs
            .iter()
            .chain(&self.bad)
            .chain(&self.constraints)
            .copied()
            .collect();
        while let Some(lit) = stack.pop() {
            let var = lit.variable() as usize;
            if std::mem::replace(&mut keep[var], true) {
                continue;
            }
            match self.kinds[var] {
                NodeKind::And => {
                    let (a, b) = self.and_operands[var];
                    stack.extend([a, b]);
                }
                NodeKind::Latch => stack.extend(self.latch_next.get(&(var as u32))),
                NodeKind::Const | NodeKind::Input => {}
            }
        }
        let (aig, remap) = self.build_nodes(&keep);
        let survivors = remap
            .into_iter()
            .zip(keep)
            .map(|(new, kept)| kept.then_some(new))
            .collect();
        (aig, survivors)
    }

    /// Builds the graph of the nodes marked in `keep`, and returns it with
    /// each builder variable's new variable (0 for nodes left out).
    fn build_nodes(&self, keep: &[bool]) -> (Aig, Vec<u32>) {
        // Assign AIGER variable numbers: inputs, then latches, then ands, each
        // group in creation order.
        let mut remap: Vec<u32> = vec![0; self.kinds.len()];
        let mut next = 1u32;
        for kind in [NodeKind::Input, NodeKind::Latch, NodeKind::And] {
            for (var, k) in self.kinds.iter().enumerate() {
                if *k == kind && keep[var] {
                    remap[var] = next;
                    next += 1;
                }
            }
        }
        let map = |lit: AigLit| -> AigLit {
            AigLit::positive(remap[lit.variable() as usize]).negate_if(lit.is_negated())
        };

        let num_inputs = (0..self.kinds.len())
            .filter(|&var| keep[var] && self.kinds[var] == NodeKind::Input)
            .count();
        let mut latches = Vec::new();
        let mut ands = Vec::new();
        for (var, kind) in self.kinds.iter().enumerate() {
            if !keep[var] {
                continue;
            }
            let var = var as u32;
            match kind {
                NodeKind::Latch => {
                    let next_lit = *self
                        .latch_next
                        .get(&var)
                        .unwrap_or_else(|| panic!("latch {var} has no next-state function"));
                    latches.push(Latch {
                        lit: AigLit::positive(remap[var as usize]),
                        next: map(next_lit),
                        init: self.latch_init[&var],
                    });
                }
                NodeKind::And => {
                    let (a, b) = self.and_operands[var as usize];
                    ands.push(AndGate {
                        lhs: AigLit::positive(remap[var as usize]),
                        rhs0: map(a),
                        rhs1: map(b),
                    });
                }
                NodeKind::Const | NodeKind::Input => {}
            }
        }
        latches.sort_by_key(|l| l.lit.variable());
        ands.sort_by_key(|g| g.lhs.variable());
        // Normalize operand order so rhs0 >= rhs1 (the AIGER binary convention).
        for gate in &mut ands {
            if gate.rhs0.code() < gate.rhs1.code() {
                std::mem::swap(&mut gate.rhs0, &mut gate.rhs1);
            }
        }
        let aig = Aig {
            num_inputs,
            latches,
            ands,
            outputs: self.outputs.iter().map(|&l| map(l)).collect(),
            bad: self.bad.iter().map(|&l| map(l)).collect(),
            constraints: self.constraints.iter().map(|&l| map(l)).collect(),
            comments: self.comments.clone(),
        };
        debug_assert!(aig.validate().is_ok(), "builder produced an invalid AIG");
        (aig, remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn constant_folding() {
        let mut b = AigBuilder::new();
        let x = b.input();
        assert_eq!(b.and(x, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(b.and(AigLit::TRUE, x), x);
        assert_eq!(b.and(x, x), x);
        assert_eq!(b.and(x, !x), AigLit::FALSE);
        assert_eq!(b.build().num_ands(), 0, "no gates should have been created");
    }

    #[test]
    fn structural_hashing_reuses_gates() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let y = b.input();
        let g1 = b.and(x, y);
        let g2 = b.and(y, x);
        assert_eq!(g1, g2);
        assert_eq!(b.build().num_ands(), 1);
    }

    #[test]
    fn or_xor_ite_truth_tables() {
        // Check the derived operators by exhaustive simulation over two inputs.
        for bits in 0..4u32 {
            let a_val = bits & 1 == 1;
            let b_val = bits & 2 == 2;
            let mut b = AigBuilder::new();
            let x = b.input();
            let y = b.input();
            let or = b.or(x, y);
            let xor = b.xor(x, y);
            let xnor = b.xnor(x, y);
            let imp = b.implies(x, y);
            let ite = b.ite(x, y, !y);
            for lit in [or, xor, xnor, imp, ite] {
                b.add_output(lit);
            }
            let aig = b.build();
            let mut sim = Simulator::new(&aig);
            let step = sim.step(&[a_val, b_val]);
            assert_eq!(step.outputs[0], a_val || b_val);
            assert_eq!(step.outputs[1], a_val ^ b_val);
            assert_eq!(step.outputs[2], a_val == b_val);
            assert_eq!(step.outputs[3], !a_val || b_val);
            assert_eq!(step.outputs[4], if a_val { b_val } else { !b_val });
        }
    }

    #[test]
    fn vector_helpers() {
        let mut b = AigBuilder::new();
        let bits = b.inputs(3);
        let eq5 = b.vec_equals_const(&bits, 5);
        let other = b.inputs(3);
        let eq = b.vec_equals(&bits, &other);
        b.add_output(eq5);
        b.add_output(eq);
        let aig = b.build();
        let mut sim = Simulator::new(&aig);
        // bits = 5 (101), other = 5 → both outputs true.
        let step = sim.step(&[true, false, true, true, false, true]);
        assert!(step.outputs[0]);
        assert!(step.outputs[1]);
        let step = sim.step(&[true, false, true, false, false, true]);
        assert!(step.outputs[0]);
        assert!(!step.outputs[1]);
    }

    #[test]
    fn increment_wraps_around() {
        let mut b = AigBuilder::new();
        let state = b.latches(2, Some(false));
        let next = b.vec_increment(&state);
        for (s, n) in state.iter().zip(&next) {
            b.set_latch_next(*s, *n);
        }
        let at3 = b.vec_equals_const(&state, 3);
        b.add_output(at3);
        let aig = b.build();
        let mut sim = Simulator::new(&aig);
        let values: Vec<bool> = (0..5).map(|_| sim.step(&[]).outputs[0]).collect();
        // Counter visits 0,1,2,3,0 → output true exactly at the fourth step.
        assert_eq!(values, vec![false, false, false, true, false]);
    }

    #[test]
    #[should_panic(expected = "no next-state function")]
    fn build_panics_on_dangling_latch() {
        let mut b = AigBuilder::new();
        let _ = b.latch(Some(false));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "positive latch literal")]
    fn set_latch_next_rejects_non_latch() {
        let mut b = AigBuilder::new();
        let x = b.input();
        b.set_latch_next(x, x);
    }

    #[test]
    fn renumbering_handles_interleaved_creation() {
        let mut b = AigBuilder::new();
        let x = b.input();
        let l1 = b.latch(Some(false));
        let g = b.and(x, l1);
        let y = b.input(); // input created after a gate
        let l2 = b.latch(Some(true));
        let g2 = b.and(g, y);
        b.set_latch_next(l1, g2);
        b.set_latch_next(l2, l1);
        b.add_bad(g2);
        let aig = b.build();
        aig.validate().expect("renumbered AIG is valid");
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_latches(), 2);
        assert_eq!(aig.num_ands(), 2);
    }

    #[test]
    fn build_cone_keeps_what_the_properties_reach() {
        let mut b = AigBuilder::new();
        let junk_in = b.input();
        let x = b.input();
        let junk = b.latch(Some(false));
        let l = b.latch(Some(true));
        b.set_latch_next(junk, junk_in);
        let next = b.and(x, l);
        b.set_latch_next(l, next);
        let unread = b.and(junk, x);
        b.add_bad(l);
        let (aig, survivors) = b.build_cone();
        aig.validate().expect("cone is a valid AIG");
        assert_eq!(
            (aig.num_inputs(), aig.num_latches(), aig.num_ands()),
            (1, 1, 1)
        );
        let survivor = |lit: AigLit| survivors[lit.variable() as usize];
        assert_eq!(survivor(x), Some(1));
        assert_eq!(survivor(l), Some(2));
        assert_eq!(survivor(next), Some(3));
        for dropped in [junk_in, junk, unread] {
            assert_eq!(survivor(dropped), None);
        }
        assert_eq!(aig.bad(), &[AigLit::positive(2)]);
    }

    #[test]
    fn comments_are_carried_through() {
        let mut b = AigBuilder::new();
        let x = b.input();
        b.add_output(x);
        b.add_comment("generated by unit test");
        let aig = b.build();
        assert_eq!(aig.comments(), &["generated by unit test".to_string()]);
    }
}
