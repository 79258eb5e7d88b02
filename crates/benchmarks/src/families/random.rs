//! Random circuits from a fixed seed (no ground truth) for differential testing.
//!
//! These circuits are **not** part of [`crate::Suite::hwmcc_like`] because
//! their safe/unsafe status is not known by construction; they exist so the
//! integration tests can cross-check the engines against each other (IC3 vs
//! BMC vs k-induction vs the AIG simulator) on inputs nobody hand-crafted.

use plic3_aig::{Aig, AigBuilder, AigLit};
use plic3_logic::SplitMix64;

/// Parameters of a random circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomCircuitConfig {
    /// Number of latches.
    pub latches: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of AND gates to sample.
    pub gates: usize,
}

impl Default for RandomCircuitConfig {
    fn default() -> Self {
        RandomCircuitConfig {
            latches: 5,
            inputs: 2,
            gates: 20,
        }
    }
}

/// Generates a random (but deterministic for a given `seed`) sequential
/// circuit: random AND/inverter network over the latches and inputs, random
/// next-state functions, and a random bad-state literal.
///
/// # Example
///
/// ```
/// use plic3_benchmarks::families::random::{random_circuit, RandomCircuitConfig};
/// let a = random_circuit(7, RandomCircuitConfig::default());
/// let b = random_circuit(7, RandomCircuitConfig::default());
/// assert_eq!(a, b, "same seed gives the same circuit");
/// assert!(a.validate().is_ok());
/// ```
pub fn random_circuit(seed: u64, config: RandomCircuitConfig) -> Aig {
    let mut rng = SplitMix64::new(seed);
    let mut b = AigBuilder::new();
    let inputs = b.inputs(config.inputs);
    let latches: Vec<AigLit> = (0..config.latches)
        .map(|_| b.latch(Some(rng.gen_bool(0.3))))
        .collect();
    // Candidate operand pool: constants, inputs, latches, then created gates.
    let mut pool: Vec<AigLit> = Vec::new();
    pool.push(b.constant_true());
    pool.extend(inputs.iter().copied());
    pool.extend(latches.iter().copied());
    let pick = |rng: &mut SplitMix64, pool: &[AigLit]| -> AigLit {
        let lit = pool[rng.gen_range(0..pool.len())];
        lit.negate_if(rng.gen_bool(0.5))
    };
    for _ in 0..config.gates {
        let x = pick(&mut rng, &pool);
        let y = pick(&mut rng, &pool);
        let gate = b.and(x, y);
        pool.push(gate);
    }
    for &latch in &latches {
        let next = pick(&mut rng, &pool);
        b.set_latch_next(latch, next);
    }
    let bad = pick(&mut rng, &pool);
    b.add_bad(bad);
    b.build()
}

/// Generates a batch of random circuits with increasing seeds.
pub fn random_batch(first_seed: u64, count: usize, config: RandomCircuitConfig) -> Vec<Aig> {
    (0..count)
        .map(|i| random_circuit(first_seed + i as u64, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuits_are_deterministic_and_valid() {
        for seed in 0..20 {
            let config = RandomCircuitConfig::default();
            let a = random_circuit(seed, config);
            let b = random_circuit(seed, config);
            assert_eq!(a, b);
            a.validate().expect("random circuit must be a valid AIG");
            assert_eq!(a.num_latches(), config.latches);
            assert_eq!(a.num_inputs(), config.inputs);
            assert!(a.property_literal().is_some());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let config = RandomCircuitConfig::default();
        let distinct = (0..10)
            .map(|seed| random_circuit(seed, config))
            .collect::<Vec<_>>();
        let first = &distinct[0];
        assert!(distinct.iter().any(|c| c != first));
    }

    #[test]
    fn batch_has_requested_size() {
        let batch = random_batch(100, 5, RandomCircuitConfig::default());
        assert_eq!(batch.len(), 5);
    }
}
