//! End-to-end certificate checking: every `Safe` verdict must carry an
//! invariant certificate that an *independent* checker accepts on the
//! **original, pre-preprocessing** circuit, and every UNSAT-backed claim of
//! the bounded engines (BMC refutations, k-induction base and step cases)
//! must carry a DRAT proof the backward checker accepts.
//!
//! The DRAT halves of these tests are self-gating: `Solver::proof()` (and the
//! engines' proof accessors) return `None` unless the crate is built with
//! `--features proof-log`, so the same suite runs on the default feature set
//! (certificates only) and at full strength under
//! `cargo test --features proof-log`. The checker DRAT-checks its own SAT
//! queries under the same gate.
//!
//! Scaled by `PLIC3_FUZZ_SCALE` like the other fuzz-flavoured suites.

use plic3_repro::benchmarks::families::random::{random_circuit, RandomCircuitConfig};
use plic3_repro::benchmarks::Suite;
use plic3_repro::bmc::{Bmc, KInduction, KInductionResult};
use plic3_repro::check::{
    check_certificate_on_original, check_unsat_proof, CertCheckError, CheckOptions,
};
use plic3_repro::ic3::{CheckResult, Config, Ic3};
use plic3_repro::logic::Clause;
use plic3_repro::prep::preprocess;
use plic3_repro::sat::proof_logging_compiled;
use plic3_repro::ts::TransitionSystem;

/// Base iteration count scaled by the `PLIC3_FUZZ_SCALE` environment
/// variable (nightly CI runs at scale 10).
fn iterations(base: u64) -> u64 {
    let scale = std::env::var("PLIC3_FUZZ_SCALE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .max(1);
    base * scale
}

/// Runs IC3 on the preprocessed circuit and checks the outcome's artifact on
/// the original one: certificates through the reconstruction maps, traces by
/// replay. Panics with `context` on any failure.
fn check_case(aig: &plic3_repro::aig::Aig, config: Config, context: &str) {
    let prep = preprocess(aig);
    let ts = TransitionSystem::from_aig(&prep.aig);
    let mut engine = Ic3::new(ts, config);
    match engine.check() {
        CheckResult::Safe(cert) => {
            let report = check_certificate_on_original(
                aig,
                &prep.reconstruction,
                engine.ts(),
                &cert,
                &CheckOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{context}: certificate rejected: {e}"));
            assert_eq!(report.lemmas, cert.lemmas.len(), "{context}");
            if proof_logging_compiled() {
                assert_eq!(
                    report.drat_checked, report.queries,
                    "{context}: every checker query must be DRAT-checked"
                );
            } else {
                assert_eq!(report.drat_checked, 0, "{context}");
            }
        }
        CheckResult::Unsafe(trace) => {
            assert!(
                prep.replay_on_original(engine.ts(), &trace),
                "{context}: trace does not replay on the original circuit"
            );
        }
        CheckResult::Unknown(reason) => panic!("{context}: unexpected unknown ({reason})"),
    }
}

#[test]
fn quick_suite_certificates_check_on_the_original_circuit() {
    for benchmark in Suite::quick().iter() {
        check_case(
            benchmark.aig(),
            Config::ric3_like().with_lemma_prediction(true),
            benchmark.name(),
        );
    }
}

#[test]
fn random_circuit_certificates_check_on_the_original_circuit() {
    let shape = RandomCircuitConfig {
        latches: 6,
        inputs: 2,
        gates: 24,
    };
    for seed in 0..iterations(40) {
        let aig = random_circuit(seed, shape);
        // Alternate configurations so both generalization modes produce
        // certificates that go through the checker.
        let config = if seed % 2 == 0 {
            Config::ric3_like()
        } else {
            Config::ic3ref_like().with_lemma_prediction(true)
        };
        check_case(&aig, config, &format!("seed {seed}"));
    }
}

#[test]
fn tampered_certificates_are_rejected_on_the_original_circuit() {
    let mut rejected = 0;
    for benchmark in Suite::quick().iter() {
        let prep = preprocess(benchmark.aig());
        let ts = TransitionSystem::from_aig(&prep.aig);
        let mut engine = Ic3::new(ts, Config::ric3_like());
        let CheckResult::Safe(mut cert) = engine.check() else {
            continue;
        };
        if cert.lemmas.is_empty() {
            continue; // nothing to tamper with: the property itself is inductive
        }
        // Negating every literal of a lemma yields a clause that is almost
        // surely not inductive — and if it happened to be, it would fail
        // initiation instead. Either way the checker must reject.
        cert.lemmas[0] = Clause::from_lits(cert.lemmas[0].iter().map(|l| !l));
        let err = check_certificate_on_original(
            benchmark.aig(),
            &prep.reconstruction,
            engine.ts(),
            &cert,
            &CheckOptions::default(),
        )
        .expect_err("a tampered certificate must be rejected");
        assert!(
            matches!(err, CertCheckError::Invalid(_)),
            "{}: {err}",
            benchmark.name()
        );
        rejected += 1;
    }
    assert!(
        rejected > 0,
        "the quick suite has safe instances with lemmas"
    );
}

#[test]
fn bmc_refutations_carry_checkable_drat_proofs() {
    const DEPTH: usize = 10;
    let mut checked = 0;
    for benchmark in Suite::quick().iter() {
        let ts = benchmark.ts();
        let mut bmc = Bmc::with_proof_tracing(&ts);
        if bmc.check(DEPTH).is_unsafe() {
            // A SAT answer ends the run; its witness is covered by the trace
            // replay tests, not by a refutation proof.
            continue;
        }
        // Every depth came back clean, so the last query — bad at frame
        // DEPTH under the unrolled transition relation — was UNSAT and the
        // cumulative proof must derive its refutation.
        if let Some(proof) = bmc.proof() {
            let assumptions = bmc.bad_assumptions_at(DEPTH);
            check_unsat_proof(proof, &assumptions)
                .unwrap_or_else(|e| panic!("{}: BMC DRAT check failed: {e}", benchmark.name()));
            checked += 1;
        }
    }
    if proof_logging_compiled() {
        assert!(checked > 0, "the quick suite has safe instances");
    } else {
        assert_eq!(checked, 0, "no proofs exist without the proof-log feature");
    }
}

#[test]
fn k_induction_safe_verdicts_carry_checkable_drat_proofs() {
    let mut checked = 0;
    for benchmark in Suite::quick().iter() {
        let ts = benchmark.ts();
        let mut kind = KInduction::with_proof_tracing(&ts);
        let KInductionResult::Safe { k } = kind.check(20) else {
            continue;
        };
        // A Safe { k } claim rests on two refutations: no counterexample of
        // length k (base case) and no k-good-states-then-bad path (step
        // case). Both must DRAT-check under the exact assumptions used.
        if let Some(proof) = kind.base_proof() {
            let assumptions = kind.base_assumptions_at(k);
            check_unsat_proof(proof, &assumptions).unwrap_or_else(|e| {
                panic!("{}: base-case DRAT check failed: {e}", benchmark.name())
            });
            checked += 1;
        }
        if let Some(proof) = kind.step_proof() {
            let assumptions = kind.step_assumptions_at(k);
            check_unsat_proof(proof, &assumptions).unwrap_or_else(|e| {
                panic!("{}: step-case DRAT check failed: {e}", benchmark.name())
            });
            checked += 1;
        }
    }
    if proof_logging_compiled() {
        assert!(checked > 0, "the quick suite has k-inductive instances");
    } else {
        assert_eq!(checked, 0, "no proofs exist without the proof-log feature");
    }
}

#[test]
fn random_bounded_refutations_carry_checkable_drat_proofs() {
    if !proof_logging_compiled() {
        // The bounded engines produce no proofs on the default feature set;
        // the `_carry_checkable_drat_proofs` tests above already pin the
        // accessors to `None` in that build.
        return;
    }
    const DEPTH: usize = 8;
    let shape = RandomCircuitConfig {
        latches: 5,
        inputs: 2,
        gates: 18,
    };
    for seed in 1000..1000 + iterations(40) {
        let aig = random_circuit(seed, shape);
        let ts = TransitionSystem::from_aig(&aig);
        let mut bmc = Bmc::with_proof_tracing(&ts);
        if bmc.check(DEPTH).is_unsafe() {
            continue;
        }
        let proof = bmc.proof().expect("proof-log is compiled in");
        let assumptions = bmc.bad_assumptions_at(DEPTH);
        check_unsat_proof(proof, &assumptions)
            .unwrap_or_else(|e| panic!("seed {seed}: BMC DRAT check failed: {e}"));
    }
}
