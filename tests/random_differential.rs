//! Differential testing on seeded random circuits with no hand-crafted ground
//! truth: IC3 (with and without prediction), BMC and k-induction must tell a
//! consistent story on every one of them, and every verdict must carry an
//! independently checked certificate or counterexample.

use plic3_repro::benchmarks::families::random::{random_circuit, RandomCircuitConfig};
use plic3_repro::bmc::{Bmc, KInduction};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::ic3::{CheckResult, Config, Ic3};
use plic3_repro::ts::TransitionSystem;

const BMC_DEPTH: usize = 25;

fn check(config: Config, ts: TransitionSystem) -> (CheckResult, Ic3) {
    let mut engine = Ic3::new(ts, config);
    let result = engine.check();
    (result, engine)
}

#[test]
fn engines_agree_on_random_circuits() {
    let shape = RandomCircuitConfig {
        latches: 6,
        inputs: 2,
        gates: 24,
    };
    for seed in 0..40u64 {
        let aig = random_circuit(seed, shape);
        let ts = TransitionSystem::from_aig(&aig);

        let (base_result, base_engine) = check(Config::ric3_like(), ts.clone());
        let (pl_result, pl_engine) =
            check(Config::ric3_like().with_lemma_prediction(true), ts.clone());

        // 1. Prediction never changes the verdict.
        assert_eq!(
            base_result.is_safe(),
            pl_result.is_safe(),
            "seed {seed}: prediction changed the verdict"
        );

        // 2. Certificates and traces check out.
        for (result, engine) in [(&base_result, &base_engine), (&pl_result, &pl_engine)] {
            match result {
                CheckResult::Safe(cert) => {
                    check_certificate(engine.ts(), cert, &CheckOptions::default())
                        .unwrap_or_else(|e| panic!("seed {seed}: bad certificate: {e}"));
                }
                CheckResult::Unsafe(trace) => assert!(
                    trace.replay_on_aig(engine.ts(), &aig),
                    "seed {seed}: trace does not replay"
                ),
                CheckResult::Unknown(reason) => {
                    panic!("seed {seed}: unexpected unknown ({reason})")
                }
            }
        }

        // 3. BMC agrees within its bound.
        let mut bmc = Bmc::new(&ts);
        match &base_result {
            CheckResult::Safe(_) => {
                assert!(
                    !bmc.check(BMC_DEPTH).is_unsafe(),
                    "seed {seed}: BMC refutes a certified-safe circuit"
                );
            }
            CheckResult::Unsafe(trace) => {
                let found = bmc.check(trace.len()).is_unsafe();
                assert!(
                    found,
                    "seed {seed}: BMC cannot reproduce the counterexample within {} steps",
                    trace.len()
                );
            }
            CheckResult::Unknown(_) => unreachable!(),
        }

        // 4. k-induction is sound (never contradicts the certified verdict).
        let mut kind = KInduction::new(&ts);
        let kind_result = kind.check(10);
        if base_result.is_safe() {
            assert!(
                !kind_result.is_unsafe(),
                "seed {seed}: k-induction refutes a safe circuit"
            );
        } else {
            assert!(
                !kind_result.is_safe(),
                "seed {seed}: k-induction proves an unsafe circuit"
            );
        }
    }
}

#[test]
fn all_configurations_agree_on_a_smaller_random_batch() {
    let shape = RandomCircuitConfig {
        latches: 5,
        inputs: 2,
        gates: 18,
    };
    let configs = [
        Config::ric3_like(),
        Config::ric3_like().with_lemma_prediction(true),
        Config::ic3ref_like(),
        Config::ic3ref_like().with_lemma_prediction(true),
        Config::cav23_like(),
        Config::pdr_like(),
    ];
    for seed in 100..115u64 {
        let aig = random_circuit(seed, shape);
        let ts = TransitionSystem::from_aig(&aig);
        let reference = check(configs[0].clone(), ts.clone()).0.is_safe();
        for (i, config) in configs.iter().enumerate().skip(1) {
            let verdict = check(config.clone(), ts.clone()).0.is_safe();
            assert_eq!(
                verdict, reference,
                "seed {seed}: configuration #{i} disagrees with the reference"
            );
        }
    }
}
