//! Cross-engine integration tests: IC3 (all configurations), BMC and
//! k-induction must agree with each other and with the ground truth of the
//! benchmark suite, and every verdict must come with an independently verified
//! certificate or counterexample.

use plic3_repro::benchmarks::{ExpectedResult, Suite};
use plic3_repro::bmc::{Bmc, BmcDepthStatus, BmcResult, KInduction};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::ic3::{Config, Ic3};

fn all_configs() -> Vec<(&'static str, Config)> {
    vec![
        ("ric3", Config::ric3_like()),
        ("ric3-pl", Config::ric3_like().with_lemma_prediction(true)),
        ("ic3ref", Config::ic3ref_like()),
        (
            "ic3ref-pl",
            Config::ic3ref_like().with_lemma_prediction(true),
        ),
        ("cav23", Config::cav23_like()),
        ("pdr", Config::pdr_like()),
    ]
}

#[test]
fn ic3_matches_ground_truth_on_quick_suite_for_every_configuration() {
    for bench in &Suite::quick() {
        for (name, config) in all_configs() {
            let mut engine = Ic3::new(bench.ts(), config);
            let result = engine.check();
            match bench.expected() {
                ExpectedResult::Safe => {
                    let cert = result.certificate().unwrap_or_else(|| {
                        panic!("{name} failed to prove {}: {result}", bench.name())
                    });
                    check_certificate(engine.ts(), cert, &CheckOptions::default()).unwrap_or_else(
                        |e| panic!("{name} certificate for {} is bogus: {e}", bench.name()),
                    );
                }
                ExpectedResult::Unsafe { min_depth } => {
                    let trace = result.trace().unwrap_or_else(|| {
                        panic!("{name} failed to refute {}: {result}", bench.name())
                    });
                    assert!(
                        trace.replay_on_aig(engine.ts(), bench.aig()),
                        "{name} produced a non-replayable trace for {}",
                        bench.name()
                    );
                    if let Some(min_depth) = min_depth {
                        assert!(
                            trace.len() >= min_depth,
                            "{name} found an impossibly short counterexample for {}",
                            bench.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn bmc_confirms_every_unsafe_instance_at_its_known_depth() {
    let suite = Suite::quick();
    for bench in suite.iter().filter(|b| !b.expected().is_safe()) {
        let ts = bench.ts();
        let mut bmc = Bmc::new(&ts);
        match bmc.check(40) {
            BmcResult::Unsafe { trace, depth } => {
                assert!(trace.replay_on_aig(&ts, bench.aig()));
                if let ExpectedResult::Unsafe {
                    min_depth: Some(min_depth),
                } = bench.expected()
                {
                    assert_eq!(
                        depth,
                        min_depth,
                        "{}: BMC found depth {depth}, expected {min_depth}",
                        bench.name()
                    );
                }
            }
            other => panic!("{}: BMC says {other}", bench.name()),
        }
    }
}

#[test]
fn bmc_never_refutes_a_safe_instance() {
    for bench in Suite::quick().iter().filter(|b| b.expected().is_safe()) {
        let ts = bench.ts();
        let mut bmc = Bmc::new(&ts);
        assert!(
            !bmc.check(25).is_unsafe(),
            "{}: BMC refuted a safe instance",
            bench.name()
        );
    }
}

#[test]
fn k_induction_is_sound_on_the_quick_suite() {
    for bench in &Suite::quick() {
        let ts = bench.ts();
        let mut kind = KInduction::new(&ts);
        let result = kind.check(15);
        match bench.expected() {
            ExpectedResult::Safe => assert!(
                !result.is_unsafe(),
                "{}: k-induction refuted a safe instance",
                bench.name()
            ),
            ExpectedResult::Unsafe { .. } => assert!(
                !result.is_safe(),
                "{}: k-induction proved an unsafe instance",
                bench.name()
            ),
        }
    }
}

#[test]
fn ic3_and_bmc_agree_on_a_slice_of_the_full_suite() {
    // A deterministic slice of the full suite (every 7th instance, skipping the
    // deliberately hard large instances) keeps the test fast while still
    // crossing family boundaries.
    let suite = Suite::hwmcc_like().filter(|b| b.ts().num_latches() <= 12);
    for (i, bench) in suite.iter().enumerate() {
        if i % 7 != 0 {
            continue;
        }
        let mut engine = Ic3::new(bench.ts(), Config::ric3_like().with_lemma_prediction(true));
        let result = engine.check();
        assert_eq!(
            result.is_safe(),
            bench.expected().is_safe(),
            "wrong verdict on {}",
            bench.name()
        );
        if let Some(trace) = result.trace() {
            let ts = bench.ts();
            let mut bmc = Bmc::new(&ts);
            assert!(
                matches!(
                    bmc.check_depth_status(trace.len()),
                    BmcDepthStatus::Unsafe(_)
                ),
                "BMC cannot confirm the IC3 counterexample depth for {}",
                bench.name()
            );
        }
    }
}
