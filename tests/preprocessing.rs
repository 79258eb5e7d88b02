//! End-to-end tests of the AIG preprocessing subsystem: the simplified
//! circuits survive AIGER round trips, the model-checking verdict is identical
//! with and without preprocessing across the benchmark families and seeded
//! random circuits, and every `Unsafe` witness found on a simplified circuit
//! replays as a property violation on the **original** circuit.

use plic3_repro::aig::{parse_aiger, Aig, AigLit};
use plic3_repro::benchmarks::families::random::{random_circuit, RandomCircuitConfig};
use plic3_repro::benchmarks::{ExpectedResult, Suite};
use plic3_repro::bmc::{Bmc, BmcDepthStatus};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::ic3::{CheckResult, Config, Ic3};
use plic3_repro::prep::preprocess;
use plic3_repro::ts::TransitionSystem;
use std::collections::HashSet;

/// The variables of `aig` that feed its property or a constraint: a demand
/// walk from those literals through gates and latch next-state functions.
fn cone(aig: &Aig) -> HashSet<u32> {
    let mut seen = HashSet::new();
    let mut stack: Vec<AigLit> = aig.property_literal().into_iter().collect();
    stack.extend(aig.constraints());
    while let Some(lit) = stack.pop() {
        if lit.variable() == 0 || !seen.insert(lit.variable()) {
            continue;
        }
        if let Some(gate) = aig.and_for(lit) {
            stack.extend([gate.rhs0, gate.rhs1]);
        } else if let Some(i) = aig.latch_index(lit) {
            stack.push(aig.latches()[i].next);
        }
    }
    seen
}

#[test]
fn preprocessed_circuits_roundtrip_through_both_aiger_formats() {
    for bench in &Suite::hwmcc_like() {
        let prep = preprocess(bench.aig());
        prep.aig
            .validate()
            .unwrap_or_else(|e| panic!("{}: invalid after preprocessing: {e}", bench.name()));
        assert!(
            prep.aig.num_latches() <= bench.aig().num_latches(),
            "{}: preprocessing grew the circuit",
            bench.name()
        );
        // Variables are numbered densely, so a cone of `max_var` variables
        // holds every input, latch and gate.
        assert_eq!(
            cone(&prep.aig).len(),
            prep.aig.max_var() as usize,
            "{}: preprocessing kept logic outside the cone of the property and the constraints",
            bench.name()
        );
        let ascii = parse_aiger(prep.aig.to_ascii().as_bytes())
            .unwrap_or_else(|e| panic!("{}: ascii roundtrip failed: {e}", bench.name()));
        assert_eq!(ascii, prep.aig, "{}: ascii roundtrip differs", bench.name());
        let binary = parse_aiger(&prep.aig.to_binary())
            .unwrap_or_else(|e| panic!("{}: binary roundtrip failed: {e}", bench.name()));
        assert_eq!(
            binary,
            prep.aig,
            "{}: binary roundtrip differs",
            bench.name()
        );
    }
}

#[test]
fn verdicts_agree_with_and_without_preprocessing_on_the_quick_suite() {
    for bench in &Suite::quick() {
        let config = Config::ric3_like().with_lemma_prediction(true);
        let mut raw = Ic3::from_aig(bench.aig(), config.clone());
        let raw_result = raw.check();
        let prep = preprocess(bench.aig());
        let mut simplified = Ic3::new(TransitionSystem::from_aig(&prep.aig), config);
        let prep_result = simplified.check();
        assert_eq!(
            raw_result.is_safe(),
            prep_result.is_safe(),
            "{}: preprocessing changed the verdict",
            bench.name()
        );
        match &prep_result {
            CheckResult::Safe(cert) => {
                check_certificate(simplified.ts(), cert, &CheckOptions::default())
                    .unwrap_or_else(|e| panic!("{}: bad certificate: {e}", bench.name()));
            }
            CheckResult::Unsafe(trace) => assert!(
                prep.replay_on_original(simplified.ts(), trace),
                "{}: witness does not replay on the original circuit",
                bench.name()
            ),
            CheckResult::Unknown(reason) => {
                panic!("{}: unexpected unknown ({reason})", bench.name())
            }
        }
    }
}

#[test]
fn unsafe_instances_of_the_full_suite_keep_their_counterexample_depth() {
    // BMC is complete up to a bound: for every unsafe instance with a known
    // shallow counterexample, the preprocessed circuit must yield one at the
    // same depth, and the witness must replay on the original circuit.
    for bench in &Suite::hwmcc_like() {
        let ExpectedResult::Unsafe {
            min_depth: Some(depth),
        } = bench.expected()
        else {
            continue;
        };
        if depth > 16 {
            continue; // keep the unrolling cheap
        }
        let prep = preprocess(bench.aig());
        let ts = TransitionSystem::from_aig(&prep.aig);
        let mut bmc = Bmc::new(&ts);
        let BmcDepthStatus::Unsafe(trace) = bmc.check_depth_status(depth) else {
            panic!(
                "{}: no counterexample at depth {depth} after preprocessing",
                bench.name()
            );
        };
        assert!(
            prep.replay_on_original(&ts, &trace),
            "{}: BMC witness does not replay on the original circuit",
            bench.name()
        );
    }
}

#[test]
fn seeded_random_circuits_keep_their_verdicts_under_preprocessing() {
    let shape = RandomCircuitConfig {
        latches: 6,
        inputs: 2,
        gates: 24,
    };
    for seed in 0..40u64 {
        let aig = random_circuit(seed, shape);
        let mut raw = Ic3::from_aig(&aig, Config::ric3_like());
        let raw_result = raw.check();
        let prep = preprocess(&aig);
        let mut simplified = Ic3::new(
            TransitionSystem::from_aig(&prep.aig),
            Config::ric3_like().with_lemma_prediction(true),
        );
        let prep_result = simplified.check();
        assert_eq!(
            raw_result.is_safe(),
            prep_result.is_safe(),
            "seed {seed}: preprocessing changed the verdict"
        );
        if let CheckResult::Unsafe(trace) = &prep_result {
            assert!(
                prep.replay_on_original(simplified.ts(), trace),
                "seed {seed}: witness does not replay on the original circuit"
            );
        }
    }
}

#[test]
fn preprocessing_shrinks_at_least_one_family_significantly() {
    // The suite's circuits are built through the strashing AigBuilder, so most
    // redundancy is already gone — but preprocessing must never grow a circuit
    // and must still find reductions somewhere (stuck or merged latches, or
    // cone pruning) across the full suite.
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for bench in &Suite::hwmcc_like() {
        let stats = preprocess(bench.aig()).stats;
        total_before += stats.latches_before + stats.ands_before;
        total_after += stats.latches_after + stats.ands_after;
    }
    assert!(
        total_after < total_before,
        "preprocessing found nothing to simplify across the whole suite \
         ({total_before} → {total_after} nodes)"
    );
}

#[test]
fn a_raised_stop_cancels_preprocessing_into_a_sound_identity_rewrite() {
    // The feature-off half of the robustness contract (docs/ROBUSTNESS.md):
    // a budget stopped before or while the pipeline runs ends it between
    // rounds. Interrupted before the first round completes, `run_under`
    // returns the identity rewrite of the original circuit — still valid,
    // still sound to model-check — with the cancellation recorded.
    use plic3_repro::ic3::ResourceBudget;
    use plic3_repro::prep::Preprocessor;

    for bench in &Suite::quick() {
        let budget = ResourceBudget::unlimited();
        budget.cancel();
        let prep = Preprocessor.run_under(bench.aig(), &budget);
        assert!(
            prep.stats.cancelled,
            "{}: cancellation unreported",
            bench.name()
        );
        assert_eq!(
            prep.stats.rounds,
            0,
            "{}: a round ran past the stop",
            bench.name()
        );
        assert_eq!(
            prep.aig,
            *bench.aig(),
            "{}: an interrupted pipeline must hand back the original circuit",
            bench.name()
        );
        prep.aig.validate().expect("identity output validates");
    }

    // An exhausted memory budget cancels the same way — graceful, sound,
    // reported — never an abort.
    let bench = Suite::quick().iter().next().expect("non-empty").clone();
    let budget = ResourceBudget::with_limit(1);
    let prep = Preprocessor.run_under(bench.aig(), &budget);
    assert!(prep.stats.cancelled);
    assert_eq!(prep.aig, *bench.aig());
}
