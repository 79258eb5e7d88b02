//! End-to-end AIGER pipeline tests: every benchmark circuit survives a round
//! trip through both AIGER formats, and the model-checking verdict is identical
//! whether the circuit comes from the in-memory builder or from parsed bytes —
//! i.e. the exact code path an HWMCC file from disk would take.

use plic3_repro::aig::parse_aiger;
use plic3_repro::benchmarks::Suite;
use plic3_repro::ic3::{Config, Ic3};
use plic3_repro::ts::TransitionSystem;

#[test]
fn every_benchmark_roundtrips_through_both_aiger_formats() {
    for bench in &Suite::hwmcc_like() {
        let original = bench.aig();
        let ascii = parse_aiger(original.to_ascii().as_bytes())
            .unwrap_or_else(|e| panic!("{}: ascii roundtrip failed: {e}", bench.name()));
        assert_eq!(
            &ascii,
            original,
            "{}: ascii roundtrip differs",
            bench.name()
        );
        let binary = parse_aiger(&original.to_binary())
            .unwrap_or_else(|e| panic!("{}: binary roundtrip failed: {e}", bench.name()));
        assert_eq!(
            &binary,
            original,
            "{}: binary roundtrip differs",
            bench.name()
        );
    }
}

#[test]
fn verdicts_are_identical_for_parsed_and_in_memory_circuits() {
    for bench in &Suite::quick() {
        let parsed = parse_aiger(bench.aig().to_ascii().as_bytes()).expect("roundtrip");
        let mut from_memory = Ic3::new(bench.ts(), Config::ric3_like().with_lemma_prediction(true));
        let mut from_file = Ic3::new(
            TransitionSystem::from_aig(&parsed),
            Config::ric3_like().with_lemma_prediction(true),
        );
        let memory_verdict = from_memory.check();
        let file_verdict = from_file.check();
        assert_eq!(
            memory_verdict.is_safe(),
            file_verdict.is_safe(),
            "{}: verdict changed after AIGER roundtrip",
            bench.name()
        );
        assert_eq!(
            memory_verdict.is_unsafe(),
            file_verdict.is_unsafe(),
            "{}: verdict changed after AIGER roundtrip",
            bench.name()
        );
    }
}

#[test]
fn output_only_aiger_1_0_circuit_is_checked_and_its_trace_replays() {
    // AIGER 1.0 / early-HWMCC files express the property as an *output*, not a
    // bad literal. A toggling latch exposed through an output: unsafe after one
    // step, and the counterexample must replay on the original circuit.
    let aig = parse_aiger(b"aag 1 0 1 1 0\n2 3\n2\n").expect("valid AIGER 1.0 file");
    assert_eq!(aig.num_bad(), 0);
    assert_eq!(aig.num_outputs(), 1);
    let mut engine = Ic3::from_aig(&aig, Config::ric3_like());
    let result = engine.check();
    let trace = result.trace().expect("the toggle reaches the output");
    assert!(
        trace.replay_on_aig(engine.ts(), &aig),
        "trace on an output-only circuit must replay"
    );
}

#[test]
fn cone_of_influence_reduction_never_changes_a_verdict() {
    // Preprocessing is the one cone-of-influence reduction: it cuts a junk
    // counter outside the property's cone, while the engine encodes every
    // latch of the raw circuit and still proves it safe.
    use plic3_repro::aig::AigBuilder;
    use plic3_repro::prep::preprocess;
    for bench in Suite::quick().iter().take(4) {
        // The parsed circuit, unpreprocessed, keeps its verdict.
        let original = parse_aiger(bench.aig().to_ascii().as_bytes()).expect("roundtrip");
        let mut plain = Ic3::from_aig(&original, Config::ric3_like());
        assert_eq!(
            plain.check().is_safe(),
            bench.expected().is_safe(),
            "{}: baseline disagrees with ground truth",
            bench.name()
        );
    }
    // Junk: a 6-bit free-running counter with no property.
    let mut b = AigBuilder::new();
    let junk = b.latches(6, Some(false));
    let inc = b.vec_increment(&junk);
    for (s, n) in junk.iter().zip(&inc) {
        b.set_latch_next(*s, *n);
    }
    let junk_only = b.build();
    assert_eq!(preprocess(&junk_only).aig.num_latches(), 0);
    let ts = TransitionSystem::from_aig(&junk_only);
    assert_eq!(ts.num_latches(), 6, "the encoder keeps every latch");
    let mut junk_engine = Ic3::new(ts, Config::ric3_like());
    assert!(junk_engine.check().is_safe());
}
