//! The CTI cache answers relative-induction queries from recorded SAT models
//! without changing what a run computes from one execution to the next.

use plic3_repro::benchmarks::families::{counters, fifo, shift};
use plic3_repro::ic3::{Config, Ic3, Statistics};
use plic3_repro::ts::TransitionSystem;
use std::time::Duration;

fn run(aig: &plic3_repro::aig::Aig, config: Config) -> Statistics {
    let mut engine = Ic3::new(TransitionSystem::from_aig(aig), config);
    assert!(!engine.check().is_unknown());
    *engine.statistics()
}

#[test]
fn the_cache_answers_queries_on_the_parity_shift_register() {
    let stats = run(
        &shift::parity_shift_register(6),
        Config::ric3_like().with_lemma_prediction(true),
    );
    assert!(
        stats.cached_ctis > 0,
        "no query was answered from the cache"
    );
    assert!(stats.cached_ctis <= stats.relative_queries);
}

#[test]
fn runs_of_one_configuration_give_identical_statistics() {
    let circuits = [
        shift::parity_shift_register(6),
        fifo::fifo_guarded(5, 20),
        counters::enabled_counter(5, 20),
    ];
    // A cloned `Config` shares its memory budget, so each run gets a fresh one.
    let configs: [fn() -> Config; 3] = [
        Config::ric3_like,
        || Config::ric3_like().with_lemma_prediction(true),
        || Config::ic3ref_like().with_lemma_prediction(true),
    ];
    let counters_only = |mut stats: Statistics| {
        stats.runtime = Duration::ZERO;
        stats.generalize_time = Duration::ZERO;
        stats
    };
    for aig in &circuits {
        for config in configs {
            let first = counters_only(run(aig, config()));
            let second = counters_only(run(aig, config()));
            assert_eq!(first, second);
        }
    }
}
