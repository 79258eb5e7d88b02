//! Properties of the lemma-prediction optimization that must hold on every
//! instance: identical verdicts with and without prediction, internally
//! consistent statistics, and the paper's counter relationships.

use plic3_repro::benchmarks::Suite;
use plic3_repro::ic3::{Config, Ic3, Statistics};

fn run(bench: &plic3_repro::benchmarks::Benchmark, config: Config) -> (bool, Statistics) {
    let mut engine = Ic3::new(bench.ts(), config);
    let result = engine.check();
    assert!(
        !result.is_unknown(),
        "{} did not finish without limits",
        bench.name()
    );
    (result.is_safe(), *engine.statistics())
}

#[test]
fn prediction_never_changes_the_verdict() {
    for bench in &Suite::quick() {
        for base in [
            Config::ric3_like(),
            Config::ic3ref_like(),
            Config::pdr_like(),
        ] {
            let (safe_base, _) = run(bench, base.clone());
            let (safe_pl, _) = run(bench, base.with_lemma_prediction(true));
            assert_eq!(
                safe_base,
                safe_pl,
                "prediction changed the verdict on {}",
                bench.name()
            );
        }
    }
}

#[test]
fn statistics_counters_are_internally_consistent() {
    for bench in &Suite::quick() {
        let (_, stats) = run(bench, Config::ric3_like().with_lemma_prediction(true));
        // N_sp <= N_p: every successful prediction needed at least one query.
        assert!(stats.successful_predictions <= stats.predictions);
        // N_sp <= N_g and N_fp <= N_g by definition.
        assert!(stats.successful_predictions <= stats.generalizations);
        assert!(stats.found_failed_parents <= stats.generalizations);
        // Success rates, when defined, are proper ratios.
        for rate in [stats.sr_lp(), stats.sr_fp(), stats.sr_adv()]
            .into_iter()
            .flatten()
        {
            assert!(
                (0.0..=1.0).contains(&rate),
                "rate out of range on {}",
                bench.name()
            );
        }
        // Every drop attempt is a relative query, so the totals must dominate.
        assert!(stats.relative_queries >= stats.mic_drop_attempts);
        // The CTI cache answers a subset of the relative queries.
        assert!(stats.cached_ctis <= stats.relative_queries);
        // The bad-state lift removes at most every latch of each bad state.
        let num_latches = bench.ts().num_latches() as u64;
        assert!(
            stats.bad_literals_lifted <= stats.bad_states * num_latches,
            "lift removed more literals than the bad states had on {}",
            bench.name()
        );
    }
}

#[test]
fn baseline_runs_never_touch_the_prediction_counters() {
    for bench in &Suite::quick() {
        let (_, stats) = run(bench, Config::ric3_like());
        assert_eq!(stats.predictions, 0, "{}", bench.name());
        assert_eq!(stats.successful_predictions, 0, "{}", bench.name());
        assert_eq!(stats.found_failed_parents, 0, "{}", bench.name());
        // With zero prediction queries SR_lp is undefined, and SR_adv degrades
        // to 0 over however many generalizations the baseline performed.
        assert_eq!(stats.sr_lp(), None);
        assert!(matches!(stats.sr_adv(), None | Some(0.0)));
    }
}

#[test]
fn prediction_fires_and_saves_dropping_work_on_the_shift_family() {
    // The shift/parity circuits are built so that lemmas regularly fail to
    // propagate, i.e. CTPs exist and prediction has material to work with.
    // Across the family, prediction must fire and at least one instance must
    // need no more literal-drop attempts than the baseline (typically far
    // fewer) — the saving the paper is about.
    // Restrict to the small and mid-sized members of the family: the largest
    // parity instance is deliberately hard for the baseline (it is the case the
    // full experiment shows prediction winning outright) and would dominate the
    // test runtime.
    let suite = Suite::hwmcc_like().filter(|b| b.family() == "shift" && b.ts().num_latches() <= 11);
    let mut fired_somewhere = false;
    let mut saved_somewhere = false;
    for bench in &suite {
        let (_, base) = run(bench, Config::ric3_like());
        let (_, pl) = run(bench, Config::ric3_like().with_lemma_prediction(true));
        if pl.successful_predictions > 0 {
            fired_somewhere = true;
            if pl.mic_drop_attempts <= base.mic_drop_attempts {
                saved_somewhere = true;
            }
        }
    }
    assert!(
        fired_somewhere,
        "the shift family never triggered a successful prediction"
    );
    assert!(
        saved_somewhere,
        "prediction fired but never reduced the literal-dropping work"
    );
}
