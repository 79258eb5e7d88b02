//! Quickstart: build a small circuit, check it with and without the paper's
//! lemma prediction, and inspect the statistics.
//!
//! Run with `cargo run --example quickstart`.

use plic3_repro::aig::AigBuilder;
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::ic3::{Config, Ic3};

fn main() {
    // A saturating 5-bit counter plus a shadow register; the bad value lies
    // above the saturation point and is therefore unreachable.
    let mut b = AigBuilder::new();
    let state = b.latches(5, Some(false));
    let shadow = b.latches(5, Some(false));
    let at_max = b.vec_equals_const(&state, 29);
    let inc = b.vec_increment(&state);
    for (s, n) in state.iter().zip(&inc) {
        let next = b.ite(at_max, *s, *n);
        b.set_latch_next(*s, next);
    }
    for (sh, s) in shadow.iter().zip(&state) {
        b.set_latch_next(*sh, *s);
    }
    let state_bad = b.vec_equals_const(&state, 31);
    let shadow_bad = b.vec_equals_const(&shadow, 31);
    let bad = b.or(state_bad, shadow_bad);
    b.add_bad(bad);
    let aig = b.build();
    println!("circuit: {aig}");

    for (label, config) in [
        ("baseline IC3        ", Config::ric3_like()),
        (
            "IC3 + lemma predict ",
            Config::ric3_like().with_lemma_prediction(true),
        ),
    ] {
        let mut engine = Ic3::from_aig(&aig, config);
        let result = engine.check();
        let stats = engine.statistics();
        print!(
            "{label}: {result}, {} relative SAT queries, {} generalizations",
            stats.relative_queries, stats.generalizations
        );
        if let Some(sr_adv) = stats.sr_adv() {
            print!(
                ", avoided dropping in {:.1}% of generalizations",
                100.0 * sr_adv
            );
        }
        println!();
        if let Some(cert) = result.certificate() {
            check_certificate(engine.ts(), cert, &CheckOptions::default())
                .expect("certificate must verify");
            println!(
                "    certificate with {} lemmas verified independently",
                cert.len()
            );
        }
    }
}
