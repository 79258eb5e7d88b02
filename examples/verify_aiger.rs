//! Check a circuit stored in the AIGER exchange format.
//!
//! Usage: `cargo run --example verify_aiger -- [path/to/circuit.aag]`
//!
//! Without an argument the example writes a small demonstration circuit to a
//! temporary AIGER file first, so it always has something to chew on. This is
//! exactly the pipeline an HWMCC benchmark from disk would take.

use plic3_repro::aig::{parse_aiger, AigBuilder};
use plic3_repro::check::{check_certificate, CheckOptions};
use plic3_repro::ic3::{Config, Ic3};
use plic3_repro::ts::TransitionSystem;
use std::error::Error;

fn demo_circuit_path() -> Result<std::path::PathBuf, Box<dyn Error>> {
    // A round-robin arbiter with a deliberately injected double-grant bug.
    let mut b = AigBuilder::new();
    let n = 4;
    let requests = b.inputs(n);
    let token: Vec<_> = (0..n).map(|i| b.latch(Some(i == 0))).collect();
    for i in 0..n {
        b.set_latch_next(token[i], token[(i + n - 1) % n]);
    }
    let grants: Vec<_> = (0..n)
        .map(|i| {
            let own = b.and(requests[i], token[i]);
            let stolen = b.and(requests[i], token[(i + n - 1) % n]);
            b.or(own, stolen)
        })
        .collect();
    let mut clashes = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let clash = b.and(grants[i], grants[j]);
            clashes.push(clash);
        }
    }
    let bad = b.or_many(&clashes);
    b.add_bad(bad);
    b.add_comment("demo: buggy round-robin arbiter");
    let path = std::env::temp_dir().join("plic3_demo_arbiter.aag");
    std::fs::write(&path, b.build().to_ascii())?;
    Ok(path)
}

fn main() -> Result<(), Box<dyn Error>> {
    let path = match std::env::args().nth(1) {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let path = demo_circuit_path()?;
            println!(
                "no input given, using generated demo circuit {}",
                path.display()
            );
            path
        }
    };
    let bytes = std::fs::read(&path)?;
    let aig = parse_aiger(&bytes)?;
    println!("loaded {}: {aig}", path.display());

    let ts = TransitionSystem::from_aig(&aig);
    println!("encoded transition system: {ts}");

    let config = Config::ric3_like().with_lemma_prediction(true);
    let mut engine = Ic3::new(ts, config);
    let result = engine.check();
    println!("verdict: {result}");
    match &result {
        r if r.is_safe() => {
            let cert = r.certificate().expect("safe result carries a certificate");
            check_certificate(engine.ts(), cert, &CheckOptions::default())?;
            println!("inductive invariant with {} lemmas verified", cert.len());
        }
        r if r.is_unsafe() => {
            let trace = r.trace().expect("unsafe result carries a trace");
            let ok = trace.replay_on_aig(engine.ts(), &aig);
            println!(
                "counterexample of {} steps, replay on the circuit: {}",
                trace.len(),
                if ok { "confirmed" } else { "FAILED" }
            );
            println!("{}", trace.render(engine.ts()));
        }
        _ => println!("no verdict within the configured limits"),
    }
    println!("statistics: {}", engine.statistics());
    Ok(())
}
