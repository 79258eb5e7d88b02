//! `plic3-bench-sat` — measures the SAT backend's micro-benchmarks and writes
//! a machine-readable `BENCH_sat.json`, so the perf trajectory of the solver
//! is tracked from one PR to the next.
//!
//! ```text
//! plic3-bench-sat [OPTIONS]
//!
//! Options:
//!   --out <path>      where to write the JSON report (default: BENCH_sat.json)
//!   --samples <n>     timed samples per benchmark (default: 20, or the
//!                     PLIC3_BENCH_SAMPLES environment variable; an explicit
//!                     --samples always wins)
//! ```
//!
//! Verdicts are asserted inside the measured closures: a broken solver
//! cannot masquerade as a fast one. These are synthetic CNF families, kept
//! as smoke tests of the solver; engine-level performance is measured by
//! `perfbench/`.
//!
//! ```json
//! {
//!   "schema": "plic3-bench-sat/v3",
//!   "benches": {
//!     "sat/pigeonhole_7":         { "median_ns": 1234, "min_ns": 1200, ... },
//!     "sat/propagate_chain_100k": { "median_ns": 1234, ..., "propagations_per_sec": 5.6e8 }
//!   }
//! }
//! ```

use plic3_bench::sat_workloads::{
    circuit_miter, implication_chain, incremental_activation_rounds, pigeonhole, random_3sat,
};
use plic3_bench::timing::{BenchResult, Criterion};
use plic3_sat::SatResult;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;

/// Length of the implication chain driven by the propagation bench.
const CHAIN_LEN: usize = 100_000;

/// Variables / clauses of the satisfiable-leaning random 3-CNF workload
/// (ratio ≈ 4.0, below the phase transition) and the seed range solved per
/// iteration — several instances per sample smooth out the huge per-instance
/// variance of random SAT.
const RAND_SAT: (u32, u32, std::ops::Range<u64>) = (150, 600, 10..16);

/// Variables / clauses / seed range of the unsatisfiable-leaning random
/// 3-CNF workload (ratio ≈ 4.7, above the phase transition).
const RAND_UNSAT: (u32, u32, std::ops::Range<u64>) = (110, 517, 0..6);

/// Inputs / gates / seed range of the circuit-miter workload: two copies of
/// one random AND/OR/XOR netlist over shared inputs with outputs asserted
/// to differ (always unsatisfiable).
const MITER: (u32, u32, std::ops::Range<u64>) = (32, 340, 0..4);

/// Variables / clauses / rounds / seed of the IC3-shaped incremental
/// activation-literal workload (base ratio ≈ 3.6: satisfiable, so the rounds
/// mix Sat and Unsat verdicts like real relative-induction queries).
const INCREMENTAL: (u32, u32, u32, u64) = (120, 430, 400, 21);

struct Options {
    out: PathBuf,
    samples: Option<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        out: PathBuf::from("BENCH_sat.json"),
        samples: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let value = args.next().ok_or("--out needs a path")?;
                options.out = PathBuf::from(value);
            }
            "--samples" => {
                let value = args.next().ok_or("--samples needs a value")?;
                let samples: usize = value.parse().map_err(|_| "invalid --samples value")?;
                if samples == 0 {
                    return Err("--samples must be at least 1".to_string());
                }
                options.samples = Some(samples);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(options)
}

/// Runs the chain workload once to count how many propagations one timed
/// iteration performs (the count is deterministic across iterations).
fn chain_propagations() -> u64 {
    let (mut solver, trigger) = implication_chain(CHAIN_LEN);
    let before = solver.stats().propagations;
    assert_eq!(solver.solve(&[trigger]), SatResult::Sat);
    solver.stats().propagations - before
}

/// Registers one conflict-driven workload. The workload returns a verdict
/// fingerprint (any `Eq` summary of its results); the fingerprint of an
/// unmeasured first run is pinned and asserted inside the measured closure.
fn bench_pinned<T: PartialEq + std::fmt::Debug>(
    criterion: &mut Criterion,
    name: &str,
    mut run: impl FnMut() -> T,
) {
    let expected = run();
    criterion.bench_function(&format!("sat/{name}"), |b| {
        b.iter(|| assert_eq!(black_box(run()), expected, "{name}: verdict"))
    });
}

fn render_json(results: &[BenchResult], props_per_iter: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"plic3-bench-sat/v3\",\n  \"benches\": {\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {{ \"median_ns\": {}, \"min_ns\": {}, \"mean_ns\": {}, \"samples\": {}",
            r.name,
            r.median.as_nanos(),
            r.min.as_nanos(),
            r.mean.as_nanos(),
            r.samples
        );
        if r.name.starts_with("sat/propagate_chain") && r.median.as_nanos() > 0 {
            let per_sec = props_per_iter as f64 / r.median.as_secs_f64();
            let _ = write!(out, ", \"propagations_per_sec\": {per_sec:.0}");
        }
        out.push_str(" }");
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let props_per_iter = chain_propagations();
    // An explicit --samples beats the PLIC3_BENCH_SAMPLES environment
    // override; without it the environment (or the default of 20) applies.
    let mut criterion = match options.samples {
        Some(samples) => Criterion::with_sample_size(samples),
        None => Criterion::default().sample_size(20),
    };

    bench_pinned(&mut criterion, "pigeonhole_7", || {
        let mut solver = pigeonhole(7);
        let verdict = solver.solve(&[]);
        assert_eq!(verdict, SatResult::Unsat, "pigeonhole must be unsat");
        verdict
    });
    let (sv, sc, ss) = RAND_SAT;
    bench_pinned(&mut criterion, "random3sat_sat_150v_x6", move || {
        ss.clone()
            .map(|seed| {
                let mut solver = random_3sat(sv, sc, seed);
                solver.solve(&[])
            })
            .collect::<Vec<_>>()
    });
    let (uv, uc, us) = RAND_UNSAT;
    bench_pinned(&mut criterion, "random3sat_unsat_110v_x6", move || {
        us.clone()
            .map(|seed| {
                let mut solver = random_3sat(uv, uc, seed);
                solver.solve(&[])
            })
            .collect::<Vec<_>>()
    });
    let (mi, mg, ms) = MITER;
    bench_pinned(&mut criterion, "circuit_miter_32i_340g_x4", move || {
        ms.clone()
            .map(|seed| {
                let mut solver = circuit_miter(mi, mg, seed);
                let verdict = solver.solve(&[]);
                assert_eq!(verdict, SatResult::Unsat, "a miter of equal circuits");
                verdict
            })
            .collect::<Vec<_>>()
    });
    // The incremental workload's "verdict" is the number of Sat rounds,
    // pinned the same way.
    let (iv, ic, ir, is) = INCREMENTAL;
    bench_pinned(&mut criterion, "incremental_act_400r", || {
        incremental_activation_rounds(iv, ic, ir, is)
    });
    criterion.bench_function("sat/propagate_chain_100k", |b| {
        // The solver (and its clause arena) is built once; every iteration
        // re-propagates the whole chain under the trigger assumption.
        let (mut solver, trigger) = implication_chain(CHAIN_LEN);
        b.iter(|| black_box(solver.solve(&[trigger])))
    });

    let json = render_json(criterion.results(), props_per_iter);
    if let Some(result) = criterion
        .results()
        .iter()
        .find(|r| r.name.starts_with("sat/propagate_chain"))
    {
        let per_sec = props_per_iter as f64 / result.median.as_secs_f64();
        println!("{:<40} {per_sec:.3e} propagations/s", "sat/throughput");
    }
    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("error: cannot write {:?}: {e}", options.out);
        std::process::exit(1);
    }
    eprintln!("wrote {:?}", options.out);
}
