//! `plic3-perfbench`: run one workload for a fixed time and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gen-paired --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it is a `context` object: passes, quartiles, environment and source
//! identity. A wrong or unverifiable verdict, or a count that differs between
//! passes, makes the exit code 1; a usage error makes it 2.

use plic3_perfbench::cases::{Case, Workload};
use plic3_perfbench::run::{self, CaseMinima, Pass, END_TO_END, PER_LAYER};
use plic3_perfbench::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// How many times the set-up (circuit generation) is timed before each
/// measured pass; `setup_s` is the shortest of all those times.
const SETUP_REPEATS: usize = 3;

const USAGE: &str =
    "usage: plic3-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       plic3-perfbench --list
workloads: gen-paired, wide-safe, suite-breadth, bmc-deep
--smoke runs the workload's one small smoke case instead of its instances.";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let value = iter.next().ok_or(format!("{arg} needs a value"))?;
        let bad = || format!("invalid {arg} value: {value}");
        match arg.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option: {arg}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        list_cases();
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("plic3-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&options)
}

/// Prints every instance of every workload: its generator call, ground truth,
/// engine and why it is there.
fn list_cases() {
    for workload in Workload::ALL {
        for case in workload.cases() {
            println!(
                "{{\"workload\":\"{}\",\"case\":\"{}\",\"expected\":\"{}\",\"engine\":\"{:?}\",\"why\":\"{}\"}}",
                workload.name(),
                case.id,
                case.expected,
                case.engine,
                case.why
            );
        }
    }
}

fn generate(options: &Options) -> Vec<Case> {
    if options.smoke {
        vec![options.workload.smoke_case()]
    } else {
        options.workload.cases()
    }
}

/// Times one generation of the workload's circuits.
fn time_setup(options: &Options) -> f64 {
    let started = Instant::now();
    std::hint::black_box(generate(options));
    started.elapsed().as_secs_f64()
}

fn run(options: &Options) -> ExitCode {
    let cases = generate(options);
    let mut tracer = Tracer::new(false);
    // Pass 0 warms caches and the allocator: it is checked, not measured.
    let warmup = run::run_pass(&cases, options.seed, 0, &mut tracer);
    // Set-up is timed before every measured pass, so that its samples are
    // spread over the run like the cases' are.
    let mut setup_times = Vec::new();
    // A traced run alternates untraced and traced passes, so it needs two.
    let min_passes = if options.trace { 2 } else { 1 };
    let measured = run::run_passes(
        &cases,
        options.seed,
        options.seconds,
        min_passes,
        options.trace,
        &mut tracer,
        || setup_times.extend((0..SETUP_REPEATS).map(|_| time_setup(options))),
    );
    let passes: Vec<&Pass> = std::iter::once(&warmup).chain(&measured).collect();
    let Some(peak_rss_mb) = peak_rss_mb() else {
        eprintln!("plic3-perfbench: cannot read the peak resident set from /proc/self/status");
        return ExitCode::from(2);
    };

    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.wrong.clone()).collect();
    let counts = run::counts(&warmup);
    if let Some(pass) = passes.iter().position(|p| run::counts(p) != counts) {
        problems.push(format!("counts of pass {pass} differ from pass 0"));
    }
    let unknown: Vec<String> = passes.iter().flat_map(|p| p.unknown.clone()).collect();
    for problem in problems.iter().chain(&unknown) {
        eprintln!("plic3-perfbench: {problem}");
    }

    let untraced: Vec<&Pass> = measured.iter().filter(|p| !p.traced).collect();
    let untraced_cases = run::case_minima(&untraced);
    let (metrics, per_pass) = if options.trace {
        let traced: Vec<&Pass> = measured.iter().filter(|p| p.traced).collect();
        per_layer_metrics(&traced, &untraced_cases, measured.len())
    } else {
        let solved = passes.iter().map(|p| p.solved).min().unwrap_or(0);
        let per_pass = BTreeMap::from([
            (
                "solve_s",
                untraced.iter().map(|p| p.primary.wall_s).collect(),
            ),
            (
                "solve_s_base",
                untraced.iter().map(|p| p.base.wall_s).collect(),
            ),
            ("setup_s", setup_times.clone()),
        ]);
        let metrics = BTreeMap::from([
            ("solve_s", sum(&untraced_cases, |c| c.primary)),
            ("solve_s_base", sum(&untraced_cases, |c| c.base)),
            ("solved", solved as f64),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", min(&setup_times)),
        ]);
        (metrics, per_pass)
    };

    let trace_file = options.trace.then(|| {
        let path = trace_dir().join(format!(
            "trace-{}-seed{}.jsonl",
            options.workload.name(),
            options.seed
        ));
        let ids: Vec<String> = cases.iter().map(|c| c.id.clone()).collect();
        match tracer.write_jsonl(&path, options.workload.name(), &ids) {
            Ok(()) => path.display().to_string(),
            Err(err) => {
                let problem = format!("cannot write {}: {err}", path.display());
                eprintln!("plic3-perfbench: {problem}");
                problems.push(problem);
                String::new()
            }
        }
    });

    print_context(
        options,
        passes.len(),
        &per_pass,
        &cases,
        &untraced_cases,
        trace_file,
    );
    let table: &[(&str, &str)] = if options.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let failed = unknown.len() + passes.iter().map(|p| p.wrong.len()).sum::<usize>();
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        passes.len() * cases.len() * 2,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn sum(cases: &[CaseMinima], f: fn(&CaseMinima) -> f64) -> f64 {
    cases.iter().map(f).sum()
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The per-layer metrics: medians over the traced passes, plus the speed-up
/// and tracing overhead from the per-case minima. Also returns the per-pass
/// values behind the medians.
fn per_layer_metrics(
    traced: &[&Pass],
    untraced_cases: &[CaseMinima],
    passes: usize,
) -> (
    BTreeMap<&'static str, f64>,
    BTreeMap<&'static str, Vec<f64>>,
) {
    let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in traced {
        for (name, value) in run::per_layer(pass) {
            per_pass.entry(name).or_default().push(value);
        }
    }
    let mut metrics: BTreeMap<&str, f64> =
        per_pass.iter().map(|(k, v)| (*k, run::median(v))).collect();
    let traced_cases = run::case_minima(traced);
    let untraced_total = sum(untraced_cases, |c| c.primary + c.base);
    let layer_sum_s = sum(&traced_cases, |c| c.primary_spans + c.base_spans);
    metrics.extend([
        (
            "predict.speedup_vs_base",
            run::speedup_vs_base(untraced_cases),
        ),
        ("trace.layer_sum_s", layer_sum_s),
        (
            "trace.overhead",
            sum(&traced_cases, |c| c.primary + c.base) / untraced_total - 1.0,
        ),
        ("trace.accounted", layer_sum_s / untraced_total),
        ("env.nproc", nproc() as f64),
        ("env.threads", 1.0),
        ("env.passes", passes as f64),
    ]);
    (metrics, per_pass)
}

/// Prints the line before the result: what ran, on what, and the spread of
/// every per-pass metric.
fn print_context(
    options: &Options,
    passes: usize,
    per_pass: &BTreeMap<&str, Vec<f64>>,
    cases: &[Case],
    minima: &[CaseMinima],
    trace_file: Option<String>,
) {
    let per_case: Vec<String> = cases
        .iter()
        .zip(minima)
        .map(|(case, m)| {
            format!(
                "\"{}\": {{\"primary_s\": {}, \"base_s\": {}, \"speedup\": {}}}",
                case.id,
                json_number(m.primary),
                json_number(m.base),
                json_number(run::speedup(m))
            )
        })
        .collect();
    let quartiles: Vec<String> = per_pass
        .iter()
        .map(|(name, values)| {
            format!(
                "\"{name}\": {{\"p25\": {}, \"p50\": {}, \"p75\": {}, \"n\": {}, \"values\": [{}]}}",
                json_number(run::quantile(values, 0.25)),
                json_number(run::median(values)),
                json_number(run::quantile(values, 0.75)),
                values.len(),
                values.iter().map(|v| json_number(*v)).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    let (commit, source) = source_identity();
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cases\": {}, \"passes\": {}, \"nproc\": {}, \"threads\": 1, \"commit\": \"{commit}\", \"source_fnv64\": \"{source}\", \"trace_file\": \"{}\", \"per_case\": {{{}}}, \"per_pass\": {{{}}}}}}}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        cases.len(),
        passes,
        nproc(),
        trace_file.unwrap_or_default(),
        per_case.join(", "),
        quartiles.join(", ")
    );
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where traced runs write their spans: under the Cargo target directory the
/// benchmark was built into.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-traces")
}

/// The git commit of the working directory when it is a git checkout
/// (`unknown` otherwise), and an FNV-1a hash of the source files the
/// benchmark builds from, which identifies the code in either case.
fn source_identity() -> (String, String) {
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (commit, format!("{hash:016x}"))
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}
