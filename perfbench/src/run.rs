//! Passes over a workload and the metrics computed from them.
//!
//! A pass runs every case of the workload once under each side (primary and
//! base), in an order drawn from the seed and the pass number. A run repeats
//! passes for the requested time. End-to-end times are sums of per-case
//! minima over the passes ([`case_minima`]); per-layer metrics are medians
//! over the traced passes.

use crate::cases::Case;
use crate::pipeline::{run_case, Counters, Outcome};
use crate::trace::{Side, Tracer};
use plic3_logic::SplitMix64;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics, with their units, in the order they are printed.
pub const END_TO_END: [(&str, &str); 5] = [
    ("solve_s", "s"),
    ("solve_s_base", "s"),
    ("solved", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, with their units, in the order they are printed.
/// Unit `ratio` marks a ratio of counts (it repeats exactly); `share` and `x`
/// mark ratios of times.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("prep.s", "s"),
    ("prep.latch_ratio", "ratio"),
    ("ts.encode_s", "s"),
    ("ts.vars", "count"),
    ("ic3.setup_s", "s"),
    ("ic3.check_s", "s"),
    ("ic3.generalize_s", "s"),
    ("ic3.generalize_share", "share"),
    ("ic3.rest_s", "s"),
    ("ic3.queries", "count"),
    ("ic3.query_us", "us"),
    ("ic3.sat_conflicts", "count"),
    ("ic3.mic_drop_attempts", "count"),
    ("ic3.mic_drop_rate", "ratio"),
    ("ic3.ctg_blocked", "count"),
    ("ic3.obligations", "count"),
    ("ic3.lemmas_added", "count"),
    ("ic3.lemmas_propagated", "count"),
    ("ic3.max_level", "count"),
    ("ic3.memory_bytes", "bytes"),
    ("predict.queries", "count"),
    ("predict.sr_lp", "ratio"),
    ("predict.sr_fp", "ratio"),
    ("predict.sr_adv", "ratio"),
    ("predict.speedup_vs_base", "x"),
    ("check.cert_s", "s"),
    ("check.cert_queries", "count"),
    ("check.replay_s", "s"),
    ("bmc.check_s", "s"),
    ("bmc.depth_ms.p50", "ms"),
    ("bmc.depth_ms.max", "ms"),
    ("bmc.depths", "count"),
    ("kind.check_s", "s"),
    ("kind.k", "count"),
    ("base.ic3.check_s", "s"),
    ("base.ic3.generalize_s", "s"),
    ("base.ic3.queries", "count"),
    ("base.ic3.mic_drop_attempts", "count"),
    ("base.ic3.ctg_blocked", "count"),
    ("base.bmc.check_s", "s"),
    ("base.kind.check_s", "s"),
    ("trace.layer_sum_s", "s"),
    ("trace.overhead", "share"),
    ("trace.accounted", "share"),
    ("env.nproc", "count"),
    ("env.threads", "count"),
    ("env.passes", "count"),
];

/// What one side of one pass did.
#[derive(Clone, Debug, Default)]
pub struct SideTotals {
    /// Summed case wall time, in seconds.
    pub wall_s: f64,
    /// Summed counters.
    pub counters: Counters,
}

/// The result of one pass.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// The primary engine's side.
    pub primary: SideTotals,
    /// The baseline's side.
    pub base: SideTotals,
    /// Per case: wall seconds under the primary engine and under the base.
    pub case_s: Vec<(f64, f64)>,
    /// Per case: summed span seconds under each side; zero when untraced.
    pub span_s: Vec<(f64, f64)>,
    /// Cases verified under both sides.
    pub solved: usize,
    /// Case runs that ended without a verdict.
    pub unknown: Vec<String>,
    /// Case runs with a wrong or unverifiable verdict.
    pub wrong: Vec<String>,
    /// Summed span time per (layer, side); empty for untraced passes.
    pub layer_s: BTreeMap<(&'static str, Side), f64>,
    /// Durations of the primary side's BMC depth queries, in milliseconds.
    pub depth_ms: Vec<f64>,
}

impl Pass {
    fn layer(&self, layer: &str, side: Side) -> f64 {
        self.layer_s.get(&(layer, side)).copied().unwrap_or(0.0)
    }
}

/// The order of (case, side) runs in pass `pass`: a seeded shuffle, so the
/// seed decides the order but never which cases run.
pub fn pass_order(cases: usize, seed: u64, pass: usize) -> Vec<(usize, Side)> {
    let mut order: Vec<(usize, Side)> = (0..cases)
        .flat_map(|i| [(i, Side::Primary), (i, Side::Base)])
        .collect();
    let mut rng = SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one pass over `cases`, recording spans when the tracer is on.
pub fn run_pass(cases: &[Case], seed: u64, pass: usize, tracer: &mut Tracer) -> Pass {
    let first_span = tracer.spans().len();
    let mut result = Pass {
        traced: tracer.is_on(),
        primary: SideTotals::default(),
        base: SideTotals::default(),
        case_s: vec![(0.0, 0.0); cases.len()],
        span_s: vec![(0.0, 0.0); cases.len()],
        solved: 0,
        unknown: Vec::new(),
        wrong: Vec::new(),
        layer_s: BTreeMap::new(),
        depth_ms: Vec::new(),
    };
    let mut verified = vec![0usize; cases.len()];
    for (i, side) in pass_order(cases.len(), seed, pass) {
        tracer.enter(pass, i, side);
        let run = run_case(&cases[i], side, tracer);
        let wall_s = run.wall.as_secs_f64();
        let totals = match side {
            Side::Primary => {
                result.case_s[i].0 = wall_s;
                &mut result.primary
            }
            Side::Base => {
                result.case_s[i].1 = wall_s;
                &mut result.base
            }
        };
        totals.wall_s += wall_s;
        totals.counters.add(&run.counters);
        let label = format!("{} ({})", cases[i].id, side.name());
        match run.outcome {
            Outcome::Verified => verified[i] += 1,
            Outcome::Unknown(why) => result.unknown.push(format!("{label}: {why}")),
            Outcome::Wrong(why) => result.wrong.push(format!("{label}: {why}")),
        }
    }
    result.solved = verified.iter().filter(|&&v| v == 2).count();
    for span in &tracer.spans()[first_span..] {
        let seconds = span.duration.as_secs_f64();
        *result.layer_s.entry((span.layer, span.side)).or_default() += seconds;
        let case = &mut result.span_s[span.case];
        match span.side {
            Side::Primary => case.0 += seconds,
            Side::Base => case.1 += seconds,
        }
        if span.layer == "bmc.depth" && span.side == Side::Primary {
            result.depth_ms.push(span.duration.as_secs_f64() * 1e3);
        }
    }
    result
}

/// Repeats passes, numbered from 1, until `seconds` have elapsed (at least
/// `min_passes`), calling `before_each` before every pass. With
/// `alternate_tracing`, the even-numbered passes are traced.
pub fn run_passes(
    cases: &[Case],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    alternate_tracing: bool,
    tracer: &mut Tracer,
    mut before_each: impl FnMut(),
) -> Vec<Pass> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || started.elapsed() < budget {
        before_each();
        let number = passes.len() + 1;
        tracer.set_on(alternate_tracing && number % 2 == 0);
        passes.push(run_pass(cases, seed, number, tracer));
    }
    tracer.set_on(false);
    passes
}

/// Median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The shortest times of one case over a set of passes.
#[derive(Clone, Copy, Debug)]
pub struct CaseMinima {
    /// Wall seconds under the primary engine.
    pub primary: f64,
    /// Wall seconds under the base.
    pub base: f64,
    /// Summed span seconds under the primary engine.
    pub primary_spans: f64,
    /// Summed span seconds under the base.
    pub base_spans: f64,
}

/// Per case, the shortest of its times over `passes`.
///
/// The cases are deterministic, so run-to-run variation is interference
/// only: it adds time and never removes it, and the shortest of repeated runs
/// is the best estimate of a case's own cost. On a shared machine that
/// interference comes in episodes of a few seconds that slow every case by up
/// to half; a median over passes moves with the share of the run those
/// episodes cover, a minimum needs one clean run per case.
pub fn case_minima(passes: &[&Pass]) -> Vec<CaseMinima> {
    let cases = passes.first().map_or(0, |p| p.case_s.len());
    let min = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(|p| f(p)).fold(f64::INFINITY, f64::min);
    (0..cases)
        .map(|i| CaseMinima {
            primary: min(&|p| p.case_s[i].0),
            base: min(&|p| p.case_s[i].1),
            primary_spans: min(&|p| p.span_s[i].0),
            base_spans: min(&|p| p.span_s[i].1),
        })
        .collect()
}

/// The counts of one pass that must repeat exactly from run to run.
pub fn counts(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let c = &pass.primary.counters;
    let b = &pass.base.counters;
    let s = &c.ic3;
    BTreeMap::from([
        ("ts.vars", c.ts_vars as f64),
        ("ic3.queries", (s.relative_queries + s.lift_queries) as f64),
        ("ic3.sat_conflicts", s.sat_conflicts as f64),
        ("ic3.mic_drop_attempts", s.mic_drop_attempts as f64),
        ("ic3.ctg_blocked", s.ctg_blocked as f64),
        ("ic3.obligations", s.obligations as f64),
        ("ic3.lemmas_added", s.lemmas_added as f64),
        ("ic3.lemmas_propagated", s.lemmas_propagated as f64),
        ("ic3.max_level", s.max_level as f64),
        ("ic3.memory_bytes", s.memory_used as f64),
        ("predict.queries", s.predictions as f64),
        ("check.cert_queries", c.cert_queries as f64),
        ("bmc.depths", c.bmc_depths as f64),
        ("kind.k", c.kind_k as f64),
        (
            "base.ic3.queries",
            (b.ic3.relative_queries + b.ic3.lift_queries) as f64,
        ),
        ("base.ic3.mic_drop_attempts", b.ic3.mic_drop_attempts as f64),
        ("base.ic3.ctg_blocked", b.ic3.ctg_blocked as f64),
    ])
}

/// The per-layer metrics of one traced pass: [`counts`], the rates derived
/// from them, and the layer times taken from the pass's spans.
pub fn per_layer(pass: &Pass) -> BTreeMap<&'static str, f64> {
    let c = &pass.primary.counters;
    let b = &pass.base.counters;
    let s = &c.ic3;
    let p = Side::Primary;
    let check_s = pass.layer("ic3.check", p);
    let generalize_s = s.generalize_time.as_secs_f64();
    let queries = (s.relative_queries + s.lift_queries) as f64;
    let mut m = counts(pass);
    m.extend([
        ("prep.s", pass.layer("prep", p)),
        (
            "prep.latch_ratio",
            ratio(c.latches_after as f64, c.latches_before as f64),
        ),
        ("ts.encode_s", pass.layer("ts", p)),
        (
            "ic3.setup_s",
            pass.layer("ic3.new", p) + pass.layer("ic3.drop", p),
        ),
        ("ic3.check_s", check_s),
        ("ic3.generalize_s", generalize_s),
        ("ic3.generalize_share", ratio(generalize_s, check_s)),
        ("ic3.rest_s", (check_s - generalize_s).max(0.0)),
        ("ic3.query_us", ratio(check_s * 1e6, queries)),
        (
            "ic3.mic_drop_rate",
            ratio(s.mic_drops as f64, s.mic_drop_attempts as f64),
        ),
        (
            "predict.sr_lp",
            ratio(s.successful_predictions as f64, s.predictions as f64),
        ),
        (
            "predict.sr_fp",
            ratio(s.found_failed_parents as f64, s.generalizations as f64),
        ),
        (
            "predict.sr_adv",
            ratio(s.successful_predictions as f64, s.generalizations as f64),
        ),
        ("check.cert_s", pass.layer("check.cert", p)),
        ("check.replay_s", pass.layer("check.replay", p)),
        (
            "bmc.check_s",
            pass.layer("bmc.new", p) + pass.layer("bmc.depth", p),
        ),
        ("bmc.depth_ms.p50", median(&pass.depth_ms)),
        (
            "bmc.depth_ms.max",
            pass.depth_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("kind.check_s", pass.layer("kind.check", p)),
        ("base.ic3.check_s", pass.layer("ic3.check", Side::Base)),
        ("base.ic3.generalize_s", b.ic3.generalize_time.as_secs_f64()),
        (
            "base.bmc.check_s",
            pass.layer("bmc.new", Side::Base) + pass.layer("bmc.depth", Side::Base),
        ),
        ("base.kind.check_s", pass.layer("kind.check", Side::Base)),
    ]);
    m
}

/// Base time / primary time of one case.
pub fn speedup(case: &CaseMinima) -> f64 {
    case.base / case.primary
}

/// The geometric mean of [`speedup`] over cases.
pub fn speedup_vs_base(cases: &[CaseMinima]) -> f64 {
    let logs: Vec<f64> = cases.iter().map(|c| speedup(c).ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}
