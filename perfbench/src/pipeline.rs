//! One case from circuit to a checked verdict: prep → encode → engine →
//! independent check, each step a call into that layer's public API.

use crate::cases::{Case, Engine};
use crate::trace::{Side, Tracer};
use plic3::{CheckResult, Config, Ic3, SearchConfig, Statistics};
use plic3_benchmarks::ExpectedResult;
use plic3_bmc::{Bmc, BmcDepthStatus, KInduction, KInductionResult};
use plic3_check::{check_certificate_on_original, CheckOptions};
use plic3_prep::{Preprocessed, Preprocessor};
use plic3_ts::{Trace, TransitionSystem};
use std::time::{Duration, Instant};

/// Wall-clock budget of one IC3 run. Every case finishes well inside it; it
/// only bounds a regression that would otherwise hang the benchmark.
pub const IC3_BUDGET: Duration = Duration::from_secs(20);

/// Per-query conflict budget of the BMC and k-induction solvers, for the same
/// purpose as [`IC3_BUDGET`].
pub const BMC_CONFLICT_BUDGET: u64 = 5_000_000;

/// How a case ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The verdict matches the ground truth and its evidence checked.
    Verified,
    /// No verdict within the budget.
    Unknown(String),
    /// A wrong verdict, or evidence that failed its independent check.
    Wrong(String),
}

/// Counters read from the layers' public results after one case.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Latches of the circuits before preprocessing.
    pub latches_before: usize,
    /// Latches of the circuits after preprocessing.
    pub latches_after: usize,
    /// Variables of the encoded transition systems.
    pub ts_vars: usize,
    /// IC3 statistics (all zero for BMC and k-induction cases). [`Counters::add`]
    /// sums them, except `max_level` and `memory_used`, which keep the
    /// maximum; of the timers it keeps only `generalize_time`.
    pub ic3: Statistics,
    /// SAT queries the certificate checker discharged.
    pub cert_queries: usize,
    /// BMC depth queries answered.
    pub bmc_depths: usize,
    /// Induction depth at which k-induction closed.
    pub kind_k: usize,
}

impl Counters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.latches_before += other.latches_before;
        self.latches_after += other.latches_after;
        self.ts_vars += other.ts_vars;
        let (a, b) = (&mut self.ic3, &other.ic3);
        a.generalizations += b.generalizations;
        a.predictions += b.predictions;
        a.successful_predictions += b.successful_predictions;
        a.found_failed_parents += b.found_failed_parents;
        a.relative_queries += b.relative_queries;
        a.lift_queries += b.lift_queries;
        a.mic_drop_attempts += b.mic_drop_attempts;
        a.mic_drops += b.mic_drops;
        a.ctg_blocked += b.ctg_blocked;
        a.obligations += b.obligations;
        a.lemmas_added += b.lemmas_added;
        a.lemmas_propagated += b.lemmas_propagated;
        a.max_level = a.max_level.max(b.max_level);
        a.sat_conflicts += b.sat_conflicts;
        a.memory_used = a.memory_used.max(b.memory_used);
        a.generalize_time += b.generalize_time;
        self.cert_queries += other.cert_queries;
        self.bmc_depths += other.bmc_depths;
        self.kind_k += other.kind_k;
    }
}

/// The result of one case under one side.
#[derive(Clone, Debug)]
pub struct CaseRun {
    /// Wall time from circuit to checked verdict.
    pub wall: Duration,
    /// How the case ended.
    pub outcome: Outcome,
    /// What the layers counted.
    pub counters: Counters,
}

/// Runs `case` under `side`, timing the whole pipeline and (when the tracer
/// is on) each layer call.
pub fn run_case(case: &Case, side: Side, tracer: &mut Tracer) -> CaseRun {
    let started = Instant::now();
    let mut counters = Counters::default();
    let outcome = solve_and_check(case, side, tracer, &mut counters);
    CaseRun {
        wall: started.elapsed(),
        outcome,
        counters,
    }
}

fn solve_and_check(case: &Case, side: Side, tracer: &mut Tracer, c: &mut Counters) -> Outcome {
    let prep = tracer.span("prep", || Preprocessor::default().run(&case.aig));
    let ts = tracer.span("ts", || TransitionSystem::from_aig(&prep.aig));
    c.latches_before = prep.stats.latches_before;
    c.latches_after = prep.stats.latches_after;
    c.ts_vars = ts.num_vars();
    let search = match side {
        Side::Primary => SearchConfig::default(),
        Side::Base => SearchConfig::classic(),
    };
    match case.engine {
        Engine::Ic3 => ic3(case, side, &prep, ts, tracer, c),
        Engine::Bmc { depth } => bmc(case, depth, search, &prep, &ts, tracer, c),
        Engine::KInduction { max_k } => kind(case, max_k, search, &prep, &ts, tracer, c),
    }
}

fn ic3(
    case: &Case,
    side: Side,
    prep: &Preprocessed,
    ts: TransitionSystem,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Outcome {
    let config = Config::ric3_like()
        .with_lemma_prediction(side == Side::Primary)
        .with_max_time(IC3_BUDGET);
    let mut engine = tracer.span("ic3.new", || Ic3::new(ts, config));
    let result = tracer.span("ic3.check", || engine.check());
    c.ic3 = *engine.statistics();
    let outcome = match (&result, case.expected) {
        (CheckResult::Unknown(reason), _) => Outcome::Unknown(reason.to_string()),
        (CheckResult::Safe(cert), ExpectedResult::Safe) => {
            let checked = tracer.span("check.cert", || {
                check_certificate_on_original(
                    prep.original(),
                    &prep.reconstruction,
                    engine.ts(),
                    cert,
                    &CheckOptions::default(),
                )
            });
            match checked {
                Ok(report) => {
                    c.cert_queries = report.queries;
                    Outcome::Verified
                }
                Err(err) => Outcome::Wrong(format!("certificate rejected: {err}")),
            }
        }
        (CheckResult::Unsafe(trace), ExpectedResult::Unsafe { .. }) => {
            if tracer.span("check.replay", || {
                prep.replay_on_original(engine.ts(), trace)
            }) {
                Outcome::Verified
            } else {
                Outcome::Wrong("counterexample does not replay on the original circuit".into())
            }
        }
        (verdict, expected) => Outcome::Wrong(format!("verdict {verdict}, expected {expected}")),
    };
    tracer.span("ic3.drop", || drop(engine));
    outcome
}

/// Replays a BMC or k-induction trace on the circuit it was found on and,
/// through the preprocessing reconstruction, on the original circuit.
fn replay(
    case: &Case,
    depth: usize,
    trace: &Trace,
    prep: &Preprocessed,
    ts: &TransitionSystem,
    tracer: &mut Tracer,
) -> Outcome {
    if case.expected.is_safe() {
        return Outcome::Wrong(format!("counterexample at depth {depth} on a safe circuit"));
    }
    if let ExpectedResult::Unsafe {
        min_depth: Some(min),
    } = case.expected
    {
        if depth != min {
            return Outcome::Wrong(format!(
                "counterexample at depth {depth}, shortest is {min}"
            ));
        }
    }
    let replays = tracer.span("check.replay", || {
        trace.replay_on_aig(ts, &prep.aig) && prep.replay_on_original(ts, trace)
    });
    if replays {
        Outcome::Verified
    } else {
        Outcome::Wrong("counterexample does not replay".into())
    }
}

fn bmc(
    case: &Case,
    max_depth: usize,
    search: SearchConfig,
    prep: &Preprocessed,
    ts: &TransitionSystem,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Outcome {
    let mut bmc = tracer.span("bmc.new", || {
        let mut bmc = Bmc::new(ts);
        bmc.set_search_config(search);
        bmc.set_conflict_budget(Some(BMC_CONFLICT_BUDGET));
        bmc
    });
    for depth in 0..=max_depth {
        let status = tracer.span("bmc.depth", || bmc.check_depth_status(depth));
        c.bmc_depths += 1;
        match status {
            BmcDepthStatus::Clean => {}
            BmcDepthStatus::Unknown => return Outcome::Unknown(format!("depth {depth}")),
            BmcDepthStatus::Unsafe(trace) => return replay(case, depth, &trace, prep, ts, tracer),
        }
    }
    // No counterexample up to the bound: consistent only with a circuit whose
    // shortest counterexample (if any) is deeper.
    match case.expected {
        ExpectedResult::Safe => Outcome::Verified,
        ExpectedResult::Unsafe {
            min_depth: Some(min),
        } if min > max_depth => Outcome::Verified,
        expected => Outcome::Wrong(format!(
            "no counterexample to depth {max_depth}, expected {expected}"
        )),
    }
}

fn kind(
    case: &Case,
    max_k: usize,
    search: SearchConfig,
    prep: &Preprocessed,
    ts: &TransitionSystem,
    tracer: &mut Tracer,
    c: &mut Counters,
) -> Outcome {
    let result = tracer.span("kind.check", || {
        let mut kind = KInduction::new(ts);
        kind.set_search_config(search);
        kind.set_conflict_budget(Some(BMC_CONFLICT_BUDGET));
        kind.check(max_k)
    });
    match result {
        KInductionResult::Safe { k } if case.expected.is_safe() => {
            c.kind_k = k;
            Outcome::Verified
        }
        KInductionResult::Safe { k } => {
            Outcome::Wrong(format!("{k}-inductive, expected {}", case.expected))
        }
        KInductionResult::Unsafe { trace, depth } => replay(case, depth, &trace, prep, ts, tracer),
        KInductionResult::Unknown { bound } => {
            Outcome::Unknown(format!("not inductive up to k={bound}"))
        }
    }
}
