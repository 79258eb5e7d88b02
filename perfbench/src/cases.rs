//! The four workloads and the instances each one contains.
//!
//! Every instance is named by the generator call that builds it, carries its
//! ground truth, the engine that solves it, and one sentence on why it is in
//! the workload. The seed never changes which instances a workload contains;
//! it only orders the cases within a pass (see [`crate::run`]).

use plic3_aig::Aig;
use plic3_bench::ic3_workloads::{guarded_counter, redundant_rings, redundant_unsafe_counter};
use plic3_benchmarks::families::{arbiter, counters, fifo, gray, rings, shift};
use plic3_benchmarks::{ExpectedResult, Suite};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Generalization-heavy IC3 cases, each run under RIC3-pl and RIC3.
    GenPaired,
    /// Safe circuits with many latches, where blocking, propagation and
    /// per-query overhead dominate IC3 time.
    WideSafe,
    /// The generated suite: many short cases, where fixed per-case costs
    /// (prep, encode, solver setup, checking) have their largest share.
    SuiteBreadth,
    /// Long BMC and k-induction solves, where the SAT search machinery fires.
    BmcDeep,
}

/// The engine a case is solved with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// IC3: RIC3-pl as the primary engine, RIC3 (prediction off) as the base.
    Ic3,
    /// BMC over depths `0..=depth`, stopping at the first counterexample.
    Bmc {
        /// The deepest bound checked.
        depth: usize,
    },
    /// k-induction up to `max_k`.
    KInduction {
        /// The largest induction depth tried.
        max_k: usize,
    },
}

/// One instance of a workload.
#[derive(Clone, Debug)]
pub struct Case {
    /// The generator call that builds the circuit, e.g. `token_ring(40)`.
    pub id: String,
    /// Why the instance is in its workload.
    pub why: &'static str,
    /// Ground truth by construction.
    pub expected: ExpectedResult,
    /// The engine the case is solved with.
    pub engine: Engine,
    /// The circuit.
    pub aig: Aig,
}

impl Case {
    fn new(id: impl Into<String>, why: &'static str, expected: ExpectedResult, aig: Aig) -> Self {
        Case {
            id: id.into(),
            why,
            expected,
            engine: Engine::Ic3,
            aig,
        }
    }

    fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

const SAFE: ExpectedResult = ExpectedResult::Safe;

fn unsafe_at(depth: usize) -> ExpectedResult {
    ExpectedResult::Unsafe {
        min_depth: Some(depth),
    }
}

/// Suite instances left out of `suite-breadth`. The parity instances of size
/// 10 and 12 take seconds (size 12 runs into a 5 s budget under both
/// engines), and size 8 alone would be 40% of a pass; `gen-paired` measures
/// that family instead, so the suite keeps its short cases.
const SUITE_EXCLUDED: [&str; 3] = [
    "shift_parity_safe_8",
    "shift_parity_safe_10",
    "shift_parity_safe_12",
];

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::GenPaired,
        Workload::WideSafe,
        Workload::SuiteBreadth,
        Workload::BmcDeep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenPaired => "gen-paired",
            Workload::WideSafe => "wide-safe",
            Workload::SuiteBreadth => "suite-breadth",
            Workload::BmcDeep => "bmc-deep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's circuits. This is the benchmark's set-up.
    pub fn cases(self) -> Vec<Case> {
        match self {
            Workload::GenPaired => vec![
                Case::new(
                    "parity_shift_register(8)",
                    "relational parity lemmas make generalization most of IC3 time; prediction wins",
                    SAFE,
                    shift::parity_shift_register(8),
                ),
                Case::new(
                    "parity_shift_register(7)",
                    "the next smaller parity size: the same effect on a third of the work",
                    SAFE,
                    shift::parity_shift_register(7),
                ),
                Case::new(
                    "fifo_guarded(7,100)",
                    "a case where prediction costs time, so a change that trades it for parity shows",
                    SAFE,
                    fifo::fifo_guarded(7, 100),
                ),
                Case::new(
                    "enabled_counter(9,60)",
                    "an unsafe case: generalization while IC3 builds a 60-step counterexample",
                    unsafe_at(60),
                    counters::enabled_counter(9, 60),
                ),
            ],
            Workload::WideSafe => vec![
                Case::new(
                    "gray_safe(11)",
                    "a 22-latch gray-code checker: prediction succeeds but generalizing is cheap",
                    SAFE,
                    gray::gray_safe(11),
                ),
                Case::new(
                    "round_robin(28)",
                    "a 28-client arbiter: time goes to blocking and propagation",
                    SAFE,
                    arbiter::round_robin(28),
                ),
                Case::new(
                    "token_ring(64)",
                    "a 64-cell one-hot ring: many small relative-induction queries",
                    SAFE,
                    rings::token_ring(64),
                ),
            ],
            Workload::SuiteBreadth => {
                let mut cases: Vec<Case> = Suite::hwmcc_like()
                    .into_iter()
                    .filter(|b| !SUITE_EXCLUDED.contains(&b.name()))
                    .map(|b| {
                        Case::new(
                            b.name(),
                            "a Suite::hwmcc_like() instance: breadth of families at short solve times",
                            b.expected(),
                            b.aig().clone(),
                        )
                    })
                    .collect();
                cases.push(Case::new(
                    "redundant_rings(3,7)",
                    "three copies of one ring: prep's latch merging shrinks it 3x",
                    SAFE,
                    redundant_rings(3, 7),
                ));
                cases.push(Case::new(
                    "guarded_counter(5,8)",
                    "eight stuck guard latches: prep's constant sweep removes them",
                    SAFE,
                    guarded_counter(5, 8),
                ));
                cases.push(Case::new(
                    "redundant_unsafe_counter(3,4)",
                    "an unsafe merged circuit: the trace must map back through prep's reconstruction",
                    unsafe_at(15),
                    redundant_unsafe_counter(3, 4),
                ));
                cases
            }
            Workload::BmcDeep => vec![
                Case::new(
                    "fifo_unguarded(6,40)",
                    "BMC to the 41-step counterexample: many depths, trace replay at the end",
                    unsafe_at(41),
                    fifo::fifo_unguarded(6, 40),
                )
                .with_engine(Engine::Bmc { depth: 41 }),
                Case::new(
                    "enabled_counter(8,60)",
                    "BMC to a 60-step counterexample that needs the input held high throughout",
                    unsafe_at(60),
                    counters::enabled_counter(8, 60),
                )
                .with_engine(Engine::Bmc { depth: 60 }),
                Case::new(
                    "fifo_guarded(6,50)",
                    "bounded BMC to depth 45 on a safe circuit: every depth answers UNSAT",
                    SAFE,
                    fifo::fifo_guarded(6, 50),
                )
                .with_engine(Engine::Bmc { depth: 45 }),
                Case::new(
                    "saturating_counter(9,300,400)",
                    "k-induction that closes at k = 100: base and step unrollings side by side",
                    SAFE,
                    counters::saturating_counter(9, 300, 400),
                )
                .with_engine(Engine::KInduction { max_k: 150 }),
            ],
        }
    }

    /// One small case of the workload's shape, for tests.
    pub fn smoke_case(self) -> Case {
        match self {
            Workload::GenPaired => Case::new(
                "parity_shift_register(5)",
                "smoke",
                SAFE,
                shift::parity_shift_register(5),
            ),
            Workload::WideSafe => Case::new("token_ring(8)", "smoke", SAFE, rings::token_ring(8)),
            Workload::SuiteBreadth => Case::new(
                "redundant_unsafe_counter(3,3)",
                "smoke",
                unsafe_at(7),
                redundant_unsafe_counter(3, 3),
            ),
            Workload::BmcDeep => Case::new(
                "fifo_unguarded(3,5)",
                "smoke",
                unsafe_at(6),
                fifo::fifo_unguarded(3, 5),
            )
            .with_engine(Engine::Bmc { depth: 6 }),
        }
    }
}
