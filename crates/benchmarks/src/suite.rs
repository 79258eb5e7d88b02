//! The benchmark container types and the standard suites.

use crate::families;
use plic3_aig::Aig;
use plic3_ts::TransitionSystem;
use std::fmt;

/// Ground truth for a benchmark instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpectedResult {
    /// The property holds.
    Safe,
    /// The property is violated; when known by construction, `min_depth` is the
    /// length of the shortest counterexample.
    Unsafe {
        /// Length of the shortest counterexample, if known.
        min_depth: Option<usize>,
    },
}

impl ExpectedResult {
    /// Returns `true` for safe instances.
    pub fn is_safe(&self) -> bool {
        matches!(self, ExpectedResult::Safe)
    }
}

impl fmt::Display for ExpectedResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpectedResult::Safe => write!(f, "safe"),
            ExpectedResult::Unsafe { min_depth: Some(d) } => write!(f, "unsafe(depth {d})"),
            ExpectedResult::Unsafe { min_depth: None } => write!(f, "unsafe"),
        }
    }
}

/// One model-checking instance: a circuit, its identity, and its ground truth.
#[derive(Clone, Debug)]
pub struct Benchmark {
    name: String,
    family: &'static str,
    expected: ExpectedResult,
    aig: Aig,
}

impl Benchmark {
    /// Creates a benchmark instance.
    pub fn new(
        name: impl Into<String>,
        family: &'static str,
        expected: ExpectedResult,
        aig: Aig,
    ) -> Self {
        Benchmark {
            name: name.into(),
            family,
            expected,
            aig,
        }
    }

    /// Unique instance name (family plus parameters).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The family this instance belongs to.
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// The ground-truth verdict.
    pub fn expected(&self) -> ExpectedResult {
        self.expected
    }

    /// The circuit.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Encodes the whole circuit into a transition system (no preprocessing).
    pub fn ts(&self) -> TransitionSystem {
        TransitionSystem::from_aig(&self.aig)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] expected {}",
            self.name, self.family, self.expected
        )
    }
}

/// A collection of benchmark instances.
#[derive(Clone, Debug, Default)]
pub struct Suite {
    benchmarks: Vec<Benchmark>,
}

impl Suite {
    /// Creates an empty suite.
    pub fn new() -> Self {
        Suite::default()
    }

    /// The full HWMCC-style suite used by the experiment harness: every family
    /// at a range of sizes, mixing safe and unsafe instances.
    pub fn hwmcc_like() -> Self {
        let mut benchmarks = Vec::new();
        benchmarks.extend(families::counters::instances());
        benchmarks.extend(families::shift::instances());
        benchmarks.extend(families::rings::instances());
        benchmarks.extend(families::arbiter::instances());
        benchmarks.extend(families::traffic::instances());
        benchmarks.extend(families::fifo::instances());
        benchmarks.extend(families::lock::instances());
        benchmarks.extend(families::gray::instances());
        Suite { benchmarks }
    }

    /// A small subset (one small instance per family) for fast tests and
    /// Criterion benchmarks.
    pub fn quick() -> Self {
        let mut benchmarks = Vec::new();
        benchmarks.extend(families::counters::quick());
        benchmarks.extend(families::shift::quick());
        benchmarks.extend(families::rings::quick());
        benchmarks.extend(families::arbiter::quick());
        benchmarks.extend(families::traffic::quick());
        benchmarks.extend(families::fifo::quick());
        benchmarks.extend(families::lock::quick());
        benchmarks.extend(families::gray::quick());
        Suite { benchmarks }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Returns `true` if the suite has no instances.
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// Iterates over the instances.
    pub fn iter(&self) -> std::slice::Iter<'_, Benchmark> {
        self.benchmarks.iter()
    }

    /// Adds an instance.
    pub fn push(&mut self, benchmark: Benchmark) {
        self.benchmarks.push(benchmark);
    }

    /// Returns a new suite containing only instances satisfying the predicate.
    pub fn filter(&self, mut keep: impl FnMut(&Benchmark) -> bool) -> Suite {
        Suite {
            benchmarks: self
                .benchmarks
                .iter()
                .filter(|b| keep(b))
                .cloned()
                .collect(),
        }
    }

    /// Returns the number of safe / unsafe instances.
    pub fn expected_counts(&self) -> (usize, usize) {
        let safe = self
            .benchmarks
            .iter()
            .filter(|b| b.expected().is_safe())
            .count();
        (safe, self.benchmarks.len() - safe)
    }

    /// Looks an instance up by name.
    pub fn find(&self, name: &str) -> Option<&Benchmark> {
        self.benchmarks.iter().find(|b| b.name() == name)
    }
}

impl<'a> IntoIterator for &'a Suite {
    type Item = &'a Benchmark;
    type IntoIter = std::slice::Iter<'a, Benchmark>;

    fn into_iter(self) -> Self::IntoIter {
        self.benchmarks.iter()
    }
}

impl IntoIterator for Suite {
    type Item = Benchmark;
    type IntoIter = std::vec::IntoIter<Benchmark>;

    fn into_iter(self) -> Self::IntoIter {
        self.benchmarks.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn full_suite_is_large_and_mixed() {
        let suite = Suite::hwmcc_like();
        assert!(
            suite.len() >= 80,
            "suite has only {} instances",
            suite.len()
        );
        let (safe, unsafe_) = suite.expected_counts();
        assert!(safe >= 30, "too few safe instances: {safe}");
        assert!(unsafe_ >= 30, "too few unsafe instances: {unsafe_}");
    }

    #[test]
    fn names_are_unique() {
        let suite = Suite::hwmcc_like();
        let names: HashSet<&str> = suite.iter().map(Benchmark::name).collect();
        assert_eq!(names.len(), suite.len(), "duplicate benchmark names");
    }

    #[test]
    fn every_instance_is_a_valid_circuit_with_a_property() {
        for bench in Suite::hwmcc_like().iter() {
            bench.aig().validate().unwrap_or_else(|e| {
                panic!("{} produced an invalid AIG: {e}", bench.name());
            });
            assert!(
                bench.aig().property_literal().is_some(),
                "{} has no property",
                bench.name()
            );
            let ts = bench.ts();
            assert!(ts.num_latches() > 0, "{} has no state", bench.name());
        }
    }

    #[test]
    fn quick_suite_covers_every_family() {
        let quick = Suite::quick();
        let full = Suite::hwmcc_like();
        let quick_families: HashSet<&str> = quick.iter().map(Benchmark::family).collect();
        let full_families: HashSet<&str> = full.iter().map(Benchmark::family).collect();
        assert_eq!(quick_families, full_families);
    }

    #[test]
    fn filter_and_find() {
        let suite = Suite::hwmcc_like();
        let safe_only = suite.filter(|b| b.expected().is_safe());
        assert!(safe_only.len() < suite.len());
        assert!(safe_only.iter().all(|b| b.expected().is_safe()));
        let name = suite.iter().next().expect("non-empty").name().to_string();
        assert!(suite.find(&name).is_some());
        assert!(suite.find("no-such-benchmark").is_none());
    }

    #[test]
    fn display_mentions_family_and_expectation() {
        let suite = Suite::quick();
        let bench = suite.iter().next().expect("non-empty");
        let text = bench.to_string();
        assert!(text.contains(bench.family()));
        assert!(text.contains("safe") || text.contains("unsafe"));
        assert_eq!(ExpectedResult::Safe.to_string(), "safe");
        assert_eq!(
            ExpectedResult::Unsafe { min_depth: Some(3) }.to_string(),
            "unsafe(depth 3)"
        );
    }
}
