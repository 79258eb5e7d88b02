//! Solver statistics.

use std::fmt;

/// Counters describing the work a [`crate::Solver`] has done so far.
///
/// Only `conflicts` reaches a report: the IC3 engine sums it over its frame
/// and lift solvers into `Statistics::sat_conflicts`. The other counters and
/// the `Display` line serve only the solver's own tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of `solve` calls.
    pub solves: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of learnt clauses removed by database reduction.
    pub removed_clauses: u64,
    /// Number of problem (non-learnt) clauses added.
    pub original_clauses: u64,
    /// Number of activation variables retired by `solve_with_clause`.
    pub released_vars: u64,
    /// Number of released variables recycled by a later `new_var`.
    pub recycled_vars: u64,
    /// Number of clause-arena compactions performed.
    pub garbage_collections: u64,
}

impl SolverStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solves={} conflicts={} decisions={} propagations={} learnt={} removed={} original={} released={} recycled={} gcs={}",
            self.solves,
            self.conflicts,
            self.decisions,
            self.propagations,
            self.learnt_clauses,
            self.removed_clauses,
            self.original_clauses,
            self.released_vars,
            self.recycled_vars,
            self.garbage_collections
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_all_counters() {
        let s = SolverStats::new().to_string();
        for key in ["solves", "conflicts", "decisions", "propagations"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
