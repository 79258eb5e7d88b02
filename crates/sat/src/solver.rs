//! The CDCL search engine.
//!
//! The solver stores every clause inline in a flat [`ClauseArena`] (see
//! `arena.rs`) and keeps its hot paths — [`Solver::solve`]'s propagation,
//! conflict analysis, and assumption-core extraction — free of heap
//! allocations in steady state: all intermediate literal sets live in scratch
//! buffers owned by the solver and reused across conflicts.

use crate::arena::{ClauseArena, ClauseRef};
use crate::budget::ResourceBudget;
use crate::fault::FaultSite;
use crate::heap::ActivityHeap;
use crate::proof::{Proof, ProofRecorder};
use crate::stats::SolverStats;
use plic3_logic::{Clause, Lit, Var};
use std::fmt;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::model`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; the subset of
    /// assumptions used is available from [`Solver::unsat_core`].
    Unsat,
    /// The conflict budget was exhausted before a verdict was reached.
    Unknown,
}

impl fmt::Display for SatResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatResult::Sat => write!(f, "sat"),
            SatResult::Unsat => write!(f, "unsat"),
            SatResult::Unknown => write!(f, "unknown"),
        }
    }
}

/// The search loop's configuration, which has nothing left to configure.
///
/// The solver runs a single search without restarts: VSIDS decisions, phase
/// saving, and LBD-ranked learnt-clause database reduction. This field-less type
/// and its two constructors, which return the same value, remain so that
/// callers written against the earlier configurable search keep compiling;
/// every setter that accepts one ignores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SearchConfig;

impl SearchConfig {
    /// The one search, identical to [`SearchConfig::default`].
    pub fn classic() -> Self {
        SearchConfig
    }
}

const NO_REASON: ClauseRef = u32::MAX;

// Packed ternary assignment values ("lbool"): a variable's value is one byte,
// and a literal is evaluated by XOR-ing the variable value with the literal's
// sign bit. `2` (and the `2 ^ 1 = 3` the XOR can produce) means unassigned, so
// "is unassigned" is the single comparison `>= L_UNDEF`.
const L_TRUE: u8 = 0;
const L_FALSE: u8 = 1;
const L_UNDEF: u8 = 2;

/// Learnt clauses with an LBD at or below this are "glue" clauses and are
/// never removed by database reduction (Glucose's invariant).
const GLUE_LBD: u32 = 2;

/// Released variables are reclaimed eagerly once this many are pending, even
/// when the propagation-amortized simplification budget has not been reached.
const RELEASE_BATCH: usize = 64;

/// Multiplicative decay applied to variable activities after each conflict
/// (MiniSat 2.2's default).
const VAR_DECAY: f64 = 0.95;

/// The learnt database is reduced once it holds more clauses than the larger
/// of this floor and a third of the problem clauses (MiniSat's
/// `learntsize_factor`).
const MIN_LEARNTS: usize = 400;

/// Polarity a variable takes when it is first picked as a decision.
const DEFAULT_POLARITY: bool = false;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

#[derive(Clone, Copy, Debug)]
struct VarData {
    level: u32,
    reason: ClauseRef,
}

impl Default for VarData {
    fn default() -> Self {
        VarData {
            level: 0,
            reason: NO_REASON,
        }
    }
}

/// An incremental CDCL SAT solver with assumptions and assumption cores.
///
/// See the [crate-level documentation](crate) for an example. Clauses may only
/// be added between `solve` calls (the solver returns to decision level zero
/// after every call).
pub struct Solver {
    // Clause storage: one flat arena, plus the problem/learnt reference lists.
    arena: ClauseArena,
    clauses: Vec<ClauseRef>,
    learnts: Vec<ClauseRef>,
    // Watch lists indexed by literal code.
    watches: Vec<Vec<Watcher>>,
    // Current values, reasons and levels, and the trail.
    assigns: Vec<u8>,
    vardata: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Decision heuristic.
    activity: Vec<f64>,
    var_inc: f64,
    order_heap: ActivityHeap,
    // Decision eligibility: `pick_branch_lit` only branches on variables
    // marked here (see `Solver::set_decision_var`).
    decision: Vec<bool>,
    // Saved phases: the last asserted polarity of every variable.
    polarity: Vec<bool>,
    // Conflict-analysis scratch buffers (reused across conflicts so that the
    // hot path performs no heap allocation in steady state).
    seen: Vec<bool>,
    learnt_scratch: Vec<Lit>,
    toclear_scratch: Vec<Lit>,
    add_scratch: Vec<Lit>,
    // LBD computation: one stamp slot per decision level.
    level_stamp: Vec<u64>,
    stamp: u64,
    // Released-variable recycling.
    released_vars: Vec<Var>,
    free_vars: Vec<Var>,
    free_mark: Vec<bool>,
    simplify_mark: usize,
    simplify_props_mark: u64,
    // Solver status.
    ok: bool,
    assumptions: Vec<Lit>,
    conflict_core: Vec<Lit>,
    model: Vec<u8>,
    conflict_budget: Option<u64>,
    budget: ResourceBudget,
    /// Arena bytes currently charged against `budget` (capacity snapshot).
    arena_charged: u64,
    proof: ProofRecorder,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_clauses", &self.num_clauses())
            .field("ok", &self.ok)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A copy of `v` with `v`'s capacity, not just its length.
pub(crate) fn clone_at_capacity<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut copy = Vec::with_capacity(v.capacity());
    copy.extend_from_slice(v);
    copy
}

/// Copies the solver in its current state: clauses in their watch order,
/// assignments, activities and heap order, saved phases, retired and free
/// variables, and [`SolverStats`], so the copy answers every later call as
/// the original would. A solver that has never been solved is copied to the
/// state that re-adding its clauses would rebuild.
///
/// Every buffer keeps the original's capacity, not just its length: a copy
/// at exact length would reallocate every per-variable array at the first
/// variable it adds. The copy shares the original's [`ResourceBudget`] and
/// charges it for its own clause arena.
impl Clone for Solver {
    fn clone(&self) -> Self {
        let arena = self.arena.clone();
        let arena_charged = arena.capacity_bytes();
        self.budget.charge(arena_charged);
        let mut watches = Vec::with_capacity(self.watches.capacity());
        watches.extend(self.watches.iter().map(clone_at_capacity));
        Solver {
            arena,
            clauses: clone_at_capacity(&self.clauses),
            learnts: clone_at_capacity(&self.learnts),
            watches,
            assigns: clone_at_capacity(&self.assigns),
            vardata: clone_at_capacity(&self.vardata),
            trail: clone_at_capacity(&self.trail),
            trail_lim: clone_at_capacity(&self.trail_lim),
            qhead: self.qhead,
            activity: clone_at_capacity(&self.activity),
            var_inc: self.var_inc,
            order_heap: self.order_heap.clone(),
            decision: clone_at_capacity(&self.decision),
            polarity: clone_at_capacity(&self.polarity),
            seen: clone_at_capacity(&self.seen),
            learnt_scratch: clone_at_capacity(&self.learnt_scratch),
            toclear_scratch: clone_at_capacity(&self.toclear_scratch),
            add_scratch: clone_at_capacity(&self.add_scratch),
            level_stamp: clone_at_capacity(&self.level_stamp),
            stamp: self.stamp,
            released_vars: clone_at_capacity(&self.released_vars),
            free_vars: clone_at_capacity(&self.free_vars),
            free_mark: clone_at_capacity(&self.free_mark),
            simplify_mark: self.simplify_mark,
            simplify_props_mark: self.simplify_props_mark,
            ok: self.ok,
            assumptions: clone_at_capacity(&self.assumptions),
            conflict_core: clone_at_capacity(&self.conflict_core),
            model: clone_at_capacity(&self.model),
            conflict_budget: self.conflict_budget,
            budget: self.budget.clone(),
            arena_charged,
            proof: self.proof.clone(),
            stats: self.stats,
        }
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order_heap: ActivityHeap::new(),
            decision: Vec::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            learnt_scratch: Vec::new(),
            toclear_scratch: Vec::new(),
            add_scratch: Vec::new(),
            level_stamp: vec![0],
            stamp: 0,
            released_vars: Vec::new(),
            free_vars: Vec::new(),
            free_mark: Vec::new(),
            simplify_mark: 0,
            simplify_props_mark: 0,
            ok: true,
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            model: Vec::new(),
            conflict_budget: None,
            budget: ResourceBudget::unlimited(),
            arena_charged: 0,
            proof: ProofRecorder::default(),
            stats: SolverStats::new(),
        }
    }

    // ------------------------------------------------------------------
    // Variables and clauses
    // ------------------------------------------------------------------

    /// Allocates a variable and returns it, preferring to recycle the
    /// activation variable of an earlier [`Solver::solve_with_clause`] call.
    /// The variable is a decision variable, recycled or not.
    pub fn new_var(&mut self) -> Var {
        if let Some(v) = self.free_vars.pop() {
            let i = v.index();
            debug_assert!(self.assigns[i] >= L_UNDEF);
            self.free_mark[i] = false;
            self.decision[i] = true;
            self.activity[i] = 0.0;
            self.polarity[i] = DEFAULT_POLARITY;
            self.vardata[i] = VarData::default();
            // The variable may still sit in the heap, positioned by its stale
            // pre-release activity; sift it down to match the reset.
            self.order_heap.decreased(i, &self.activity);
            self.order_heap.insert(i, &self.activity);
            self.stats.recycled_vars += 1;
            return v;
        }
        self.fresh_var()
    }

    fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.assigns.push(L_UNDEF);
        self.vardata.push(VarData::default());
        self.activity.push(0.0);
        self.polarity.push(DEFAULT_POLARITY);
        self.decision.push(true);
        self.seen.push(false);
        self.free_mark.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order_heap.grow_to(self.assigns.len());
        self.order_heap.insert(v.index(), &self.activity);
        v
    }

    /// Ensures that variables `0..n` exist (never recycles released ones).
    pub fn ensure_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.fresh_var();
        }
    }

    /// Ensures that `var` exists.
    fn ensure_var(&mut self, var: Var) {
        self.ensure_vars(var.index() + 1);
    }

    /// Makes `var` eligible (`true`, the default) or ineligible (`false`) as
    /// a decision variable, creating it if needed.
    ///
    /// The search never branches on an ineligible variable: it gets a value
    /// only from an assumption or from propagation. A [`SatResult::Sat`]
    /// answer therefore means that every decision variable is assigned and
    /// propagation found no conflict. Ineligible variables that nothing
    /// forces stay unassigned ([`ModelView::value`] returns `None`), so
    /// the model may leave a clause without a true literal. Restricting
    /// decisions is sound when the decision variables functionally determine
    /// the rest, as the inputs of a Tseitin-encoded circuit determine its
    /// gates: then propagation assigns every variable and the model is total.
    pub fn set_decision_var(&mut self, var: Var, eligible: bool) {
        self.ensure_var(var);
        let v = var.index();
        self.decision[v] = eligible;
        if eligible && self.assigns[v] >= L_UNDEF {
            self.order_heap.insert(v, &self.activity);
        }
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of problem (non-learnt, non-deleted) clauses.
    fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|&&c| !self.arena.is_deleted(c))
            .count()
    }

    /// Returns solver statistics collected so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Caps the number of conflicts a single [`Solver::solve`] call may use;
    /// `None` removes the cap. When the budget is exhausted `solve` returns
    /// [`SatResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs the run's shared [`ResourceBudget`]. The solver charges it
    /// for its clause-arena storage, fires its fault plan's faults, and polls
    /// it inside the search loop (its deadline at each conflict): once the run
    /// is stopped (cancelled, possibly from another thread, past its deadline
    /// or out of memory), the current and every future
    /// [`Solver::solve`] call returns [`SatResult::Unknown`] promptly. The
    /// caller reads the cause from its own clone of the budget.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        // Move the already-reserved arena storage onto the new budget so a
        // solver rebuilt mid-run keeps honest accounting.
        self.budget.uncharge(self.arena_charged);
        budget.charge(self.arena_charged);
        self.budget = budget;
    }

    /// Turns on DRAT proof tracing for this solver. Returns `true` when the
    /// tracer is compiled in (the `proof-log` feature) and recording actually
    /// starts; without the feature this is a no-op returning `false`.
    ///
    /// Call this on a **fresh** solver, before any clause is added: the proof
    /// only covers activity after this call, so enabling late yields a trace
    /// whose input lines are incomplete and uncheckable.
    pub fn enable_proof_tracing(&mut self) -> bool {
        self.proof.enable()
    }

    /// The DRAT proof recorded so far, or `None` when tracing was never
    /// enabled (or is compiled out). The trace spans all `solve` calls made
    /// since [`Solver::enable_proof_tracing`].
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.proof()
    }

    /// Re-syncs the arena storage charge after the arena grew or shrank.
    fn sync_arena_charge(&mut self) {
        let now = self.arena.capacity_bytes();
        if now > self.arena_charged {
            self.budget.charge(now - self.arena_charged);
        } else {
            self.budget.uncharge(self.arena_charged - now);
        }
        self.arena_charged = now;
    }

    /// Adds a clause given as an iterator of literals.
    ///
    /// Returns `false` if the clause database became unsatisfiable at the top
    /// level (in which case future `solve` calls return `Unsat` immediately).
    ///
    /// Variables mentioned by the clause are created on demand.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        let mut tmp = std::mem::take(&mut self.add_scratch);
        tmp.clear();
        tmp.extend(lits);
        let result = self.add_clause_inner(&mut tmp);
        self.add_scratch = tmp;
        result
    }

    fn add_clause_inner(&mut self, lits: &mut Vec<Lit>) -> bool {
        if let Some(max) = lits.iter().map(|l| l.var().index()).max() {
            self.ensure_vars(max + 1);
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautologies and clauses already satisfied at the top level are
        // dropped without ever entering the database, so they are not traced
        // either: the proof describes exactly the clauses the solver reasons
        // with.
        let traced: Option<Vec<Lit>> = if self.proof.is_active() {
            Some(lits.clone())
        } else {
            None
        };
        // Simplify in place: drop level-0-false literals, detect tautologies
        // and clauses already satisfied at the top level.
        let mut kept = 0;
        let mut prev: Option<Lit> = None;
        let mut i = 0;
        while i < lits.len() {
            let l = lits[i];
            i += 1;
            if let Some(p) = prev {
                if p.var() == l.var() {
                    // p and l are the two polarities of the same var: tautology.
                    return true;
                }
            }
            prev = Some(l);
            let value = self.lit_value(l);
            if value == L_TRUE {
                return true;
            }
            // Only drop literals that are false at level 0.
            if value == L_FALSE && self.vardata[l.var().index()].level == 0 {
                continue;
            }
            lits[kept] = l;
            kept += 1;
        }
        lits.truncate(kept);
        self.stats.original_clauses += 1;
        if let Some(original) = traced {
            self.proof.input(&original);
            if lits.len() != original.len() {
                // Level-0-false literals were dropped: the shortened clause is
                // a derived consequence (RUP via the root-level units).
                self.proof.add(lits);
            }
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], NO_REASON);
                self.ok = self.propagate().is_none();
                if !self.ok && self.proof.is_active() {
                    self.proof.add(&[]);
                }
                self.ok
            }
            _ => {
                let cref = self.attach_clause(lits);
                self.clauses.push(cref);
                true
            }
        }
    }

    /// Adds a [`Clause`] by reference. See [`Solver::add_clause`].
    pub fn add_clause_ref(&mut self, clause: &Clause) -> bool {
        self.add_clause(clause.iter())
    }

    fn attach_clause(&mut self, lits: &[Lit]) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits);
        self.watches[(!lits[0]).code()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        self.sync_arena_charge();
        cref
    }

    /// Marks a clause deleted. Its watchers are dropped lazily the next time
    /// propagation walks over them (or wholesale by garbage collection), so
    /// deletion is O(1) instead of O(|watch list|).
    fn delete_clause(&mut self, cref: ClauseRef) {
        if self.clause_is_locked(cref) {
            // Only clauses satisfied at level 0 are deleted while locked; the
            // implied literal keeps its level-0 assignment without a reason.
            // Such deletions are kept out of the proof (drat-trim convention):
            // the solver goes on using the implied literal, so the checker
            // must keep its reason clause available too.
            let first = self.arena.lit(cref, 0);
            self.vardata[first.var().index()].reason = NO_REASON;
        } else if self.proof.is_active() {
            let lits: Vec<Lit> = (0..self.arena.len(cref))
                .map(|i| self.arena.lit(cref, i))
                .collect();
            self.proof.delete(&lits);
        }
        self.arena.delete(cref);
    }

    // ------------------------------------------------------------------
    // Released variables and top-level simplification
    // ------------------------------------------------------------------

    /// Retires a variable: asserts `lit` at the top level and schedules the
    /// variable for recycling by a future [`Solver::new_var`] once
    /// `simplify_inner` has removed every clause `lit` satisfies.
    ///
    /// `lit` must satisfy every clause containing the variable, which is never
    /// used again: `solve_with_clause`'s activation variable occurs only as
    /// `lit` in its one clause, and is only ever assumed as `!lit`.
    fn release_var(&mut self, lit: Lit) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(
            !self.free_mark[lit.var().index()],
            "variable released twice"
        );
        self.stats.released_vars += 1;
        self.free_mark[lit.var().index()] = true;
        self.released_vars.push(lit.var());
        self.add_clause([lit]);
    }

    /// Removes clauses satisfied at the top level and recycles released
    /// variables. Returns `false` if the database is unsatisfiable.
    ///
    /// Every `solve` runs this unforced: the full database scan is only paid
    /// once enough propagation work has happened to amortize it (or once a
    /// batch of released variables is pending). `force` pays it now.
    fn simplify_inner(&mut self, force: bool) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            if self.proof.is_active() {
                self.proof.add(&[]);
            }
            return false;
        }
        if self.trail.len() == self.simplify_mark && self.released_vars.is_empty() {
            return true;
        }
        if !force {
            let amortized =
                self.stats.propagations - self.simplify_props_mark >= 4 * self.arena.words() as u64;
            if !amortized && self.released_vars.len() < RELEASE_BATCH {
                return true;
            }
        }
        self.remove_satisfied(true);
        self.remove_satisfied(false);
        if !self.released_vars.is_empty() {
            // Every clause containing a released variable was just removed as
            // satisfied, so the variable can be scrubbed from the trail and
            // reused as if fresh.
            let mut kept = 0;
            let mut i = 0;
            while i < self.trail.len() {
                let lit = self.trail[i];
                i += 1;
                if self.free_mark[lit.var().index()] {
                    continue;
                }
                self.trail[kept] = lit;
                kept += 1;
            }
            self.trail.truncate(kept);
            while let Some(v) = self.released_vars.pop() {
                self.assigns[v.index()] = L_UNDEF;
                self.vardata[v.index()] = VarData::default();
                self.free_vars.push(v);
            }
        }
        self.qhead = self.trail.len();
        self.simplify_mark = self.trail.len();
        self.simplify_props_mark = self.stats.propagations;
        self.check_garbage();
        true
    }

    fn remove_satisfied(&mut self, learnt_list: bool) {
        let mut list = std::mem::take(if learnt_list {
            &mut self.learnts
        } else {
            &mut self.clauses
        });
        let mut kept = 0;
        let mut i = 0;
        while i < list.len() {
            let cref = list[i];
            i += 1;
            if self.arena.is_deleted(cref) {
                continue;
            }
            if self.clause_is_satisfied(cref) {
                self.delete_clause(cref);
            } else {
                list[kept] = cref;
                kept += 1;
            }
        }
        list.truncate(kept);
        if learnt_list {
            self.stats.learnt_clauses = list.len() as u64;
            self.learnts = list;
        } else {
            self.clauses = list;
        }
    }

    fn clause_is_satisfied(&self, cref: ClauseRef) -> bool {
        (0..self.arena.len(cref)).any(|i| self.lit_value(self.arena.lit(cref, i)) == L_TRUE)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Compacts the clause arena when at least 20% of it is wasted by deleted
    /// clauses, patching every stored [`ClauseRef`] (clause lists, trail
    /// reasons) and rebuilding the watch lists.
    fn check_garbage(&mut self) {
        if self.arena.words() > 1024 && self.arena.wasted() * 5 > self.arena.words() {
            self.budget.poll_fault(FaultSite::ArenaGc);
            self.garbage_collect();
        }
    }

    fn garbage_collect(&mut self) {
        let arena = &self.arena;
        self.clauses.retain(|&c| !arena.is_deleted(c));
        self.learnts.retain(|&c| !arena.is_deleted(c));
        let (compact, reloc) = std::mem::take(&mut self.arena).garbage_collect();
        self.arena = compact;
        for cref in self.clauses.iter_mut().chain(self.learnts.iter_mut()) {
            *cref = reloc.map(*cref);
        }
        // Only assigned variables carry reasons, and locked clauses are never
        // deleted (deletion clears the reason), so every reason relocates.
        for &lit in &self.trail {
            let vd = &mut self.vardata[lit.var().index()];
            if vd.reason != NO_REASON {
                vd.reason = reloc.map(vd.reason);
            }
        }
        for ws in &mut self.watches {
            ws.clear();
        }
        let mut i = 0;
        while i < self.clauses.len() {
            let cref = self.clauses[i];
            self.attach_watchers(cref);
            i += 1;
        }
        let mut i = 0;
        while i < self.learnts.len() {
            let cref = self.learnts[i];
            self.attach_watchers(cref);
            i += 1;
        }
        self.sync_arena_charge();
        self.stats.garbage_collections += 1;
    }

    fn attach_watchers(&mut self, cref: ClauseRef) {
        let l0 = self.arena.lit(cref, 0);
        let l1 = self.arena.lit(cref, 1);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    // ------------------------------------------------------------------
    // Values and models
    // ------------------------------------------------------------------

    /// Evaluates `lit` under the current assignment: [`L_TRUE`], [`L_FALSE`],
    /// or `>= L_UNDEF` when the variable is unassigned (sign-XOR evaluation —
    /// no branch, no `Option`).
    #[inline]
    fn lit_value(&self, lit: Lit) -> u8 {
        self.assigns[lit.var().index()] ^ lit.is_neg() as u8
    }

    /// A borrowed view of the most recent satisfying model: each read is one
    /// index into the packed buffer, so take the view once and read every
    /// variable through it. After a call that was not `Sat` it is empty and
    /// every read is `None`.
    pub fn model(&self) -> ModelView<'_> {
        ModelView {
            values: &self.model,
        }
    }

    /// The subset of the last `solve` call's assumptions that were used to
    /// derive unsatisfiability (only meaningful after [`SatResult::Unsat`]).
    ///
    /// The conjunction of these assumption literals together with the clause
    /// database is unsatisfiable. The slice is sorted.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Returns `true` if `lit` is in the unsat core of the last `solve` call.
    pub fn core_contains(&self, lit: Lit) -> bool {
        // The core is kept sorted (see `analyze_final`), so membership is a
        // binary search instead of a linear scan.
        self.conflict_core.binary_search(&lit).is_ok()
    }

    // ------------------------------------------------------------------
    // Trail management
    // ------------------------------------------------------------------

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
        // Keep one LBD stamp slot per decision level ever reached. Levels are
        // not bounded by the variable count: an already-satisfied (e.g.
        // duplicate) assumption opens a decision level without assigning
        // anything, so the slot is grown here rather than in `fresh_var`.
        if self.level_stamp.len() <= self.trail_lim.len() {
            self.level_stamp.push(0);
        }
    }

    fn unchecked_enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        let v = lit.var().index();
        debug_assert!(self.assigns[v] >= L_UNDEF);
        self.assigns[v] = lit.is_neg() as u8;
        self.vardata[v] = VarData {
            level: self.decision_level(),
            reason,
        };
        self.trail.push(lit);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            self.polarity[v] = lit.asserted_value();
            self.assigns[v] = L_UNDEF;
            self.vardata[v].reason = NO_REASON;
            // Assigned variables stay in the heap unless a decision popped
            // them, so this insert is usually just its membership test.
            if self.decision[v] {
                self.order_heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    fn propagate(&mut self) -> Option<ClauseRef> {
        self.budget.poll_fault(FaultSite::Propagate);
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Clauses watching ¬p (which just became false) must be inspected;
            // by the attach convention they live in the list indexed by `p`.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut kept = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                let blocker_value = self.lit_value(w.blocker);
                if blocker_value == L_TRUE {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.cref;
                // One header read gives the length and the deleted flag;
                // watchers of deleted clauses are dropped lazily here.
                let (clause_len, deleted) = self.arena.len_and_deleted(cref);
                if deleted {
                    continue;
                }
                // Normalize so that position 1 holds the falsified watch.
                let l0 = self.arena.lit(cref, 0);
                let first = if l0 == false_lit {
                    let l1 = self.arena.lit(cref, 1);
                    self.arena.swap_lits(cref, 0, 1);
                    l1
                } else {
                    l0
                };
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                if clause_len == 2 {
                    // Binary fast path: `first` is the only other literal and
                    // is always the blocker, whose value we already know — the
                    // clause is unit or conflicting, never re-watched.
                    debug_assert_eq!(first, w.blocker);
                    ws[kept] = w;
                    kept += 1;
                    if blocker_value == L_FALSE {
                        while i < ws.len() {
                            ws[kept] = ws[i];
                            kept += 1;
                            i += 1;
                        }
                        conflict = Some(cref);
                        self.qhead = self.trail.len();
                    } else {
                        self.unchecked_enqueue(first, cref);
                    }
                    continue;
                }
                if first != w.blocker && self.lit_value(first) == L_TRUE {
                    ws[kept] = Watcher {
                        cref,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..clause_len {
                    if self.lit_value(self.arena.lit(cref, k)) != L_FALSE {
                        self.arena.swap_lits(cref, 1, k);
                        let new_watch = self.arena.lit(cref, 1);
                        self.watches[(!new_watch).code()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[kept] = Watcher {
                    cref,
                    blocker: first,
                };
                kept += 1;
                if self.lit_value(first) == L_FALSE {
                    // Conflict: keep the remaining watchers and stop.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            ws.truncate(kept);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Fills `self.learnt_scratch` with the
    /// learnt clause (asserting literal at index 0, second watch at index 1)
    /// and returns the backtrack level and the clause's LBD. Allocation-free:
    /// the clause is built in reusable scratch buffers, and antecedent
    /// literals are read straight out of the arena by index.
    fn analyze(&mut self, mut confl: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_scratch);
        learnt.clear();
        learnt.push(Lit::pos(Var::new(0))); // placeholder for the UIP
        let mut path_c: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
                let v = q.var().index();
                if !self.seen[v] && self.vardata[v].level > 0 {
                    self.bump_var_activity(q.var());
                    self.seen[v] = true;
                    if self.vardata[v].level >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.vardata[pl.var().index()].reason;
            debug_assert_ne!(confl, NO_REASON);
        }

        // Basic clause minimization: drop literals implied by the rest. The
        // pre-minimization clause is parked in `toclear_scratch` so the seen
        // flags of removed literals can still be cleared afterwards.
        let mut toclear = std::mem::take(&mut self.toclear_scratch);
        toclear.clear();
        toclear.extend_from_slice(&learnt);
        let mut kept = 1;
        let mut i = 1;
        while i < learnt.len() {
            if !self.literal_is_redundant(learnt[i]) {
                learnt[kept] = learnt[i];
                kept += 1;
            }
            i += 1;
        }
        learnt.truncate(kept);
        for &l in &toclear {
            self.seen[l.var().index()] = false;
        }
        self.toclear_scratch = toclear;

        // Compute backtrack level and move the second-highest-level literal to
        // position 1 so that it is watched after the backjump.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.vardata[learnt[i].var().index()].level
                    > self.vardata[learnt[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.vardata[learnt[1].var().index()].level
        };

        // LBD: number of distinct decision levels in the learnt clause,
        // counted with a per-level stamp (no clearing pass needed).
        self.stamp += 1;
        let mut lbd = 0u32;
        for &l in &learnt {
            let level = self.vardata[l.var().index()].level as usize;
            if self.level_stamp[level] != self.stamp {
                self.level_stamp[level] = self.stamp;
                lbd += 1;
            }
        }

        self.learnt_scratch = learnt;
        (bt_level, lbd)
    }

    /// Returns `true` if the literal's reason clause is entirely made of seen or
    /// level-0 literals, i.e. it can be removed from the learnt clause.
    fn literal_is_redundant(&self, lit: Lit) -> bool {
        let reason = self.vardata[lit.var().index()].reason;
        if reason == NO_REASON {
            return false;
        }
        (1..self.arena.len(reason)).all(|k| {
            let v = self.arena.lit(reason, k).var().index();
            self.seen[v] || self.vardata[v].level == 0
        })
    }

    /// Computes the assumption core after a conflict with assumption literal `p`
    /// (i.e. `¬p` is implied by the clause database and earlier assumptions).
    /// The core ends up sorted, which `core_contains` relies on.
    ///
    /// `search` calls this only while it is still deciding assumptions, so
    /// every open decision level is an assumption level and every decision
    /// literal the walk reaches is an assumption of this call.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            if !self.seen[v] {
                continue;
            }
            let reason = self.vardata[v].reason;
            if reason == NO_REASON {
                debug_assert!(self.vardata[v].level > 0);
                if lit != p {
                    self.conflict_core.push(lit);
                }
            } else {
                for k in 1..self.arena.len(reason) {
                    let q = self.arena.lit(reason, k);
                    if self.vardata[q.var().index()].level > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        self.conflict_core.sort_unstable();
        self.conflict_core.dedup();
    }

    // ------------------------------------------------------------------
    // Activities
    // ------------------------------------------------------------------

    fn bump_var_activity(&mut self, var: Var) {
        let v = var.index();
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order_heap.rebuild(&self.activity);
        }
        self.order_heap.bumped(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    // ------------------------------------------------------------------
    // Learnt-clause database reduction
    // ------------------------------------------------------------------

    fn clause_is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.lit_value(first) == L_TRUE && self.vardata[first.var().index()].reason == cref
    }

    /// Removes the worst half of the learnt database: highest LBD first, and
    /// among equal LBDs the older clause first (the sort is stable, and the
    /// list keeps equal-LBD clauses in the order they were learnt). Glue clauses
    /// (LBD ≤ [`GLUE_LBD`]), binary clauses, and reason clauses survive.
    fn reduce_db(&mut self) {
        let mut learnts = std::mem::take(&mut self.learnts);
        let arena = &self.arena;
        learnts.retain(|&c| !arena.is_deleted(c));
        learnts.sort_by_key(|&c| std::cmp::Reverse(arena.lbd(c)));
        let target = learnts.len() / 2;
        let mut removed = 0;
        let mut kept = 0;
        let mut i = 0;
        while i < learnts.len() {
            let cref = learnts[i];
            let removable = i < target
                && self.arena.len(cref) > 2
                && self.arena.lbd(cref) > GLUE_LBD
                && !self.clause_is_locked(cref);
            if removable {
                self.delete_clause(cref);
                removed += 1;
            } else {
                learnts[kept] = cref;
                kept += 1;
            }
            i += 1;
        }
        learnts.truncate(kept);
        self.stats.removed_clauses += removed;
        self.stats.learnt_clauses = learnts.len() as u64;
        self.learnts = learnts;
        self.check_garbage();
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// The next decision, or `None` once no unassigned decision variable is
    /// left (the search has found a model).
    fn pick_branch_lit(&mut self) -> Option<Lit> {
        // Every assigned variable is on the trail exactly once, and the only
        // unassigned variables that can never be decided are the reclaimed
        // ones in `free_vars`. When they account for every variable, nothing
        // is left to decide: answer in O(1) instead of popping each assigned
        // variable off the heap (and re-inserting it on backtrack).
        if self.trail.len() + self.free_vars.len() == self.num_vars() {
            return None;
        }
        loop {
            let v = self.order_heap.pop_max(&self.activity)?;
            if self.assigns[v] >= L_UNDEF && !self.free_mark[v] && self.decision[v] {
                let var = Var::new(v as u32);
                return Some(Lit::new(var, self.polarity[v]));
            }
        }
    }

    /// Runs the search to a verdict: `Some(true)` for SAT, `Some(false)` for
    /// UNSAT, and `None` once the conflict budget or the run's
    /// [`ResourceBudget`] (cancelled, out of memory, or past its deadline)
    /// ends it.
    fn search(&mut self) -> Option<bool> {
        let total_conflicts_start = self.stats.conflicts;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.conflict_core.clear();
                    if self.proof.is_active() {
                        // A root-level conflict: the empty clause is RUP (unit
                        // propagation over the database alone refutes it).
                        self.proof.add(&[]);
                    }
                    return Some(false);
                }
                let (bt_level, lbd) = self.analyze(confl);
                self.cancel_until(bt_level);
                let learnt = std::mem::take(&mut self.learnt_scratch);
                if self.proof.is_active() {
                    // Every learnt clause (first-UIP, minimized) is RUP
                    // w.r.t. the current database.
                    self.proof.add(&learnt);
                }
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], NO_REASON);
                } else {
                    let first = learnt[0];
                    let cref = self.attach_clause(&learnt);
                    self.arena.set_lbd(cref, lbd);
                    self.learnts.push(cref);
                    self.stats.learnt_clauses += 1;
                    self.unchecked_enqueue(first, cref);
                }
                self.learnt_scratch = learnt;
                self.decay_var_activity();
                // The clock is read once per conflict, not per decision; the
                // stop it may record ends the search at the next decision.
                self.budget.poll_deadline();
            } else {
                // No conflict.
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - total_conflicts_start >= budget {
                        return None;
                    }
                }
                if self.budget.is_stopped() {
                    return None;
                }
                let limit = MIN_LEARNTS.max(self.stats.original_clauses as usize / 3);
                if self.learnts.len() > limit {
                    self.reduce_db();
                }
                // Make sure all assumptions are decided first.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < self.assumptions.len() {
                    let p = self.assumptions[self.decision_level() as usize];
                    let value = self.lit_value(p);
                    if value == L_TRUE {
                        self.new_decision_level();
                    } else if value == L_FALSE {
                        self.analyze_final(p);
                        return Some(false);
                    } else {
                        next = Some(p);
                        break;
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(l) => {
                            self.stats.decisions += 1;
                            l
                        }
                        None => return Some(true),
                    },
                };
                self.new_decision_level();
                self.unchecked_enqueue(decision, NO_REASON);
            }
        }
    }

    /// Decides the satisfiability of the clause database under `assumptions`.
    ///
    /// After [`SatResult::Sat`], the model is available through
    /// [`Solver::model`]. After [`SatResult::Unsat`],
    /// [`Solver::unsat_core`] returns the subset of assumptions that was used.
    /// [`SatResult::Unknown`] is only returned when a conflict budget is set
    /// ([`Solver::set_conflict_budget`]) and runs out, or the run's
    /// [`ResourceBudget`] ([`Solver::set_budget`]) is stopped.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_inner(None, assumptions)
    }

    /// Like [`Solver::solve`], with `clause` added for this call only: IC3's
    /// relative query `F ∧ ¬c ∧ T ∧ c′` passes `¬c` here.
    ///
    /// The clause is guarded by a fresh activation variable `act`: the
    /// solver adds `¬act ∨ clause` and solves with `act` in front of
    /// `assumptions`. Afterwards it removes `act` from the core, so the core
    /// is a subset of `assumptions`, and retires `act`: it asserts `¬act` at
    /// the top level, a later `solve` deletes the satisfied clause, and a
    /// later [`Solver::new_var`] hands the variable out again.
    pub fn solve_with_clause<I: IntoIterator<Item = Lit>>(
        &mut self,
        clause: I,
        assumptions: &[Lit],
    ) -> SatResult {
        let act = Lit::pos(self.new_var());
        self.add_clause(std::iter::once(!act).chain(clause));
        let result = self.solve_inner(Some(act), assumptions);
        if let Ok(i) = self.conflict_core.binary_search(&act) {
            self.conflict_core.remove(i);
        }
        self.release_var(!act);
        result
    }

    /// Solves under `act` (if any) followed by `assumptions`.
    fn solve_inner(&mut self, act: Option<Lit>, assumptions: &[Lit]) -> SatResult {
        self.stats.solves += 1;
        self.model.clear();
        self.conflict_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        for l in assumptions {
            assert!(
                l.var().index() < self.num_vars(),
                "assumption over unknown variable {}",
                l.var()
            );
        }
        self.assumptions.clear();
        self.assumptions.extend(act);
        self.assumptions.extend_from_slice(assumptions);
        if !self.simplify_inner(false) {
            return SatResult::Unsat;
        }
        let result = match self.search() {
            Some(true) => {
                self.model.extend_from_slice(&self.assigns);
                SatResult::Sat
            }
            Some(false) => {
                if self.proof.is_active() && !self.conflict_core.is_empty() {
                    // Assumption UNSAT: the negated core is RUP — its RUP
                    // check propagates the core literals and replays the
                    // final conflict's reason chain, none of which can have
                    // been deleted (reason clauses are locked).
                    let negated: Vec<Lit> = self.conflict_core.iter().map(|&l| !l).collect();
                    self.proof.add(&negated);
                }
                SatResult::Unsat
            }
            None => SatResult::Unknown,
        };
        self.cancel_until(0);
        self.assumptions.clear();
        result
    }
}

/// A cheap, borrowed view of a solver's most recent satisfying model (the
/// packed `lbool` buffer). Obtained from [`Solver::model`]; all reads are a
/// single index into the buffer.
#[derive(Clone, Copy, Debug)]
pub struct ModelView<'a> {
    values: &'a [u8],
}

impl ModelView<'_> {
    /// The model value of `var`, or `None` when the variable is unconstrained
    /// by the model (or the last call was not `Sat`).
    #[inline]
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.values.get(var.index()) {
            Some(&v) if v < L_UNDEF => Some(v == L_TRUE),
            _ => None,
        }
    }

    /// The model value of `lit`, or `None` when its variable is unconstrained.
    #[inline]
    pub fn lit_value(&self, lit: Lit) -> Option<bool> {
        match self.values.get(lit.var().index()) {
            Some(&v) if v < L_UNDEF => Some(v ^ lit.is_neg() as u8 == L_TRUE),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StopCause;
    use plic3_logic::SplitMix64;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        assert!(s.add_clause([a]));
        assert!(s.add_clause([!a, b]));
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.model().lit_value(a), Some(true));
        assert_eq!(s.model().lit_value(b), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        assert!(s.add_clause([a]));
        assert!(!s.add_clause([!a]));
        assert!(!s.ok);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn simple_unsat_core() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let c = Lit::pos(s.new_var());
        s.add_clause([!a, b]);
        // Assume a and ¬b: contradiction needs exactly those two; c is irrelevant.
        assert_eq!(s.solve(&[a, !b, c]), SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a) || core.contains(&!b));
        assert!(!core.contains(&c));
        assert!(!s.core_contains(c));
        for &l in &core {
            assert!(s.core_contains(l));
        }
        // The core must itself be sufficient for unsatisfiability.
        assert_eq!(s.solve(&core), SatResult::Unsat);
    }

    #[test]
    fn solve_is_incremental() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        assert_eq!(s.solve(&[!a]), SatResult::Sat);
        assert_eq!(s.model().lit_value(b), Some(true));
        s.add_clause([!b]);
        assert_eq!(s.solve(&[!a]), SatResult::Unsat);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.model().lit_value(a), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: var p_{i,j} = pigeon i in hole j.
        let mut s = Solver::new();
        let var = |i: u32, j: u32| Lit::pos(Var::new(i * 2 + j));
        s.ensure_vars(6);
        for i in 0..3 {
            s.add_clause([var(i, 0), var(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard-ish pigeonhole instance with a tiny conflict budget.
        let mut s = Solver::new();
        let n = 7u32; // pigeons
        let m = 6u32; // holes
        let var = |i: u32, j: u32| Lit::pos(Var::new(i * m + j));
        s.ensure_vars((n * m) as usize);
        for i in 0..n {
            s.add_clause((0..m).map(|j| var(i, j)));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn raised_stop_flag_returns_unknown() {
        let mut s = Solver::new();
        let n = 8u32; // pigeons
        let m = 7u32; // holes
        let var = |i: u32, j: u32| Lit::pos(Var::new(i * m + j));
        s.ensure_vars((n * m) as usize);
        for i in 0..n {
            s.add_clause((0..m).map(|j| var(i, j)));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        let budget = ResourceBudget::unlimited();
        s.set_budget(budget.clone());
        budget.cancel();
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        // A fresh budget lets the same solver finish the proof.
        s.set_budget(ResourceBudget::unlimited());
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn a_deadline_stops_a_query_in_flight() {
        // Twelve pigeons in eleven holes: far beyond what CDCL refutes in
        // seconds, so only the deadline can end this query.
        let mut s = Solver::new();
        let n = 12u32; // pigeons
        let m = 11u32; // holes
        let var = |i: u32, j: u32| Lit::pos(Var::new(i * m + j));
        s.ensure_vars((n * m) as usize);
        for i in 0..n {
            s.add_clause((0..m).map(|j| var(i, j)));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!var(i1, j), !var(i2, j)]);
                }
            }
        }
        let budget = ResourceBudget::unlimited();
        s.set_budget(budget.clone());
        let started = std::time::Instant::now();
        budget.set_deadline(started + std::time::Duration::from_millis(50));
        assert_eq!(s.solve(&[]), SatResult::Unknown);
        assert_eq!(budget.stop_cause(), Some(StopCause::Deadline));
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "the query ran {elapsed:?} past a 50 ms deadline"
        );
    }

    #[test]
    fn model_respects_all_clauses() {
        let mut s = Solver::new();
        // Random-ish 3-CNF with a known satisfying assignment: all true.
        s.ensure_vars(6);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(0, true), lit(1, false), lit(2, true)],
            vec![lit(3, true), lit(4, true)],
            vec![lit(0, false), lit(5, true)],
            vec![lit(2, true), lit(4, false), lit(5, true)],
        ];
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(&[]), SatResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.model().lit_value(l) == Some(true)),
                "clause {c:?} not satisfied"
            );
        }
    }

    #[test]
    fn assumptions_drive_the_model() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        assert_eq!(s.solve(&[!b]), SatResult::Sat);
        assert_eq!(s.model().lit_value(a), Some(true));
        assert_eq!(s.model().lit_value(b), Some(false));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn assumption_over_unknown_var_panics() {
        let mut s = Solver::new();
        let _ = s.solve(&[lit(3, true)]);
    }

    #[test]
    fn stats_are_updated() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        s.add_clause([!a, b]);
        s.add_clause([a, !b]);
        let _ = s.solve(&[]);
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.stats().original_clauses, 3);
    }

    #[test]
    fn released_vars_are_recycled() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        // The temporary clause ¬a refutes the assumption a; the core holds
        // only the caller's assumption, not the activation literal.
        assert_eq!(s.solve_with_clause([!a], &[a]), SatResult::Unsat);
        assert_eq!(s.unsat_core(), &[a]);
        let total_before = s.num_vars();
        let act = Var::new(2);
        assert_eq!(s.released_vars, [act]);
        // A forced simplify reclaims the variable ...
        assert!(s.simplify_inner(true));
        assert!(s.released_vars.is_empty());
        assert_eq!(s.solve(&[a]), SatResult::Sat);
        // ... and the next new_var reuses the same index.
        let act2 = s.new_var();
        assert_eq!(act2, act);
        assert_eq!(s.num_vars(), total_before);
        assert_eq!(s.stats().released_vars, 1);
        assert_eq!(s.stats().recycled_vars, 1);
        // The recycled variable works as a fresh activation literal.
        let act2 = Lit::pos(act2);
        s.add_clause([!act2, !b]);
        assert_eq!(s.solve(&[act2, b]), SatResult::Unsat);
        assert_eq!(s.solve(&[act2, a]), SatResult::Sat);
        assert_eq!(s.model().lit_value(b), Some(false));
        s.release_var(!act2);
        // Once the database is refuted at the top level, a forced simplify
        // reports it and reclaims nothing.
        assert!(s.add_clause([!a]));
        assert!(!s.add_clause([!b]));
        assert_eq!(s.solve_with_clause([a], &[]), SatResult::Unsat);
        assert_eq!(s.released_vars.len(), 2);
        assert_eq!(s.simplify_inner(true), s.ok);
        assert!(!s.ok);
        assert_eq!(s.released_vars.len(), 2);
    }

    #[test]
    fn fully_propagated_assumptions_need_no_decision() {
        // Unit d, and a → b → c: assuming a assigns every variable by
        // propagation.
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let c = Lit::pos(s.new_var());
        let d = Lit::pos(s.new_var());
        s.add_clause([!a, b]);
        s.add_clause([!b, c]);
        s.add_clause([d]);
        let decisions = s.stats().decisions;
        assert_eq!(s.solve(&[a]), SatResult::Sat);
        assert_eq!(s.stats().decisions, decisions);
        assert_eq!(s.model().lit_value(c), Some(true));
        // The SAT exit did not drain the heap to prove nothing was left: a
        // drain would pop d, which backtracking never re-inserts (it is
        // assigned at level 0).
        assert_eq!(s.order_heap.len(), 4);
    }

    #[test]
    fn and_chain_deciding_only_inputs_gives_total_models() {
        // g_1 = x_0 ∧ x_1, g_k = g_{k-1} ∧ x_k, Tseitin-encoded, with only the
        // inputs x_k eligible for decisions.
        let n = 6;
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let mut gates = Vec::new();
        let mut prev = xs[0];
        for &x in &xs[1..] {
            let g = Lit::pos(s.new_var());
            s.set_decision_var(g.var(), false);
            clauses.push(vec![!g, prev]);
            clauses.push(vec![!g, x]);
            clauses.push(vec![g, !prev, !x]);
            gates.push(g);
            prev = g;
        }
        // Side constraint over the inputs: not all of x_1..x_3 hold.
        clauses.push(vec![!xs[1], !xs[2], !xs[3]]);
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let out = *gates.last().expect("n > 1");
        for assumptions in [vec![], vec![!out], vec![xs[1], xs[2]], vec![gates[1]]] {
            assert_eq!(s.solve(&assumptions), SatResult::Sat, "{assumptions:?}");
            assert!(s.stats().decisions <= s.stats().solves * n as u64);
            for v in 0..s.num_vars() {
                assert!(
                    s.model().value(Var::new(v as u32)).is_some(),
                    "var {v} unassigned"
                );
            }
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| s.model().lit_value(l) == Some(true)),
                    "{c:?}"
                );
            }
        }
        // The side constraint makes the chain's output unreachable.
        assert_eq!(s.solve(&[out]), SatResult::Unsat);
    }

    #[test]
    fn recycled_var_is_a_decision_var_again() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let act = Lit::pos(s.new_var());
        s.set_decision_var(act.var(), false);
        s.add_clause([!act, a]);
        assert_eq!(s.solve(&[act]), SatResult::Sat);
        s.release_var(!act);
        assert_eq!(s.released_vars.len(), 1);
        assert!(s.simplify_inner(true));
        assert!(s.released_vars.is_empty());
        let v = s.new_var();
        assert_eq!(v, act.var());
        // Nothing constrains the recycled variable, so only a decision can
        // assign it.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(
            s.model().value(v).is_some(),
            "recycled variable was not decided"
        );
    }

    #[test]
    fn simplify_removes_satisfied_clauses() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let c = Lit::pos(s.new_var());
        s.add_clause([a, b]);
        s.add_clause([a, c]);
        s.add_clause([b, c]);
        assert_eq!(s.num_clauses(), 3);
        s.add_clause([a]);
        assert!(s.simplify_inner(true));
        // The two clauses containing `a` are satisfied at the top level.
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn garbage_collection_preserves_verdicts() {
        // Interleave solving with releasing many activation variables so that
        // deleted clauses pile up and the arena is forced to compact, then
        // check the solver still answers correctly.
        let n = 200;
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
        for w in xs.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        let last = xs[n - 1];
        for round in 0..100 {
            // ¬x_last: under x0 the implication chain conflicts.
            assert_eq!(
                s.solve_with_clause([!last], &[xs[0]]),
                SatResult::Unsat,
                "round {round}"
            );
            assert!(s.simplify_inner(true), "round {round}");
        }
        assert!(s.stats().garbage_collections > 0, "arena never compacted");
        assert!(s.stats().recycled_vars > 0, "activation vars never reused");
        assert_eq!(s.solve(&[xs[0]]), SatResult::Sat);
        assert_eq!(s.model().lit_value(last), Some(true));
        assert_eq!(s.solve(&[!last, xs[0]]), SatResult::Unsat);
    }

    #[test]
    fn duplicate_assumptions_exceeding_var_count_do_not_panic() {
        // Already-satisfied duplicate assumptions each open a decision level
        // without assigning a variable, so the decision level can exceed the
        // variable count; conflict analysis (the LBD stamp in particular)
        // must cope.
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        let c = Lit::pos(s.new_var());
        let d = Lit::pos(s.new_var());
        s.add_clause([!b, c, d]);
        s.add_clause([!b, !c, d]);
        s.add_clause([!b, c, !d]);
        s.add_clause([!b, !c, !d]);
        let subset_of =
            |core: &[Lit], assumptions: &[Lit]| core.iter().all(|l| assumptions.contains(l));
        let duplicates = [a, a, a, a, a, b];
        assert_eq!(s.solve(&duplicates), SatResult::Unsat);
        assert!(s.unsat_core().contains(&b));
        assert!(subset_of(s.unsat_core(), &duplicates));
        assert_eq!(s.solve(&[a, a, a, a, a, !b]), SatResult::Sat);
        // Complementary assumptions refute each other; every decision in
        // the core is still an assumption of the call.
        let complementary = [a, a, c, !a, a];
        assert_eq!(s.solve(&complementary), SatResult::Unsat);
        assert_eq!(s.unsat_core(), &[a, !a]);
        let both = [a, b, a, !b, a];
        assert_eq!(s.solve(&both), SatResult::Unsat);
        assert!(subset_of(s.unsat_core(), &both));
        // The same holds with a temporary clause in front.
        assert_eq!(s.solve_with_clause([c, d], &both), SatResult::Unsat);
        assert!(subset_of(s.unsat_core(), &both));
        assert_eq!(s.solve_with_clause([!a], &duplicates), SatResult::Unsat);
        assert!(subset_of(s.unsat_core(), &duplicates));
    }

    #[test]
    fn temporary_clauses_keep_the_variable_count_bounded() {
        // x_i → x_{i+1}; each call adds ¬x_k as a temporary clause and
        // assumes x_j: UNSAT exactly when j ≤ k.
        let n = 10;
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
        for w in xs.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        for call in 0..200 {
            let (j, k) = (call % n, (call / n) % n);
            let expected = if j <= k {
                SatResult::Unsat
            } else {
                SatResult::Sat
            };
            assert_eq!(s.solve_with_clause([!xs[k]], &[xs[j]]), expected);
            // Retired activation variables are reclaimed in batches.
            assert!(s.num_vars() <= n + RELEASE_BATCH + 1, "call {call}");
        }
        assert_eq!(s.stats().released_vars, 200);
        assert!(s.stats().recycled_vars >= 200 - RELEASE_BATCH as u64 - 1);
        // Every temporary clause is gone.
        assert_eq!(s.solve(&[xs[0]]), SatResult::Sat);
    }

    /// `k` random literals over variables `0..n`.
    fn random_lits(rng: &mut SplitMix64, n: u32, k: u64) -> Vec<Lit> {
        (0..k)
            .map(|_| lit(rng.below(n as u64) as u32, rng.bool()))
            .collect()
    }

    /// A random 3-CNF over variables `0..n` with `m` clauses.
    fn random_3cnf(rng: &mut SplitMix64, n: u32, m: usize) -> Vec<Vec<Lit>> {
        (0..m).map(|_| random_lits(rng, n, 3)).collect()
    }

    /// A random call over variables `0..n`: one to four assumptions and,
    /// half the time, a 3-literal clause that holds for the call only.
    fn random_query(rng: &mut SplitMix64, n: u32) -> (Option<Vec<Lit>>, Vec<Lit>) {
        let k = 1 + rng.below(4);
        let assumptions = random_lits(rng, n, k);
        let clause = rng.bool().then(|| random_lits(rng, n, 3));
        (clause, assumptions)
    }

    fn run_query(
        s: &mut Solver,
        (clause, assumptions): &(Option<Vec<Lit>>, Vec<Lit>),
    ) -> SatResult {
        match clause {
            Some(clause) => s.solve_with_clause(clause.iter().copied(), assumptions),
            None => s.solve(assumptions),
        }
    }

    #[test]
    fn clone_answers_like_the_original() {
        let n = 80;
        let mut rng = SplitMix64::new(0xC10E);
        let mut original = Solver::new();
        for clause in random_3cnf(&mut rng, n, 330) {
            original.add_clause(clause);
        }
        // Call until the solver holds learnt clauses, activation variables
        // retired since the last reclaim, and reclaimed ones not yet reused.
        let warm = |s: &Solver| {
            !s.learnts.is_empty() && !s.released_vars.is_empty() && !s.free_vars.is_empty()
        };
        for _ in 0..1000 {
            if warm(&original) {
                break;
            }
            let query = random_query(&mut rng, n);
            run_query(&mut original, &query);
        }
        assert!(
            warm(&original),
            "the calls left no learnt clause or variable to reuse"
        );

        let mut copy = original.clone();
        assert_eq!(copy.arena.capacity_bytes(), original.arena.capacity_bytes());
        assert_eq!(copy.watches.capacity(), original.watches.capacity());
        for (c, o) in copy.watches.iter().zip(&original.watches) {
            assert_eq!(c.capacity(), o.capacity());
        }
        assert_eq!(copy.assigns.capacity(), original.assigns.capacity());
        assert_eq!(copy.activity.capacity(), original.activity.capacity());
        assert_eq!(copy.stats(), original.stats());

        for call in 0..200 {
            let query = random_query(&mut rng, n);
            let expected = run_query(&mut original, &query);
            assert_eq!(run_query(&mut copy, &query), expected, "call {call}");
            assert_eq!(copy.stats(), original.stats(), "call {call}");
            assert_eq!(copy.num_vars(), original.num_vars(), "call {call}");
            match expected {
                SatResult::Sat => {
                    for v in 0..original.num_vars() as u32 {
                        let v = Var::new(v);
                        assert_eq!(copy.model().value(v), original.model().value(v));
                    }
                }
                SatResult::Unsat => assert_eq!(copy.unsat_core(), original.unsat_core()),
                SatResult::Unknown => unreachable!("no budget is set"),
            }
        }

        // A clause added to the copy stays out of the original.
        let probe = (0..n)
            .map(|v| lit(v, true))
            .find(|&l| original.solve(&[l]) == SatResult::Sat)
            .expect("some variable can be true");
        assert!(copy.add_clause([!probe]));
        assert_eq!(copy.solve(&[probe]), SatResult::Unsat);
        assert_eq!(original.solve(&[probe]), SatResult::Sat);
    }

    #[test]
    fn clone_is_charged_to_the_budget() {
        let clauses = random_3cnf(&mut SplitMix64::new(7), 30, 100);
        let build = |budget: &ResourceBudget| {
            let mut s = Solver::new();
            s.set_budget(budget.clone());
            for clause in &clauses {
                s.add_clause(clause.iter().copied());
            }
            s
        };
        let budget = ResourceBudget::unlimited();
        let original = build(&budget);
        let charge = original.arena.capacity_bytes();
        assert!(charge > 0);
        assert_eq!(budget.used(), charge);
        let _copy = original.clone();
        assert_eq!(budget.used(), 2 * charge);

        // The original fits under the limit; its copy pushes the run past it.
        let budget = ResourceBudget::with_limit(charge + charge / 2);
        let original = build(&budget);
        assert_eq!(budget.stop_cause(), None);
        let mut copy = original.clone();
        assert_eq!(budget.stop_cause(), Some(StopCause::MemoryOut));
        assert_eq!(copy.solve(&[]), SatResult::Unknown);
    }

    #[test]
    fn unsat_core_is_sorted() {
        let mut s = Solver::new();
        let lits: Vec<Lit> = (0..6).map(|_| Lit::pos(s.new_var())).collect();
        // x0 ∧ x2 ∧ x4 → conflict via a chain.
        s.add_clause([!lits[0], !lits[2], !lits[4]]);
        assert_eq!(
            s.solve(&[lits[4], lits[0], lits[2], lits[5]]),
            SatResult::Unsat
        );
        let core = s.unsat_core();
        assert!(core.windows(2).all(|w| w[0] < w[1]), "core is sorted");
        for &l in core {
            assert!(s.core_contains(l));
        }
        assert!(!s.core_contains(lits[5]));
    }
}
