//! Best-first branch-and-bound over the simplex LP relaxation.
//!
//! # Determinism contract
//!
//! Nodes are pruned only when their bound is *strictly* worse than the
//! incumbent (ties stay alive), and the incumbent accepts an equal-objective
//! point only when its assignment is lexicographically smaller. The search
//! therefore always converges to the lexicographically smallest optimal
//! assignment, whatever warm starts or retained bases it is given.
//! Budget-exhausted runs report whatever incumbent was found in time and are
//! exempt from the contract (they are flagged via [`Termination`], never
//! silently).
//!
//! # The node path
//!
//! A search copies the model's rows and objective into flat arrays once
//! (`FlatModel`: the terms back to back, each row's relation and `rhs −
//! constant`, one minimisation-sense cost per variable), and computes each
//! binary's branching weight from it. A node then reconstructs its bounds
//! from the post-probe base bounds and its branching fixes, pins the
//! columns of every row left without slack (reading the flat rows), builds
//! its folded tableau and cost row from the flat copy, and solves it. Its
//! LP point, rounded, is offered to the incumbent, and the model's rows
//! are checked only when the rounding would improve the incumbent, the
//! row that refused the last rounding first. An integral LP point is not
//! offered twice. None of this changes an operation on a value: every
//! node, pivot and selection is the one the model walk gave
//! (`crates/ilp/tests/proptest_node.rs` checks the pinned bounds and the
//! built tableau against it bit for bit).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::model::FlatModel;
use crate::simplex::{
    solve_folded, solve_root, Basis, ProbeOutcome, RootProbe, SimplexOps, SimplexOptions,
    SimplexScratch,
};
use crate::{IlpError, IlpSolution, LpSolution, Model, Relation, Sense, VarId, TIE_TOL};

const INT_TOL: f64 = 1e-6;

/// Cap on root probes; bounds the fixed cost probing adds on models with
/// many binaries.
const MAX_ROOT_PROBES: usize = 32;

/// Branch-and-bound solver for models with binary variables.
///
/// Nodes are explored best-bound-first; branching picks the fractional
/// binary of the node's LP optimum with the largest fractionality ×
/// |objective coefficient| (impact branching). Search effort is bounded by
/// a node budget and an optional wall-clock deadline; [`BranchBound::run`]
/// reports budget exhaustion as a [`Termination`] alongside the best
/// incumbent found so far instead of discarding it.
///
/// # Example
///
/// ```
/// use partita_ilp::{Model, Sense, Relation, BranchBound};
/// # fn main() -> Result<(), partita_ilp::IlpError> {
/// // Knapsack: max 6a + 5b + 4c, 5a + 4b + 3c <= 8.
/// let mut m = Model::new(Sense::Maximize);
/// let a = m.add_binary("a");
/// let b = m.add_binary("b");
/// let c = m.add_binary("c");
/// m.set_objective([(a, 6.0), (b, 5.0), (c, 4.0)]);
/// m.add_constraint([(a, 5.0), (b, 4.0), (c, 3.0)], Relation::Le, 8.0)?;
/// let s = BranchBound::new().solve(&m)?;
/// assert_eq!(s.objective.round() as i64, 10); // a + c
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BranchBound {
    max_nodes: usize,
    deadline: Option<Duration>,
    root_basis: Option<Arc<Basis>>,
}

impl Default for BranchBound {
    fn default() -> Self {
        BranchBound {
            max_nodes: 200_000,
            deadline: None,
            root_basis: None,
        }
    }
}

/// Statistics of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BranchBoundStats {
    /// Nodes whose LP relaxation was solved.
    pub nodes_explored: usize,
    /// Nodes pruned by bound.
    pub nodes_pruned: usize,
    /// Times the incumbent improved during the search (excludes a warm-start
    /// incumbent supplied by the caller).
    pub incumbent_updates: usize,
    /// Simplex pivots summed over every node LP solved.
    pub simplex_iterations: usize,
    /// Whether a caller-supplied warm start was feasible and seeded the
    /// incumbent.
    pub warm_start_accepted: bool,
    /// Binaries permanently fixed by reduced-cost probing at the root
    /// (requires a warm-start incumbent).
    pub vars_fixed: usize,
    /// Root probes settled by the reduced-cost screen, with no LP.
    pub probes_screened: usize,
    /// Root probes re-solved by the dual simplex on the root tableau.
    pub probes_warm: usize,
    /// Root probes solved cold (see [`RootProbe`] for when).
    pub probes_cold: usize,
    /// Whether a caller-supplied root basis was installed and repaired by
    /// the dual simplex (`false` when no basis was supplied or it fell back
    /// to the cold two-phase solve).
    pub basis_reused: bool,
    /// Deterministic simplex per-op counters of every LP the run solved
    /// (the root's LP and probing work included).
    pub simplex_ops: SimplexOps,
}

/// Why a branch-and-bound run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The search tree was exhausted: the incumbent is proven optimal.
    Optimal,
    /// The node budget ran out first; the incumbent (if any) is feasible but
    /// not proven optimal.
    NodeLimit,
    /// The wall-clock deadline passed first; the incumbent (if any) is
    /// feasible but not proven optimal.
    Deadline,
}

/// Outcome of [`BranchBound::run`]: the best incumbent (if any), why the
/// search stopped, and how much work it did.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchBoundRun {
    /// Best integer-feasible solution found, `None` when the budget ran out
    /// before any incumbent appeared.
    pub solution: Option<IlpSolution>,
    /// Why the search stopped.
    pub termination: Termination,
    /// Search-effort counters.
    pub stats: BranchBoundStats,
    /// The optimal basis of the root LP relaxation, reusable as
    /// [`BranchBound::with_root_basis`] input for the next same-shaped solve
    /// (`None` when the root was infeasible or its basis kept an artificial).
    pub root_basis: Option<Arc<Basis>>,
}

/// One branching decision on the path from the root to a node: variable
/// `var` had its box narrowed to `[lower, upper]`.
#[derive(Debug, Clone, Copy)]
struct BoundFix {
    var: usize,
    lower: f64,
    upper: f64,
}

/// A search node as a bound *delta* against the post-probe root bounds:
/// the branching decisions on the path from the root, in order.
///
/// The old representation carried two full `Vec<f64>` bound vectors per
/// node — two heap allocations and `2n` floats of traffic per expansion,
/// on paths that are almost always a handful of single-variable fixes.
/// Storing the fixes instead makes a node O(depth) and lets
/// [`NodeArena`] recycle the path vectors, so steady-state expansion
/// allocates nothing.
struct Node {
    /// Normalised bound (lower is better).
    score: f64,
    /// Branching fixes relative to the root bounds, applied in order on
    /// reconstruction (later fixes win, which is what branching means).
    path: Vec<BoundFix>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest score on top.
        // `total_cmp` keeps the heap order total even if a NaN score ever
        // slipped in (the old partial_cmp fallback silently equated it).
        other.score.total_cmp(&self.score)
    }
}

/// Node-reconstruction state: the scratch bound vectors a
/// popped node's path is materialised into, plus a free list that
/// recycles retired path vectors back into branching.
struct NodeArena {
    /// Reconstructed lower bounds of the node being expanded.
    lower: Vec<f64>,
    /// Reconstructed upper bounds of the node being expanded.
    upper: Vec<f64>,
    /// An LP point with its binaries rounded, for the incumbent offer.
    rounded: Vec<f64>,
    /// The row that refused the last rounded point.
    refused: usize,
    /// Retired path vectors, reused for new children oldest-capacity
    /// first. Bounded so a search that closes far more nodes than it
    /// opens cannot hoard memory.
    free: Vec<Vec<BoundFix>>,
}

/// Cap on recycled path vectors held by the arena.
const ARENA_FREE_CAP: usize = 64;

impl NodeArena {
    fn new() -> NodeArena {
        NodeArena {
            lower: Vec::new(),
            upper: Vec::new(),
            rounded: Vec::new(),
            refused: 0,
            free: Vec::new(),
        }
    }

    /// Materialises the bounds `path` reaches from the base bounds into
    /// the arena's scratch vectors.
    fn reconstruct(&mut self, base_lower: &[f64], base_upper: &[f64], path: &[BoundFix]) {
        self.lower.clear();
        self.lower.extend_from_slice(base_lower);
        self.upper.clear();
        self.upper.extend_from_slice(base_upper);
        for fix in path {
            self.lower[fix.var] = fix.lower;
            self.upper[fix.var] = fix.upper;
        }
    }

    /// Pins, in the reconstructed bounds, every column of a row that has
    /// no slack left at them. A `≤` row whose least activity over the
    /// boxes already reaches its right-hand side (a `≥` row whose
    /// greatest activity only just does) admits each of its columns at
    /// the one end of its box that gives that activity. One pass in row
    /// order, with exact comparisons: a row fires only when its extreme
    /// activity meets the right-hand side exactly, as on integral data at
    /// integral bounds. The LP feasible set is unchanged; the build folds
    /// the pinned columns out instead of the simplex reaching the same
    /// values through degenerate pivots. On a fixed-charge row, a branch
    /// to `z = 0` pins every user of the IP to 0. The rows are read from
    /// the search's flat copy, whose right-hand sides are `rhs − constant`.
    /// Only the activity a row's relation tests is summed (an equality
    /// row tests both).
    fn pin_tight_rows(&mut self, flat: &FlatModel<'_>) {
        let (lower, upper) = (&mut self.lower, &mut self.upper);
        for (r, (&relation, &rhs)) in flat.relation.iter().zip(&flat.rhs).enumerate() {
            let terms = || flat.row(r).iter().filter(|&&(_, a)| a != 0.0);
            // The least activity over the boxes, and the greatest.
            let activity = |least: bool| {
                let mut sum = 0.0;
                for &(j, a) in terms() {
                    let (l, u) = (a * lower[j], a * upper[j]);
                    sum += if least { l.min(u) } else { l.max(u) };
                }
                sum
            };
            // Whether every column sits where it lowers the activity, or
            // where it raises it.
            let low = match relation {
                Relation::Le if activity(true) >= rhs => true,
                Relation::Ge if activity(false) <= rhs => false,
                Relation::Eq => {
                    let (least, most) = (activity(true), activity(false));
                    if least >= rhs {
                        true
                    } else if most <= rhs {
                        false
                    } else {
                        continue;
                    }
                }
                _ => continue,
            };
            for &(j, a) in terms() {
                if (a > 0.0) == low {
                    upper[j] = lower[j];
                } else {
                    lower[j] = upper[j];
                }
            }
        }
    }

    /// Hands out a recycled (empty) path vector, or a fresh one.
    fn take_vec(&mut self) -> Vec<BoundFix> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a closed node's path vector to the free list.
    fn retire(&mut self, mut path: Vec<BoundFix>) {
        if self.free.len() < ARENA_FREE_CAP && path.capacity() > 0 {
            path.clear();
            self.free.push(path);
        }
    }
}

/// `x.round()`, bit for bit, without the library call on the values an LP
/// vertex gives most binaries: `0.0` (either sign) and `1.0` are their own
/// rounding.
#[inline]
fn round(x: f64) -> f64 {
    if x == 0.0 || x == 1.0 {
        x
    } else {
        x.round()
    }
}

/// `true` when a node with bound `bound` cannot contain a solution that is
/// strictly better than *or tied with* the incumbent. Ties must survive so
/// the lexicographic tie-break is independent of search order.
fn prunable(bound: f64, incumbent_score: f64) -> bool {
    bound > incumbent_score + TIE_TOL
}

/// `true` when `a` is lexicographically smaller than `b` under
/// [`f64::total_cmp`], element by element.
///
/// This is *the* tie-break of the exact-solver determinism contract (see
/// `docs/BACKENDS.md`): every exact backend — branch-and-bound, exhaustive
/// enumeration and any backend layered on top of this crate — must report,
/// among equal-objective optima (within `1e-9`), the assignment this
/// predicate ranks smallest. Exported so out-of-crate backends share the
/// identical comparison instead of re-implementing it.
#[must_use]
pub fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// The best integer-feasible point found so far, keyed by its normalised
/// (minimisation) score with assignment-lexicographic tie-breaking.
struct Incumbent {
    score: f64,
    solution: Option<IlpSolution>,
}

impl Incumbent {
    fn new() -> Incumbent {
        Incumbent {
            score: f64::INFINITY,
            solution: None,
        }
    }

    fn improves(&self, score: f64, values: &[f64]) -> bool {
        match &self.solution {
            None => true,
            Some(sol) => {
                score < self.score - TIE_TOL
                    || (score <= self.score + TIE_TOL && lex_less(values, &sol.values))
            }
        }
    }

    /// Offers a feasible point (`score` = normalised objective); returns
    /// `true` when it was installed.
    fn offer(&mut self, score: f64, objective: f64, values: Vec<f64>) -> bool {
        if !self.improves(score, &values) {
            return false;
        }
        // `min` guards against the stored score drifting upward across
        // repeated lexicographic replacements inside the tie tolerance.
        self.score = self.score.min(score);
        self.solution = Some(IlpSolution { objective, values });
        true
    }
}

/// Immutable per-run search context shared by the root and the search loop.
struct SearchCtx<'a> {
    flat: &'a FlatModel<'a>,
    binaries: &'a [VarId],
    /// Branching weight of each binary, in `binaries` order: its
    /// `|objective coefficient|`, at least `1e-6`.
    weights: &'a [f64],
    minimize: bool,
}

impl SearchCtx<'_> {
    fn norm(&self, obj: f64) -> f64 {
        if self.minimize {
            obj
        } else {
            -obj
        }
    }

    /// Offers `values` with its binaries rounded, counting an incumbent
    /// improvement in `stats`. The rounding is made in the arena. The
    /// point is checked against the model only when it would improve the
    /// incumbent: [`Incumbent::offer`] refuses it otherwise whether or not
    /// it is feasible. The check is [`Model::is_feasible`]'s, except that
    /// the row that refused the last rounded point is tried first: most
    /// roundings break the same row, and any one broken row refuses.
    fn offer_rounded(
        &self,
        values: &[f64],
        arena: &mut NodeArena,
        inc: &mut Incumbent,
        stats: &mut BranchBoundStats,
    ) {
        let rounded = &mut arena.rounded;
        rounded.clear();
        rounded.extend_from_slice(values);
        for &v in self.binaries {
            rounded[v.index()] = round(rounded[v.index()]);
        }
        let model = self.flat.model;
        let objective = model.objective().eval(rounded);
        let score = self.norm(objective);
        if !inc.improves(score, rounded) {
            return;
        }
        let rows = model.constraints();
        if rows.get(arena.refused).is_some_and(|c| !c.holds(rounded)) || !model.in_domain(rounded) {
            return;
        }
        if let Some(r) = model.violated_row(rounded) {
            arena.refused = r;
            return;
        }
        if inc.offer(score, objective, rounded.clone()) {
            stats.incumbent_updates += 1;
        }
    }

    /// Solves a node's LP and either closes the node (infeasible, pruned or
    /// integer-feasible) or returns the down/up children to enqueue. The
    /// node's bounds are reconstructed from its delta path into `arena`;
    /// closed nodes retire their path vector back into the arena.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        scratch: &mut SimplexScratch,
        arena: &mut NodeArena,
        base_lower: &[f64],
        base_upper: &[f64],
        node: Node,
        inc: &mut Incumbent,
        stats: &mut BranchBoundStats,
    ) -> Result<Option<(Node, Node)>, IlpError> {
        arena.reconstruct(base_lower, base_upper, &node.path);
        arena.pin_tight_rows(self.flat);
        let lp = match solve_folded(
            self.flat,
            &arena.lower,
            &arena.upper,
            SimplexOptions::default(),
            scratch,
        ) {
            Ok(lp) => lp,
            Err(IlpError::Infeasible) => {
                arena.retire(node.path);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        stats.simplex_iterations += lp.iterations;
        let bound = self.norm(lp.objective);
        if prunable(bound, inc.score) {
            stats.nodes_pruned += 1;
            arena.retire(node.path);
            return Ok(None);
        }

        // Rounding heuristic: snapping the LP optimum to the nearest
        // integers often yields a feasible incumbent immediately on
        // coverage-style models, which tightens pruning dramatically.
        self.offer_rounded(&lp.values, arena, inc, stats);
        Ok(self.branch(&lp, bound, node.path, arena))
    }

    /// Branches a node whose LP optimum `lp` (normalised bound `bound`)
    /// survived pruning, at the bounds `path` reached, which `arena` holds
    /// reconstructed. Returns the down/up children, or `None` for an
    /// integral optimum, retiring the path: the caller has already offered
    /// its rounding, which is the point itself, to the incumbent.
    ///
    /// The branching variable is the fractional binary with the largest
    /// objective×fractionality impact: deciding heavy variables first
    /// moves the bound fastest (plain most-fractional branching enumerates
    /// plateaus on coverage models).
    fn branch(
        &self,
        lp: &LpSolution,
        bound: f64,
        path: Vec<BoundFix>,
        arena: &mut NodeArena,
    ) -> Option<(Node, Node)> {
        let frac = self
            .binaries
            .iter()
            .zip(self.weights)
            .map(|(&v, &c)| (v, lp.value(v), c))
            .filter(|(_, x, _)| (x - round(*x)).abs() > INT_TOL)
            .max_by(|a, b| {
                let weight = |&(_, x, c): &(VarId, f64, f64)| (x - round(x)).abs() * c;
                weight(a).total_cmp(&weight(b))
            });
        let Some((v, x, _)) = frac else {
            arena.retire(path);
            return None;
        };
        // Branch down (x = 0) and up (x = 1): each child is the parent's
        // path plus one fix. The up child copies the path into a recycled
        // vector; the down child reuses the parent's vector outright, so
        // steady-state branching allocates nothing.
        let vi = v.index();
        let mut up_path = arena.take_vec();
        up_path.extend_from_slice(&path);
        up_path.push(BoundFix {
            var: vi,
            lower: x.ceil(),
            upper: arena.upper[vi],
        });
        let mut down_path = path;
        down_path.push(BoundFix {
            var: vi,
            lower: arena.lower[vi],
            upper: x.floor(),
        });
        let down = Node {
            score: bound,
            path: down_path,
        };
        let up = Node {
            score: bound,
            path: up_path,
        };
        Some((down, up))
    }
}

/// The bounds of the node `path` reaches from the base bounds, with every
/// row without slack pinned: [`SearchCtx::expand`]'s bounds, for
/// [`crate::simplex::TableauHandle::node`].
pub(crate) fn node_bounds(
    flat: &FlatModel<'_>,
    base_lower: &[f64],
    base_upper: &[f64],
    path: &[(usize, f64, f64)],
) -> (Vec<f64>, Vec<f64>) {
    let path: Vec<BoundFix> = path
        .iter()
        .map(|&(var, lower, upper)| BoundFix { var, lower, upper })
        .collect();
    let mut arena = NodeArena::new();
    arena.reconstruct(base_lower, base_upper, &path);
    arena.pin_tight_rows(flat);
    (arena.lower, arena.upper)
}

impl BranchBound {
    /// Creates a solver with default limits.
    #[must_use]
    pub fn new() -> BranchBound {
        BranchBound::default()
    }

    /// Overrides the node limit.
    #[must_use]
    pub fn with_max_nodes(mut self, max_nodes: usize) -> BranchBound {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets a wall-clock deadline, checked once per node.
    ///
    /// The LP solve of the node in flight is never interrupted, so a run may
    /// overshoot the deadline by one node's worth of simplex work.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> BranchBound {
        self.deadline = Some(deadline);
        self
    }

    /// Supplies a retained root-LP basis from a previous solve of a
    /// same-shaped model (see [`BranchBoundRun::root_basis`]). The root LP
    /// re-installs it and repairs primal feasibility with dual-simplex
    /// pivots instead of running two-phase from scratch; an incompatible or
    /// stale basis silently falls back to the cold solve, so this can never
    /// change the reported solution — only the work done to reach it.
    #[must_use]
    pub fn with_root_basis(mut self, basis: Arc<Basis>) -> BranchBound {
        self.root_basis = Some(basis);
        self
    }

    /// Solves `model` to proven optimality.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when no integer assignment satisfies the
    /// constraints, [`IlpError::Unbounded`] when the relaxation is unbounded,
    /// [`IlpError::NodeLimit`] when the node budget is exhausted,
    /// [`IlpError::DeadlineExceeded`] when the deadline passes first. Budget
    /// errors discard any incumbent; use [`BranchBound::run`] to keep it.
    pub fn solve(&self, model: &Model) -> Result<IlpSolution, IlpError> {
        let (sol, _stats) = self.solve_with_stats(model)?;
        Ok(sol)
    }

    /// Solves to proven optimality and also returns search statistics.
    ///
    /// # Errors
    ///
    /// Same as [`BranchBound::solve`].
    pub fn solve_with_stats(
        &self,
        model: &Model,
    ) -> Result<(IlpSolution, BranchBoundStats), IlpError> {
        let run = self.run(model, None)?;
        match run.termination {
            Termination::Optimal => {
                let sol = run.solution.expect("optimal termination implies incumbent");
                Ok((sol, run.stats))
            }
            Termination::NodeLimit => Err(IlpError::NodeLimit {
                limit: self.max_nodes,
            }),
            Termination::Deadline => Err(IlpError::DeadlineExceeded),
        }
    }

    /// Runs the search under the configured budgets.
    ///
    /// `warm_start` optionally seeds the incumbent with a known feasible
    /// point (full-length variable assignment, binaries integral); an
    /// infeasible or malformed warm start is ignored rather than rejected, so
    /// callers can pass a heuristic guess unconditionally. Budget exhaustion
    /// is reported through [`BranchBoundRun::termination`], not as an error,
    /// and keeps the best incumbent found so far.
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] when the search proves no integer assignment
    /// exists, [`IlpError::Unbounded`] when the relaxation is unbounded,
    /// [`IlpError::IterationLimit`] when a node LP exceeds the simplex pivot
    /// cap.
    pub fn run(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
    ) -> Result<BranchBoundRun, IlpError> {
        match warm_start {
            Some(values) => self.run_seeded(model, &[values.to_vec()]),
            None => self.run_seeded(model, &[]),
        }
    }

    /// The incumbent-injection hook behind [`BranchBound::run`]: like `run`,
    /// but seeds the incumbent with *every* feasible candidate in
    /// `warm_starts` (the best one — under the lexicographic tie-break —
    /// wins). Sweep orchestration chains the previous sweep point's optimum
    /// alongside a heuristic guess this way; infeasible or malformed
    /// candidates are skipped, never an error.
    ///
    /// # Errors
    ///
    /// Same as [`BranchBound::run`].
    pub fn run_seeded(
        &self,
        model: &Model,
        warm_starts: &[Vec<f64>],
    ) -> Result<BranchBoundRun, IlpError> {
        let n = model.num_vars();
        let minimize = model.sense() == Sense::Minimize;
        let started = Instant::now();
        let flat = FlatModel::new(model);
        let binaries = model.binary_vars();
        let weights: Vec<f64> = binaries
            .iter()
            .map(|v| flat.cost[v.index()].abs().max(1e-6))
            .collect();
        let ctx = SearchCtx {
            flat: &flat,
            binaries: &binaries,
            weights: &weights,
            minimize,
        };

        let mut incumbent = Incumbent::new();
        let mut stats = BranchBoundStats::default();

        // Seed the incumbent from every warm start that checks out: the
        // bound prunes against the best of them from the very first node.
        for values in warm_starts {
            let integral = binaries.iter().all(|&v| {
                values
                    .get(v.index())
                    .is_some_and(|x| x.fract().abs() <= INT_TOL)
            });
            if values.len() == n && integral && model.is_feasible(values) {
                let objective = model.objective().eval(values);
                incumbent.offer(ctx.norm(objective), objective, values.clone());
                stats.warm_start_accepted = true;
            }
        }

        let finish = |incumbent: Incumbent,
                      termination: Termination,
                      stats: BranchBoundStats,
                      root_basis: Option<Arc<Basis>>| {
            match termination {
                Termination::Optimal => match incumbent.solution {
                    Some(sol) => Ok(BranchBoundRun {
                        solution: Some(sol),
                        termination: Termination::Optimal,
                        stats,
                        root_basis,
                    }),
                    None => Err(IlpError::Infeasible),
                },
                t => Ok(BranchBoundRun {
                    solution: incumbent.solution,
                    termination: t,
                    stats,
                    root_basis,
                }),
            }
        };

        // The budgets are checked before every node, the root included.
        if self.max_nodes == 0 {
            return finish(incumbent, Termination::NodeLimit, stats, None);
        }
        if self.deadline.is_some_and(|d| started.elapsed() >= d) {
            return finish(incumbent, Termination::Deadline, stats, None);
        }

        // The post-probe values of these become the base bounds every
        // node's delta path is reconstructed against.
        let mut base_lower = Vec::with_capacity(n);
        let mut base_upper = Vec::with_capacity(n);
        for i in 0..n {
            let (l, u) = model.var_bounds(VarId(i)).expect("var exists");
            base_lower.push(l);
            base_upper.push(u);
        }

        // The root hosts the one-shot reduced-cost probing. Its LP runs at
        // full tableau shape so a retained basis from a previous
        // same-shaped solve can be re-installed and dual-repaired, and so
        // its own optimal basis can be handed to the next solve.
        let mut scratch = SimplexScratch::new();
        stats.nodes_explored += 1;
        let (lp, root_basis_out) = match solve_root(
            &flat,
            &base_lower,
            &base_upper,
            SimplexOptions::default(),
            &mut scratch,
            self.root_basis.as_deref(),
        ) {
            Ok(bs) => {
                stats.basis_reused = bs.reused;
                (Some(bs.solution), bs.basis.map(Arc::new))
            }
            Err(IlpError::Infeasible) => (None, None),
            Err(e) => return Err(e),
        };
        let mut arena = NodeArena::new();
        let children = match lp {
            None => None,
            Some(lp) => {
                stats.simplex_iterations += lp.iterations;
                let bound = ctx.norm(lp.objective);
                if prunable(bound, incumbent.score) {
                    // Only possible when a warm start already dominates.
                    stats.nodes_pruned += 1;
                    None
                } else {
                    ctx.offer_rounded(&lp.values, &mut arena, &mut incumbent, &mut stats);

                    // Reduced-cost probing, once, at the root: a warm start
                    // supplies a tight incumbent before any search happens,
                    // so flipping a binary that sits at a bound in the root
                    // LP and bounding the flipped LP tells us whether that
                    // flip can ever pay off. If the bound is strictly worse
                    // than the incumbent (or the flip is infeasible), the
                    // binary is fixed at its LP value for the entire tree.
                    // The reduced-cost screen settles a flip with no LP;
                    // the rest re-solve on the root tableau (see
                    // `RootProbe`). Without a warm start the first
                    // incumbent only appears after the root LP, too late to
                    // narrow the tree from node one.
                    if stats.warm_start_accepted && incumbent.solution.is_some() {
                        // Largest |objective coefficient| first, keyed once
                        // per candidate; the stable sort keeps model order
                        // among equal keys.
                        let mut candidates: Vec<(VarId, f64, f64)> = binaries
                            .iter()
                            .map(|&v| (v, lp.value(v)))
                            .filter(|&(v, x)| {
                                base_lower[v.index()] < base_upper[v.index()]
                                    && (x <= INT_TOL || x >= 1.0 - INT_TOL)
                            })
                            .map(|(v, x)| (v, x, flat.cost[v.index()].abs()))
                            .collect();
                        candidates.sort_by(|a, b| b.2.total_cmp(&a.2));
                        let mut prober = RootProbe::new(
                            model,
                            &base_lower,
                            &base_upper,
                            SimplexOptions::default(),
                            &mut scratch,
                        );
                        for (v, x, _) in candidates.into_iter().take(MAX_ROOT_PROBES) {
                            if self.deadline.is_some_and(|d| started.elapsed() >= d) {
                                break;
                            }
                            let flipped = if x <= INT_TOL { 1.0 } else { 0.0 };
                            let fixable = if prunable(
                                bound + prober.reduced_cost(v, flipped),
                                incumbent.score,
                            ) {
                                stats.probes_screened += 1;
                                true
                            } else {
                                // A probe may stop once its bound passes the
                                // pruning threshold: it is fixable then.
                                let cutoff = incumbent.score + TIE_TOL;
                                match prober.probe(v, flipped, cutoff) {
                                    Ok(ProbeOutcome::Solved(probe)) => {
                                        stats.simplex_iterations += probe.iterations;
                                        prunable(ctx.norm(probe.objective), incumbent.score)
                                    }
                                    Ok(ProbeOutcome::Cutoff { iterations }) => {
                                        stats.simplex_iterations += iterations;
                                        true
                                    }
                                    Err(IlpError::Infeasible) => true,
                                    Err(e) => return Err(e),
                                }
                            };
                            if fixable {
                                // The flip cannot beat (or tie) the
                                // incumbent: pin the binary to its
                                // relaxation value for all descendants.
                                prober.fix(v, x.round());
                                stats.vars_fixed += 1;
                            }
                        }
                        let counts = prober.counts();
                        stats.probes_warm = counts.warm;
                        stats.probes_cold = counts.cold;
                        (base_lower, base_upper) = prober.finish();
                    }

                    // Branch the root like any other node: its bounds are
                    // the post-probe base bounds, reached by an empty path.
                    arena.reconstruct(&base_lower, &base_upper, &[]);
                    ctx.branch(&lp, bound, Vec::new(), &mut arena)
                }
            }
        };

        let Some((down, up)) = children else {
            stats.simplex_ops = scratch.take_ops();
            return finish(incumbent, Termination::Optimal, stats, root_basis_out);
        };

        // Best-first loop, reusing the root's scratch and arena. The root
        // counts as the first explored node.
        let mut heap = BinaryHeap::new();
        heap.push(down);
        heap.push(up);
        let termination = loop {
            let Some(node) = heap.pop() else {
                break Termination::Optimal;
            };
            if prunable(node.score, incumbent.score) {
                stats.nodes_pruned += 1;
                arena.retire(node.path);
                continue;
            }
            if stats.nodes_explored >= self.max_nodes {
                break Termination::NodeLimit;
            }
            if self.deadline.is_some_and(|d| started.elapsed() >= d) {
                break Termination::Deadline;
            }
            stats.nodes_explored += 1;
            let expanded = ctx.expand(
                &mut scratch,
                &mut arena,
                &base_lower,
                &base_upper,
                node,
                &mut incumbent,
                &mut stats,
            )?;
            if let Some((down, up)) = expanded {
                heap.push(down);
                heap.push(up);
            }
        };
        stats.simplex_ops = scratch.take_ops();
        finish(incumbent, termination, stats, root_basis_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows with no slack left pin their columns at the end that gives
    /// the row its extreme activity; rows with slack, and columns of
    /// coefficient zero, are left alone.
    #[test]
    fn rows_without_slack_pin_their_columns() {
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<VarId> = (0..8).map(|i| m.add_binary(format!("x{i}"))).collect();
        let z = m.add_binary("z");
        let rows = [
            // A fixed-charge row: z = 0 pins both users to 0.
            (vec![(x[0], 1.0), (x[1], 1.0), (z, -2.0)], Relation::Le, 0.0),
            // A `≥` row whose greatest activity only just reaches 2.
            (
                vec![(x[2], 1.0), (x[3], -1.0), (x[4], 1.0)],
                Relation::Ge,
                2.0,
            ),
            // Slack left: nothing pinned.
            (vec![(x[5], 1.0), (x[6], 1.0)], Relation::Le, 1.0),
            // An equality at its least activity; the zero term stays free.
            (vec![(x[6], 1.0), (x[7], 0.0)], Relation::Eq, 0.0),
        ];
        for (terms, relation, rhs) in rows {
            m.add_constraint(terms, relation, rhs).unwrap();
        }
        let mut arena = NodeArena::new();
        let (lower, mut upper) = (vec![0.0; 9], vec![1.0; 9]);
        upper[z.index()] = 0.0;
        arena.reconstruct(&lower, &upper, &[]);
        arena.pin_tight_rows(&FlatModel::new(&m));
        let bounds: Vec<(f64, f64)> = arena
            .lower
            .iter()
            .copied()
            .zip(arena.upper.iter().copied())
            .collect();
        assert_eq!(
            bounds,
            [
                (0.0, 0.0),
                (0.0, 0.0),
                (1.0, 1.0),
                (0.0, 0.0),
                (1.0, 1.0),
                (0.0, 1.0),
                (0.0, 0.0),
                (0.0, 1.0),
                (0.0, 0.0),
            ]
        );
    }

    #[test]
    fn set_cover_minimum_area() {
        // The paper-shaped problem: pick IMPs to cover a gain requirement at
        // minimum area. min 3a + 14b + 15c s.t. gains 115a + 41b + 162c >= 150.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective([(a, 3.0), (b, 14.0), (c, 15.0)]);
        m.add_constraint([(a, 115.0), (b, 41.0), (c, 162.0)], Relation::Ge, 150.0)
            .unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        // c alone reaches 162 >= 150 at area 15; a+b costs 17.
        assert_eq!(s.objective.round() as i64, 15);
        assert!(!s.is_set(a) && !s.is_set(b) && s.is_set(c));
    }

    #[test]
    fn infeasible_binary_model() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        m.set_objective([(a, 1.0)]);
        m.add_constraint([(a, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(BranchBound::new().solve(&m), Err(IlpError::Infeasible));
    }

    #[test]
    fn conflict_constraints_respected() {
        // max a + b with a + b <= 1 (SC-PC conflict shape).
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(a, 1.0), (b, 1.0)]);
        m.add_constraint([(a, 1.0), (b, 1.0)], Relation::Le, 1.0)
            .unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        assert_eq!(s.objective.round() as i64, 1);
        assert_eq!(s.value(a).round() as i64 + s.value(b).round() as i64, 1);
    }

    #[test]
    fn mixed_continuous_and_binary() {
        // min 10z + y s.t. y >= 3 - 5z, y >= 0, z binary.
        // z=0 -> y=3 cost 3; z=1 -> y=0 cost 10. Optimum 3.
        let mut m = Model::new(Sense::Minimize);
        let z = m.add_binary("z");
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective([(z, 10.0), (y, 1.0)]);
        m.add_constraint([(y, 1.0), (z, 5.0)], Relation::Ge, 3.0)
            .unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!(!s.is_set(z));
    }

    /// A 12-binary model whose relaxation stays fractional, so one node is
    /// never enough to prove optimality.
    fn tight_budget_model() -> (Model, Vec<VarId>) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.set_objective(vars.iter().map(|&v| (v, 1.0)));
        // Odd-sum style constraint keeps relaxation fractional.
        m.add_constraint(vars.iter().map(|&v| (v, 2.0)), Relation::Le, 11.0)
            .unwrap();
        (m, vars)
    }

    #[test]
    fn node_limit_enforced() {
        let (m, _) = tight_budget_model();
        let solver = BranchBound::new().with_max_nodes(1);
        // One node is enough only if the relaxation happens to be integral;
        // here it is not, so we must hit the limit.
        assert_eq!(solver.solve(&m), Err(IlpError::NodeLimit { limit: 1 }));
    }

    #[test]
    fn run_keeps_incumbent_on_node_limit() {
        // min 2a + 3b s.t. 3a + 5b >= 4. Root LP picks b = 0.8 (fractional),
        // and rounding it up to b = 1 is feasible, so the root already yields
        // an incumbent before the 1-node budget runs out.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(a, 2.0), (b, 3.0)]);
        m.add_constraint([(a, 3.0), (b, 5.0)], Relation::Ge, 4.0)
            .unwrap();
        let run = BranchBound::new().with_max_nodes(1).run(&m, None).unwrap();
        assert_eq!(run.termination, Termination::NodeLimit);
        // The rounding heuristic finds a feasible point at the root, so the
        // incumbent survives budget exhaustion instead of being discarded.
        let sol = run.solution.expect("rounding heuristic seeds an incumbent");
        assert!(m.is_feasible(&sol.values));
        assert_eq!(sol.objective.round() as i64, 3);
        assert_eq!(run.stats.nodes_explored, 1);
    }

    #[test]
    fn deadline_zero_stops_immediately() {
        let (m, _) = tight_budget_model();
        let run = BranchBound::new()
            .with_deadline(Duration::ZERO)
            .run(&m, None)
            .unwrap();
        assert_eq!(run.termination, Termination::Deadline);
        assert_eq!(run.stats.nodes_explored, 0);
        assert!(run.solution.is_none());
    }

    #[test]
    fn deadline_maps_to_error_in_solve() {
        let (m, _) = tight_budget_model();
        let solver = BranchBound::new().with_deadline(Duration::ZERO);
        assert_eq!(solver.solve(&m), Err(IlpError::DeadlineExceeded));
    }

    #[test]
    fn warm_start_seeds_incumbent() {
        let (m, vars) = tight_budget_model();
        // All-zero is feasible (0 <= 11); a valid if weak warm start.
        let warm = vec![0.0; vars.len()];
        let run = BranchBound::new().run(&m, Some(&warm)).unwrap();
        assert!(run.stats.warm_start_accepted);
        assert_eq!(run.termination, Termination::Optimal);
        // Optimum picks 5 variables (2*5 = 10 <= 11).
        let sol = run.solution.unwrap();
        assert_eq!(sol.objective.round() as i64, 5);
    }

    #[test]
    fn infeasible_warm_start_ignored() {
        let (m, vars) = tight_budget_model();
        // All-ones violates the knapsack row (24 > 11).
        let warm = vec![1.0; vars.len()];
        let run = BranchBound::new().run(&m, Some(&warm)).unwrap();
        assert!(!run.stats.warm_start_accepted);
        assert_eq!(run.termination, Termination::Optimal);
    }

    #[test]
    fn run_seeded_takes_best_of_multiple_seeds() {
        let (m, vars) = tight_budget_model();
        // Maximisation: the all-zero seed is feasible but weak (objective 0),
        // the 5-ones seed is the optimum, all-ones is infeasible (skipped).
        let weak = vec![0.0; vars.len()];
        let mut strong = vec![0.0; vars.len()];
        for v in vars.iter().take(5) {
            strong[v.index()] = 1.0;
        }
        let infeasible = vec![1.0; vars.len()];
        let seeded = BranchBound::new()
            .run_seeded(&m, &[infeasible, weak, strong.clone()])
            .unwrap();
        assert!(seeded.stats.warm_start_accepted);
        assert_eq!(seeded.termination, Termination::Optimal);
        // The best seed wins: the run behaves exactly like one warm-started
        // with the strong point alone.
        let single = BranchBound::new().run(&m, Some(&strong)).unwrap();
        assert_eq!(seeded.solution, single.solution);
        assert_eq!(seeded.stats.nodes_explored, single.stats.nodes_explored);
    }

    #[test]
    fn run_seeded_with_no_seeds_matches_cold_run() {
        let (m, _) = tight_budget_model();
        let cold = BranchBound::new().run(&m, None).unwrap();
        let seeded = BranchBound::new().run_seeded(&m, &[]).unwrap();
        assert!(!seeded.stats.warm_start_accepted);
        assert_eq!(cold.solution, seeded.solution);
        assert_eq!(cold.stats.nodes_explored, seeded.stats.nodes_explored);
    }

    #[test]
    fn warm_start_prunes_search() {
        // Seeding the true optimum must not explore more nodes than the cold
        // run, and on this model strictly fewer.
        let (m, vars) = tight_budget_model();
        let cold = BranchBound::new().run(&m, None).unwrap();
        let mut warm_values = vec![0.0; vars.len()];
        for v in vars.iter().take(5) {
            warm_values[v.index()] = 1.0;
        }
        let warm = BranchBound::new().run(&m, Some(&warm_values)).unwrap();
        assert!(warm.stats.warm_start_accepted);
        assert!(
            warm.stats.nodes_explored <= cold.stats.nodes_explored,
            "warm {} > cold {}",
            warm.stats.nodes_explored,
            cold.stats.nodes_explored
        );
    }

    #[test]
    fn root_probing_fixes_vars_and_prunes() {
        // min 10a + 2b + 2c s.t. 3b + 3c >= 4. Optimum is b = c = 1 (obj 4);
        // the root LP is fractional (b = 1, c = 1/3) and rounds down to an
        // infeasible point, so the cold run has to branch its way to an
        // incumbent. Warm-starting with the optimum lets root probing fix
        // both a (flipping it to 1 costs 10 > 4) and b (flipping it to 0 is
        // infeasible), leaving only c to branch on.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective([(a, 10.0), (b, 2.0), (c, 2.0)]);
        m.add_constraint([(b, 3.0), (c, 3.0)], Relation::Ge, 4.0)
            .unwrap();

        let cold = BranchBound::new().run(&m, None).unwrap();
        let warm_point = vec![0.0, 1.0, 1.0];
        let warm = BranchBound::new().run(&m, Some(&warm_point)).unwrap();

        assert!(warm.stats.warm_start_accepted);
        assert!(warm.stats.vars_fixed >= 2, "{:?}", warm.stats);
        assert_eq!(cold.stats.vars_fixed, 0);
        // No equality row and no artificial: every probe is screened or
        // re-solved on the root tableau, none cold.
        let s = &warm.stats;
        assert!(s.probes_screened + s.probes_warm >= 2, "{s:?}");
        assert_eq!(s.probes_cold, 0, "{s:?}");
        assert_eq!(
            (cold.stats.probes_screened, cold.stats.probes_warm),
            (0, 0),
            "no incumbent, no probing"
        );
        let (cs, ws) = (cold.solution.unwrap(), warm.solution.unwrap());
        assert_eq!(cs.objective.round() as i64, 4);
        assert_eq!(ws.objective.round() as i64, 4);
        assert!(
            warm.stats.nodes_explored < cold.stats.nodes_explored,
            "warm {} !< cold {}",
            warm.stats.nodes_explored,
            cold.stats.nodes_explored
        );
    }

    #[test]
    fn stats_reported() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        m.set_objective([(a, 1.0)]);
        m.add_constraint([(a, 1.0)], Relation::Ge, 1.0).unwrap();
        let (s, stats) = BranchBound::new().solve_with_stats(&m).unwrap();
        assert_eq!(s.objective.round() as i64, 1);
        assert!(stats.nodes_explored >= 1);
        assert!(stats.incumbent_updates >= 1);
    }

    #[test]
    fn simplex_ops_threaded_into_stats() {
        let (m, _) = tight_budget_model();
        let run = BranchBound::new().run(&m, None).unwrap();
        let ops = run.stats.simplex_ops;
        assert!(ops.tableau_builds >= 1, "{ops:?}");
        assert!(ops.total_pivots() > 0, "{ops:?}");
        // The search reuses its scratch, so only the first
        // same-or-larger-shape build may allocate.
        assert!(ops.scratch_reuses > 0, "{ops:?}");
    }

    #[test]
    fn no_constraints_picks_bound_values() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(a, 2.0), (b, -3.0)]);
        let s = BranchBound::new().solve(&m).unwrap();
        assert_eq!(s.objective.round() as i64, -3);
        assert!(!s.is_set(a) && s.is_set(b));
    }

    #[test]
    fn tie_break_is_lexicographic() {
        // min a + b s.t. 2a + 2b >= 1: the root LP sits at a fractional
        // vertex (0.5, 0), and branching discovers the two tied optima
        // (1,0) and (0,1) in different subtrees. Because tied nodes are
        // never pruned and the incumbent breaks ties lexicographically, the
        // search must report the lexicographically smallest optimum (0,1).
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(a, 1.0), (b, 1.0)]);
        m.add_constraint([(a, 2.0), (b, 2.0)], Relation::Ge, 1.0)
            .unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        assert_eq!(s.objective.round() as i64, 1);
        assert_eq!(
            (s.value(a).round() as i64, s.value(b).round() as i64),
            (0, 1)
        );
    }

    #[test]
    fn root_basis_chains_across_rhs_patches() {
        // Solve, patch the gain row's RHS, re-solve with the retained root
        // basis: the answer must match the cold solve of the patched model
        // and the reuse must be visible in the stats.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective([(a, 3.0), (b, 14.0), (c, 15.0)]);
        m.add_constraint([(a, 115.0), (b, 41.0), (c, 162.0)], Relation::Ge, 150.0)
            .unwrap();
        let first = BranchBound::new().run_seeded(&m, &[]).unwrap();
        let basis = first.root_basis.clone().expect("root basis retained");

        m.set_constraint_rhs(0, 200.0).unwrap();
        let cold = BranchBound::new().run_seeded(&m, &[]).unwrap();
        let warm = BranchBound::new()
            .with_root_basis(basis)
            .run_seeded(&m, &[])
            .unwrap();
        assert!(warm.stats.basis_reused, "same-shape basis must install");
        assert!(!cold.stats.basis_reused);
        assert_eq!(warm.solution, cold.solution);
        assert_eq!(warm.termination, Termination::Optimal);
        assert!(warm.root_basis.is_some(), "reuse re-exports a basis");
    }

    #[test]
    fn poisoned_root_basis_never_changes_the_answer() {
        let (m, _) = tight_budget_model();
        let cold = BranchBound::new().run_seeded(&m, &[]).unwrap();
        // Wrong shape entirely: rejected at install time, cold path runs.
        let poison = Arc::new(Basis::slack(3, 2));
        let warm = BranchBound::new()
            .with_root_basis(poison)
            .run_seeded(&m, &[])
            .unwrap();
        assert!(!warm.stats.basis_reused);
        assert_eq!(warm.solution, cold.solution);
        assert_eq!(warm.stats.nodes_explored, cold.stats.nodes_explored);
    }
}
