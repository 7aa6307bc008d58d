//! The solver-engine layer: pluggable backends, budgets with graceful
//! fallback, and solve telemetry.
//!
//! [`crate::Solver::solve`] no longer calls branch-and-bound directly; it
//! dispatches through a [`SolverBackend`] chosen by
//! [`crate::SolveOptions::backend`] and bounded by a [`SolveBudget`]. Budget
//! exhaustion is never silent: every [`crate::Selection`] carries an
//! [`OptimalityStatus`] saying whether the result is proven optimal, the
//! best feasible point a exhausted budget allowed, or a heuristic fallback —
//! plus a [`SolveTrace`] recording model dimensions, per-phase wall times and
//! search effort.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use partita_ilp::{
    run_binary_exhaustive, Basis, BranchBound, BranchBoundStats, Model, Termination, WorkerStats,
};

use crate::formulate::VarMap;
use crate::solver::RequiredGains;
use crate::{CoreError, ImpDb, ImpId, Instance};

/// Which solver backend answers a [`crate::Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Best-first branch-and-bound over the LP relaxation (the default):
    /// proves optimality when its budget suffices.
    #[default]
    BranchBound,
    /// Brute-force enumeration of every binary assignment. Exact but only
    /// viable on small models ([`partita_ilp::MAX_EXHAUSTIVE_BINARIES`]).
    Exhaustive,
    /// The gain/area-ratio greedy heuristic. Fast, never proves optimality.
    Greedy,
}

impl Backend {
    /// Every selectable backend, in documentation/wire order.
    ///
    /// `docs/BACKENDS.md` must describe each entry by its [`Backend::name`]
    /// (a test diffs the doc against this list), and the service API accepts
    /// exactly these names.
    pub const ALL: [Backend; 3] = [Backend::BranchBound, Backend::Exhaustive, Backend::Greedy];

    /// The snake_case name used in telemetry and the service wire format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::BranchBound => "branch_bound",
            Backend::Exhaustive => "exhaustive",
            Backend::Greedy => "greedy",
        }
    }

    /// `true` for backends that prove optimality when they complete within
    /// budget (everything except [`Backend::Greedy`]).
    #[must_use]
    pub fn is_exact(self) -> bool {
        !matches!(self, Backend::Greedy)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Limits on the work a solve is allowed to do, and what to do when they run
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Branch-and-bound node cap.
    pub max_nodes: usize,
    /// Optional wall-clock deadline, checked once per node.
    pub deadline: Option<Duration>,
    /// Backend to fall back to when the budget runs out before *any*
    /// feasible point is found. `None` turns budget exhaustion into
    /// [`CoreError::BudgetExhausted`].
    pub fallback: Option<Backend>,
    /// Worker threads for the branch-and-bound backend (minimum 1). The
    /// default is read once from the `PARTITA_THREADS` environment variable,
    /// falling back to 1 (serial) when unset or unparsable.
    pub threads: usize,
}

/// Reads `PARTITA_THREADS` once; the answer is process-wide.
fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("PARTITA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(1, |t| t.max(1))
    })
}

/// Reads `PARTITA_AUDIT` once; the answer is process-wide. Any value other
/// than empty, `0`, or `false` (case-insensitive) opts every solve into the
/// post-solve [`crate::verify::SelectionAuditor`] pass.
pub(crate) fn default_audit() -> bool {
    static AUDIT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AUDIT.get_or_init(|| {
        std::env::var("PARTITA_AUDIT")
            .map(|v| {
                let v = v.trim();
                !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
            })
            .unwrap_or(false)
    })
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget {
            max_nodes: 200_000,
            deadline: None,
            fallback: Some(Backend::Greedy),
            threads: default_threads(),
        }
    }
}

impl SolveBudget {
    /// Caps the branch-and-bound node count.
    #[must_use]
    pub fn with_max_nodes(mut self, max_nodes: usize) -> SolveBudget {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> SolveBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the fallback backend (`None` disables fallback).
    #[must_use]
    pub fn with_fallback(mut self, fallback: Option<Backend>) -> SolveBudget {
        self.fallback = fallback;
        self
    }

    /// Sets the branch-and-bound worker-thread count (clamped to at least
    /// 1). Results are identical across thread counts for solves that finish
    /// within budget; see the `partita-ilp` branch-and-bound determinism
    /// contract.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SolveBudget {
        self.threads = threads.max(1);
        self
    }
}

/// How much trust a solution deserves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimalityStatus {
    /// The backend proved this selection optimal.
    #[default]
    Optimal,
    /// The budget ran out, but the search had already found this feasible
    /// (not proven optimal) selection — it is the best incumbent seen.
    FeasibleBudgetExhausted,
    /// The primary backend's budget ran out with no feasible point; this
    /// selection comes from the [`SolveBudget::fallback`] backend.
    FallbackUsed,
    /// The caller explicitly picked a heuristic backend; no optimality claim
    /// was ever on the table.
    Heuristic,
}

impl OptimalityStatus {
    /// `true` when the selection is proven optimal.
    #[must_use]
    pub fn is_optimal(self) -> bool {
        self == OptimalityStatus::Optimal
    }
}

/// The one place an ILP-layer [`Termination`] becomes a solution trust
/// level: only a completed search may claim [`OptimalityStatus::Optimal`];
/// node-limit and deadline both downgrade uniformly to
/// [`OptimalityStatus::FeasibleBudgetExhausted`]. Every backend routes
/// through this helper so no backend can invent its own (dishonest) mapping.
pub(crate) fn status_from_termination(termination: Termination) -> OptimalityStatus {
    match termination {
        Termination::Optimal => OptimalityStatus::Optimal,
        Termination::NodeLimit | Termination::Deadline => OptimalityStatus::FeasibleBudgetExhausted,
    }
}

impl fmt::Display for OptimalityStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptimalityStatus::Optimal => "optimal",
            OptimalityStatus::FeasibleBudgetExhausted => "feasible_budget_exhausted",
            OptimalityStatus::FallbackUsed => "fallback_used",
            OptimalityStatus::Heuristic => "heuristic",
        })
    }
}

/// End-to-end telemetry of one [`crate::Solver::solve`] call.
///
/// Durations are wall-clock. A default-constructed trace (all zeros) marks a
/// [`crate::Selection`] that was not produced by the solver pipeline, e.g.
/// one built by a standalone baseline heuristic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveTrace {
    /// Backend that produced the accepted solution.
    pub backend: Backend,
    /// Trust level of the accepted solution.
    pub status: OptimalityStatus,
    /// Decision variables in the ILP model.
    pub num_vars: usize,
    /// Constraints in the ILP model.
    pub num_constraints: usize,
    /// Implementation methods considered.
    pub num_imps: usize,
    /// Branch-and-bound nodes explored (binary assignments for the
    /// exhaustive backend, 0 for greedy).
    pub nodes_explored: usize,
    /// Branch-and-bound nodes pruned by bound.
    pub nodes_pruned: usize,
    /// Times the incumbent improved during the search.
    pub incumbent_updates: usize,
    /// Simplex pivots summed over every node LP.
    pub simplex_iterations: usize,
    /// Phase-1 (feasibility) simplex pivots across every LP of the solve.
    pub phase1_pivots: usize,
    /// Phase-2 (optimality) simplex pivots across every LP of the solve.
    pub phase2_pivots: usize,
    /// Dual-simplex repair pivots (warm-basis installs included).
    pub dual_pivots: usize,
    /// Pivots spent lex-canonicalising optimal root vertices.
    pub lex_pivots: usize,
    /// Simplex tableaus built (one per LP solved at tableau level).
    pub tableau_builds: usize,
    /// Tableau builds that grew none of the simplex scratch's pooled
    /// buffers (row and column lists, dense vectors), so allocated nothing.
    pub scratch_reuses: usize,
    /// Times the simplex entering rule fell back from Dantzig to Bland
    /// inside a degenerate stall.
    pub bland_activations: usize,
    /// Whether a greedy warm start seeded the branch-and-bound incumbent.
    pub warm_start_accepted: bool,
    /// Binaries permanently fixed by warm-start root probing.
    pub vars_fixed: usize,
    /// Root probes settled by the reduced-cost screen, with no LP.
    pub probes_screened: usize,
    /// Root probes re-solved by the dual simplex on the root tableau.
    pub probes_warm: usize,
    /// Root probes solved cold (an equality row or a basic artificial in
    /// the way, or a dual-simplex failure).
    pub probes_cold: usize,
    /// Whether a retained root-LP basis from a previous solve was installed
    /// and dual-repaired instead of running two-phase simplex from scratch.
    pub basis_reused: bool,
    /// Worker threads the branch-and-bound search ran with (1 for serial
    /// and for the non-branch-and-bound backends).
    pub threads: usize,
    /// Nodes explored per worker (one entry per worker; empty for backends
    /// without a worker pool).
    pub worker_nodes: Vec<usize>,
    /// Nodes each worker took from the shared pool instead of its local
    /// dive stack (parallel to [`SolveTrace::worker_nodes`]; all zero for
    /// the serial search, which has no pool).
    pub worker_steals: Vec<usize>,
    /// Time spent generating the IMP database (zero when prebuilt).
    pub imp_generation: Duration,
    /// Time spent building the ILP model.
    pub formulation: Duration,
    /// Time spent in the backend (including any fallback).
    pub solve: Duration,
    /// Time spent decoding the solution into a selection.
    pub decode: Duration,
}

impl SolveTrace {
    /// Total wall time across all recorded phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.imp_generation + self.formulation + self.solve + self.decode
    }
}

/// A backend's answer, in model space: variable values plus the effort it
/// took to find them. [`crate::Solver::solve`] decodes this into a
/// [`crate::Selection`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSolution {
    /// Objective value under the model's own objective.
    pub objective: f64,
    /// Value per model variable.
    pub values: Vec<f64>,
    /// Trust level of this solution.
    pub status: OptimalityStatus,
    /// Search-effort counters (zeroed where a backend has no such notion).
    pub effort: BranchBoundStats,
    /// Root-LP basis retained by the branch-and-bound backend, reusable to
    /// warm-start the next same-shaped solve (`None` for other backends).
    pub root_basis: Option<Arc<Basis>>,
}

/// A pluggable solve strategy over a formulated ILP [`Model`].
///
/// Implementations must return a solution whose `values` satisfy the model's
/// constraints, or an error; budget exhaustion without any feasible point is
/// [`CoreError::BudgetExhausted`] so the dispatcher can try the fallback.
pub trait SolverBackend {
    /// Solves `model` within `budget`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Infeasible`] when the backend proves (or, for
    /// heuristics, concludes) no feasible point exists,
    /// [`CoreError::BudgetExhausted`] when the budget ran out first, plus
    /// ILP-layer errors.
    fn solve(&self, model: &Model, budget: &SolveBudget) -> Result<EngineSolution, CoreError>;
}

/// Branch-and-bound backend, optionally warm-started with known feasible
/// points (see [`crate::SolveOptions::warm_start`] and
/// [`crate::SolveOptions::warm_start_hint`]).
#[derive(Debug, Clone, Default)]
pub struct BranchBoundBackend {
    /// Candidate assignments seeding the incumbent (the best feasible one
    /// wins); infeasible or malformed seeds are ignored.
    pub seeds: Vec<Vec<f64>>,
    /// Retained root-LP basis from a previous same-shaped solve; installed
    /// and dual-repaired at the root, silently falling back to the cold
    /// two-phase path when stale or incompatible.
    pub root_basis: Option<Arc<Basis>>,
}

impl SolverBackend for BranchBoundBackend {
    fn solve(&self, model: &Model, budget: &SolveBudget) -> Result<EngineSolution, CoreError> {
        let mut bb = BranchBound::new()
            .with_max_nodes(budget.max_nodes)
            .with_threads(budget.threads);
        if let Some(d) = budget.deadline {
            bb = bb.with_deadline(d);
        }
        if let Some(basis) = &self.root_basis {
            bb = bb.with_root_basis(basis.clone());
        }
        let run = bb.run_seeded(model, &self.seeds)?;
        let status = status_from_termination(run.termination);
        match run.solution {
            Some(sol) => Ok(EngineSolution {
                objective: sol.objective,
                values: sol.values,
                status,
                effort: run.stats,
                root_basis: run.root_basis,
            }),
            None => Err(CoreError::BudgetExhausted),
        }
    }
}

/// Exhaustive-enumeration backend: exact and budget-aware, only viable on
/// small models ([`partita_ilp::MAX_EXHAUSTIVE_BINARIES`]).
///
/// [`SolveBudget::max_nodes`] caps the enumerated assignments and
/// [`SolveBudget::deadline`] is polled during the sweep; an exhausted budget
/// downgrades honestly through the uniform status mapping — it claims
/// [`OptimalityStatus::Optimal`] only after enumerating *every* assignment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveBackend;

impl SolverBackend for ExhaustiveBackend {
    fn solve(&self, model: &Model, budget: &SolveBudget) -> Result<EngineSolution, CoreError> {
        let run = run_binary_exhaustive(model, budget.max_nodes, budget.deadline)?;
        let status = status_from_termination(run.termination);
        let assignments = run.assignments_checked;
        match run.solution {
            Some(sol) => Ok(EngineSolution {
                objective: sol.objective,
                values: sol.values,
                status,
                root_basis: None,
                effort: BranchBoundStats {
                    nodes_explored: assignments,
                    threads: 1,
                    per_worker: vec![WorkerStats {
                        nodes_explored: assignments,
                        ..WorkerStats::default()
                    }],
                    ..BranchBoundStats::default()
                },
            }),
            // A completed enumeration with no feasible assignment is a
            // proof of infeasibility; a truncated one proves nothing.
            None if run.termination == Termination::Optimal => {
                Err(CoreError::Infeasible { path: None })
            }
            None => Err(CoreError::BudgetExhausted),
        }
    }
}

/// Greedy backend: wraps [`crate::baseline::solve_greedy`] and encodes its
/// selection back into model space so it goes through the same decode and
/// verification path as the exact backends.
///
/// Constructed internally by [`crate::Solver`]; the greedy heuristic needs
/// the instance, IMP database and variable mapping, which only the solver
/// holds.
#[derive(Debug, Clone)]
pub struct GreedyBackend<'a> {
    instance: &'a Instance,
    db: &'a ImpDb,
    gains: &'a RequiredGains,
    map: &'a VarMap,
}

impl<'a> GreedyBackend<'a> {
    pub(crate) fn new(
        instance: &'a Instance,
        db: &'a ImpDb,
        gains: &'a RequiredGains,
        map: &'a VarMap,
    ) -> GreedyBackend<'a> {
        GreedyBackend {
            instance,
            db,
            gains,
            map,
        }
    }
}

impl SolverBackend for GreedyBackend<'_> {
    fn solve(&self, model: &Model, _budget: &SolveBudget) -> Result<EngineSolution, CoreError> {
        let selection = crate::baseline::solve_greedy(self.instance, self.db, self.gains)?;
        let chosen: Vec<ImpId> = selection.chosen().iter().map(|imp| imp.id).collect();
        let values = encode_selection(model, self.map, self.db, &chosen);
        // The greedy heuristic knows nothing about constraints that only
        // exist in the model (power budgets, Problem 1 shape ties); a
        // selection that violates them is a greedy failure, consistent with
        // greedy's documented incompleteness.
        if !model.is_feasible(&values, 1e-6) {
            return Err(CoreError::Infeasible { path: None });
        }
        Ok(EngineSolution {
            objective: model.objective().eval(&values),
            values,
            status: OptimalityStatus::Heuristic,
            root_basis: None,
            effort: BranchBoundStats {
                threads: 1,
                ..BranchBoundStats::default()
            },
        })
    }
}

/// Encodes a set of chosen IMPs as a full model-space assignment: the
/// matching `x` variables and the `z` indicators of every IP they use.
pub(crate) fn encode_selection(
    model: &Model,
    map: &VarMap,
    db: &ImpDb,
    chosen: &[ImpId],
) -> Vec<f64> {
    let mut values = vec![0.0; model.num_vars()];
    for &id in chosen {
        let Some(imp) = db.get(id) else { continue };
        let Some(Some(xv)) = map.x.get(id.index()) else {
            continue;
        };
        values[xv.index()] = 1.0;
        for ip in &imp.ips {
            if let Some(zv) = map.z.get(ip) {
                values[zv.index()] = 1.0;
            }
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_are_snake_case() {
        assert_eq!(Backend::BranchBound.to_string(), "branch_bound");
        assert_eq!(Backend::Exhaustive.to_string(), "exhaustive");
        assert_eq!(Backend::Greedy.to_string(), "greedy");
        assert_eq!(
            OptimalityStatus::FeasibleBudgetExhausted.to_string(),
            "feasible_budget_exhausted"
        );
    }

    #[test]
    fn backend_all_is_complete_and_unique() {
        let mut names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Backend::ALL.len());
        assert!(Backend::ALL.contains(&Backend::default()));
        assert!(Backend::BranchBound.is_exact());
        assert!(Backend::Exhaustive.is_exact());
        assert!(!Backend::Greedy.is_exact());
    }

    #[test]
    fn every_termination_downgrades_honestly() {
        assert_eq!(
            status_from_termination(Termination::Optimal),
            OptimalityStatus::Optimal
        );
        for t in [Termination::NodeLimit, Termination::Deadline] {
            assert_eq!(
                status_from_termination(t),
                OptimalityStatus::FeasibleBudgetExhausted,
                "{t:?} must never map to an optimality claim"
            );
        }
    }

    #[test]
    fn default_budget_falls_back_to_greedy() {
        let b = SolveBudget::default();
        assert_eq!(b.max_nodes, 200_000);
        assert_eq!(b.fallback, Some(Backend::Greedy));
        assert!(b.deadline.is_none());
        assert!(b.threads >= 1);
        assert_eq!(b.with_threads(0).threads, 1);
    }

    #[test]
    fn trace_json_is_well_formed() {
        let trace = SolveTrace {
            backend: Backend::BranchBound,
            status: OptimalityStatus::Optimal,
            num_vars: 7,
            num_constraints: 9,
            num_imps: 4,
            nodes_explored: 3,
            nodes_pruned: 1,
            incumbent_updates: 2,
            simplex_iterations: 42,
            phase1_pivots: 12,
            phase2_pivots: 20,
            dual_pivots: 5,
            lex_pivots: 5,
            tableau_builds: 4,
            scratch_reuses: 3,
            bland_activations: 1,
            warm_start_accepted: true,
            vars_fixed: 2,
            probes_screened: 3,
            probes_warm: 4,
            probes_cold: 1,
            basis_reused: true,
            threads: 2,
            worker_nodes: vec![2, 1],
            worker_steals: vec![1, 1],
            imp_generation: Duration::from_micros(10),
            formulation: Duration::from_micros(20),
            solve: Duration::from_micros(30),
            decode: Duration::from_micros(40),
        };
        let json = crate::telemetry::Event::SolveFinished { trace }.to_json();
        assert!(json.starts_with("{\"schema\":4,\"event\":\"solve_finished\""));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"backend\":\"branch_bound\""));
        assert!(json.contains("\"status\":\"optimal\""));
        assert!(json.contains("\"simplex_iterations\":42"));
        assert!(json.contains("\"phase1_pivots\":12"));
        assert!(json.contains("\"phase2_pivots\":20"));
        assert!(json.contains("\"dual_pivots\":5"));
        assert!(json.contains("\"lex_pivots\":5"));
        assert!(json.contains("\"tableau_builds\":4"));
        assert!(json.contains("\"scratch_reuses\":3"));
        assert!(json.contains("\"bland_activations\":1"));
        assert!(json.contains("\"warm_start_accepted\":true"));
        assert!(json.contains(
            "\"vars_fixed\":2,\"probes_screened\":3,\"probes_warm\":4,\"probes_cold\":1,"
        ));
        assert!(json.contains("\"basis_reused\":true"));
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"worker_nodes\":[2,1]"));
        assert!(json.contains("\"worker_steals\":[1,1]"));
        assert!(json.contains("\"total_us\":100"));
        // Balanced braces and quotes (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn trace_total_sums_phases() {
        let trace = SolveTrace {
            formulation: Duration::from_millis(2),
            solve: Duration::from_millis(3),
            ..SolveTrace::default()
        };
        assert_eq!(trace.total(), Duration::from_millis(5));
    }
}
