//! The solver-engine layer: backend choice, budgets, and solve telemetry.
//!
//! [`crate::Solver::solve`] runs the [`Backend`] chosen by
//! [`crate::SolveOptions::backend`], bounded by a [`SolveBudget`]. Budget
//! exhaustion is never silent: every [`crate::Selection`] carries an
//! [`OptimalityStatus`] saying whether the result is proven optimal, the
//! best feasible point an exhausted budget allowed, or a greedy rescue —
//! plus a [`SolveTrace`] recording model dimensions, per-phase wall times and
//! search effort.

use std::fmt;
use std::time::Duration;

use partita_ilp::{Model, Termination};

use crate::formulate::VarMap;
use crate::{ImpDb, ImpId};

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
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Limits on the work a solve is allowed to do.
///
/// What happens when they run out is fixed, not configured: a search that
/// stops with an incumbent answers [`OptimalityStatus::FeasibleBudgetExhausted`];
/// one that stops with none is rescued by greedy
/// ([`OptimalityStatus::FallbackUsed`]), and if greedy finds nothing too it
/// answers [`crate::CoreError::BudgetExhausted`] — never
/// [`crate::CoreError::Infeasible`], which only a completed search proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Branch-and-bound node cap.
    pub max_nodes: usize,
    /// Optional wall-clock deadline, checked once per node.
    pub deadline: Option<Duration>,
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

    /// Does nothing: the branch-and-bound search is serial. Its only
    /// caller is the benchmark harness (`perfbench/src/inputs.rs:187`);
    /// it goes when that harness changes.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> SolveBudget {
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
    /// selection is greedy's rescue.
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
    /// Dual-simplex pivots of root probes.
    pub dual_pivots: usize,
    /// Pivots spent lex-canonicalising optimal root vertices.
    pub lex_pivots: usize,
    /// Simplex tableaus built (one per LP solved at tableau level).
    pub tableau_builds: usize,
    /// Tableau builds that grew none of the simplex scratch's pooled
    /// buffers (rows and their log, dense vectors), so allocated nothing.
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
    /// Always `false`: no solve re-installs a retained root basis.
    /// Kept only because the `perfbench` harness reads it for its
    /// `delta.basis_reused_share` layer row, until a change to that
    /// harness drops the row.
    pub basis_reused: bool,
    /// Time spent generating the IMP database (zero when prebuilt).
    pub imp_generation: Duration,
    /// Time spent building the ILP model.
    pub formulation: Duration,
    /// Time spent in the backend (including any greedy rescue).
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
    fn default_budget_caps_nodes_only() {
        let b = SolveBudget::default();
        assert_eq!(b.max_nodes, 200_000);
        assert!(b.deadline.is_none());
        assert_eq!(b.with_threads(4), b, "the thread shim is inert");
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
            basis_reused: false,
            imp_generation: Duration::from_micros(10),
            formulation: Duration::from_micros(20),
            solve: Duration::from_micros(30),
            decode: Duration::from_micros(40),
        };
        let json = crate::telemetry::Event::SolveFinished { trace }.to_json();
        assert!(json.starts_with("{\"schema\":6,\"event\":\"solve_finished\""));
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
            "\"vars_fixed\":2,\"probes_screened\":3,\"probes_warm\":4,\"probes_cold\":1,\"imp_generation_us\":10,"
        ));
        assert!(!json.contains("basis_reused"));
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
