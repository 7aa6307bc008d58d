//! The optimal S-instruction selector.

use std::fmt;
use std::sync::Arc;

use partita_mop::{AreaTenths, CallSiteId, Cycles, PathId};

use partita_ilp::{
    run_binary_exhaustive, Basis, BranchBound, BranchBoundStats, IlpSolution, Model, Termination,
};

use crate::engine::{
    encode_selection, status_from_termination, Backend, OptimalityStatus, SolveBudget, SolveTrace,
};
use crate::formulate::{build_model, decode, Formulation, VarMap};
use crate::telemetry::{Event, Phase, SpanTimer, TelemetrySink};
use crate::{CoreError, Imp, ImpDb, ImpId, Instance};

/// Which formulation to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProblemKind {
    /// The restricted formulation: no software-implementation parallel
    /// codes, and s-calls to the same function implemented identically.
    Problem1,
    /// The general formulation with SC-PC conflict constraints.
    #[default]
    Problem2,
}

impl ProblemKind {
    /// The snake_case name used in telemetry events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProblemKind::Problem1 => "problem1",
            ProblemKind::Problem2 => "problem2",
        }
    }
}

impl fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Required performance gains `T_k`, held in canonical form.
///
/// Construction normalizes the specification so *equal requirements compare
/// equal* regardless of how they were written: per-path entries are sorted by
/// path, later duplicates win, zero requirements are dropped, and an
/// all-zero per-path spec collapses to the uniform-zero requirement. This
/// makes `RequiredGains` safe to use as (part of) a solve-cache key — e.g.
/// `per_path([(p, 0)])` equals `uniform(0)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequiredGains(Gains);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Gains {
    /// The same requirement on every execution path (the paper's RG sweep).
    Uniform(Cycles),
    /// Per-path requirements, sorted by path, no zero entries; unlisted
    /// paths require zero.
    PerPath(Vec<(PathId, Cycles)>),
}

impl RequiredGains {
    /// The same requirement on every execution path (the paper's RG sweep).
    #[must_use]
    pub fn uniform(gain: Cycles) -> RequiredGains {
        RequiredGains(Gains::Uniform(gain))
    }

    /// Individual per-path requirements; unlisted paths require zero.
    ///
    /// The entries are canonicalized: sorted by path, with a later entry for
    /// the same path overriding an earlier one, and zero entries dropped (an
    /// unlisted path already requires zero). An empty or all-zero spec is
    /// the uniform-zero requirement.
    #[must_use]
    pub fn per_path(entries: impl IntoIterator<Item = (PathId, Cycles)>) -> RequiredGains {
        let mut canon: Vec<(PathId, Cycles)> = Vec::new();
        for (path, gain) in entries {
            match canon.iter_mut().find(|(p, _)| *p == path) {
                Some(slot) => slot.1 = gain,
                None => canon.push((path, gain)),
            }
        }
        canon.retain(|&(_, g)| g != Cycles::ZERO);
        canon.sort_unstable_by_key(|&(p, _)| p);
        if canon.is_empty() {
            RequiredGains(Gains::Uniform(Cycles::ZERO))
        } else {
            RequiredGains(Gains::PerPath(canon))
        }
    }

    /// The required gain for one path.
    #[must_use]
    pub fn for_path(&self, path: PathId) -> Cycles {
        match &self.0 {
            Gains::Uniform(g) => *g,
            Gains::PerPath(v) => v
                .iter()
                .find(|(p, _)| *p == path)
                .map(|(_, g)| *g)
                .unwrap_or(Cycles::ZERO),
        }
    }

    /// `true` when the same gain is required on every path.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        matches!(self.0, Gains::Uniform(_))
    }

    /// The uniform requirement, when there is one (`None` for genuinely
    /// per-path gains). Used by sweep telemetry to tag points with their RG.
    #[must_use]
    pub fn as_uniform(&self) -> Option<Cycles> {
        match &self.0 {
            Gains::Uniform(g) => Some(*g),
            Gains::PerPath(_) => None,
        }
    }
}

impl Default for RequiredGains {
    fn default() -> Self {
        RequiredGains::uniform(Cycles::ZERO)
    }
}

/// Solve options, built fluently:
///
/// ```
/// use partita_core::{Backend, RequiredGains, SolveBudget, SolveOptions};
/// use partita_mop::Cycles;
///
/// let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1500)))
///     .backend(Backend::BranchBound)
///     .budget(SolveBudget::default().with_max_nodes(10_000));
/// assert_eq!(opts.solve_budget().max_nodes, 10_000);
/// ```
///
/// The fields are not public: construct via [`SolveOptions::problem1`],
/// [`SolveOptions::problem2`] or [`SolveOptions::for_problem`], refine with
/// the fluent setters and read back through the accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveOptions {
    pub(crate) problem: ProblemKind,
    pub(crate) gains: RequiredGains,
    pub(crate) backend: Backend,
    pub(crate) budget: SolveBudget,
    pub(crate) warm_start: bool,
    pub(crate) hint: Option<Vec<ImpId>>,
    pub(crate) audit: bool,
    /// Retained root-LP basis from a previous same-shaped solve (set by the
    /// delta/sweep layers, never by callers directly). Like `hint` and
    /// `audit`, this can never change the returned selection — only the
    /// work done — and is excluded from sweep cache keys.
    pub(crate) root_basis: Option<Arc<partita_ilp::Basis>>,
}

impl SolveOptions {
    fn with_defaults(problem: ProblemKind, gains: RequiredGains) -> SolveOptions {
        SolveOptions {
            problem,
            gains,
            backend: Backend::default(),
            budget: SolveBudget::default(),
            warm_start: true,
            hint: None,
            audit: crate::engine::default_audit(),
            root_basis: None,
        }
    }

    /// Problem 2 (the general formulation, the default) with the given
    /// gains, branch-and-bound backend, default budget and warm-starting
    /// enabled.
    #[must_use]
    pub fn problem2(gains: RequiredGains) -> SolveOptions {
        SolveOptions::with_defaults(ProblemKind::Problem2, gains)
    }

    /// Problem 1 (the restricted formulation) with the given gains and the
    /// same defaults as [`SolveOptions::problem2`].
    #[must_use]
    pub fn problem1(gains: RequiredGains) -> SolveOptions {
        SolveOptions::with_defaults(ProblemKind::Problem1, gains)
    }

    /// Either formulation, picked at runtime (drivers that sweep both).
    #[must_use]
    pub fn for_problem(problem: ProblemKind, gains: RequiredGains) -> SolveOptions {
        SolveOptions::with_defaults(problem, gains)
    }

    /// Switches the solver backend.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> SolveOptions {
        self.backend = backend;
        self
    }

    /// Overrides the solve budget.
    #[must_use]
    pub fn budget(mut self, budget: SolveBudget) -> SolveOptions {
        self.budget = budget;
        self
    }

    /// Enables or disables greedy warm-starting of branch-and-bound (an
    /// infeasible greedy selection is silently skipped; the other backends
    /// ignore this).
    #[must_use]
    pub fn warm_start(mut self, warm_start: bool) -> SolveOptions {
        self.warm_start = warm_start;
        self
    }

    /// Seeds branch-and-bound with a caller-supplied candidate selection as
    /// an extra warm-start incumbent, alongside (not instead of) the greedy
    /// warm start. The sweep layer chains the previous RG point's optimum
    /// through this hook; an infeasible hint is silently skipped, so the
    /// returned selection is never affected — only the search effort.
    #[must_use]
    pub fn warm_start_hint(mut self, chosen: Vec<ImpId>) -> SolveOptions {
        self.hint = Some(chosen);
        self
    }

    /// Which formulation.
    #[must_use]
    pub fn problem(&self) -> ProblemKind {
        self.problem
    }

    /// Required gains.
    #[must_use]
    pub fn gains(&self) -> &RequiredGains {
        &self.gains
    }

    /// Which solver backend answers the call.
    #[must_use]
    pub fn solver_backend(&self) -> Backend {
        self.backend
    }

    /// Work limits.
    #[must_use]
    pub fn solve_budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// Whether greedy warm-starting is enabled.
    #[must_use]
    pub fn warm_start_enabled(&self) -> bool {
        self.warm_start
    }

    /// The caller-supplied warm-start candidate, if any.
    #[must_use]
    pub fn hint(&self) -> Option<&[ImpId]> {
        self.hint.as_deref()
    }

    /// Enables or disables the independent post-solve audit
    /// ([`crate::verify::SelectionAuditor`]): every returned selection is
    /// re-verified against the raw instance and database, and violations
    /// surface as [`CoreError::AuditFailed`]. The default is read once from
    /// the `PARTITA_AUDIT` environment variable (off when unset or `0`).
    #[must_use]
    pub fn audit(mut self, audit: bool) -> SolveOptions {
        self.audit = audit;
        self
    }

    /// Whether the post-solve audit runs.
    #[must_use]
    pub fn audit_enabled(&self) -> bool {
        self.audit
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions::problem2(RequiredGains::default())
    }
}

/// A decoded selection: the chosen IMPs and their cost/gain accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    chosen: Vec<Imp>,
    /// ILP objective value (total area in tenths).
    pub objective: f64,
    /// Area of the instantiated IPs (each counted once).
    pub ip_area: AreaTenths,
    /// Total interface area of the chosen IMPs.
    pub interface_area: AreaTenths,
    /// Achieved gain per execution path.
    pub gain_per_path: Vec<(PathId, Cycles)>,
    /// How much trust this selection deserves (proven optimal, best feasible
    /// under an exhausted budget, greedy rescue, …).
    pub status: OptimalityStatus,
    /// End-to-end solve telemetry. Default-constructed (all zeros) when the
    /// selection was built outside the solver pipeline, e.g. by a standalone
    /// baseline heuristic.
    pub trace: SolveTrace,
}

impl Selection {
    pub(crate) fn from_chosen(
        instance: &Instance,
        chosen: Vec<Imp>,
        objective: f64,
        status: OptimalityStatus,
    ) -> Selection {
        let mut ips: Vec<_> = chosen.iter().flat_map(|i| i.ips.iter().copied()).collect();
        ips.sort_unstable();
        ips.dedup();
        let ip_area: AreaTenths = ips
            .iter()
            .filter_map(|&ip| instance.library.block(ip))
            .map(|b| b.area())
            .sum();
        let interface_area: AreaTenths = chosen.iter().map(|i| i.interface_area).sum();
        let gain_per_path = instance
            .effective_paths()
            .iter()
            .map(|p| {
                let g: Cycles = chosen
                    .iter()
                    .filter(|imp| p.scalls.contains(&imp.scall))
                    .map(|imp| imp.gain)
                    .sum();
                (p.id, g)
            })
            .collect();
        Selection {
            chosen,
            objective,
            ip_area,
            interface_area,
            gain_per_path,
            status,
            trace: SolveTrace::default(),
        }
    }

    /// The chosen IMPs, in s-call order.
    #[must_use]
    pub fn chosen(&self) -> &[Imp] {
        &self.chosen
    }

    /// Total achieved gain **G**: the sum of the chosen IMPs' gains (the
    /// paper's G column).
    #[must_use]
    pub fn total_gain(&self) -> Cycles {
        self.chosen.iter().map(|i| i.gain).sum()
    }

    /// Total area **A** = IP areas (once each) + interface areas.
    #[must_use]
    pub fn total_area(&self) -> AreaTenths {
        self.ip_area + self.interface_area
    }

    /// Number of selected s-calls (the paper's **O** column).
    #[must_use]
    pub fn selected_scall_count(&self) -> usize {
        let mut scs: Vec<CallSiteId> = self.chosen.iter().map(|i| i.scall).collect();
        scs.sort_unstable();
        scs.dedup();
        scs.len()
    }

    /// Number of S-instructions after merging (the paper's **S** column).
    #[must_use]
    pub fn s_instruction_count(&self) -> usize {
        crate::merge::s_instruction_count(&self.chosen)
    }

    /// Independently verifies this selection against the problem's rules:
    /// at most one IMP per s-call (Eq. 1), every path's required gain
    /// (Eq. 2) and the SC-PC selection rule.
    ///
    /// Shares no code with the formulation. The test-suite uses it to
    /// cross-check the ILP solver and the baseline heuristics, and
    /// [`crate::DeltaSession`] uses it to decide whether the previous
    /// optimum may seed the next solve as a warm-start hint.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSelection`] describing the first violation found.
    pub fn verify(&self, instance: &Instance, options: &SolveOptions) -> Result<(), CoreError> {
        // Eq. 1: one implementation per s-call.
        let mut seen: Vec<CallSiteId> = Vec::new();
        for imp in &self.chosen {
            if seen.contains(&imp.scall) {
                return Err(CoreError::InvalidSelection(format!(
                    "{} has two implementations",
                    imp.scall
                )));
            }
            seen.push(imp.scall);
        }
        // SC-PC selection rule: a consumed s-call must not be implemented.
        for imp in &self.chosen {
            for consumed in imp.parallel.consumed_scalls() {
                if seen.contains(consumed) {
                    return Err(CoreError::InvalidSelection(format!(
                        "{consumed} is both implemented and used as software parallel code"
                    )));
                }
            }
        }
        // Eq. 2 per path.
        for path in instance.effective_paths() {
            let required = options.gains.for_path(path.id);
            let achieved: Cycles = self
                .chosen
                .iter()
                .filter(|imp| path.scalls.contains(&imp.scall))
                .map(|imp| imp.gain)
                .sum();
            if achieved < required {
                return Err(CoreError::InvalidSelection(format!(
                    "{} achieves {} of required {}",
                    path.id,
                    achieved.get(),
                    required.get()
                )));
            }
        }
        Ok(())
    }
}

/// The optimal S-instruction generator.
///
/// See the crate docs for a full example.
#[derive(Clone)]
pub struct Solver<'a> {
    instance: &'a Instance,
    imps: Option<Arc<ImpDb>>,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl fmt::Debug for Solver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("instance", &self.instance)
            .field("imps", &self.imps)
            .field("sink", &self.sink.as_ref().map(|_| "dyn TelemetrySink"))
            .finish()
    }
}

impl<'a> Solver<'a> {
    /// Creates a solver for `instance`.
    #[must_use]
    pub fn new(instance: &'a Instance) -> Solver<'a> {
        Solver {
            instance,
            imps: None,
            sink: None,
        }
    }

    /// Supplies a prebuilt IMP database (otherwise [`ImpDb::generate`] is
    /// used). Accepts an owned [`ImpDb`] or an `Arc<ImpDb>` handle — sharing
    /// the handle avoids deep-cloning the database per solve.
    #[must_use]
    pub fn with_imps(mut self, imps: impl Into<Arc<ImpDb>>) -> Solver<'a> {
        self.imps = Some(imps.into());
        self
    }

    /// Routes this solver's telemetry events into `sink` instead of the
    /// process-wide [`crate::telemetry::global`] sink. Telemetry never
    /// affects the returned [`Selection`] — only what is observed.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> Solver<'a> {
        self.sink = Some(sink);
        self
    }

    /// Builds the ILP model this solver would hand to the backend, without
    /// solving it. Exposed so differential harnesses can drive the raw
    /// `partita_ilp` entry points (fresh-allocation vs scratch-reuse, warm
    /// vs cold) against real formulations instead of hand-built toys.
    ///
    /// # Errors
    ///
    /// The same formulation errors as [`Solver::solve`].
    pub fn formulate(&self, options: &SolveOptions) -> Result<partita_ilp::Model, CoreError> {
        let generated;
        let db: &ImpDb = match &self.imps {
            Some(db) => db,
            None => {
                generated = ImpDb::generate(self.instance);
                &generated
            }
        };
        let form = build_model(self.instance, db, options.problem, &options.gains)?;
        Ok(form.model)
    }

    /// Solves through the configured backend (branch-and-bound by default,
    /// which proves optimality when its budget suffices).
    ///
    /// Budget exhaustion is reported, not hidden: the returned selection's
    /// [`Selection::status`] says whether it is proven optimal, the best
    /// feasible incumbent under an exhausted budget, or a greedy rescue.
    /// [`Selection::trace`] carries full solve telemetry.
    ///
    /// # Errors
    ///
    /// [`CoreError::Infeasible`] when a completed search proves no selection
    /// meets the required gains, [`CoreError::BudgetExhausted`] when the
    /// budget runs out with no feasible point and no greedy rescue, plus
    /// formulation errors.
    pub fn solve(&self, options: &SolveOptions) -> Result<Selection, CoreError> {
        let sink = crate::telemetry::resolve(self.sink.as_ref());
        let mut trace = SolveTrace::default();
        if sink.enabled() {
            sink.emit(&Event::SolveStarted {
                instance: self.instance.name.clone(),
                problem: options.problem,
                backend: options.backend,
            });
        }

        let span = SpanTimer::start(Phase::ImpGeneration);
        let generated;
        let db: &ImpDb = match &self.imps {
            Some(db) => db,
            None => {
                generated = ImpDb::generate(self.instance);
                &generated
            }
        };
        trace.imp_generation = span.finish(sink);

        solve_cold(self.instance, db, options, trace, sink)
    }
}

/// Formulate + [`solve_prepared`]: the cold tail of [`Solver::solve`], also
/// entered by the sweep session on a cache miss that does not chain.
pub(crate) fn solve_cold(
    instance: &Instance,
    db: &ImpDb,
    options: &SolveOptions,
    mut trace: SolveTrace,
    sink: &dyn TelemetrySink,
) -> Result<Selection, CoreError> {
    let span = SpanTimer::start(Phase::Formulation);
    let form = build_model(instance, db, options.problem, &options.gains)?;
    trace.formulation = span.finish(sink);
    solve_prepared(instance, db, &form, options, trace, sink).map(|(sel, _)| sel)
}

/// Dispatch + decode over an already-built model: the shared tail of
/// [`solve_cold`], also entered directly by [`crate::DeltaSession`] over its
/// patched model (the trace then carries the formulation time it is
/// charged, if any). Alongside the selection it returns the root-LP basis retained
/// by the branch-and-bound backend, which the delta session installs in its
/// next same-shaped solve.
pub(crate) fn solve_prepared(
    instance: &Instance,
    db: &ImpDb,
    form: &Formulation,
    options: &SolveOptions,
    mut trace: SolveTrace,
    sink: &dyn TelemetrySink,
) -> Result<(Selection, Option<Arc<partita_ilp::Basis>>), CoreError> {
    let (model, map) = (&form.model, &form.map);
    trace.num_vars = model.num_vars();
    trace.num_constraints = model.num_constraints();
    trace.num_imps = db.len();

    let span = SpanTimer::start(Phase::Solve);
    let (ilp_solution, root_basis) = dispatch(instance, db, options, model, map, &mut trace)?;
    trace.solve = span.finish(sink);

    let span = SpanTimer::start(Phase::Decode);
    let chosen_ids = decode(db, map, &ilp_solution);
    let chosen: Vec<Imp> = chosen_ids
        .iter()
        .filter_map(|id| db.get(*id).cloned())
        .collect();
    // The fixed-charge indicators must agree with the decoded IP set.
    if cfg!(debug_assertions) {
        for (&ip, &zv) in &map.z {
            let used = chosen.iter().any(|imp| imp.uses_ip(ip));
            debug_assert!(
                !used || ilp_solution.is_set(zv),
                "indicator for {ip} must be set when the ip is used"
            );
        }
    }
    let mut selection =
        Selection::from_chosen(instance, chosen, ilp_solution.objective, trace.status);
    trace.decode = span.finish(sink);
    selection.trace = trace;
    if options.audit {
        crate::verify::SelectionAuditor::new(instance, db)
            .with_sink(sink)
            .audit(&selection, options)
            .into_result()?;
    }
    if sink.enabled() {
        sink.emit(&Event::SolveFinished {
            trace: selection.trace.clone(),
        });
    }
    Ok((selection, root_basis))
}

/// Seed candidates for the branch-and-bound backend: the caller's hint (e.g.
/// the previous sweep point's optimum) and the greedy selection. Infeasible
/// seeds are skipped inside the search, so seeding never changes the
/// returned optimum — only how much of the tree survives pruning.
fn build_seeds(
    instance: &Instance,
    db: &ImpDb,
    options: &SolveOptions,
    model: &Model,
    map: &VarMap,
) -> Vec<Vec<f64>> {
    let mut seeds: Vec<Vec<f64>> = Vec::new();
    if let Some(hint) = &options.hint {
        seeds.push(encode_selection(model, map, db, hint));
    }
    if options.warm_start {
        if let Ok(sel) = crate::baseline::solve_greedy(instance, db, &options.gains) {
            let ids: Vec<_> = sel.chosen().iter().map(|imp| imp.id).collect();
            seeds.push(encode_selection(model, map, db, &ids));
        }
    }
    seeds
}

/// Routes the solve to the configured backend. A backend that stops on its
/// budget with no incumbent is rescued by greedy; if greedy finds nothing
/// too, the answer is [`CoreError::BudgetExhausted`]. Only a completed
/// search answers [`CoreError::Infeasible`].
///
/// Records the backend that produced the answer, its status and its search
/// effort in `trace`, and returns the model-space solution plus the root-LP
/// basis branch-and-bound retained.
fn dispatch(
    instance: &Instance,
    db: &ImpDb,
    options: &SolveOptions,
    model: &Model,
    map: &VarMap,
    trace: &mut SolveTrace,
) -> Result<(IlpSolution, Option<Arc<Basis>>), CoreError> {
    let budget = &options.budget;
    trace.backend = options.backend;
    let primary = match options.backend {
        Backend::BranchBound => {
            let mut bb = BranchBound::new().with_max_nodes(budget.max_nodes);
            if let Some(d) = budget.deadline {
                bb = bb.with_deadline(d);
            }
            if let Some(basis) = &options.root_basis {
                bb = bb.with_root_basis(basis.clone());
            }
            let run = bb.run_seeded(model, &build_seeds(instance, db, options, model, map))?;
            record_effort(trace, &run.stats);
            trace.status = status_from_termination(run.termination);
            match run.solution {
                Some(sol) => Ok((sol, run.root_basis)),
                None => Err(CoreError::BudgetExhausted),
            }
        }
        Backend::Exhaustive => run_exhaustive(model, budget, trace).map(|sol| (sol, None)),
        Backend::Greedy => {
            run_greedy(instance, db, options, model, map, trace).map(|sol| (sol, None))
        }
    };

    match primary {
        Err(CoreError::BudgetExhausted) => {
            let rescued =
                run_greedy(instance, db, options, model, map, trace).map_err(|e| match e {
                    CoreError::Infeasible { .. } => CoreError::BudgetExhausted,
                    e => e,
                })?;
            trace.backend = Backend::Greedy;
            trace.status = OptimalityStatus::FallbackUsed;
            Ok((rescued, None))
        }
        result => result,
    }
}

/// Enumerates every binary assignment under the node cap and deadline. A
/// completed enumeration with no feasible assignment proves infeasibility;
/// a truncated one proves nothing.
fn run_exhaustive(
    model: &Model,
    budget: &SolveBudget,
    trace: &mut SolveTrace,
) -> Result<IlpSolution, CoreError> {
    let run = run_binary_exhaustive(model, budget.max_nodes, budget.deadline)?;
    record_effort(
        trace,
        &BranchBoundStats {
            nodes_explored: run.assignments_checked,
            ..BranchBoundStats::default()
        },
    );
    trace.status = status_from_termination(run.termination);
    match run.solution {
        Some(sol) => Ok(sol),
        None if run.termination == Termination::Optimal => {
            Err(CoreError::Infeasible { path: None })
        }
        None => Err(CoreError::BudgetExhausted),
    }
}

/// The greedy heuristic, encoded back into model space so it goes through
/// the same decode and audit path as the exact backends. Greedy knows
/// nothing about the one constraint that only exists in the model, the
/// Problem 1 shape tie; a selection that violates it is a greedy failure,
/// consistent with greedy's documented incompleteness.
fn run_greedy(
    instance: &Instance,
    db: &ImpDb,
    options: &SolveOptions,
    model: &Model,
    map: &VarMap,
    trace: &mut SolveTrace,
) -> Result<IlpSolution, CoreError> {
    let selection = crate::baseline::solve_greedy(instance, db, &options.gains)?;
    let chosen: Vec<ImpId> = selection.chosen().iter().map(|imp| imp.id).collect();
    let values = encode_selection(model, map, db, &chosen);
    if !model.is_feasible(&values) {
        return Err(CoreError::Infeasible { path: None });
    }
    record_effort(trace, &BranchBoundStats::default());
    trace.status = OptimalityStatus::Heuristic;
    Ok(IlpSolution {
        objective: model.objective().eval(&values),
        values,
    })
}

/// Copies a backend's search-effort counters into the trace, replacing any
/// left by a primary backend that greedy rescued.
fn record_effort(trace: &mut SolveTrace, effort: &BranchBoundStats) {
    trace.nodes_explored = effort.nodes_explored;
    trace.nodes_pruned = effort.nodes_pruned;
    trace.incumbent_updates = effort.incumbent_updates;
    trace.simplex_iterations = effort.simplex_iterations;
    trace.phase1_pivots = effort.simplex_ops.phase1_pivots;
    trace.phase2_pivots = effort.simplex_ops.phase2_pivots;
    trace.dual_pivots = effort.simplex_ops.dual_pivots;
    trace.lex_pivots = effort.simplex_ops.lex_pivots;
    trace.tableau_builds = effort.simplex_ops.tableau_builds;
    trace.scratch_reuses = effort.simplex_ops.scratch_reuses;
    trace.bland_activations = effort.simplex_ops.bland_activations;
    trace.warm_start_accepted = effort.warm_start_accepted;
    trace.vars_fixed = effort.vars_fixed;
    trace.probes_screened = effort.probes_screened;
    trace.probes_warm = effort.probes_warm;
    trace.probes_cold = effort.probes_cold;
    trace.basis_reused = effort.basis_reused;
}

/// Hand-built instances on which a capped search runs dry, shared by the
/// solver and verify tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::{Imp, ImpDb, Instance, ParallelChoice, SCall};
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction, IpId};
    use partita_mop::{AreaTenths, Cycles};

    /// Two s-calls with one 600-gain IMP each and a 700 requirement: the LP
    /// relaxation sets one x to 1 and the other to 1/6, whose rounding (to
    /// zero) misses the gain row — so a 1-node branch-and-bound run finds no
    /// incumbent and must exhaust its budget.
    pub(crate) fn needs_two_imps() -> (Instance, ImpDb) {
        let mut inst = Instance::new("two-needed");
        let ip = inst.library.add(
            IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(2))
                .build(),
        );
        let a = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            Cycles(1000),
            TransferJob::new(8, 8),
        ));
        let b = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            Cycles(1000),
            TransferJob::new(8, 8),
        ));
        inst.add_path(vec![a, b]);
        let mk = |sc| {
            Imp::new(
                sc,
                vec![ip],
                InterfaceKind::Type1,
                Cycles(600),
                AreaTenths::from_tenths(2),
                ParallelChoice::None,
            )
        };
        let db = ImpDb::from_imps(vec![mk(a), mk(b)]);
        (inst, db)
    }

    /// `needs_two_imps` plus a free IMP for `a` that runs `b` in software as
    /// its parallel code (gain 900). Greedy takes it first for its ratio,
    /// which blocks `b`, and then cannot reach the 1,000 requirement; the
    /// two plain IMPs (1,200) can. The LP relaxation takes the new IMP at
    /// 2/3 and the plain ones at 1/3, which rounds to the new one alone, so
    /// a 1-node run ends with no incumbent.
    pub(crate) fn greedy_trap() -> (Instance, ImpDb) {
        let (inst, mut db) = needs_two_imps();
        let (a, b) = (inst.scalls[0].id, inst.scalls[1].id);
        db.add(Imp::new(
            a,
            vec![IpId(0)],
            InterfaceKind::Type1,
            Cycles(900),
            AreaTenths::ZERO,
            ParallelChoice::SwScalls(vec![b]),
        ));
        (inst, db)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{greedy_trap, needs_two_imps};
    use super::*;
    use crate::{CoreError, ImpDb, ParallelChoice, SCall};
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction, IpId};

    /// A hand-built instance shaped like the paper's Fig. 9: three fir()
    /// calls, one IP; Problem 2 may run one call in software as the parallel
    /// code of another.
    fn three_firs() -> (Instance, ImpDb) {
        let mut inst = Instance::new("fig9");
        let ip = inst.library.add(
            IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let t_sw = Cycles(1000);
        let a = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            t_sw,
            TransferJob::new(8, 8),
        ));
        let b = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            t_sw,
            TransferJob::new(8, 8),
        ));
        let c = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            t_sw,
            TransferJob::new(8, 8),
        ));
        inst.add_path(vec![a, b, c]);
        // Hand-built IMPs: plain IP gains 600 each; IMP for `b` that uses
        // the software fir `c` as parallel code gains 900.
        let mk = |sc, gain, par| {
            crate::Imp::new(
                sc,
                vec![ip],
                InterfaceKind::Type1,
                Cycles(gain),
                AreaTenths::from_tenths(2),
                par,
            )
        };
        let db = ImpDb::from_imps(vec![
            mk(a, 600, ParallelChoice::None),
            mk(b, 600, ParallelChoice::None),
            mk(c, 600, ParallelChoice::None),
            mk(b, 900, ParallelChoice::SwScalls(vec![c])),
        ]);
        (inst, db)
    }

    #[test]
    fn problem2_uses_software_parallel_code() {
        let (inst, db) = three_firs();
        // Requirement 1500: a(600) + b-with-sw-c(900) reaches it with two
        // IMPs; Problem 1 needs all three (1800).
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1500)));
        let p2 = Solver::new(&inst)
            .with_imps(db.clone())
            .solve(&opts)
            .unwrap();
        assert_eq!(p2.chosen().len(), 2);
        assert!(p2
            .chosen()
            .iter()
            .any(|i| matches!(i.parallel, ParallelChoice::SwScalls(_))));

        let p1 = Solver::new(&inst)
            .with_imps(db)
            .solve(&SolveOptions::problem1(RequiredGains::uniform(Cycles(
                1500,
            ))))
            .unwrap();
        assert_eq!(p1.chosen().len(), 3);
        assert!(p1.total_area() > p2.total_area());
    }

    #[test]
    fn sc_pc_conflict_enforced() {
        let (inst, db) = three_firs();
        // Require 2100: cannot take the 900 variant AND implement c (600+600+900
        // violates the conflict), so the only way is 600*3 = 1800 < 2100 or
        // 600 + 900 = 1500 — infeasible either way above 1800.
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(2000)));
        let err = Solver::new(&inst).with_imps(db).solve(&opts).unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
    }

    #[test]
    fn selection_accounting() {
        let (inst, db) = three_firs();
        let sel = Solver::new(&inst)
            .with_imps(db)
            .solve(&SolveOptions::problem2(RequiredGains::uniform(Cycles(
                1200,
            ))))
            .unwrap();
        assert_eq!(sel.ip_area, AreaTenths::from_units(3)); // IP once
        assert_eq!(sel.total_area(), sel.ip_area + sel.interface_area);
        assert!(sel.total_gain().get() >= 1200);
        assert_eq!(sel.gain_per_path.len(), 1);
        assert!(sel.selected_scall_count() <= 3);
        assert!(sel.s_instruction_count() <= sel.selected_scall_count());
    }

    #[test]
    fn generated_db_end_to_end() {
        let mut inst = Instance::new("gen");
        inst.library.add(
            IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .rates(4, 4)
                .latency(8)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let sc = inst.add_scall(
            SCall::new(
                "fir",
                IpFunction::Fir,
                Cycles(5000),
                TransferJob::new(64, 64),
            )
            .with_freq(3),
        );
        inst.add_path(vec![sc]);
        let sel = Solver::new(&inst)
            .solve(&SolveOptions::problem2(RequiredGains::uniform(Cycles(
                1000,
            ))))
            .unwrap();
        assert_eq!(sel.chosen().len(), 1);
        assert_eq!(sel.chosen()[0].ips, vec![IpId(0)]);
        assert!(sel.total_gain().get() >= 1000);
    }

    #[test]
    fn one_node_cap_falls_back_to_greedy() {
        let (inst, db) = needs_two_imps();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(700)))
            .warm_start(false)
            .budget(crate::SolveBudget::default().with_max_nodes(1));
        let sel = Solver::new(&inst).with_imps(db).solve(&opts).unwrap();
        assert_eq!(sel.status, crate::OptimalityStatus::FallbackUsed);
        assert_eq!(sel.trace.backend, crate::Backend::Greedy);
        // The fallback selection is still feasible end to end.
        sel.verify(&inst, &opts).unwrap();
        assert!(sel.total_gain().get() >= 700);
    }

    #[test]
    fn one_node_cap_without_rescue_errors() {
        let (inst, db) = greedy_trap();
        let gains = RequiredGains::uniform(Cycles(1000));
        assert!(matches!(
            crate::baseline::solve_greedy(&inst, &db, &gains),
            Err(CoreError::Infeasible { .. })
        ));
        let proven = Solver::new(&inst)
            .with_imps(db.clone())
            .solve(&SolveOptions::problem2(gains.clone()))
            .unwrap();
        assert_eq!(proven.status, crate::OptimalityStatus::Optimal);
        // Greedy fails, so it neither seeds the warm-started search nor
        // rescues either stop, and neither stop proves infeasibility.
        for warm in [true, false] {
            let opts = SolveOptions::problem2(gains.clone())
                .warm_start(warm)
                .budget(crate::SolveBudget::default().with_max_nodes(1));
            let err = Solver::new(&inst)
                .with_imps(db.clone())
                .solve(&opts)
                .unwrap_err();
            assert_eq!(err, CoreError::BudgetExhausted, "warm start {warm}");
        }
    }

    #[test]
    fn warm_start_survives_budget_exhaustion() {
        // Same 1-node budget, but the greedy warm start seeds a feasible
        // incumbent, so branch-and-bound reports the best incumbent instead
        // of falling back.
        let (inst, db) = needs_two_imps();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(700)))
            .budget(crate::SolveBudget::default().with_max_nodes(1));
        let sel = Solver::new(&inst).with_imps(db).solve(&opts).unwrap();
        assert_eq!(sel.status, crate::OptimalityStatus::FeasibleBudgetExhausted);
        assert!(sel.trace.warm_start_accepted);
        sel.verify(&inst, &opts).unwrap();
    }

    #[test]
    fn exhaustive_backend_matches_branch_bound() {
        let (inst, db) = three_firs();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1500)));
        let bb = Solver::new(&inst)
            .with_imps(db.clone())
            .solve(&opts)
            .unwrap();
        let ex = Solver::new(&inst)
            .with_imps(db)
            .solve(&opts.clone().backend(crate::Backend::Exhaustive))
            .unwrap();
        assert!((bb.objective - ex.objective).abs() < 1e-6);
        assert_eq!(ex.status, crate::OptimalityStatus::Optimal);
        assert_eq!(ex.trace.backend, crate::Backend::Exhaustive);
        // Exhaustive explored every binary assignment of the model.
        assert!(ex.trace.nodes_explored >= 1);
    }

    #[test]
    fn greedy_backend_reports_heuristic_status() {
        let (inst, db) = three_firs();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)))
            .backend(crate::Backend::Greedy);
        let sel = Solver::new(&inst).with_imps(db).solve(&opts).unwrap();
        assert_eq!(sel.status, crate::OptimalityStatus::Heuristic);
        sel.verify(&inst, &opts).unwrap();
    }

    #[test]
    fn trace_is_populated_on_default_solve() {
        let (inst, db) = three_firs();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1500)));
        let sel = Solver::new(&inst).with_imps(db).solve(&opts).unwrap();
        assert_eq!(sel.status, crate::OptimalityStatus::Optimal);
        let t = &sel.trace;
        assert_eq!(t.backend, crate::Backend::BranchBound);
        assert!(t.num_vars > 0 && t.num_constraints > 0 && t.num_imps == 4);
        assert!(t.nodes_explored >= 1);
        assert!(t.simplex_iterations >= 1);
        // The JSON view round-trips the same numbers.
        let json = crate::telemetry::Event::SolveFinished { trace: t.clone() }.to_json();
        assert!(json.contains(&format!("\"nodes_explored\":{}", t.nodes_explored)));
    }

    #[test]
    fn required_gains_canonical_form() {
        use partita_mop::PathId;
        // A zero per-path entry is the same requirement as uniform zero.
        assert_eq!(
            RequiredGains::per_path(vec![(PathId(0), Cycles::ZERO)]),
            RequiredGains::uniform(Cycles::ZERO)
        );
        assert_eq!(RequiredGains::per_path(vec![]), RequiredGains::default());
        // Order-insensitive; a later duplicate wins; zeros are dropped.
        let a = RequiredGains::per_path(vec![
            (PathId(1), Cycles(5)),
            (PathId(0), Cycles(7)),
            (PathId(2), Cycles(3)),
            (PathId(2), Cycles::ZERO),
            (PathId(0), Cycles(9)),
        ]);
        let b = RequiredGains::per_path(vec![(PathId(0), Cycles(9)), (PathId(1), Cycles(5))]);
        assert_eq!(a, b);
        assert!(!a.is_uniform());
        assert_eq!(a.for_path(PathId(0)), Cycles(9));
        assert_eq!(a.for_path(PathId(2)), Cycles::ZERO);
        // Unlisted paths require zero.
        assert_eq!(a.for_path(PathId(17)), Cycles::ZERO);
    }

    #[test]
    fn builder_accessors_round_trip() {
        let opts = SolveOptions::problem1(RequiredGains::uniform(Cycles(42)))
            .backend(crate::Backend::Exhaustive)
            .budget(crate::SolveBudget::default().with_max_nodes(7))
            .warm_start(false)
            .warm_start_hint(vec![ImpId(3)]);
        assert_eq!(opts.problem(), ProblemKind::Problem1);
        assert_eq!(opts.gains(), &RequiredGains::uniform(Cycles(42)));
        assert_eq!(opts.solver_backend(), crate::Backend::Exhaustive);
        assert_eq!(opts.solve_budget().max_nodes, 7);
        assert!(!opts.warm_start_enabled());
        assert_eq!(opts.hint(), Some(&[ImpId(3)][..]));
    }

    #[test]
    fn warm_start_hint_does_not_change_the_selection() {
        let (inst, db) = three_firs();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1500)));
        let cold = Solver::new(&inst)
            .with_imps(db.clone())
            .solve(&opts)
            .unwrap();
        let ids: Vec<ImpId> = cold.chosen().iter().map(|i| i.id).collect();
        // Seeding the known optimum (or garbage) never changes the result.
        for hint in [ids, vec![ImpId(999)]] {
            let hinted = Solver::new(&inst)
                .with_imps(db.clone())
                .solve(&opts.clone().warm_start_hint(hint))
                .unwrap();
            assert_eq!(hinted.chosen(), cold.chosen());
            assert_eq!(hinted.total_area(), cold.total_area());
        }
    }

    #[test]
    fn zero_requirement_selects_nothing() {
        let (inst, db) = three_firs();
        let sel = Solver::new(&inst)
            .with_imps(db)
            .solve(&SolveOptions::default())
            .unwrap();
        assert!(sel.chosen().is_empty());
        assert_eq!(sel.total_area(), AreaTenths::ZERO);
        assert_eq!(sel.total_gain(), Cycles::ZERO);
    }

    use partita_mop::AreaTenths;
}
