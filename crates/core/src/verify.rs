//! Independent selection verification and solver fault injection.
//!
//! PRs 1–3 stacked optimizations onto the selection path — parallel
//! branch-and-bound, warm-start hints, canonical-instance caches — whose
//! correctness was attested only by the solver's own differential corpus.
//! This module adds the missing piece: an oracle that re-checks a
//! [`Selection`] against the paper's constraints *from first principles*,
//! sharing no code with the ILP formulation, the simplex relaxation, or any
//! cache.
//!
//! # The auditor
//!
//! [`SelectionAuditor`] takes the raw [`Instance`], the [`ImpDb`] and a
//! [`Selection`] and re-derives:
//!
//! * **(a) per-path gain** — recomputed from the `partita-interface` timing
//!   model ([`partita_interface::performance_gain`]) when the database is
//!   timing-consistent, otherwise from the stored per-IMP gains — and checked
//!   against every path's required gain (Eq. 2);
//! * **(b) area accounting** — IP sharing (each instantiated IP charged
//!   once, straight from the raw library) and per-selection interface area
//!   (re-derived from [`partita_interface::AreaModel`] for generated
//!   databases);
//! * **(c) conflict constraints** — at most one IMP per s-call (Eq. 1) and
//!   the SC-PC selection rule, cross-checked against
//!   [`crate::sc_pc_conflicts`];
//! * **(d) parallel-code legality** — parallel execution only on interface
//!   types with buffers (types 1/3);
//! * **(e) hierarchy / IMP-flatten consistency** — composite IMPs must be
//!   well-formed, and with [`SelectionAuditor::with_hierarchy`] no chosen
//!   IMP may implement an s-call that was folded into a parent.
//!
//! The result is a structured [`AuditReport`]: a violation list with
//! path/s-call/IP provenance, JSON-serializable alongside
//! [`crate::SolveTrace`] / [`crate::SweepTrace`].
//!
//! The auditor runs automatically after every solve when
//! [`crate::SolveOptions::audit`] is enabled (or the `PARTITA_AUDIT`
//! environment variable is set): a dirty report turns into
//! [`CoreError::AuditFailed`] instead of a silently wrong selection.
//!
//! # Fault injection
//!
//! [`FaultPlan`] deliberately degrades a solve — node-cap exhaustion,
//! deadline expiry, a disabled warm start — and classifies the outcome: every degraded path must still
//! produce an audit-clean feasible selection or a typed error, never a
//! silent infeasible result ([`FaultVerdict::SilentlyWrong`]).

use std::fmt;
use std::time::Duration;

use partita_interface::performance_gain;
use partita_ip::IpId;
use partita_mop::{AreaTenths, CallSiteId, Cycles, PathId};

use crate::hierarchy::HierSpec;
use crate::telemetry::json_escape;
use crate::{
    sc_pc_conflicts, CoreError, Imp, ImpDb, ImpId, Instance, ParallelChoice, ProblemKind,
    Selection, SolveOptions, Solver,
};

/// Tolerance for comparing the ILP objective against the re-derived area:
/// the formulation subtracts a gain tie-break of at most 0.4 area tenths
/// from the objective, so any discrepancy below half a tenth is legitimate
/// while a real accounting error (≥ 1 tenth) is always caught.
const OBJECTIVE_TOL_TENTHS: f64 = 0.45;

/// Which audit dimension a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditCheck {
    /// A chosen IMP is not (or not identical to) a database entry.
    Membership,
    /// Eq. 1: more than one implementation for an s-call, or an unknown
    /// s-call.
    ScUniqueness,
    /// The SC-PC selection rule: an s-call both implemented and consumed as
    /// software parallel code.
    ScPcConflict,
    /// Parallel execution on an interface type without buffers, or a
    /// malformed parallel-code choice.
    ParallelLegality,
    /// Eq. 2: a path's independently recomputed gain misses its requirement.
    PathGain,
    /// A stored per-IMP gain disagrees with the timing model.
    GainDerivation,
    /// A stored per-IMP interface area disagrees with the area model.
    AreaDerivation,
    /// The selection's once-per-IP area bookkeeping is wrong.
    IpAccounting,
    /// The selection's interface-area or per-path-gain bookkeeping is wrong.
    InterfaceAccounting,
    /// A composite IMP is malformed, or a flattened child is implemented
    /// directly.
    HierarchyConsistency,
    /// The ILP objective value disagrees with the re-derived total area.
    ObjectiveConsistency,
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditCheck::Membership => "membership",
            AuditCheck::ScUniqueness => "sc_uniqueness",
            AuditCheck::ScPcConflict => "sc_pc_conflict",
            AuditCheck::ParallelLegality => "parallel_legality",
            AuditCheck::PathGain => "path_gain",
            AuditCheck::GainDerivation => "gain_derivation",
            AuditCheck::AreaDerivation => "area_derivation",
            AuditCheck::IpAccounting => "ip_accounting",
            AuditCheck::InterfaceAccounting => "interface_accounting",
            AuditCheck::HierarchyConsistency => "hierarchy_consistency",
            AuditCheck::ObjectiveConsistency => "objective_consistency",
        })
    }
}

/// One audit violation, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// The check that failed.
    pub check: AuditCheck,
    /// The execution path involved, when identifiable.
    pub path: Option<PathId>,
    /// The s-call involved, when identifiable.
    pub scall: Option<CallSiteId>,
    /// The IMP involved, when identifiable.
    pub imp: Option<ImpId>,
    /// The IP involved, when identifiable.
    pub ip: Option<IpId>,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl AuditViolation {
    fn new(check: AuditCheck, detail: impl Into<String>) -> AuditViolation {
        AuditViolation {
            check,
            path: None,
            scall: None,
            imp: None,
            ip: None,
            detail: detail.into(),
        }
    }

    fn on_path(mut self, path: PathId) -> AuditViolation {
        self.path = Some(path);
        self
    }

    fn on_scall(mut self, scall: CallSiteId) -> AuditViolation {
        self.scall = Some(scall);
        self
    }

    fn on_imp(mut self, imp: ImpId) -> AuditViolation {
        self.imp = Some(imp);
        self
    }

    fn on_ip(mut self, ip: IpId) -> AuditViolation {
        self.ip = Some(ip);
        self
    }

    /// Renders the violation as a JSON object (hand-rolled, matching the
    /// [`crate::telemetry::Event`] rendering style).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn opt(v: Option<String>) -> String {
            v.map_or_else(
                || "null".to_string(),
                |s| format!("\"{}\"", json_escape(&s)),
            )
        }
        format!(
            "{{\"check\":\"{}\",\"path\":{},\"scall\":{},\"imp\":{},\"ip\":{},\"detail\":\"{}\"}}",
            self.check,
            opt(self.path.map(|p| p.to_string())),
            opt(self.scall.map(|s| s.to_string())),
            opt(self.imp.map(|i| i.to_string())),
            opt(self.ip.map(|i| i.to_string())),
            json_escape(&self.detail),
        )
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.check)?;
        if let Some(p) = self.path {
            write!(f, " {p}")?;
        }
        if let Some(s) = self.scall {
            write!(f, " {s}")?;
        }
        if let Some(i) = self.imp {
            write!(f, " {i}")?;
        }
        if let Some(i) = self.ip {
            write!(f, " {i}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The structured result of one audit.
///
/// # Invariants
///
/// * `checks_run` counts audit *dimensions* exercised, not individual
///   assertions; it is independent of whether violations were found.
/// * A clean report ([`AuditReport::is_clean`]) has an empty `violations`
///   vector — the two are never out of sync because cleanliness is defined
///   as that emptiness.
///
/// # Examples
///
/// ```
/// use partita_core::verify::AuditReport;
///
/// let report = AuditReport::default();
/// assert!(report.is_clean());
/// // Clean reports convert into `Ok(())`; dirty ones into
/// // `CoreError::AuditFailed`.
/// assert!(report.into_result().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Every violation found (empty when the selection is clean).
    pub violations: Vec<AuditViolation>,
    /// Number of audit dimensions exercised.
    pub checks_run: usize,
    /// Chosen IMPs examined.
    pub imps_audited: usize,
    /// Execution paths examined.
    pub paths_audited: usize,
    /// `true` when per-IMP gains and interface areas were independently
    /// re-derived from the timing/area models (generated databases);
    /// `false` when the database carries published/calibrated figures the
    /// models cannot reproduce, in which case the audit checks internal
    /// consistency against the stored values instead.
    pub gain_rederived: bool,
}

impl AuditReport {
    /// `true` when no violations were found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Converts the report into a result: clean reports pass, dirty ones
    /// become [`CoreError::AuditFailed`].
    ///
    /// # Errors
    ///
    /// [`CoreError::AuditFailed`] carrying the violation count and the JSON
    /// rendering of this report.
    pub fn into_result(self) -> Result<(), CoreError> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(CoreError::AuditFailed {
                violations: self.violations.len(),
                report: self.to_json(),
            })
        }
    }

    /// Renders the report as a single JSON object, suitable for logging next
    /// to [`crate::SolveTrace`] / [`crate::SweepTrace`] lines.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"clean\":{},\"violations\":[{}],\"checks_run\":{},",
                "\"imps_audited\":{},\"paths_audited\":{},\"gain_rederived\":{}}}"
            ),
            self.is_clean(),
            self.violations
                .iter()
                .map(AuditViolation::to_json)
                .collect::<Vec<_>>()
                .join(","),
            self.checks_run,
            self.imps_audited,
            self.paths_audited,
            self.gain_rederived,
        )
    }
}

/// How the auditor treats stored per-IMP gains and interface areas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GainPolicy {
    /// Detect: re-derive strictly when every single-IP IMP in the database
    /// reproduces under the timing/area models, otherwise trust the stored
    /// figures (published/calibrated databases). The default.
    #[default]
    Auto,
    /// Always re-derive; any IMP the models cannot reproduce falls back to
    /// its stored gain, but a reproducible IMP that disagrees is a
    /// violation.
    Rederive,
    /// Always trust the stored figures (internal-consistency audit only).
    Trust,
}

/// The independent selection verifier.
///
/// Construct with the *raw* instance and IMP database — never with anything
/// that has passed through the ILP model or a cache — and call
/// [`SelectionAuditor::audit`].
///
/// ```
/// use partita_core::verify::SelectionAuditor;
/// use partita_core::{ImpDb, Instance, RequiredGains, SCall, SolveOptions, Solver};
/// use partita_ip::{IpBlock, IpFunction};
/// use partita_interface::TransferJob;
/// use partita_mop::{AreaTenths, Cycles};
///
/// # fn main() -> Result<(), partita_core::CoreError> {
/// let mut instance = Instance::new("demo");
/// instance.library.add(
///     IpBlock::builder("fir16").function(IpFunction::Fir)
///         .rates(4, 4).latency(8)
///         .area(AreaTenths::from_units(3)).build(),
/// );
/// let sc = instance.add_scall(
///     SCall::new("fir", IpFunction::Fir, Cycles(4000), TransferJob::new(160, 160)),
/// );
/// instance.add_path(vec![sc]);
/// let db = ImpDb::generate(&instance);
/// let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1000)));
/// let sel = Solver::new(&instance).with_imps(db.clone()).solve(&opts)?;
///
/// let report = SelectionAuditor::new(&instance, &db).audit(&sel, &opts);
/// assert!(report.is_clean(), "{}", report.to_json());
/// assert!(report.gain_rederived); // generated db: gains re-derived from timing
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SelectionAuditor<'a> {
    instance: &'a Instance,
    db: &'a ImpDb,
    hierarchy: &'a [HierSpec],
    policy: GainPolicy,
    sink: Option<&'a dyn crate::telemetry::TelemetrySink>,
}

impl std::fmt::Debug for SelectionAuditor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionAuditor")
            .field("instance", &self.instance)
            .field("db", &self.db)
            .field("hierarchy", &self.hierarchy)
            .field("policy", &self.policy)
            .field("sink", &self.sink.map(|_| "dyn TelemetrySink"))
            .finish()
    }
}

impl<'a> SelectionAuditor<'a> {
    /// Creates an auditor over the raw instance and database.
    #[must_use]
    pub fn new(instance: &'a Instance, db: &'a ImpDb) -> SelectionAuditor<'a> {
        SelectionAuditor {
            instance,
            db,
            hierarchy: &[],
            policy: GainPolicy::Auto,
            sink: None,
        }
    }

    /// Routes this auditor's [`crate::telemetry::Event::AuditFinished`]
    /// event into `sink` instead of the process-wide
    /// [`crate::telemetry::global`] sink. The solver passes its own sink
    /// through here when [`SolveOptions::audit`] is on.
    #[must_use]
    pub fn with_sink(
        mut self,
        sink: &'a dyn crate::telemetry::TelemetrySink,
    ) -> SelectionAuditor<'a> {
        self.sink = Some(sink);
        self
    }

    /// Supplies the hierarchy specs the database was flattened with, so the
    /// audit can reject selections that implement a folded child directly.
    #[must_use]
    pub fn with_hierarchy(mut self, specs: &'a [HierSpec]) -> SelectionAuditor<'a> {
        self.hierarchy = specs;
        self
    }

    /// Overrides the gain/area re-derivation policy.
    #[must_use]
    pub fn with_gain_policy(mut self, policy: GainPolicy) -> SelectionAuditor<'a> {
        self.policy = policy;
        self
    }

    /// Re-derives one IMP's gain from the timing model, or `None` when the
    /// IMP is not reproducible from the instance alone (composite multi-IP
    /// IMPs, unknown s-calls/IPs, infeasible pairings, overflowing cycle
    /// counts).
    fn rederive_gain(&self, imp: &Imp) -> Option<Cycles> {
        let [ip_id] = imp.ips[..] else { return None };
        let sc = self.instance.scall(imp.scall)?;
        let ip = self.instance.library.block(ip_id)?;
        let pc = match &imp.parallel {
            ParallelChoice::None => None,
            ParallelChoice::PlainPc => Some(sc.plain_pc),
            ParallelChoice::SwScalls(consumed) => {
                let mut pc = sc.plain_pc;
                for &j in consumed {
                    pc += self.instance.scall(j)?.sw_cycles;
                }
                Some(pc)
            }
        };
        performance_gain(sc.sw_cycles, ip, imp.interface, sc.job, pc)
            .ok()
            .map(|g| g.scaled(sc.freq))
    }

    /// Re-derives one IMP's interface area from the area model (single-IP
    /// IMPs only; composites sum child interfaces the model cannot see).
    fn rederive_area(&self, imp: &Imp) -> Option<AreaTenths> {
        if imp.ips.len() != 1 {
            return None;
        }
        let sc = self.instance.scall(imp.scall)?;
        Some(
            self.instance
                .area_model
                .interface_area(imp.interface, sc.job)
                .total(),
        )
    }

    /// Resolves [`GainPolicy::Auto`]: strict re-derivation is enabled only
    /// when every reproducible IMP in the database matches the models, i.e.
    /// the database is the product of [`ImpDb::generate`] rather than
    /// published table data.
    fn resolve_policy(&self) -> GainPolicy {
        match self.policy {
            GainPolicy::Auto => {
                let consistent = self.db.imps().iter().all(|imp| {
                    let g_ok = self.rederive_gain(imp).is_none_or(|g| g == imp.gain);
                    let a_ok = self
                        .rederive_area(imp)
                        .is_none_or(|a| a == imp.interface_area);
                    g_ok && a_ok
                });
                if consistent && !self.db.is_empty() {
                    GainPolicy::Rederive
                } else {
                    GainPolicy::Trust
                }
            }
            p => p,
        }
    }

    /// Audits `selection` against the constraints implied by `options`,
    /// re-deriving everything from the raw instance and database.
    #[must_use]
    pub fn audit(&self, selection: &Selection, options: &SolveOptions) -> AuditReport {
        let policy = self.resolve_policy();
        let rederive = policy == GainPolicy::Rederive;
        let mut v: Vec<AuditViolation> = Vec::new();
        let chosen = selection.chosen();

        // (c) Eq. 1 — at most one implementation per s-call, and every
        // chosen IMP must be a verbatim database entry for a real s-call.
        let mut seen: Vec<CallSiteId> = Vec::new();
        for imp in chosen {
            match self.db.get(imp.id) {
                None => v.push(
                    AuditViolation::new(AuditCheck::Membership, "imp id not in the database")
                        .on_imp(imp.id)
                        .on_scall(imp.scall),
                ),
                Some(entry) if entry != imp => v.push(
                    AuditViolation::new(
                        AuditCheck::Membership,
                        "chosen imp differs from its database entry",
                    )
                    .on_imp(imp.id)
                    .on_scall(imp.scall),
                ),
                Some(_) => {}
            }
            if self.instance.scall(imp.scall).is_none() {
                v.push(
                    AuditViolation::new(AuditCheck::ScUniqueness, "imp implements unknown s-call")
                        .on_imp(imp.id)
                        .on_scall(imp.scall),
                );
            }
            if seen.contains(&imp.scall) {
                v.push(
                    AuditViolation::new(AuditCheck::ScUniqueness, "s-call has two implementations")
                        .on_imp(imp.id)
                        .on_scall(imp.scall),
                );
            }
            seen.push(imp.scall);
        }

        // (c) SC-PC selection rule, first-principles: a consumed s-call may
        // not be implemented. Cross-checked against the conflict-pair list.
        for imp in chosen {
            for &consumed in imp.parallel.consumed_scalls() {
                if consumed == imp.scall {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::ScPcConflict,
                            "imp consumes its own s-call as parallel code",
                        )
                        .on_imp(imp.id)
                        .on_scall(imp.scall),
                    );
                }
                if self.instance.scall(consumed).is_none() {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::ScPcConflict,
                            "consumed parallel-code s-call does not exist",
                        )
                        .on_imp(imp.id)
                        .on_scall(consumed),
                    );
                }
                if seen.contains(&consumed) {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::ScPcConflict,
                            "s-call both implemented and consumed as software parallel code",
                        )
                        .on_imp(imp.id)
                        .on_scall(consumed),
                    );
                }
            }
        }
        for pair in sc_pc_conflicts(self.db) {
            let has = |id: ImpId| chosen.iter().any(|i| i.id == id);
            if has(pair.a) && has(pair.b) {
                v.push(
                    AuditViolation::new(
                        AuditCheck::ScPcConflict,
                        "selection contains a database conflict pair",
                    )
                    .on_imp(pair.a),
                );
            }
        }

        // (d) Parallel-code legality: only buffered types (1/3) overlap
        // kernel and IP execution; Problem 1 forbids software parallel code.
        for imp in chosen {
            if imp.parallel != ParallelChoice::None && !imp.interface.supports_parallel() {
                v.push(
                    AuditViolation::new(
                        AuditCheck::ParallelLegality,
                        format!("{} cannot execute parallel code", imp.interface),
                    )
                    .on_imp(imp.id)
                    .on_scall(imp.scall),
                );
            }
            if let ParallelChoice::SwScalls(consumed) = &imp.parallel {
                if consumed.is_empty() {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::ParallelLegality,
                            "software parallel code consumes no s-calls",
                        )
                        .on_imp(imp.id),
                    );
                }
                let mut sorted = consumed.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != consumed.len() {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::ParallelLegality,
                            "software parallel code lists a consumed s-call twice",
                        )
                        .on_imp(imp.id),
                    );
                }
                if options.problem() == ProblemKind::Problem1 {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::ParallelLegality,
                            "problem 1 forbids software-implementation parallel codes",
                        )
                        .on_imp(imp.id)
                        .on_scall(imp.scall),
                    );
                }
            }
        }

        // (a) Per-IMP gain/area re-derivation (strict mode only), and the
        // audit gain used for the path checks.
        let audit_gain = |imp: &Imp| -> Cycles {
            if rederive {
                self.rederive_gain(imp).unwrap_or(imp.gain)
            } else {
                imp.gain
            }
        };
        if rederive {
            for imp in chosen {
                if let Some(g) = self.rederive_gain(imp) {
                    if g != imp.gain {
                        v.push(
                            AuditViolation::new(
                                AuditCheck::GainDerivation,
                                format!(
                                    "stored gain {} but timing model gives {}",
                                    imp.gain.get(),
                                    g.get()
                                ),
                            )
                            .on_imp(imp.id)
                            .on_scall(imp.scall),
                        );
                    }
                }
                if let Some(a) = self.rederive_area(imp) {
                    if a != imp.interface_area {
                        v.push(
                            AuditViolation::new(
                                AuditCheck::AreaDerivation,
                                format!(
                                    "stored interface area {} but area model gives {a}",
                                    imp.interface_area
                                ),
                            )
                            .on_imp(imp.id)
                            .on_scall(imp.scall),
                        );
                    }
                }
            }
        }

        // (a) Eq. 2 — every path's required gain, from independently
        // recomputed per-path sums; plus the selection's own per-path
        // bookkeeping.
        let paths = self.instance.effective_paths();
        for path in &paths {
            let achieved: Cycles = chosen
                .iter()
                .filter(|imp| path.scalls.contains(&imp.scall))
                .map(&audit_gain)
                .sum();
            let required = options.gains().for_path(path.id);
            if achieved < required {
                v.push(
                    AuditViolation::new(
                        AuditCheck::PathGain,
                        format!(
                            "path achieves {} of required {}",
                            achieved.get(),
                            required.get()
                        ),
                    )
                    .on_path(path.id),
                );
            }
            let stored: Cycles = chosen
                .iter()
                .filter(|imp| path.scalls.contains(&imp.scall))
                .map(|imp| imp.gain)
                .sum();
            match selection.gain_per_path.iter().find(|(p, _)| *p == path.id) {
                Some(&(_, recorded)) if recorded != stored => v.push(
                    AuditViolation::new(
                        AuditCheck::InterfaceAccounting,
                        format!(
                            "selection records path gain {} but the chosen imps sum to {}",
                            recorded.get(),
                            stored.get()
                        ),
                    )
                    .on_path(path.id),
                ),
                None => v.push(
                    AuditViolation::new(
                        AuditCheck::InterfaceAccounting,
                        "selection records no gain for this path",
                    )
                    .on_path(path.id),
                ),
                Some(_) => {}
            }
        }

        // (b) Once-per-IP area accounting against the raw library.
        let mut ips: Vec<IpId> = chosen.iter().flat_map(|i| i.ips.iter().copied()).collect();
        ips.sort_unstable();
        ips.dedup();
        let mut ip_area_tenths = 0i64;
        for &ip in &ips {
            match self.instance.library.block(ip) {
                Some(block) => ip_area_tenths += block.area().tenths(),
                None => v.push(
                    AuditViolation::new(AuditCheck::IpAccounting, "chosen ip not in the library")
                        .on_ip(ip),
                ),
            }
        }
        if ip_area_tenths != selection.ip_area.tenths() {
            v.push(AuditViolation::new(
                AuditCheck::IpAccounting,
                format!(
                    "selection records ip area {} but the library sums to {} tenths \
                     over {} distinct ips",
                    selection.ip_area,
                    ip_area_tenths,
                    ips.len()
                ),
            ));
        }
        let if_area_tenths: i64 = chosen.iter().map(|i| i.interface_area.tenths()).sum();
        if if_area_tenths != selection.interface_area.tenths() {
            v.push(AuditViolation::new(
                AuditCheck::InterfaceAccounting,
                format!(
                    "selection records interface area {} but the chosen imps sum to {} tenths",
                    selection.interface_area, if_area_tenths
                ),
            ));
        }
        #[allow(clippy::cast_precision_loss)]
        let total_tenths = (ip_area_tenths + if_area_tenths) as f64;
        if (selection.objective - total_tenths).abs() > OBJECTIVE_TOL_TENTHS {
            v.push(AuditViolation::new(
                AuditCheck::ObjectiveConsistency,
                format!(
                    "objective {} diverges from re-derived total area {} tenths",
                    selection.objective, total_tenths
                ),
            ));
        }

        // (e) Hierarchy / flatten consistency.
        for imp in chosen {
            if imp.ips.is_empty() {
                v.push(
                    AuditViolation::new(
                        AuditCheck::HierarchyConsistency,
                        "imp instantiates no ips",
                    )
                    .on_imp(imp.id)
                    .on_scall(imp.scall),
                );
            }
            let mut dedup = imp.ips.clone();
            dedup.sort_unstable();
            dedup.dedup();
            if dedup.len() != imp.ips.len() {
                v.push(
                    AuditViolation::new(
                        AuditCheck::HierarchyConsistency,
                        "composite imp lists an ip twice",
                    )
                    .on_imp(imp.id)
                    .on_scall(imp.scall),
                );
            }
        }
        for spec in self.hierarchy {
            for &child in &spec.children {
                if let Some(imp) = chosen.iter().find(|i| i.scall == child) {
                    v.push(
                        AuditViolation::new(
                            AuditCheck::HierarchyConsistency,
                            format!(
                                "s-call was folded into {} but is implemented directly",
                                spec.parent
                            ),
                        )
                        .on_imp(imp.id)
                        .on_scall(child),
                    );
                }
            }
        }

        let report = AuditReport {
            violations: v,
            checks_run: 11,
            imps_audited: chosen.len(),
            paths_audited: paths.len(),
            gain_rederived: rederive,
        };
        let sink: &dyn crate::telemetry::TelemetrySink = match self.sink {
            Some(s) => s,
            None => crate::telemetry::global(),
        };
        if sink.enabled() {
            sink.emit(&crate::telemetry::Event::AuditFinished {
                clean: report.is_clean(),
                violations: report.violations.len(),
                checks_run: report.checks_run,
                imps_audited: report.imps_audited,
                paths_audited: report.paths_audited,
                gain_rederived: report.gain_rederived,
            });
        }
        report
    }
}

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Cap branch-and-bound at this many nodes (1 exhausts immediately).
    NodeCap(usize),
    /// Impose this wall-clock deadline (zero expires at the first check).
    Deadline(Duration),
    /// Disable the greedy warm start.
    NoWarmStart,
}

/// How a deliberately degraded solve ended.
#[derive(Debug)]
#[non_exhaustive]
pub enum FaultVerdict {
    /// The solve produced a feasible selection that passed the independent
    /// audit — degradation at worst cost optimality, never correctness.
    Clean(Box<Selection>, AuditReport),
    /// The solve refused with a typed error (infeasible, budget exhausted
    /// with no rescue, …) — an honest failure.
    TypedError(CoreError),
    /// The solve claimed success but the audit found violations: a silent
    /// infeasible result, the failure class this harness exists to catch.
    SilentlyWrong(Box<Selection>, AuditReport),
}

impl FaultVerdict {
    /// `true` unless the solve was silently wrong.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        !matches!(self, FaultVerdict::SilentlyWrong(..))
    }
}

/// A recipe of solver degradations to inject, and the harness that proves
/// they never corrupt results.
///
/// ```
/// use partita_core::verify::FaultPlan;
/// use partita_core::{ImpDb, Instance, RequiredGains, SCall, SolveOptions};
/// use partita_ip::{IpBlock, IpFunction};
/// use partita_interface::TransferJob;
/// use partita_mop::{AreaTenths, Cycles};
///
/// let mut instance = Instance::new("fault-demo");
/// instance.library.add(
///     IpBlock::builder("fir16").function(IpFunction::Fir)
///         .rates(4, 4).latency(8)
///         .area(AreaTenths::from_units(3)).build(),
/// );
/// let sc = instance.add_scall(
///     SCall::new("fir", IpFunction::Fir, Cycles(4000), TransferJob::new(160, 160)),
/// );
/// instance.add_path(vec![sc]);
/// let db = ImpDb::generate(&instance);
/// let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1000)));
///
/// let verdict = FaultPlan::new()
///     .node_cap(1)
///     .without_warm_start()
///     .run(&instance, &db, &opts);
/// assert!(verdict.is_sound());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Injects a branch-and-bound node cap.
    #[must_use]
    pub fn node_cap(mut self, nodes: usize) -> FaultPlan {
        self.faults.push(Fault::NodeCap(nodes));
        self
    }

    /// Injects a wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> FaultPlan {
        self.faults.push(Fault::Deadline(deadline));
        self
    }

    /// Disables the greedy warm start.
    #[must_use]
    pub fn without_warm_start(mut self) -> FaultPlan {
        self.faults.push(Fault::NoWarmStart);
        self
    }

    /// The injected faults, in application order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies the plan to a set of solve options.
    #[must_use]
    pub fn distort(&self, options: &SolveOptions) -> SolveOptions {
        let mut out = options.clone();
        for fault in &self.faults {
            out = match fault {
                Fault::NodeCap(nodes) => {
                    let budget = out.solve_budget().with_max_nodes(*nodes);
                    out.budget(budget)
                }
                Fault::Deadline(deadline) => {
                    let budget = out.solve_budget().with_deadline(*deadline);
                    out.budget(budget)
                }
                Fault::NoWarmStart => out.warm_start(false),
            };
        }
        out
    }

    /// Solves under the distorted options and classifies the outcome.
    ///
    /// The in-solver audit is disabled for the degraded solve so this
    /// harness — not an early error — observes and classifies any
    /// corruption; the audit itself runs here, against the *undistorted*
    /// requirements.
    #[must_use]
    pub fn run(
        &self,
        instance: &Instance,
        db: impl Into<std::sync::Arc<ImpDb>>,
        options: &SolveOptions,
    ) -> FaultVerdict {
        let db = db.into();
        let distorted = self.distort(options).audit(false);
        match Solver::new(instance)
            .with_imps(std::sync::Arc::clone(&db))
            .solve(&distorted)
        {
            Err(e) => FaultVerdict::TypedError(e),
            Ok(sel) => {
                let report = SelectionAuditor::new(instance, &db).audit(&sel, options);
                if report.is_clean() {
                    FaultVerdict::Clean(Box::new(sel), report)
                } else {
                    FaultVerdict::SilentlyWrong(Box::new(sel), report)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::fixtures::{greedy_trap, needs_two_imps};
    use crate::{OptimalityStatus, RequiredGains, SCall};
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction};

    /// A generated-database instance: one fir s-call, one IP, all four
    /// interface kinds feasible.
    fn generated() -> (Instance, ImpDb) {
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
            .with_freq(3)
            .with_plain_pc(Cycles(40)),
        );
        inst.add_path(vec![sc]);
        let db = ImpDb::generate(&inst);
        (inst, db)
    }

    /// A hand-built (calibrated-style) instance: stored gains do not come
    /// from the timing model.
    fn calibrated() -> (Instance, ImpDb) {
        let mut inst = Instance::new("cal");
        let ip = inst.library.add(
            IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let mut scs = Vec::new();
        for _ in 0..3 {
            scs.push(inst.add_scall(SCall::new(
                "fir",
                IpFunction::Fir,
                Cycles(1000),
                TransferJob::new(8, 8),
            )));
        }
        inst.add_path(scs.clone());
        let db = ImpDb::from_imps(
            scs.iter()
                .map(|&sc| {
                    Imp::new(
                        sc,
                        vec![ip],
                        InterfaceKind::Type1,
                        Cycles(600),
                        AreaTenths::from_tenths(2),
                        ParallelChoice::None,
                    )
                })
                .collect(),
        );
        (inst, db)
    }

    fn solve(inst: &Instance, db: &ImpDb, opts: &SolveOptions) -> Selection {
        Solver::new(inst).with_imps(db.clone()).solve(opts).unwrap()
    }

    #[test]
    fn generated_db_audits_clean_with_rederivation() {
        let (inst, db) = generated();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(3000)));
        let sel = solve(&inst, &db, &opts);
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &opts);
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(report.gain_rederived);
        assert_eq!(report.imps_audited, sel.chosen().len());
        assert_eq!(report.paths_audited, 1);
    }

    #[test]
    fn calibrated_db_audits_clean_in_trust_mode() {
        let (inst, db) = calibrated();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
        let sel = solve(&inst, &db, &opts);
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &opts);
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(!report.gain_rederived);
    }

    #[test]
    fn empty_selection_audits_clean() {
        let (inst, db) = calibrated();
        let opts = SolveOptions::default();
        let sel = solve(&inst, &db, &opts);
        assert!(sel.chosen().is_empty());
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &opts);
        assert!(report.is_clean(), "{}", report.to_json());
    }

    #[test]
    fn tampered_gain_is_caught_by_rederivation() {
        let (inst, db) = generated();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(3000)));
        let baseline = solve(&inst, &db, &opts);
        // Inflate the stored gain of the imp the solver picked: the timing
        // model must disagree with the tampered figure.
        let victim = baseline.chosen()[0].id;
        let imps: Vec<Imp> = db
            .imps()
            .iter()
            .map(|i| {
                let mut i = i.clone();
                if i.id == victim {
                    i.gain += Cycles(123);
                }
                i
            })
            .collect();
        let tampered_db = ImpDb::from_imps(imps);
        let sel = solve(&inst, &tampered_db, &opts);
        let report = SelectionAuditor::new(&inst, &tampered_db)
            .with_gain_policy(GainPolicy::Rederive)
            .audit(&sel, &opts);
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == AuditCheck::GainDerivation));
        // Auto mode detects the inconsistency and degrades to trust.
        let auto = SelectionAuditor::new(&inst, &tampered_db).audit(&sel, &opts);
        assert!(!auto.gain_rederived);
    }

    #[test]
    fn missed_requirement_is_a_path_gain_violation() {
        let (inst, db) = calibrated();
        let low = SolveOptions::problem2(RequiredGains::uniform(Cycles(600)));
        let sel = solve(&inst, &db, &low);
        // Audit the low-requirement selection against a 1800 requirement.
        let high = SolveOptions::problem2(RequiredGains::uniform(Cycles(1800)));
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &high);
        let vio = report
            .violations
            .iter()
            .find(|v| v.check == AuditCheck::PathGain)
            .expect("path gain must be violated");
        assert_eq!(vio.path, Some(PathId(0)));
    }

    #[test]
    fn sc_pc_conflict_is_caught() {
        let (inst, _) = calibrated();
        let ip = inst.library.iter().next().unwrap().id();
        let a = CallSiteId(0);
        let b = CallSiteId(1);
        let mk = |sc, par| {
            Imp::new(
                sc,
                vec![ip],
                InterfaceKind::Type1,
                Cycles(500),
                AreaTenths::from_tenths(2),
                par,
            )
        };
        let db = ImpDb::from_imps(vec![
            mk(a, ParallelChoice::SwScalls(vec![b])),
            mk(b, ParallelChoice::None),
        ]);
        // Hand-build an illegal selection: both imps chosen.
        let sel =
            Selection::from_chosen(&inst, db.imps().to_vec(), 34.0, OptimalityStatus::Heuristic);
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &SolveOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == AuditCheck::ScPcConflict));
    }

    #[test]
    fn parallel_code_on_bufferless_type_is_illegal() {
        let (inst, _) = calibrated();
        let ip = inst.library.iter().next().unwrap().id();
        let db = ImpDb::from_imps(vec![Imp::new(
            CallSiteId(0),
            vec![ip],
            InterfaceKind::Type0, // no buffers: no parallel execution
            Cycles(500),
            AreaTenths::from_tenths(2),
            ParallelChoice::PlainPc,
        )]);
        let sel =
            Selection::from_chosen(&inst, db.imps().to_vec(), 32.0, OptimalityStatus::Heuristic);
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &SolveOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == AuditCheck::ParallelLegality));
    }

    #[test]
    fn hierarchy_child_implemented_directly_is_flagged() {
        let (inst, db) = calibrated();
        let specs = vec![HierSpec {
            parent: CallSiteId(0),
            children: vec![CallSiteId(1)],
        }];
        // Choose an imp for the child the flatten should have folded away.
        let child_imp = db.for_scall(CallSiteId(1))[0].clone();
        let sel = Selection::from_chosen(&inst, vec![child_imp], 32.0, OptimalityStatus::Heuristic);
        let report = SelectionAuditor::new(&inst, &db)
            .with_hierarchy(&specs)
            .audit(&sel, &SolveOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == AuditCheck::HierarchyConsistency));
    }

    #[test]
    fn report_json_is_well_formed() {
        let (inst, db) = calibrated();
        let high = SolveOptions::problem2(RequiredGains::uniform(Cycles(999_999)));
        let sel = solve(&inst, &db, &SolveOptions::default());
        let report = SelectionAuditor::new(&inst, &db).audit(&sel, &high);
        assert!(!report.is_clean());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"check\":\"path_gain\""));
        assert!(json.contains("\"path\":\"P0\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
        // into_result carries the rendered report.
        let err = report.into_result().unwrap_err();
        assert!(matches!(err, CoreError::AuditFailed { violations: 1, .. }));
    }

    #[test]
    fn violation_display_carries_provenance() {
        let v = AuditViolation::new(AuditCheck::PathGain, "short by 5")
            .on_path(PathId(2))
            .on_scall(CallSiteId(3));
        let s = v.to_string();
        assert!(s.contains("[path_gain]"));
        assert!(s.contains("P2"));
        assert!(s.contains("sc3"));
        assert!(s.contains("short by 5"));
    }

    #[test]
    fn fault_plan_distorts_options() {
        let opts = SolveOptions::default();
        let plan = FaultPlan::new()
            .node_cap(1)
            .deadline(Duration::ZERO)
            .without_warm_start();
        assert_eq!(plan.faults().len(), 3);
        let d = plan.distort(&opts);
        assert_eq!(d.solve_budget().max_nodes, 1);
        assert_eq!(d.solve_budget().deadline, Some(Duration::ZERO));
        assert!(!d.warm_start_enabled());
    }

    #[test]
    fn degraded_solves_are_sound() {
        let plans = [
            FaultPlan::new().node_cap(1),
            FaultPlan::new().node_cap(1).without_warm_start(),
            FaultPlan::new().deadline(Duration::ZERO),
            FaultPlan::new().node_cap(2),
        ];
        let (inst, db) = needs_two_imps();
        let mut typed_errors = 0;
        for (db, rg) in [(db, 700), (greedy_trap().1, 1000)] {
            let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(rg)));
            for plan in &plans {
                let verdict = plan.run(&inst, db.clone(), &opts);
                assert!(verdict.is_sound(), "{plan:?} produced {verdict:?}");
                if let FaultVerdict::TypedError(e) = &verdict {
                    typed_errors += 1;
                    // Both instances are feasible, and no capped search
                    // completes, so only a budget stop may be reported.
                    assert_eq!(e, &CoreError::BudgetExhausted, "{plan:?}");
                }
            }
        }
        // The trap's capped plans must refuse with a typed error rather
        // than hand back anything unverified.
        assert!(typed_errors >= 2);
    }

    #[test]
    fn fallback_selection_passes_the_audit() {
        let (inst, db) = needs_two_imps();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(700)));
        let verdict = FaultPlan::new()
            .node_cap(1)
            .without_warm_start()
            .run(&inst, &db, &opts);
        match verdict {
            FaultVerdict::Clean(sel, report) => {
                assert_eq!(sel.status, OptimalityStatus::FallbackUsed);
                assert!(report.is_clean());
            }
            other => panic!("expected a clean greedy fallback, got {other:?}"),
        }
    }
}
