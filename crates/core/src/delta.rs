//! Incremental re-solve: patch the built ILP in place and repair the
//! retained simplex basis instead of re-running build + formulate + cold
//! branch-and-bound.
//!
//! The paper's exploration loop (§5) is interactive: the designer nudges
//! one knob — the required gain, the IP library, the admissible interface
//! types — and re-solves. Structurally the patched problem is almost the
//! old one, and [`DeltaSession`] exploits that at three layers:
//!
//! 1. **Model patching.** The session formulates once through the
//!    formulation layer's delta mode: every path's gain row is emitted
//!    (indexed) even at requirement zero, and every IMP keeps a column.
//!    A required-gain edit then touches only right-hand sides; retiring or
//!    restoring IMPs touches only variable bounds. The constraint matrix
//!    never changes shape.
//! 2. **Basis repair.** A shape-stable patch keeps the previous optimal
//!    basis dual-feasible, so the next root LP re-installs it and runs a
//!    handful of dual-simplex pivots instead of two full primal phases
//!    ([`partita_ilp::solve_with_basis`]). A basis the repair cannot use
//!    falls back to a cold factorization — silently, and never to a bogus
//!    "infeasible".
//! 3. **Incumbent seeding.** The previous optimum rides along as a
//!    warm-start hint, pruning the new branch-and-bound from node one —
//!    once it passes an independent feasibility check
//!    ([`Selection::verify`]) against the patched requirement, reported as
//!    an [`Event::ChainDecision`].
//!
//! This is the one warm re-solve path: [`crate::SweepSession::sweep`] walks
//! its RGs through a `DeltaSession`, and so does the solve daemon.
//!
//! None of it changes answers: [`DeltaSession::resolve`] returns the same
//! selection as a cold [`crate::Solver`] solve of the patched instance
//! and database (same lexicographically-smallest optimum; audits clean).
//! Structural edits that do grow the matrix — adding an IP — honestly
//! rebuild instead (see [`InstanceDelta::AddIp`]), as does any mask edit
//! under Problem 1, whose same-way tie rows depend on which IMPs are live.
//!
//! ```
//! use partita_core::{delta::{DeltaSession, InstanceDelta}, ImpDb, Instance,
//!     RequiredGains, SCall, SolveOptions, Solver};
//! use partita_ip::{IpBlock, IpFunction};
//! use partita_interface::TransferJob;
//! use partita_mop::{AreaTenths, Cycles};
//!
//! # fn main() -> Result<(), partita_core::CoreError> {
//! let mut instance = Instance::new("demo");
//! instance.library.add(
//!     IpBlock::builder("fir16").function(IpFunction::Fir)
//!         .rates(4, 4).latency(8)
//!         .area(AreaTenths::from_units(3)).build(),
//! );
//! let sc = instance.add_scall(
//!     SCall::new("fir", IpFunction::Fir, Cycles(4000), TransferJob::new(160, 160)),
//! );
//! instance.add_path(vec![sc]);
//! let db = ImpDb::generate(&instance);
//!
//! let base = SolveOptions::default();
//! let mut session = DeltaSession::new(instance, db, base)?;
//! let first = session.resolve()?;
//! session.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(500))))?;
//! let second = session.resolve()?; // RHS patch + basis repair, not a rebuild
//! assert!(second.total_gain() >= Cycles(500));
//! # let _ = first;
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use partita_interface::InterfaceKind;
use partita_ip::{IpBlock, IpId};
use partita_mop::Cycles;

use crate::formulate::{build_model_delta, DeltaFormulation};
use crate::solver::solve_prepared;
use crate::telemetry::{Event, TelemetrySink};
use crate::{CoreError, ImpDb, Instance, RequiredGains, Selection, SolveOptions, SolveTrace};

/// One incremental edit to a solve session's problem.
#[derive(Debug, Clone)]
pub enum InstanceDelta {
    /// Change the required gains. A pure right-hand-side patch of the
    /// always-emitted gain rows — the cheapest delta, and the one a
    /// descending-RG sweep applies point after point.
    SetRg(RequiredGains),
    /// Remove an IP block from consideration: every IMP using it is
    /// retired (columns pinned to zero). The block itself stays in the
    /// library, so ids, areas and provenance lookups are untouched — it
    /// simply can no longer be selected.
    RemoveIp(IpId),
    /// Add an IP block to the library and generate its IMPs. The matrix
    /// grows columns, so this is the one delta that forces a cold rebuild
    /// of the formulation on the next [`DeltaSession::resolve`].
    AddIp(IpBlock),
    /// Allow (`true`) or ban (`false`) an interface kind: every IMP built
    /// on that kind is restored or retired via bound patches.
    SetInterfaceKind(InterfaceKind, bool),
}

impl InstanceDelta {
    /// The telemetry label of this delta's operation.
    fn op(&self) -> &'static str {
        match self {
            InstanceDelta::SetRg(_) => "set_rg",
            InstanceDelta::RemoveIp(_) => "remove_ip",
            InstanceDelta::AddIp(_) => "add_ip",
            InstanceDelta::SetInterfaceKind(..) => "set_interface_kind",
        }
    }
}

/// A stateful incremental solve session. See the module docs.
pub struct DeltaSession {
    instance: Arc<Instance>,
    db: Arc<ImpDb>,
    options: SolveOptions,
    form: DeltaFormulation,
    /// Retained root-LP basis of the previous resolve.
    basis: Option<Arc<partita_ilp::Basis>>,
    /// Previous optimum, seeded into the next resolve as a warm-start hint.
    prev: Option<Selection>,
    /// Whether the last resolve seeded its predecessor's optimum (`None`
    /// when it had no predecessor to decide on).
    chained: Option<bool>,
    /// Wall time of a formulation not yet charged to a resolve's trace.
    formulation: Duration,
    /// Set by structural deltas; the next resolve reformulates from
    /// scratch and drops the retained basis.
    needs_rebuild: bool,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for DeltaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaSession")
            .field("instance", &self.instance.name)
            .field("imps", &self.db.len())
            .field("active_imps", &self.db.active_len())
            .field("basis", &self.basis.as_ref().map(|b| b.num_rows()))
            .field("needs_rebuild", &self.needs_rebuild)
            .finish()
    }
}

impl DeltaSession {
    /// Formulates the patchable model for `(instance, db, options)`.
    ///
    /// Both the instance and the database are taken by `Arc` (plain values
    /// convert) — the session shares rather than copies them, and only
    /// structural deltas ever clone-on-write.
    ///
    /// # Errors
    ///
    /// Formulation errors, exactly as [`crate::Solver::solve`] would report
    /// them ([`CoreError::NoImps`], [`CoreError::BadPath`], …).
    pub fn new(
        instance: impl Into<Arc<Instance>>,
        db: impl Into<Arc<ImpDb>>,
        options: SolveOptions,
    ) -> Result<DeltaSession, CoreError> {
        let instance = instance.into();
        let db = db.into();
        let started = Instant::now();
        let form = build_model_delta(
            &instance,
            &db,
            options.problem,
            &options.gains,
            options.power_budget_mw,
        )?;
        Ok(DeltaSession {
            instance,
            db,
            options,
            form,
            basis: None,
            prev: None,
            chained: None,
            formulation: started.elapsed(),
            needs_rebuild: false,
            sink: None,
        })
    }

    /// Routes this session's telemetry ([`Event::ModelPatched`],
    /// [`Event::ChainDecision`], [`Event::BasisReused`], and the inner
    /// solves) to `sink` instead of the process-wide
    /// [`crate::telemetry::global`] sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> DeltaSession {
        self.sink = Some(sink);
        self
    }

    /// The current (patched) instance.
    #[must_use]
    pub fn instance(&self) -> &Arc<Instance> {
        &self.instance
    }

    /// The current (patched) IMP database.
    #[must_use]
    pub fn db(&self) -> &Arc<ImpDb> {
        &self.db
    }

    /// The current solve options (gains reflect applied [`InstanceDelta::SetRg`]s).
    #[must_use]
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// `true` when the next [`DeltaSession::resolve`] must reformulate
    /// instead of patching (after [`InstanceDelta::AddIp`], or any mask
    /// edit under Problem 1).
    #[must_use]
    pub fn needs_rebuild(&self) -> bool {
        self.needs_rebuild
    }

    /// Whether the last [`DeltaSession::resolve`] seeded its predecessor's
    /// optimum: `Some(true)` accepted, `Some(false)` rejected by the
    /// feasibility check, `None` when there was no predecessor.
    pub(crate) fn chained(&self) -> Option<bool> {
        self.chained
    }

    fn sink(&self) -> &dyn TelemetrySink {
        crate::telemetry::resolve(self.sink.as_ref())
    }

    fn emit_patch(&self, op: &str, mode: &str, rows_touched: usize, cols_retired: usize) {
        let sink = self.sink();
        if sink.enabled() {
            sink.emit(&Event::ModelPatched {
                instance: self.instance.name.clone(),
                op: op.to_string(),
                mode: mode.to_string(),
                rows_touched,
                cols_retired,
            });
        }
    }

    /// Applies one edit to the session's problem, patching the built model
    /// in place where the matrix shape allows it.
    ///
    /// # Errors
    ///
    /// Internal patch errors ([`CoreError::Ilp`]) — e.g. a gain-row index
    /// drifting out of range, which would indicate a bug, not bad input.
    /// Unknown ids in [`InstanceDelta::RemoveIp`] /
    /// [`InstanceDelta::SetInterfaceKind`] are no-ops, matching how a
    /// cold solve treats an IP nothing references.
    pub fn apply(&mut self, delta: InstanceDelta) -> Result<(), CoreError> {
        let op = delta.op();
        match delta {
            InstanceDelta::SetRg(gains) => {
                self.options.gains = gains;
                let mut rows = 0usize;
                if !self.needs_rebuild {
                    for &(path, row) in &self.form.gain_rows {
                        let rhs = self.options.gains.for_path(path).get() as f64;
                        self.form
                            .model
                            .set_constraint_rhs(row, rhs)
                            .map_err(CoreError::Ilp)?;
                        rows += 1;
                    }
                }
                let mode = if self.needs_rebuild {
                    "rebuild"
                } else {
                    "patch"
                };
                self.emit_patch(op, mode, rows, 0);
            }
            InstanceDelta::RemoveIp(ip) => {
                let ids: Vec<crate::ImpId> = self
                    .db
                    .imps()
                    .iter()
                    .filter(|imp| imp.ips.contains(&ip) && self.db.is_active(imp.id))
                    .map(|imp| imp.id)
                    .collect();
                self.retire_cols(op, &ids, true)?;
            }
            InstanceDelta::AddIp(block) => {
                let inst = Arc::make_mut(&mut self.instance);
                let id = inst.library.add(block);
                let added = Arc::make_mut(&mut self.db).extend_for_ip(&self.instance, id);
                // New columns change the matrix shape: reformulate on the
                // next resolve, and drop the now-incompatible basis early
                // (compatibility would reject it anyway).
                self.needs_rebuild = true;
                self.basis = None;
                self.emit_patch(op, "rebuild", 0, 0);
                let _ = added;
            }
            InstanceDelta::SetInterfaceKind(kind, enabled) => {
                let ids: Vec<crate::ImpId> = self
                    .db
                    .imps()
                    .iter()
                    .filter(|imp| imp.interface == kind && self.db.is_active(imp.id) != enabled)
                    .map(|imp| imp.id)
                    .collect();
                self.retire_cols(op, &ids, !enabled)?;
            }
        }
        Ok(())
    }

    /// Retires (`retire == true`) or restores the given IMPs: mask the
    /// database and patch the matching column bounds. Under Problem 1 the
    /// mask shapes the same-way tie rows, so the patch is demoted to a
    /// rebuild.
    fn retire_cols(
        &mut self,
        op: &str,
        ids: &[crate::ImpId],
        retire: bool,
    ) -> Result<(), CoreError> {
        let db = Arc::make_mut(&mut self.db);
        for &id in ids {
            if retire {
                db.retire(id);
            } else {
                db.restore(id);
            }
        }
        if self.options.problem == crate::ProblemKind::Problem1 && !ids.is_empty() {
            self.needs_rebuild = true;
        }
        let mut cols = 0usize;
        if !self.needs_rebuild {
            let (lo, hi) = if retire { (0.0, 0.0) } else { (0.0, 1.0) };
            for &id in ids {
                if let Some(v) = self.form.map.x[id.index()] {
                    self.form
                        .model
                        .set_var_bounds(v, lo, hi)
                        .map_err(CoreError::Ilp)?;
                    cols += 1;
                }
            }
        }
        // A retired IMP invalidates a previous optimum that used it; keep
        // the hint only while it remains assembled from live IMPs.
        if retire {
            if let Some(prev) = &self.prev {
                if prev.chosen().iter().any(|imp| ids.contains(&imp.id)) {
                    self.prev = None;
                }
            }
        }
        let mode = if self.needs_rebuild {
            "rebuild"
        } else {
            "patch"
        };
        self.emit_patch(op, mode, 0, cols);
        Ok(())
    }

    /// Solves the current (patched) problem, reusing the retained basis
    /// and the previous optimum where they help. The returned selection is
    /// identical to a cold [`crate::Solver`] solve of
    /// [`DeltaSession::instance`] + [`DeltaSession::db`] with the current
    /// options (and passes the same audit).
    ///
    /// The previous optimum is seeded only when every IMP it uses is still
    /// live and it meets the current requirement ([`Selection::verify`]);
    /// each such decision is reported as an [`Event::ChainDecision`]. The
    /// wall time of the formulation this resolve runs on (the one built by
    /// [`DeltaSession::new`], or the rebuild a structural delta forced) is
    /// charged to its trace.
    ///
    /// # Errors
    ///
    /// Exactly those of [`crate::Solver::solve`] on the patched problem —
    /// including [`CoreError::Infeasible`] when the edits made it so.
    pub fn resolve(&mut self) -> Result<Selection, CoreError> {
        if self.needs_rebuild {
            let started = Instant::now();
            self.form = build_model_delta(
                &self.instance,
                &self.db,
                self.options.problem,
                &self.options.gains,
                self.options.power_budget_mw,
            )?;
            self.formulation += started.elapsed();
            self.basis = None;
            self.needs_rebuild = false;
        }
        let mut options = self.options.clone();
        options.root_basis = self.basis.clone();
        self.chained = None;
        if options.hint.is_none() {
            if let Some(prev) = &self.prev {
                // The monotone-sweep argument says a higher-RG optimum stays
                // feasible, but verify independently anyway so an
                // out-of-order walk, a non-uniform requirement or a
                // budget-exhausted predecessor can never inject a bogus
                // incumbent. The active-mask filter skips seeds that use a
                // retired IMP.
                let accepted = prev.chosen().iter().all(|imp| self.db.is_active(imp.id))
                    && prev.verify(&self.instance, &options).is_ok();
                if accepted {
                    options.hint = Some(prev.chosen().iter().map(|imp| imp.id).collect());
                }
                self.chained = Some(accepted);
                let sink = self.sink();
                if sink.enabled() {
                    sink.emit(&Event::ChainDecision {
                        rg: options.gains.as_uniform().map(Cycles::get),
                        accepted,
                    });
                }
            }
        }
        let supplied_rows = options.root_basis.as_ref().map(|b| b.num_rows());
        let trace = SolveTrace {
            formulation: std::mem::take(&mut self.formulation),
            ..SolveTrace::default()
        };
        let (sel, basis) = solve_prepared(
            &self.instance,
            &self.db,
            &self.form.model,
            &self.form.map,
            &options,
            trace,
            self.sink(),
        )?;
        if let Some(rows) = supplied_rows {
            let sink = self.sink();
            if sink.enabled() {
                sink.emit(&Event::BasisReused {
                    accepted: sel.trace.basis_reused,
                    rows,
                });
            }
        }
        if basis.is_some() {
            self.basis = basis;
        }
        self.prev = Some(sel.clone());
        Ok(sel)
    }

    /// Applies a sequence of deltas, then resolves — the common
    /// edit-and-look loop as one call.
    ///
    /// # Errors
    ///
    /// The first [`DeltaSession::apply`] error, else the
    /// [`DeltaSession::resolve`] error.
    pub fn apply_all(
        &mut self,
        deltas: impl IntoIterator<Item = InstanceDelta>,
    ) -> Result<Selection, CoreError> {
        for d in deltas {
            self.apply(d)?;
        }
        self.resolve()
    }
}

/// The uniform required gain a session currently targets, when uniform —
/// a convenience for drivers chaining [`InstanceDelta::SetRg`] sweeps.
impl DeltaSession {
    /// See [`RequiredGains::as_uniform`].
    #[must_use]
    pub fn uniform_rg(&self) -> Option<Cycles> {
        self.options.gains.as_uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::SelectionAuditor;
    use crate::{Imp, ParallelChoice, SCall, Solver};
    use partita_interface::TransferJob;
    use partita_ip::IpFunction;
    use partita_mop::AreaTenths;

    /// Three fir() s-calls, two alternative IPs with distinct areas, one
    /// path — enough structure for every delta kind to bite.
    fn rig(name: &str) -> (Instance, ImpDb) {
        let mut inst = Instance::new(name);
        let cheap = inst.library.add(
            IpBlock::builder("fir_cheap")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let fast = inst.library.add(
            IpBlock::builder("fir_fast")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(5))
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
        let mut imps = Vec::new();
        for &sc in &scs {
            imps.push(Imp::new(
                sc,
                vec![cheap],
                InterfaceKind::Type1,
                Cycles(600),
                AreaTenths::from_tenths(2),
                ParallelChoice::None,
            ));
            imps.push(Imp::new(
                sc,
                vec![fast],
                InterfaceKind::Type3,
                Cycles(900),
                AreaTenths::from_tenths(4),
                ParallelChoice::None,
            ));
        }
        (inst, ImpDb::from_imps(imps))
    }

    /// Cold reference: a fresh solver over the session's current (patched)
    /// instance and database, no hint, no basis.
    fn cold(session: &DeltaSession) -> Selection {
        Solver::new(session.instance())
            .with_imps(Arc::clone(session.db()))
            .solve(session.options())
            .expect("cold reference solve")
    }

    fn assert_matches_cold(sel: &Selection, session: &DeltaSession) {
        let reference = cold(session);
        assert_eq!(sel.chosen(), reference.chosen());
        assert_eq!(sel.total_area(), reference.total_area());
        assert_eq!(sel.status, reference.status);
        SelectionAuditor::new(session.instance(), session.db())
            .audit(sel, session.options())
            .into_result()
            .expect("delta selection audits clean");
    }

    #[test]
    fn set_rg_is_an_rhs_patch_that_matches_cold() {
        let (inst, db) = rig("rg");
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(600))),
        )
        .unwrap();
        let first = s.resolve().unwrap();
        assert_matches_cold(&first, &s);
        for rg in [1200u64, 1800, 2400, 600] {
            s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(rg))))
                .unwrap();
            assert!(!s.needs_rebuild(), "SetRg must stay a patch");
            let sel = s.resolve().unwrap();
            assert!(sel.total_gain() >= Cycles(rg));
            assert_matches_cold(&sel, &s);
        }
    }

    #[test]
    fn chained_rg_patches_reuse_the_basis() {
        let (inst, db) = rig("basis");
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(2400))),
        )
        .unwrap();
        s.resolve().unwrap();
        let mut reused = 0;
        for rg in [1800u64, 1200, 600] {
            s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(rg))))
                .unwrap();
            if s.resolve().unwrap().trace.basis_reused {
                reused += 1;
            }
        }
        assert!(reused >= 1, "no RHS patch repaired the retained basis");
    }

    #[test]
    fn remove_ip_retires_columns_and_matches_cold() {
        let (inst, db) = rig("rm");
        let cheap = inst.library.block_by_name("fir_cheap").unwrap().id();
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(1800))),
        )
        .unwrap();
        // At RG 1800 the area-minimal optimum is all-cheap (3 x 600 exactly).
        let with_cheap = s.resolve().unwrap();
        assert!(with_cheap
            .chosen()
            .iter()
            .any(|imp| imp.ips.contains(&cheap)));
        s.apply(InstanceDelta::RemoveIp(cheap)).unwrap();
        assert!(!s.needs_rebuild(), "RemoveIp must stay a bound patch");
        assert_eq!(s.db().active_len(), 3);
        let without = s.resolve().unwrap();
        assert!(without.chosen().iter().all(|imp| !imp.ips.contains(&cheap)));
        assert_matches_cold(&without, &s);
    }

    #[test]
    fn banned_interface_kind_round_trips() {
        let (inst, db) = rig("kind");
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
        let mut s = DeltaSession::new(inst, db, opts).unwrap();
        let open = s.resolve().unwrap();
        s.apply(InstanceDelta::SetInterfaceKind(InterfaceKind::Type3, false))
            .unwrap();
        let banned = s.resolve().unwrap();
        assert!(banned
            .chosen()
            .iter()
            .all(|imp| imp.interface != InterfaceKind::Type3));
        assert_matches_cold(&banned, &s);
        s.apply(InstanceDelta::SetInterfaceKind(InterfaceKind::Type3, true))
            .unwrap();
        let restored = s.resolve().unwrap();
        assert_eq!(restored.chosen(), open.chosen());
        assert_eq!(restored.total_area(), open.total_area());
        assert_matches_cold(&restored, &s);
    }

    #[test]
    fn add_ip_forces_rebuild_and_matches_cold() {
        let (inst, db) = rig("add");
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(1200))),
        )
        .unwrap();
        s.resolve().unwrap();
        let before = s.db().len();
        s.apply(InstanceDelta::AddIp(
            IpBlock::builder("fir_tiny")
                .function(IpFunction::Fir)
                .rates(4, 4)
                .latency(8)
                .area(AreaTenths::from_units(1))
                .build(),
        ))
        .unwrap();
        assert!(s.needs_rebuild(), "AddIp must rebuild");
        assert!(s.db().len() > before, "new IMPs were generated");
        let sel = s.resolve().unwrap();
        assert!(!s.needs_rebuild(), "rebuild consumed");
        assert_matches_cold(&sel, &s);
    }

    #[test]
    fn resolve_charges_the_formulation_it_ran_on() {
        let (inst, db) = rig("formulation");
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(1200))),
        )
        .unwrap();
        let first = s.resolve().unwrap();
        assert!(
            first.trace.formulation > Duration::ZERO,
            "the first resolve runs on the model new() built"
        );
        s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(600))))
            .unwrap();
        let patched = s.resolve().unwrap();
        assert_eq!(
            patched.trace.formulation,
            Duration::ZERO,
            "an RHS patch formulates nothing"
        );
        s.apply(InstanceDelta::AddIp(
            IpBlock::builder("fir_tiny")
                .function(IpFunction::Fir)
                .rates(4, 4)
                .latency(8)
                .area(AreaTenths::from_units(1))
                .build(),
        ))
        .unwrap();
        let rebuilt = s.resolve().unwrap();
        assert!(
            rebuilt.trace.formulation > Duration::ZERO,
            "the rebuild after AddIp is charged to the resolve that ran it"
        );
    }

    #[test]
    fn carry_is_verified_against_the_patched_requirement() {
        use crate::telemetry::RecordingSink;
        let (inst, db) = rig("carry");
        let sink = Arc::new(RecordingSink::new());
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(600))),
        )
        .unwrap()
        .with_sink(sink.clone() as Arc<dyn TelemetrySink>);
        s.resolve().unwrap();
        assert_eq!(s.chained(), None, "the first resolve has no predecessor");
        // Walking up: the RG-600 optimum cannot meet RG 1800, so the
        // carry is rejected and the answer still matches cold.
        s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(1800))))
            .unwrap();
        let up = s.resolve().unwrap();
        assert_eq!(s.chained(), Some(false));
        assert_matches_cold(&up, &s);
        // Walking down: the RG-1800 optimum meets RG 1200 and is seeded.
        s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(1200))))
            .unwrap();
        let down = s.resolve().unwrap();
        assert_eq!(s.chained(), Some(true));
        assert_matches_cold(&down, &s);
        let decisions: Vec<(Option<u64>, bool)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::ChainDecision { rg, accepted } => Some((rg, accepted)),
                _ => None,
            })
            .collect();
        assert_eq!(decisions, vec![(Some(1800), false), (Some(1200), true)]);
    }

    #[test]
    fn delta_resolve_explores_no_more_nodes_than_cold() {
        let (inst, db) = rig("nodes");
        let mut opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(2400)));
        opts.budget.threads = 1;
        let mut s = DeltaSession::new(inst.clone(), db.clone(), opts.clone()).unwrap();
        s.resolve().unwrap();
        s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(1800))))
            .unwrap();
        let warm = s.resolve().unwrap();
        let mut cold_opts = opts;
        cold_opts.gains = RequiredGains::uniform(Cycles(1800));
        let cold = Solver::new(&inst).with_imps(db).solve(&cold_opts).unwrap();
        assert!(
            warm.trace.nodes_explored <= cold.trace.nodes_explored,
            "warm {} > cold {}",
            warm.trace.nodes_explored,
            cold.trace.nodes_explored
        );
    }

    #[test]
    fn infeasible_patch_reports_infeasible_not_garbage() {
        let (inst, db) = rig("inf");
        let mut s = DeltaSession::new(
            inst,
            db,
            SolveOptions::problem2(RequiredGains::uniform(Cycles(600))),
        )
        .unwrap();
        s.resolve().unwrap();
        s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(
            1_000_000,
        ))))
        .unwrap();
        assert!(matches!(s.resolve(), Err(CoreError::Infeasible { .. })));
        // And the session recovers once the requirement drops back.
        s.apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(600))))
            .unwrap();
        let back = s.resolve().unwrap();
        assert_matches_cold(&back, &s);
    }
}
