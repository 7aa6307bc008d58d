//! Incremental re-solve: patch the built ILP in place and repair the
//! retained simplex basis instead of re-running formulate + cold
//! branch-and-bound.
//!
//! The paper's exploration loop (§5) is interactive: the designer nudges
//! the required gain and re-solves. The patched problem is the old one with
//! new right-hand sides, and [`DeltaSession`] exploits that at three layers:
//!
//! 1. **Model patching.** The session formulates once through
//!    [`crate::Solver`]'s own formulation, which emits every path's gain row
//!    (even at requirement zero) and records its index. A required-gain
//!    edit then rewrites only those right-hand sides; the patched model is
//!    the model a cold solve of the new requirement builds.
//! 2. **Basis repair.** An RHS patch keeps the previous optimal basis
//!    dual-feasible, so the next root LP re-installs it and runs a handful
//!    of dual-simplex pivots instead of two full primal phases
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
//! selection as a cold [`crate::Solver`] solve of the patched requirement
//! (same lexicographically-smallest optimum; audits clean).
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
//! let second = session.resolve()?; // RHS patch + basis repair
//! assert!(second.total_gain() >= Cycles(500));
//! # let _ = first;
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use partita_mop::Cycles;

use crate::formulate::{build_model, Formulation};
use crate::solver::solve_prepared;
use crate::telemetry::{Event, TelemetrySink};
use crate::{CoreError, ImpDb, Instance, RequiredGains, Selection, SolveOptions, SolveTrace};

/// One incremental edit to a solve session's problem.
#[derive(Debug, Clone)]
pub enum InstanceDelta {
    /// Change the required gains: a pure right-hand-side patch of the
    /// always-emitted gain rows, the edit a descending-RG sweep applies
    /// point after point.
    SetRg(RequiredGains),
}

/// A stateful incremental solve session. See the module docs.
pub struct DeltaSession {
    instance: Arc<Instance>,
    db: Arc<ImpDb>,
    options: SolveOptions,
    form: Formulation,
    /// Retained root-LP basis of the previous resolve.
    basis: Option<Arc<partita_ilp::Basis>>,
    /// Previous optimum, seeded into the next resolve as a warm-start hint.
    prev: Option<Selection>,
    /// Whether the last resolve seeded its predecessor's optimum (`None`
    /// when it had no predecessor to decide on).
    chained: Option<bool>,
    /// Wall time of the formulation not yet charged to a resolve's trace.
    formulation: Duration,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for DeltaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaSession")
            .field("instance", &self.instance.name)
            .field("imps", &self.db.len())
            .field("basis", &self.basis.as_ref().map(|b| b.num_rows()))
            .finish()
    }
}

impl DeltaSession {
    /// Formulates the model for `(instance, db, options)`.
    ///
    /// Both the instance and the database are taken by `Arc` (plain values
    /// convert); the session shares rather than copies them.
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
        let form = build_model(&instance, &db, options.problem, &options.gains)?;
        Ok(DeltaSession {
            instance,
            db,
            options,
            form,
            basis: None,
            prev: None,
            chained: None,
            formulation: started.elapsed(),
            sink: None,
        })
    }

    /// Routes this session's telemetry ([`Event::ChainDecision`] and the
    /// inner solves) to `sink` instead of the process-wide
    /// [`crate::telemetry::global`] sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> DeltaSession {
        self.sink = Some(sink);
        self
    }

    /// The session's instance.
    #[must_use]
    pub fn instance(&self) -> &Arc<Instance> {
        &self.instance
    }

    /// The session's IMP database.
    #[must_use]
    pub fn db(&self) -> &Arc<ImpDb> {
        &self.db
    }

    /// The current solve options (gains reflect applied [`InstanceDelta::SetRg`]s).
    #[must_use]
    pub fn options(&self) -> &SolveOptions {
        &self.options
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

    /// Applies one edit to the session's problem by patching the built
    /// model in place.
    ///
    /// # Errors
    ///
    /// Internal patch errors ([`CoreError::Ilp`]) — e.g. a gain-row index
    /// drifting out of range, which would indicate a bug, not bad input.
    pub fn apply(&mut self, delta: InstanceDelta) -> Result<(), CoreError> {
        let InstanceDelta::SetRg(gains) = delta;
        self.options.gains = gains;
        for &(path, row) in &self.form.gain_rows {
            let rhs = self.options.gains.for_path(path).get() as f64;
            self.form
                .model
                .set_constraint_rhs(row, rhs)
                .map_err(CoreError::Ilp)?;
        }
        Ok(())
    }

    /// Solves the current (patched) problem, reusing the retained basis
    /// and the previous optimum where they help. The returned selection is
    /// identical to a cold [`crate::Solver`] solve of
    /// [`DeltaSession::instance`] + [`DeltaSession::db`] with the current
    /// options (and passes the same audit).
    ///
    /// The previous optimum is seeded only when it meets the current
    /// requirement ([`Selection::verify`]); each such decision is reported
    /// as an [`Event::ChainDecision`]. The wall time of the formulation
    /// [`DeltaSession::new`] built is charged to the first resolve's trace.
    ///
    /// # Errors
    ///
    /// Exactly those of [`crate::Solver::solve`] on the patched problem —
    /// including [`CoreError::Infeasible`] when the edits made it so.
    pub fn resolve(&mut self) -> Result<Selection, CoreError> {
        let mut options = self.options.clone();
        options.root_basis = self.basis.clone();
        self.chained = None;
        if options.hint.is_none() {
            if let Some(prev) = &self.prev {
                // The monotone-sweep argument says a higher-RG optimum stays
                // feasible, but verify independently anyway so an
                // out-of-order walk, a non-uniform requirement or a
                // budget-exhausted predecessor can never inject a bogus
                // incumbent.
                let accepted = prev.verify(&self.instance, &options).is_ok();
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
        let trace = SolveTrace {
            formulation: std::mem::take(&mut self.formulation),
            ..SolveTrace::default()
        };
        let (sel, basis) = solve_prepared(
            &self.instance,
            &self.db,
            &self.form,
            &options,
            trace,
            self.sink(),
        )?;
        if basis.is_some() {
            self.basis = basis;
        }
        self.prev = Some(sel.clone());
        Ok(sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::SelectionAuditor;
    use crate::{Imp, ParallelChoice, SCall, Solver};
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction};
    use partita_mop::{AreaTenths, PathId};

    /// Three fir() s-calls, two alternative IPs with distinct areas, one
    /// path — enough structure for the gain rows to bind.
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

    /// The session's patched model is the model a cold solve builds, step
    /// for step — including a path whose requirement is zero, whose gain
    /// row both formulations keep.
    #[test]
    fn patched_model_equals_cold_formulation() {
        let (mut inst, db) = rig("one-formulation");
        let first = inst.scalls[0].id;
        inst.add_path(vec![first]);
        let per_path = |a: u64, b: u64| {
            RequiredGains::per_path(vec![(PathId(0), Cycles(a)), (PathId(1), Cycles(b))])
        };
        let mut s =
            DeltaSession::new(inst, db, SolveOptions::problem2(per_path(1800, 600))).unwrap();
        let walk = [
            per_path(1200, 0),
            RequiredGains::uniform(Cycles(900)),
            RequiredGains::per_path(vec![(PathId(0), Cycles(600))]),
            RequiredGains::uniform(Cycles::ZERO),
            per_path(0, 900),
        ];
        for gains in walk {
            s.apply(InstanceDelta::SetRg(gains)).unwrap();
            let cold = Solver::new(s.instance())
                .with_imps(Arc::clone(s.db()))
                .formulate(s.options())
                .unwrap();
            assert_eq!(s.form.model, cold, "at {:?}", s.options().gains);
            s.resolve().unwrap();
        }
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
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(2400)));
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
