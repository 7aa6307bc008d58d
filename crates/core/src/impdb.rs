//! IMP database generation.

use partita_interface::{feasible_kinds, performance_gain, TimingError};
use partita_mop::{CallSiteId, Cycles};

use std::sync::Arc;

use crate::{Imp, ImpId, Instance, ParallelChoice};

/// Resolves a timing-model gain during generation: feasibility was already
/// established by [`feasible_kinds`], so the only expected error is a cycle
/// overflow on an absurdly large job — treat that variant as zero gain (it
/// is simply skipped, since only strictly positive gains enter the
/// database) rather than fabricating a clamped figure.
fn gain_or_zero(result: Result<Cycles, TimingError>) -> Cycles {
    match result {
        Ok(g) => g,
        Err(TimingError::CycleOverflow { .. }) => Cycles::ZERO,
        Err(e) => panic!("kind reported feasible: {e}"),
    }
}

/// The database of implementation methods for every s-call.
///
/// Built either from the instance ([`ImpDb::generate`] — the paper's
/// "data base of IMP_i is built up ... using the MOP list and IP library")
/// or directly from published per-IMP data ([`ImpDb::from_imps`], used to
/// reproduce Tables 1–3 exactly).
///
/// # Retiring IMPs
///
/// An IMP can be *retired* ([`ImpDb::retire`]) instead of removed, so every
/// surviving IMP keeps its id. Retired IMPs stay resident (and visible to
/// [`ImpDb::get`]/[`ImpDb::imps`], so provenance lookups keep working) but
/// disappear from [`ImpDb::for_scall`], and formulation gives them no
/// column. The mask participates in `Debug` and `PartialEq`, so masked and
/// unmasked databases never collide in content-keyed caches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpDb {
    imps: Vec<Imp>,
    per_scall: Vec<Vec<ImpId>>,
    /// `active[i]` gates `ImpId(i)`; parallel to `imps`.
    active: Vec<bool>,
}

impl ImpDb {
    /// Builds a database from explicit IMPs.
    #[must_use]
    pub fn from_imps(imps: Vec<Imp>) -> ImpDb {
        let mut db = ImpDb::default();
        for imp in imps {
            db.add(imp);
        }
        db
    }

    /// Adds one IMP, assigning its id.
    pub fn add(&mut self, mut imp: Imp) -> ImpId {
        let id = ImpId(u32::try_from(self.imps.len()).expect("imp count fits u32"));
        imp.id = id;
        let sc = imp.scall.index();
        if self.per_scall.len() <= sc {
            self.per_scall.resize(sc + 1, Vec::new());
        }
        self.per_scall[sc].push(id);
        self.imps.push(imp);
        self.active.push(true);
        id
    }

    /// Retires an IMP: it keeps its id and stays visible to [`ImpDb::get`],
    /// but no longer appears in [`ImpDb::for_scall`] (and therefore in any
    /// formulation built from this database). Returns `false` for an
    /// unknown id. Idempotent.
    pub fn retire(&mut self, id: ImpId) -> bool {
        match self.active.get_mut(id.index()) {
            Some(a) => {
                *a = false;
                true
            }
            None => false,
        }
    }

    /// Undoes [`ImpDb::retire`]. Returns `false` for an unknown id.
    pub fn restore(&mut self, id: ImpId) -> bool {
        match self.active.get_mut(id.index()) {
            Some(a) => {
                *a = true;
                true
            }
            None => false,
        }
    }

    /// `true` when the IMP exists and has not been retired.
    #[must_use]
    pub fn is_active(&self, id: ImpId) -> bool {
        self.active.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of IMPs that have not been retired.
    #[must_use]
    pub fn active_len(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// All IMPs.
    #[must_use]
    pub fn imps(&self) -> &[Imp] {
        &self.imps
    }

    /// Number of IMPs (the paper reports 42 for the GSM encoder, 27 for the
    /// decoder).
    #[must_use]
    pub fn len(&self) -> usize {
        self.imps.len()
    }

    /// `true` when the database is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.imps.is_empty()
    }

    /// Looks up an IMP.
    #[must_use]
    pub fn get(&self, id: ImpId) -> Option<&Imp> {
        self.imps.get(id.index())
    }

    /// The active (non-retired) IMPs of one s-call.
    #[must_use]
    pub fn for_scall(&self, scall: CallSiteId) -> Vec<&Imp> {
        self.iter_scall(scall).collect()
    }

    /// [`ImpDb::for_scall`] without collecting.
    pub(crate) fn iter_scall(&self, scall: CallSiteId) -> impl Iterator<Item = &Imp> + '_ {
        self.per_scall
            .get(scall.index())
            .into_iter()
            .flatten()
            .filter(|id| self.active[id.index()])
            .map(|id| &self.imps[id.index()])
    }

    /// Generates the database from an instance: for every s-call, every
    /// library IP implementing its function, every feasible interface type,
    /// and every parallel-code choice.
    ///
    /// Parallel-code variants are produced only on interface types that
    /// support concurrent execution (1 and 3), and only when they strictly
    /// improve the gain. Problem 2 variants append software implementations
    /// of the declared candidate s-calls in prefix order (`[j1]`,
    /// `[j1, j2]`, …).
    #[must_use]
    pub fn generate(instance: &Instance) -> ImpDb {
        let mut db = ImpDb::default();
        for sc in &instance.scalls {
            for ip in instance.library.supporting(&sc.function) {
                db.add_variants(instance, sc, ip);
            }
        }
        db
    }

    /// Generates every variant of one (s-call, IP) pairing: each feasible
    /// interface type, plus parallel-code choices where they strictly
    /// improve the gain.
    fn add_variants(&mut self, instance: &Instance, sc: &crate::SCall, ip: &partita_ip::IpBlock) {
        for (kind, _profile) in feasible_kinds(ip) {
            let area = instance.area_model.interface_area(kind, sc.job).total();
            let base = gain_or_zero(performance_gain(sc.sw_cycles, ip, kind, sc.job, None));
            let base_total = base.scaled(sc.freq);
            if base_total > Cycles::ZERO {
                self.add(Imp::new(
                    sc.id,
                    vec![ip.id()],
                    kind,
                    base_total,
                    area,
                    ParallelChoice::None,
                ));
            }
            if !kind.supports_parallel() {
                continue;
            }
            // Plain parallel code.
            let mut best = base_total;
            if sc.plain_pc > Cycles::ZERO {
                let g = gain_or_zero(performance_gain(
                    sc.sw_cycles,
                    ip,
                    kind,
                    sc.job,
                    Some(sc.plain_pc),
                ))
                .scaled(sc.freq);
                if g > best {
                    self.add(Imp::new(
                        sc.id,
                        vec![ip.id()],
                        kind,
                        g,
                        area,
                        ParallelChoice::PlainPc,
                    ));
                    best = g;
                }
            }
            // Problem 2: software implementations of other s-calls
            // appended to the parallel code, one prefix at a time.
            let mut pc = sc.plain_pc;
            let mut consumed = Vec::new();
            for &j in &sc.sw_pc_candidates {
                let Some(other) = instance.scall(j) else {
                    continue;
                };
                pc += other.sw_cycles;
                consumed.push(j);
                let g = gain_or_zero(performance_gain(sc.sw_cycles, ip, kind, sc.job, Some(pc)))
                    .scaled(sc.freq);
                if g > best {
                    self.add(Imp::new(
                        sc.id,
                        vec![ip.id()],
                        kind,
                        g,
                        area,
                        ParallelChoice::SwScalls(consumed.clone()),
                    ));
                    best = g;
                }
            }
        }
    }
}

/// Wraps a borrowed database in a fresh `Arc` by deep-copying it. This is
/// the compatibility path for APIs that take `impl Into<Arc<ImpDb>>`;
/// callers that already hold an `Arc<ImpDb>` should hand over a clone of
/// the handle instead, which copies nothing.
impl From<&ImpDb> for Arc<ImpDb> {
    fn from(db: &ImpDb) -> Arc<ImpDb> {
        Arc::new(db.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCall;
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction};
    use partita_mop::AreaTenths;

    fn fir_block(name: &str, latency: u32) -> IpBlock {
        IpBlock::builder(name)
            .function(IpFunction::Fir)
            .ports(2, 2)
            .rates(4, 4)
            .latency(latency)
            .area(AreaTenths::from_units(3))
            .build()
    }

    fn base_instance() -> Instance {
        let mut inst = Instance::new("t");
        inst.library.add(fir_block("fir_a", 8));
        inst.add_scall(
            SCall::new(
                "fir",
                IpFunction::Fir,
                Cycles(4000),
                TransferJob::new(64, 64),
            )
            .with_freq(2)
            .with_plain_pc(Cycles(100)),
        );
        inst
    }

    #[test]
    fn generates_all_feasible_kinds() {
        let inst = base_instance();
        let db = ImpDb::generate(&inst);
        let kinds: Vec<_> = db.imps().iter().map(|i| i.interface).collect();
        assert!(kinds.contains(&InterfaceKind::Type0));
        assert!(kinds.contains(&InterfaceKind::Type2));
        // Parallel variants exist for buffered kinds.
        assert!(db
            .imps()
            .iter()
            .any(|i| i.interface == InterfaceKind::Type3 && i.parallel == ParallelChoice::PlainPc));
    }

    #[test]
    fn gains_scale_with_frequency() {
        let mut inst = base_instance();
        inst.scalls[0].freq = 1;
        let g1: Cycles = ImpDb::generate(&inst)
            .for_scall(CallSiteId(0))
            .iter()
            .map(|i| i.gain)
            .max()
            .unwrap();
        inst.scalls[0].freq = 3;
        let g3: Cycles = ImpDb::generate(&inst)
            .for_scall(CallSiteId(0))
            .iter()
            .map(|i| i.gain)
            .max()
            .unwrap();
        assert_eq!(g3.get(), g1.get() * 3);
    }

    #[test]
    fn parallel_variant_beats_base() {
        let inst = base_instance();
        let db = ImpDb::generate(&inst);
        let base = db
            .imps()
            .iter()
            .find(|i| i.interface == InterfaceKind::Type3 && i.parallel == ParallelChoice::None)
            .unwrap();
        let with_pc = db
            .imps()
            .iter()
            .find(|i| i.interface == InterfaceKind::Type3 && i.parallel == ParallelChoice::PlainPc)
            .unwrap();
        assert!(with_pc.gain > base.gain);
    }

    #[test]
    fn problem2_prefixes_generated() {
        let mut inst = Instance::new("p2");
        inst.library.add(fir_block("fir_a", 8));
        // Keep the software times below the fir IP's T_IP (132 cycles for
        // this job) so each appended prefix still improves the gain.
        let other1 = inst.add_scall(SCall::new(
            "iir",
            IpFunction::Iir,
            Cycles(50),
            TransferJob::new(16, 16),
        ));
        let other2 = inst.add_scall(SCall::new(
            "corr",
            IpFunction::Correlator,
            Cycles(60),
            TransferJob::new(16, 16),
        ));
        inst.add_scall(
            SCall::new(
                "fir",
                IpFunction::Fir,
                Cycles(4000),
                TransferJob::new(64, 64),
            )
            .with_sw_pc_candidates(vec![other1, other2]),
        );
        let db = ImpDb::generate(&inst);
        let sw_variants: Vec<_> = db
            .imps()
            .iter()
            .filter(|i| matches!(i.parallel, ParallelChoice::SwScalls(_)))
            .collect();
        assert!(!sw_variants.is_empty());
        // Prefix [other1] and [other1, other2] both appear on some kind.
        assert!(sw_variants
            .iter()
            .any(|i| i.parallel == ParallelChoice::SwScalls(vec![other1])));
        assert!(sw_variants
            .iter()
            .any(|i| i.parallel == ParallelChoice::SwScalls(vec![other1, other2])));
    }

    #[test]
    fn overflowing_job_generates_no_bogus_imps() {
        // A near-u64::MAX transfer job overflows the slow-clock-scaled T_IP
        // on a slow-clocked type-0 pairing. The old saturating clamp could
        // understate T_IP and fabricate gain; now the overflow reads as
        // zero gain, so the variant simply never enters the database.
        let mut inst = Instance::new("huge");
        inst.library.add(
            IpBlock::builder("fir_slow")
                .function(IpFunction::Fir)
                .ports(2, 2)
                .rates(1, 1)
                .latency(4)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        // 2^63 input words: the type-0 slow-clock ×4 overflows u64, while
        // the buffered types' (unscaled) cycle counts still fit.
        inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            Cycles(u64::MAX),
            TransferJob::new(1u64 << 63, 0),
        ));
        let db = ImpDb::generate(&inst);
        assert!(
            !db.imps()
                .iter()
                .any(|i| i.interface == InterfaceKind::Type0),
            "overflowing type-0 pairing must be skipped, not clamped"
        );
    }

    #[test]
    fn no_ip_means_no_imps() {
        let mut inst = Instance::new("none");
        inst.add_scall(SCall::new(
            "vlc",
            IpFunction::Custom("vlc".into()),
            Cycles(100),
            TransferJob::new(4, 4),
        ));
        let db = ImpDb::generate(&inst);
        assert!(db.is_empty());
        assert!(db.for_scall(CallSiteId(0)).is_empty());
        assert!(db.for_scall(CallSiteId(7)).is_empty());
    }

    #[test]
    fn retire_masks_for_scall_but_keeps_get_and_ids() {
        use partita_ip::IpId;
        let mut db = ImpDb::from_imps(vec![
            Imp::new(
                CallSiteId(0),
                vec![IpId(1)],
                InterfaceKind::Type0,
                Cycles(5),
                AreaTenths::ZERO,
                ParallelChoice::None,
            ),
            Imp::new(
                CallSiteId(0),
                vec![IpId(2)],
                InterfaceKind::Type1,
                Cycles(9),
                AreaTenths::ZERO,
                ParallelChoice::None,
            ),
        ]);
        assert!(db.retire(ImpId(0)));
        assert!(!db.is_active(ImpId(0)));
        assert_eq!(db.active_len(), 1);
        assert_eq!(db.len(), 2, "retired IMPs stay resident");
        assert!(db.get(ImpId(0)).is_some(), "provenance lookups survive");
        let visible = db.for_scall(CallSiteId(0));
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].id, ImpId(1), "surviving ids are stable");
        // Masked and unmasked databases must not collide in content keys.
        let unmasked = {
            let mut d = db.clone();
            d.restore(ImpId(0));
            d
        };
        assert_ne!(format!("{db:?}"), format!("{unmasked:?}"));
        assert_ne!(db, unmasked);
        assert!(db.restore(ImpId(0)));
        assert_eq!(db, unmasked);
        assert!(!db.retire(ImpId(99)), "unknown ids are reported");
        assert!(!db.is_active(ImpId(99)));
    }

    #[test]
    fn from_imps_assigns_ids() {
        use partita_ip::IpId;
        let db = ImpDb::from_imps(vec![
            Imp::new(
                CallSiteId(0),
                vec![IpId(1)],
                InterfaceKind::Type0,
                Cycles(5),
                AreaTenths::ZERO,
                ParallelChoice::None,
            ),
            Imp::new(
                CallSiteId(0),
                vec![IpId(2)],
                InterfaceKind::Type1,
                Cycles(9),
                AreaTenths::ZERO,
                ParallelChoice::None,
            ),
        ]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(ImpId(1)).unwrap().ips, vec![IpId(2)]);
        assert_eq!(db.for_scall(CallSiteId(0)).len(), 2);
    }
}
