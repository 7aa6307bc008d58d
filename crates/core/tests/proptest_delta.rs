//! Property tests for the incremental re-solve layer: a `DeltaSession`
//! driven by a random required-gain walk must agree with a cold solve of
//! the patched requirement at every step — same chosen IMPs, same area,
//! same optimality status, and a clean independent audit — and a poisoned
//! retained basis must degrade to a cold solve, never to a silently wrong
//! answer.

use std::sync::Arc;

use proptest::prelude::*;

use partita_core::{
    delta::{DeltaSession, InstanceDelta},
    CoreError, FaultPlan, FaultVerdict, Imp, ImpDb, Instance, ParallelChoice, RequiredGains, SCall,
    Selection, SelectionAuditor, SolveOptions, Solver,
};
use partita_interface::{InterfaceKind, TransferJob};
use partita_ip::{IpBlock, IpFunction, IpId};
use partita_mop::{AreaTenths, CallSiteId, Cycles};

#[derive(Debug, Clone)]
struct SmallInstance {
    ip_areas: Vec<i64>,
    /// (scall, ip, gain, interface tenths, interface kind)
    imps: Vec<(u32, u32, u64, i64, u8)>,
    required: u64,
}

const KINDS: [InterfaceKind; 4] = [
    InterfaceKind::Type0,
    InterfaceKind::Type1,
    InterfaceKind::Type2,
    InterfaceKind::Type3,
];

fn small_instance() -> impl Strategy<Value = SmallInstance> {
    (
        proptest::collection::vec(1i64..20, 2..4),
        proptest::collection::vec((0u32..4, 0u32..3, 1u64..200, 0i64..10, 0u8..4), 2..8),
        0u64..400,
    )
        .prop_map(|(ip_areas, mut imps, required)| {
            let n_ips = ip_areas.len() as u32;
            for imp in &mut imps {
                imp.1 %= n_ips;
            }
            SmallInstance {
                ip_areas,
                imps,
                required,
            }
        })
}

/// A random required-gain walk. Zero, where every gain row is redundant,
/// is drawn as often as the whole nonzero range.
fn rg_walk() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![Just(0u64), 0u64..500], 1..6)
}

fn build(si: &SmallInstance) -> (Instance, ImpDb) {
    let mut inst = Instance::new("prop-delta");
    for (i, &a) in si.ip_areas.iter().enumerate() {
        inst.library.add(
            IpBlock::builder(format!("ip{i}"))
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(a))
                .build(),
        );
    }
    for sc in 0..4u32 {
        inst.add_scall(SCall::new(
            format!("f{sc}"),
            IpFunction::Fir,
            Cycles(1000),
            TransferJob::new(8, 8),
        ));
    }
    inst.add_path((0..4).map(CallSiteId).collect());
    let imps = si
        .imps
        .iter()
        .map(|&(sc, ip, gain, tenths, kind)| {
            Imp::new(
                CallSiteId(sc),
                vec![IpId(ip)],
                KINDS[kind as usize % KINDS.len()],
                Cycles(gain),
                AreaTenths::from_tenths(tenths),
                ParallelChoice::None,
            )
        })
        .collect();
    (inst, ImpDb::from_imps(imps))
}

/// Cold oracle: a fresh solver over the session's instance and database
/// at its current requirement.
fn cold(session: &DeltaSession) -> Result<Selection, CoreError> {
    Solver::new(session.instance())
        .with_imps(Arc::clone(session.db()))
        .solve(session.options())
}

fn assert_agrees(warm: &Result<Selection, CoreError>, session: &DeltaSession, ctx: &str) {
    let reference = cold(session);
    match (warm, &reference) {
        (Ok(w), Ok(c)) => {
            assert_eq!(w.chosen(), c.chosen(), "{ctx}: chosen IMPs diverged");
            assert_eq!(w.total_area(), c.total_area(), "{ctx}: area diverged");
            assert_eq!(w.status, c.status, "{ctx}: status diverged");
            let report =
                SelectionAuditor::new(session.instance(), session.db()).audit(w, session.options());
            assert!(
                report.is_clean(),
                "{ctx}: audit violations {}",
                report.to_json()
            );
        }
        (Err(CoreError::Infeasible { .. }), Err(CoreError::Infeasible { .. })) => {}
        other => panic!("{ctx}: delta vs cold verdicts diverged: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random required-gain walk, resolved after every edit, matches
    /// a cold solve of the current requirement.
    #[test]
    fn delta_sequence_matches_cold_solve(si in small_instance(), walk in rg_walk()) {
        let (inst, db) = build(&si);
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required)));
        let mut session = DeltaSession::new(inst, db, opts).unwrap();
        let first = session.resolve();
        assert_agrees(&first, &session, "initial resolve");
        for (i, rg) in walk.iter().enumerate() {
            session
                .apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(*rg))))
                .unwrap();
            let warm = session.resolve();
            assert_agrees(&warm, &session, &format!("after SetRg {i} ({rg})"));
        }
    }

    /// A poisoned retained basis — wrong shape, foreign model, or an
    /// all-slack stub — may cost performance but never changes the answer:
    /// the solve either matches the clean reference or refuses with a
    /// typed error. Silent infeasibility is the failure class under test.
    /// Half the draws sit within one of the model's own shape (variables ×
    /// model rows), so the all-slack stub also installs and is repaired.
    #[test]
    fn poisoned_basis_is_never_silently_wrong(
        si in small_instance(),
        nv in 0usize..40,
        rows in 0usize..25,
        near in any::<bool>(),
    ) {
        let (inst, db) = build(&si);
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required)));
        let reference = Solver::new(&inst).with_imps(&db).solve(&opts);
        let (nv, rows) = match Solver::new(&inst).with_imps(&db).formulate(&opts) {
            Ok(model) if near => (
                (model.num_vars() + nv % 3).saturating_sub(1),
                (model.num_constraints() + rows % 3).saturating_sub(1),
            ),
            _ => (nv, rows),
        };
        let verdict = FaultPlan::new()
            .poisoned_basis(partita_ilp::Basis::slack(nv, rows))
            .run(&inst, &db, &opts);
        prop_assert!(verdict.is_sound(), "silently wrong: {verdict:?}");
        match (&verdict, &reference) {
            (FaultVerdict::Clean(sel, report), Ok(clean)) => {
                prop_assert!(report.is_clean());
                prop_assert_eq!(sel.chosen(), clean.chosen());
                prop_assert_eq!(sel.total_area(), clean.total_area());
            }
            (FaultVerdict::TypedError(CoreError::Infeasible { .. }),
             Err(CoreError::Infeasible { .. })) => {}
            other => panic!("poisoned-basis verdict diverged from reference: {other:?}"),
        }
    }
}
