//! Property tests: the ILP selector against exhaustive enumeration on small
//! random instances, its structural invariants on larger ones, and every
//! backend's budget honesty on conflict-bearing instances.

use proptest::prelude::*;

use partita_core::{
    baseline, Backend, CoreError, FaultPlan, FaultVerdict, Imp, ImpDb, Instance, OptimalityStatus,
    ParallelChoice, RequiredGains, SCall, SelectionAuditor, SolveBudget, SolveOptions, Solver,
};
use partita_interface::{InterfaceKind, TransferJob};
use partita_ip::{IpBlock, IpFunction, IpId};
use partita_mop::{AreaTenths, CallSiteId, Cycles, PathId};

#[derive(Debug, Clone)]
struct SmallInstance {
    ip_areas: Vec<i64>,
    imps: Vec<(u32, u32, u64, i64)>, // (scall, ip, gain, interface tenths)
    required: u64,
}

fn small_instance() -> impl Strategy<Value = SmallInstance> {
    (
        proptest::collection::vec(1i64..20, 2..4),
        proptest::collection::vec((0u32..4, 0u32..3, 1u64..200, 0i64..10), 1..8),
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

fn build(si: &SmallInstance) -> (Instance, ImpDb) {
    let mut inst = Instance::new("prop");
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
        .map(|&(sc, ip, gain, tenths)| {
            Imp::new(
                CallSiteId(sc),
                vec![IpId(ip)],
                InterfaceKind::Type0,
                Cycles(gain),
                AreaTenths::from_tenths(tenths),
                ParallelChoice::None,
            )
        })
        .collect();
    (inst, ImpDb::from_imps(imps))
}

/// A random conflict-bearing instance: 4 s-calls on one path, IMPs that may
/// consume another s-call's software implementation as parallel code (the
/// Problem 2 SC-PC structure).
#[derive(Debug, Clone)]
struct ConflictInstance {
    ip_areas: Vec<i64>,
    /// (scall, ip, gain, interface tenths, consumed scall or same = none)
    imps: Vec<(u32, u32, u64, i64, u32)>,
    required: u64,
}

fn conflict_instance() -> impl Strategy<Value = ConflictInstance> {
    (
        proptest::collection::vec(1i64..20, 2..4),
        proptest::collection::vec((0u32..4, 0u32..3, 1u64..200, 0i64..10, 0u32..4), 1..8),
        0u64..500,
    )
        .prop_map(|(ip_areas, mut imps, required)| {
            let n_ips = ip_areas.len() as u32;
            for imp in &mut imps {
                imp.1 %= n_ips;
            }
            ConflictInstance {
                ip_areas,
                imps,
                required,
            }
        })
}

fn build_conflicted(ci: &ConflictInstance) -> (Instance, ImpDb) {
    let mut inst = Instance::new("conflict-prop");
    for (i, &a) in ci.ip_areas.iter().enumerate() {
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
    let imps = ci
        .imps
        .iter()
        .map(|&(sc, ip, gain, tenths, consumed)| {
            let parallel = if consumed == sc {
                ParallelChoice::None
            } else {
                ParallelChoice::SwScalls(vec![CallSiteId(consumed)])
            };
            Imp::new(
                CallSiteId(sc),
                vec![IpId(ip)],
                InterfaceKind::Type1,
                Cycles(gain),
                AreaTenths::from_tenths(tenths),
                parallel,
            )
        })
        .collect();
    (inst, ImpDb::from_imps(imps))
}

/// Exhaustive reference: try every subset of IMPs that respects "one IMP per
/// s-call" and find the minimum total area meeting the requirement.
fn exhaustive_best(inst: &Instance, db: &ImpDb, required: u64) -> Option<i64> {
    let n = db.len();
    let mut best: Option<i64> = None;
    'outer: for mask in 0u32..(1 << n) {
        let mut per_scall = [0u8; 8];
        let mut gain = 0u64;
        let mut tenths = 0i64;
        let mut ips: Vec<IpId> = Vec::new();
        for (i, imp) in db.imps().iter().enumerate() {
            if mask & (1 << i) != 0 {
                per_scall[imp.scall.index()] += 1;
                if per_scall[imp.scall.index()] > 1 {
                    continue 'outer;
                }
                gain += imp.gain.get();
                tenths += imp.interface_area.tenths();
                ips.extend(imp.ips.iter().copied());
            }
        }
        if gain < required {
            continue;
        }
        ips.sort_unstable();
        ips.dedup();
        tenths += ips
            .iter()
            .map(|&ip| inst.library.block(ip).map_or(0, |b| b.area().tenths()))
            .sum::<i64>();
        best = Some(best.map_or(tenths, |b: i64| b.min(tenths)));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ILP's minimum area equals brute force over all subsets.
    #[test]
    fn selector_matches_exhaustive(si in small_instance()) {
        let (inst, db) = build(&si);
        let exact = exhaustive_best(&inst, &db, si.required);
        let solved = Solver::new(&inst)
            .with_imps(db.clone())
            .solve(&SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required))));
        match (exact, solved) {
            (Some(area), Ok(sel)) => {
                prop_assert_eq!(
                    sel.total_area().tenths(), area,
                    "ilp found area {} vs brute force {}", sel.total_area(), area
                );
                prop_assert!(sel.total_gain().get() >= si.required);
                let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required)));
                prop_assert!(sel.verify(&inst, &opts).is_ok());
                // Independent audit oracle alongside the built-in verify.
                let report = SelectionAuditor::new(&inst, &db).audit(&sel, &opts);
                prop_assert!(report.is_clean(), "audit violations: {}", report.to_json());
            }
            (None, Err(_)) => {}
            (e, s) => prop_assert!(false, "feasibility mismatch: {e:?} vs {s:?}"),
        }
    }

    /// Feasible greedy never beats the ILP; merged S-count never exceeds the
    /// selected-call count.
    #[test]
    fn greedy_dominated_and_counts_consistent(si in small_instance()) {
        let (inst, db) = build(&si);
        let gains = RequiredGains::uniform(Cycles(si.required));
        let Ok(sel) = Solver::new(&inst).with_imps(db.clone())
            .solve(&SolveOptions::problem2(gains.clone())) else { return Ok(()); };
        prop_assert!(sel.s_instruction_count() <= sel.selected_scall_count());
        if let Ok(greedy) = baseline::solve_greedy(&inst, &db, &gains) {
            prop_assert!(sel.total_area() <= greedy.total_area());
        }
    }

    /// The warm-started branch-and-bound backend under its (generous)
    /// default budget agrees with the exhaustive backend: same minimum area,
    /// same feasibility verdict, both proven optimal.
    #[test]
    fn branch_bound_backend_matches_exhaustive_backend(si in small_instance()) {
        let (inst, db) = build(&si);
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required)));
        let bb = Solver::new(&inst).with_imps(db.clone()).solve(&opts);
        let ex = Solver::new(&inst)
            .with_imps(db)
            .solve(&opts.clone().backend(Backend::Exhaustive));
        match (bb, ex) {
            (Ok(b), Ok(e)) => {
                prop_assert_eq!(
                    b.total_area().tenths(), e.total_area().tenths(),
                    "branch-and-bound area {} vs exhaustive {}", b.total_area(), e.total_area()
                );
                prop_assert_eq!(b.status, OptimalityStatus::Optimal);
                prop_assert_eq!(e.status, OptimalityStatus::Optimal);
                prop_assert!(e.trace.nodes_explored >= 1);
            }
            (Err(_), Err(_)) => {}
            (b, e) => prop_assert!(false, "backend feasibility mismatch: {b:?} vs {e:?}"),
        }
    }

    /// Under every injected fault — node-cap exhaustion, an expired
    /// deadline, warm start disabled, and their combinations — the
    /// solver either returns an audit-clean feasible selection or a typed
    /// error. It never silently hands back an infeasible or tampered
    /// selection, and it answers `Infeasible` only where the unbudgeted
    /// solve does too.
    #[test]
    fn fault_injection_never_silently_infeasible(si in small_instance(), which in 0usize..6) {
        let (inst, db) = build(&si);
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required)));
        let plan = match which {
            0 => FaultPlan::new().node_cap(1),
            1 => FaultPlan::new().node_cap(1).without_warm_start(),
            2 => FaultPlan::new().deadline(std::time::Duration::ZERO),
            3 => FaultPlan::new().node_cap(2),
            4 => FaultPlan::new().without_warm_start(),
            _ => FaultPlan::new()
                .deadline(std::time::Duration::ZERO)
                .without_warm_start(),
        };
        let verdict = plan.run(&inst, &db, &opts);
        prop_assert!(verdict.is_sound(), "unsound degraded solve: {verdict:?}");
        if let FaultVerdict::TypedError(CoreError::Infeasible { .. }) = verdict {
            let reference = Solver::new(&inst).with_imps(db.clone()).solve(&opts);
            prop_assert!(
                matches!(reference, Err(CoreError::Infeasible { .. })),
                "{plan:?} claimed infeasible on a feasible instance"
            );
        }
    }

    /// Per-path requirements on path 0 only: the solved selection must pass
    /// the audit, whose per-path gain check re-walks every path from the raw
    /// instance rather than trusting the ILP constraint rows.
    #[test]
    fn per_path_requirements_audit_clean(si in small_instance()) {
        let (inst, db) = build(&si);
        let opts = SolveOptions::problem2(RequiredGains::per_path([(
            PathId(0),
            Cycles(si.required),
        )]));
        if let Ok(sel) = Solver::new(&inst).with_imps(db.clone()).solve(&opts) {
            let report = SelectionAuditor::new(&inst, &db).audit(&sel, &opts);
            prop_assert!(report.is_clean(), "audit violations: {}", report.to_json());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Budget honesty, end to end, for every backend: under a starved node
    /// budget a backend may fail or may return a feasible point, but a
    /// selection claiming `Optimal` must actually BE the optimum (checked
    /// against an unbudgeted reference), and a feasible non-optimal claim
    /// must never beat it.
    #[test]
    fn no_backend_launders_exhaustion_into_optimal(
        ci in conflict_instance(),
        backend_idx in 0usize..Backend::ALL.len(),
        max_nodes in 1usize..4,
    ) {
        let backend = Backend::ALL[backend_idx];
        let (inst, db) = build_conflicted(&ci);
        let gains = RequiredGains::uniform(Cycles(ci.required));
        let reference = Solver::new(&inst)
            .with_imps(db.clone())
            .solve(&SolveOptions::problem2(gains.clone()));
        let starved = SolveOptions::problem2(gains)
            .backend(backend)
            .budget(SolveBudget::default().with_max_nodes(max_nodes));
        match Solver::new(&inst).with_imps(db.clone()).solve(&starved) {
            Ok(sel) => {
                let opt = reference.as_ref().unwrap_or_else(|e| {
                    panic!("starved {backend} feasible but reference errored: {e}")
                });
                prop_assert!(
                    sel.total_area() >= opt.total_area(),
                    "starved {} beat the optimum", backend
                );
                if sel.status == OptimalityStatus::Optimal {
                    prop_assert_eq!(
                        sel.total_area(), opt.total_area(),
                        "{} claimed Optimal for a non-optimal selection", backend
                    );
                }
                prop_assert!(sel.verify(&inst, &starved).is_ok());
            }
            Err(CoreError::BudgetExhausted) => {}
            Err(CoreError::Infeasible { .. }) => {
                // An infeasibility *proof* requires a completed search; the
                // unbudgeted reference must agree.
                prop_assert!(
                    matches!(reference, Err(CoreError::Infeasible { .. })),
                    "starved {} claimed infeasible on a feasible instance", backend
                );
            }
            Err(e) => prop_assert!(false, "unexpected error from starved {}: {e}", backend),
        }
    }
}
