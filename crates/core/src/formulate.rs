//! ILP formulation of the optimal S-instruction generation problem (§4.1).

use std::collections::BTreeMap;

use partita_ilp::{fixed_charge, Model, Relation, Sense, VarId};
use partita_ip::IpId;
use partita_mop::PathId;

use crate::solver::{ProblemKind, RequiredGains};
use crate::{sc_pc_conflicts, CoreError, ImpDb, ImpId, Instance, ParallelChoice};

/// Mapping from decision variables back to IMPs and IPs.
#[derive(Debug, Clone)]
pub(crate) struct VarMap {
    /// `x_ij` per IMP; `None` when the IMP is excluded (Problem 1 filters,
    /// or retired in the database).
    pub x: Vec<Option<VarId>>,
    /// `z_k` per IP that any active IMP uses.
    pub z: BTreeMap<IpId, VarId>,
}

/// The built ILP, its variable map, and the constraint index of every
/// path's gain row, so a required-gain edit ([`crate::delta`]) is a pure
/// right-hand-side patch.
#[derive(Debug, Clone)]
pub(crate) struct Formulation {
    pub model: Model,
    pub map: VarMap,
    pub gain_rows: Vec<(PathId, usize)>,
}

/// Builds the 0/1 ILP.
///
/// Constraints:
/// * Eq. 1 — at most one IMP per s-call;
/// * Eq. 2 — per-path required gain, one row for every path even at
///   requirement zero (`Σ g·x ≥ 0` is redundant, so selections are
///   unaffected), which keeps the shape independent of the requirement;
/// * fixed-charge links `Σ_ij s_ijk·x_ij ≤ M·z_k` (Taha \[10\]);
/// * Problem 2 only: SC-PC conflict pairs `x_a + x_b ≤ 1`;
/// * Problem 1 only: SwScalls IMPs are excluded, and s-calls to the same
///   function are tied to identical implementation shapes.
///
/// Objective: minimise `Σ_k z_k·a_k + Σ_ij x_ij·c_ij` (areas in tenths).
///
/// IMPs retired in `db` get no column (`x` holds `None`), exactly like the
/// Problem 1 filter, so they can never be selected.
pub(crate) fn build_model(
    instance: &Instance,
    db: &ImpDb,
    problem: ProblemKind,
    gains: &RequiredGains,
    power_budget_mw: Option<u64>,
) -> Result<Formulation, CoreError> {
    if db.is_empty() {
        return Err(CoreError::NoImps);
    }
    let mut model = Model::new(Sense::Minimize);

    // Decision variables x_ij.
    let mut x: Vec<Option<VarId>> = Vec::with_capacity(db.len());
    for imp in db.imps() {
        let excluded = (problem == ProblemKind::Problem1
            && matches!(imp.parallel, ParallelChoice::SwScalls(_)))
            || !db.is_active(imp.id);
        if excluded {
            x.push(None);
        } else {
            x.push(Some(model.add_binary(format!("x_{}", imp.id))));
        }
    }

    // Eq. 1: at most one IMP per s-call.
    for sc in &instance.scalls {
        let terms: Vec<(VarId, f64)> = db
            .for_scall(sc.id)
            .iter()
            .filter_map(|imp| x[imp.id.index()].map(|v| (v, 1.0)))
            .collect();
        if !terms.is_empty() {
            model
                .add_labeled_constraint(
                    terms,
                    Relation::Le,
                    1.0,
                    Some(format!("one_imp_{}", sc.id)),
                )
                .map_err(CoreError::Ilp)?;
        }
    }

    // Eq. 2: per-path required gain.
    let mut gain_rows: Vec<(PathId, usize)> = Vec::new();
    for path in instance.effective_paths() {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &sc in &path.scalls {
            if instance.scall(sc).is_none() {
                return Err(CoreError::BadPath {
                    path: path.id,
                    scall: sc,
                });
            }
            for imp in db.for_scall(sc) {
                if let Some(v) = x[imp.id.index()] {
                    terms.push((v, imp.gain.get() as f64));
                }
            }
        }
        gain_rows.push((path.id, model.num_constraints()));
        model
            .add_labeled_constraint(
                terms,
                Relation::Ge,
                gains.for_path(path.id).get() as f64,
                Some(format!("gain_{}", path.id)),
            )
            .map_err(CoreError::Ilp)?;
    }

    // Problem 1: s-calls to the same function are always implemented in the
    // same way — tie matching implementation shapes together.
    if problem == ProblemKind::Problem1 {
        let mut by_name: BTreeMap<&str, Vec<&crate::SCall>> = BTreeMap::new();
        for sc in &instance.scalls {
            by_name.entry(sc.name.as_str()).or_default().push(sc);
        }
        for group in by_name.values().filter(|g| g.len() > 1) {
            let leader = group[0];
            for follower in &group[1..] {
                for limp in db.for_scall(leader.id) {
                    let Some(lv) = x[limp.id.index()] else {
                        continue;
                    };
                    // Find the follower's IMP with the same shape.
                    let matching = db.for_scall(follower.id).into_iter().find(|f| {
                        f.ips == limp.ips
                            && f.interface == limp.interface
                            && f.parallel == limp.parallel
                    });
                    if let Some(fimp) = matching {
                        if let Some(fv) = x[fimp.id.index()] {
                            model
                                .add_labeled_constraint(
                                    [(lv, 1.0), (fv, -1.0)],
                                    Relation::Eq,
                                    0.0,
                                    Some("same_way"),
                                )
                                .map_err(CoreError::Ilp)?;
                        }
                    } else {
                        // No matching shape for the follower: the leader
                        // cannot use this shape either.
                        model
                            .add_labeled_constraint(
                                [(lv, 1.0)],
                                Relation::Le,
                                0.0,
                                Some("same_way"),
                            )
                            .map_err(CoreError::Ilp)?;
                    }
                }
            }
        }
    }

    // Optional power budget: Σ p_ij · x_ij ≤ budget.
    if let Some(budget) = power_budget_mw {
        let terms: Vec<(VarId, f64)> = db
            .imps()
            .iter()
            .filter_map(|imp| x[imp.id.index()].map(|v| (v, imp.power_mw as f64)))
            .filter(|(_, p)| *p > 0.0)
            .collect();
        if !terms.is_empty() {
            model
                .add_labeled_constraint(terms, Relation::Le, budget as f64, Some("power"))
                .map_err(CoreError::Ilp)?;
        }
    }

    // Problem 2: SC-PC conflicts.
    if problem == ProblemKind::Problem2 {
        for pair in sc_pc_conflicts(db) {
            if let (Some(a), Some(b)) = (x[pair.a.index()], x[pair.b.index()]) {
                model
                    .add_labeled_constraint(
                        [(a, 1.0), (b, 1.0)],
                        Relation::Le,
                        1.0,
                        Some("sc_pc_conflict"),
                    )
                    .map_err(CoreError::Ilp)?;
            }
        }
    }

    // Fixed-charge indicators z_k for every IP used by an active IMP.
    let mut users: BTreeMap<IpId, Vec<VarId>> = BTreeMap::new();
    for imp in db.imps() {
        if let Some(v) = x[imp.id.index()] {
            for &ip in &imp.ips {
                users.entry(ip).or_default().push(v);
            }
        }
    }
    let mut z = BTreeMap::new();
    for (&ip, vars) in &users {
        let zv = model.add_binary(format!("z_{ip}"));
        fixed_charge::link_indicator(&mut model, zv, vars).map_err(CoreError::Ilp)?;
        z.insert(ip, zv);
    }

    // Objective: Σ z_k a_k + Σ x_ij c_ij, in area tenths. A tiny negative
    // gain term breaks area ties toward selections with more gain — the
    // paper's "SCs that can be implemented using the same IP are selected
    // as many as possible" (§5.1). The weight is scaled per instance so the
    // total tie-break stays below 0.4 area tenths (well under the area
    // granularity) while every per-variable coefficient stays orders of
    // magnitude above the simplex optimality tolerance. Computed over the
    // unmasked IMP list, so the retire mask never changes a coefficient.
    let mut max_gain: Vec<u64> = Vec::new();
    for imp in db.imps() {
        let sc = imp.scall.index();
        if max_gain.len() <= sc {
            max_gain.resize(sc + 1, 0);
        }
        max_gain[sc] = max_gain[sc].max(imp.gain.get());
    }
    let max_total_gain: u64 = instance
        .scalls
        .iter()
        .filter_map(|sc| max_gain.get(sc.id.index()))
        .sum();
    let gain_tiebreak: f64 = 0.4 / (max_total_gain.max(1) as f64);
    let mut objective: Vec<(VarId, f64)> = Vec::new();
    for (&ip, &zv) in &z {
        let area = instance
            .library
            .block(ip)
            .map(|b| b.area().tenths())
            .unwrap_or(0);
        objective.push((zv, area as f64));
    }
    for imp in db.imps() {
        if let Some(v) = x[imp.id.index()] {
            objective.push((
                v,
                imp.interface_area.tenths() as f64 - gain_tiebreak * imp.gain.get() as f64,
            ));
        }
    }
    model.set_objective(objective);

    Ok(Formulation {
        model,
        map: VarMap { x, z },
        gain_rows,
    })
}

/// Decodes which IMPs a solution selected.
pub(crate) fn decode(db: &ImpDb, map: &VarMap, solution: &partita_ilp::IlpSolution) -> Vec<ImpId> {
    db.imps()
        .iter()
        .filter(|imp| {
            map.x[imp.id.index()]
                .map(|v| solution.is_set(v))
                .unwrap_or(false)
        })
        .map(|imp| imp.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Imp, SCall};
    use partita_ilp::BranchBound;
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::IpFunction;
    use partita_mop::{AreaTenths, CallSiteId, Cycles};

    fn instance_two_firs() -> (Instance, ImpDb) {
        let mut inst = Instance::new("t");
        let ip0 = inst.library.add(
            partita_ip::IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let a = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            Cycles(100),
            TransferJob::new(4, 4),
        ));
        let b = inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            Cycles(100),
            TransferJob::new(4, 4),
        ));
        inst.add_path(vec![a, b]);
        let db = ImpDb::from_imps(vec![
            Imp::new(
                a,
                vec![ip0],
                InterfaceKind::Type0,
                Cycles(50),
                AreaTenths::from_tenths(3),
                crate::ParallelChoice::None,
            ),
            Imp::new(
                b,
                vec![ip0],
                InterfaceKind::Type0,
                Cycles(50),
                AreaTenths::from_tenths(3),
                crate::ParallelChoice::None,
            ),
        ]);
        (inst, db)
    }

    #[test]
    fn ip_area_charged_once_for_shared_ip() {
        let (inst, db) = instance_two_firs();
        let form = build_model(
            &inst,
            &db,
            ProblemKind::Problem2,
            &RequiredGains::uniform(Cycles(100)),
            None,
        )
        .unwrap();
        let sol = BranchBound::new().solve(&form.model).unwrap();
        let chosen = decode(&db, &form.map, &sol);
        assert_eq!(chosen.len(), 2);
        // Objective: IP area 30 tenths once + 2 interfaces x 3 tenths.
        assert_eq!(sol.objective.round() as i64, 36);
    }

    #[test]
    fn infeasible_when_gain_unreachable() {
        let (inst, db) = instance_two_firs();
        let form = build_model(
            &inst,
            &db,
            ProblemKind::Problem2,
            &RequiredGains::uniform(Cycles(1_000_000)),
            None,
        )
        .unwrap();
        assert!(BranchBound::new().solve(&form.model).is_err());
    }

    #[test]
    fn problem1_excludes_sw_pc_imps() {
        let (inst, mut db) = instance_two_firs();
        db.add(Imp::new(
            CallSiteId(0),
            vec![partita_ip::IpId(0)],
            InterfaceKind::Type3,
            Cycles(90),
            AreaTenths::from_tenths(5),
            crate::ParallelChoice::SwScalls(vec![CallSiteId(1)]),
        ));
        let p1 = build_model(
            &inst,
            &db,
            ProblemKind::Problem1,
            &RequiredGains::uniform(Cycles(10)),
            None,
        )
        .unwrap();
        assert!(p1.map.x[2].is_none());
        let p2 = build_model(
            &inst,
            &db,
            ProblemKind::Problem2,
            &RequiredGains::uniform(Cycles(10)),
            None,
        )
        .unwrap();
        assert!(p2.map.x[2].is_some());
    }

    #[test]
    fn bad_path_is_reported() {
        let (mut inst, db) = instance_two_firs();
        inst.add_path(vec![CallSiteId(9)]);
        let err = build_model(
            &inst,
            &db,
            ProblemKind::Problem2,
            &RequiredGains::uniform(Cycles(10)),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadPath { .. }));
    }

    #[test]
    fn empty_db_rejected() {
        let inst = Instance::new("e");
        assert_eq!(
            build_model(
                &inst,
                &ImpDb::default(),
                ProblemKind::Problem2,
                &RequiredGains::uniform(Cycles(1)),
                None,
            )
            .unwrap_err(),
            CoreError::NoImps
        );
    }

    #[test]
    fn per_path_gains() {
        let g = RequiredGains::per_path(vec![
            (partita_mop::PathId(0), Cycles(10)),
            (partita_mop::PathId(1), Cycles(20)),
        ]);
        assert_eq!(g.for_path(partita_mop::PathId(1)), Cycles(20));
        assert_eq!(g.for_path(partita_mop::PathId(5)), Cycles::ZERO);
    }
}
