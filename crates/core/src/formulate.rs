//! ILP formulation of the optimal S-instruction generation problem (§4.1).

use std::collections::BTreeMap;

use partita_ilp::{fixed_charge, Model, Name, Relation, Sense, VarId};
use partita_ip::IpId;
use partita_mop::{CallSiteId, PathId};

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
/// * fixed-charge links `Σ_ij s_ijk·x_ij ≤ M_k·z_k` (Taha \[10\]), one per
///   IP `k` that an IMP with a column uses, emitted last in IP order.
///   `s_ijk ∈ {0,1}`: an IMP that lists `k` twice is one term. `M_k` is
///   the number of distinct s-calls with such an IMP on `k`: Eq. 1 caps
///   the left side there, so it is the tightest valid `M_k`. The paper's
///   `M ≥ Σ x_ij`, the number of IMP columns on `k`, allows the same 0/1
///   points with a weaker relaxation;
/// * Problem 2 only: SC-PC conflicts as clique rows. The conflicts of
///   [`sc_pc_conflicts`] are grouped by (consuming s-call `A`, consumed
///   s-call `B`), and each group becomes one set-packing row
///   `Σ_{a ∈ A, a consumes B} x_a + Σ_{b ∈ B} x_b ≤ 1`, emitted in
///   `(A, B)` order. With Eq. 1 on both sides the row implies every pair
///   `x_a + x_b ≤ 1` of the paper's pairwise form (§4.1), allows the same
///   0/1 points and has an LP relaxation at least as tight (Padberg's
///   clique strengthening). An IMP that consumes its own s-call keeps the
///   pair row `2·x_a ≤ 1`, which forbids it, once, after the clique rows;
/// * Problem 1 only: SwScalls IMPs are excluded, and s-calls to the same
///   function are tied to identical implementation shapes.
///
/// Objective: minimise `Σ_k z_k·a_k + Σ_ij x_ij·c_ij` (areas in tenths).
///
/// IMPs retired in `db` get no column (`x` holds `None`), exactly like the
/// Problem 1 filter, so they can never be selected and count toward no
/// `M_k`.
pub(crate) fn build_model(
    instance: &Instance,
    db: &ImpDb,
    problem: ProblemKind,
    gains: &RequiredGains,
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
            // `x_imp<i>`, rendered only when read.
            x.push(Some(
                model.add_binary(Name::Numbered("x_imp", u64::from(imp.id.0))),
            ));
        }
    }

    // Eq. 1: at most one IMP per s-call.
    for sc in &instance.scalls {
        let terms: Vec<(VarId, f64)> = db
            .iter_scall(sc.id)
            .filter_map(|imp| x[imp.id.index()].map(|v| (v, 1.0)))
            .collect();
        if !terms.is_empty() {
            model
                .add_labeled_constraint(
                    terms,
                    Relation::Le,
                    1.0,
                    Some(Name::Numbered("one_imp_sc", u64::from(sc.id.0))),
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
            for imp in db.iter_scall(sc) {
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
                Some(Name::Numbered("gain_P", u64::from(path.id.0))),
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

    // Problem 2: SC-PC conflicts, one clique row per (consumer, consumed)
    // s-call pair. A self-pair (an IMP consuming its own s-call) keeps its
    // pair row `2·x_a ≤ 1`: the clique would not forbid it.
    if problem == ProblemKind::Problem2 {
        // The groups of each consuming s-call `A` (by index), as
        // (consumed s-call `B`, members) in first-seen order; sorted by
        // `B`, with sorted and deduplicated members, before emitting.
        // `stamp[v]` holds the last group `v` joined, numbered from 1 as
        // `A · |db| + position + 1` (a consumer has at most `|db|` groups):
        // the pairs of one consuming IMP come together, so it skips most
        // repeats before they are stored.
        let mut cliques: Vec<Vec<(CallSiteId, Vec<VarId>)>> = Vec::new();
        let mut self_consumers: Vec<VarId> = Vec::new();
        let mut stamp: Vec<usize> = vec![0; model.num_vars()];
        for pair in sc_pc_conflicts(db) {
            let (Some(a), Some(b)) = (x[pair.a.index()], x[pair.b.index()]) else {
                continue;
            };
            if a == b {
                self_consumers.push(a);
                continue;
            }
            let consumer = db.imps()[pair.a.index()].scall.index();
            let consumed = db.imps()[pair.b.index()].scall;
            if cliques.len() <= consumer {
                cliques.resize_with(consumer + 1, Vec::new);
            }
            let groups = &mut cliques[consumer];
            let at = match groups.iter().position(|(sc, _)| *sc == consumed) {
                Some(at) => at,
                None => {
                    groups.push((consumed, Vec::new()));
                    groups.len() - 1
                }
            };
            let id = consumer * db.len() + at + 1;
            let members = &mut groups[at].1;
            for v in [a, b] {
                if stamp[v.index()] != id {
                    stamp[v.index()] = id;
                    members.push(v);
                }
            }
        }
        for groups in &mut cliques {
            groups.sort_unstable_by_key(|&(sc, _)| sc);
            for (_, members) in groups.iter_mut() {
                members.sort_unstable();
                members.dedup();
            }
        }
        self_consumers.sort_unstable();
        self_consumers.dedup();
        let rows = cliques
            .into_iter()
            .flatten()
            .map(|(_, members)| members.into_iter().map(|v| (v, 1.0)).collect())
            .chain(self_consumers.into_iter().map(|a| vec![(a, 2.0)]));
        for terms in rows {
            model
                .add_labeled_constraint(terms, Relation::Le, 1.0, Some("sc_pc_conflict"))
                .map_err(CoreError::Ilp)?;
        }
    }

    // Fixed-charge indicators z_k for every IP used by an active IMP. The
    // users of IP k are grouped by s-call: Eq. 1 lets at most one of each
    // group be selected, so M_k is the number of s-calls with an active
    // IMP on k, and an IMP listing k twice is one user (s_ijk ∈ {0,1}).
    // `users[k]` lists IP k's (s-call, column) pairs; sorted, each
    // s-call's run is one group.
    let mut users: Vec<Vec<(CallSiteId, VarId)>> = Vec::new();
    for imp in db.imps() {
        if let Some(v) = x[imp.id.index()] {
            for &ip in &imp.ips {
                let k = ip.0 as usize;
                if users.len() <= k {
                    users.resize_with(k + 1, Vec::new);
                }
                users[k].push((imp.scall, v));
            }
        }
    }
    let mut z = BTreeMap::new();
    for (k, pairs) in users.iter_mut().enumerate() {
        if pairs.is_empty() {
            continue;
        }
        pairs.sort_unstable();
        let ip = IpId(k as u32);
        let zv = model.add_binary(Name::Numbered("z_IP", u64::from(ip.0)));
        let groups = pairs
            .chunk_by(|p, q| p.0 == q.0)
            .map(|group| group.iter().map(|&(_, v)| v));
        fixed_charge::link_indicator(&mut model, zv, groups).map_err(CoreError::Ilp)?;
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
    // In column order (every `x` before every `z`), so each term appends.
    let mut objective: Vec<(VarId, f64)> = Vec::new();
    for imp in db.imps() {
        if let Some(v) = x[imp.id.index()] {
            objective.push((
                v,
                imp.interface_area.tenths() as f64 - gain_tiebreak * imp.gain.get() as f64,
            ));
        }
    }
    for (&ip, &zv) in &z {
        let area = instance
            .library
            .block(ip)
            .map(|b| b.area().tenths())
            .unwrap_or(0);
        objective.push((zv, area as f64));
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
        )
        .unwrap();
        assert!(p1.map.x[2].is_none());
        let p2 = build_model(
            &inst,
            &db,
            ProblemKind::Problem2,
            &RequiredGains::uniform(Cycles(10)),
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
            )
            .unwrap_err(),
            CoreError::NoImps
        );
    }

    /// `n` s-calls with distinct names on one path, and a database of one
    /// IMP per `(s-call, parallel choice)`.
    fn conflict_fixture(n: u32, imps: Vec<(u32, ParallelChoice)>) -> (Instance, ImpDb) {
        let mut inst = Instance::new("cliques");
        let ip = inst.library.add(
            partita_ip::IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(2))
                .build(),
        );
        let scalls = (0..n)
            .map(|i| {
                inst.add_scall(SCall::new(
                    format!("f{i}"),
                    IpFunction::Fir,
                    Cycles(100),
                    TransferJob::new(4, 4),
                ))
            })
            .collect();
        inst.add_path(scalls);
        let db = ImpDb::from_imps(
            imps.into_iter()
                .map(|(sc, parallel)| {
                    Imp::new(
                        CallSiteId(sc),
                        vec![ip],
                        InterfaceKind::Type1,
                        Cycles(40),
                        AreaTenths::from_tenths(3),
                        parallel,
                    )
                })
                .collect(),
        );
        (inst, db)
    }

    fn problem2(inst: &Instance, db: &ImpDb) -> Formulation {
        build_model(
            inst,
            db,
            ProblemKind::Problem2,
            &RequiredGains::uniform(Cycles(0)),
        )
        .unwrap()
    }

    /// A model row: its terms, relation and right-hand side.
    type Row = (Vec<(VarId, f64)>, Relation, f64);

    /// The model's rows whose label starts with `label`.
    fn rows(form: &Formulation, label: &str) -> Vec<Row> {
        form.model
            .constraints()
            .iter()
            .filter(|c| {
                c.label
                    .as_ref()
                    .is_some_and(|l| l.render().starts_with(label))
            })
            .map(|c| (c.expr.terms(), c.relation, c.rhs))
            .collect()
    }

    /// Whether `row` holds at the 0/1 point `values` (all rows here are `≤`).
    fn holds((terms, _, rhs): &Row, values: &[f64]) -> bool {
        terms
            .iter()
            .map(|&(v, k)| k * values[v.index()])
            .sum::<f64>()
            <= *rhs
    }

    /// The database's conflict pairs between IMPs that have a column.
    fn column_pairs(db: &ImpDb, form: &Formulation) -> Vec<crate::ConflictPair> {
        sc_pc_conflicts(db)
            .into_iter()
            .filter(|p| form.map.x[p.a.index()].is_some() && form.map.x[p.b.index()].is_some())
            .collect()
    }

    /// Over every 0/1 assignment of the IMP columns, Eq. 1 plus the
    /// emitted SC-PC rows hold exactly when Eq. 1 plus the paper's pairs
    /// `x_a + x_b ≤ 1` (`2·x_a ≤ 1` for a self-pair) hold.
    fn assert_same_integer_points_as_the_pairs(db: &ImpDb, form: &Formulation) {
        let cols: Vec<VarId> = form.map.x.iter().flatten().copied().collect();
        assert!(
            cols.len() <= 16,
            "{} columns: too many to enumerate",
            cols.len()
        );
        let eq1 = rows(form, "one_imp_");
        let sc_pc = rows(form, "sc_pc_conflict");
        let pairs = column_pairs(db, form);
        let x = |id: ImpId| form.map.x[id.index()].expect("column");
        let mut values = vec![0.0; form.model.num_vars()];
        for mask in 0u32..(1 << cols.len()) {
            for (k, v) in cols.iter().enumerate() {
                values[v.index()] = f64::from((mask >> k) & 1);
            }
            let eq1_holds = eq1.iter().all(|r| holds(r, &values));
            let by_rows = eq1_holds && sc_pc.iter().all(|r| holds(r, &values));
            let by_pairs = eq1_holds
                && pairs
                    .iter()
                    .all(|p| values[x(p.a).index()] + values[x(p.b).index()] <= 1.0);
            assert_eq!(by_rows, by_pairs, "assignment {mask:#b}");
        }
    }

    /// Hand-built databases: plain consumers, a consumer listing the same
    /// s-call twice (what a duplicated `sw_pc_candidates` entry generates),
    /// an s-call that lists itself, two s-calls consuming each other, one
    /// IMP consuming two s-calls, and a retired IMP. `tests/clique_rows.rs`
    /// checks the row structure on the same databases.
    fn conflict_databases() -> Vec<(Instance, ImpDb)> {
        use ParallelChoice::{None as Plain, PlainPc, SwScalls};
        let sw = |s: &[u32]| SwScalls(s.iter().map(|&i| CallSiteId(i)).collect());
        let mut retired = conflict_fixture(
            3,
            vec![
                (0, sw(&[1])),
                (0, sw(&[1])),
                (1, Plain),
                (1, PlainPc),
                (2, sw(&[1])),
            ],
        );
        retired.1.retire(ImpId(1));
        vec![
            conflict_fixture(
                3,
                vec![
                    (0, sw(&[1])),
                    (0, sw(&[1, 1])),
                    (0, Plain),
                    (1, Plain),
                    (1, PlainPc),
                    (1, sw(&[2])),
                    (2, Plain),
                    (2, sw(&[0, 1])),
                ],
            ),
            conflict_fixture(
                2,
                vec![
                    (0, sw(&[0])),
                    (0, sw(&[0, 1])),
                    (0, Plain),
                    (1, Plain),
                    (1, sw(&[1])),
                ],
            ),
            conflict_fixture(
                2,
                vec![
                    (0, sw(&[1])),
                    (0, Plain),
                    (1, sw(&[0])),
                    (1, PlainPc),
                    (1, Plain),
                ],
            ),
            conflict_fixture(
                4,
                vec![
                    (0, sw(&[1, 2])),
                    (0, sw(&[3])),
                    (1, Plain),
                    (1, sw(&[3])),
                    (2, Plain),
                    (2, PlainPc),
                    (3, Plain),
                    (3, sw(&[2, 2])),
                ],
            ),
            retired,
        ]
    }

    #[test]
    fn clique_rows_allow_exactly_the_pairwise_integer_points() {
        for (inst, db) in conflict_databases() {
            assert_same_integer_points_as_the_pairs(&db, &problem2(&inst, &db));
        }
    }

    /// Over every 0/1 assignment of the IMP columns and the indicators,
    /// Eq. 1 plus the emitted fixed-charge rows hold exactly when Eq. 1
    /// plus the paper's rows `Σ_ij s_ijk·x_ij ≤ M·z_k` hold, with `M` the
    /// number of IMP columns on IP `k` (§4.1's `M ≥ Σ x_ij` without Eq. 1).
    fn assert_same_integer_points_as_paper_m(db: &ImpDb, form: &Formulation) {
        let cols: Vec<VarId> = form
            .map
            .x
            .iter()
            .flatten()
            .chain(form.map.z.values())
            .copied()
            .collect();
        assert!(
            cols.len() <= 16,
            "{} columns: too many to enumerate",
            cols.len()
        );
        let eq1 = rows(form, "one_imp_");
        let tight = rows(form, "fixed-charge");
        assert_eq!(tight.len(), form.map.z.len(), "one row per indicator");
        let paper: Vec<(Vec<VarId>, VarId)> = form
            .map
            .z
            .iter()
            .map(|(ip, &z)| {
                let users = db
                    .imps()
                    .iter()
                    .filter(|imp| imp.ips.contains(ip))
                    .filter_map(|imp| form.map.x[imp.id.index()])
                    .collect();
                (users, z)
            })
            .collect();
        let mut values = vec![0.0; form.model.num_vars()];
        for mask in 0u32..(1 << cols.len()) {
            for (k, v) in cols.iter().enumerate() {
                values[v.index()] = f64::from((mask >> k) & 1);
            }
            let eq1_holds = eq1.iter().all(|r| holds(r, &values));
            let by_rows = eq1_holds && tight.iter().all(|r| holds(r, &values));
            let by_paper = eq1_holds
                && paper.iter().all(|(users, z)| {
                    let sum: f64 = users.iter().map(|u| values[u.index()]).sum();
                    sum <= users.len() as f64 * values[z.index()]
                });
            assert_eq!(by_rows, by_paper, "assignment {mask:#b}");
        }
    }

    /// Three s-calls over three IPs: an IMP listing an IP twice (allowed
    /// by the public `ImpDb::add`), s-calls sharing IPs, a retired IMP on
    /// an IP no other IMP uses, and a SwScalls IMP that Problem 1 drops.
    fn fixed_charge_database() -> (Instance, ImpDb) {
        let mut inst = Instance::new("big-m");
        let ips: Vec<IpId> = (0..3)
            .map(|k| {
                inst.library.add(
                    partita_ip::IpBlock::builder(format!("fir{k}"))
                        .function(IpFunction::Fir)
                        .area(AreaTenths::from_units(2 + k))
                        .build(),
                )
            })
            .collect();
        let scalls = (0..3)
            .map(|i| {
                inst.add_scall(SCall::new(
                    format!("f{i}"),
                    IpFunction::Fir,
                    Cycles(100),
                    TransferJob::new(4, 4),
                ))
            })
            .collect();
        inst.add_path(scalls);
        let imp = |sc: u32, on: &[usize], parallel| {
            Imp::new(
                CallSiteId(sc),
                on.iter().map(|&k| ips[k]).collect(),
                InterfaceKind::Type1,
                Cycles(40),
                AreaTenths::from_tenths(3),
                parallel,
            )
        };
        let consume = ParallelChoice::SwScalls(vec![CallSiteId(2)]);
        let mut db = ImpDb::from_imps(vec![
            imp(0, &[0], ParallelChoice::None),
            imp(0, &[0, 1], ParallelChoice::None),
            imp(0, &[1, 1], ParallelChoice::None),
            imp(1, &[0], ParallelChoice::None),
            imp(1, &[1], consume),
            imp(2, &[1, 0], ParallelChoice::None),
            imp(2, &[2], ParallelChoice::None),
        ]);
        db.retire(ImpId(6));
        (inst, db)
    }

    #[test]
    fn tight_m_allows_exactly_the_paper_m_integer_points() {
        let mut cases = conflict_databases();
        cases.push(fixed_charge_database());
        for (inst, db) in &cases {
            for problem in [ProblemKind::Problem1, ProblemKind::Problem2] {
                let form =
                    build_model(inst, db, problem, &RequiredGains::uniform(Cycles(0))).unwrap();
                assert_same_integer_points_as_paper_m(db, &form);
            }
        }
        // The listed-twice IMP is one term, and M counts s-calls: IP 1 has
        // columns on s-calls 0, 1 and 2 under Problem 2, and Problem 1
        // drops s-call 1's SwScalls IMP. The retired IMP's IP has no row.
        let (inst, db) = fixed_charge_database();
        for (problem, m) in [(ProblemKind::Problem2, 3.0), (ProblemKind::Problem1, 2.0)] {
            let form =
                build_model(&inst, &db, problem, &RequiredGains::uniform(Cycles(0))).unwrap();
            assert_eq!(form.map.z.len(), 2, "IP 2 is used only by a retired IMP");
            let z1 = form.map.z[&IpId(1)];
            let x = |i: usize| form.map.x[i].unwrap();
            let mut want = vec![(x(1), 1.0), (x(2), 1.0), (x(5), 1.0), (z1, -m)];
            if problem == ProblemKind::Problem2 {
                want.insert(2, (x(4), 1.0));
            }
            let row = rows(&form, "fixed-charge")
                .into_iter()
                .find(|(terms, ..)| terms.contains(&(z1, -m)))
                .expect("IP 1's row");
            assert_eq!(row.0, want);
        }
    }

    /// One row per (consumer, consumed) s-call pair, in that key order,
    /// plus the kept self-pair rows; Problem 1 has no columns to conflict.
    #[test]
    fn one_clique_row_per_scall_pair() {
        let dbs = conflict_databases();
        let (inst, db) = &dbs[0];
        let form = problem2(inst, db);
        let x = |i: u32| form.map.x[i as usize].unwrap();
        let sc_pc: Vec<Vec<(VarId, f64)>> = rows(&form, "sc_pc_conflict")
            .into_iter()
            .map(|(terms, ..)| terms)
            .collect();
        let ones = |imps: &[u32]| imps.iter().map(|&i| (x(i), 1.0)).collect::<Vec<_>>();
        assert_eq!(
            sc_pc,
            [
                ones(&[0, 1, 3, 4, 5]),
                ones(&[5, 6, 7]),
                ones(&[0, 1, 2, 7]),
                ones(&[3, 4, 5, 7])
            ]
        );
        let (inst, db) = &dbs[1];
        let form = problem2(inst, db);
        let self_rows = rows(&form, "sc_pc_conflict")
            .iter()
            .filter(|(terms, ..)| terms.len() == 1)
            .count();
        assert_eq!(self_rows, 3, "imp0, imp1 and imp4 consume their own s-call");
        let p1 = build_model(
            inst,
            db,
            ProblemKind::Problem1,
            &RequiredGains::uniform(Cycles(0)),
        )
        .unwrap();
        assert!(rows(&p1, "sc_pc_conflict").is_empty());
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
