//! SC-PC clique rows and fixed-charge rows on formulated models: the GSM
//! encoder of Table 1, the JPEG encoder of Table 3, a `synth:table` corpus
//! entry and hand-built databases with the relation's corner cases.
//!
//! Problem 2 writes the SC-PC conflicts of [`sc_pc_conflicts`] as one
//! set-packing row per (consuming s-call, consumed s-call) pair instead of
//! one row per conflict pair. Here a conflict pair between two s-calls
//! must lie inside exactly one emitted `sc_pc_conflict` row per such
//! s-call pair it conflicts under, a pair inside one s-call inside at
//! least one, and an IMP that consumes its own s-call must keep one
//! `2·x ≤ 1` row. No row may join two IMPs that neither share an s-call
//! nor conflict, and Problem 1 must emit none. That the rows allow the
//! same 0/1 points as the pairs is checked exhaustively on the same
//! hand-built databases by the unit tests in `crates/core/src/formulate.rs`.
//!
//! Every IP that an IMP with a column uses has one `fixed-charge` row
//! `Σ x − M_k·z_k ≤ 0`: each such IMP once with coefficient 1, even one
//! that lists the IP twice, and `M_k` the number of distinct s-calls among
//! them (Eq. 1 allows one IMP per s-call). Against the paper's `M_k` = the
//! number of those IMPs, the root LP bound never drops.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use partita::core::{
    sc_pc_conflicts, Imp, ImpDb, ImpId, Instance, ParallelChoice, RequiredGains, SCall,
    SolveOptions, Solver,
};
use partita::ilp::simplex::{solve_relaxation, SimplexOptions};
use partita::ilp::{Model, Relation, VarId, VarKind};
use partita::interface::{InterfaceKind, TransferJob};
use partita::ip::{IpBlock, IpFunction, IpId};
use partita::mop::{AreaTenths, CallSiteId, Cycles};
use partita::workloads::{gsm, jpeg, Workload};

/// The `sc_pc_conflict` rows of `model`, as IMP sets with coefficients.
fn conflict_rows(model: &Model) -> Vec<Vec<(ImpId, f64)>> {
    let imp_of = imp_columns(model);
    model
        .constraints()
        .iter()
        .filter(|c| c.label == Some("sc_pc_conflict".into()))
        .map(|c| {
            assert_eq!((c.relation, c.rhs), (Relation::Le, 1.0));
            c.expr
                .iter_terms()
                .map(|(v, k)| (imp_of[&v.index()], k))
                .collect()
        })
        .collect()
}

/// The IMP behind each `x` column of `model`, by column index.
fn imp_columns(model: &Model) -> BTreeMap<usize, ImpId> {
    (0..model.num_vars())
        .filter_map(|i| {
            let name = model.var_name(VarId(i)).ok()?;
            let id = name.strip_prefix("x_imp")?.parse().ok()?;
            Some((i, ImpId(id)))
        })
        .collect()
}

/// Checks that `model` has one `fixed-charge` row per IP an IMP column
/// uses, holding each such IMP once with coefficient 1 and the IP's
/// indicator with `−M_k`, `M_k` the number of distinct s-calls among them.
fn check_fixed_charge_rows(name: &str, model: &Model, db: &ImpDb) {
    let imp_of = imp_columns(model);
    let mut want: BTreeMap<IpId, BTreeSet<ImpId>> = BTreeMap::new();
    for &id in imp_of.values() {
        for &ip in &db.get(id).expect("known IMP").ips {
            want.entry(ip).or_default().insert(id);
        }
    }
    let mut seen = BTreeSet::new();
    for c in model.constraints() {
        if c.label != Some("fixed-charge".into()) {
            continue;
        }
        assert_eq!((c.relation, c.rhs), (Relation::Le, 0.0), "{name}");
        let mut users = BTreeSet::new();
        let mut indicator = None;
        for (v, k) in c.expr.iter_terms() {
            match imp_of.get(&v.index()) {
                Some(&id) => {
                    assert_eq!(k, 1.0, "{name}: {id} in a fixed-charge row");
                    users.insert(id);
                }
                None => {
                    let ip = model.var_name(v).expect("known var");
                    let ip = ip.strip_prefix("z_IP").expect("an indicator");
                    assert!(indicator.is_none(), "{name}: two indicators in a row");
                    indicator = Some((IpId(ip.parse().expect("IP index")), k));
                }
            }
        }
        let (ip, k) = indicator.expect("every fixed-charge row has an indicator");
        assert_eq!(Some(&users), want.get(&ip), "{name}: users of {ip}");
        let scalls: BTreeSet<CallSiteId> = users
            .iter()
            .map(|&id| db.imps()[id.index()].scall)
            .collect();
        assert_eq!(k, -(scalls.len() as f64), "{name}: M of {ip}");
        assert!(seen.insert(ip), "{name}: two rows for {ip}");
    }
    assert_eq!(seen.len(), want.len(), "{name}: an IP without its row");
}

/// Checks the clique rows of the Problem 2 model of `instance` over `db`
/// against the conflict pairs between active IMPs, and returns how many
/// of each there are.
fn check(instance: &Instance, db: &ImpDb) -> (usize, usize) {
    let name = &instance.name;
    let rg = Cycles(0);
    let solver = Solver::new(instance).with_imps(db.clone());
    let p2 = solver
        .formulate(&SolveOptions::problem2(RequiredGains::uniform(rg)))
        .expect("problem 2 formulates");
    let rows = conflict_rows(&p2);
    let p1 = solver
        .formulate(&SolveOptions::problem1(RequiredGains::uniform(rg)))
        .expect("problem 1 formulates");
    assert!(conflict_rows(&p1).is_empty(), "Problem 1 has no SC-PC rows");
    check_fixed_charge_rows(name, &p2, db);
    check_fixed_charge_rows(name, &p1, db);

    let scall = |id: ImpId| db.get(id).expect("known IMP").scall;
    let conflicts: Vec<_> = sc_pc_conflicts(db)
        .into_iter()
        .filter(|p| db.is_active(p.a) && db.is_active(p.b))
        .collect();
    let pairs: BTreeSet<(ImpId, ImpId)> = conflicts
        .iter()
        .flat_map(|p| [(p.a, p.b), (p.b, p.a)])
        .collect();
    for &(a, b) in &pairs {
        if a == b {
            let kept = rows.iter().filter(|row| row[..] == [(a, 2.0)]).count();
            assert_eq!(kept, 1, "{name}: {a} consumes its own s-call");
            continue;
        }
        let holding = rows
            .iter()
            .filter(|row| row.contains(&(a, 1.0)) && row.contains(&(b, 1.0)))
            .count();
        if scall(a) == scall(b) {
            // Every row whose consumed s-call is theirs holds both.
            assert!(holding >= 1, "{name}: conflict ({a}, {b}) in no row");
            continue;
        }
        // Two groups only when each IMP consumes the other's s-call.
        let groups: BTreeSet<(CallSiteId, CallSiteId)> = conflicts
            .iter()
            .filter(|p| (p.a, p.b) == (a, b) || (p.a, p.b) == (b, a))
            .map(|p| (scall(p.a), scall(p.b)))
            .collect();
        assert_eq!(holding, groups.len(), "{name}: conflict ({a}, {b})");
    }
    for row in &rows {
        assert!(
            row.iter().all(|&(_, k)| k == 1.0)
                || matches!(row[..], [(a, 2.0)] if pairs.contains(&(a, a))),
            "{name}: unexpected row {row:?}"
        );
        for (i, &(u, _)) in row.iter().enumerate() {
            for &(v, _) in &row[i + 1..] {
                assert!(
                    scall(u) == scall(v) || pairs.contains(&(u, v)),
                    "{name}: row joins unrelated {u} and {v}"
                );
            }
        }
    }
    (conflicts.len(), rows.len())
}

/// `n` s-calls with distinct names on one path, and a database of one
/// IMP per `(s-call, parallel choice)` — the fixture of the unit tests.
fn fixture(n: u32, imps: Vec<(u32, ParallelChoice)>) -> (Instance, ImpDb) {
    let mut inst = Instance::new("cliques");
    let ip = inst.library.add(
        IpBlock::builder("fir")
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

#[test]
fn paper_models_keep_their_conflict_rows() {
    // Table 1's one conflict pair is its own clique. Table 3 has no
    // SC-PC pair, so its leg only pins that no row appears.
    let w = gsm::encoder();
    assert_eq!(check(&w.instance, &w.imps), (1, 1));
    let w = jpeg::encoder();
    assert_eq!(check(&w.instance, &w.imps), (0, 0));
}

#[test]
fn synth_table_clique_rows_cover_the_conflicts() {
    let entry = common::entries_for("synth", "table")
        .into_iter()
        .find(|e| e.id == "synth-table-0000")
        .expect("synth-table-0000 in the manifest");
    let w = common::verified_workload(&entry);
    let (pairs, rows) = check(&w.instance, &w.imps);
    assert_eq!((pairs, rows), (1260, 9), "1,260 pairs become 9 clique rows");
}

/// A consumer listing the same s-call twice (what a duplicated
/// `sw_pc_candidates` entry generates), s-calls that list themselves,
/// two s-calls consuming each other, one IMP consuming two s-calls, and
/// a retired IMP.
#[test]
fn hand_built_clique_rows_cover_the_conflicts() {
    use ParallelChoice::{None as Plain, PlainPc, SwScalls};
    let sw = |s: &[u32]| SwScalls(s.iter().map(|&i| CallSiteId(i)).collect());
    let mut retired = fixture(
        3,
        vec![
            (0, sw(&[1])),
            (0, sw(&[1])),
            (1, Plain),
            (1, PlainPc),
            (2, sw(&[1])),
        ],
    );
    assert!(retired.1.retire(ImpId(1)));
    let cases = [
        fixture(
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
        fixture(
            2,
            vec![
                (0, sw(&[0])),
                (0, sw(&[0, 1])),
                (0, Plain),
                (1, Plain),
                (1, sw(&[1])),
            ],
        ),
        fixture(
            2,
            vec![
                (0, sw(&[1])),
                (0, Plain),
                (1, sw(&[0])),
                (1, PlainPc),
                (1, Plain),
            ],
        ),
        fixture(
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
    ];
    for (inst, db) in &cases {
        let (pairs, rows) = check(inst, db);
        assert!(pairs > 0 && rows > 0, "every case has conflicts");
    }
}

/// `model` with every `fixed-charge` row's indicator coefficient set to
/// the paper's `−M`, `M` the number of IMP columns in the row (§4.1's
/// `M ≥ Σ x_ij`, which holds without Eq. 1).
fn with_paper_m(model: &Model) -> Model {
    let mut paper = Model::new(model.sense());
    for i in 0..model.num_vars() {
        let v = VarId(i);
        let name = model.var_name(v).expect("known var");
        match model.var_kind(v).expect("known var") {
            VarKind::Binary => paper.add_binary(name.into_owned()),
            VarKind::Continuous => {
                let (lo, hi) = model.var_bounds(v).expect("known var");
                paper.add_continuous(name.into_owned(), lo, hi)
            }
        };
    }
    paper.set_objective_expr(model.objective().clone());
    for c in model.constraints() {
        let mut terms = c.expr.terms();
        if c.label == Some("fixed-charge".into()) {
            let users = terms.iter().filter(|&&(_, k)| k > 0.0).count();
            for (_, k) in terms.iter_mut().filter(|(_, k)| *k < 0.0) {
                *k = -(users as f64);
            }
        }
        paper
            .add_labeled_constraint(terms, c.relation, c.rhs, c.label.clone())
            .expect("same variables");
    }
    paper
}

/// The root LP bounds at `w`'s first `points` sweep RGs, with the
/// emitted M and with the paper's.
fn root_bounds(w: &Workload, points: usize) -> Vec<(f64, f64)> {
    let solver = Solver::new(&w.instance).with_imps(w.imps.clone());
    w.rg_sweep
        .iter()
        .take(points)
        .map(|&rg| {
            let model = solver
                .formulate(&SolveOptions::problem2(RequiredGains::uniform(rg)))
                .expect("formulates");
            let lp = |m: &Model| {
                solve_relaxation(m, SimplexOptions::default())
                    .expect("a feasible sweep point has a feasible root LP")
                    .objective
            };
            (lp(&model), lp(&with_paper_m(&model)))
        })
        .collect()
}

/// The root LP bound with the emitted `M_k` is at least the paper-M
/// bound at every sweep point of Tables 1–3 and at `synth-table-0000`'s
/// three lowest (the `scale` points), and strictly above it somewhere in
/// each: a valid tighter `M` can only raise the bound.
#[test]
fn tight_m_root_bound_never_drops() {
    let entry = common::entries_for("synth", "table")
        .into_iter()
        .find(|e| e.id == "synth-table-0000")
        .expect("synth-table-0000 in the manifest");
    for (name, w, points) in [
        ("table1", gsm::encoder(), usize::MAX),
        ("table2", gsm::decoder(), usize::MAX),
        ("table3", jpeg::encoder(), usize::MAX),
        ("synth-table-0000", common::verified_workload(&entry), 3),
    ] {
        let bounds = root_bounds(&w, points);
        for (k, &(tight, paper)) in bounds.iter().enumerate() {
            assert!(
                tight >= paper - 1e-9 * paper.abs().max(1.0),
                "{name} point {k}: root bound {tight} below the paper-M {paper}"
            );
        }
        assert!(
            bounds.iter().any(|&(tight, paper)| tight > paper + 1e-6),
            "{name}: the tight M never raised the root bound"
        );
    }
}

/// An IMP that lists its IP twice is one term of that IP's row, and `M`
/// still counts s-calls.
#[test]
fn fixed_charge_rows_count_an_ip_listed_twice_once() {
    use ParallelChoice::{None as Plain, PlainPc};
    let (inst, db) = fixture(2, vec![(0, Plain), (0, PlainPc), (1, Plain)]);
    let mut imps = db.imps().to_vec();
    let ip = imps[0].ips[0];
    imps[0].ips.push(ip);
    let db = ImpDb::from_imps(imps);
    let model = Solver::new(&inst)
        .with_imps(db.clone())
        .formulate(&SolveOptions::problem2(RequiredGains::uniform(Cycles(0))))
        .expect("formulates");
    check_fixed_charge_rows("listed twice", &model, &db);
    let row = model
        .constraints()
        .iter()
        .find(|c| c.label == Some("fixed-charge".into()))
        .expect("one fixed-charge row");
    let coeffs: Vec<f64> = row.expr.iter_terms().map(|(_, k)| k).collect();
    assert_eq!(coeffs, [1.0, 1.0, 1.0, -2.0]);
}
