//! SC-PC clique rows on formulated models: the GSM encoder of Table 1,
//! the JPEG encoder of Table 3, a `synth:table` corpus entry and
//! hand-built databases with the relation's corner cases.
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

mod common;

use std::collections::{BTreeMap, BTreeSet};

use partita::core::{
    sc_pc_conflicts, Imp, ImpDb, ImpId, Instance, ParallelChoice, RequiredGains, SCall,
    SolveOptions, Solver,
};
use partita::ilp::{Model, Relation};
use partita::interface::{InterfaceKind, TransferJob};
use partita::ip::{IpBlock, IpFunction};
use partita::mop::{AreaTenths, CallSiteId, Cycles};
use partita::workloads::{gsm, jpeg};

/// The `sc_pc_conflict` rows of `model`, as IMP sets with coefficients.
fn conflict_rows(model: &Model) -> Vec<Vec<(ImpId, f64)>> {
    let imp_of: BTreeMap<usize, ImpId> = (0..model.num_vars())
        .filter_map(|i| {
            let name = model.var_name(partita::ilp::VarId(i)).ok()?;
            let id = name.strip_prefix("x_imp")?.parse().ok()?;
            Some((i, ImpId(id)))
        })
        .collect();
    model
        .constraints()
        .iter()
        .filter(|c| c.label.as_deref() == Some("sc_pc_conflict"))
        .map(|c| {
            assert_eq!((c.relation, c.rhs), (Relation::Le, 1.0));
            c.expr
                .iter_terms()
                .map(|(v, k)| (imp_of[&v.index()], k))
                .collect()
        })
        .collect()
}

/// Checks the clique rows of the Problem 2 model of `instance` over `db`
/// against the conflict pairs between active IMPs, and returns how many
/// of each there are.
fn check(instance: &Instance, db: &ImpDb) -> (usize, usize) {
    let name = &instance.name;
    let rg = Cycles(0);
    let solver = Solver::new(instance).with_imps(db.clone());
    let rows = conflict_rows(
        &solver
            .formulate(&SolveOptions::problem2(RequiredGains::uniform(rg)))
            .expect("problem 2 formulates"),
    );
    let p1 = solver
        .formulate(&SolveOptions::problem1(RequiredGains::uniform(rg)))
        .expect("problem 1 formulates");
    assert!(conflict_rows(&p1).is_empty(), "Problem 1 has no SC-PC rows");

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
