//! A budget stop is never an infeasibility proof.
//!
//! Every `synth:micro` and `synth:table` manifest sweep point is solved
//! with branch-and-bound capped at 1 and at 45 nodes. With the default
//! options (greedy warm start on) no capped solve may answer
//! `CoreError::Infeasible`: only a completed search proves that. A search
//! that ran dry answers `BudgetExhausted`: greedy's selection was already
//! among its seeds and rejected, so the greedy rescue finds nothing either.
//! With the warm start off, greedy rescues a dry search, and the rescued
//! answer is greedy's own selection, tagged `fallback_used`. Because the
//! warm start changes such answers, a solve cache, which keys a point
//! without that flag, must not keep them.

mod common;

use partita::core::baseline::solve_greedy;
use partita::core::sweep::SweepSession;
use partita::core::{
    CoreError, ImpId, OptimalityStatus, RequiredGains, Selection, SolveBudget, SolveOptions, Solver,
};
use partita::mop::Cycles;
use partita::workloads::Workload;

/// The node caps every point is solved at.
const CAPS: [usize; 2] = [1, 45];

fn capped_options(rg: Cycles, cap: usize, warm: bool) -> SolveOptions {
    SolveOptions::problem2(RequiredGains::uniform(rg))
        .warm_start(warm)
        .budget(SolveBudget::default().with_max_nodes(cap))
}

fn capped(w: &Workload, rg: Cycles, cap: usize, warm: bool) -> Result<Selection, CoreError> {
    Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(&capped_options(rg, cap, warm))
}

/// The chosen IMP ids, sorted: the selection without its status.
fn chosen_ids(sel: &Selection) -> Vec<ImpId> {
    let mut ids: Vec<ImpId> = sel.chosen().iter().map(|imp| imp.id).collect();
    ids.sort_unstable();
    ids
}

/// Solves every sweep point of one preset at both caps, with and without
/// the warm start, and checks the rules above. Returns how many capped
/// solves greedy rescued.
fn check_preset(preset: &str) -> usize {
    let entries = common::entries_for("synth", preset);
    assert!(!entries.is_empty(), "synth:{preset} entries missing");
    let mut rescued = 0;
    for entry in &entries {
        let w = common::verified_workload(entry);
        for (index, &rg) in w.rg_sweep.iter().enumerate() {
            let greedy = solve_greedy(&w.instance, &w.imps, &RequiredGains::uniform(rg));
            for cap in CAPS {
                let ctx = format!("{} index {index} cap {cap}", entry.id);
                match capped(&w, rg, cap, true) {
                    Ok(sel) => assert_ne!(sel.status, OptimalityStatus::FallbackUsed, "{ctx}"),
                    Err(CoreError::BudgetExhausted) => {}
                    Err(e) => panic!("{ctx}: a capped solve answered {e}"),
                }
                match (capped(&w, rg, cap, false), &greedy) {
                    (Ok(sel), Ok(g)) if sel.status == OptimalityStatus::FallbackUsed => {
                        assert_eq!(
                            chosen_ids(&sel),
                            chosen_ids(g),
                            "{ctx}: the rescue is greedy's selection"
                        );
                        rescued += 1;
                    }
                    (Ok(sel), _) => {
                        assert_ne!(sel.status, OptimalityStatus::FallbackUsed, "{ctx}");
                    }
                    (Err(CoreError::BudgetExhausted), Err(_)) => {}
                    (other, _) => panic!("{ctx}, warm start off: {other:?}"),
                }
            }
        }
    }
    rescued
}

#[test]
fn capped_micro_points_never_answer_infeasible() {
    assert!(
        check_preset("micro") > 0,
        "no capped micro solve was rescued"
    );
}

#[test]
fn capped_table_points_never_answer_infeasible() {
    assert!(
        check_preset("table") > 0,
        "no capped table solve was rescued"
    );
}

/// The points where greedy fails and a capped search finds nothing. Each
/// is feasible, so each must answer `BudgetExhausted`, with the warm start
/// on or off.
#[test]
fn dry_searches_without_a_rescue_answer_budget_exhausted() {
    let manifest = common::manifest();
    for (id, index, cap) in [
        ("synth-table-0009", 3, 45),
        ("synth-table-0011", 3, 45),
        ("synth-micro-0013", 0, 1),
    ] {
        let entry = manifest.iter().find(|e| e.id == id).expect("entry");
        let w = common::verified_workload(entry);
        let rg = w.rg_sweep[index];
        assert!(solve_greedy(&w.instance, &w.imps, &RequiredGains::uniform(rg)).is_err());
        for warm in [true, false] {
            assert_eq!(
                capped(&w, rg, cap, warm).unwrap_err(),
                CoreError::BudgetExhausted,
                "{id} index {index} cap {cap} warm start {warm}"
            );
        }
    }
}

/// One session serves a capped point cold, then warm. The two answers
/// differ, and the warm request must get its own, not the cold one from
/// the session's cache.
#[test]
fn session_cache_keeps_no_budget_stopped_answer() {
    let manifest = common::manifest();
    let entry = manifest
        .iter()
        .find(|e| e.id == "synth-micro-0000")
        .expect("entry");
    let w = common::verified_workload(entry);
    let rg = w.rg_sweep[0];
    let mut session = SweepSession::new();
    let mut statuses = Vec::new();
    for warm in [false, true] {
        let served = session
            .solve(&w.instance, &w.imps, &capped_options(rg, 1, warm))
            .expect("session solve");
        let fresh = capped(&w, rg, 1, warm).expect("fresh solve");
        assert_eq!(served.status, fresh.status, "warm start {warm}");
        assert_eq!(chosen_ids(&served), chosen_ids(&fresh), "warm start {warm}");
        statuses.push(fresh.status);
    }
    assert_eq!(
        statuses,
        [
            OptimalityStatus::FallbackUsed,
            OptimalityStatus::FeasibleBudgetExhausted
        ],
        "the warm start must change this point's answer"
    );
    assert_eq!(session.trace().cache_hits, 0);
}
