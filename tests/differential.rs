//! Differential-testing corpus: branch-and-bound and exhaustive enumeration
//! must agree on objective value and feasibility across the committed
//! corpus' `micro` population.
//!
//! This is the equivalence lock for the branch-and-bound solver: exhaustive
//! enumeration is an independent oracle (no LP, no pruning), so any
//! divergence is a solver bug, not a tie-break artifact. Instances whose
//! model exceeds the exhaustive backend's binary-variable cap are skipped —
//! the micro preset is sized so at least 50 (entry, RG) points survive.
//! Every entry rebuilds through its manifest digest first, so the oracle
//! runs over exactly the committed instances, not whatever the generator
//! happens to emit today.

mod common;

use partita::core::{
    Backend, CoreError, RequiredGains, Selection, SolveBudget, SolveOptions, Solver, SweepSession,
};
use partita::ilp::IlpError;

/// One backend's verdict on an instance, reduced to what both must agree
/// on.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Feasible: objective (total area in tenths, an exact integer quantity)
    /// and gain.
    Feasible { area: i64, gain: u64 },
    /// Proven infeasible.
    Infeasible,
}

/// `None` when the backend cannot handle the instance (exhaustive cap).
fn verdict(result: Result<Selection, CoreError>) -> Option<Verdict> {
    match result {
        Ok(sel) => {
            assert!(
                sel.status.is_optimal(),
                "unbudgeted solve must prove optimality, got {}",
                sel.status
            );
            Some(Verdict::Feasible {
                area: sel.total_area().tenths(),
                gain: sel.total_gain().get(),
            })
        }
        Err(CoreError::Infeasible { .. }) => Some(Verdict::Infeasible),
        Err(CoreError::Ilp(IlpError::TooManyBinaries { .. })) => None,
        // A seed can produce an instance with an empty IMP database; no
        // backend gets to run, so there is nothing to compare.
        Err(CoreError::NoImps) => None,
        Err(e) => panic!("unexpected solver error: {e}"),
    }
}

#[test]
fn serial_parallel_and_exhaustive_agree_on_corpus() {
    let entries = common::entries_for("synth", "micro");
    assert!(!entries.is_empty(), "micro corpus entries missing");
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for entry in &entries {
        let w = common::verified_workload(entry);
        for &rg in &w.rg_sweep {
            let solve = |backend: Backend| {
                Solver::new(&w.instance).with_imps(w.imps.clone()).solve(
                    &SolveOptions::problem2(RequiredGains::uniform(rg))
                        .backend(backend)
                        // The oracle role needs full enumeration, so the
                        // node budget is effectively unlimited (the
                        // exhaustive binary-variable cap still bounds the
                        // work); `verdict` rejects any answer that is not
                        // proven, so a greedy rescue cannot slip into the
                        // comparison.
                        .budget(SolveBudget::default().with_max_nodes(usize::MAX)),
                )
            };
            let ctx = format!("{}, RG {}", entry.id, rg.get());
            let Some(oracle) = verdict(solve(Backend::Exhaustive)) else {
                skipped += 1;
                continue;
            };
            let serial_result = solve(Backend::BranchBound);
            // Independent audit oracle: every feasible selection must
            // re-derive cleanly from the raw instance and IMP database,
            // without consulting the ILP model that produced it.
            if let Ok(sel) = &serial_result {
                common::assert_audit_clean(
                    &w,
                    sel,
                    &SolveOptions::problem2(RequiredGains::uniform(rg)),
                    &ctx,
                );
            }

            let serial = verdict(serial_result).expect("branch-and-bound has no size cap");

            // Both agree on feasibility and, when feasible, on the
            // objective (area) — ties in the assignment are allowed to
            // differ between branch-and-bound and the enumeration oracle,
            // but area is part of the objective contract.
            match (&oracle, &serial) {
                (Verdict::Feasible { area: oa, .. }, Verdict::Feasible { area: sa, .. }) => {
                    assert_eq!(
                        oa, sa,
                        "branch-and-bound area diverged from oracle at {ctx}"
                    );
                }
                (Verdict::Infeasible, Verdict::Infeasible) => {}
                other => panic!("feasibility verdicts diverged at {ctx}: {other:?}"),
            }
            compared += 1;
        }
    }
    assert!(
        compared >= 50,
        "differential corpus too small: {compared} compared, {skipped} skipped \
         (grow the micro population or shrink the instances)"
    );
}

/// The sweep session against the uncached solver, over the same corpus: a
/// session solve (cache miss) and its immediate replay (cache hit) must
/// both be byte-identical — trace included — to the plain `Solver::solve`
/// result for the same options.
#[test]
fn session_cache_agrees_with_uncached_solver_on_corpus() {
    let entries = common::entries_for("synth", "micro");
    let mut compared = 0usize;
    for entry in entries.iter().take(10) {
        let w = common::verified_workload(entry);
        let mut session = SweepSession::new();
        for &rg in &w.rg_sweep {
            // `.audit(true)` routes every solve — the lone one, the session
            // miss, and the session cache hit — through the post-solve
            // auditor; a violation would surface as `CoreError::AuditFailed`
            // and trip the divergence match.
            let opts = SolveOptions::problem2(RequiredGains::uniform(rg)).audit(true);
            let lone = Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&opts);
            let cold = session.solve(&w.instance, &w.imps, &opts);
            let hit = session.solve(&w.instance, &w.imps, &opts);
            let ctx = format!("{}, RG {}", entry.id, rg.get());
            match (lone, cold, hit) {
                (Ok(lone), Ok(cold), Ok(hit)) => {
                    // The lone solve ran outside the session, so wall
                    // times differ; the decoded result must not.
                    assert_eq!(lone.chosen(), cold.chosen(), "{ctx}");
                    assert_eq!(lone.total_area(), cold.total_area(), "{ctx}");
                    assert_eq!(lone.status, cold.status, "{ctx}");
                    // The replay is the memoized value, bit for bit.
                    assert_eq!(cold, hit, "{ctx}: cache hit diverged");
                    compared += 1;
                }
                (Err(_), Err(_), Err(_)) => {}
                other => panic!("session vs solver diverged at {ctx}: {other:?}"),
            }
        }
    }
    assert!(
        compared >= 20,
        "session corpus too small: {compared} compared"
    );
}

/// The incremental re-solve layer against the uncached solver, over the
/// corpus: a `DeltaSession` walking a workload's RG sweep via `SetRg`
/// patches (basis repair + incumbent seeding enabled) must return, at
/// every point, the identical selection a cold `Solver::solve` of the
/// patched options produces — and it must pass the independent audit.
#[test]
fn delta_session_agrees_with_cold_solver_on_corpus() {
    use partita::core::{DeltaSession, InstanceDelta};

    let entries = common::entries_for("synth", "micro");
    let mut compared = 0usize;
    for entry in &entries {
        let w = common::verified_workload(entry);
        let base = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[0]));
        let mut session = match DeltaSession::new(
            std::sync::Arc::clone(&w.instance),
            std::sync::Arc::clone(&w.imps),
            base,
        ) {
            Ok(s) => s,
            // A seed can produce an empty IMP database; nothing to compare.
            Err(CoreError::NoImps) => continue,
            Err(e) => panic!("formulation failed at {}: {e}", entry.id),
        };
        // Walk the sweep high-to-low then back up: the descent patches the
        // model to ever looser requirements, and the ascent meets points
        // that the answers stored on the way down cover.
        let mut points: Vec<_> = w.rg_sweep.clone();
        points.reverse();
        points.extend(w.rg_sweep.iter().copied());
        for (i, &rg) in points.iter().enumerate() {
            let ctx = format!("{}, point {i}, RG {}", entry.id, rg.get());
            session
                .apply(InstanceDelta::SetRg(RequiredGains::uniform(rg)))
                .expect("SetRg patch");
            let warm = session.resolve();
            let cold = Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(session.options());
            match (&warm, &cold) {
                (Ok(w_sel), Ok(c_sel)) => {
                    assert_eq!(w_sel.chosen(), c_sel.chosen(), "{ctx}: chosen diverged");
                    assert_eq!(
                        w_sel.total_area(),
                        c_sel.total_area(),
                        "{ctx}: area diverged"
                    );
                    assert_eq!(w_sel.status, c_sel.status, "{ctx}: status diverged");
                    common::assert_audit_clean(&w, w_sel, session.options(), &ctx);
                    compared += 1;
                }
                (Err(CoreError::Infeasible { .. }), Err(CoreError::Infeasible { .. })) => {
                    compared += 1;
                }
                other => panic!("{ctx}: delta vs cold diverged: {other:?}"),
            }
        }
    }
    assert!(
        compared >= 50,
        "delta corpus too small: {compared} compared (grow the micro population)"
    );
}
