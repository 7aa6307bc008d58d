//! The manifest-driven corpus gate: every committed corpus instance must
//! rebuild to its pinned digest, solve at its mid-sweep requirement and
//! pass the independent audit.
//!
//! The corpus splits into three legs by scale:
//!
//! * **optimal leg** — `micro`/`small` synth entries plus all four DSP
//!   families (250 of the 274 ungated entries): full branch-and-bound
//!   plus the audit oracle;
//! * **heuristic leg** — `table`/`x10` entries, where worst-case optimal
//!   solves are minutes, not milliseconds: the deterministic greedy
//!   baseline plus the audit oracle;
//! * **gated scale leg** — `x100` entries, skipped unless
//!   `PARTITA_CORPUS_X100=1` (the CI audit job sets it): generation,
//!   digest, greedy and audit at three orders of magnitude.

mod common;

use partita::core::{Backend, RequiredGains, SolveBudget, SolveOptions, Solver};

/// Families/presets cheap enough to solve to proven optimality everywhere.
fn optimal_leg(entry: &partita::workloads::corpus::ManifestEntry) -> bool {
    match entry.family.as_str() {
        "synth" => matches!(entry.preset.as_str(), "micro" | "small"),
        _ => true,
    }
}

/// Every ungated entry rebuilds to its manifest digest — the drift lock
/// that makes the other gates' results attributable to committed inputs.
#[test]
fn all_ungated_entries_rebuild_to_their_digests() {
    let entries = common::ungated_entries();
    assert!(entries.len() >= 200, "{} ungated entries", entries.len());
    for entry in &entries {
        common::verified_workload(entry);
    }
}

/// The optimal leg: a mid-sweep solve must audit clean, over at least 200
/// corpus instances. Cross-backend byte-identity is
/// `tests/differential.rs`'s job.
#[test]
fn corpus_selections_byte_identical_across_threads_and_audit_clean() {
    let entries: Vec<_> = common::ungated_entries()
        .into_iter()
        .filter(optimal_leg)
        .collect();
    assert!(
        entries.len() >= 200,
        "optimal leg shrank to {} entries",
        entries.len()
    );
    for entry in &entries {
        let w = common::verified_workload(entry);
        let rg = common::mid_rg(&w);
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
        let sel = common::solve_point(&w, rg, SolveBudget::default());
        common::assert_audit_clean(&w, &sel, &opts, &entry.id);
    }
}

/// The heuristic leg: `table`/`x10` entries run the deterministic greedy
/// baseline (worst-case optimal solves at this scale are minutes); the
/// selection must still re-derive cleanly under the independent audit and
/// replay byte-identically.
#[test]
fn large_preset_greedy_solutions_audit_clean() {
    let entries: Vec<_> = common::ungated_entries()
        .into_iter()
        .filter(|e| !optimal_leg(e))
        .collect();
    assert!(!entries.is_empty(), "table/x10 entries missing");
    for entry in &entries {
        let w = common::verified_workload(entry);
        let rg = common::mid_rg(&w);
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg)).backend(Backend::Greedy);
        let solve = || {
            Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&opts)
                .unwrap_or_else(|e| panic!("{}: greedy baseline failed: {e}", entry.id))
        };
        let sel = solve();
        common::assert_audit_clean(&w, &sel, &opts, &entry.id);
        assert_eq!(
            common::serialize_selection(&sel),
            common::serialize_selection(&solve()),
            "{}: greedy replay diverged",
            entry.id
        );
    }
}

/// The env-gated scale leg (`PARTITA_CORPUS_X100=1`): x100 entries verify
/// their digests and run greedy + audit. Optimal solves are out of reach
/// at 1800 s-calls; determinism of the generator and soundness of the
/// heuristic are what the scale leg locks.
#[test]
fn gated_x100_entries_generate_and_audit_clean() {
    let entries = common::gated_entries();
    assert!(!entries.is_empty(), "gated x100 entries missing");
    if !common::x100_enabled() {
        eprintln!(
            "skipping {} x100 entries (set PARTITA_CORPUS_X100=1 to run)",
            entries.len()
        );
        return;
    }
    for entry in &entries {
        let w = common::verified_workload(entry);
        let rg = common::mid_rg(&w);
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg)).backend(Backend::Greedy);
        let sel = Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .solve(&opts)
            .unwrap_or_else(|e| panic!("{}: greedy baseline failed: {e}", entry.id));
        common::assert_audit_clean(&w, &sel, &opts, &entry.id);
    }
}

/// The manifest and the in-code population must list exactly the same
/// specs in the same order — adding a family without regenerating the
/// manifest fails here, not silently in coverage.
#[test]
fn manifest_matches_population() {
    let entries = common::manifest();
    let pop = partita::workloads::corpus::population();
    assert_eq!(entries.len(), pop.len(), "regenerate the manifest");
    for (e, s) in entries.iter().zip(&pop) {
        assert_eq!(e.id, s.id(), "manifest order diverged from population");
        assert_eq!(e.gated, s.gated, "{}: gating diverged", e.id);
    }
}
