//! Helpers shared by the root integration gates (differential, determinism,
//! corpus, fuzz, end-to-end). Each gate binary compiles its own copy via
//! `mod common;` — not every binary uses every helper.
#![allow(dead_code)]

use partita::core::{
    RequiredGains, Selection, SelectionAuditor, SolveBudget, SolveOptions, Solver,
};
use partita::mop::Cycles;
use partita::workloads::corpus::{self, ManifestEntry};
use partita::workloads::Workload;

/// Serializes everything reproducible about a selection — the chosen IMPs,
/// objective, totals and per-path gains — excluding the trace (wall times
/// legitimately vary between runs). Byte equality of these strings is the
/// determinism contract across backends, warm starts, cache layers and
/// corpus replays.
pub fn serialize_selection(sel: &Selection) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "objective={};area={};gain={};status={}\n",
        sel.objective,
        sel.total_area(),
        sel.total_gain().get(),
        sel.status
    ));
    for imp in sel.chosen() {
        out.push_str(&format!("{imp:?}\n"));
    }
    for (path, gain) in &sel.gain_per_path {
        out.push_str(&format!("{path:?}={}\n", gain.get()));
    }
    out
}

/// Solves one sweep point with `budget` on the default backend.
pub fn solve_point(w: &Workload, rg: Cycles, budget: SolveBudget) -> Selection {
    Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)).budget(budget))
        .expect("sweep point feasible")
}

/// Runs the independent auditor over a selection and asserts a clean report.
pub fn assert_audit_clean(w: &Workload, sel: &Selection, opts: &SolveOptions, ctx: &str) {
    let report = SelectionAuditor::new(&w.instance, &w.imps).audit(sel, opts);
    assert!(
        report.is_clean(),
        "audit oracle rejected the solution at {ctx}: {}",
        report.to_json()
    );
}

/// The committed corpus manifest; parse failures are a gate failure, not a
/// skip.
pub fn manifest() -> Vec<ManifestEntry> {
    corpus::manifest().expect("tests/corpus/manifest.json parses")
}

/// Manifest entries the always-on gates iterate (everything not env-gated).
pub fn ungated_entries() -> Vec<ManifestEntry> {
    manifest().into_iter().filter(|e| !e.gated).collect()
}

/// Scale entries behind `PARTITA_CORPUS_X100=1`.
pub fn gated_entries() -> Vec<ManifestEntry> {
    manifest().into_iter().filter(|e| e.gated).collect()
}

/// Whether the env-gated scale leg is enabled for this run.
pub fn x100_enabled() -> bool {
    std::env::var("PARTITA_CORPUS_X100").is_ok_and(|v| v == "1")
}

/// Ungated entries of one family (and, for synth, one preset).
pub fn entries_for(family: &str, preset: &str) -> Vec<ManifestEntry> {
    ungated_entries()
        .into_iter()
        .filter(|e| e.family == family && e.preset == preset)
        .collect()
}

/// Rebuilds a manifest entry and checks its pinned content digest — any
/// silent generator drift fails here with a regeneration hint.
pub fn verified_workload(entry: &ManifestEntry) -> Workload {
    entry.verify().expect("corpus entry rebuilds to its digest")
}

/// The middle of a workload's RG sweep — the canonical single probe point
/// when iterating a corpus too large to solve at every sweep value.
pub fn mid_rg(w: &Workload) -> Cycles {
    w.rg_sweep[w.rg_sweep.len() / 2]
}
