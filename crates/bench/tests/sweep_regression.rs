//! Regression gate for the sweep orchestration layer: on the published
//! table sweeps and the Fig. 11 hierarchical sweep, descending-RG chained
//! sweeps must (a) return exactly the selections of independent cold solves
//! and (b) explore fewer total branch-and-bound nodes. The search is
//! serial, so the node totals are deterministic run to run.

use partita_bench::{audit_sweep, cold_vs_chained_sweep};
use partita_core::SolveOptions;
use partita_workloads::{gsm, jpeg};

#[test]
fn chained_sweeps_save_nodes_on_published_tables() {
    let base = SolveOptions::default();
    let mut cold_total = 0u64;
    let mut chained_total = 0u64;
    for (label, w) in [
        ("table1", gsm::encoder()),
        ("table2", gsm::decoder()),
        ("table3", jpeg::encoder()),
        ("fig11", jpeg::encoder_hierarchical()),
    ] {
        // cold_vs_chained_sweep panics if any per-point selection differs.
        let (cold, chained) = cold_vs_chained_sweep(&w, &base);
        assert_eq!(cold.points.len(), w.rg_sweep.len(), "{label}");
        assert_eq!(chained.points.len(), w.rg_sweep.len(), "{label}");
        // Every point below the top of the sweep chains its predecessor's
        // optimum (the monotone-feasibility argument never rejects it).
        assert_eq!(
            chained.chained_accepts,
            w.rg_sweep.len() as u64 - 1,
            "{label}"
        );
        assert_eq!(cold.chained_accepts, 0, "{label}");
        assert!(
            chained.total_nodes() <= cold.total_nodes(),
            "{label}: chaining must never cost nodes ({} > {})",
            chained.total_nodes(),
            cold.total_nodes()
        );
        if label == "fig11" {
            // The hierarchical sweep's pinned counts (BENCH_partita.json
            // fig11:{cold,chained}).
            assert_eq!((cold.total_nodes(), chained.total_nodes()), (19, 13));
        }
        cold_total += cold.total_nodes();
        chained_total += chained.total_nodes();
    }
    assert!(
        chained_total < cold_total,
        "chained sweeps must explore strictly fewer nodes across Tables 1-3 and Fig. 11 \
         (chained {chained_total} !< cold {cold_total})"
    );
}

/// Every selection behind the published Tables 1–3 must survive the
/// independent auditor — per-path gains, IP/interface area accounting,
/// conflict and parallel-code legality all re-derived from the raw
/// calibrated workloads.
#[test]
fn published_tables_are_audit_clean() {
    for (label, w) in [
        ("table1", gsm::encoder()),
        ("table2", gsm::decoder()),
        ("table3", jpeg::encoder()),
    ] {
        assert_eq!(audit_sweep(&w), 0, "{label} has audit violations");
    }
}
