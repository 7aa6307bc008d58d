//! Regression gate for the sweep orchestration layer: on the published
//! table sweeps and the Fig. 11 hierarchical sweep, sweeps that let each
//! proof answer the points it covers must (a) return exactly the
//! selections of independent cold solves and (b) explore fewer total
//! branch-and-bound nodes. The search is serial, so the node totals are
//! deterministic run to run.

use partita_bench::{audit_sweep, cold_vs_interval_sweep};
use partita_core::SolveOptions;
use partita_workloads::{gsm, jpeg};

#[test]
fn interval_sweeps_save_nodes_on_published_tables() {
    let base = SolveOptions::default();
    let mut cold_total = 0u64;
    let mut interval_total = 0u64;
    for (label, w) in [
        ("table1", gsm::encoder()),
        ("table2", gsm::decoder()),
        ("table3", jpeg::encoder()),
        ("fig11", jpeg::encoder_hierarchical()),
    ] {
        // cold_vs_interval_sweep panics if any per-point selection differs.
        let (cold, interval) = cold_vs_interval_sweep(&w, &base);
        assert_eq!(cold.points.len(), w.rg_sweep.len(), "{label}");
        assert_eq!(interval.points.len(), w.rg_sweep.len(), "{label}");
        // Every point is searched or covered; the cold sweep reads no
        // cache.
        assert_eq!(
            interval.cache_hits + interval.cache_misses,
            w.rg_sweep.len() as u64,
            "{label}"
        );
        assert_eq!(cold.cache_hits, 0, "{label}");
        assert!(
            interval.total_nodes() <= cold.total_nodes(),
            "{label}: the interval sweep must never cost nodes ({} > {})",
            interval.total_nodes(),
            cold.total_nodes()
        );
        if label == "fig11" {
            // The hierarchical sweep's pinned counts (BENCH_partita.json
            // fig11:{cold,interval}).
            assert_eq!((cold.total_nodes(), interval.total_nodes()), (19, 14));
        }
        cold_total += cold.total_nodes();
        interval_total += interval.total_nodes();
    }
    assert!(
        interval_total < cold_total,
        "interval sweeps must explore strictly fewer nodes across Tables 1-3 and Fig. 11 \
         (interval {interval_total} !< cold {cold_total})"
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
