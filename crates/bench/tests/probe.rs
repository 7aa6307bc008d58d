//! The hot-path profiling probe behind `docs/PROFILING.md`: per headline
//! workload, one cold sweep, printing total simplex
//! iterations, node count and wall time. Run with `--nocapture` to see the
//! numbers; the assertions only pin what must never regress structurally
//! (every sweep solves, every trace carries the per-op counters).
//!
//! ```text
//! cargo test --release -p partita-bench --test probe -- --nocapture
//! ```

use std::time::Instant;

use partita_bench::suite::suite_workloads;
use partita_core::{SolveOptions, SweepSession};

#[test]
fn probe() {
    for (key, w) in suite_workloads(false) {
        let base = SolveOptions::default();
        let mut session = SweepSession::new();
        let started = Instant::now();
        let sels = session
            .sweep_cold(&w.instance, &w.imps, &base, &w.rg_sweep)
            .expect("headline sweeps are feasible by construction");
        let wall = started.elapsed().as_micros();
        let iters: usize = sels.iter().map(|s| s.trace.simplex_iterations).sum();
        let pivots: usize = sels
            .iter()
            .map(|s| {
                s.trace.phase1_pivots
                    + s.trace.phase2_pivots
                    + s.trace.dual_pivots
                    + s.trace.lex_pivots
            })
            .sum();
        let builds: usize = sels.iter().map(|s| s.trace.tableau_builds).sum();
        let reuses: usize = sels.iter().map(|s| s.trace.scratch_reuses).sum();
        let nodes: usize = sels.iter().map(|s| s.trace.nodes_explored).sum();
        println!(
            "PROBE {key} iters={iters} pivots={pivots} builds={builds} \
             reuses={reuses} nodes={nodes} wall_us={wall}"
        );
        assert!(iters > 0, "{key}: sweep must exercise the simplex");
        assert!(
            pivots > 0 && builds > 0,
            "{key}: per-op counters must be threaded through the sweep"
        );
        assert!(
            reuses > 0,
            "{key}: a multi-node sweep must reuse the solve scratch"
        );
    }
}
