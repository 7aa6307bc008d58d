//! Shared harness code for the table/figure reproduction binaries.
//!
//! Every table and figure of the paper's evaluation (§5) has a binary in
//! `src/bin/` that regenerates it:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — GSM encoder RG sweep |
//! | `table2` | Table 2 — GSM decoder RG sweep |
//! | `table3` | Table 3 — JPEG encoder RG sweep |
//! | `fig2_parallel` | Fig. 2 — parallel-execution overlap |
//! | `fig4to7_templates` | Figs 4–7 — the four interface templates |
//! | `fig8_paths` | Fig. 8 — multi-path parallel-code minimum |
//! | `fig9_problem2` | Fig. 9 — Problem 2 beats Problem 1 |
//! | `fig10_common` | Fig. 10 — common s-call across paths |
//! | `fig11_hierarchy` | Fig. 11 — IMP flatten on the JPEG call tree |
//! | `ablation` | extra — ILP vs greedy vs no-interface baselines |
//! | `benchsuite` | the portable regression lock: every workload cold and under the interval cache rule, written to `BENCH_partita.json` (see [`suite`]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod suite;

use partita_core::{
    report::TableRow, Selection, SolveOptions, SolveTrace, SweepSession, SweepTrace,
};
use partita_mop::Cycles;
use partita_workloads::Workload;

/// Runs a workload's full RG sweep and returns one table row per RG value.
///
/// # Panics
///
/// Panics if any sweep point is infeasible — the calibrated workloads are
/// feasible across their published sweeps by construction.
#[must_use]
pub fn sweep_rows(workload: &Workload) -> Vec<TableRow> {
    sweep_rows_traced(workload)
        .into_iter()
        .map(|(row, _)| row)
        .collect()
}

/// Like [`sweep_rows`], additionally returning each sweep point's
/// [`SolveTrace`]. The sweep runs through a fresh [`SweepSession`], whose
/// cache rule never changes any selection; a point a lower point's proof
/// covers carries that proof's trace.
///
/// # Panics
///
/// Panics if any sweep point is infeasible (see [`sweep_rows`]).
#[must_use]
pub fn sweep_rows_traced(workload: &Workload) -> Vec<(TableRow, SolveTrace)> {
    let mut session = SweepSession::new();
    sweep_rows_traced_in(workload, &mut session, &SolveOptions::default())
}

/// Runs the workload's published RG sweep through `session` with
/// [`SweepSession::sweep`], under `base` options (gains are
/// overridden per sweep point).
///
/// # Panics
///
/// Panics if any sweep point is infeasible (see [`sweep_rows`]).
#[must_use]
pub fn sweep_rows_traced_in(
    workload: &Workload,
    session: &mut SweepSession,
    base: &SolveOptions,
) -> Vec<(TableRow, SolveTrace)> {
    session
        .sweep(&workload.instance, &workload.imps, base, &workload.rg_sweep)
        .unwrap_or_else(|e| panic!("{} sweep infeasible: {e}", workload.instance.name))
        .into_iter()
        .zip(&workload.rg_sweep)
        .map(|(sel, &rg)| {
            let trace = sel.trace.clone();
            (
                TableRow::from_selection_with_library(rg, &sel, &workload.instance.library),
                trace,
            )
        })
        .collect()
}

/// Runs the workload's published RG sweep twice — independent cold solves,
/// then a sweep where each proof answers the points it covers — through
/// two fresh sessions, checks that every per-point [`Selection`] is
/// identical, and returns the two [`SweepTrace`]s `(cold, interval)` for
/// reporting.
///
/// # Panics
///
/// Panics if any sweep point is infeasible, or if the cache rule changes
/// any point's selection (it must not: see [`partita_core::cache`]).
#[must_use]
pub fn cold_vs_interval_sweep(
    workload: &Workload,
    base: &SolveOptions,
) -> (SweepTrace, SweepTrace) {
    let mut cold_session = SweepSession::new();
    let cold: Vec<Selection> = cold_session
        .sweep_cold(&workload.instance, &workload.imps, base, &workload.rg_sweep)
        .unwrap_or_else(|e| panic!("{} sweep infeasible: {e}", workload.instance.name));
    let mut interval_session = SweepSession::new();
    let interval: Vec<Selection> = interval_session
        .sweep(&workload.instance, &workload.imps, base, &workload.rg_sweep)
        .unwrap_or_else(|e| panic!("{} sweep infeasible: {e}", workload.instance.name));
    for ((c, f), &rg) in cold.iter().zip(&interval).zip(&workload.rg_sweep) {
        assert!(
            c.chosen() == f.chosen() && c.total_area() == f.total_area() && c.status == f.status,
            "{}: the cache rule changed the selection at RG {}",
            workload.instance.name,
            rg.get()
        );
    }
    (cold_session.take_trace(), interval_session.take_trace())
}

/// Renders the cold-vs-interval sweep comparison of a workload as JSON
/// lines: one line per interval sweep point, its summary, and a final
/// `nodes_saved` comparison line (see [`SweepTrace::compare_json`]).
///
/// # Panics
///
/// Panics as [`cold_vs_interval_sweep`] does.
#[must_use]
pub fn sweep_comparison_lines(label: &str, workload: &Workload) -> Vec<String> {
    let (cold, interval) = cold_vs_interval_sweep(workload, &SolveOptions::default());
    let mut lines = interval.json_lines(label);
    lines.push(SweepTrace::compare_json(label, &cold, &interval));
    lines
}

/// Audits every point of a workload's published RG sweep with the
/// independent [`partita_core::SelectionAuditor`] and returns the total
/// violation count (zero for a healthy solver). Each point is solved
/// fresh — no session cache — so the audit covers exactly what
/// [`sweep_rows`] reports.
///
/// # Panics
///
/// Panics if any sweep point is infeasible (see [`sweep_rows`]).
#[must_use]
pub fn audit_sweep(workload: &Workload) -> usize {
    use partita_core::{RequiredGains, SelectionAuditor, Solver};
    let mut violations = 0;
    for &rg in &workload.rg_sweep {
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
        let sel = Solver::new(&workload.instance)
            .with_imps(workload.imps.clone())
            .solve(&opts)
            .unwrap_or_else(|e| {
                panic!(
                    "{} sweep point RG {} infeasible: {e}",
                    workload.instance.name,
                    rg.get()
                )
            });
        let report = SelectionAuditor::new(&workload.instance, &workload.imps).audit(&sel, &opts);
        violations += report.violations.len();
    }
    violations
}

/// Renders one sweep point's trace as a JSON line tagged with its RG value:
/// `{"rg":47740,"trace":{...}}`. The table binaries emit one such line per
/// sweep point so runs can be scraped by tooling.
#[must_use]
pub fn trace_json_line(rg: Cycles, trace: &SolveTrace) -> String {
    let event = partita_core::telemetry::Event::SolveFinished {
        trace: trace.clone(),
    };
    format!("{{\"rg\":{},\"trace\":{}}}", rg.get(), event.to_json())
}

/// Formats a paper-vs-measured comparison line.
#[must_use]
pub fn compare_line(label: &str, paper: u64, measured: Cycles) -> String {
    let m = measured.get();
    let delta = if paper == 0 {
        0.0
    } else {
        (m as f64 - paper as f64) / paper as f64 * 100.0
    };
    format!("{label:<28} paper {paper:>12}  measured {m:>12}  ({delta:+.2}%)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use partita_core::{RequiredGains, Solver};
    use partita_workloads::jpeg;

    #[test]
    fn jpeg_sweep_produces_all_rows() {
        let rows = sweep_rows(&jpeg::encoder());
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].gain, Cycles(15_040_512));
        assert_eq!(rows[4].gain, Cycles(37_843_712));
    }

    #[test]
    fn traced_sweep_carries_solver_telemetry() {
        let traced = sweep_rows_traced(&jpeg::encoder());
        assert_eq!(traced.len(), 5);
        for (row, trace) in &traced {
            assert!(trace.num_vars > 0, "RG {}", row.required_gain.get());
            assert!(trace.nodes_explored >= 1);
            let line = trace_json_line(row.required_gain, trace);
            assert!(line.starts_with(&format!("{{\"rg\":{}", row.required_gain.get())));
            assert!(line.contains("\"status\":\"optimal\""));
        }
    }

    #[test]
    fn warm_start_reduces_nodes_on_rg_sweep_instance() {
        // Root probing against the greedy incumbent narrows the tree on this
        // seeded synthetic workload's sweep point (seed 17: 39 cold nodes,
        // 21 warm); the reduction must be strict, and both runs must agree
        // on the optimum. Seed 99, used until the fixed-charge M counted
        // s-calls instead of IMPs, went 229 → 91 nodes warm under the old M
        // but now takes 91 either way: its probes still fix 26 binaries,
        // and the tighter relaxation alone already closes what they cut.
        let w = partita_workloads::synth::generate(partita_workloads::synth::SynthParams::sized(
            12, 8, 2, 17,
        ));
        let rg = w.rg_sweep[2];
        let solve = |warm: bool| {
            Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)).warm_start(warm))
                .expect("sweep point feasible")
        };
        let cold = solve(false);
        let warm = solve(true);
        assert!(warm.trace.warm_start_accepted);
        assert!(warm.trace.vars_fixed > 0);
        assert_eq!(cold.total_area(), warm.total_area());
        assert!(
            warm.trace.nodes_explored < cold.trace.nodes_explored,
            "warm {} !< cold {}",
            warm.trace.nodes_explored,
            cold.trace.nodes_explored
        );
    }

    #[test]
    fn compare_line_formats_delta() {
        let line = compare_line("t", 100, Cycles(110));
        assert!(line.contains("+10.00%"));
        assert!(compare_line("z", 0, Cycles(5)).contains("+0.00%"));
    }
}
