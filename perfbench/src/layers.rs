//! The traced run's per-layer view: a point's layers read from the solve's
//! own trace, the layers it does not split out timed through their public
//! functions, and the per-layer metric set.

use std::collections::HashMap;
use std::hint::black_box;

use partita_core::baseline::solve_greedy;
use partita_core::sweep::canonical_solve_key;
use partita_core::verify::SelectionAuditor;
use partita_core::{ImpDb, RequiredGains, Solver};
use partita_ilp::simplex::{solve_relaxation, SimplexOptions};
use partita_mop::Cycles;

use crate::inputs::{options, Inst};
use crate::trace::Tracer;
use crate::util::{percentile, ratio, Report};

/// Every per-layer metric with its unit, in print order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.build_ms", "ms"),
    ("impdb.generate_us", "us"),
    ("impdb.imps", "count"),
    ("formulate.us", "us"),
    ("formulate.vars", "count"),
    ("formulate.rows", "count"),
    ("simplex.root_lp_us", "us"),
    ("simplex.root_pivots", "count"),
    ("simplex.pivots", "count"),
    ("simplex.tableau_builds", "count"),
    ("simplex.bland_activations", "count"),
    ("branch_bound.tree_us", "us"),
    ("branch_bound.nodes", "count"),
    ("branch_bound.us_per_node", "us"),
    ("branch_bound.pruned_share", "ratio"),
    ("branch_bound.vars_fixed", "count"),
    ("greedy.us", "us"),
    ("greedy.seed_accepted_share", "ratio"),
    ("solver.solve_us", "us"),
    ("solver.self_us", "us"),
    ("verify.audit_us", "us"),
    ("sweep.point_us", "us"),
    ("sweep.cache_hit_share", "ratio"),
    ("sweep.chain_accept_share", "ratio"),
    ("sweep.nodes_saved", "count"),
    ("delta.resolve_us", "us"),
    ("delta.basis_reused_share", "ratio"),
    ("delta.nodes_vs_cold", "ratio"),
    ("cache.key_us", "us"),
    ("cache.hit_share", "ratio"),
    ("api.parse_us", "us"),
    ("api.serialize_us", "us"),
    ("service.handle_us", "us"),
    ("service.degraded_share", "ratio"),
    ("service.rejected_share", "ratio"),
    ("server.wait_p50_us", "us"),
    ("server.wait_tail_us", "us"),
    ("loadgen.lag_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.spans", "count"),
    ("trace.points", "count"),
];

/// Times `ImpDb::generate` on every instance (an IMP database is rebuilt
/// from the instance; the workload's own database is left in place).
pub fn impdb(tr: &mut Tracer, insts: &[Inst]) {
    for (i, inst) in insts.iter().enumerate() {
        let (db, idx) = tr.span(i as u64, "impdb.generate", None, || {
            ImpDb::generate(&inst.w.instance)
        });
        tr.count(idx, "imps", db.len() as f64);
        black_box(db);
    }
}

/// Records one point's layers under `id`: the cold `Solver::solve`, and as
/// its children the phases of the solve's own `SolveTrace` (formulation,
/// the backend's tree search with its greedy seed and root probing, and
/// decode) and the audit the solve runs. The tree's children are the greedy
/// seed and the root LP, each timed through its public function on the same
/// input, since the trace does not split them out. Returns the cold solve's
/// node count.
pub fn decompose(tr: &mut Tracer, id: u64, inst: &Inst, rg: Cycles, cap: usize) -> Option<u64> {
    let opts = options(rg, cap);
    let solver = Solver::new(&inst.w.instance).with_imps(inst.w.imps.clone());
    let (sel, solve) = tr.span(id, "solver.solve", None, || solver.solve(&opts));
    let sel = sel.ok()?;
    let t = &sel.trace;
    let pivots = t.phase1_pivots + t.phase2_pivots + t.dual_pivots + t.lex_pivots;
    tr.count(solve, "pivots", pivots as f64);
    tr.count(solve, "tableau_builds", t.tableau_builds as f64);
    tr.count(solve, "bland_activations", t.bland_activations as f64);
    tr.count(
        solve,
        "seed_accepted",
        f64::from(u8::from(t.warm_start_accepted)),
    );
    tr.record(
        id,
        "formulate",
        Some(solve),
        t.formulation,
        vec![
            ("vars", t.num_vars as f64),
            ("rows", t.num_constraints as f64),
        ],
    );
    let tree = tr.record(
        id,
        "branch_bound.tree",
        Some(solve),
        t.solve,
        vec![
            ("nodes", t.nodes_explored as f64),
            ("pruned", t.nodes_pruned as f64),
            ("vars_fixed", t.vars_fixed as f64),
        ],
    );
    tr.record(id, "solver.decode", Some(solve), t.decode, Vec::new());

    let (greedy, _) = tr.span(id, "greedy", Some(tree), || {
        solve_greedy(&inst.w.instance, &inst.w.imps, &RequiredGains::uniform(rg))
    });
    black_box(greedy.ok());
    let model = solver.formulate(&opts).ok()?;
    let (lp, root) = tr.span(id, "simplex.root_lp", Some(tree), || {
        solve_relaxation(&model, SimplexOptions::default())
    });
    if let Ok(lp) = lp {
        tr.count(root, "pivots", lp.iterations as f64);
    }

    let (audit, _) = tr.span(id, "verify.audit", Some(solve), || {
        SelectionAuditor::new(&inst.w.instance, &inst.w.imps).audit(&sel, &opts)
    });
    black_box(audit.is_clean());
    let (key, _) = tr.span(id, "cache.key", None, || {
        canonical_solve_key(&inst.w.instance, &inst.w.imps, &opts)
    });
    black_box(key);
    Some(sel.trace.nodes_explored as u64)
}

/// Prints every per-layer metric. Values come from the tracer's spans,
/// except the names in `extra`, which the workload measured itself; a
/// layer the workload does not exercise reads 0.
pub fn emit(report: &mut Report, tr: &Tracer, extra: &[(&str, f64)]) {
    let tree_total = tr.total_us("branch_bound.tree");
    let tree_nodes = tr.count_sum("branch_bound.tree", "nodes");
    let median_self = |name: &str| {
        let mut v = tr.self_us(name);
        v.sort_by(f64::total_cmp);
        percentile(&v, 50.0)
    };
    let mut values: HashMap<&str, f64> = HashMap::from([
        ("impdb.generate_us", tr.median_us("impdb.generate")),
        ("impdb.imps", tr.count_mean("impdb.generate", "imps")),
        ("formulate.us", tr.median_us("formulate")),
        ("formulate.vars", tr.count_mean("formulate", "vars")),
        ("formulate.rows", tr.count_mean("formulate", "rows")),
        ("simplex.root_lp_us", tr.median_us("simplex.root_lp")),
        (
            "simplex.root_pivots",
            tr.count_mean("simplex.root_lp", "pivots"),
        ),
        ("simplex.pivots", tr.count_mean("solver.solve", "pivots")),
        (
            "simplex.tableau_builds",
            tr.count_mean("solver.solve", "tableau_builds"),
        ),
        (
            "simplex.bland_activations",
            tr.count_mean("solver.solve", "bland_activations"),
        ),
        ("branch_bound.tree_us", tr.median_us("branch_bound.tree")),
        (
            "branch_bound.nodes",
            tr.count_mean("branch_bound.tree", "nodes"),
        ),
        ("branch_bound.us_per_node", ratio(tree_total, tree_nodes)),
        (
            "branch_bound.pruned_share",
            ratio(tr.count_sum("branch_bound.tree", "pruned"), tree_nodes),
        ),
        (
            "branch_bound.vars_fixed",
            tr.count_mean("branch_bound.tree", "vars_fixed"),
        ),
        ("greedy.us", tr.median_us("greedy")),
        (
            "greedy.seed_accepted_share",
            tr.count_mean("solver.solve", "seed_accepted"),
        ),
        ("solver.solve_us", tr.median_us("solver.solve")),
        ("solver.self_us", median_self("solver.solve")),
        ("verify.audit_us", tr.median_us("verify.audit")),
        ("sweep.point_us", tr.median_us("sweep.point")),
        (
            "sweep.cache_hit_share",
            ratio(
                tr.count_sum("sweep.session", "hits"),
                tr.count_sum("sweep.session", "lookups"),
            ),
        ),
        (
            "sweep.chain_accept_share",
            ratio(
                tr.count_sum("sweep.session", "chain_accepts"),
                tr.count_sum("sweep.session", "chain_decisions"),
            ),
        ),
        (
            "sweep.nodes_saved",
            tr.count_sum("sweep.cold", "nodes") - tr.count_sum("sweep.session", "nodes"),
        ),
        ("delta.resolve_us", tr.median_us("delta.resolve")),
        (
            "delta.basis_reused_share",
            tr.count_mean("delta.resolve", "basis_reused"),
        ),
        (
            "delta.nodes_vs_cold",
            ratio(
                tr.count_sum("delta.resolve", "nodes"),
                tr.count_sum("delta.resolve", "cold_nodes"),
            ),
        ),
        ("cache.key_us", tr.median_us("cache.key")),
        ("api.parse_us", tr.median_us("api.parse")),
        ("api.serialize_us", tr.median_us("api.serialize")),
        ("service.handle_us", tr.median_us("service.handle")),
    ]);
    for &(name, v) in extra {
        values.insert(name, v);
    }
    for (name, unit) in PER_LAYER {
        report.push(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}
