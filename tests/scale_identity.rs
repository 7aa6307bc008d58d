//! Effort lock for node-capped exact solves at `synth:table` scale.
//!
//! `synth-table-0000` (about 480 variables × 53 rows) is solved at its
//! three lowest sweep RGs with branch-and-bound capped at 45 nodes on one
//! thread — the points the `scale` benchmark workload solves. The
//! selection digest, the status, the node count, the binaries fixed by
//! root probing, the tableau builds and every per-phase pivot counter are
//! pinned. A simplex change that keeps the arithmetic on every nonzero
//! tableau cell keeps all of them; one that reorders a pivot, a tie-break
//! or a rounding step moves a pivot count first and the digest soon after,
//! and a probe that decides a flip differently moves `vars_fixed` by name.
//!
//! Root probes re-solve on the root tableau with the dual simplex (43 of
//! the 96 are settled by the reduced-cost screen with no LP), so each point
//! builds at most one tableau per node: the 32 cold probe builds per point
//! and their two-phase pivots are gone, and the dual pivots are the warm
//! probes', each stopped once its bound passes the incumbent. A node whose rows with no slack left pin every column (see
//! `pin_tight_rows` in `branch_bound.rs`) builds none, so point 0 builds
//! 22 tableaus for 27 nodes.
//!
//! CI also runs this gate in release mode with the corpus gates, so it
//! pins the optimised build's arithmetic too.

mod common;

use partita::core::api::selection_digest;
use partita::core::{RequiredGains, SolveBudget, SolveOptions, Solver};

/// Branch-and-bound node cap of every pinned solve.
const NODE_CAP: usize = 45;

/// One pinned point: status, digest and effort of a capped cold solve.
struct Pinned {
    status: &'static str,
    digest: u64,
    nodes: usize,
    vars_fixed: usize,
    builds: usize,
    phase1: usize,
    phase2: usize,
    dual: usize,
    lex: usize,
}

/// The pinned answers at the three lowest sweep RGs, in sweep order.
const PINNED: [Pinned; 3] = [
    Pinned {
        status: "optimal",
        digest: 0x0485_c51b_609e_141c,
        nodes: 27,
        vars_fixed: 32,
        builds: 22,
        phase1: 58,
        phase2: 42,
        dual: 5,
        lex: 0,
    },
    Pinned {
        status: "feasible_budget_exhausted",
        digest: 0x6e36_131e_e220_3128,
        nodes: 45,
        vars_fixed: 23,
        builds: 45,
        phase1: 277,
        phase2: 178,
        dual: 28,
        lex: 0,
    },
    Pinned {
        status: "optimal",
        digest: 0xee8d_88f3_9995_5634,
        nodes: 31,
        vars_fixed: 15,
        builds: 31,
        phase1: 370,
        phase2: 248,
        dual: 40,
        lex: 0,
    },
];

#[test]
fn synth_table_capped_solves_keep_their_digests_and_pivots() {
    let entry = common::entries_for("synth", "table")
        .into_iter()
        .find(|e| e.id == "synth-table-0000")
        .expect("synth-table-0000 in the manifest");
    let w = common::verified_workload(&entry);
    for (k, want) in PINNED.iter().enumerate() {
        let rg = w.rg_sweep[k];
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg))
            .budget(SolveBudget::default().with_max_nodes(NODE_CAP));
        let sel = Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .solve(&opts)
            .expect("capped solve returns an incumbent");
        let t = &sel.trace;
        let got = (
            sel.status.to_string(),
            selection_digest(&sel),
            t.nodes_explored,
            t.vars_fixed,
            t.tableau_builds,
            t.phase1_pivots,
            t.phase2_pivots,
            t.dual_pivots,
            t.lex_pivots,
        );
        let pinned = (
            want.status.to_string(),
            want.digest,
            want.nodes,
            want.vars_fixed,
            want.builds,
            want.phase1,
            want.phase2,
            want.dual,
            want.lex,
        );
        assert_eq!(
            got,
            pinned,
            "rg {} (sweep index {k}): (status, digest, nodes, vars fixed, builds, phase-1, phase-2, dual, lex pivots)",
            rg.get()
        );
    }
}
