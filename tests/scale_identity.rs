//! Effort lock for node-capped exact solves at `synth:table` scale.
//!
//! Every point the `scale` benchmark workload solves is pinned: the nine
//! `synth:table` entries it draws (about 480 variables × 31–53 rows each)
//! at their three lowest sweep RGs, with branch-and-bound capped at 45
//! nodes. The selection digest, the status, the node count, the binaries
//! fixed by root probing, the tableau builds and every per-phase pivot
//! counter are pinned. A change that keeps the arithmetic on every
//! nonzero tableau cell, and the node path's bounds, keeps all of them;
//! one that reorders a pivot, a tie-break or a rounding step moves a
//! pivot count first and the digest soon after, a probe that decides a
//! flip differently moves `vars_fixed`, and one that pins a node's bounds
//! differently moves its tree.
//!
//! Root probes re-solve on the root tableau with the dual simplex, so
//! each point builds at most one tableau per node; the dual pivots are the
//! warm probes', each stopped once its bound passes the incumbent. A node
//! whose rows with no slack left pin every column (see `pin_tight_rows` in
//! `branch_bound.rs`) builds none, so `synth-table-0000`'s first point
//! builds 22 tableaus for 27 nodes.
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
    entry: &'static str,
    /// Sweep index of the RG.
    index: usize,
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

/// The pinned answers, by entry and then sweep index.
const PINNED: [Pinned; 27] = [
    Pinned {
        entry: "synth-table-0000",
        index: 0,
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
        entry: "synth-table-0000",
        index: 1,
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
        entry: "synth-table-0000",
        index: 2,
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
    Pinned {
        entry: "synth-table-0003",
        index: 0,
        status: "optimal",
        digest: 0x3c1b_e302_0312_617e,
        nodes: 35,
        vars_fixed: 18,
        builds: 35,
        phase1: 286,
        phase2: 237,
        dual: 53,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0003",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0x94f7_c3c4_1dc2_88b0,
        nodes: 45,
        vars_fixed: 6,
        builds: 44,
        phase1: 678,
        phase2: 619,
        dual: 98,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0003",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0x764c_4976_cfce_f826,
        nodes: 45,
        vars_fixed: 6,
        builds: 45,
        phase1: 534,
        phase2: 460,
        dual: 44,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0004",
        index: 0,
        status: "feasible_budget_exhausted",
        digest: 0x441c_6e82_e282_7cb6,
        nodes: 45,
        vars_fixed: 20,
        builds: 45,
        phase1: 281,
        phase2: 208,
        dual: 90,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0004",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0xbcb0_c3c6_b730_bea2,
        nodes: 45,
        vars_fixed: 21,
        builds: 43,
        phase1: 469,
        phase2: 378,
        dual: 47,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0004",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0xbcb0_c3c6_b730_bea2,
        nodes: 45,
        vars_fixed: 23,
        builds: 41,
        phase1: 549,
        phase2: 443,
        dual: 28,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0005",
        index: 0,
        status: "feasible_budget_exhausted",
        digest: 0x7836_d603_f826_989e,
        nodes: 45,
        vars_fixed: 13,
        builds: 44,
        phase1: 302,
        phase2: 380,
        dual: 29,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0005",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0x1f64_a68d_8720_5238,
        nodes: 45,
        vars_fixed: 16,
        builds: 45,
        phase1: 397,
        phase2: 422,
        dual: 28,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0005",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0x9a8a_35c9_72f7_2258,
        nodes: 45,
        vars_fixed: 17,
        builds: 45,
        phase1: 355,
        phase2: 343,
        dual: 31,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0006",
        index: 0,
        status: "feasible_budget_exhausted",
        digest: 0xcc00_7db9_322b_fa81,
        nodes: 45,
        vars_fixed: 31,
        builds: 36,
        phase1: 145,
        phase2: 114,
        dual: 15,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0006",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0x01b1_5308_9ae8_c53f,
        nodes: 45,
        vars_fixed: 18,
        builds: 41,
        phase1: 309,
        phase2: 300,
        dual: 38,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0006",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0xbf98_0ef6_8de5_759c,
        nodes: 45,
        vars_fixed: 11,
        builds: 39,
        phase1: 380,
        phase2: 430,
        dual: 53,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0008",
        index: 0,
        status: "feasible_budget_exhausted",
        digest: 0x8b03_a937_b84c_73bb,
        nodes: 45,
        vars_fixed: 32,
        builds: 44,
        phase1: 126,
        phase2: 91,
        dual: 13,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0008",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0xa563_4660_8986_42af,
        nodes: 45,
        vars_fixed: 21,
        builds: 45,
        phase1: 438,
        phase2: 242,
        dual: 46,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0008",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0xe200_78b5_791f_dec7,
        nodes: 45,
        vars_fixed: 16,
        builds: 45,
        phase1: 813,
        phase2: 585,
        dual: 106,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0010",
        index: 0,
        status: "optimal",
        digest: 0x879d_c13b_fde7_b84c,
        nodes: 39,
        vars_fixed: 25,
        builds: 38,
        phase1: 142,
        phase2: 61,
        dual: 19,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0010",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0x23c7_3935_5624_0101,
        nodes: 45,
        vars_fixed: 10,
        builds: 45,
        phase1: 417,
        phase2: 389,
        dual: 71,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0010",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0x6fb0_db7c_bb4d_4da8,
        nodes: 45,
        vars_fixed: 0,
        builds: 45,
        phase1: 625,
        phase2: 582,
        dual: 72,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0013",
        index: 0,
        status: "optimal",
        digest: 0x89b4_3ca4_b53d_f799,
        nodes: 23,
        vars_fixed: 32,
        builds: 23,
        phase1: 120,
        phase2: 106,
        dual: 4,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0013",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0xa826_039d_3096_9f8f,
        nodes: 45,
        vars_fixed: 25,
        builds: 41,
        phase1: 343,
        phase2: 282,
        dual: 21,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0013",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0xb21b_bccb_b4bc_be0e,
        nodes: 45,
        vars_fixed: 14,
        builds: 45,
        phase1: 632,
        phase2: 430,
        dual: 59,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0016",
        index: 0,
        status: "feasible_budget_exhausted",
        digest: 0x38e2_e885_ba0b_ea49,
        nodes: 45,
        vars_fixed: 19,
        builds: 43,
        phase1: 372,
        phase2: 292,
        dual: 26,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0016",
        index: 1,
        status: "feasible_budget_exhausted",
        digest: 0x38e2_e885_ba0b_ea49,
        nodes: 45,
        vars_fixed: 19,
        builds: 45,
        phase1: 331,
        phase2: 309,
        dual: 27,
        lex: 0,
    },
    Pinned {
        entry: "synth-table-0016",
        index: 2,
        status: "feasible_budget_exhausted",
        digest: 0x98d2_4152_dd75_a91e,
        nodes: 45,
        vars_fixed: 21,
        builds: 45,
        phase1: 647,
        phase2: 493,
        dual: 31,
        lex: 0,
    },
];

#[test]
fn synth_table_capped_solves_keep_their_digests_and_pivots() {
    let entries = common::entries_for("synth", "table");
    let mut drift = Vec::new();
    for entry in entries
        .iter()
        .filter(|e| PINNED.iter().any(|p| p.entry == e.id))
    {
        let w = common::verified_workload(entry);
        for want in PINNED.iter().filter(|p| p.entry == entry.id) {
            let rg = w.rg_sweep[want.index];
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
            if got != pinned {
                drift.push(format!(
                    "{} rg {} (sweep index {}): got {got:?}, pinned {pinned:?}",
                    want.entry,
                    rg.get(),
                    want.index
                ));
            }
        }
    }
    let solved = entries
        .iter()
        .filter(|e| PINNED.iter().any(|p| p.entry == e.id))
        .count();
    assert_eq!(solved, 9, "every pinned entry is in the manifest");
    assert!(
        drift.is_empty(),
        "(status, digest, nodes, vars fixed, builds, phase-1, phase-2, dual, lex pivots) drifted:\n{}",
        drift.join("\n")
    );
}
