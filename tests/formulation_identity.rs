//! Formulation identity lock: the built 0/1 ILP of every `synth:table`
//! corpus entry (at its lowest sweep RG) and of the paper's Tables 1–3
//! (at every published RG), under Problem 1 and Problem 2, hashes to a
//! pinned digest.
//!
//! The digest covers the model's `Display` (every row with its label,
//! terms, relation and right-hand side, the objective and the binaries),
//! every variable name and every row label. So a rewrite of how names
//! and labels are stored, or of how the SC-PC clique rows are grouped,
//! cannot reorder a row, change a coefficient or rename a variable
//! unnoticed: each of those moves the digest of the model it touches.

mod common;

use std::fmt::Write as _;

use partita::core::{RequiredGains, SolveOptions, Solver};
use partita::ilp::{Model, VarId};
use partita::mop::Cycles;
use partita::workloads::{gsm, jpeg, Workload};

/// FNV-1a 64 over `text`.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The model's `Display`, then every variable name and every row label
/// (`-` for an unlabelled row), one a line.
fn render(model: &Model) -> String {
    let mut out = model.to_string();
    for i in 0..model.num_vars() {
        let name = model.var_name(VarId(i)).expect("variable in range");
        writeln!(out, "var {i} {name}").expect("write to a String");
    }
    for (r, c) in model.constraints().iter().enumerate() {
        let label = c.label.as_ref().map_or("-".into(), |l| l.render());
        writeln!(out, "row {r} {label}").expect("write to a String");
    }
    out
}

/// One digest over the Problem 1 and Problem 2 models of `w` at each RG
/// of `rgs`.
fn digest(w: &Workload, rgs: &[Cycles]) -> u64 {
    let solver = Solver::new(&w.instance).with_imps(w.imps.clone());
    let mut text = String::new();
    for &rg in rgs {
        for options in [
            SolveOptions::problem1(RequiredGains::uniform(rg)),
            SolveOptions::problem2(RequiredGains::uniform(rg)),
        ] {
            let model = solver.formulate(&options).expect("formulates");
            writeln!(text, "rg {} {:?}", rg.get(), options.problem()).expect("write to a String");
            text.push_str(&render(&model));
        }
    }
    fnv1a64(&text)
}

/// Pinned digests of the paper's tables, over every published RG.
const TABLES: [(&str, u64); 3] = [
    ("table1", 0x2ffc_207c_1028_7e69),
    ("table2", 0x0e5b_a89c_c6c2_b8ad),
    ("table3", 0x1867_c17f_e9ee_6e00),
];

/// Pinned digests of the `synth:table` entries at sweep index 0.
const SYNTH_TABLE: [(&str, u64); 20] = [
    ("synth-table-0000", 0x7aae_b232_3ce3_9ce4),
    ("synth-table-0001", 0x15e4_8268_8c6f_4b20),
    ("synth-table-0002", 0x0779_20e0_6407_05e3),
    ("synth-table-0003", 0x25d6_fc63_1acf_91a0),
    ("synth-table-0004", 0xb106_c964_04c1_83b2),
    ("synth-table-0005", 0x7a64_b58a_42aa_7242),
    ("synth-table-0006", 0xfed4_df27_9b8d_023a),
    ("synth-table-0007", 0x2436_28c8_8032_1600),
    ("synth-table-0008", 0xae25_f48c_f436_9db7),
    ("synth-table-0009", 0x869d_ff0d_d20e_715c),
    ("synth-table-0010", 0xbc65_2f37_3e76_9149),
    ("synth-table-0011", 0x29b9_2b2f_372d_91e5),
    ("synth-table-0012", 0xd83e_2ba5_0992_62d3),
    ("synth-table-0013", 0x2fae_e9d5_e40a_32cf),
    ("synth-table-0014", 0xb332_390c_2300_4d72),
    ("synth-table-0015", 0xf3a5_2532_4a48_c556),
    ("synth-table-0016", 0x69a5_99a3_c06a_08cc),
    ("synth-table-0017", 0x1172_e36d_ca66_6035),
    ("synth-table-0018", 0x0d2a_e937_7247_bd81),
    ("synth-table-0019", 0x5f96_5636_95b9_a5f4),
];

#[test]
fn built_models_keep_their_rows_names_and_labels() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, w) in [
        ("table1", gsm::encoder()),
        ("table2", gsm::decoder()),
        ("table3", jpeg::encoder()),
    ] {
        got.push((name.to_string(), digest(&w, &w.rg_sweep)));
    }
    for entry in common::entries_for("synth", "table") {
        let w = common::verified_workload(&entry);
        got.push((entry.id.clone(), digest(&w, &w.rg_sweep[..1])));
    }
    let want: Vec<(String, u64)> = TABLES
        .iter()
        .chain(&SYNTH_TABLE)
        .map(|&(id, d)| (id.to_string(), d))
        .collect();
    assert_eq!(got, want, "(model, digest) pairs");
}
