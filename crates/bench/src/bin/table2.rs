//! Reproduces **Table 2**: GSM decoder selections across the RG sweep.

use partita_bench::{compare_line, sweep_comparison_lines, sweep_rows_traced, trace_json_line};
use partita_core::report::render_table;
use partita_workloads::gsm;

/// Published (RG, G, A-in-tenths) triples of Table 2.
const PAPER: [(u64, u64, i64); 8] = [
    (22_240, 28_524, 40),
    (44_481, 126_087, 40),
    (111_203, 126_087, 40),
    (133_444, 139_824, 40),
    (155_684, 168_348, 40),
    (177_925, 182_892, 70),
    (200_166, 200_488, 150),
    (211_286, 211_432, 450),
];

fn main() {
    let w = gsm::decoder();
    println!(
        "GSM(TDMA) decoder: {} s-calls, {} IPs, {} IMPs",
        w.instance.scalls.len() - 1,
        w.instance.library.len(),
        w.imps.len()
    );
    let traced = sweep_rows_traced(&w);
    let rows: Vec<_> = traced.iter().map(|(row, _)| row.clone()).collect();
    println!("{}", render_table("Table 2: GSM decoder", &rows));

    println!("paper-vs-measured (G column; ties at equal area overshoot, see EXPERIMENTS.md):");
    for (row, &(rg, g, a_tenths)) in rows.iter().zip(&PAPER) {
        assert_eq!(row.required_gain.get(), rg, "sweep order");
        println!("{}", compare_line(&format!("RG={rg}"), g, row.gain));
        println!(
            "    area: paper {}  measured {} ",
            a_tenths as f64 / 10.0,
            row.area
        );
    }

    println!("\nsolve traces (one JSON line per sweep point):");
    for (row, trace) in &traced {
        println!("{}", trace_json_line(row.required_gain, trace));
    }

    println!("\nsweep orchestration (cold vs interval sweep, one JSON line per point):");
    for line in sweep_comparison_lines("table2", &w) {
        println!("{line}");
    }
}
