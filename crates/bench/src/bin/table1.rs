//! Reproduces **Table 1**: GSM encoder selections across the RG sweep.

use partita_bench::{compare_line, sweep_comparison_lines, sweep_rows_traced, trace_json_line};
use partita_core::report::render_table;
use partita_workloads::gsm;

/// Published (RG, G, A-in-tenths) triples of Table 1.
const PAPER: [(u64, u64, i64); 8] = [
    (47_740, 115_037, 30),
    (95_480, 115_037, 30),
    (143_221, 153_588, 30),
    (190_961, 195_258, 170),
    (238_702, 316_200, 180),
    (286_442, 316_200, 180),
    (334_182, 335_976, 240),
    (381_923, 382_500, 410),
];

fn main() {
    let w = gsm::encoder();
    println!(
        "GSM(TDMA) encoder: {} s-calls, {} IPs, {} IMPs",
        w.instance.scalls.len() - 1,
        w.instance.library.len(),
        w.imps.len()
    );
    let traced = sweep_rows_traced(&w);
    let rows: Vec<_> = traced.iter().map(|(row, _)| row.clone()).collect();
    println!("{}", render_table("Table 1: GSM encoder", &rows));

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

    println!("\nsweep orchestration (cold vs descending-RG chained, one JSON line per point):");
    for line in sweep_comparison_lines("table1", &w) {
        println!("{line}");
    }
}
