//! Reproduces **Table 3**: JPEG encoder selections across the RG sweep
//! (IP1: 2D-DCT, IP2: 1D-DCT, IP3: FFT, IP4: C-MUL, IP5: ZIG_ZAG).

use partita_bench::{compare_line, sweep_comparison_lines, sweep_rows_traced, trace_json_line};
use partita_core::report::render_table;
use partita_workloads::jpeg;

/// Published (RG, G, A-in-tenths) triples of Table 3.
const PAPER: [(u64, u64, i64); 5] = [
    (12_157_384, 15_040_512, 40),
    (20_262_307, 37_081_088, 110),
    (37_195_000, 37_195_072, 165),
    (37_282_645, 37_717_440, 270),
    (37_843_700, 37_843_712, 330),
];

fn main() {
    let w = jpeg::encoder();
    println!(
        "JPEG encoder: {} IPs, {} IMPs ({} for 2D-DCT via hierarchy, 2 for zig_zag)",
        w.instance.library.len(),
        w.imps.len(),
        w.imps.len() - 2
    );
    let traced = sweep_rows_traced(&w);
    let rows: Vec<_> = traced.iter().map(|(row, _)| row.clone()).collect();
    println!("{}", render_table("Table 3: JPEG encoder", &rows));

    println!("paper-vs-measured:");
    let mut exact = 0;
    for (row, &(rg, g, a_tenths)) in rows.iter().zip(&PAPER) {
        assert_eq!(row.required_gain.get(), rg, "sweep order");
        println!("{}", compare_line(&format!("RG={rg}"), g, row.gain));
        println!(
            "    area: paper {}  measured {}",
            a_tenths as f64 / 10.0,
            row.area
        );
        if row.gain.get() == g {
            exact += 1;
        }
    }
    println!("{exact}/5 rows reproduce the published G exactly");

    println!("\nsolve traces (one JSON line per sweep point):");
    for (row, trace) in &traced {
        println!("{}", trace_json_line(row.required_gain, trace));
    }

    println!("\nsweep orchestration (cold vs interval sweep, one JSON line per point):");
    for line in sweep_comparison_lines("table3", &w) {
        println!("{line}");
    }
}
