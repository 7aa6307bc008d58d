//! Reproduces **Fig. 11**: the hierarchical JPEG application and IMP
//! flatten — IMPs of `dct1d` are folded into `dct2d`'s alternatives, which
//! in turn absorb the `fft` and complex-multiply levels.

use partita_core::{SolveOptions, SweepSession};
use partita_mop::{CallSiteId, Cycles};
use partita_workloads::jpeg;

fn main() {
    let w = jpeg::encoder_hierarchical();
    println!("Fig. 11 — hierarchical JPEG (main → jpeg → dct2d → dct1d → fft → cmul)\n");

    let top = w.imps.for_scall(CallSiteId(1));
    println!("2D-DCT alternatives after IMP flatten ({}):", top.len());
    for imp in &top {
        println!("    {imp}");
    }
    for child in 3..=8u32 {
        assert!(
            w.imps.for_scall(CallSiteId(child)).is_empty(),
            "child sc{child} must be folded away"
        );
    }

    // Sweep: watch the selection climb the hierarchy as RG grows. The
    // session solves low-RG first, and a proof answers every higher point
    // its selection still meets.
    println!("\nselection vs required gain:");
    let mut session = SweepSession::new();
    let sweep = session
        .sweep(&w.instance, &w.imps, &SolveOptions::default(), &w.rg_sweep)
        .expect("hierarchical sweep feasible");
    for (sel, &rg) in sweep.iter().zip(&w.rg_sweep) {
        let picks: Vec<String> = sel.chosen().iter().map(|i| format!("{i}")).collect();
        println!(
            "    RG {:>10}: gain {:>10}, area {:>6} -> {}",
            rg.get(),
            sel.total_gain().get(),
            sel.total_area(),
            picks.join(" | ")
        );
    }

    // The low requirement is met by a deep-level composite (cheap C-MUL),
    // the high one by shallower, more powerful engines. Replaying the sweep
    // is answered entirely from the session's solve cache.
    let low = sweep.first().expect("sweep non-empty");
    let high = sweep.last().expect("sweep non-empty");
    assert!(high.total_area() >= low.total_area());
    assert!(high.total_gain() > Cycles(30_000_000));
    let again = session
        .sweep(&w.instance, &w.imps, &SolveOptions::default(), &w.rg_sweep)
        .expect("cached replay");
    assert_eq!(
        again, sweep,
        "session cache must replay the sweep byte-identically"
    );
    println!("\nthe selection escalates through the hierarchy as RG grows");
    println!("{}", session.take_trace().to_json("fig11"));
}
