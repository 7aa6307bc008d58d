//! Reproduces **Fig. 9**: with three independent `fir()` calls and one FIR
//! IP, Problem 1's best plan maps all three into the IP (total time = IP
//! time), while Problem 2 runs one `fir()` in the kernel as the parallel
//! code of another — finishing earlier and/or cheaper.
//!
//! The instance lives in [`partita_bench::suite::fig9_workload`] so the
//! benchsuite sweeps the same structure this figure demonstrates.

use partita_bench::suite::fig9_workload;
use partita_core::{ProblemKind, RequiredGains, SolveOptions, SweepSession};
use partita_mop::Cycles;

fn main() {
    let w = fig9_workload();
    let (inst, db) = (&w.instance, &w.imps);

    let rg = RequiredGains::uniform(Cycles(1500));
    println!("Fig. 9 — three fir() calls, RG = 1500\n");
    // Both problem variants go through one session, so the selections are
    // memoized for the re-solve below.
    let labels = ["Problem 1 (all-in-IP)", "Problem 2 (one fir in kernel)"];
    let [p1_opts, p2_opts] = [ProblemKind::Problem1, ProblemKind::Problem2]
        .map(|problem| SolveOptions::for_problem(problem, rg.clone()));
    let mut session = SweepSession::new();
    let p1 = session.solve(inst, db, &p1_opts).expect("p1 feasible");
    let p2 = session.solve(inst, db, &p2_opts).expect("p2 feasible");
    for (name, sel) in labels.iter().zip([&p1, &p2]) {
        println!(
            "{name:<32} selected {} IMP(s), gain {}, area {}",
            sel.chosen().len(),
            sel.total_gain().get(),
            sel.total_area()
        );
        for impsel in sel.chosen() {
            println!("    {impsel}  [{:?}]", impsel.parallel);
        }
    }
    let p2_again = session.solve(inst, db, &p2_opts).expect("cached p2");
    assert_eq!(p2_again, p2, "session cache must replay the solve");
    assert!(p2.total_area() < p1.total_area());
    println!(
        "\nProblem 2 meets the constraint with area {} vs Problem 1's {} — the Fig. 9 effect",
        p2.total_area(),
        p1.total_area()
    );
}
