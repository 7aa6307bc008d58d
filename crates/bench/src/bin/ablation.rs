//! Ablation study (beyond the paper's tables): the exact ILP selector vs
//! the greedy heuristic vs the no-interface prior approach \[8\], over random
//! instances and the calibrated workloads.

use std::time::{Duration, Instant};

use partita_bench::cold_vs_interval_sweep;
use partita_core::{baseline, RequiredGains, SolveBudget, SolveOptions, Solver, SweepTrace};
use partita_mop::Cycles;
use partita_workloads::{gsm, jpeg, synth, Workload};

fn run_one(name: &str, w: &Workload, rg: Cycles) {
    let gains = RequiredGains::uniform(rg);
    let t0 = Instant::now();
    let ilp = Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(&SolveOptions::problem2(gains.clone()));
    let ilp_time = t0.elapsed();
    let greedy = baseline::solve_greedy(&w.instance, &w.imps, &gains);
    let noif = baseline::solve_no_interface(&w.instance, &w.imps, &gains);

    let fmt = |r: &Result<partita_core::Selection, partita_core::CoreError>| match r {
        Ok(s) => format!(
            "area {:>7}, gain {:>10}",
            s.total_area().to_string(),
            s.total_gain().get()
        ),
        Err(_) => "infeasible".to_owned(),
    };
    println!("{name} @ RG {}", rg.get());
    println!("    ilp          {} ({:.1?})", fmt(&ilp), ilp_time);
    println!("    greedy       {}", fmt(&greedy));
    println!("    no-interface {}", fmt(&noif));

    if let (Ok(i), Ok(g)) = (&ilp, &greedy) {
        assert!(i.total_area() <= g.total_area(), "ILP must dominate greedy");
    }
}

fn main() {
    println!("Ablation: ILP vs greedy vs no-interface baseline\n");

    let enc = gsm::encoder();
    run_one("gsm_encoder", &enc, enc.rg_sweep[4]);
    run_one("gsm_encoder", &enc, *enc.rg_sweep.last().expect("sweep"));
    let dec = gsm::decoder();
    run_one("gsm_decoder", &dec, *dec.rg_sweep.last().expect("sweep"));
    let jp = jpeg::encoder();
    run_one("jpeg_encoder", &jp, jp.rg_sweep[2]);

    println!("\nrandom instances (seeded):");
    for seed in [1u64, 2, 3] {
        let w = synth::generate(synth::SynthParams::sized(14, 10, 2, seed));
        let rg = w.rg_sweep[1];
        run_one(&format!("synth(seed={seed})"), &w, rg);
    }

    println!("\nsolver scaling (s-calls -> solve time, 5 s deadline per point):");
    for n in [8usize, 12, 16, 20, 24] {
        let w = synth::generate(synth::SynthParams::sized(n, n / 2, 2, 99));
        let opts = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[1]))
            .budget(SolveBudget::default().with_deadline(Duration::from_secs(5)));
        let t0 = Instant::now();
        let sel = Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .solve(&opts);
        println!(
            "    {n:>3} s-calls, {:>4} IMPs: {:>9.2?} ({})",
            w.imps.len(),
            t0.elapsed(),
            sel.map(|s| format!("nodes {}, {}", s.trace.nodes_explored, s.status))
                .unwrap_or_else(|e| e.to_string())
        );
    }

    warm_start_sweep("GSM encoder", &gsm::encoder());
    let synth3 = synth::generate(synth::SynthParams::sized(14, 10, 2, 3));
    warm_start_sweep("synth(seed=3)", &synth3);

    sweep_orchestration();
}

/// Cold sweeps vs sweeps under the interval cache rule on the three
/// published tables. The rule must never change a selection; the node
/// savings are the point of the sweep layer.
fn sweep_orchestration() {
    println!("\nsweep orchestration (independent cold solves vs interval sweep, B&B nodes):");
    let mut cold_total = 0u64;
    let mut interval_total = 0u64;
    for (label, w) in [
        ("gsm_encoder", gsm::encoder()),
        ("gsm_decoder", gsm::decoder()),
        ("jpeg_encoder", jpeg::encoder()),
    ] {
        let (cold, interval) = cold_vs_interval_sweep(&w, &SolveOptions::default());
        cold_total += cold.total_nodes();
        interval_total += interval.total_nodes();
        println!("{}", SweepTrace::compare_json(label, &cold, &interval));
    }
    println!(
        "    total: cold {cold_total} nodes, interval {interval_total} nodes, saved {}",
        cold_total as i64 - interval_total as i64
    );
}

/// Solves every RG-sweep point of `w` twice — with and without the greedy
/// warm start — and prints the branch-and-bound effort side by side.
fn warm_start_sweep(name: &str, w: &Workload) {
    println!("\nwarm-start ablation ({name} RG sweep, B&B nodes explored):");
    for &rg in &w.rg_sweep {
        let solve = |warm: bool| {
            Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)).warm_start(warm))
        };
        let (Ok(cold), Ok(warm)) = (solve(false), solve(true)) else {
            println!("    RG {:>8}: infeasible", rg.get());
            continue;
        };
        println!(
            "    RG {:>8}: cold {:>5} nodes / {:>6} pivots, warm {:>5} nodes / {:>6} pivots{}",
            rg.get(),
            cold.trace.nodes_explored,
            cold.trace.simplex_iterations,
            warm.trace.nodes_explored,
            warm.trace.simplex_iterations,
            if warm.trace.warm_start_accepted {
                ""
            } else {
                "  (warm start rejected)"
            }
        );
    }
}
