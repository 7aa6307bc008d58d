//! Reproducibility: every published sweep point must decode to the same
//! selection on repeated solves — the tables in EXPERIMENTS.md are only
//! meaningful if the solver is deterministic. The serialization contract
//! and point solver live in `tests/common` and are shared with the corpus
//! and fuzz gates.

mod common;

use common::{serialize_selection, solve_point};
use partita::core::{RequiredGains, SolveBudget, SolveOptions, Solver, SweepSession};
use partita::workloads::{adpcm, fft_radix4, gsm, jpeg, lms, synth, viterbi, Workload};

/// Calibrated tables plus one canonical member of each generated DSP
/// family: the full published surface.
fn published_workloads() -> Vec<Workload> {
    vec![
        gsm::encoder(),
        gsm::decoder(),
        jpeg::encoder(),
        viterbi::workload(),
        adpcm::workload(),
        lms::workload(),
        fft_radix4::workload(),
    ]
}

#[test]
fn calibrated_sweeps_are_deterministic() {
    for w in published_workloads() {
        for &rg in &w.rg_sweep {
            let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
            let a = Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&opts)
                .expect("sweep point feasible");
            let b = Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&opts)
                .expect("sweep point feasible");
            assert_eq!(
                a.chosen(),
                b.chosen(),
                "{} at RG {} must decode identically",
                w.instance.name,
                rg.get()
            );
            assert_eq!(a.total_area(), b.total_area());
            assert_eq!(a.total_gain(), b.total_gain());
            // Audit oracle over every published table point: the selection
            // must re-derive cleanly from the calibrated IMP database.
            let ctx = format!("{} at RG {}", w.instance.name, rg.get());
            common::assert_audit_clean(&w, &a, &opts, &ctx);
        }
    }
}

/// Repeated cold solves of every published sweep point serialize
/// byte-identically.
#[test]
fn repeated_solves_of_published_points_are_byte_identical() {
    for w in published_workloads() {
        for &rg in &w.rg_sweep {
            let reference = serialize_selection(&solve_point(&w, rg, SolveBudget::default()));
            for repeat in 1..=2 {
                assert_eq!(
                    reference,
                    serialize_selection(&solve_point(&w, rg, SolveBudget::default())),
                    "{} at RG {}: repeat {repeat} diverged",
                    w.instance.name,
                    rg.get()
                );
            }
        }
    }
}

/// Repeated solves of a synthetic instance with a deep search tree stay
/// byte-identical.
#[test]
fn synth_selection_byte_identical_across_thread_counts() {
    let w = synth::generate(synth::SynthParams::sized(12, 8, 2, 3));
    let rg = w.rg_sweep[2];
    let reference = serialize_selection(&solve_point(&w, rg, SolveBudget::default()));
    for _ in 0..2 {
        let got = serialize_selection(&solve_point(&w, rg, SolveBudget::default()));
        assert_eq!(reference, got, "repeat solve diverged");
    }
}

/// A [`SweepSession`] cache hit must hand back the cold solve verbatim —
/// trace included — and a second pass over the sweep hits the entries the
/// first pass stored. A point a lower point's proof covers is a hit on
/// the first pass already.
#[test]
fn session_cache_hits_are_byte_identical_to_the_cold_solve() {
    for w in [gsm::encoder(), jpeg::encoder()] {
        let mut session = SweepSession::new();
        let points = w.rg_sweep.len() as u64;
        for pass in 1..=2 {
            let hits = session.trace().cache_hits;
            for &rg in &w.rg_sweep {
                let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
                let first = session
                    .solve(&w.instance, &w.imps, &opts)
                    .expect("sweep point feasible");
                let hit = session
                    .solve(&w.instance, &w.imps, &opts)
                    .expect("cached sweep point");
                assert_eq!(
                    first,
                    hit,
                    "{} at RG {} (pass {pass}): cache hit diverged",
                    w.instance.name,
                    rg.get()
                );
                assert_eq!(serialize_selection(&first), serialize_selection(&hit));
            }
            if pass == 2 {
                let name = &w.instance.name;
                assert_eq!(session.trace().cache_hits - hits, 2 * points, "{name}");
            }
        }
        let trace = session.trace();
        assert!(trace.cache_misses <= points, "{}", w.instance.name);
        assert_eq!(
            trace.cache_hits + trace.cache_misses,
            4 * points,
            "{}",
            w.instance.name
        );
    }
}

/// Sweeps, where a proof answers the higher points it covers, and
/// independent cold solves agree point for point on every published table
/// — the orchestration layer is a performance knob, never a result knob.
#[test]
fn interval_sweep_selections_match_independent_solves() {
    for w in [gsm::encoder(), gsm::decoder(), jpeg::encoder()] {
        let mut session = SweepSession::new();
        let sweep = session
            .sweep(&w.instance, &w.imps, &SolveOptions::default(), &w.rg_sweep)
            .expect("published sweep feasible");
        for (sel, &rg) in sweep.iter().zip(&w.rg_sweep) {
            let lone = Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)))
                .expect("sweep point feasible");
            assert_eq!(
                serialize_selection(sel),
                serialize_selection(&lone),
                "{} at RG {}: sweep diverged from lone solve",
                w.instance.name,
                rg.get()
            );
        }
    }
}

#[test]
fn synthetic_instances_are_deterministic() {
    let w1 = synth::generate(synth::SynthParams::default());
    let w2 = synth::generate(synth::SynthParams::default());
    assert_eq!(w1.imps.imps(), w2.imps.imps());
    assert_eq!(w1.rg_sweep, w2.rg_sweep);
    let rg = w1.rg_sweep[0];
    let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
    let a = Solver::new(&w1.instance)
        .with_imps(w1.imps.clone())
        .solve(&opts);
    let b = Solver::new(&w2.instance)
        .with_imps(w2.imps.clone())
        .solve(&opts);
    match (a, b) {
        (Ok(a), Ok(b)) => assert_eq!(a.chosen(), b.chosen()),
        (Err(_), Err(_)) => {}
        other => panic!("determinism violated: {other:?}"),
    }
}
