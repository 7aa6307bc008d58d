//! Differential lock for the flat-tableau scratch path: over real corpus
//! formulations, an LP solved through a long-lived reused
//! [`SimplexScratch`] must be **byte-identical** — objective bits, value
//! bits, iteration count, or the same typed error — to the same LP solved
//! through a fresh allocation.
//!
//! Branch-and-bound holds one scratch per search and re-enters it once per
//! node with branch-pinned bounds, so any drift between the two paths
//! (stale buffer contents, resize-dependent rounding, basis bleed-through)
//! would silently desynchronise the search from its single-solve oracle.
//! The property here reproduces that access pattern: random bound-pin
//! masks shaped like branching decisions, replayed against a scratch that
//! has already absorbed every previous case's tableau.

mod common;

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use partita::core::{RequiredGains, SolveOptions, Solver};
use partita::ilp::simplex::{
    solve_with_bounds, solve_with_bounds_scratch, SimplexOptions, SimplexScratch,
};
use partita::ilp::{LpSolution, Model, VarId};

/// Real Problem-2 formulations from the committed `micro` corpus, built
/// once: digest-verified instance -> IMP database -> ILP model, exactly
/// what the branch-and-bound backend receives.
fn corpus_models() -> &'static Vec<Model> {
    static MODELS: OnceLock<Vec<Model>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let entries = common::entries_for("synth", "micro");
        assert!(!entries.is_empty(), "micro corpus entries missing");
        let mut models = Vec::new();
        for entry in entries.iter().take(8) {
            let w = common::verified_workload(entry);
            let rg = w.rg_sweep[w.rg_sweep.len() / 2];
            let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
            match Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .formulate(&opts)
            {
                Ok(model) if model.num_vars() > 0 => models.push(model),
                // Empty databases formulate to errors or empty models;
                // neither exercises the tableau.
                _ => {}
            }
        }
        assert!(
            models.len() >= 3,
            "scratch-reuse corpus too small: {} models",
            models.len()
        );
        models
    })
}

/// The long-lived scratch the property replays every case through — the
/// stand-in for a branch-and-bound worker's per-thread buffer. Guarded by
/// a mutex because the proptest runner may be re-entered.
fn shared_scratch() -> &'static Mutex<SimplexScratch> {
    static SCRATCH: OnceLock<Mutex<SimplexScratch>> = OnceLock::new();
    SCRATCH.get_or_init(|| Mutex::new(SimplexScratch::new()))
}

/// Applies a branching-shaped pin mask to the model's own bounds: code 0
/// leaves the variable free, 1 pins it to its lower bound, 2 to its upper.
fn pinned_bounds(model: &Model, pins: &[u8]) -> (Vec<f64>, Vec<f64>) {
    let n = model.num_vars();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for i in 0..n {
        let (l, u) = model.var_bounds(VarId(i)).expect("index within num_vars");
        match pins.get(i % pins.len().max(1)).copied().unwrap_or(0) {
            1 => {
                lower.push(l);
                upper.push(l);
            }
            2 => {
                lower.push(u);
                upper.push(u);
            }
            _ => {
                lower.push(l);
                upper.push(u);
            }
        }
    }
    (lower, upper)
}

/// Byte-level equality for the two solve paths.
fn assert_bit_identical(
    fresh: &Result<LpSolution, partita::ilp::IlpError>,
    reused: &Result<LpSolution, partita::ilp::IlpError>,
    ctx: &str,
) {
    match (fresh, reused) {
        (Ok(f), Ok(r)) => {
            assert_eq!(
                f.objective.to_bits(),
                r.objective.to_bits(),
                "{ctx}: objective bits diverged ({} vs {})",
                f.objective,
                r.objective
            );
            assert_eq!(
                f.iterations, r.iterations,
                "{ctx}: iteration counts diverged"
            );
            assert_eq!(f.values.len(), r.values.len(), "{ctx}: arity diverged");
            for (i, (a, b)) in f.values.iter().zip(&r.values).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{ctx}: value {i} bits diverged ({a} vs {b})"
                );
            }
        }
        (Err(f), Err(r)) => {
            assert_eq!(
                format!("{f:?}"),
                format!("{r:?}"),
                "{ctx}: error variants diverged"
            );
        }
        other => panic!("{ctx}: fresh vs reused path diverged: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_allocation(
        model_pick in 0usize..1024,
        pins in proptest::collection::vec(0u8..3, 1..48),
    ) {
        let models = corpus_models();
        let model = &models[model_pick % models.len()];
        let (lower, upper) = pinned_bounds(model, &pins);
        let options = SimplexOptions::default();
        let fresh = solve_with_bounds(model, &lower, &upper, options);
        let mut scratch = shared_scratch().lock().expect("scratch mutex");
        let reused = solve_with_bounds_scratch(model, &lower, &upper, options, &mut scratch);
        let ctx = format!(
            "model {} ({} vars), pins {pins:?}",
            model_pick % models.len(),
            model.num_vars()
        );
        assert_bit_identical(&fresh, &reused, &ctx);
    }
}

/// The deterministic companion to the property above: walk every corpus
/// model's unpinned relaxation twice through one scratch and once fresh —
/// the second reuse pass must also count a scratch hit in the ops
/// counters, proving the buffer actually got reused rather than silently
/// reallocated.
#[test]
fn reused_scratch_reports_reuse_and_stays_bit_identical() {
    let models = corpus_models();
    let mut scratch = SimplexScratch::new();
    for (i, model) in models.iter().enumerate() {
        let n = model.num_vars();
        let (lower, upper): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|v| model.var_bounds(VarId(v)).expect("var in range"))
            .unzip();
        let options = SimplexOptions::default();
        let fresh = solve_with_bounds(model, &lower, &upper, options);
        let first = solve_with_bounds_scratch(model, &lower, &upper, options, &mut scratch);
        let second = solve_with_bounds_scratch(model, &lower, &upper, options, &mut scratch);
        assert_bit_identical(&fresh, &first, &format!("model {i} first pass"));
        assert_bit_identical(&fresh, &second, &format!("model {i} second pass"));
    }
    let ops = scratch.ops();
    assert!(
        ops.tableau_builds >= 2 * models.len(),
        "expected at least two builds per model, got {}",
        ops.tableau_builds
    );
    assert!(
        ops.scratch_reuses > 0,
        "repeat passes through one scratch must register reuse hits"
    );
}
