//! Degenerate-LP cycling suite: classic tableaus on which the plain
//! Dantzig entering rule is known to cycle forever must terminate here,
//! because the solver falls back to Bland's rule after a bounded run of
//! degenerate (zero-progress) pivots — and the fallback is observable in
//! the per-op counters, so these tests prove the rule actually fires
//! rather than the instance merely being easy.

use partita_ilp::simplex::{
    solve_with_bounds_scratch, SimplexOptions, SimplexScratch, MAX_ITERATIONS,
};
use partita_ilp::{Model, Relation, Sense};

/// Beale's 1955 counterexample: under Dantzig's most-negative-cost rule
/// with a lowest-index ratio tie-break, the simplex revisits its starting
/// basis every six pivots and never terminates. Optimum: objective
/// `-1/20` at `x = (1/25, 0, 1, 0)`.
fn beale() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_continuous("x1", 0.0, f64::INFINITY);
    let x2 = m.add_continuous("x2", 0.0, f64::INFINITY);
    let x3 = m.add_continuous("x3", 0.0, f64::INFINITY);
    let x4 = m.add_continuous("x4", 0.0, f64::INFINITY);
    m.set_objective([(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)]);
    m.add_constraint(
        [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::Le,
        0.0,
    )
    .expect("row 1");
    m.add_constraint(
        [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::Le,
        0.0,
    )
    .expect("row 2");
    m.add_constraint([(x3, 1.0)], Relation::Le, 1.0)
        .expect("row 3");
    m
}

/// Kuhn's cycling example (a second, independent trap): maximise
/// `2x1 + 3x2 - x3 - 12x4` over two degenerate rows through the origin.
/// Written as minimisation of the negated objective; the LP is unbounded
/// once the solver escapes the degenerate vertex, which is itself the
/// tell — a cycling solver never discovers unboundedness.
fn kuhn() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_continuous("x1", 0.0, f64::INFINITY);
    let x2 = m.add_continuous("x2", 0.0, f64::INFINITY);
    let x3 = m.add_continuous("x3", 0.0, f64::INFINITY);
    let x4 = m.add_continuous("x4", 0.0, f64::INFINITY);
    m.set_objective([(x1, -2.0), (x2, -3.0), (x3, 1.0), (x4, 12.0)]);
    m.add_constraint(
        [(x1, -2.0), (x2, -9.0), (x3, 1.0), (x4, 9.0)],
        Relation::Le,
        0.0,
    )
    .expect("row 1");
    m.add_constraint(
        [(x1, 1.0 / 3.0), (x2, 1.0), (x3, -1.0 / 3.0), (x4, -2.0)],
        Relation::Le,
        0.0,
    )
    .expect("row 2");
    m
}

fn full_bounds(m: &Model) -> (Vec<f64>, Vec<f64>) {
    (0..m.num_vars())
        .map(|i| m.var_bounds(partita_ilp::VarId(i)).expect("var in range"))
        .unzip()
}

#[test]
fn beale_terminates_at_the_known_optimum_via_bland_fallback() {
    let m = beale();
    let (lower, upper) = full_bounds(&m);
    // A stall threshold of zero arms Bland on the *first* degenerate
    // pivot, so the anti-cycling rule is guaranteed in play from the
    // start of the degenerate run.
    let options = SimplexOptions::default().with_bland_stall(0);
    let mut scratch = SimplexScratch::new();
    let sol = solve_with_bounds_scratch(&m, &lower, &upper, options, &mut scratch)
        .expect("Beale's LP is feasible and bounded");
    assert!(
        (sol.objective - (-0.05)).abs() < 1e-9,
        "Beale optimum is -1/20, got {}",
        sol.objective
    );
    assert!(
        sol.iterations < MAX_ITERATIONS,
        "termination must come from optimality, not the iteration limit"
    );
    let ops = scratch.ops();
    assert!(
        ops.bland_activations >= 1,
        "the degenerate start must trip the Bland fallback at stall 0"
    );
}

#[test]
fn beale_terminates_under_the_default_stall_threshold_too() {
    // The production configuration: Dantzig until the stall counter trips.
    // Termination at the right objective proves the default threshold is
    // low enough to break Beale's six-pivot cycle.
    let m = beale();
    let (lower, upper) = full_bounds(&m);
    let options = SimplexOptions::default();
    let mut scratch = SimplexScratch::new();
    let sol = solve_with_bounds_scratch(&m, &lower, &upper, options, &mut scratch)
        .expect("Beale's LP is feasible and bounded");
    assert!(
        (sol.objective - (-0.05)).abs() < 1e-9,
        "got {}",
        sol.objective
    );
    assert!(sol.iterations < MAX_ITERATIONS);
}

#[test]
fn kuhn_escapes_the_degenerate_vertex_and_proves_unboundedness() {
    let m = kuhn();
    let (lower, upper) = full_bounds(&m);
    let options = SimplexOptions::default().with_bland_stall(0);
    let mut scratch = SimplexScratch::new();
    let result = solve_with_bounds_scratch(&m, &lower, &upper, options, &mut scratch);
    assert!(
        matches!(result, Err(partita_ilp::IlpError::Unbounded)),
        "Kuhn's LP is unbounded below; a cycling solver would hit the \
         iteration limit instead, got {result:?}"
    );
}

#[test]
fn stall_threshold_is_deterministic_across_repeat_solves() {
    // Same model, same options, one reused scratch: the pivot trajectory —
    // including where the Bland fallback fires — must replay exactly.
    let m = beale();
    let (lower, upper) = full_bounds(&m);
    let options = SimplexOptions::default().with_bland_stall(0);
    let mut runs = Vec::new();
    for _ in 0..3 {
        let mut scratch = SimplexScratch::new();
        let sol =
            solve_with_bounds_scratch(&m, &lower, &upper, options, &mut scratch).expect("feasible");
        runs.push((
            sol.iterations,
            sol.objective.to_bits(),
            scratch.ops().phase2_pivots,
            scratch.ops().bland_activations,
        ));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}
