//! The brute-force oracle and branch-and-bound accept integer points under
//! one feasibility tolerance, [`FEAS_TOL`], so they agree on rows that a
//! point violates by less than it.
//!
//! The model is `min x + 3y` subject to `x + y ≥ 1 + δ` over binaries. At
//! `δ` inside the tolerance, `(1, 0)` is feasible for both solvers
//! (objective 1); past it, only `(1, 1)` is (objective 4).

use partita_ilp::{
    solve_binary_exhaustive, BranchBound, IlpSolution, Model, Relation, Sense, FEAS_TOL,
};

/// Violations just inside and just past the tolerance.
const INSIDE: f64 = 5e-7;
const PAST: f64 = 2e-6;
const _: () = assert!(INSIDE < FEAS_TOL && FEAS_TOL < PAST);

fn model(delta: f64) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_binary("x");
    let y = m.add_binary("y");
    m.set_objective([(x, 1.0), (y, 3.0)]);
    m.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 1.0 + delta)
        .expect("finite row");
    m
}

/// Solves `model(delta)` both ways and checks they agree on the objective
/// and the point, returning the common solution.
fn agree(delta: f64) -> IlpSolution {
    let m = model(delta);
    let bb = BranchBound::new().solve(&m).expect("branch-and-bound");
    let oracle = solve_binary_exhaustive(&m).expect("exhaustive");
    assert_eq!(
        bb.objective, oracle.objective,
        "objective at delta {delta}: branch-and-bound {bb:?}, oracle {oracle:?}"
    );
    assert_eq!(bb.values, oracle.values, "point at delta {delta}");
    bb
}

#[test]
fn oracle_and_branch_bound_agree_inside_the_tolerance() {
    let sol = agree(INSIDE);
    assert_eq!(sol.objective, 1.0);
    assert_eq!(sol.values, [1.0, 0.0]);
}

#[test]
fn oracle_and_branch_bound_agree_past_the_tolerance() {
    let sol = agree(PAST);
    assert_eq!(sol.objective, 4.0);
    assert_eq!(sol.values, [1.0, 1.0]);
}
