//! Property test: a root probe re-solved warm on the root tableau answers
//! exactly what a cold solve of the same bounds answers.
//!
//! `RootProbe` pins a binary to its other bound by moving its column's
//! bound on the root tableau and repairing with the dual simplex, then
//! undoes the probe's pivots. The oracle is the cold probe it replaces:
//! `solve_with_bounds_scratch` on the current bounds with the binary
//! pinned. Over random binary models with `≤`/`≥` rows, rows with negative
//! right-hand sides (negated at build), equality rows, both senses and
//! chains of accepted fixes, every at-bound binary's warm probe must agree
//! with the cold one on feasibility and on the objective within 1e-9
//! relative, and the reduced-cost screen must bound every feasible flip
//! from below, so it can never fix a flip the cold probe keeps. A bound
//! change needs no slack column, so every probe of a root without a basic
//! artificial runs warm, equality rows included.

use proptest::prelude::*;

use partita_ilp::simplex::{
    solve_with_basis, solve_with_bounds_scratch, ProbeCounts, ProbeOutcome, RootProbe,
    SimplexOptions, SimplexScratch,
};
use partita_ilp::{IlpError, LpSolution, Model, Relation, Sense, VarId};

/// Root values within this of a bound count as at the bound (the
/// branch-and-bound integrality tolerance).
const AT_BOUND: f64 = 1e-6;

/// One random model: per row `(coefficients, relation, rhs)`, the
/// objective, the sense, and whether to add an equality row with the
/// given coefficients.
type Shape = (Vec<(Vec<i32>, bool, i32)>, Vec<i32>, bool, (bool, Vec<i32>));

fn shape_strategy() -> impl Strategy<Value = (Shape, Vec<bool>)> {
    (3usize..=8).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec(
                    (
                        proptest::collection::vec(-4i32..5, n),
                        any::<bool>(),
                        -8i32..14,
                    ),
                    1..6,
                ),
                proptest::collection::vec(-5i32..6, n),
                any::<bool>(),
                (any::<bool>(), proptest::collection::vec(-1i32..2, n)),
            ),
            proptest::collection::vec(any::<bool>(), n),
        )
    })
}

/// Builds the all-binary model. Coefficients and right-hand sides are
/// halves; a negative right-hand side makes the build negate the row.
fn build(shape: &Shape) -> Model {
    let (rows, objective, maximize, (with_eq, eq_coeffs)) = shape;
    let mut m = Model::new(if *maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let ids: Vec<VarId> = (0..objective.len())
        .map(|i| m.add_binary(format!("b{i}")))
        .collect();
    for (coeffs, ge, rhs) in rows {
        let relation = if *ge { Relation::Ge } else { Relation::Le };
        let terms: Vec<(VarId, f64)> = ids
            .iter()
            .zip(coeffs)
            .map(|(&v, &k)| (v, f64::from(k) / 2.0))
            .collect();
        m.add_constraint(terms, relation, f64::from(*rhs) / 2.0)
            .expect("finite row");
    }
    if *with_eq {
        // `Σ k·x = 0` with `k ∈ {-1, 0, 1}`: the all-zero point satisfies
        // it, so the row leaves the model feasible whenever the others do.
        let terms: Vec<(VarId, f64)> = ids
            .iter()
            .zip(eq_coeffs)
            .map(|(&v, &k)| (v, f64::from(k)))
            .collect();
        m.add_constraint(terms, Relation::Eq, 0.0)
            .expect("finite row");
    }
    m.set_objective(ids.iter().zip(objective).map(|(&v, &k)| (v, f64::from(k))));
    m
}

/// The minimisation-normalised objective the tableau prices in.
fn norm(model: &Model, objective: f64) -> f64 {
    match model.sense() {
        Sense::Minimize => objective,
        Sense::Maximize => -objective,
    }
}

/// The solution of a probe asked for its optimum (no cutoff).
fn solved(outcome: Result<ProbeOutcome, IlpError>) -> Result<LpSolution, IlpError> {
    match outcome {
        Ok(ProbeOutcome::Solved(solution)) => Ok(solution),
        Ok(cut) => panic!("a probe without a cutoff stopped: {cut:?}"),
        Err(e) => Err(e),
    }
}

/// Feasibility and objective agree: both infeasible, or both optimal with
/// objectives within 1e-9 relative.
fn agree(warm: &Result<LpSolution, IlpError>, cold: &Result<LpSolution, IlpError>) -> bool {
    match (warm, cold) {
        (Ok(w), Ok(c)) => {
            let scale = 1f64.max(w.objective.abs()).max(c.objective.abs());
            (w.objective - c.objective).abs() <= 1e-9 * scale
        }
        (Err(w), Err(c)) => w == c,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn warm_probes_match_cold_probes(case in shape_strategy()) {
        let (shape, accept) = case;
        let model = build(&shape);
        let n = model.num_vars();
        let options = SimplexOptions::default();
        let mut lower = vec![0.0; n];
        let mut upper = vec![1.0; n];
        let mut scratch = SimplexScratch::new();
        let Ok(root) = solve_with_basis(&model, &lower, &upper, options, &mut scratch) else {
            return Ok(());
        };
        let z = norm(&model, root.objective);
        // Only a root basis with a stuck artificial sends probes cold.
        let mut cold_scratch = SimplexScratch::new();
        let mut prober = RootProbe::new(&model, &lower, &upper, options, &mut scratch);
        let warm_alive = prober.is_warm();
        for j in 0..n {
            let x = root.values[j];
            if lower[j] >= upper[j] || (x > AT_BOUND && x < 1.0 - AT_BOUND) {
                continue;
            }
            let flipped = if x <= AT_BOUND { 1.0 } else { 0.0 };
            let v = VarId(j);
            let screen = z + prober.reduced_cost(v, flipped);
            let before = prober.counts();
            let warm = solved(prober.probe(v, flipped, f64::INFINITY));
            let after = prober.counts();

            let (saved_l, saved_u) = (lower[j], upper[j]);
            (lower[j], upper[j]) = (flipped, flipped);
            let cold = solve_with_bounds_scratch(&model, &lower, &upper, options, &mut cold_scratch);
            (lower[j], upper[j]) = (saved_l, saved_u);

            prop_assert!(agree(&warm, &cold), "x{} -> {}: warm {:?} cold {:?}", j, flipped, warm, cold);
            if let Ok(c) = &cold {
                let bound = norm(&model, c.objective);
                prop_assert!(
                    screen <= bound + 1e-9 * 1f64.max(bound.abs()),
                    "x{} -> {}: screen {} above the flipped LP's {}", j, flipped, screen, bound
                );
            }
            let want = if warm_alive {
                ProbeCounts { warm: before.warm + 1, ..before }
            } else {
                ProbeCounts { cold: before.cold + 1, ..before }
            };
            prop_assert_eq!(after, want, "x{} -> {}", j, flipped);

            // Under a cutoff a probe may stop early, but only where the
            // cold bound lies above it (or the pin is infeasible), and a
            // probe that does not stop still answers the cold optimum.
            let bound = cold.as_ref().map(|c| norm(&model, c.objective));
            let cutoffs = match bound {
                Ok(b) => vec![z, (z + b) / 2.0, b],
                Err(_) => vec![z],
            };
            for cutoff in cutoffs {
                match prober.probe(v, flipped, cutoff) {
                    Ok(ProbeOutcome::Cutoff { .. }) => prop_assert!(
                        bound.as_ref().map_or(true, |&b| b > cutoff),
                        "x{} -> {}: stopped at cutoff {} below the bound {:?}", j, flipped, cutoff, bound
                    ),
                    outcome => {
                        let outcome = solved(outcome);
                        prop_assert!(agree(&outcome, &cold), "x{} -> {} cutoff {}: {:?} cold {:?}", j, flipped, cutoff, outcome, cold);
                    }
                }
            }

            if accept[j] {
                // A fix at the root value keeps the root vertex optimal.
                let kept = x.round();
                prober.fix(v, kept);
                (lower[j], upper[j]) = (kept, kept);
            }
        }
        let (final_lower, final_upper) = prober.finish();
        prop_assert_eq!(final_lower, lower);
        prop_assert_eq!(final_upper, upper);
    }
}

/// Equality rows, deterministically: a flip up of a variable in an
/// equality row and a flip down both run warm, and both answer what the
/// LP says.
#[test]
fn equality_row_flips_run_warm() {
    // min 3a + b + c  s.t.  a − b = 0,  b + c ≥ 1.  Root: c = 1, a = b = 0.
    let mut m = Model::new(Sense::Minimize);
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    let c = m.add_binary("c");
    m.set_objective([(a, 3.0), (b, 1.0), (c, 1.0)]);
    m.add_constraint([(a, 1.0), (b, -1.0)], Relation::Eq, 0.0)
        .unwrap();
    m.add_constraint([(b, 1.0), (c, 1.0)], Relation::Ge, 1.0)
        .unwrap();
    let options = SimplexOptions::default();
    let (lower, upper) = (vec![0.0; 3], vec![1.0; 3]);
    let mut scratch = SimplexScratch::new();
    let root = solve_with_basis(&m, &lower, &upper, options, &mut scratch).unwrap();
    assert_eq!(root.values, vec![0.0, 0.0, 1.0]);
    let mut prober = RootProbe::new(&m, &lower, &upper, options, &mut scratch);

    // a ↑ 1 moves a through the equality row: b follows, and costs 4.
    let up = solved(prober.probe(a, 1.0, f64::INFINITY)).unwrap();
    assert!((up.objective - 4.0).abs() < 1e-9, "{up:?}");
    assert_eq!(up.values, vec![1.0, 1.0, 0.0]);
    assert_eq!(prober.counts(), ProbeCounts { warm: 1, cold: 0 });
    // c ↓ 0 forces b = a = 1.
    let down = solved(prober.probe(c, 0.0, f64::INFINITY)).unwrap();
    assert!((down.objective - 4.0).abs() < 1e-9, "{down:?}");
    assert_eq!(prober.counts(), ProbeCounts { warm: 2, cold: 0 });
}

/// A root basis with a stuck artificial (a duplicated equality row is
/// redundant, so its artificial stays basic at zero) sends every probe
/// cold, and the answers still match.
#[test]
fn basic_artificial_sends_every_probe_cold() {
    let mut m = Model::new(Sense::Minimize);
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    m.set_objective([(a, 1.0), (b, 2.0)]);
    for _ in 0..2 {
        m.add_constraint([(a, 1.0), (b, 1.0)], Relation::Eq, 1.0)
            .unwrap();
    }
    let options = SimplexOptions::default();
    let (lower, upper) = (vec![0.0; 2], vec![1.0; 2]);
    let mut scratch = SimplexScratch::new();
    solve_with_basis(&m, &lower, &upper, options, &mut scratch).unwrap();
    let mut prober = RootProbe::new(&m, &lower, &upper, options, &mut scratch);
    assert!(!prober.is_warm(), "the redundant row keeps its artificial");
    assert_eq!(prober.reduced_cost(b, 1.0), 0.0, "no tableau, no screen");
    let up = solved(prober.probe(b, 1.0, f64::INFINITY)).unwrap();
    assert!((up.objective - 2.0).abs() < 1e-9, "{up:?}");
    let down = solved(prober.probe(a, 0.0, f64::INFINITY)).unwrap();
    assert_eq!(down.values, vec![0.0, 1.0]);
    assert_eq!(prober.counts(), ProbeCounts { warm: 0, cold: 2 });
}
