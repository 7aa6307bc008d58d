//! Property test: folding fixed variables into the tableau build is
//! bit-identical to solving an explicitly reduced model.
//!
//! `solve_with_bounds_scratch` drops the columns and bound rows of fixed
//! variables (`lower == upper`) while it builds the tableau and moves
//! their contribution into the right-hand sides. The oracle here is the
//! construction the fold replaces: substitute the fixed variables out into
//! a fresh `Model`, check the rows left constant, solve the reduced model
//! and map its values back. Over random models with random fixed subsets
//! both must return the same `LpSolution` bit for bit (or the same error)
//! and charge the same `SimplexOps`, through scratches that are reused
//! across solves.

use proptest::prelude::*;

use partita_ilp::simplex::{solve_with_bounds_scratch, SimplexOptions, SimplexScratch};
use partita_ilp::{IlpError, LinExpr, LpSolution, Model, Relation, Sense, VarId, FEAS_TOL};

/// Tolerance below which a bound pair counts as fixed (the solver's own).
const FIXED_EPS: f64 = 1e-10;

/// One random model: per variable `(kind, lower, width)`, per row
/// `(coefficients, relation, rhs)`, the objective and its sense.
type Shape = (
    Vec<(u8, i32, i32)>,
    Vec<(Vec<i32>, u8, i32)>,
    Vec<i32>,
    bool,
    i32,
);

fn shape_strategy() -> impl Strategy<Value = (Shape, Vec<u8>, Vec<u8>)> {
    (2usize..=9).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec((0u8..3, -3i32..3, 1i32..7), n),
                proptest::collection::vec(
                    (proptest::collection::vec(-4i32..5, n), 0u8..3, -8i32..14),
                    1..8,
                ),
                proptest::collection::vec(-5i32..6, n),
                any::<bool>(),
                -4i32..5,
            ),
            proptest::collection::vec(0u8..5, n),
            proptest::collection::vec(0u8..5, n),
        )
    })
}

/// Builds the model. Coefficients are halves so a row can cancel exactly;
/// zero coefficients drop out of the row, and a row can end up empty.
fn build(shape: &Shape) -> Model {
    let (vars, rows, objective, maximize, constant) = shape;
    let mut m = Model::new(if *maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let ids: Vec<VarId> = vars
        .iter()
        .enumerate()
        .map(|(i, &(kind, lo, width))| {
            let lo = f64::from(lo) / 2.0;
            match kind {
                0 => m.add_binary(format!("b{i}")),
                1 => m.add_continuous(format!("c{i}"), lo, lo + f64::from(width) / 2.0),
                _ => m.add_continuous(format!("u{i}"), lo, f64::INFINITY),
            }
        })
        .collect();
    for (coeffs, rel, rhs) in rows {
        let relation = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let terms: Vec<(VarId, f64)> = ids
            .iter()
            .zip(coeffs)
            .map(|(&v, &k)| (v, f64::from(k) / 2.0))
            .collect();
        m.add_constraint(terms, relation, f64::from(*rhs) / 2.0)
            .expect("finite row");
    }
    let mut obj: LinExpr = ids
        .iter()
        .zip(objective)
        .map(|(&v, &k)| (v, f64::from(k)))
        .collect();
    obj.add_constant(f64::from(*constant));
    m.set_objective_expr(obj);
    m
}

/// Applies a pin mask: 0 leaves a variable free, 1 pins it to its lower
/// bound, 2 to its upper bound (or a point above an infinite one), 3 to an
/// interior point, 4 to an interior point with an upper bound a hair
/// (within the fixed tolerance) above it. At least one variable stays
/// free and one is pinned, so every case takes the folding path.
fn pinned(model: &Model, pins: &[u8]) -> (Vec<f64>, Vec<f64>) {
    let n = model.num_vars();
    let mut codes = pins.to_vec();
    if codes.iter().all(|&c| c == 0) {
        codes[n - 1] = 1;
    }
    if codes.iter().all(|&c| c != 0) {
        codes[0] = 0;
    }
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    for (i, &code) in codes.iter().enumerate() {
        let (l, u) = model.var_bounds(VarId(i)).expect("var in range");
        let interior = if u.is_finite() {
            l + (u - l) / 3.0
        } else {
            l + 0.25
        };
        let (lo, hi) = match code {
            0 => (l, u),
            1 => (l, l),
            2 if u.is_finite() => (u, u),
            2 => (l + 1.5, l + 1.5),
            3 => (interior, interior),
            _ => (interior, interior + 5e-11),
        };
        lower.push(lo);
        upper.push(hi);
    }
    (lower, upper)
}

/// The oracle: substitutes the fixed variables out into a reduced model
/// (constant rows checked outright, the rest shifted by the fixed terms),
/// solves it through `scratch` and maps the values back. The objective is
/// the full model's objective at the mapped values.
fn solve_reduced(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
    scratch: &mut SimplexScratch,
) -> Result<LpSolution, IlpError> {
    let n = model.num_vars();
    let fixed: Vec<bool> = (0..n).map(|i| upper[i] - lower[i] <= FIXED_EPS).collect();
    let mut reduced_index = vec![usize::MAX; n];
    let mut free: Vec<usize> = Vec::new();
    for i in 0..n {
        if !fixed[i] {
            reduced_index[i] = free.len();
            free.push(i);
        }
    }
    let mut reduced = Model::new(model.sense());
    let mut rlower = Vec::with_capacity(free.len());
    let mut rupper = Vec::with_capacity(free.len());
    for &i in &free {
        reduced.add_continuous(format!("r{i}"), lower[i], upper[i]);
        rlower.push(lower[i]);
        rupper.push(upper[i]);
    }
    for c in model.constraints() {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut shift = 0.0;
        for (v, k) in c.expr.terms() {
            if fixed[v.index()] {
                shift += k * lower[v.index()];
            } else {
                terms.push((VarId(reduced_index[v.index()]), k));
            }
        }
        let rhs = c.rhs - c.expr.constant() - shift;
        if terms.is_empty() {
            let tol = FEAS_TOL;
            let ok = match c.relation {
                Relation::Le => 0.0 <= rhs + tol,
                Relation::Ge => 0.0 >= rhs - tol,
                Relation::Eq => rhs.abs() <= tol,
            };
            if !ok {
                return Err(IlpError::Infeasible);
            }
            continue;
        }
        reduced
            .add_constraint(terms, c.relation, rhs)
            .expect("reduced terms reference fresh vars");
    }
    let objective: Vec<(VarId, f64)> = model
        .objective()
        .terms()
        .into_iter()
        .filter(|(v, _)| !fixed[v.index()])
        .map(|(v, k)| (VarId(reduced_index[v.index()]), k))
        .collect();
    reduced.set_objective(objective);

    let sub = solve_with_bounds_scratch(&reduced, &rlower, &rupper, options, scratch)?;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            if fixed[i] {
                lower[i]
            } else {
                sub.values[reduced_index[i]]
            }
        })
        .collect();
    Ok(LpSolution {
        objective: model.objective().eval(&values),
        values,
        iterations: sub.iterations,
    })
}

/// Bit-level view of a solve result: objective and value bits, iterations,
/// or the error.
fn bits(r: &Result<LpSolution, IlpError>) -> Result<(u64, Vec<u64>, usize), String> {
    match r {
        Ok(s) => Ok((
            s.objective.to_bits(),
            s.values.iter().map(|v| v.to_bits()).collect(),
            s.iterations,
        )),
        Err(e) => Err(format!("{e:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn folded_build_matches_reduced_model(case in shape_strategy()) {
        let (shape, pins_a, pins_b) = case;
        let model = build(&shape);
        let options = SimplexOptions::default();
        let mut folded = SimplexScratch::new();
        let mut oracle = SimplexScratch::new();
        // Two masks through the same pair of scratches: the second solve
        // runs on pooled buffers sized by the first.
        for pins in [&pins_a, &pins_b] {
            let (lower, upper) = pinned(&model, pins);
            let got = solve_with_bounds_scratch(&model, &lower, &upper, options, &mut folded);
            let want = solve_reduced(&model, &lower, &upper, options, &mut oracle);
            prop_assert_eq!(bits(&got), bits(&want), "pins {:?}", pins);
            prop_assert_eq!(folded.ops(), oracle.ops(), "pins {:?}", pins);
        }
    }
}
