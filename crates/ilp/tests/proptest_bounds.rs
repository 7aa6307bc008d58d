//! Property test: the implicit bounds of the bounded-variable simplex
//! answer what explicit bound rows answer.
//!
//! The tableau keeps every finite width `u − l` as an implicit bound of
//! its column (complemented at the upper end), not as a row. The oracle
//! here is the formulation that replaces: the same model with every finite
//! upper bound rewritten as an explicit `x ≤ u` constraint on a column
//! without an upper bound, which the tableau can only meet through a row.
//! Over random models with binaries, finite-width and unbounded continuous
//! columns, negative lower bounds, `≤`/`≥`/`=` rows and both senses, every
//! path must agree with the oracle on the verdict and on the objective
//! within 1e-9 relative, and return a point inside its bounds and rows:
//!
//! - `solve_with_bounds_scratch` under random pins (fixed variables fold);
//! - `solve_with_basis` (whose point must also be the lexicographically
//!   smallest optimum, against an oracle that minimises each variable in
//!   turn over the explicit rows);
//! - `RootProbe::probe` on the root tableau, with fixes in between.

use proptest::prelude::*;

use partita_ilp::simplex::{
    solve_with_basis, solve_with_bounds_scratch, ProbeOutcome, RootProbe, SimplexOptions,
    SimplexScratch,
};
use partita_ilp::{IlpError, LpSolution, Model, Relation, Sense, VarId};

/// One random model: per variable `(kind, lower, width)`, per row
/// `(coefficients, relation, rhs)`, the objective and its sense.
type Shape = (
    Vec<(u8, i32, i32)>,
    Vec<(Vec<i32>, u8, i32)>,
    Vec<i32>,
    bool,
);

/// A model and per-variable pin codes.
type Case = (Shape, Vec<u8>);

fn case_strategy() -> impl Strategy<Value = Case> {
    (2usize..=7).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec((0u8..3, -4i32..3, 1i32..7), n),
                proptest::collection::vec(
                    (proptest::collection::vec(-4i32..5, n), 0u8..3, -8i32..14),
                    1..6,
                ),
                proptest::collection::vec(-5i32..6, n),
                any::<bool>(),
            ),
            proptest::collection::vec(0u8..5, n),
        )
    })
}

/// Builds the model: kind 0 is a binary, 1 a continuous column of finite
/// width, 2 one without an upper bound. Lower bounds and coefficients are
/// halves, so lower bounds reach below zero.
fn build(shape: &Shape) -> Model {
    let (vars, rows, objective, maximize) = shape;
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
    // Even draws cost nothing, so optimal faces are often degenerate and
    // the lex tie-break has work to do.
    let cost = |k: i32| if k % 2 == 0 { 0.0 } else { f64::from(k) };
    m.set_objective(ids.iter().zip(objective).map(|(&v, &k)| (v, cost(k))));
    m
}

/// The model's own bounds.
fn bounds(model: &Model) -> (Vec<f64>, Vec<f64>) {
    (0..model.num_vars())
        .map(|i| model.var_bounds(VarId(i)).expect("var in range"))
        .unzip()
}

/// Pin codes: 0 leaves a variable free, 1 pins it to its lower bound, 2 to
/// its upper bound (or above an infinite one), 3 to an interior point, 4
/// narrows it to its lower half.
fn pinned(model: &Model, pins: &[u8]) -> (Vec<f64>, Vec<f64>) {
    let (mut lower, mut upper) = bounds(model);
    for (i, &code) in pins.iter().enumerate() {
        let (l, u) = (lower[i], upper[i]);
        let top = if u.is_finite() { u } else { l + 2.5 };
        let interior = l + (top - l) / 3.0;
        (lower[i], upper[i]) = match code {
            0 => (l, u),
            1 => (l, l),
            2 => (top, top),
            3 => (interior, interior),
            _ => (l, l + (top - l) / 2.0),
        };
    }
    (lower, upper)
}

/// The oracle: every finite upper bound becomes an explicit `x ≤ u` row on
/// a column without an upper bound, solved on a fresh scratch.
fn explicit(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    options: SimplexOptions,
) -> Result<LpSolution, IlpError> {
    let mut m = Model::new(model.sense());
    let ids: Vec<VarId> = lower
        .iter()
        .enumerate()
        .map(|(i, &l)| m.add_continuous(format!("x{i}"), l, f64::INFINITY))
        .collect();
    for c in model.constraints() {
        m.add_constraint(c.expr.iter_terms(), c.relation, c.rhs)
            .expect("finite row");
    }
    for (&v, &u) in ids.iter().zip(upper) {
        if u.is_finite() {
            m.add_constraint([(v, 1.0)], Relation::Le, u)
                .expect("finite bound row");
        }
    }
    m.set_objective(model.objective().iter_terms());
    let unbounded = vec![f64::INFINITY; lower.len()];
    solve_with_bounds_scratch(&m, lower, &unbounded, options, &mut SimplexScratch::new())
}

/// The lexicographically smallest point among the optima of objective
/// `z`, through the explicit rows: the objective is held within 1e-9
/// relative of `z` by a row, then `x_0`, `x_1`, … are minimised in turn,
/// each pinned at its minimum for the next.
fn lex_min(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    z: f64,
    options: SimplexOptions,
) -> Vec<f64> {
    let (mut lower, mut upper) = (lower.to_vec(), upper.to_vec());
    let slack = 1e-9 * 1f64.max(z.abs());
    let (relation, bound) = match model.sense() {
        Sense::Minimize => (Relation::Le, z + slack),
        Sense::Maximize => (Relation::Ge, z - slack),
    };
    for j in 0..lower.len() {
        let mut m = Model::new(Sense::Minimize);
        for (i, (&l, &u)) in lower.iter().zip(&upper).enumerate() {
            m.add_continuous(format!("x{i}"), l, u);
        }
        for c in model.constraints() {
            m.add_constraint(c.expr.iter_terms(), c.relation, c.rhs)
                .expect("finite row");
        }
        let objective = model.objective();
        m.add_constraint(
            objective.iter_terms(),
            relation,
            bound - objective.constant(),
        )
        .expect("finite objective row");
        m.set_objective([(VarId(j), 1.0)]);
        let x = explicit(&m, &lower, &upper, options)
            .expect("the optimal face is feasible and x is bounded below")
            .values[j];
        (lower[j], upper[j]) = (x, x);
    }
    lower
}

/// Same verdict; optimal objectives within 1e-9 relative; the returned
/// point inside `lower`/`upper` and the model's rows.
fn check(
    what: &str,
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    got: &Result<LpSolution, IlpError>,
    want: &Result<LpSolution, IlpError>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let scale = 1f64.max(g.objective.abs()).max(w.objective.abs());
            prop_assert!(
                (g.objective - w.objective).abs() <= 1e-9 * scale,
                "{}: objective {} against the explicit rows' {}",
                what,
                g.objective,
                w.objective
            );
            for (i, &x) in g.values.iter().enumerate() {
                prop_assert!(
                    x >= lower[i] - 1e-6 && x <= upper[i] + 1e-6,
                    "{}: x{} = {} outside [{}, {}]",
                    what,
                    i,
                    x,
                    lower[i],
                    upper[i]
                );
            }
            for (k, c) in model.constraints().iter().enumerate() {
                let lhs = c.expr.eval(&g.values);
                let ok = match c.relation {
                    Relation::Le => lhs <= c.rhs + 1e-6,
                    Relation::Ge => lhs >= c.rhs - 1e-6,
                    Relation::Eq => (lhs - c.rhs).abs() <= 1e-6,
                };
                prop_assert!(ok, "{}: row {} violated at {:?}", what, k, g.values);
            }
        }
        (Err(g), Err(w)) => prop_assert_eq!(g, w, "{}", what),
        _ => prop_assert!(
            false,
            "{}: {:?} against the explicit rows' {:?}",
            what,
            got,
            want
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn implicit_bounds_match_explicit_rows(case in case_strategy()) {
        let (shape, pins) = case;
        let model = build(&shape);
        let options = SimplexOptions::default();

        // Node LPs: pins fold, the rest keep their implicit bounds.
        let (lower, upper) = pinned(&model, &pins);
        let mut scratch = SimplexScratch::new();
        let got = solve_with_bounds_scratch(&model, &lower, &upper, options, &mut scratch);
        check("pinned", &model, &lower, &upper, &got, &explicit(&model, &lower, &upper, options))?;

        // The root path.
        let (lower, upper) = bounds(&model);
        let want = explicit(&model, &lower, &upper, options);
        let root = solve_with_basis(&model, &lower, &upper, options, &mut scratch);
        check("root", &model, &lower, &upper, &root, &want)?;
        let Ok(root) = root else {
            return Ok(());
        };
        // The root vertex is the lexicographically smallest optimal point,
        // at the lower or the upper end of each box.
        let lex = lex_min(&model, &lower, &upper, root.objective, options);
        for (i, (a, b)) in root.values.iter().zip(&lex).enumerate() {
            prop_assert!((a - b).abs() <= 1e-6, "x{}: root {}, lex minimum {}", i, a, b);
        }

        // Probes on the root tableau: every variable to a bound or an
        // interior point, with every other probe kept as a fix.
        let mut prober = RootProbe::new(&model, &lower, &upper, options, &mut scratch);
        let (mut cur_lower, mut cur_upper) = (lower.clone(), upper.clone());
        for (j, &code) in pins.iter().enumerate() {
            let (l, u) = (cur_lower[j], cur_upper[j]);
            if l >= u {
                continue;
            }
            let top = if u.is_finite() { u } else { l + 2.5 };
            let value = match code % 3 {
                0 => l,
                1 => top,
                _ => l + (top - l) / 3.0,
            };
            let got = match prober.probe(VarId(j), value, f64::INFINITY) {
                Ok(ProbeOutcome::Solved(solution)) => Ok(solution),
                Ok(cut) => panic!("a probe without a cutoff stopped: {cut:?}"),
                Err(e) => Err(e),
            };
            (cur_lower[j], cur_upper[j]) = (value, value);
            let want = explicit(&model, &cur_lower, &cur_upper, options);
            check(&format!("probe x{j} = {value}"), &model, &cur_lower, &cur_upper, &got, &want)?;
            if code >= 3 {
                // Keep the root's own value as a fix, as branch-and-bound
                // does; the root vertex stays optimal.
                let kept = root.values[j];
                prober.fix(VarId(j), kept);
                (cur_lower[j], cur_upper[j]) = (kept, kept);
            } else {
                (cur_lower[j], cur_upper[j]) = (l, u);
            }
        }
        let _ = prober.finish();
    }
}
