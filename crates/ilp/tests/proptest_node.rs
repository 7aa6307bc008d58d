//! Property test: branch-and-bound's node path reads the search's flat
//! copy of the model exactly as walking the model did.
//!
//! A node reconstructs its bounds from the base bounds and its branching
//! fixes, pins the columns of every row left without slack, and builds a
//! folded tableau. Those steps read one flat copy of the rows, right-hand
//! sides and objective, made once per search, and the pin pass sums only
//! the activity a row's relation tests. The oracle here is the code that did
//! the same by walking the model's rows (`Model::constraints`) and its
//! objective: the pin pass and the folded build with its cost row, copied
//! as they were. Over random models with `≤`/`≥`/`=` rows, zero and
//! negative coefficients, an objective constant, binary, boxed, fixed and
//! unbounded columns, both senses, and random node paths, the pinned
//! bounds, every tableau row and the dense state (right-hand side,
//! objective row, basis, boxes) must be bit-identical, and so must the
//! outcome when the build refuses (a violated constant row) or has
//! nothing to build (every column pinned).

use proptest::prelude::*;

use partita_ilp::simplex::{DenseState, TableauHandle};
use partita_ilp::{IlpError, LinExpr, Model, Relation, Sense, VarId, FEAS_TOL};

/// Coefficient palette: mostly zeros (sparse rows; `LinExpr` drops
/// them), exact halves, negatives and one non-dyadic value.
const COEFFS: [f64; 14] = [
    0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, -1.0, 2.0, -0.5, 1.5, 3.0, -3.0, 0.1,
];

/// Tolerance below which a bound pair counts as fixed (the solver's own).
const FIXED_EPS: f64 = 1e-10;

/// One random model: per variable `(kind, lower)`, per row `(coefficient
/// picks, relation, rhs)`, the objective picks, its constant and sense.
type Shape = (
    Vec<(u8, i32)>,
    Vec<(Vec<usize>, u8, i32)>,
    Vec<i32>,
    i32,
    bool,
);

/// One node: base-bound narrowings `(variable, pick)` (root fixes), then
/// the path's fixes `(variable, pick)`.
type Node = (Vec<(usize, u8)>, Vec<(usize, u8)>);

fn case_strategy() -> impl Strategy<Value = (Shape, Node)> {
    (2usize..=8).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec((0u8..4, -2i32..3), n),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0..COEFFS.len(), n),
                        0u8..3,
                        -4i32..16,
                    ),
                    1..6,
                ),
                proptest::collection::vec(-3i32..4, n),
                -4i32..5,
                any::<bool>(),
            ),
            (
                proptest::collection::vec((0..n, any::<u8>()), 0..3),
                proptest::collection::vec((0..n, any::<u8>()), 0..4),
            ),
        )
    })
}

/// Kind 0 is a binary, 1 a continuous column of width 2.5, 2 one fixed
/// at its lower bound, 3 one without an upper bound.
fn build(shape: &Shape) -> Model {
    let (vars, rows, objective, constant, maximize) = shape;
    let mut m = Model::new(if *maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let ids: Vec<VarId> = vars
        .iter()
        .enumerate()
        .map(|(i, &(kind, lo))| {
            let lo = f64::from(lo) / 2.0;
            match kind {
                0 => m.add_binary(format!("b{i}")),
                1 => m.add_continuous(format!("c{i}"), lo, lo + 2.5),
                2 => m.add_continuous(format!("f{i}"), lo, lo),
                _ => m.add_continuous(format!("u{i}"), lo, f64::INFINITY),
            }
        })
        .collect();
    // Right-hand sides mostly leave room: high for `≤`, low for `≥`.
    for (picks, rel, rhs) in rows {
        let (relation, rhs) = match rel {
            0 => (Relation::Le, f64::from(*rhs) / 2.0),
            1 => (Relation::Ge, -f64::from(*rhs) / 2.0),
            _ => (Relation::Eq, f64::from(*rhs) / 4.0),
        };
        let terms = ids.iter().zip(picks).map(|(&v, &p)| (v, COEFFS[p]));
        m.add_constraint(terms, relation, rhs).expect("finite row");
    }
    let mut expr = LinExpr::new();
    for (&v, &k) in ids.iter().zip(objective) {
        expr.add_term(v, f64::from(k) / 2.0);
    }
    expr.add_constant(f64::from(*constant) / 4.0);
    m.set_objective_expr(expr);
    m
}

/// Narrows a box `[lo, hi]` as `pick` says, staying inside it: a point
/// at either end or the middle, a sub-box, or the box itself.
fn narrow(lo: f64, hi: f64, pick: u8) -> (f64, f64) {
    let top = if hi.is_finite() { hi } else { lo + 4.0 };
    let mid = ((lo + top) / 2.0).floor().clamp(lo, top);
    match pick % 6 {
        0 => (lo, lo),
        1 => (top, top),
        2 => (mid, mid),
        3 => (lo, mid),
        4 => (mid, hi),
        _ => (lo, hi),
    }
}

/// A branching fix: `(variable, lower, upper)`.
type Fix = (usize, f64, f64);

/// The base bounds (the model's, narrowed by the root fixes) and the path
/// of fixes, each inside the box the fixes before it left.
fn node(model: &Model, (roots, fixes): &Node) -> (Vec<f64>, Vec<f64>, Vec<Fix>) {
    let (mut lower, mut upper): (Vec<f64>, Vec<f64>) = (0..model.num_vars())
        .map(|i| model.var_bounds(VarId(i)).expect("var in range"))
        .unzip();
    for &(j, pick) in roots {
        (lower[j], upper[j]) = narrow(lower[j], upper[j], pick);
    }
    let (mut lo, mut hi) = (lower.clone(), upper.clone());
    let path = fixes
        .iter()
        .map(|&(j, pick)| {
            (lo[j], hi[j]) = narrow(lo[j], hi[j], pick);
            (j, lo[j], hi[j])
        })
        .collect();
    (lower, upper, path)
}

/// The model-walk pin pass: every row whose extreme activity meets its
/// right-hand side pins its columns, in row order.
fn reference_pin(model: &Model, lower: &mut [f64], upper: &mut [f64]) {
    for row in model.constraints() {
        let terms = || row.expr.iter_terms().filter(|&(_, a)| a != 0.0);
        let (mut least, mut most) = (0.0, 0.0);
        for (v, a) in terms() {
            let (l, u) = (a * lower[v.index()], a * upper[v.index()]);
            least += l.min(u);
            most += l.max(u);
        }
        let low = match row.relation {
            Relation::Le | Relation::Eq if least >= row.rhs => true,
            Relation::Ge | Relation::Eq if most <= row.rhs => false,
            _ => continue,
        };
        for (v, a) in terms() {
            let j = v.index();
            if (a > 0.0) == low {
                upper[j] = lower[j];
            } else {
                lower[j] = upper[j];
            }
        }
    }
}

/// The folded tableau the model-walk build left, with its cost row.
struct Built {
    rows: Vec<Vec<(usize, f64)>>,
    dense: DenseState,
}

/// The model-walk folded build: check the bounds, fold every fixed
/// variable into the right-hand sides, drop and check the rows left
/// constant, normalise `b ≥ 0`, add the slacks, start each row on its
/// slack or an artificial, then install the sense-normalised cost row.
/// `Ok(None)` when every variable is fixed.
fn reference_fold(model: &Model, lower: &[f64], upper: &[f64]) -> Result<Option<Built>, IlpError> {
    for (&l, &u) in lower.iter().zip(upper) {
        if l.is_nan() || u.is_nan() {
            return Err(IlpError::NonFiniteCoefficient {
                context: "bound override",
                value: if l.is_nan() { l } else { u },
            });
        }
        if l > u + FIXED_EPS {
            return Err(IlpError::Infeasible);
        }
    }
    let nvars = model.num_vars();
    let fixed_at = |i: usize| upper[i] - lower[i] <= FIXED_EPS;
    let fixed = (0..nvars).filter(|&i| fixed_at(i)).count();
    if fixed == nvars && nvars > 0 {
        return Ok(None);
    }
    let fold = fixed > 0;
    let mut var_col = Vec::new();
    let mut width = Vec::new();
    for i in 0..nvars {
        if fold && fixed_at(i) {
            var_col.push(usize::MAX);
        } else {
            var_col.push(width.len());
            let w = upper[i] - lower[i];
            width.push(if w.is_finite() {
                w.max(0.0)
            } else {
                f64::INFINITY
            });
        }
    }
    let n = width.len();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    let (mut rhs, mut basis) = (Vec::new(), Vec::new());
    for c in model.constraints() {
        let mut cells = Vec::new();
        let (mut shift_fixed, mut shift_free) = (0.0, 0.0);
        for (v, k) in c.expr.iter_terms() {
            let i = v.index();
            if var_col[i] == usize::MAX {
                shift_fixed += k * lower[i];
            } else {
                shift_free += k * lower[i];
                cells.push((var_col[i], k));
            }
        }
        let folded_rhs = c.rhs - c.expr.constant() - shift_fixed;
        if fold && cells.is_empty() {
            let holds = match c.relation {
                Relation::Le => 0.0 <= folded_rhs + FEAS_TOL,
                Relation::Ge => 0.0 >= folded_rhs - FEAS_TOL,
                Relation::Eq => folded_rhs.abs() <= FEAS_TOL,
            };
            if !holds {
                return Err(IlpError::Infeasible);
            }
            continue;
        }
        let raw = folded_rhs - shift_free;
        let negated = raw < 0.0;
        if negated {
            for (_, v) in &mut cells {
                *v = -*v;
            }
        }
        let sign = if negated { -1.0 } else { 1.0 };
        let slack = n + rows.len();
        match c.relation {
            Relation::Le => cells.push((slack, sign)),
            Relation::Ge => cells.push((slack, -sign)),
            Relation::Eq => {}
        }
        let artificial = match c.relation {
            Relation::Le => negated,
            Relation::Ge => !negated,
            Relation::Eq => true,
        };
        rhs.push(if negated { -raw } else { raw });
        basis.push(if artificial { usize::MAX } else { slack });
        rows.push(cells);
    }
    let art0 = n + rows.len();
    let mut next = art0;
    for b in &mut basis {
        if *b == usize::MAX {
            *b = next;
            next += 1;
        }
    }
    width.resize(art0, f64::INFINITY);
    let minimize = model.sense() == Sense::Minimize;
    let mut obj = vec![0.0; art0];
    for (v, c) in model.objective().iter_terms() {
        let col = var_col[v.index()];
        if col != usize::MAX {
            obj[col] = if minimize { c } else { -c };
        }
    }
    // A fresh basis holds slacks (cost 0) and artificials (no cost), so
    // pricing it out changes nothing.
    Ok(Some(Built {
        rows,
        dense: DenseState {
            rhs,
            obj,
            obj_rhs: 0.0,
            basis,
            width,
            lo: vec![0.0; n],
            flipped: vec![false; art0],
        },
    }))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn row_bits(cells: &[(usize, f64)]) -> Vec<(usize, u64)> {
    cells.iter().map(|&(c, v)| (c, v.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn node_path_matches_the_model_walk((shape, picks) in case_strategy()) {
        let model = build(&shape);
        let (base_lower, base_upper, path) = node(&model, &picks);
        let (lower, upper, built) = TableauHandle::node(&model, &base_lower, &base_upper, &path);

        let (mut want_lower, mut want_upper) = (base_lower.clone(), base_upper.clone());
        for &(j, l, u) in &path {
            (want_lower[j], want_upper[j]) = (l, u);
        }
        reference_pin(&model, &mut want_lower, &mut want_upper);
        prop_assert_eq!(bits(&lower), bits(&want_lower), "pinned lower bounds");
        prop_assert_eq!(bits(&upper), bits(&want_upper), "pinned upper bounds");

        match (built, reference_fold(&model, &want_lower, &want_upper)) {
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (Ok(None), Ok(None)) => {}
            (Ok(Some(mut t)), Ok(Some(want))) => {
                let (_, m, _) = t.shape();
                prop_assert_eq!(m, want.rows.len(), "row count");
                for (r, cells) in want.rows.iter().enumerate() {
                    prop_assert_eq!(row_bits(&t.row(r)), row_bits(cells), "row {}", r);
                }
                let (got, want) = (t.dense(), want.dense);
                prop_assert_eq!(bits(&got.rhs), bits(&want.rhs), "rhs");
                prop_assert_eq!(bits(&got.obj), bits(&want.obj), "objective row");
                prop_assert_eq!(got.obj_rhs.to_bits(), want.obj_rhs.to_bits(), "objective rhs");
                prop_assert_eq!(&got.basis, &want.basis, "basis");
                prop_assert_eq!(bits(&got.width), bits(&want.width), "widths");
                prop_assert_eq!(bits(&got.lo), bits(&want.lo), "box lower ends");
                prop_assert_eq!(&got.flipped, &want.flipped, "complemented columns");
            }
            (got, want) => prop_assert!(
                false,
                "outcomes differ: {:?} against {:?}",
                got.map(|t| t.is_some()),
                want.map(|t| t.is_some())
            ),
        }
    }
}
