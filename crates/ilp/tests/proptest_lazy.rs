//! Property test: the lazy tableau rows read exactly what eager
//! elimination would have left in them.
//!
//! The simplex keeps its constraint rows as of their last build or flush
//! and logs every pivot, flip and row complement since; a row is replayed
//! through the log only when it is read, and a column is replayed on its
//! own. The oracle here is the elimination that replaces: a dense tableau
//! that applies every operation to every row at once. Over random sparse
//! models with `≤`/`≥`/`=` rows, binary, boxed and unbounded columns and
//! degenerate costs, a random sequence of pivots, flips, row complements
//! and box moves runs on both, with root probes opened and undone between
//! them. After each operation a random subset of rows and columns is read
//! (so rows stay at different points of the log) and must equal the
//! reference, with `±0` counted equal; the dense right-hand side,
//! objective, basis and boxes must too. A probe must leave every row and
//! every dense value bit for bit as it found them. Tiny models have few
//! cells, so logs outgrow them and flush, and a probe opens on a flush.

use proptest::prelude::*;

use partita_ilp::simplex::{DenseState, TableauHandle};
use partita_ilp::{Model, Relation, Sense, VarId};

/// Coefficient palette: mostly zeros (sparse rows), exact halves and one
/// value that pivots to a non-dyadic fraction.
const COEFFS: [f64; 10] = [0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -0.5, 1.5, 3.0, -3.0];

/// One random model: per variable `(kind, lower)`, per row `(coefficient
/// picks, relation, rhs)`, the objective picks and its sense.
type Shape = (Vec<(u8, i32)>, Vec<(Vec<usize>, u8, i32)>, Vec<i32>, bool);

/// One operation: `(kind, a, b, rows read, columns read)`.
type Op = (u8, usize, usize, u64, u64);

fn case_strategy() -> impl Strategy<Value = (Shape, Vec<Op>)> {
    (2usize..=6).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec((0u8..3, -2i32..2), n),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0..COEFFS.len(), n),
                        0u8..3,
                        -6i32..10,
                    ),
                    1..5,
                ),
                proptest::collection::vec(-3i32..4, n),
                any::<bool>(),
            ),
            proptest::collection::vec(
                (0u8..6, 0usize..64, 0usize..64, any::<u64>(), any::<u64>()),
                1..40,
            ),
        )
    })
}

/// Kind 0 is a binary, 1 a continuous column of width 2.5, 2 one without
/// an upper bound. Even objective draws cost nothing (degenerate costs).
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
        .map(|(i, &(kind, lo))| {
            let lo = f64::from(lo) / 2.0;
            match kind {
                0 => m.add_binary(format!("b{i}")),
                1 => m.add_continuous(format!("c{i}"), lo, lo + 2.5),
                _ => m.add_continuous(format!("u{i}"), lo, f64::INFINITY),
            }
        })
        .collect();
    for (picks, rel, rhs) in rows {
        let relation = match rel {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let terms: Vec<(VarId, f64)> = ids
            .iter()
            .zip(picks)
            .filter(|&(_, &p)| COEFFS[p] != 0.0)
            .map(|(&v, &p)| (v, COEFFS[p]))
            .collect();
        m.add_constraint(terms, relation, f64::from(*rhs) / 2.0)
            .expect("finite row");
    }
    let cost = |k: i32| if k % 2 == 0 { 0.0 } else { f64::from(k) };
    m.set_objective(ids.iter().zip(objective).map(|(&v, &k)| (v, cost(k))));
    m
}

/// Equal values, `±0` alike.
fn same(x: f64, y: f64) -> bool {
    x == y || (x.is_nan() && y.is_nan())
}

/// The eager reference: a dense tableau every operation updates in full,
/// cell by cell in the arithmetic the lazy rows promise.
#[derive(Clone)]
struct Eager {
    a: Vec<Vec<f64>>,
    d: DenseState,
}

impl Eager {
    fn pivot(&mut self, row: usize, col: usize) {
        let inv = 1.0 / self.a[row][col];
        for v in &mut self.a[row] {
            *v *= inv;
        }
        self.d.rhs[row] *= inv;
        let prhs = self.d.rhs[row];
        let prow = self.a[row].clone();
        for (r, cells) in self.a.iter_mut().enumerate() {
            let factor = cells[col];
            if r != row && factor != 0.0 {
                for (v, &pv) in cells.iter_mut().zip(&prow) {
                    *v -= factor * pv;
                }
                self.d.rhs[r] -= factor * prhs;
            }
        }
        let factor = self.d.obj[col];
        if factor != 0.0 {
            for (v, &pv) in self.d.obj.iter_mut().zip(&prow) {
                *v -= factor * pv;
            }
            self.d.obj_rhs -= factor * prhs;
        }
        self.d.basis[row] = col;
    }

    fn flip(&mut self, c: usize) {
        let w = self.d.width[c];
        for (cells, rhs) in self.a.iter_mut().zip(&mut self.d.rhs) {
            *rhs -= cells[c] * w;
            cells[c] = -cells[c];
        }
        self.d.obj_rhs -= self.d.obj[c] * w;
        self.d.obj[c] = -self.d.obj[c];
        self.d.flipped[c] = !self.d.flipped[c];
    }

    fn complement_row(&mut self, r: usize) {
        self.flip(self.d.basis[r]);
        for v in &mut self.a[r] {
            *v = -*v;
        }
        self.d.rhs[r] = -self.d.rhs[r];
    }

    fn set_box(&mut self, j: usize, a: f64, b: f64) {
        let d = &mut self.d;
        let delta = if d.flipped[j] {
            (d.lo[j] + d.width[j]) - b
        } else {
            a - d.lo[j]
        };
        if delta != 0.0 {
            for (cells, rhs) in self.a.iter().zip(&mut d.rhs) {
                *rhs -= cells[j] * delta;
            }
            d.obj_rhs -= d.obj[j] * delta;
        }
        d.lo[j] = a;
        d.width[j] = b - a;
    }
}

/// Row `r` of the lazy tableau, spread over `cols` columns; fails unless
/// its cells are sorted by column without repeats.
fn dense_row(t: &mut TableauHandle, r: usize, cols: usize) -> Result<Vec<f64>, TestCaseError> {
    let cells = t.row(r);
    prop_assert!(
        cells.windows(2).all(|w| w[0].0 < w[1].0),
        "row {} unsorted: {:?}",
        r,
        cells
    );
    let mut out = vec![0.0; cols];
    for (c, v) in cells {
        out[c] = v;
    }
    Ok(out)
}

fn check_dense(got: &DenseState, want: &DenseState) -> Result<(), TestCaseError> {
    let all_same =
        |x: &[f64], y: &[f64]| x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| same(p, q));
    prop_assert!(
        all_same(&got.rhs, &want.rhs),
        "rhs {:?} against {:?}",
        got.rhs,
        want.rhs
    );
    prop_assert!(
        all_same(&got.obj, &want.obj),
        "obj {:?} against {:?}",
        got.obj,
        want.obj
    );
    prop_assert!(
        same(got.obj_rhs, want.obj_rhs),
        "obj_rhs {} against {}",
        got.obj_rhs,
        want.obj_rhs
    );
    prop_assert_eq!(&got.basis, &want.basis);
    prop_assert!(
        all_same(&got.width, &want.width),
        "width {:?} against {:?}",
        got.width,
        want.width
    );
    prop_assert!(
        all_same(&got.lo, &want.lo),
        "lo {:?} against {:?}",
        got.lo,
        want.lo
    );
    prop_assert_eq!(&got.flipped, &want.flipped);
    Ok(())
}

/// Every row's cells and every dense value, as bits.
type Bits = (Vec<Vec<(usize, u64)>>, Vec<u64>, Vec<usize>, Vec<bool>);

fn bits(t: &mut TableauHandle) -> Bits {
    let (_, m, _) = t.shape();
    let rows = (0..m)
        .map(|r| {
            t.row(r)
                .into_iter()
                .map(|(c, v)| (c, v.to_bits()))
                .collect()
        })
        .collect();
    let d = t.dense();
    let values = d
        .rhs
        .iter()
        .chain(&d.obj)
        .chain([&d.obj_rhs])
        .chain(&d.width)
        .chain(&d.lo)
        .map(|v| v.to_bits())
        .collect();
    (rows, values, d.basis, d.flipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn lazy_rows_match_eager_elimination((shape, ops) in case_strategy()) {
        let model = build(&shape);
        let (lower, upper): (Vec<f64>, Vec<f64>) = (0..model.num_vars())
            .map(|i| model.var_bounds(VarId(i)).expect("var in range"))
            .unzip();
        let mut t = TableauHandle::build(&model, &lower, &upper).expect("unfolded builds never fail");
        let (n, m, cols) = t.shape();
        let mut eager = Eager {
            a: (0..m).map(|r| dense_row(&mut t, r, cols)).collect::<Result<_, _>>()?,
            d: t.dense(),
        };
        // The reference and the lazy tableau's bits where the open probe began.
        let mut probe: Option<(Eager, Bits)> = None;
        for (step, &(kind, a, b, read_rows, read_cols)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    let row = a % m;
                    let usable: Vec<usize> = (0..cols).filter(|&c| eager.a[row][c].abs() >= 0.25).collect();
                    if usable.is_empty() {
                        continue;
                    }
                    let col = usable[b % usable.len()];
                    t.pivot(row, col);
                    eager.pivot(row, col);
                }
                2 => {
                    let boxed: Vec<usize> = (0..cols).filter(|&c| eager.d.width[c].is_finite()).collect();
                    if boxed.is_empty() {
                        continue;
                    }
                    let c = boxed[a % boxed.len()];
                    t.flip(c);
                    eager.flip(c);
                }
                3 => {
                    let rows: Vec<usize> = (0..m)
                        .filter(|&r| eager.d.basis[r] < cols && eager.d.width[eager.d.basis[r]].is_finite())
                        .collect();
                    if rows.is_empty() {
                        continue;
                    }
                    let r = rows[a % rows.len()];
                    t.complement_row(r);
                    eager.complement_row(r);
                }
                4 => {
                    let j = a % n;
                    let lo = [0.0, 0.5, 1.0, -0.5][b % 4];
                    let hi = if (b / 4) % 2 == 0 { lo } else { lo + 1.0 };
                    t.set_box(j, lo, hi);
                    eager.set_box(j, lo, hi);
                }
                _ => match probe.take() {
                    None => {
                        t.begin_probe();
                        probe = Some((eager.clone(), bits(&mut t)));
                    }
                    Some((before, before_bits)) => {
                        t.undo_probe();
                        prop_assert_eq!(bits(&mut t), before_bits, "step {}: probe undo", step);
                        eager = before;
                    }
                },
            }
            check_dense(&t.dense(), &eager.d)?;
            for r in (0..m).filter(|&r| read_rows >> (r % 64) & 1 == 1) {
                let got = dense_row(&mut t, r, cols)?;
                prop_assert!(
                    got.iter().zip(&eager.a[r]).all(|(&x, &y)| same(x, y)),
                    "step {}: row {} reads {:?}, eager {:?}", step, r, got, eager.a[r]
                );
            }
            for c in (0..cols).filter(|&c| read_cols >> (c % 64) & 1 == 1) {
                let got = t.column(c);
                let want: Vec<f64> = eager.a.iter().map(|cells| cells[c]).collect();
                prop_assert!(
                    got.iter().zip(&want).all(|(&x, &y)| same(x, y)),
                    "step {}: column {} reads {:?}, eager {:?}", step, c, got, want
                );
            }
        }
        if let Some((before, before_bits)) = probe.take() {
            t.undo_probe();
            prop_assert_eq!(bits(&mut t), before_bits, "final probe undo");
            eager = before;
        }
        check_dense(&t.dense(), &eager.d)?;
        for c in 0..cols {
            let got = t.column(c);
            let want: Vec<f64> = eager.a.iter().map(|cells| cells[c]).collect();
            prop_assert!(got.iter().zip(&want).all(|(&x, &y)| same(x, y)), "column {}: {:?} against {:?}", c, got, want);
        }
        for r in 0..m {
            let got = dense_row(&mut t, r, cols)?;
            prop_assert!(got.iter().zip(&eager.a[r]).all(|(&x, &y)| same(x, y)), "row {}: {:?} against {:?}", r, got, eager.a[r]);
        }
    }
}
