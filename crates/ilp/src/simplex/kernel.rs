//! Identity tests of the simplex kernel: pricing, pivoting and probe undo
//! against reference copies of the ordered scan and the merge elimination
//! they replaced. Every comparison is bitwise: the kernel promises the same
//! entering column, the same cells in the same order and the same column
//! lists, not merely close values.

use proptest::prelude::*;

use super::{price, Tableau, EPS};
use crate::IlpError;

/// The ordered entering-column scan over the explicit-row numbering: the
/// uncomplemented columns in index order, then the complemented ones (their
/// bound-row slacks); first negative (Bland), most negative with ties to
/// the first scanned (Dantzig), an error on any NaN.
fn price_scan(obj: &[f64], flipped: &[bool], bland: bool) -> Result<Option<usize>, IlpError> {
    let mut first_neg: Option<usize> = None;
    let mut most_neg: Option<usize> = None;
    let mut best = -EPS;
    let order = (0..obj.len())
        .filter(|&j| !flipped[j])
        .chain((0..obj.len()).filter(|&j| flipped[j]));
    for j in order {
        let c = obj[j];
        if c.is_nan() {
            return Err(IlpError::NumericalInstability {
                context: "entering-column selection",
            });
        }
        if c < -EPS && first_neg.is_none() {
            first_neg = Some(j);
        }
        if c < best {
            best = c;
            most_neg = Some(j);
        }
    }
    Ok(if bland { first_neg } else { most_neg })
}

/// Cost values with exact ties, both zeros, the `±EPS` edges, infinities
/// and NaN, drawn by index.
const COSTS: [f64; 14] = [
    -1.0,
    -1.0,
    -2.5,
    -2.5,
    3.0,
    0.0,
    -0.0,
    EPS,
    -EPS,
    -EPS * 1.5,
    f64::NEG_INFINITY,
    f64::INFINITY,
    -7.0,
    f64::NAN,
];

fn cost_row() -> impl Strategy<Value = Vec<f64>> {
    // NaN is the last palette entry: draw it rarely enough that most rows
    // reach the ordered part of the comparison.
    proptest::collection::vec((0usize..60, -40i32..40), 0..40).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(pick, k)| {
                if pick < COSTS.len() - 1 {
                    COSTS[pick]
                } else if pick == 59 {
                    f64::NAN
                } else {
                    f64::from(k) / 8.0
                }
            })
            .collect()
    })
}

/// The tableau state a pivot touches, with a reference pivot that runs the
/// per-row merge elimination.
struct Reference {
    rows: Vec<Vec<(usize, f64)>>,
    cols: Vec<Vec<usize>>,
    rhs: Vec<f64>,
    obj: Vec<f64>,
    obj_rhs: f64,
    basis: Vec<usize>,
}

impl Reference {
    fn at(&self, r: usize, c: usize) -> f64 {
        let row = &self.rows[r];
        match row.binary_search_by_key(&c, |&(j, _)| j) {
            Ok(i) => row[i].1,
            Err(_) => 0.0,
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let inv = 1.0 / self.at(row, col);
        let mut prow = std::mem::take(&mut self.rows[row]);
        for (_, v) in &mut prow {
            *v *= inv;
        }
        self.rhs[row] *= inv;
        let prhs = self.rhs[row];
        let touched = std::mem::take(&mut self.cols[col]);
        for &r in &touched {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor != 0.0 {
                merge_eliminate(&mut self.rows[r], r, &prow, factor, &mut self.cols);
                self.rhs[r] -= factor * prhs;
            }
        }
        let factor = self.obj[col];
        if factor != 0.0 {
            for &(c, pv) in &prow {
                self.obj[c] -= factor * pv;
            }
            self.obj_rhs -= factor * prhs;
        }
        self.cols[col] = touched;
        self.rows[row] = prow;
        self.basis[row] = col;
    }
}

/// `row -= factor · prow` by walking both sorted rows: shared cells are
/// updated in place, then the fill-in cells are merged in from the back.
fn merge_eliminate(
    row: &mut Vec<(usize, f64)>,
    r: usize,
    prow: &[(usize, f64)],
    factor: f64,
    cols: &mut [Vec<usize>],
) {
    let mut fill = 0;
    let mut i = 0;
    for &(c, pv) in prow {
        while i < row.len() && row[i].0 < c {
            i += 1;
        }
        if i < row.len() && row[i].0 == c {
            row[i].1 -= factor * pv;
            i += 1;
        } else {
            fill += 1;
        }
    }
    if fill == 0 {
        return;
    }
    let mut i = row.len();
    row.resize(i + fill, (0, 0.0));
    let mut k = row.len();
    for &(c, pv) in prow.iter().rev() {
        while i > 0 && row[i - 1].0 > c {
            i -= 1;
            k -= 1;
            row[k] = row[i];
        }
        k -= 1;
        if i > 0 && row[i - 1].0 == c {
            i -= 1;
            row[k] = row[i];
        } else {
            row[k] = (c, 0.0 - factor * pv);
            cols[c].push(r);
        }
    }
}

/// Cell values by index: exact ties, both zeros (a stored zero is a
/// cancelled cell) and a few exact fractions.
const CELLS: [f64; 8] = [1.0, -1.0, 2.0, -0.5, 0.0, -0.0, 3.0, 0.25];

/// Random sparse rows over `cols` columns: per row a list of `(column,
/// value index)` draws, deduplicated and sorted at build.
type Draw = (usize, Vec<Vec<(usize, usize)>>, Vec<(usize, usize)>);

fn draw() -> impl Strategy<Value = Draw> {
    (2usize..24).prop_flat_map(|cols| {
        (
            Just(cols),
            proptest::collection::vec(
                proptest::collection::vec((0..cols, 0..CELLS.len() + 6), 0..8),
                2..12,
            ),
            // Pivot picks: (row, stored-cell index), both reduced modulo
            // what exists at pivot time.
            proptest::collection::vec((0usize..64, 0usize..64), 1..10),
        )
    })
}

/// The kernel tableau and its reference copy for one draw. Value indices
/// past `CELLS` draw `k / 4` for a nonzero `k`.
fn tableaus(cols: usize, rows: &[Vec<(usize, usize)>]) -> (Tableau, Reference) {
    let mut t = Tableau::default();
    let sparse: Vec<Vec<(usize, f64)>> = rows
        .iter()
        .map(|draws| {
            let mut row: Vec<(usize, f64)> = draws
                .iter()
                .map(|&(c, k)| {
                    let v = CELLS.get(k).copied().unwrap_or(k as f64 / 4.0);
                    (c, v)
                })
                .collect();
            row.sort_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            row
        })
        .collect();
    let m = sparse.len();
    t.n = cols;
    t.m = m;
    t.art0 = cols;
    let mut col_lists = vec![Vec::new(); cols];
    for (r, row) in sparse.iter().enumerate() {
        for &(c, _) in row {
            col_lists[c].push(r);
        }
    }
    t.rows = sparse;
    t.cols = col_lists;
    t.rhs = (0..m).map(|r| r as f64 + 0.5).collect();
    t.obj = (0..cols).map(|c| CELLS[c % CELLS.len()]).collect();
    t.obj_rhs = 0.0;
    t.basis = vec![usize::MAX; m];
    t.width = (0..cols).map(|c| 1.0 + c as f64 / 4.0).collect();
    t.lo = vec![0.0; cols];
    t.flipped = vec![false; cols];
    t.scatter.pos = vec![0; cols];
    t.scatter.hit = vec![0; cols];
    let reference = Reference {
        rows: t.rows.clone(),
        cols: t.cols.clone(),
        rhs: t.rhs.clone(),
        obj: t.obj.clone(),
        obj_rhs: t.obj_rhs,
        basis: t.basis.clone(),
    };
    (t, reference)
}

/// A pivot the kernel accepts: row `r`'s `i`-th stored cell with a usable
/// magnitude, both reduced modulo what exists.
fn pick(t: &Tableau, (r, i): (usize, usize)) -> Option<(usize, usize)> {
    let r = r % t.m;
    let usable: Vec<usize> = t.rows[r]
        .iter()
        .filter(|&&(_, v)| v.abs() > 1e-9)
        .map(|&(c, _)| c)
        .collect();
    (!usable.is_empty()).then(|| (r, usable[i % usable.len()]))
}

type Bits = (Vec<Vec<(usize, u64)>>, Vec<Vec<usize>>, Vec<u64>, Vec<u64>);

fn bits(
    rows: &[Vec<(usize, f64)>],
    cols: &[Vec<usize>],
    rhs: &[f64],
    obj: &[f64],
    obj_rhs: f64,
) -> Bits {
    (
        rows.iter()
            .map(|row| row.iter().map(|&(c, v)| (c, v.to_bits())).collect())
            .collect(),
        cols.to_vec(),
        rhs.iter().chain([&obj_rhs]).map(|v| v.to_bits()).collect(),
        obj.iter().map(|v| v.to_bits()).collect(),
    )
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn kernel_bits(t: &Tableau) -> Bits {
    bits(&t.rows[..t.m], &t.cols[..t.art0], &t.rhs, &t.obj, t.obj_rhs)
}

fn reference_bits(t: &Reference) -> Bits {
    bits(&t.rows, &t.cols, &t.rhs, &t.obj, t.obj_rhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The two-pass pricing picks the ordered scan's column in both modes,
    /// including on exact ties, `±0.0`, costs at `±EPS`, infinities, NaN
    /// and complemented columns.
    #[test]
    fn price_matches_the_ordered_scan(obj in cost_row(), flips in proptest::collection::vec(0u8..4, 40)) {
        let flipped: Vec<bool> = flips[..obj.len()].iter().map(|&f| f == 0).collect();
        for bland in [false, true] {
            prop_assert_eq!(
                price(&obj, &flipped, bland),
                price_scan(&obj, &flipped, bland),
                "bland {}", bland
            );
        }
    }

    /// Scatter elimination leaves every cell bitwise equal to the merge
    /// elimination, in the same order, with the same column lists, pivot
    /// after pivot; the dense column map is all zero between pivots.
    #[test]
    fn pivot_matches_the_merge_elimination((cols, rows, picks) in draw()) {
        let (mut t, mut reference) = tableaus(cols, &rows);
        for p in picks {
            let Some((r, c)) = pick(&t, p) else { continue };
            t.pivot(r, c);
            reference.pivot(r, c);
            prop_assert_eq!(kernel_bits(&t), reference_bits(&reference));
            prop_assert_eq!(&t.basis, &reference.basis);
            prop_assert!(t.scatter.pos.iter().all(|&p| p == 0));
        }
    }

    /// A probe's pivots, with flips, complemented rows and box moves
    /// between them, undone by popping one column-list entry per fill-in
    /// cell, leave every row, list (order included), dense vector and
    /// column box exactly as before.
    #[test]
    fn probe_undo_restores_the_tableau((cols, rows, picks) in draw()) {
        let (mut t, _) = tableaus(cols, &rows);
        let before = kernel_bits(&t);
        let boxes = |t: &Tableau| (t.basis.clone(), t.flipped.clone(), bits_of(&t.width), bits_of(&t.lo));
        let boxes_before = boxes(&t);
        t.begin_probe();
        for (k, p) in picks.into_iter().enumerate() {
            let Some((r, c)) = pick(&t, p) else { continue };
            t.pivot(r, c);
            match k % 3 {
                1 => t.flip(c),
                2 => {
                    t.set_box(c, 0.5, 0.5);
                    t.complement_row(r);
                }
                _ => {}
            }
        }
        t.undo_probe();
        prop_assert_eq!(kernel_bits(&t), before);
        prop_assert_eq!(boxes(&t), boxes_before);
    }
}
