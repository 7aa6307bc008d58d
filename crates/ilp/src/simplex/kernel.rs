//! Identity test of the simplex kernel's pricing against a reference copy
//! of the ordered scan it replaced: the same entering column, not merely
//! an equally good one. The lazy rows' identity test against eager
//! elimination is `crates/ilp/tests/proptest_lazy.rs`.

use proptest::prelude::*;

use super::{price, EPS};
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
}
