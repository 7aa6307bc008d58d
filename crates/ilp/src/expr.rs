//! Linear expressions over model variables.

use std::fmt;

use crate::VarId;

/// A linear expression `Σ cᵢ·xᵢ + k`.
///
/// Terms on the same variable are merged; zero coefficients are dropped.
///
/// The terms are one `(variable, coefficient)` vector sorted by variable:
/// building a model adds terms mostly in variable order, which appends,
/// [`LinExpr::coeff`] is a binary search, and every iteration, [`eval`]
/// and fold over the terms runs down one contiguous slice in variable
/// order.
///
/// [`eval`]: LinExpr::eval
///
/// # Example
///
/// ```
/// use partita_ilp::{LinExpr, VarId};
/// let x = VarId(0);
/// let y = VarId(1);
/// let mut e = LinExpr::new();
/// e.add_term(x, 2.0);
/// e.add_term(y, -1.0);
/// e.add_term(x, 3.0);
/// assert_eq!(e.coeff(x), 5.0);
/// assert_eq!(e.terms().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// Sorted by variable, one term per variable, every coefficient at
    /// least `1e-300` in magnitude (or NaN).
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (`0`).
    #[must_use]
    pub fn new() -> LinExpr {
        LinExpr::default()
    }

    /// Adds `coeff · var`, merging with any existing term on `var`.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        // Terms mostly arrive in variable order: append without a search.
        let at = match self.terms.last() {
            Some(&(last, _)) if last >= var => self.terms.binary_search_by_key(&var, |&(v, _)| v),
            _ => Err(self.terms.len()),
        };
        match at {
            Ok(i) => {
                let c = &mut self.terms[i].1;
                *c += coeff;
                if c.abs() < 1e-300 {
                    self.terms.remove(i);
                }
            }
            Err(i) => {
                if coeff.abs() < 1e-300 {
                    return self;
                }
                self.terms.insert(i, (var, coeff));
            }
        }
        self
    }

    /// Adds a constant offset.
    pub fn add_constant(&mut self, k: f64) -> &mut Self {
        self.constant += k;
        self
    }

    /// The coefficient of `var` (0 when absent).
    #[must_use]
    pub fn coeff(&self, var: VarId) -> f64 {
        match self.terms.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => self.terms[i].1,
            Err(_) => 0.0,
        }
    }

    /// The constant offset.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// All `(variable, coefficient)` pairs in variable order.
    #[must_use]
    pub fn terms(&self) -> Vec<(VarId, f64)> {
        self.iter_terms().collect()
    }

    /// The `(variable, coefficient)` pairs in variable order, borrowed:
    /// the allocation-free form of [`LinExpr::terms`].
    pub fn iter_terms(&self) -> impl ExactSizeIterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Evaluates the expression for an assignment indexed by variable.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0))
                .sum::<f64>()
    }

    /// `true` if every coefficient and the constant are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.iter().all(|(_, c)| c.is_finite())
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> LinExpr {
        let mut e = LinExpr::new();
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }
}

impl Extend<(VarId, f64)> for LinExpr {
    fn extend<I: IntoIterator<Item = (VarId, f64)>>(&mut self, iter: I) {
        for (v, c) in iter {
            self.add_term(v, c);
        }
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                write!(f, "{c}·{v}")?;
                first = false;
            } else if c < 0.0 {
                write!(f, " - {}·{v}", -c)?;
            } else {
                write!(f, " + {c}·{v}")?;
            }
        }
        if self.constant != 0.0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The map-backed expression the sorted vector replaced: merge on the
    /// same variable, drop below `1e-300`.
    #[derive(Default)]
    struct MapExpr {
        terms: BTreeMap<VarId, f64>,
        constant: f64,
    }

    impl MapExpr {
        fn add_term(&mut self, var: VarId, coeff: f64) {
            let c = self.terms.entry(var).or_insert(0.0);
            *c += coeff;
            if c.abs() < 1e-300 {
                self.terms.remove(&var);
            }
        }

        fn eval(&self, values: &[f64]) -> f64 {
            self.constant
                + self
                    .terms
                    .iter()
                    .map(|(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0))
                    .sum::<f64>()
        }
    }

    /// Coefficients by index: cancelling pairs, both zeros, a value below
    /// the drop threshold, fractions that round, and NaN.
    const COEFFS: [f64; 10] = [1.0, -1.0, 0.5, -0.5, 0.1, 0.0, -0.0, 1e-301, 3.0, f64::NAN];

    fn draws() -> impl Strategy<Value = (Vec<(usize, usize)>, Vec<i32>)> {
        (
            // NaN is drawn one time in a hundred.
            proptest::collection::vec((0usize..14, 0usize..100), 0..40),
            proptest::collection::vec(-8i32..8, 14),
        )
    }

    fn coeff_of(pick: usize) -> f64 {
        if pick == 99 {
            f64::NAN
        } else {
            COEFFS[pick % (COEFFS.len() - 1)]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Under random `add_term` sequences with cancellations the sorted
        /// vector holds the map's terms, in order, bit for bit, and answers
        /// `coeff` and `eval` with the same bits.
        #[test]
        fn kernel_terms_match_a_btreemap((adds, values) in draws()) {
            let mut e = LinExpr::new();
            let mut reference = MapExpr::default();
            for &(var, pick) in &adds {
                e.add_term(VarId(var), coeff_of(pick));
                reference.add_term(VarId(var), coeff_of(pick));
            }
            e.add_constant(0.75);
            reference.constant += 0.75;
            let bits = |terms: Vec<(VarId, f64)>| -> Vec<(VarId, u64)> {
                terms.into_iter().map(|(v, c)| (v, c.to_bits())).collect()
            };
            let expected: Vec<(VarId, f64)> =
                reference.terms.iter().map(|(&v, &c)| (v, c)).collect();
            prop_assert_eq!(bits(e.terms()), bits(expected));
            for var in 0..14 {
                let want = reference.terms.get(&VarId(var)).copied().unwrap_or(0.0);
                prop_assert_eq!(e.coeff(VarId(var)).to_bits(), want.to_bits());
            }
            let values: Vec<f64> = values.iter().map(|&k| f64::from(k) / 3.0).collect();
            prop_assert_eq!(e.eval(&values).to_bits(), reference.eval(&values).to_bits());
            prop_assert_eq!(e.eval(&values[..5]).to_bits(), reference.eval(&values[..5]).to_bits());
        }
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut e = LinExpr::new();
        e.add_term(VarId(0), 1.0);
        e.add_term(VarId(0), -1.0);
        assert!(e.terms().is_empty());
    }

    #[test]
    fn eval_uses_constant() {
        let mut e = LinExpr::new();
        e.add_term(VarId(0), 2.0).add_constant(1.0);
        assert_eq!(e.eval(&[3.0]), 7.0);
        // Missing values default to zero.
        assert_eq!(e.eval(&[]), 1.0);
    }

    #[test]
    fn collect_from_iterator() {
        let e: LinExpr = [(VarId(0), 1.0), (VarId(1), 2.0), (VarId(0), 1.0)]
            .into_iter()
            .collect();
        assert_eq!(e.coeff(VarId(0)), 2.0);
        assert_eq!(e.coeff(VarId(1)), 2.0);
    }

    #[test]
    fn display_formats_signs() {
        let mut e = LinExpr::new();
        e.add_term(VarId(0), 1.0).add_term(VarId(1), -2.0);
        assert_eq!(e.to_string(), "1·x0 - 2·x1");
        assert_eq!(LinExpr::new().to_string(), "0");
    }

    #[test]
    fn finiteness_check() {
        let mut e = LinExpr::new();
        e.add_term(VarId(0), f64::NAN);
        assert!(!e.is_finite());
    }
}
