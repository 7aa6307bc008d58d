//! Linear expressions over model variables.

use std::collections::BTreeMap;
use std::fmt;

use crate::VarId;

/// A linear expression `Σ cᵢ·xᵢ + k`.
///
/// Terms on the same variable are merged; zero coefficients are dropped.
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
    terms: BTreeMap<VarId, f64>,
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
        let c = self.terms.entry(var).or_insert(0.0);
        *c += coeff;
        if c.abs() < 1e-300 {
            self.terms.remove(&var);
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
        self.terms.get(&var).copied().unwrap_or(0.0)
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
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Evaluates the expression for an assignment indexed by variable.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values.get(v.index()).copied().unwrap_or(0.0))
                .sum::<f64>()
    }

    /// `true` if every coefficient and the constant are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.values().all(|c| c.is_finite())
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
        for (v, c) in &self.terms {
            if first {
                write!(f, "{c}·{v}")?;
                first = false;
            } else if *c < 0.0 {
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
    use super::*;

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
