//! Error type for model construction and solving.

use std::error::Error;
use std::fmt;

use crate::VarId;

/// Errors raised by the ILP stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IlpError {
    /// A variable id does not belong to the model.
    UnknownVariable(VarId),
    /// A constraint index does not belong to the model.
    UnknownConstraint(usize),
    /// A coefficient or bound is not finite.
    NonFiniteCoefficient {
        /// Where the bad value appeared.
        context: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The LP relaxation is infeasible.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// The simplex iteration limit was exceeded.
    IterationLimit {
        /// Configured limit.
        limit: usize,
    },
    /// Branch-and-bound exceeded its node limit without proving optimality.
    NodeLimit {
        /// Configured limit.
        limit: usize,
    },
    /// Branch-and-bound ran past its wall-clock deadline without proving
    /// optimality.
    DeadlineExceeded,
    /// The exhaustive solver was asked for too many binaries.
    TooManyBinaries {
        /// Number of binaries in the model.
        count: usize,
        /// Supported maximum.
        max: usize,
    },
    /// The tableau was poisoned by non-finite arithmetic (overflow feeding
    /// `inf - inf` during pivoting) and pivot selection can no longer be
    /// trusted.
    NumericalInstability {
        /// The pivot-selection step that detected the poisoned value.
        context: &'static str,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::UnknownVariable(v) => write!(f, "unknown variable {v}"),
            IlpError::UnknownConstraint(i) => write!(f, "unknown constraint index {i}"),
            IlpError::NonFiniteCoefficient { context, value } => {
                write!(f, "non-finite coefficient {value} in {context}")
            }
            IlpError::Infeasible => f.write_str("model is infeasible"),
            IlpError::Unbounded => f.write_str("model is unbounded"),
            IlpError::IterationLimit { limit } => {
                write!(f, "simplex exceeded {limit} iterations")
            }
            IlpError::NodeLimit { limit } => {
                write!(f, "branch-and-bound exceeded {limit} nodes")
            }
            IlpError::DeadlineExceeded => f.write_str("branch-and-bound ran past its deadline"),
            IlpError::TooManyBinaries { count, max } => {
                write!(
                    f,
                    "exhaustive solver supports at most {max} binaries, got {count}"
                )
            }
            IlpError::NumericalInstability { context } => {
                write!(
                    f,
                    "tableau poisoned by non-finite arithmetic during {context}"
                )
            }
        }
    }
}

impl Error for IlpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(IlpError::Infeasible.to_string(), "model is infeasible");
        assert!(IlpError::IterationLimit { limit: 9 }
            .to_string()
            .contains('9'));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<IlpError>();
    }
}
