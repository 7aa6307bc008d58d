//! Core-layer errors.

use std::error::Error;
use std::fmt;

use partita_ilp::IlpError;
use partita_mop::{CallSiteId, PathId};

/// Errors raised by the S-instruction generator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// No IMP database was generated or supplied.
    NoImps,
    /// The selection problem is infeasible: no IMP set reaches the required
    /// gain on some path.
    Infeasible {
        /// A path that cannot meet its requirement (when identifiable).
        path: Option<PathId>,
    },
    /// A referenced s-call does not exist in the instance.
    UnknownSCall(CallSiteId),
    /// A path references an s-call that is not in the instance.
    BadPath {
        /// The path.
        path: PathId,
        /// The missing s-call.
        scall: CallSiteId,
    },
    /// The solve budget ran out before any feasible selection was found and
    /// no greedy rescue applied or succeeded; the problem was *not* proven
    /// infeasible. Only a completed search answers [`CoreError::Infeasible`].
    BudgetExhausted,
    /// The underlying ILP solver failed.
    Ilp(IlpError),
    /// A selection failed independent verification.
    InvalidSelection(String),
    /// A call-hierarchy specification is structurally invalid (empty child
    /// list, duplicate or self-referential children, a child consumed
    /// twice, …).
    MalformedHierarchy {
        /// The parent s-call of the offending spec.
        parent: CallSiteId,
        /// What is wrong with it.
        detail: String,
    },
    /// The post-solve audit ([`crate::verify::SelectionAuditor`]) found
    /// violations in a selection the solver claimed was feasible.
    AuditFailed {
        /// Number of violations.
        violations: usize,
        /// The JSON rendering of the full [`crate::verify::AuditReport`].
        report: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoImps => f.write_str("no implementation methods available"),
            CoreError::Infeasible { path: Some(p) } => {
                write!(
                    f,
                    "no ip/interface selection meets the required gain on {p}"
                )
            }
            CoreError::Infeasible { path: None } => {
                f.write_str("no ip/interface selection meets the required gains")
            }
            CoreError::UnknownSCall(sc) => write!(f, "unknown s-call {sc}"),
            CoreError::BadPath { path, scall } => {
                write!(f, "{path} references unknown s-call {scall}")
            }
            CoreError::BudgetExhausted => {
                f.write_str("solve budget exhausted before a feasible selection was found")
            }
            CoreError::Ilp(e) => write!(f, "ilp solver failed: {e}"),
            CoreError::InvalidSelection(why) => write!(f, "invalid selection: {why}"),
            CoreError::MalformedHierarchy { parent, detail } => {
                write!(f, "malformed hierarchy at {parent}: {detail}")
            }
            CoreError::AuditFailed { violations, report } => {
                write!(
                    f,
                    "selection failed audit with {violations} violation(s): {report}"
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Ilp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IlpError> for CoreError {
    fn from(e: IlpError) -> CoreError {
        match e {
            IlpError::Infeasible => CoreError::Infeasible { path: None },
            other => CoreError::Ilp(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_ilp_maps_to_core_infeasible() {
        assert_eq!(
            CoreError::from(IlpError::Infeasible),
            CoreError::Infeasible { path: None }
        );
        assert!(matches!(
            CoreError::from(IlpError::Unbounded),
            CoreError::Ilp(_)
        ));
    }

    #[test]
    fn display() {
        assert!(CoreError::NoImps.to_string().contains("implementation"));
        let e = CoreError::Infeasible {
            path: Some(PathId(2)),
        };
        assert!(e.to_string().contains("P2"));
    }

    #[test]
    fn new_variants_display() {
        let e = CoreError::MalformedHierarchy {
            parent: CallSiteId(4),
            detail: "parent listed among its own children".into(),
        };
        assert!(e.to_string().contains("sc4"));
        assert!(e.to_string().contains("children"));
        let e = CoreError::AuditFailed {
            violations: 3,
            report: "{\"clean\":false}".into(),
        };
        assert!(e.to_string().contains("3 violation(s)"));
        assert!(e.to_string().contains("clean"));
    }
}
