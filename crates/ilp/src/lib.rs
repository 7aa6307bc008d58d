//! 0/1 integer linear programming for the Partita S-instruction selector.
//!
//! The DAC'99 paper formulates optimal IP/interface selection as an ILP
//! (§4.1) and uses the *fixed charge problem* linearization of Taha's
//! textbook for the IP-area indicator variables. This crate provides the
//! whole stack, built from scratch:
//!
//! * [`Model`] — variables (continuous / binary), linear constraints and a
//!   linear objective;
//! * [`simplex`] — a sparse-row two-phase primal simplex for LP relaxations;
//! * [`BranchBound`] — best-first branch-and-bound over the LP relaxation;
//! * [`fixed_charge`] — the `Σ s·x ≤ M·z` linearization helper used for the
//!   "IP area counted once" objective term;
//! * [`solve_binary_exhaustive`] — a brute-force reference solver used by
//!   the property-test suite to validate branch-and-bound.
//!
//! # Example
//!
//! ```
//! use partita_ilp::{Model, Relation, Sense, BranchBound};
//!
//! # fn main() -> Result<(), partita_ilp::IlpError> {
//! // Minimise 3a + 2b subject to a + b >= 1 (a, b binary).
//! let mut m = Model::new(Sense::Minimize);
//! let a = m.add_binary("a");
//! let b = m.add_binary("b");
//! m.set_objective([(a, 3.0), (b, 2.0)]);
//! m.add_constraint([(a, 1.0), (b, 1.0)], Relation::Ge, 1.0)?;
//! let sol = BranchBound::new().solve(&m)?;
//! assert_eq!(sol.objective.round() as i64, 2);
//! assert_eq!(sol.value(b).round() as i64, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod error;
mod exhaustive;
mod expr;
pub mod fixed_charge;
mod model;
pub mod simplex;
mod solution;

pub use branch_bound::{lex_less, BranchBound, BranchBoundRun, BranchBoundStats, Termination};
pub use error::IlpError;
pub use exhaustive::{
    run_binary_exhaustive, solve_binary_exhaustive, ExhaustiveRun, MAX_EXHAUSTIVE_BINARIES,
};
pub use expr::LinExpr;
pub use model::{Model, Name, Relation, Sense, VarId, VarKind};
pub use simplex::{solve_with_basis, Basis, BasisSolve, SimplexOps};
pub use solution::{IlpSolution, LpSolution};

/// Constraint-satisfaction slack of every feasibility decision in the
/// crate: phase-1 residuals and box violations in the simplex, the
/// pinned-point and constant-row checks, and the integer-point checks of
/// branch-and-bound and of the brute-force oracle that validates it. One
/// value for all of them means the solver and its oracle accept the same
/// points.
pub const FEAS_TOL: f64 = 1e-6;

/// Normalised objective values within this of each other count as tied:
/// pruning keeps a tied node alive and the incumbent of both exact solvers
/// falls back to [`lex_less`] on a tie.
const TIE_TOL: f64 = 1e-9;

// The service daemon shares models, bases and solutions across worker
// threads; these compile-time assertions pin the `Send + Sync` bounds so a
// future `Rc`/`RefCell`/raw-pointer field turns up here, not as a distant
// type error inside the daemon's thread scope.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Model>();
    assert_send_sync::<Basis>();
    assert_send_sync::<IlpSolution>();
    assert_send_sync::<LpSolution>();
    assert_send_sync::<BranchBound>();
    assert_send_sync::<BranchBoundStats>();
    assert_send_sync::<IlpError>();
    assert_send_sync::<ExhaustiveRun>();
};
