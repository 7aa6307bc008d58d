//! Brute-force reference solver for validation.

use std::time::{Duration, Instant};

use crate::branch_bound::lex_less;
use crate::model::FlatModel;
use crate::simplex::{solve_folded, SimplexOptions, SimplexScratch};
use crate::{IlpError, IlpSolution, Model, Sense, Termination, VarId, VarKind, TIE_TOL};

/// Maximum number of binaries the exhaustive solver accepts.
pub const MAX_EXHAUSTIVE_BINARIES: usize = 24;

/// How many assignments are enumerated between deadline polls.
const POLL_STRIDE: u64 = 256;

/// Outcome of [`run_binary_exhaustive`]: the best feasible assignment seen
/// (if any), why the enumeration stopped, and how far it got.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveRun {
    /// Best integer-feasible solution found so far; `None` when every
    /// enumerated assignment was infeasible.
    pub solution: Option<IlpSolution>,
    /// [`Termination::Optimal`] only when every assignment was enumerated.
    pub termination: Termination,
    /// Number of binary assignments actually checked.
    pub assignments_checked: usize,
}

/// Budget-aware exhaustive enumeration over the binary assignments of
/// `model`, with the same tie-break contract as [`crate::BranchBound`]: the
/// reported solution is the lexicographically smallest optimal assignment,
/// so exact backends agree byte-for-byte.
///
/// `max_assignments` bounds how many assignments are checked; `deadline`
/// is polled every few hundred assignments. An exhausted
/// budget returns the best incumbent found so far with an honest
/// [`Termination`], never an error.
///
/// # Errors
///
/// [`IlpError::TooManyBinaries`] for more than
/// [`MAX_EXHAUSTIVE_BINARIES`] binaries; simplex errors propagate for
/// mixed models.
pub fn run_binary_exhaustive(
    model: &Model,
    max_assignments: usize,
    deadline: Option<Duration>,
) -> Result<ExhaustiveRun, IlpError> {
    let binaries = model.binary_vars();
    if binaries.len() > MAX_EXHAUSTIVE_BINARIES {
        return Err(IlpError::TooManyBinaries {
            count: binaries.len(),
            max: MAX_EXHAUSTIVE_BINARIES,
        });
    }
    let started = Instant::now();
    let n = model.num_vars();
    let pure_binary = (0..n).all(|i| {
        model
            .var_kind(VarId(i))
            .map(|k| k == VarKind::Binary)
            .unwrap_or(false)
    });
    let minimize = model.sense() == Sense::Minimize;
    let norm = |obj: f64| if minimize { obj } else { -obj };
    // A mixed model solves one LP per assignment, on one flat copy.
    let flat = FlatModel::new(model);
    let mut scratch = SimplexScratch::new();

    let mut best: Option<IlpSolution> = None;
    let mut best_score = f64::INFINITY;
    let mut checked = 0usize;
    let mut termination = Termination::Optimal;

    let total = 1u64 << binaries.len();
    for mask in 0..total {
        if checked >= max_assignments {
            termination = Termination::NodeLimit;
            break;
        }
        if mask % POLL_STRIDE == 0 && deadline.is_some_and(|d| started.elapsed() >= d) {
            termination = Termination::Deadline;
            break;
        }
        checked += 1;
        let mut lower = Vec::with_capacity(n);
        let mut upper = Vec::with_capacity(n);
        for i in 0..n {
            let (l, u) = model.var_bounds(VarId(i)).expect("var exists");
            lower.push(l);
            upper.push(u);
        }
        for (bit, &v) in binaries.iter().enumerate() {
            let val = if mask & (1 << bit) != 0 { 1.0 } else { 0.0 };
            lower[v.index()] = val;
            upper[v.index()] = val;
        }

        let candidate = if pure_binary {
            let values = lower.clone();
            if model.is_feasible(&values) {
                Some((model.objective().eval(&values), values))
            } else {
                None
            }
        } else {
            match solve_folded(
                &flat,
                &lower,
                &upper,
                SimplexOptions::default(),
                &mut scratch,
            ) {
                Ok(lp) => Some((lp.objective, lp.values)),
                Err(IlpError::Infeasible) => None,
                Err(e) => return Err(e),
            }
        };

        if let Some((objective, values)) = candidate {
            let score = norm(objective);
            let improves = match &best {
                None => true,
                Some(sol) => {
                    score < best_score - TIE_TOL
                        || (score <= best_score + TIE_TOL && lex_less(&values, &sol.values))
                }
            };
            if improves {
                best_score = best_score.min(score);
                best = Some(IlpSolution { objective, values });
            }
        }
    }

    Ok(ExhaustiveRun {
        solution: best,
        termination,
        assignments_checked: checked,
    })
}

/// Solves `model` by enumerating every assignment of its binary variables.
///
/// Pure-binary models are checked directly; models with continuous variables
/// solve an LP per assignment. This is the oracle that the property-test
/// suite compares [`crate::BranchBound`] against.
///
/// # Errors
///
/// [`IlpError::TooManyBinaries`] for more than
/// [`MAX_EXHAUSTIVE_BINARIES`] binaries, [`IlpError::Infeasible`] when no
/// assignment is feasible.
pub fn solve_binary_exhaustive(model: &Model) -> Result<IlpSolution, IlpError> {
    let run = run_binary_exhaustive(model, usize::MAX, None)?;
    debug_assert_eq!(run.termination, Termination::Optimal);
    run.solution.ok_or(IlpError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchBound, Relation};

    #[test]
    fn matches_branch_bound_on_knapsack() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective([(a, 6.0), (b, 5.0), (c, 4.0)]);
        m.add_constraint([(a, 5.0), (b, 4.0), (c, 3.0)], Relation::Le, 8.0)
            .unwrap();
        let e = solve_binary_exhaustive(&m).unwrap();
        let bb = BranchBound::new().solve(&m).unwrap();
        assert!((e.objective - bb.objective).abs() < 1e-6);
    }

    #[test]
    fn too_many_binaries_rejected() {
        let mut m = Model::new(Sense::Minimize);
        for i in 0..30 {
            m.add_binary(format!("x{i}"));
        }
        assert!(matches!(
            solve_binary_exhaustive(&m),
            Err(IlpError::TooManyBinaries { count: 30, .. })
        ));
    }

    #[test]
    fn infeasible_reported() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        m.add_constraint([(a, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(solve_binary_exhaustive(&m), Err(IlpError::Infeasible));
    }

    #[test]
    fn tie_break_matches_branch_bound() {
        // min a + b s.t. 2a + 2b >= 1 has two tied optima (1,0) and (0,1);
        // both exact solvers must report the lexicographically smallest
        // assignment (0,1) so differential comparisons are byte-stable.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(a, 1.0), (b, 1.0)]);
        m.add_constraint([(a, 2.0), (b, 2.0)], Relation::Ge, 1.0)
            .unwrap();
        let e = solve_binary_exhaustive(&m).unwrap();
        let bb = BranchBound::new().solve(&m).unwrap();
        assert_eq!(e.values, bb.values);
        assert_eq!(
            (e.value(a).round() as i64, e.value(b).round() as i64),
            (0, 1)
        );
    }

    #[test]
    fn assignment_budget_reports_node_limit() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.set_objective([(a, 1.0), (b, 1.0)]);
        let run = run_binary_exhaustive(&m, 2, None).unwrap();
        assert_eq!(run.termination, Termination::NodeLimit);
        assert_eq!(run.assignments_checked, 2);
        // The all-zero assignment is feasible, so an incumbent survives.
        assert!(run.solution.is_some());
    }

    #[test]
    fn zero_deadline_reports_deadline() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a");
        m.set_objective([(a, 1.0)]);
        let run = run_binary_exhaustive(&m, usize::MAX, Some(std::time::Duration::ZERO)).unwrap();
        assert_eq!(run.termination, Termination::Deadline);
        assert!(run.solution.is_none());
    }

    #[test]
    fn mixed_model_uses_lp_per_assignment() {
        let mut m = Model::new(Sense::Minimize);
        let z = m.add_binary("z");
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.set_objective([(z, 10.0), (y, 1.0)]);
        m.add_constraint([(y, 1.0), (z, 5.0)], Relation::Ge, 3.0)
            .unwrap();
        let s = solve_binary_exhaustive(&m).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6);
    }
}
