//! Fixed-charge linearization (paper §4.1, citing Taha \[10\]).
//!
//! The objective term `Σ_k z_k·a_k` charges the area of IP *k* exactly once
//! when any IMP using it is selected. The paper linearises the indicator
//! `z_k = 1 ⇔ Σ_{i,j} s_{ijk}·x_{ij} > 0` with
//!
//! ```text
//! Σ s_ijk · x_ij ≤ M · z_k      (M ≥ Σ x_ij, z_k ∈ {0,1})
//! ```
//!
//! and lets the minimisation objective force `z_k = 0` when unused. Any
//! `M` that bounds the left side is valid, and the smallest one gives the
//! tightest LP relaxation. When the users fall into groups of which at
//! most one member can be 1 (the paper's Eq. 1 allows one IMP per s-call),
//! the left side is at most the number of groups, so that is `M`.

use crate::{IlpError, Model, Relation, VarId};

/// Links an indicator `z` so that it must be 1 whenever any user is 1.
///
/// `groups` partitions the users into sets of which the rest of the model
/// lets at most one be 1, such as the IMPs of one s-call under an
/// at-most-one row. Adds the constraint `Σ users − M·z ≤ 0` with every
/// distinct user once and `M` = the number of non-empty groups, the
/// largest value the sum can reach at a feasible 0/1 point. Singleton
/// groups make no such promise and give `M` = the number of users. The
/// grouping only sets `M`; it adds no row. The caller puts the fixed
/// charge on `z` in the objective; minimisation then drives `z` to 0 when
/// no user is selected.
///
/// # Errors
///
/// Propagates [`IlpError::UnknownVariable`] from the underlying constraint.
///
/// # Example
///
/// ```
/// use partita_ilp::{Model, Sense, Relation, BranchBound, fixed_charge};
/// # fn main() -> Result<(), partita_ilp::IlpError> {
/// let mut m = Model::new(Sense::Minimize);
/// let x1 = m.add_binary("x1");
/// let x2 = m.add_binary("x2");
/// let z = m.add_binary("z");
/// // Area 5 charged once if either x is chosen; require gain >= 1.
/// m.set_objective([(z, 5.0)]);
/// m.add_constraint([(x1, 1.0), (x2, 1.0)], Relation::Ge, 1.0)?;
/// fixed_charge::link_indicator(&mut m, z, [[x1], [x2]])?;
/// let s = BranchBound::new().solve(&m)?;
/// assert_eq!(s.objective.round() as i64, 5); // z forced to 1
/// # Ok(())
/// # }
/// ```
pub fn link_indicator<G>(
    model: &mut Model,
    z: VarId,
    groups: impl IntoIterator<Item = G>,
) -> Result<(), IlpError>
where
    G: IntoIterator<Item = VarId>,
{
    let mut users = Vec::new();
    let mut big_m = 0u32;
    for group in groups {
        let before = users.len();
        users.extend(group);
        if users.len() > before {
            big_m += 1;
        }
    }
    users.sort_unstable();
    users.dedup();
    if users.is_empty() {
        // No users can ever force z; pin it to 0 so the charge vanishes.
        return model.add_constraint([(z, 1.0)], Relation::Le, 0.0);
    }
    let terms = users.into_iter().map(|u| (u, 1.0));
    model.add_labeled_constraint(
        terms.chain([(z, -f64::from(big_m))]),
        Relation::Le,
        0.0,
        Some("fixed-charge"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchBound, Sense};

    #[test]
    fn unused_indicator_is_driven_to_zero() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x");
        let z = m.add_binary("z");
        m.set_objective([(z, 5.0), (x, 1.0)]);
        link_indicator(&mut m, z, [[x]]).unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(!s.is_set(z));
    }

    #[test]
    fn any_user_forces_indicator() {
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_binary("x1");
        let x2 = m.add_binary("x2");
        let x3 = m.add_binary("x3");
        let z = m.add_binary("z");
        m.set_objective([(z, 7.0)]);
        // Force two users on.
        m.add_constraint([(x1, 1.0)], Relation::Ge, 1.0).unwrap();
        m.add_constraint([(x3, 1.0)], Relation::Ge, 1.0).unwrap();
        link_indicator(&mut m, z, [[x1], [x2], [x3]]).unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        assert!(s.is_set(z));
        assert_eq!(s.objective.round() as i64, 7); // charged once, not twice
    }

    #[test]
    fn big_m_counts_groups_and_each_user_appears_once() {
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<VarId> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        let z = m.add_binary("z");
        // x0 listed twice in its group, an empty group, x3 alone.
        let groups = [vec![x[0], x[1], x[0]], vec![], vec![x[2]], vec![x[3]]];
        link_indicator(&mut m, z, groups).unwrap();
        let row = &m.constraints()[0];
        assert_eq!(row.label, Some("fixed-charge".into()));
        assert_eq!(
            row.expr.terms(),
            [
                (x[0], 1.0),
                (x[1], 1.0),
                (x[2], 1.0),
                (x[3], 1.0),
                (z, -3.0)
            ]
        );
        assert_eq!((row.relation, row.rhs), (Relation::Le, 0.0));
    }

    #[test]
    fn empty_users_pins_indicator_off() {
        let mut m = Model::new(Sense::Minimize);
        let z = m.add_binary("z");
        m.set_objective([(z, -3.0)]); // even a rewarding z must stay 0
        link_indicator(&mut m, z, [[]; 0]).unwrap();
        let s = BranchBound::new().solve(&m).unwrap();
        assert!(!s.is_set(z));
    }
}
