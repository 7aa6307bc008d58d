//! SC-PC conflict detection (paper §4, "Selection rule").
//!
//! Two IMPs have an *SC-PC conflict* when one implements s-call `i` with an
//! IP while the other uses the **software implementation** of `i` as its
//! parallel code: the call cannot be both in hardware and in software.
//! (Plain *SC conflicts* — two IMPs for the same s-call — are already
//! excluded by the `Σ_j x_ij ≤ 1` constraint and need no pairs here.)
//!
//! [`sc_pc_conflicts`] is the one definition of the relation, as pairs.
//! The auditor and the greedy baseline check the pairs one by one. The
//! Problem 2 formulation groups them by (consuming s-call, consumed
//! s-call) and writes each group as one clique row (see
//! `formulate::build_model`): every IMP of `A` that consumes `B` conflicts
//! with every IMP of `B`, and each side is already at most one by Eq. 1.

use crate::{ImpDb, ImpId};

/// A pair of mutually exclusive IMPs (`x_a + x_b ≤ 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConflictPair {
    /// First IMP.
    pub a: ImpId,
    /// Second IMP.
    pub b: ImpId,
}

/// Computes all SC-PC conflict pairs in the database.
#[must_use]
pub fn sc_pc_conflicts(db: &ImpDb) -> Vec<ConflictPair> {
    let mut out = Vec::new();
    for imp in db.imps() {
        for &consumed in imp.parallel.consumed_scalls() {
            for other in db.for_scall(consumed) {
                // `other` implements the consumed s-call with an IP; `imp`
                // needs that call in software.
                out.push(ConflictPair {
                    a: imp.id,
                    b: other.id,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Imp, ParallelChoice};
    use partita_interface::InterfaceKind;
    use partita_ip::IpId;
    use partita_mop::{AreaTenths, CallSiteId, Cycles};

    fn imp(scall: u32, parallel: ParallelChoice) -> Imp {
        Imp::new(
            CallSiteId(scall),
            vec![IpId(0)],
            InterfaceKind::Type1,
            Cycles(10),
            AreaTenths::ZERO,
            parallel,
        )
    }

    #[test]
    fn consuming_imp_conflicts_with_all_imps_of_consumed_scall() {
        let db = ImpDb::from_imps(vec![
            imp(0, ParallelChoice::SwScalls(vec![CallSiteId(1)])), // imp0
            imp(1, ParallelChoice::None),                          // imp1
            imp(1, ParallelChoice::PlainPc),                       // imp2
            imp(2, ParallelChoice::None),                          // imp3
        ]);
        let pairs = sc_pc_conflicts(&db);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&ConflictPair {
            a: ImpId(0),
            b: ImpId(1)
        }));
        assert!(pairs.contains(&ConflictPair {
            a: ImpId(0),
            b: ImpId(2)
        }));
    }

    #[test]
    fn no_sw_pc_means_no_conflicts() {
        let db = ImpDb::from_imps(vec![
            imp(0, ParallelChoice::None),
            imp(1, ParallelChoice::PlainPc),
        ]);
        assert!(sc_pc_conflicts(&db).is_empty());
    }

    #[test]
    fn multi_consumption_conflicts_with_every_member() {
        let db = ImpDb::from_imps(vec![
            imp(
                0,
                ParallelChoice::SwScalls(vec![CallSiteId(1), CallSiteId(2)]),
            ),
            imp(1, ParallelChoice::None),
            imp(2, ParallelChoice::None),
        ]);
        let pairs = sc_pc_conflicts(&db);
        assert_eq!(pairs.len(), 2);
    }
}
