//! Property tests: branch-and-bound must match exhaustive enumeration on
//! random 0/1 models shaped like the paper's selection problems.

use proptest::prelude::*;

use partita_ilp::{
    fixed_charge, solve_binary_exhaustive, BranchBound, IlpError, Model, Relation, Sense,
    Termination,
};

/// A random selection instance: minimise area subject to gain covers and
/// pairwise conflicts — exactly the structure of the paper's Problem 2.
#[derive(Debug, Clone)]
struct Instance {
    areas: Vec<u32>,
    gains: Vec<u32>,
    required: u32,
    conflicts: Vec<(usize, usize)>,
}

fn instance_strategy(max_vars: usize) -> impl Strategy<Value = Instance> {
    (2..=max_vars).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u32..30, n),
            proptest::collection::vec(0u32..100, n),
            0u32..160,
            proptest::collection::vec((0..n, 0..n), 0..4),
        )
            .prop_map(|(areas, gains, required, raw_conflicts)| {
                let conflicts = raw_conflicts.into_iter().filter(|(a, b)| a != b).collect();
                Instance {
                    areas,
                    gains,
                    required,
                    conflicts,
                }
            })
    })
}

fn build_model(inst: &Instance) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..inst.areas.len())
        .map(|i| m.add_binary(format!("x{i}")))
        .collect();
    m.set_objective(
        vars.iter()
            .zip(&inst.areas)
            .map(|(&v, &a)| (v, f64::from(a))),
    );
    m.add_constraint(
        vars.iter()
            .zip(&inst.gains)
            .map(|(&v, &g)| (v, f64::from(g))),
        Relation::Ge,
        f64::from(inst.required),
    )
    .expect("gain constraint");
    for &(a, b) in &inst.conflicts {
        m.add_constraint([(vars[a], 1.0), (vars[b], 1.0)], Relation::Le, 1.0)
            .expect("conflict constraint");
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branch_bound_matches_exhaustive(inst in instance_strategy(10)) {
        let m = build_model(&inst);
        let exact = solve_binary_exhaustive(&m);
        let bb = BranchBound::new().solve(&m);
        match (exact, bb) {
            (Ok(e), Ok(b)) => {
                prop_assert!((e.objective - b.objective).abs() < 1e-6,
                    "objective mismatch: exhaustive {} vs b&b {}", e.objective, b.objective);
                prop_assert!(m.is_feasible(&b.values));
            }
            (Err(IlpError::Infeasible), Err(IlpError::Infeasible)) => {}
            (e, b) => prop_assert!(false, "status mismatch: {e:?} vs {b:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_never_a_silent_optimal(
        inst in instance_strategy(12),
        max_nodes in 1usize..=3,
    ) {
        // Starving the search must surface as a budget termination with a
        // feasible (or absent) incumbent — never as a wrong "optimal". Runs
        // that do finish within the tiny budget must match exhaustive.
        let m = build_model(&inst);
        let run = BranchBound::new()
            .with_max_nodes(max_nodes)
            .run(&m, None);
        match run {
            Ok(run) => {
                if let Some(sol) = &run.solution {
                    prop_assert!(m.is_feasible(&sol.values),
                        "incumbent infeasible under {:?}", run.termination);
                }
                match run.termination {
                    Termination::Optimal => {
                        let sol = run.solution.expect("optimal implies incumbent");
                        let exact = solve_binary_exhaustive(&m).expect("b&b found a point");
                        prop_assert!((sol.objective - exact.objective).abs() < 1e-6,
                            "claimed optimal {} but exhaustive found {}",
                            sol.objective, exact.objective);
                    }
                    Termination::NodeLimit => {
                        prop_assert!(run.stats.nodes_explored <= max_nodes);
                    }
                    Termination::Deadline => prop_assert!(false, "no deadline was set"),
                }
            }
            Err(IlpError::Infeasible) => {
                prop_assert!(solve_binary_exhaustive(&m).is_err(),
                    "b&b claimed infeasible but exhaustive found a point");
            }
            Err(e) => prop_assert!(false, "unexpected error: {e:?}"),
        }
    }

    #[test]
    fn fixed_charge_indicators_agree(inst in instance_strategy(8)) {
        // Attach a fixed-charge indicator to the even-indexed variables and
        // check both solvers still agree (the z var mimics shared IP area).
        let mut m = build_model(&inst);
        let users: Vec<_> = m.binary_vars().into_iter().step_by(2).collect();
        let z = m.add_binary("z");
        let mut obj: Vec<_> = m
            .binary_vars()
            .iter()
            .filter(|v| v.index() < inst.areas.len())
            .map(|&v| (v, f64::from(inst.areas[v.index()])))
            .collect();
        obj.push((z, 13.0));
        m.set_objective(obj);
        fixed_charge::link_indicator(&mut m, z, users.iter().map(|&u| [u])).expect("link");
        let exact = solve_binary_exhaustive(&m);
        let bb = BranchBound::new().solve(&m);
        match (exact, bb) {
            (Ok(e), Ok(b)) => {
                prop_assert!((e.objective - b.objective).abs() < 1e-6);
            }
            (Err(IlpError::Infeasible), Err(IlpError::Infeasible)) => {}
            (e, b) => prop_assert!(false, "status mismatch: {e:?} vs {b:?}"),
        }
    }
}
