//! Bidirectional contract between `docs/BACKENDS.md` and the code: every
//! backend the engine enumerates is documented, nothing is documented that
//! the engine no longer has, and the cross-references the contract leans on
//! (statuses, telemetry) actually exist on both sides.

use partita::core::telemetry::EventKind;
use partita::core::{Backend, OptimalityStatus};

const DOC: &str = include_str!("../docs/BACKENDS.md");

#[test]
fn every_backend_has_a_section_and_a_table_row() {
    for backend in Backend::ALL {
        assert!(
            DOC.contains(&format!("### `{}`", backend.name())),
            "docs/BACKENDS.md has no section for backend `{}`",
            backend.name()
        );
        assert!(
            DOC.contains(&format!("| `{}` |", backend.name())),
            "docs/BACKENDS.md line-up table has no row for `{}`",
            backend.name()
        );
    }
}

#[test]
fn every_documented_backend_exists_in_code() {
    let mut sections = 0usize;
    for line in DOC.lines() {
        if let Some(name) = line.strip_prefix("### `").and_then(|l| l.strip_suffix('`')) {
            assert!(
                Backend::ALL.iter().any(|b| b.name() == name),
                "docs/BACKENDS.md documents unknown backend `{name}`"
            );
            sections += 1;
        }
    }
    assert_eq!(
        sections,
        Backend::ALL.len(),
        "one section per backend, no duplicates"
    );
}

#[test]
fn contract_cross_references_exist() {
    // The budget-semantics section names every optimality status.
    for status in [
        OptimalityStatus::Optimal,
        OptimalityStatus::FeasibleBudgetExhausted,
        OptimalityStatus::FallbackUsed,
        OptimalityStatus::Heuristic,
    ] {
        let name = format!("{status:?}");
        assert!(
            DOC.contains(&name),
            "docs/BACKENDS.md never mentions status `{name}`"
        );
    }
    // The telemetry section names the event that carries a backend's
    // effort counters, and it exists.
    let kind = EventKind::SolveFinished;
    assert!(
        DOC.contains(&format!("`{}`", kind.name())),
        "docs/BACKENDS.md never mentions event `{}`",
        kind.name()
    );
    // Every call the line-up names is the one `dispatch` makes.
    let dispatch = include_str!("../crates/core/src/solver.rs");
    for call in [
        "run_seeded",
        "run_binary_exhaustive",
        "solve_greedy",
        "encode_selection",
        "is_feasible",
    ] {
        assert!(
            DOC.contains(call) && dispatch.contains(call),
            "`{call}` must appear in docs/BACKENDS.md and in dispatch"
        );
    }
    // The tie-break the contract cites is the one the code exports.
    assert!(
        DOC.contains("lex_less") && DOC.contains("1e-9"),
        "determinism contract must cite the shared tie-break"
    );
}
