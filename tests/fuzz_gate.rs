//! Generator → solve → audit → edit-sequence fuzz gate: random small
//! [`SynthParams`] drawn across every generator knob must produce instances
//! that solve (or fail with the typed errors the API promises), pass the
//! independent audit, and — driven through a random [`DeltaSession`]
//! required-gain walk — agree with a cold oracle solve of the patched
//! requirement at every step. 256 cases per property, deterministic per test name (the
//! proptest shim derives its RNG from the test path).

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use partita::core::{
    CoreError, DeltaSession, InstanceDelta, RequiredGains, Selection, SolveOptions, Solver,
};
use partita::mop::Cycles;
use partita::workloads::corpus::digest;
use partita::workloads::synth::{try_generate, KindMix, SynthError, SynthParams};

/// Small but fully knob-covered parameter sets: every axis the scaling
/// generator exposes, sized so an optimal solve is milliseconds.
fn params() -> impl Strategy<Value = SynthParams> {
    (
        (2usize..=5, 1usize..=3, 1usize..=3, 0u64..1_000_000),
        (1usize..=2, 0u8..=100, 0usize..=1, 0u8..3),
    )
        .prop_map(
            |((scalls, ips, paths, seed), (imp_fanout, conflict_pct, hierarchy_depth, mix))| {
                SynthParams {
                    scalls,
                    ips,
                    paths,
                    seed,
                    imp_fanout,
                    conflict_pct,
                    hierarchy_depth,
                    kind_mix: match mix {
                        0 => KindMix::Balanced,
                        1 => KindMix::BufferedOnly,
                        _ => KindMix::AllKinds,
                    },
                }
            },
        )
}

/// One random required-gain edit; sweep indices are mod-mapped onto the
/// workload's `rg_sweep` when applied.
#[derive(Debug, Clone)]
enum EditSpec {
    /// Walk to another sweep point (index into `rg_sweep`).
    SetRgIdx(usize),
    /// Jump to an arbitrary requirement (may be infeasible — both sides
    /// must then agree on the typed error; zero makes every gain row
    /// redundant).
    SetRgRaw(u64),
}

fn edits() -> impl Strategy<Value = Vec<EditSpec>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..4).prop_map(EditSpec::SetRgIdx),
            (0u64..500_000).prop_map(EditSpec::SetRgRaw),
            Just(EditSpec::SetRgRaw(0)),
        ],
        1..5,
    )
}

fn resolve_edit(spec: &EditSpec, rg_sweep: &[Cycles]) -> InstanceDelta {
    let rg = match spec {
        EditSpec::SetRgIdx(i) => rg_sweep[i % rg_sweep.len()],
        EditSpec::SetRgRaw(rg) => Cycles(*rg),
    };
    InstanceDelta::SetRg(RequiredGains::uniform(rg))
}

/// Cold oracle: a fresh solver over the session's instance and database
/// at its current requirement.
fn cold(session: &DeltaSession) -> Result<Selection, CoreError> {
    Solver::new(session.instance())
        .with_imps(Arc::clone(session.db()))
        .solve(session.options())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any generated instance solves its achievable sweep points cleanly:
    /// the mid-sweep solve succeeds (or reports a typed error), and every
    /// success re-derives under the independent audit.
    #[test]
    fn generated_instances_solve_and_audit_clean(p in params()) {
        let w = try_generate(p).expect("non-degenerate params must generate");
        prop_assert!(!w.rg_sweep.is_empty(), "empty sweep for {p:?}");
        let rg = w.rg_sweep[w.rg_sweep.len() / 2];
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
        match Solver::new(&w.instance).with_imps(w.imps.clone()).solve(&opts) {
            Ok(sel) => {
                common::assert_audit_clean(&w, &sel, &opts, &format!("{p:?}"));
                // Replay is byte-identical: the generator + solver pair is
                // a pure function of the parameters.
                let again = Solver::new(&w.instance)
                    .with_imps(w.imps.clone())
                    .solve(&opts)
                    .expect("replay of a feasible solve");
                prop_assert_eq!(
                    common::serialize_selection(&sel),
                    common::serialize_selection(&again),
                    "replay diverged for {:?}", p
                );
            }
            Err(CoreError::Infeasible { .. } | CoreError::NoImps) => {}
            Err(e) => return Err(TestCaseError::fail(format!("{p:?}: unexpected {e}"))),
        }
    }

    /// Generation is a pure function of its parameters: rebuilding the
    /// same knob vector is digest-identical, and a different seed is not.
    #[test]
    fn generation_is_digest_stable(p in params()) {
        let a = try_generate(p).expect("non-degenerate params must generate");
        let b = try_generate(p).expect("non-degenerate params must generate");
        prop_assert_eq!(digest(&a), digest(&b), "rebuild diverged for {:?}", p);
        let other = try_generate(p.with_seed(p.seed ^ 0x9e37_79b9)).expect("seed variant");
        prop_assert_ne!(digest(&a), digest(&other));
    }

    /// The round trip the corpus gates rely on: generate, solve, audit,
    /// then drive a random required-gain walk through a `DeltaSession` —
    /// after every edit the warm re-solve must match a cold oracle solve of
    /// the patched requirement and pass the audit.
    #[test]
    fn edit_sequences_match_cold_oracle(p in params(), seq in edits()) {
        let w = try_generate(p).expect("non-degenerate params must generate");
        let base = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[0]));
        let mut session = match DeltaSession::new(
            Arc::clone(&w.instance),
            Arc::clone(&w.imps),
            base,
        ) {
            Ok(s) => s,
            Err(CoreError::NoImps) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{p:?}: formulation {e}"))),
        };
        let first = session.resolve();
        let reference = cold(&session);
        match (&first, &reference) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.chosen(), b.chosen(), "initial resolve diverged at {:?}", p);
            }
            (Err(CoreError::Infeasible { .. }), Err(CoreError::Infeasible { .. })) => {}
            other => return Err(TestCaseError::fail(format!("{p:?}: initial {other:?}"))),
        }
        for (i, spec) in seq.iter().enumerate() {
            session
                .apply(resolve_edit(spec, &w.rg_sweep))
                .map_err(|e| TestCaseError::fail(format!("{p:?}: SetRg patch {e}")))?;
            let warm = session.resolve();
            let oracle = cold(&session);
            let ctx = format!("{p:?}, edit {i} ({spec:?})");
            match (&warm, &oracle) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.chosen(), b.chosen(), "{}: chosen diverged", ctx);
                    prop_assert_eq!(a.total_area(), b.total_area(), "{}: area diverged", ctx);
                    prop_assert_eq!(&a.status, &b.status, "{}: status diverged", ctx);
                    let report = partita::core::SelectionAuditor::new(
                        session.instance(),
                        session.db(),
                    )
                    .audit(a, session.options());
                    prop_assert!(report.is_clean(), "{}: audit {}", ctx, report.to_json());
                }
                (
                    Err(CoreError::Infeasible { .. } | CoreError::NoImps),
                    Err(CoreError::Infeasible { .. } | CoreError::NoImps),
                ) => {}
                other => return Err(TestCaseError::fail(format!("{ctx}: {other:?}"))),
            }
        }
    }
}

/// Degenerate parameter vectors refuse with the typed error, never a panic
/// or a silently empty instance — the contract the corpus builder relies
/// on when presets are edited.
#[test]
fn degenerate_params_refuse_with_typed_errors() {
    let base = SynthParams::small();
    let err = |p: SynthParams| try_generate(p).map(|_| ()).unwrap_err();
    assert_eq!(
        err(SynthParams { scalls: 0, ..base }),
        SynthError::ZeroSCalls
    );
    assert_eq!(err(SynthParams { ips: 0, ..base }), SynthError::ZeroIps);
    assert_eq!(err(SynthParams { paths: 0, ..base }), SynthError::ZeroPaths);
    assert_eq!(
        err(SynthParams {
            imp_fanout: 0,
            ..base
        }),
        SynthError::ZeroFanout
    );
}
