//! Property tests for the incremental re-solve layer and the interval cache
//! rule.
//!
//! A `DeltaSession` driven by a random required-gain walk must agree with
//! a cold solve of the patched requirement at every step — same chosen
//! IMPs, same area, same optimality status, and a clean independent audit.
//!
//! Every entry point that answers from stored proofs — `DeltaSession`,
//! `SweepSession::{sweep, solve}` and the daemon's `ServiceCore` — must
//! answer every point of a random requirement set, walked in ascending,
//! descending or shuffled order, with the very bytes (`serialize_selection`
//! of `tests/common`, the daemon's `selection_digest`) that an uncapped cold
//! `Solver::solve` of that point returns, under Problems 1 and 2, uniform
//! and per-path gains, on general and on tie-prone instances (equally
//! cheap optima, which the lexicographic tie-break decides); and the rule
//! must actually serve some point at a requirement other than the one its
//! answer was solved at.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use partita_core::api::selection_digest;
use partita_core::telemetry::{EventKind, RecordingSink, TelemetrySink};
use partita_core::{
    delta::{DeltaSession, InstanceDelta},
    CoreError, Imp, ImpDb, Instance, OptimalityStatus, ParallelChoice, ProblemKind, RequiredGains,
    SCall, Selection, SelectionAuditor, SolveOptions, Solver, SweepSession,
};
use partita_interface::{InterfaceKind, TransferJob};
use partita_ip::{IpBlock, IpFunction, IpId};
use partita_mop::{AreaTenths, CallSiteId, Cycles, PathId};
use partita_service::{ServiceConfig, ServiceCore};
use partita_workloads::corpus;

#[derive(Debug, Clone)]
struct SmallInstance {
    ip_areas: Vec<i64>,
    /// (scall, ip, gain, interface tenths, interface kind)
    imps: Vec<(u32, u32, u64, i64, u8)>,
    required: u64,
}

const KINDS: [InterfaceKind; 4] = [
    InterfaceKind::Type0,
    InterfaceKind::Type1,
    InterfaceKind::Type2,
    InterfaceKind::Type3,
];

fn small_instance() -> impl Strategy<Value = SmallInstance> {
    (
        proptest::collection::vec(1i64..20, 2..4),
        proptest::collection::vec((0u32..4, 0u32..3, 1u64..200, 0i64..10, 0u8..4), 2..8),
        0u64..400,
    )
        .prop_map(|(ip_areas, mut imps, required)| {
            let n_ips = ip_areas.len() as u32;
            for imp in &mut imps {
                imp.1 %= n_ips;
            }
            SmallInstance {
                ip_areas,
                imps,
                required,
            }
        })
}

/// A random required-gain walk. Zero, where every gain row is redundant,
/// is drawn as often as the whole nonzero range.
fn rg_walk() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![Just(0u64), 0u64..500], 1..6)
}

fn build(si: &SmallInstance) -> (Instance, ImpDb) {
    let mut inst = Instance::new("prop-delta");
    for (i, &a) in si.ip_areas.iter().enumerate() {
        inst.library.add(
            IpBlock::builder(format!("ip{i}"))
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(a))
                .build(),
        );
    }
    for sc in 0..4u32 {
        inst.add_scall(SCall::new(
            format!("f{sc}"),
            IpFunction::Fir,
            Cycles(1000),
            TransferJob::new(8, 8),
        ));
    }
    inst.add_path((0..4).map(CallSiteId).collect());
    let imps = si
        .imps
        .iter()
        .map(|&(sc, ip, gain, tenths, kind)| {
            Imp::new(
                CallSiteId(sc),
                vec![IpId(ip)],
                KINDS[kind as usize % KINDS.len()],
                Cycles(gain),
                AreaTenths::from_tenths(tenths),
                ParallelChoice::None,
            )
        })
        .collect();
    (inst, ImpDb::from_imps(imps))
}

/// Cold oracle: a fresh solver over the session's instance and database
/// at its current requirement.
fn cold(session: &DeltaSession) -> Result<Selection, CoreError> {
    Solver::new(session.instance())
        .with_imps(Arc::clone(session.db()))
        .solve(session.options())
}

fn assert_agrees(warm: &Result<Selection, CoreError>, session: &DeltaSession, ctx: &str) {
    let reference = cold(session);
    match (warm, &reference) {
        (Ok(w), Ok(c)) => {
            assert_eq!(w.chosen(), c.chosen(), "{ctx}: chosen IMPs diverged");
            assert_eq!(w.total_area(), c.total_area(), "{ctx}: area diverged");
            assert_eq!(w.status, c.status, "{ctx}: status diverged");
            let report =
                SelectionAuditor::new(session.instance(), session.db()).audit(w, session.options());
            assert!(
                report.is_clean(),
                "{ctx}: audit violations {}",
                report.to_json()
            );
        }
        (Err(CoreError::Infeasible { .. }), Err(CoreError::Infeasible { .. })) => {}
        other => panic!("{ctx}: delta vs cold verdicts diverged: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random required-gain walk, resolved after every edit, matches
    /// a cold solve of the current requirement.
    #[test]
    fn delta_sequence_matches_cold_solve(si in small_instance(), walk in rg_walk()) {
        let (inst, db) = build(&si);
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(si.required)));
        let mut session = DeltaSession::new(inst, db, opts).unwrap();
        let first = session.resolve();
        assert_agrees(&first, &session, "initial resolve");
        for (i, rg) in walk.iter().enumerate() {
            session
                .apply(InstanceDelta::SetRg(RequiredGains::uniform(Cycles(*rg))))
                .unwrap();
            let warm = session.resolve();
            assert_agrees(&warm, &session, &format!("after SetRg {i} ({rg})"));
        }
    }
}

/// Selection bytes: `tests/common`'s `serialize_selection`, the form the
/// determinism contract compares.
fn serialize_selection(sel: &Selection) -> String {
    let mut out = format!(
        "objective={};area={};gain={};status={}\n",
        sel.objective,
        sel.total_area(),
        sel.total_gain().get(),
        sel.status
    );
    for imp in sel.chosen() {
        out.push_str(&format!("{imp:?}\n"));
    }
    for (path, gain) in &sel.gain_per_path {
        out.push_str(&format!("{path:?}={}\n", gain.get()));
    }
    out
}

/// A random instance for the rule: four s-calls over two function names
/// (so Problem 1 ties s-calls 0/2 and 1/3), the full path plus a random
/// second path, and IMPs that may run another s-call as software
/// parallel code (Problem 2 only).
#[derive(Debug, Clone)]
struct RuleInstance {
    ip_areas: Vec<i64>,
    /// (scall, ip, gain, interface tenths, interface kind, parallel code)
    imps: Vec<(u32, u32, u64, i64, u8, u8)>,
    /// S-calls of the second path, as a nonzero bit mask.
    second_path: u8,
}

fn rule_instance() -> impl Strategy<Value = RuleInstance> {
    (
        proptest::collection::vec(1i64..20, 1..4),
        proptest::collection::vec(
            (0u32..4, 0u32..3, 1u64..250, 0i64..10, 0u8..4, 0u8..4),
            2..9,
        ),
        1u8..16,
    )
        .prop_map(|(ip_areas, mut imps, second_path)| {
            let n_ips = ip_areas.len() as u32;
            for imp in &mut imps {
                imp.1 %= n_ips;
            }
            RuleInstance {
                ip_areas,
                imps,
                second_path,
            }
        })
}

/// A [`RuleInstance`] whose IMPs draw their gains and interface areas
/// from a few values over one or two equally priced IPs, so equally cheap
/// optima — the ties the lexicographic tie-break decides — are common.
fn tie_instance() -> impl Strategy<Value = RuleInstance> {
    (
        1usize..3,
        proptest::collection::vec((0u32..4, 0u32..2, 1u64..4, 0i64..2, 0u8..4, 0u8..4), 2..9),
        1u8..16,
    )
        .prop_map(|(n_ips, mut imps, second_path)| {
            for imp in &mut imps {
                imp.1 %= n_ips as u32;
                imp.2 *= 200;
            }
            RuleInstance {
                ip_areas: vec![3; n_ips],
                imps,
                second_path,
            }
        })
}

/// Three s-calls, each with one 600-cycle IMP on the same IP at the same
/// interface cost: at 500 and at 600 any one IMP is an optimum.
fn three_identical_imps() -> RuleInstance {
    RuleInstance {
        ip_areas: vec![3],
        imps: (0..3).map(|sc| (sc, 0, 600, 2, 1, 1)).collect(),
        second_path: 0b0111,
    }
}

fn build_rule(ri: &RuleInstance) -> (Instance, ImpDb) {
    let mut inst = Instance::new("prop-rule");
    for (i, &a) in ri.ip_areas.iter().enumerate() {
        inst.library.add(
            IpBlock::builder(format!("ip{i}"))
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(a))
                .build(),
        );
    }
    for sc in 0..4u32 {
        inst.add_scall(SCall::new(
            format!("f{}", sc % 2),
            IpFunction::Fir,
            Cycles(1000),
            TransferJob::new(8, 8),
        ));
    }
    inst.add_path((0..4).map(CallSiteId).collect());
    inst.add_path(
        (0..4u32)
            .filter(|sc| ri.second_path & (1 << sc) != 0)
            .map(CallSiteId)
            .collect(),
    );
    let imps = ri
        .imps
        .iter()
        .map(|&(sc, ip, gain, tenths, kind, parallel)| {
            // Only interface types 1 and 3 can run parallel code, as the
            // auditor checks.
            let (kind, parallel) = if parallel == 0 {
                let kind = [InterfaceKind::Type1, InterfaceKind::Type3][kind as usize % 2];
                (
                    kind,
                    ParallelChoice::SwScalls(vec![CallSiteId((sc + 1) % 4)]),
                )
            } else {
                (KINDS[kind as usize % KINDS.len()], ParallelChoice::None)
            };
            Imp::new(
                CallSiteId(sc),
                vec![IpId(ip)],
                kind,
                Cycles(gain),
                AreaTenths::from_tenths(tenths),
                parallel,
            )
        })
        .collect();
    (inst, ImpDb::from_imps(imps))
}

/// One requested point: `(kind, g0, g1)` — kind 0 or 1 asks `g0` on every
/// path, 2 asks `g0` on path 0 and `g1` on path 1, and 3 repeats the
/// previous point.
type PointSpec = (u8, u64, u64);

fn points() -> impl Strategy<Value = Vec<PointSpec>> {
    proptest::collection::vec((0u8..4, 0u64..700, 0u64..700), 1..8)
}

fn gains_of(specs: &[PointSpec]) -> Vec<RequiredGains> {
    let mut out: Vec<RequiredGains> = Vec::new();
    for &(kind, g0, g1) in specs {
        let gains = match (kind, out.last()) {
            (3, Some(prev)) => prev.clone(),
            (2, _) => RequiredGains::per_path([(PathId(0), Cycles(g0)), (PathId(1), Cycles(g1))]),
            _ => RequiredGains::uniform(Cycles(g0)),
        };
        out.push(gains);
    }
    out
}

/// Puts `items` in walk order: 0 ascending, 1 descending, otherwise
/// shuffled by `keys`.
fn walk_order<T: Clone>(
    items: &[T],
    key: impl Fn(&T) -> Vec<u64>,
    order: u8,
    keys: &[u64],
) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    match order {
        0 => idx.sort_by_key(|&i| key(&items[i])),
        1 => idx.sort_by_key(|&i| std::cmp::Reverse(key(&items[i]))),
        _ => idx.sort_by_key(|&i| keys.get(i).copied().unwrap_or(0)),
    }
    idx.into_iter().map(|i| items[i].clone()).collect()
}

/// The per-path requirement vector of `gains` on the two-path instances.
fn gain_key(gains: &RequiredGains) -> Vec<u64> {
    vec![
        gains.for_path(PathId(0)).get(),
        gains.for_path(PathId(1)).get(),
    ]
}

/// The cold oracle: an uncapped `Solver::solve` of one point.
fn cold_at(inst: &Instance, db: &ImpDb, options: &SolveOptions) -> Result<Selection, CoreError> {
    let sel = Solver::new(inst).with_imps(db.clone()).solve(options);
    if let Ok(sel) = &sel {
        assert_eq!(
            sel.status,
            OptimalityStatus::Optimal,
            "the oracle must finish"
        );
    }
    sel
}

/// Compares one entry point's answer with the cold one, byte for byte.
fn same(
    got: &Result<Selection, CoreError>,
    cold: &Result<Selection, CoreError>,
) -> Result<(), String> {
    match (got, cold) {
        (Ok(g), Ok(c)) if serialize_selection(g) == serialize_selection(c) => Ok(()),
        (Err(CoreError::Infeasible { .. }), Err(CoreError::Infeasible { .. })) => Ok(()),
        (g, c) => Err(format!(
            "answer {:?}, cold {:?}",
            g.as_ref().map(serialize_selection),
            c.as_ref().map(serialize_selection)
        )),
    }
}

/// Runs every library entry point over one random case and returns how
/// many points the rule served at a requirement no search in that entry
/// point had run at.
fn check_library_case(
    ri: &RuleInstance,
    specs: &[PointSpec],
    order: u8,
    keys: &[u64],
    problem: ProblemKind,
) -> Result<usize, String> {
    let (inst, db) = build_rule(ri);
    let walk = walk_order(&gains_of(specs), gain_key, order, keys);
    let at = |gains: &RequiredGains| SolveOptions::for_problem(problem, gains.clone());
    let cold: Vec<Result<Selection, CoreError>> =
        walk.iter().map(|g| cold_at(&inst, &db, &at(g))).collect();
    let mut served = 0;

    // DeltaSession: one patched model, searches counted by the telemetry
    // each search emits.
    let sink = Arc::new(RecordingSink::new());
    let mut ds = DeltaSession::new(inst.clone(), db.clone(), at(&walk[0]))
        .map_err(|e| e.to_string())?
        .with_sink(sink.clone() as Arc<dyn TelemetrySink>);
    let searches = || {
        sink.events()
            .iter()
            .filter(|e| e.kind() == EventKind::SolveFinished)
            .count()
    };
    let mut searched: HashSet<RequiredGains> = HashSet::new();
    for (gains, cold) in walk.iter().zip(&cold) {
        ds.apply(InstanceDelta::SetRg(gains.clone()))
            .map_err(|e| e.to_string())?;
        let before = searches();
        let got = ds.resolve();
        same(&got, cold).map_err(|e| format!("DeltaSession at {gains:?}: {e}"))?;
        if searches() > before {
            searched.insert(gains.clone());
        } else if got.is_ok() && !searched.contains(gains) {
            served += 1;
        }
    }

    // SweepSession::solve, point by point.
    let mut session = SweepSession::new();
    let mut solved: HashSet<RequiredGains> = HashSet::new();
    for (gains, cold) in walk.iter().zip(&cold) {
        let hits = session.trace().cache_hits;
        let got = session.solve(&inst, &db, &at(gains));
        same(&got, cold).map_err(|e| format!("SweepSession::solve at {gains:?}: {e}"))?;
        if session.trace().cache_hits == hits {
            solved.insert(gains.clone());
        } else if !solved.contains(gains) {
            served += 1;
        }
    }

    // SweepSession::sweep over the uniform points, in walk order.
    let uniform: Vec<(Cycles, &Result<Selection, CoreError>)> = walk
        .iter()
        .zip(&cold)
        .filter_map(|(g, c)| g.as_uniform().map(|rg| (rg, c)))
        .collect();
    if !uniform.is_empty() {
        let rgs: Vec<Cycles> = uniform.iter().map(|&(rg, _)| rg).collect();
        let mut session = SweepSession::new();
        match session.sweep(&inst, &db, &at(&RequiredGains::default()), &rgs) {
            Ok(sels) => {
                for (sel, &(rg, cold)) in sels.iter().zip(&uniform) {
                    same(&Ok(sel.clone()), cold)
                        .map_err(|e| format!("SweepSession::sweep at {}: {e}", rg.get()))?;
                }
                let mut seen: HashSet<Option<Cycles>> = HashSet::new();
                for p in &session.trace().points {
                    if p.cache_hit && !seen.contains(&p.rg) {
                        served += 1;
                    }
                    seen.insert(p.rg);
                }
            }
            Err(CoreError::Infeasible { .. })
                if uniform
                    .iter()
                    .any(|(_, c)| matches!(c, Err(CoreError::Infeasible { .. }))) => {}
            Err(e) => return Err(format!("SweepSession::sweep: {e}")),
        }
    }
    Ok(served)
}

/// Every library entry point answers a random case's points with the cold
/// bytes, on general instances, on tie-prone ones and on three identical
/// IMPs, and across the cases the rule serves points above the
/// requirement their answer was solved at.
#[test]
fn interval_answers_match_cold_solves() {
    const CASES: u32 = 96;
    let mut served = 0;
    for (name, instances) in [
        ("general", rule_instance().boxed()),
        ("tie-prone", tie_instance().boxed()),
    ] {
        let strategy = (
            instances,
            points(),
            0u8..3,
            proptest::collection::vec(0u64..1_000, 8),
            any::<bool>(),
        );
        let mut rng = TestRng::for_test(&format!(
            "proptest_delta::interval_answers_match_cold_solves::{name}"
        ));
        for case in 0..CASES {
            let (ri, specs, order, keys, p1) = strategy.new_value(&mut rng);
            let problem = if p1 {
                ProblemKind::Problem1
            } else {
                ProblemKind::Problem2
            };
            match check_library_case(&ri, &specs, order, &keys, problem) {
                Ok(n) => served += n,
                Err(e) => panic!(
                    "{name} case {case}: {e}\n    inputs: {:?}",
                    (ri, specs, order, keys, problem)
                ),
            }
        }
    }
    assert!(
        served > 0,
        "no point was served above its answer's requirement"
    );

    // Three identical IMPs tie at 500 and at 600: walked upward, the proof
    // at 500 serves 600, and the sweep equals the cold sweep point for
    // point.
    let ri = three_identical_imps();
    let specs = [(0, 500, 0), (0, 600, 0)];
    for problem in [ProblemKind::Problem1, ProblemKind::Problem2] {
        for order in 0..3 {
            let served =
                check_library_case(&ri, &specs, order, &[1, 0], problem).unwrap_or_else(|e| {
                    panic!("three identical IMPs, {problem:?}, order {order}: {e}")
                });
            if order == 0 {
                assert!(served > 0, "{problem:?}: the proof at 500 serves 600");
            }
        }
        let (inst, db) = build_rule(&ri);
        let base = SolveOptions::for_problem(problem, RequiredGains::default());
        let rgs = [Cycles(500), Cycles(600)];
        let swept = SweepSession::new().sweep(&inst, &db, &base, &rgs).unwrap();
        let cold = SweepSession::new()
            .sweep_cold(&inst, &db, &base, &rgs)
            .unwrap();
        let bytes = |sels: &[Selection]| sels.iter().map(serialize_selection).collect::<Vec<_>>();
        assert_eq!(bytes(&swept), bytes(&cold), "{problem:?}");
    }
}

/// The daemon's entry points — `sweep`, `delta`, `solve` and `batch` — over
/// random requirement sets of corpus instances, on one shared core: every
/// point's digest is the cold solve's.
#[test]
fn service_answers_match_cold_solves() {
    const CASES: u32 = 24;
    let entries: Vec<_> = corpus::manifest()
        .expect("manifest")
        .into_iter()
        .filter(|e| e.preset == "micro" || e.family == "viterbi")
        .collect();
    let strategy = (
        0usize..entries.len(),
        proptest::collection::vec((0u8..4, 0u64..1_000), 1..7),
        0u8..3,
        proptest::collection::vec(0u64..1_000, 7),
        any::<bool>(),
        0u8..4,
    );
    let mut rng = TestRng::for_test("proptest_delta::service_answers_match_cold_solves");
    let core = ServiceCore::new(ServiceConfig::default());
    let mut served = 0;
    let mut solved: HashSet<(String, bool, u64)> = HashSet::new();
    for case in 0..CASES {
        let (entry, picks, order, keys, p1, method) = strategy.new_value(&mut rng);
        let entry = &entries[entry];
        let w = entry.build().expect("corpus entry builds");
        let problem = if p1 { "problem1" } else { "problem2" };
        // Points: sweep values, and values between them, in thousandths of
        // the top of the sweep.
        let top = w.rg_sweep.iter().map(|c| c.get()).max().unwrap_or(0);
        let rgs: Vec<u64> = picks
            .iter()
            .map(|&(kind, frac)| match kind {
                0 | 1 => w.rg_sweep[frac as usize % w.rg_sweep.len()].get(),
                _ => top * frac / 1_000,
            })
            .collect();
        let rgs = walk_order(&rgs, |&rg| vec![rg], order, &keys);
        let list = rgs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let head = format!(r#""api_version":1,"id":"c{case}","tenant":"t{}""#, case % 3);
        let lines: Vec<String> = match method {
            0 | 1 => vec![format!(
                r#"{{{head},"method":"{}","instance":"{}","problem":"{problem}","rgs":[{list}]}}"#,
                if method == 0 { "sweep" } else { "delta" },
                entry.id
            )],
            2 => rgs
                .iter()
                .map(|rg| {
                    format!(
                        r#"{{{head},"method":"solve","instance":"{}","problem":"{problem}","rg":{rg}}}"#,
                        entry.id
                    )
                })
                .collect(),
            _ => {
                let jobs: Vec<String> = rgs
                    .iter()
                    .map(|rg| {
                        format!(r#"{{"instance":"{}","problem":"{problem}","rg":{rg}}}"#, entry.id)
                    })
                    .collect();
                vec![format!(r#"{{{head},"method":"batch","jobs":[{}]}}"#, jobs.join(","))]
            }
        };
        // (rg, digest, cache hit) per answered point; digests are read
        // off the reply text, since they exceed an f64's exact range.
        let mut answers: Vec<(u64, u64, bool)> = Vec::new();
        let mut errors = 0;
        for line in &lines {
            let reply = core.handle_line(line);
            errors += reply.matches("\"error\":").count();
            for point in reply.split("{\"rg\":").skip(1) {
                answers.push((
                    number_after(point, ""),
                    number_after(point, "\"digest\":"),
                    point.contains("\"cache_hit\":true"),
                ));
            }
        }
        let problem_kind = if p1 {
            ProblemKind::Problem1
        } else {
            ProblemKind::Problem2
        };
        if errors > 0 {
            // Only infeasibility is an honest error here.
            assert!(
                rgs.iter().any(|&rg| cold_at(
                    &w.instance,
                    &w.imps,
                    &SolveOptions::for_problem(problem_kind, RequiredGains::uniform(Cycles(rg)))
                )
                .is_err()),
                "case {case}: an error reply where every point is feasible"
            );
        }
        for &(rg, digest, hit) in &answers {
            let cold = cold_at(
                &w.instance,
                &w.imps,
                &SolveOptions::for_problem(problem_kind, RequiredGains::uniform(Cycles(rg))),
            )
            .unwrap_or_else(|e| panic!("case {case}: rg {rg} answered, cold {e}"));
            assert_eq!(
                digest,
                selection_digest(&cold),
                "case {case}: {} {problem} rg {rg} (hit {hit}) differs from the cold solve",
                entry.id
            );
            let key = (entry.id.clone(), p1, rg);
            if hit && !solved.contains(&key) {
                served += 1;
            }
            solved.insert(key);
        }
    }
    assert!(
        served > 0,
        "no daemon point was served above its answer's requirement"
    );
}

/// The unsigned integer that follows the first `marker` in `text`.
fn number_after(text: &str, marker: &str) -> u64 {
    let start = text.find(marker).expect("marker present") + marker.len();
    let digits: String = text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a number")
}
