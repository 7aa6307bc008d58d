//! Contracts of the benchsuite report: stable serialization, lossless
//! round-trips, a strict parser, and a compare gate that passes on itself
//! and fails on injected regressions.

use std::sync::OnceLock;

use partita_bench::suite::{compare_reports, fig9_workload, run_suite, SuiteReport};
use partita_core::telemetry::json::JsonValue;
use partita_core::{RequiredGains, SolveOptions};

/// The quick suite report, built once and shared by every test.
fn quick_report() -> &'static SuiteReport {
    static REPORT: OnceLock<SuiteReport> = OnceLock::new();
    REPORT.get_or_init(|| run_suite(true))
}

#[test]
fn quick_suite_report_parses_with_sorted_keys() {
    let rendered = quick_report().to_json();
    let doc = JsonValue::parse(&rendered).expect("report is valid JSON");
    assert_eq!(doc.get("schema").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(
        doc.get("suite").and_then(JsonValue::as_str),
        Some("partita-benchsuite")
    );
    let keys = doc
        .get("configs")
        .and_then(JsonValue::keys)
        .expect("configs object");
    assert_eq!(
        keys,
        ["fig9:chained", "fig9:cold", "table3:chained", "table3:cold"]
    );
    for key in keys {
        let cfg = doc.get("configs").unwrap().get(key).unwrap();
        assert!(cfg.get("machine").is_none(), "{key}: no machine section");
        assert!(
            cfg.get("nodes").and_then(JsonValue::as_u64).is_some(),
            "{key}: nodes"
        );
        assert!(
            cfg.get("ops").and_then(JsonValue::keys).is_some(),
            "{key}: ops"
        );
    }
}

#[test]
fn report_round_trips_through_json() {
    let report = quick_report();
    let parsed = SuiteReport::from_json(&report.to_json()).expect("round-trip parses");
    assert_eq!(&parsed, report);
}

#[test]
fn reports_missing_a_field_or_section_fail_to_parse() {
    let rendered = quick_report().to_json();

    // A config without its ops object.
    let start = rendered.find(", \"ops\": {").expect("configs carry ops");
    let end = start + rendered[start..].find('}').expect("ops object closes") + 1;
    let no_ops = format!("{}{}", &rendered[..start], &rendered[end..]);
    let err = SuiteReport::from_json(&no_ops).expect_err("a config without ops");
    assert_eq!(err, "configs/fig9:chained: missing ops");

    // A report without its corpus section.
    let corpus = rendered.find(",\n  \"corpus\"").expect("corpus section");
    let service = rendered.find(",\n  \"service\"").expect("service section");
    let no_corpus = format!("{}{}", &rendered[..corpus], &rendered[service..]);
    let err = SuiteReport::from_json(&no_corpus).expect_err("a report without corpus");
    assert_eq!(err, "missing corpus");

    // A report without its service section.
    let no_service = format!("{}\n}}\n", &rendered[..service]);
    let err = SuiteReport::from_json(&no_service).expect_err("a report without service");
    assert_eq!(err, "missing service");
}

#[test]
fn compare_passes_against_itself() {
    let report = quick_report();
    assert_eq!(compare_reports(report, report), Vec::<String>::new());
}

#[test]
fn compare_flags_injected_regressions() {
    let baseline = quick_report();
    // Node regression: the current run explores one more node than baseline
    // (on a cold config, so the chained-vs-cold gate stays quiet).
    let mut current = baseline.clone();
    let key = current.configs[1].0.clone();
    assert!(key.ends_with(":cold"), "{key}");
    current.configs[1].1.nodes += 1;
    let regressions = compare_reports(baseline, &current);
    assert_eq!(regressions.len(), 1, "{regressions:?}");
    assert!(regressions[0].starts_with(&key));
    assert!(regressions[0].contains("node count regressed"));

    // Portable drift: a selection changed area.
    let mut current = baseline.clone();
    current.configs[2].1.points[0].area_tenths += 1;
    let regressions = compare_reports(baseline, &current);
    assert_eq!(regressions.len(), 1, "{regressions:?}");
    assert!(regressions[0].contains("portable selection results drifted"));

    // Missing config (a chained one: table3 keeps the aggregate chaining
    // gate satisfied, so the only finding is the missing key).
    let mut current = baseline.clone();
    current.configs.remove(0);
    let regressions = compare_reports(baseline, &current);
    assert_eq!(regressions.len(), 1, "{regressions:?}");
    assert!(regressions[0].contains("config missing"));
}

#[test]
fn chained_configs_save_nodes_and_gate_regressions() {
    let baseline = quick_report();
    let config = |report: &SuiteReport, key: &str| -> usize {
        report
            .configs
            .iter()
            .position(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("quick report has {key}"))
    };
    let chained = config(baseline, "table3:chained");
    let cold = config(baseline, "table3:cold");
    let (c, f) = (&baseline.configs[chained].1, &baseline.configs[cold].1);
    assert!(
        c.nodes < f.nodes,
        "chaining must save nodes on table3 ({} !< {})",
        c.nodes,
        f.nodes
    );
    assert!(
        c.cache.basis_reused >= 1,
        "descending SetRg patches must repair the retained basis"
    );
    assert_eq!(f.cache.basis_reused, 0, "a cold sweep holds no basis");

    // Basis-repair drift is portable cache drift.
    let mut current = baseline.clone();
    current.configs[chained].1.cache.basis_reused += 1;
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("portable cache counters drifted")),
        "{regressions:?}"
    );

    // A chained sweep that costs nodes against its cold twin fails the
    // self-contained gate even if the baseline agreed.
    let mut current = baseline.clone();
    current.configs[chained].1.nodes = f.nodes + 1;
    let regressions = compare_reports(&current, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("chaining cost nodes")),
        "{regressions:?}"
    );

    // Chained sweeps that save nothing in aggregate fail too.
    let mut current = baseline.clone();
    current.configs[chained].1.nodes = f.nodes;
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("strictly fewer nodes in aggregate")),
        "{regressions:?}"
    );
}

#[test]
fn corpus_section_covers_quick_groups_and_gates_regressions() {
    let baseline = quick_report();
    // Quick mode runs one optimal group and one heuristic group.
    let keys: Vec<&str> = baseline.corpus.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["synth:small", "synth:table"]);
    for (key, c) in &baseline.corpus {
        assert!(c.entries > 0, "{key}: empty corpus group");
        assert_eq!(
            c.solved + c.infeasible,
            c.entries,
            "{key}: every entry is either solved or typed-infeasible"
        );
        assert!(c.solved > 0, "{key}: no entry solved at mid-sweep");
    }
    let small = &baseline.corpus[0].1;
    let table = &baseline.corpus[1].1;
    assert!(
        small.nodes > 0,
        "synth:small runs branch-and-bound, so nodes are counted"
    );
    assert_eq!(
        table.nodes, 0,
        "synth:table runs greedy, which explores no nodes"
    );

    // A corpus group the baseline had must not vanish.
    let mut current = baseline.clone();
    current.corpus.remove(1);
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("corpus/synth:table") && m.contains("missing")),
        "{regressions:?}"
    );

    // Feasibility split drift is a regression.
    let mut current = baseline.clone();
    current.corpus[0].1.solved -= 1;
    current.corpus[0].1.infeasible += 1;
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("entry/feasibility tallies drifted")),
        "{regressions:?}"
    );

    // Selection-quality drift is a regression.
    let mut current = baseline.clone();
    current.corpus[0].1.gain += 1;
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("portable selection quality drifted")),
        "{regressions:?}"
    );

    // Node growth is a regression; node savings are not.
    let mut current = baseline.clone();
    current.corpus[0].1.nodes += 1;
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("corpus/synth:small") && m.contains("node count regressed")),
        "{regressions:?}"
    );
    let mut current = baseline.clone();
    current.corpus[0].1.nodes = current.corpus[0].1.nodes.saturating_sub(1);
    assert!(compare_reports(baseline, &current).is_empty());
}

#[test]
fn fig9_workload_reproduces_the_problem2_advantage() {
    use partita_core::{ProblemKind, Solver};
    use partita_mop::Cycles;
    let w = fig9_workload();
    let rg = RequiredGains::uniform(Cycles(1500));
    let solve = |problem| {
        Solver::new(&w.instance)
            .with_imps(w.imps.clone())
            .solve(&SolveOptions::for_problem(problem, rg.clone()))
            .expect("fig9 feasible")
    };
    let p1 = solve(ProblemKind::Problem1);
    let p2 = solve(ProblemKind::Problem2);
    assert!(
        p2.total_area() < p1.total_area(),
        "Problem 2 must beat Problem 1 on the Fig. 9 instance"
    );
}

#[test]
fn service_section_shares_the_cache_and_gates_regressions() {
    let baseline = quick_report();
    // Quick mode drives the micro group through the daemon core.
    let keys: Vec<&str> = baseline.service.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["synth:micro"]);
    let s = &baseline.service[0].1;
    assert_eq!(s.ok, s.requests, "every scripted request must succeed");
    assert_eq!(
        s.cache_hits * 2,
        s.requests,
        "the second tenant's pass must be answered from the shared cache"
    );
    assert_eq!(s.degraded, 0, "the benchmark policy never degrades");

    // Portable drift in the service section is a regression.
    let mut current = baseline.clone();
    current.service[0].1.cache_hits -= 1;
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("portable service tallies drifted")),
        "{regressions:?}"
    );

    // A service group the baseline had must not vanish.
    let mut current = baseline.clone();
    current.service.clear();
    let regressions = compare_reports(baseline, &current);
    assert!(
        regressions
            .iter()
            .any(|m| m.contains("service/synth:micro: group missing")),
        "{regressions:?}"
    );
}
