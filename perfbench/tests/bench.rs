//! The benchmark's own tests: the printed metrics match `BENCHMARK.json`,
//! a wrong pinned answer shows up as a failure, and a seed always
//! generates the same inputs.

use partita_core::telemetry::json::JsonValue;
use partita_core::Solver;
use perfbench::daemon;
use perfbench::e2e::{emit, E2e};
use perfbench::explore::Explore;
use perfbench::inputs::{build, check, options, Pinned};
use perfbench::layers;
use perfbench::scale::Scale;
use perfbench::trace::Tracer;
use perfbench::util::{Report, Rng};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let items = doc
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array");
    let mut out: Vec<(String, String)> = items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn printed(report: &Report) -> Vec<(String, String)> {
    let line = report.to_json();
    let mut out: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| {
            let unit = format!("\"unit\": \"{}\"", m.unit);
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{line}"
            );
            assert!(line.contains(&unit), "{line}");
            (m.name.to_string(), m.unit.to_string())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let mut report = Report {
        attempted: 1,
        ..Report::default()
    };
    emit(&mut report, &[0.5], &E2e::default(), 1.0, None);
    assert_eq!(printed(&report), declared("end_to_end"));

    let mut report = Report {
        attempted: 1,
        ..Report::default()
    };
    layers::emit(&mut report, &Tracer::default(), &[]);
    assert_eq!(printed(&report), declared("per_layer"));
}

#[test]
fn a_wrong_pinned_digest_is_a_failure() {
    let mut pinned = Pinned::committed();
    let inst = build(&["table3".to_string()], &pinned)
        .expect("table3 rebuilds")
        .remove(0);
    let rg = inst.w.rg_sweep[0];
    let sel = Solver::new(&inst.w.instance)
        .with_imps(inst.w.imps.clone())
        .solve(&options(rg, 0))
        .expect("table3 solves");
    let mut report = Report::default();
    assert!(check(&mut report, &pinned, &inst, rg, 0, &sel));
    assert_eq!((report.attempted, report.failed), (1, 0));

    let key = ("table3".to_string(), rg.get(), 0);
    pinned.points.get_mut(&key).expect("point is pinned").digest ^= 1;
    check(&mut report, &pinned, &inst, rg, 0, &sel);
    assert_eq!((report.attempted, report.failed), (2, 1));
    assert!(report.to_json().contains("\"correct\": false"));

    // A point with no pinned answer is a failure too, never skipped.
    pinned.points.remove(&key);
    check(&mut report, &pinned, &inst, rg, 0, &sel);
    assert_eq!((report.attempted, report.failed), (3, 2));
}

#[test]
fn a_seed_always_generates_the_same_inputs() {
    let pinned = Pinned::committed();

    let explore = Explore::setup(&pinned).expect("explore pool builds");
    let rounds = |seed| {
        let mut rng = Rng::new(seed);
        (0..3).map(|_| explore.round(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(rounds(7), rounds(7));
    assert_ne!(rounds(7), rounds(8));

    let scale = Scale::setup(&pinned).expect("scale pool builds");
    assert_eq!(scale.pass(&mut Rng::new(7)), scale.pass(&mut Rng::new(7)));
    assert_ne!(scale.pass(&mut Rng::new(7)), scale.pass(&mut Rng::new(8)));

    let ids = |seed| daemon::pool_ids(&pinned, &mut Rng::new(seed));
    assert_eq!(ids(7), ids(7));
    assert_ne!(ids(7), ids(8));
    let pool = build(&ids(7), &pinned).expect("daemon pool builds");
    let plan = |seed| daemon::plan(&mut Rng::new(seed), &pool, 200.0, 2.0, 0);
    assert_eq!(plan(7), plan(7));
    assert_ne!(plan(7), plan(8));
}
