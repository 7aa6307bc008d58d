//! Schema-level contracts of the telemetry subsystem: every emitted line is
//! well-formed and documented, streams are reproducible under redaction,
//! and degraded solves (budget exhaustion, injected faults) still produce
//! valid streams.

use std::sync::Arc;

use partita::core::telemetry::json::JsonValue;
use partita::core::telemetry::{EventKind, JsonLinesSink, RecordingSink, Redaction, TelemetrySink};
use partita::core::{
    FaultPlan, RequiredGains, Selection, SolveBudget, SolveOptions, Solver, SweepSession,
};
use partita::workloads::{jpeg, Workload};

/// Asserts one rendered line is a complete JSON object carrying the schema
/// tag and a documented event kind, and returns the kind name.
fn check_line(line: &str) -> String {
    let doc = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_u64),
        Some(5),
        "{line}"
    );
    let kind = doc
        .get("event")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no event tag: {line}"))
        .to_string();
    assert!(
        EventKind::ALL.iter().any(|k| k.name() == kind),
        "undocumented event kind {kind}"
    );
    kind
}

fn solve_recorded(w: &Workload, options: &SolveOptions) -> (Arc<RecordingSink>, Selection) {
    let sink = Arc::new(RecordingSink::new());
    let sel = Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .with_sink(sink.clone() as Arc<dyn TelemetrySink>)
        .solve(options)
        .expect("workload point feasible");
    (sink, sel)
}

#[test]
fn solve_stream_is_schema_valid_and_complete() {
    let w = jpeg::encoder();
    let rg = w.rg_sweep[0];
    let opts = SolveOptions::problem2(RequiredGains::uniform(rg)).audit(true);
    let (sink, _) = solve_recorded(&w, &opts);
    let lines = sink.lines(Redaction::None);
    assert!(!lines.is_empty());
    let kinds: Vec<String> = lines.iter().map(|l| check_line(l)).collect();
    for expected in [
        "solve_started",
        "phase_finished",
        "audit_finished",
        "solve_finished",
    ] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing {expected} in {kinds:?}"
        );
    }
    // The pipeline runs four timed phases.
    assert_eq!(kinds.iter().filter(|k| *k == "phase_finished").count(), 4);
}

#[test]
fn serial_streams_are_byte_identical_under_timing_redaction() {
    let w = jpeg::encoder();
    let opts = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[1]));
    let (a, _) = solve_recorded(&w, &opts);
    let (b, _) = solve_recorded(&w, &opts);
    assert_eq!(
        a.lines(Redaction::Timing),
        b.lines(Redaction::Timing),
        "event streams must be byte-identical once timing is redacted"
    );
}

#[test]
fn budget_exhausted_stream_is_schema_valid() {
    let w = jpeg::encoder();
    // A one-node budget exhausts immediately; the default budget falls back
    // to the greedy backend, so the solve still completes.
    let opts = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[0]))
        .budget(SolveBudget::default().with_max_nodes(1));
    let (sink, sel) = solve_recorded(&w, &opts);
    let lines = sink.lines(Redaction::None);
    let kinds: Vec<String> = lines.iter().map(|l| check_line(l)).collect();
    assert!(kinds.iter().any(|k| k == "solve_finished"));
    let finished = lines
        .iter()
        .find(|l| l.contains("\"event\":\"solve_finished\""))
        .expect("solve_finished line");
    let doc = JsonValue::parse(finished).expect("valid solve_finished");
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some(sel.status.to_string()).as_deref(),
        "event status must match the returned selection"
    );
}

#[test]
fn fault_injected_stream_is_schema_valid() {
    let w = jpeg::encoder();
    let base = SolveOptions::problem2(RequiredGains::uniform(w.rg_sweep[0]));
    // Poison the warm-start hint and cap the search; distort() bakes the
    // faults into the options so the telemetry path sees a hostile run.
    let plan = FaultPlan::new()
        .node_cap(1)
        .poisoned_hint(vec![])
        .without_warm_start();
    let distorted = plan.distort(&base);
    let sink = Arc::new(RecordingSink::new());
    // The distorted solve may legitimately fail (1-node cap, and a greedy
    // rescue that may find nothing); either way every emitted line must
    // stay schema-valid.
    let _ = Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .with_sink(sink.clone() as Arc<dyn TelemetrySink>)
        .solve(&distorted);
    let lines = sink.lines(Redaction::None);
    assert!(!lines.is_empty(), "faulted runs still announce themselves");
    let kinds: Vec<String> = lines.iter().map(|l| check_line(l)).collect();
    assert_eq!(kinds[0], "solve_started");
}

/// The daemon's concurrent-writer pattern: several threads solving at once
/// into one shared [`JsonLinesSink`], released together by a barrier.
/// Every line must arrive whole.
#[test]
fn concurrent_batch_emits_no_torn_lines() {
    const THREADS: usize = 4;
    let w = jpeg::encoder();
    let sink = Arc::new(JsonLinesSink::new(Vec::new()));
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (w, sink, start) = (&w, Arc::clone(&sink), &start);
            s.spawn(move || {
                start.wait();
                for &rg in w.rg_sweep.iter().skip(t % 2) {
                    Solver::new(&w.instance)
                        .with_imps(w.imps.clone())
                        .with_sink(sink.clone() as Arc<dyn TelemetrySink>)
                        .solve(&SolveOptions::problem2(RequiredGains::uniform(rg)))
                        .expect("published sweep point feasible");
                }
            });
        }
    });
    let solves: usize = (0..THREADS).map(|t| w.rg_sweep.len() - t % 2).sum();
    let bytes = Arc::try_unwrap(sink)
        .expect("every solver dropped its sink handle")
        .into_inner();
    let text = String::from_utf8(bytes).expect("stream is valid UTF-8");
    assert!(text.ends_with('\n'), "stream ends with a complete line");
    let finished = text
        .lines()
        .filter(|line| check_line(line) == "solve_finished")
        .count();
    assert_eq!(finished, solves, "one intact solve_finished per solve");
}

#[test]
fn sweep_stream_covers_cache_and_chain_events() {
    let w = jpeg::encoder();
    let sink = Arc::new(RecordingSink::new());
    let mut session = SweepSession::new().with_sink(sink.clone() as Arc<dyn TelemetrySink>);
    session
        .sweep(&w.instance, &w.imps, &SolveOptions::default(), &w.rg_sweep)
        .expect("published sweep feasible");
    // Replay: answered from the cache, so more cache_lookup hits appear.
    session
        .sweep(&w.instance, &w.imps, &SolveOptions::default(), &w.rg_sweep)
        .expect("cached replay feasible");
    let lines = sink.lines(Redaction::None);
    let kinds: Vec<String> = lines.iter().map(|l| check_line(l)).collect();
    for expected in ["cache_lookup", "chain_decision", "sweep_point"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing {expected} in {kinds:?}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"cache\":\"solve\",\"hit\":true")),
        "replayed sweep must hit the solve cache"
    );
    // One cache (no model cache since schema 3), and one chain decision per
    // point below the top of the first sweep, made by the delta session
    // the sweep walks; the cached replay decides nothing.
    assert!(
        lines.iter().all(|l| !l.contains("\"cache\":\"model\"")),
        "no model-cache lookups since schema 3"
    );
    assert_eq!(
        kinds.iter().filter(|k| *k == "chain_decision").count(),
        w.rg_sweep.len() - 1
    );
}

#[test]
fn docs_cover_every_event_kind() {
    let doc = include_str!("../docs/TELEMETRY.md");
    for kind in EventKind::ALL {
        assert!(
            doc.contains(&format!("### `{}`", kind.name())),
            "docs/TELEMETRY.md has no section for event kind `{}`",
            kind.name()
        );
    }
    // And nothing documented that the code no longer emits.
    for line in doc.lines() {
        if let Some(name) = line.strip_prefix("### `").and_then(|l| l.strip_suffix('`')) {
            assert!(
                EventKind::ALL.iter().any(|k| k.name() == name),
                "docs/TELEMETRY.md documents unknown event kind `{name}`"
            );
        }
    }
    assert!(
        doc.contains("PARTITA_TRACE") && doc.contains("PARTITA_TRACE_PATH"),
        "sink configuration must be documented"
    );
}
