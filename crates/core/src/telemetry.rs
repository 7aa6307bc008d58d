//! Unified structured telemetry: typed events, pluggable sinks, phase spans.
//!
//! Paper reproductions live and die by *comparable* measurements, so every
//! JSON surface of the pipeline (solve traces, [`crate::SweepTrace`],
//! [`crate::AuditReport::to_json`]) goes through one **versioned event
//! schema**: every line the pipeline emits is a typed [`Event`] serialized
//! as a single JSON object tagged `{"schema":5,"event":"<kind>", ...}`.
//! The full field-level schema is documented in `docs/TELEMETRY.md`, which
//! is kept honest by a test diffing the doc's event list against
//! [`EventKind::ALL`].
//!
//! # Architecture
//!
//! * [`Event`] — the closed set of things the pipeline can report: solve
//!   lifecycle ([`Event::SolveStarted`] → [`Event::PhaseFinished`] →
//!   [`Event::SolveFinished`]), sweep-session activity
//!   ([`Event::CacheLookup`], [`Event::ChainDecision`],
//!   [`Event::SweepPoint`], …), audit results ([`Event::AuditFinished`]).
//! * [`TelemetrySink`] — where events go. [`NullSink`] drops them (and
//!   reports `enabled() == false`, so producers skip building events
//!   entirely — the zero-cost-when-disabled contract), [`JsonLinesSink`]
//!   writes one JSON line per event through a mutex (each line is a single
//!   `write_all`, so concurrent solves can never tear a line), and
//!   [`RecordingSink`] buffers typed events in memory for tests and the
//!   benchsuite.
//! * [`SpanTimer`] — a monotonic phase timer ([`std::time::Instant`]) that
//!   emits [`Event::PhaseFinished`] when finished.
//! * [`global`] — the process-wide default sink, configured once from the
//!   `PARTITA_TRACE` / `PARTITA_TRACE_PATH` environment variables;
//!   [`crate::Solver`], [`crate::SweepSession`] and
//!   [`crate::SelectionAuditor`] use it unless given an explicit sink.
//! * [`json`] — a dependency-free JSON parser used by the benchsuite's
//!   `--compare` mode and by the schema-validation tests (the workspace is
//!   offline: no serde).
//!
//! # Determinism and [`Redaction`]
//!
//! Solves are bit-deterministic, so two runs of the same workload produce
//! **byte-identical** event streams once wall-clock fields are redacted
//! ([`Redaction::Timing`]). The guarantee is locked by
//! `tests/telemetry_schema.rs`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use partita_core::telemetry::{EventKind, RecordingSink};
//! use partita_core::{Instance, SCall, Solver, SolveOptions, RequiredGains};
//! use partita_ip::{IpBlock, IpFunction};
//! use partita_interface::TransferJob;
//! use partita_mop::{AreaTenths, Cycles};
//!
//! # fn main() -> Result<(), partita_core::CoreError> {
//! let mut instance = Instance::new("demo");
//! instance.library.add(
//!     IpBlock::builder("fir16").function(IpFunction::Fir)
//!         .rates(4, 4).latency(8)
//!         .area(AreaTenths::from_units(3)).build(),
//! );
//! let sc = instance.add_scall(
//!     SCall::new("fir", IpFunction::Fir, Cycles(4000), TransferJob::new(160, 160)),
//! );
//! instance.add_path(vec![sc]);
//! let sink = Arc::new(RecordingSink::new());
//! Solver::new(&instance)
//!     .with_sink(sink.clone())
//!     .solve(&SolveOptions::problem2(RequiredGains::uniform(Cycles(1000))))?;
//! let events = sink.events();
//! assert_eq!(events.first().map(|e| e.kind()), Some(EventKind::SolveStarted));
//! assert_eq!(events.last().map(|e| e.kind()), Some(EventKind::SolveFinished));
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::engine::SolveTrace;
use crate::solver::ProblemKind;
use crate::Backend;

/// Version of the event schema. Every serialized event carries it as its
/// first field (`"schema":5`); bump it only with a matching update to
/// `docs/TELEMETRY.md` and the downstream scrapers.
pub const SCHEMA_VERSION: u32 = 5;

/// Escapes a string for embedding in a hand-rolled JSON document: quotes,
/// backslashes and control characters, per RFC 8259.
#[must_use]
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Which solve cache a [`Event::CacheLookup`] probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// A [`crate::SweepSession`]'s memoized-[`crate::Selection`] cache.
    Solve,
    /// The solve daemon's process-wide sharded canonical cache
    /// ([`crate::cache::ShardedLru`]), shared across tenants.
    Service,
}

impl CacheKind {
    /// The snake_case name serialized into the `cache` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CacheKind::Solve => "solve",
            CacheKind::Service => "service",
        }
    }
}

/// A named phase of the solve pipeline, timed by a [`SpanTimer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// [`crate::ImpDb::generate`] (zero-length when the db was prebuilt).
    ImpGeneration,
    /// Building the 0/1 ILP model.
    Formulation,
    /// The backend search (including any greedy rescue).
    Solve,
    /// Decoding the model solution into a [`crate::Selection`].
    Decode,
}

impl Phase {
    /// The snake_case name serialized into the `phase` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::ImpGeneration => "imp_generation",
            Phase::Formulation => "formulation",
            Phase::Solve => "solve",
            Phase::Decode => "decode",
        }
    }
}

/// How much run-specific noise to strip when serializing an [`Event`].
///
/// Used by the determinism tests and the benchsuite: wall-clock fields never
/// reproduce, everything else does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redaction {
    /// Serialize everything as recorded.
    #[default]
    None,
    /// Zero every wall-clock field (`*_us`). Two runs of the same workload
    /// then serialize byte-identically.
    Timing,
}

impl Redaction {
    fn us(self, d: Duration) -> u128 {
        match self {
            Redaction::None => d.as_micros(),
            Redaction::Timing => 0,
        }
    }
}

/// The kind tag of an [`Event`], without its payload.
///
/// [`EventKind::ALL`] enumerates every kind the pipeline can emit;
/// `docs/TELEMETRY.md` must document each one (a test diffs the doc against
/// this list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A [`crate::Solver::solve`] call entered the pipeline.
    SolveStarted,
    /// One pipeline [`Phase`] completed.
    PhaseFinished,
    /// A solve returned; carries the full [`SolveTrace`].
    SolveFinished,
    /// A [`crate::SelectionAuditor::audit`] pass completed.
    AuditFinished,
    /// A [`crate::SweepSession`] cache was probed.
    CacheLookup,
    /// The sweep loop decided whether to chain the previous optimum.
    ChainDecision,
    /// One sweep point was answered.
    SweepPoint,
    /// Aggregate counters of a recorded sweep (rendered retrospectively).
    SweepSummary,
    /// A cold-vs-chained sweep comparison (rendered retrospectively).
    SweepCompare,
}

impl EventKind {
    /// Every event kind, in the order they are documented.
    pub const ALL: [EventKind; 9] = [
        EventKind::SolveStarted,
        EventKind::PhaseFinished,
        EventKind::SolveFinished,
        EventKind::AuditFinished,
        EventKind::CacheLookup,
        EventKind::ChainDecision,
        EventKind::SweepPoint,
        EventKind::SweepSummary,
        EventKind::SweepCompare,
    ];

    /// The snake_case name serialized into the `event` field.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SolveStarted => "solve_started",
            EventKind::PhaseFinished => "phase_finished",
            EventKind::SolveFinished => "solve_finished",
            EventKind::AuditFinished => "audit_finished",
            EventKind::CacheLookup => "cache_lookup",
            EventKind::ChainDecision => "chain_decision",
            EventKind::SweepPoint => "sweep_point",
            EventKind::SweepSummary => "sweep_summary",
            EventKind::SweepCompare => "sweep_compare",
        }
    }
}

/// One structured telemetry event.
///
/// Producers build events only when the receiving sink is
/// [`TelemetrySink::enabled`]; serialization happens in the sink (or in the
/// retrospective renderers), never on the hot path of a disabled run.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A solve entered the pipeline.
    SolveStarted {
        /// Display name of the instance being solved.
        instance: String,
        /// Which formulation ([`ProblemKind`]).
        problem: ProblemKind,
        /// The backend the options requested (the accepted solution's
        /// backend — after any greedy rescue — is in [`Event::SolveFinished`]).
        backend: Backend,
    },
    /// One pipeline phase completed.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Monotonic wall time of the phase.
        wall: Duration,
    },
    /// A solve returned.
    SolveFinished {
        /// The complete end-to-end trace of the call.
        trace: SolveTrace,
    },
    /// An audit pass completed.
    AuditFinished {
        /// Whether the audit found no violations.
        clean: bool,
        /// Number of violations found.
        violations: usize,
        /// Independent checks executed.
        checks_run: usize,
        /// Chosen IMPs audited.
        imps_audited: usize,
        /// Execution paths audited.
        paths_audited: usize,
        /// Whether per-path gains were re-derived from the timing model.
        gain_rederived: bool,
    },
    /// A solve cache was probed.
    CacheLookup {
        /// Which cache.
        cache: CacheKind,
        /// Whether the probe hit.
        hit: bool,
        /// FNV-1a 64 digest of the canonical cache key.
        digest: u64,
    },
    /// A [`crate::DeltaSession::resolve`] decided whether to seed the
    /// previous optimum into the patched problem as a warm-start incumbent.
    /// Emitted once per resolve that *has* a predecessor (every chained
    /// sweep point below the first solved one); `accepted == false` means
    /// the independent feasibility check rejected the carry-over.
    ChainDecision {
        /// The next point's uniform required gain, when uniform.
        rg: Option<u64>,
        /// Whether the previous optimum was accepted as a seed.
        accepted: bool,
    },
    /// One sweep point was answered.
    SweepPoint {
        /// Sweep label (`None` for live emission; the retrospective
        /// [`crate::SweepTrace::json_lines`] renderer fills it in).
        sweep: Option<String>,
        /// Index within the labelled sweep (`None` for live emission).
        point: Option<usize>,
        /// FNV-1a 64 digest of the canonical solve key.
        digest: u64,
        /// The point's uniform required gain, when uniform.
        rg: Option<u64>,
        /// Whether the solve cache answered without running a solver.
        cache_hit: bool,
        /// Whether a chained warm-start incumbent was injected.
        chained: bool,
        /// Branch-and-bound nodes explored (0 on a cache hit).
        nodes: usize,
        /// Wall time of the point, cache lookups included.
        wall: Duration,
    },
    /// Aggregate counters of a recorded sweep.
    SweepSummary {
        /// Sweep label.
        sweep: String,
        /// Points recorded.
        points: usize,
        /// Requests answered from the solve cache.
        cache_hits: u64,
        /// Requests that ran a solver.
        cache_misses: u64,
        /// Points seeded with the previous point's verified optimum.
        chained_accepts: u64,
        /// Points whose carry-over candidate failed the feasibility check.
        chained_rejects: u64,
        /// Total nodes across all points.
        nodes: u64,
        /// Total wall time across all points.
        wall: Duration,
    },
    /// A cold-vs-chained sweep comparison.
    SweepCompare {
        /// Sweep label.
        sweep: String,
        /// Total nodes of the cold (unchained) sweep.
        cold_nodes: u64,
        /// Total nodes of the chained sweep.
        chained_nodes: u64,
        /// `cold_nodes - chained_nodes` (negative if chaining cost nodes).
        nodes_saved: i64,
        /// Chained points seeded from a predecessor.
        chained_accepts: u64,
        /// Total wall time of the cold sweep.
        cold_wall: Duration,
        /// Total wall time of the chained sweep.
        chained_wall: Duration,
    },
}

/// Incremental writer for one serialized event. Field order is the schema's
/// documented order; every `push_*` call appends `,"key":value`.
struct EventWriter {
    buf: String,
}

impl EventWriter {
    fn new(kind: EventKind) -> EventWriter {
        EventWriter {
            buf: format!(
                "{{\"schema\":{SCHEMA_VERSION},\"event\":\"{}\"",
                kind.name()
            ),
        }
    }

    fn raw(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = write!(self.buf, ",\"{key}\":{value}");
    }

    fn string(&mut self, key: &str, value: &str) {
        let _ = write!(self.buf, ",\"{key}\":\"{}\"", json_escape(value));
    }

    fn opt_u64(&mut self, key: &str, value: Option<u64>) {
        match value {
            Some(v) => self.raw(key, v),
            None => self.raw(key, "null"),
        }
    }

    fn opt_str(&mut self, key: &str, value: Option<&str>) {
        match value {
            Some(v) => self.string(key, v),
            None => self.raw(key, "null"),
        }
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Event {
    /// The kind tag of this event.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::SolveStarted { .. } => EventKind::SolveStarted,
            Event::PhaseFinished { .. } => EventKind::PhaseFinished,
            Event::SolveFinished { .. } => EventKind::SolveFinished,
            Event::AuditFinished { .. } => EventKind::AuditFinished,
            Event::CacheLookup { .. } => EventKind::CacheLookup,
            Event::ChainDecision { .. } => EventKind::ChainDecision,
            Event::SweepPoint { .. } => EventKind::SweepPoint,
            Event::SweepSummary { .. } => EventKind::SweepSummary,
            Event::SweepCompare { .. } => EventKind::SweepCompare,
        }
    }

    /// Serializes the event as one JSON object with no redaction.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_redacted(Redaction::None)
    }

    /// Serializes the event as one JSON object, stripping run-specific noise
    /// per `redaction` (see [`Redaction`]). Field order is fixed per kind —
    /// the documented schema order — regardless of redaction.
    #[must_use]
    pub fn to_json_redacted(&self, redaction: Redaction) -> String {
        let r = redaction;
        let mut w = EventWriter::new(self.kind());
        match self {
            Event::SolveStarted {
                instance,
                problem,
                backend,
            } => {
                w.string("instance", instance);
                w.string("problem", problem.name());
                w.string("backend", &backend.to_string());
            }
            Event::PhaseFinished { phase, wall } => {
                w.string("phase", phase.name());
                w.raw("wall_us", r.us(*wall));
            }
            Event::SolveFinished { trace } => {
                w.string("backend", &trace.backend.to_string());
                w.string("status", &trace.status.to_string());
                w.raw("num_vars", trace.num_vars);
                w.raw("num_constraints", trace.num_constraints);
                w.raw("num_imps", trace.num_imps);
                w.raw("nodes_explored", trace.nodes_explored);
                w.raw("nodes_pruned", trace.nodes_pruned);
                w.raw("incumbent_updates", trace.incumbent_updates);
                w.raw("simplex_iterations", trace.simplex_iterations);
                w.raw("phase1_pivots", trace.phase1_pivots);
                w.raw("phase2_pivots", trace.phase2_pivots);
                w.raw("dual_pivots", trace.dual_pivots);
                w.raw("lex_pivots", trace.lex_pivots);
                w.raw("tableau_builds", trace.tableau_builds);
                w.raw("scratch_reuses", trace.scratch_reuses);
                w.raw("bland_activations", trace.bland_activations);
                w.raw("warm_start_accepted", trace.warm_start_accepted);
                w.raw("vars_fixed", trace.vars_fixed);
                w.raw("probes_screened", trace.probes_screened);
                w.raw("probes_warm", trace.probes_warm);
                w.raw("probes_cold", trace.probes_cold);
                w.raw("basis_reused", trace.basis_reused);
                w.raw("imp_generation_us", r.us(trace.imp_generation));
                w.raw("formulation_us", r.us(trace.formulation));
                w.raw("solve_us", r.us(trace.solve));
                w.raw("decode_us", r.us(trace.decode));
                w.raw("total_us", r.us(trace.total()));
            }
            Event::AuditFinished {
                clean,
                violations,
                checks_run,
                imps_audited,
                paths_audited,
                gain_rederived,
            } => {
                w.raw("clean", clean);
                w.raw("violations", violations);
                w.raw("checks_run", checks_run);
                w.raw("imps_audited", imps_audited);
                w.raw("paths_audited", paths_audited);
                w.raw("gain_rederived", gain_rederived);
            }
            Event::CacheLookup { cache, hit, digest } => {
                w.string("cache", cache.name());
                w.raw("hit", hit);
                w.string("digest", &format!("{digest:016x}"));
            }
            Event::ChainDecision { rg, accepted } => {
                w.opt_u64("rg", *rg);
                w.raw("accepted", accepted);
            }
            Event::SweepPoint {
                sweep,
                point,
                digest,
                rg,
                cache_hit,
                chained,
                nodes,
                wall,
            } => {
                w.opt_str("sweep", sweep.as_deref());
                w.opt_u64("point", point.map(|p| p as u64));
                w.string("digest", &format!("{digest:016x}"));
                w.opt_u64("rg", *rg);
                w.raw("cache_hit", cache_hit);
                w.raw("chained", chained);
                w.raw("nodes", nodes);
                w.raw("wall_us", r.us(*wall));
            }
            Event::SweepSummary {
                sweep,
                points,
                cache_hits,
                cache_misses,
                chained_accepts,
                chained_rejects,
                nodes,
                wall,
            } => {
                w.string("sweep", sweep);
                w.raw("points", points);
                w.raw("cache_hits", cache_hits);
                w.raw("cache_misses", cache_misses);
                w.raw("chained_accepts", chained_accepts);
                w.raw("chained_rejects", chained_rejects);
                w.raw("nodes", nodes);
                w.raw("wall_us", r.us(*wall));
            }
            Event::SweepCompare {
                sweep,
                cold_nodes,
                chained_nodes,
                nodes_saved,
                chained_accepts,
                cold_wall,
                chained_wall,
            } => {
                w.string("sweep", sweep);
                w.raw("cold_nodes", cold_nodes);
                w.raw("chained_nodes", chained_nodes);
                w.raw("nodes_saved", nodes_saved);
                w.raw("chained_accepts", chained_accepts);
                w.raw("cold_wall_us", r.us(*cold_wall));
                w.raw("chained_wall_us", r.us(*chained_wall));
            }
        }
        w.finish()
    }
}

/// Where telemetry events go.
///
/// Implementations must be safe to share across the daemon's worker
/// threads (`Send + Sync`); [`TelemetrySink::emit`] may be called
/// concurrently. Producers check [`TelemetrySink::enabled`] before building
/// an event, so a disabled sink costs one virtual call per site and no
/// allocation.
pub trait TelemetrySink: Send + Sync {
    /// Receives one event.
    fn emit(&self, event: &Event);

    /// Whether producers should bother building events at all. The default
    /// is `true`; [`NullSink`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The disabled sink: drops everything and reports [`TelemetrySink::enabled`]
/// `== false`, so producers skip event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Serializes each event as one JSON line into a [`Write`] target.
///
/// The writer is mutex-guarded and every line (newline included) is a single
/// `write_all`, so events from concurrent solves interleave only at line
/// granularity — a stream can never contain a torn line. Write errors are
/// deliberately swallowed: telemetry must never fail a solve.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<W: Write + Send> TelemetrySink for JsonLinesSink<W> {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writer.write_all(line.as_bytes());
    }
}

/// Buffers typed events in memory — the sink the tests and the benchsuite
/// use to assert on streams without parsing.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// An empty recording sink.
    #[must_use]
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// A snapshot of the recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Serializes every recorded event under `redaction`, one JSON line per
    /// event, in emission order.
    #[must_use]
    pub fn lines(&self, redaction: Redaction) -> Vec<String> {
        self.lock()
            .iter()
            .map(|e| e.to_json_redacted(redaction))
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl TelemetrySink for RecordingSink {
    fn emit(&self, event: &Event) {
        self.lock().push(event.clone());
    }
}

/// The process-wide default sink, configured once from the environment:
///
/// * `PARTITA_TRACE` — `stderr` (or `1`/`true`/`on`) streams JSON lines to
///   stderr; `stdout` to stdout; `file` to `PARTITA_TRACE_PATH` (default
///   `partita-trace.jsonl`); unset/`0`/`false`/`off` disables tracing.
/// * `PARTITA_TRACE_PATH` — target path; setting it alone implies `file`.
///
/// An unopenable trace file degrades to the [`NullSink`] — telemetry must
/// never fail a solve. Like `PARTITA_AUDIT`, the variables
/// are read once; later changes do not take effect in-process.
#[must_use]
pub fn global() -> &'static dyn TelemetrySink {
    static SINK: OnceLock<Box<dyn TelemetrySink>> = OnceLock::new();
    SINK.get_or_init(|| {
        let mode = std::env::var("PARTITA_TRACE").unwrap_or_default();
        let mode = mode.trim().to_ascii_lowercase();
        let path = std::env::var("PARTITA_TRACE_PATH").ok();
        let off = matches!(mode.as_str(), "" | "0" | "false" | "off");
        match (off, mode.as_str(), &path) {
            (true, _, None) => Box::new(NullSink) as Box<dyn TelemetrySink>,
            (_, "stdout", _) => Box::new(JsonLinesSink::new(std::io::stdout())),
            (_, "stderr" | "1" | "true" | "on", _) => {
                Box::new(JsonLinesSink::new(std::io::stderr()))
            }
            // `file` mode, or a bare PARTITA_TRACE_PATH.
            _ => {
                let target = path.as_deref().unwrap_or("partita-trace.jsonl");
                match std::fs::File::create(target) {
                    Ok(f) => Box::new(JsonLinesSink::new(f)),
                    Err(_) => Box::new(NullSink),
                }
            }
        }
    })
    .as_ref()
}

/// A monotonic phase timer: started on a [`Phase`], emits
/// [`Event::PhaseFinished`] (when the sink is enabled) and returns the
/// elapsed wall time on [`SpanTimer::finish`].
#[derive(Debug)]
pub struct SpanTimer {
    phase: Phase,
    started: Instant,
}

impl SpanTimer {
    /// Starts timing `phase` now.
    #[must_use]
    pub fn start(phase: Phase) -> SpanTimer {
        SpanTimer {
            phase,
            started: Instant::now(),
        }
    }

    /// Stops the timer, emits the phase event through `sink` and returns the
    /// elapsed wall time.
    pub fn finish(self, sink: &dyn TelemetrySink) -> Duration {
        let wall = self.started.elapsed();
        if sink.enabled() {
            sink.emit(&Event::PhaseFinished {
                phase: self.phase,
                wall,
            });
        }
        wall
    }
}

/// Resolves an optional per-object sink against the [`global`] default.
pub(crate) fn resolve(sink: Option<&Arc<dyn TelemetrySink>>) -> &dyn TelemetrySink {
    match sink {
        Some(s) => s.as_ref(),
        None => global(),
    }
}

pub mod json {
    //! A minimal, dependency-free JSON parser for telemetry streams and
    //! `BENCH_*.json` reports.
    //!
    //! The workspace is offline (no serde), but the benchsuite's `--compare`
    //! mode and the schema-validation tests need to *read* the JSON the
    //! telemetry layer writes. This parser covers RFC 8259 with two
    //! deliberate simplifications: numbers parse as `f64` (every counter the
    //! pipeline emits fits exactly in an `f64` mantissa) and object keys
    //! keep their **document order** (so tests can assert stable key order).
    //! Arrays and objects nest at most [`MAX_DEPTH`] deep, so a hostile
    //! document is an error rather than a stack overflow.

    /// Deepest array/object nesting [`JsonValue::parse`] accepts. API
    /// requests and `BENCH_*.json` reports nest about 5 deep.
    pub const MAX_DEPTH: usize = 64;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (parsed as `f64`).
        Number(f64),
        /// A string, unescaped.
        String(String),
        /// An array.
        Array(Vec<JsonValue>),
        /// An object; entries keep document order (duplicate keys kept).
        Object(Vec<(String, JsonValue)>),
    }

    /// A parse failure: byte offset and a static description.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonError {
        /// Byte offset of the failure in the input.
        pub offset: usize,
        /// What went wrong.
        pub message: &'static str,
    }

    impl std::fmt::Display for JsonError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "json parse error at byte {}: {}",
                self.offset, self.message
            )
        }
    }

    impl std::error::Error for JsonError {}

    impl JsonValue {
        /// Parses a complete JSON document (trailing whitespace allowed,
        /// trailing garbage rejected).
        ///
        /// # Errors
        ///
        /// [`JsonError`] with the offset of the first offending byte.
        pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
            let mut p = Parser {
                bytes: input.as_bytes(),
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let value = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.err("trailing garbage"));
            }
            Ok(value)
        }

        /// Object field lookup (first match; `None` on non-objects).
        #[must_use]
        pub fn get(&self, key: &str) -> Option<&JsonValue> {
            match self {
                JsonValue::Object(entries) => {
                    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The object's keys in document order (`None` on non-objects).
        #[must_use]
        pub fn keys(&self) -> Option<Vec<&str>> {
            match self {
                JsonValue::Object(entries) => {
                    Some(entries.iter().map(|(k, _)| k.as_str()).collect())
                }
                _ => None,
            }
        }

        /// The value as an `f64`, when it is a number.
        #[must_use]
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, when it is a whole number.
        #[must_use]
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::Number(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The value as a bool, when it is one.
        #[must_use]
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value as a string slice, when it is a string.
        #[must_use]
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::String(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice, when it is an array.
        #[must_use]
        pub fn as_array(&self) -> Option<&[JsonValue]> {
            match self {
                JsonValue::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The value's object entries in document order, when it is one.
        #[must_use]
        pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
            match self {
                JsonValue::Object(entries) => Some(entries),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, message: &'static str) -> JsonError {
            JsonError {
                offset: self.pos,
                message,
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(message))
            }
        }

        fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        fn value(&mut self) -> Result<JsonValue, JsonError> {
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(JsonValue::String(self.string()?)),
                Some(b't') => self.literal("true", JsonValue::Bool(true)),
                Some(b'f') => self.literal("false", JsonValue::Bool(false)),
                Some(b'n') => self.literal("null", JsonValue::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected a value")),
            }
        }

        /// Parses one array or object one level deeper, refusing past
        /// [`MAX_DEPTH`].
        fn nested(
            &mut self,
            container: fn(&mut Self) -> Result<JsonValue, JsonError>,
        ) -> Result<JsonValue, JsonError> {
            if self.depth == MAX_DEPTH {
                return Err(self.err("nesting too deep"));
            }
            self.depth += 1;
            let value = container(self);
            self.depth -= 1;
            value
        }

        fn object(&mut self) -> Result<JsonValue, JsonError> {
            self.expect(b'{', "expected '{'")?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':', "expected ':'")?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(JsonValue::Object(entries));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue, JsonError> {
            self.expect(b'[', "expected '['")?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"', "expected '\"'")?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                self.pos += 1;
                                let cp = self.hex4()?;
                                // Combine a surrogate pair when one follows;
                                // a lone surrogate degrades to replacement.
                                let c = if (0xD800..0xDC00).contains(&cp) {
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let lo = self.hex4()?;
                                        let combined = 0x10000
                                            + ((cp - 0xD800) << 10)
                                            + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    char::from_u32(cp)
                                };
                                out.push(c.unwrap_or('\u{FFFD}'));
                                continue;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(b) if b < 0x20 => return Err(self.err("raw control character")),
                    Some(_) => {
                        // Copy the run up to the next quote, backslash or
                        // control byte at once. All three are ASCII, so the
                        // run ends on a char boundary of the input (a &str)
                        // and each byte is validated once.
                        let start = self.pos;
                        while self
                            .peek()
                            .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                        {
                            self.pos += 1;
                        }
                        let run = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("bad utf-8"))?;
                        out.push_str(run);
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            let end = self.pos + 4;
            if end > self.bytes.len() {
                return Err(self.err("truncated \\u escape"));
            }
            let hex = std::str::from_utf8(&self.bytes[self.pos..end])
                .map_err(|_| self.err("bad \\u escape"))?;
            let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
            self.pos = end;
            Ok(cp)
        }

        fn number(&mut self) -> Result<JsonValue, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') {
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("bad number"))?;
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::JsonValue;
    use super::*;

    #[test]
    fn json_escape_handles_special_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn every_event_kind_has_a_unique_name() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn events_serialize_with_schema_and_kind_tags() {
        let e = Event::CacheLookup {
            cache: CacheKind::Solve,
            hit: true,
            digest: 0xabc,
        };
        let line = e.to_json();
        assert!(line.starts_with("{\"schema\":5,\"event\":\"cache_lookup\""));
        assert!(line.contains("\"cache\":\"solve\""));
        assert!(line.contains("\"digest\":\"0000000000000abc\""));
        let parsed = JsonValue::parse(&line).unwrap();
        assert_eq!(parsed.get("schema").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(parsed.get("hit").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn redaction_zeroes_timing_only() {
        let e = Event::SweepPoint {
            sweep: None,
            point: None,
            digest: 1,
            rg: Some(5),
            cache_hit: false,
            chained: true,
            nodes: 17,
            wall: Duration::from_micros(40),
        };
        let redacted = e.to_json_redacted(Redaction::Timing);
        assert!(redacted.contains("\"nodes\":17"), "{redacted}");
        assert!(redacted.contains("\"wall_us\":0"), "{redacted}");

        let p = Event::PhaseFinished {
            phase: Phase::Solve,
            wall: Duration::from_micros(1234),
        };
        assert!(p.to_json().contains("\"wall_us\":1234"));
        assert!(p
            .to_json_redacted(Redaction::Timing)
            .contains("\"wall_us\":0"));
    }

    #[test]
    fn null_sink_is_disabled_and_recording_sink_records() {
        assert!(!NullSink.enabled());
        let sink = RecordingSink::new();
        assert!(sink.enabled());
        assert!(sink.is_empty());
        sink.emit(&Event::ChainDecision {
            rg: Some(7),
            accepted: true,
        });
        sink.emit(&Event::ChainDecision {
            rg: None,
            accepted: false,
        });
        sink.emit(&Event::PhaseFinished {
            phase: Phase::Solve,
            wall: Duration::from_micros(15),
        });
        assert_eq!(sink.len(), 3);
        let lines = sink.lines(Redaction::None);
        assert!(lines[0].contains("\"rg\":7"));
        assert!(lines[1].contains("\"rg\":null"));
        assert!(lines[2].contains("\"wall_us\":15"));
        for line in &lines {
            JsonValue::parse(line).unwrap();
        }
        assert_eq!(sink.take().len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::<u8>::new());
        for accepted in [true, false] {
            sink.emit(&Event::ChainDecision {
                rg: Some(1),
                accepted,
            });
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            JsonValue::parse(line).unwrap();
        }
    }

    #[test]
    fn span_timer_emits_phase_event() {
        let sink = RecordingSink::new();
        let span = SpanTimer::start(Phase::Formulation);
        let wall = span.finish(&sink);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::PhaseFinished { phase, wall: w } => {
                assert_eq!(*phase, Phase::Formulation);
                assert_eq!(*w, wall);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn parser_round_trips_nested_documents() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": "x\"\nA"}, "e": true}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.keys(), Some(vec!["a", "b", "e"]));
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        let d = v
            .get("b")
            .and_then(|b| b.get("d"))
            .and_then(JsonValue::as_str);
        assert_eq!(d, Some("x\"\nA"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert!(JsonValue::parse("{\"a\":1} junk").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_caps_nesting_depth() {
        use super::json::MAX_DEPTH;
        let nest = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        let at_cap = JsonValue::parse(&nest(MAX_DEPTH, "[", "]")).unwrap();
        assert!(at_cap.as_array().is_some());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&objects).is_ok());
        let past = JsonValue::parse(&nest(MAX_DEPTH + 1, "[", "]")).unwrap_err();
        assert_eq!(past.message, "nesting too deep");
        assert_eq!(
            past.offset, MAX_DEPTH,
            "refused at the first level past the cap"
        );
        let hostile = "[".repeat(200_000);
        assert_eq!(
            JsonValue::parse(&hostile).unwrap_err().message,
            "nesting too deep"
        );
    }

    #[test]
    fn parser_copies_multibyte_runs_between_escapes() {
        let v = JsonValue::parse("\"gain → 1.5× \\\"ok\\\" é\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("gain → 1.5× \"ok\" éA"));
        assert!(JsonValue::parse("\"raw\ttab\"").is_err());
    }
}
