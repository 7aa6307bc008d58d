//! The benchsuite: one runner that drives every headline workload of the
//! paper's evaluation (Tables 1–3, Fig. 9, Fig. 11) cold and through the
//! session's interval cache rule, plus
//! the corpus groups and a two-tenant service script, and
//! folds the results into a single `BENCH_partita.json` regression lock.
//!
//! Every figure in the report is **portable**: selection quality, cache and
//! re-solve counters, branch-and-bound node counts and simplex per-op
//! counters are exact, so they reproduce on any machine.
//! [`compare_reports`] gates on them strictly. Wall times, latencies and
//! peak RSS are `perfbench`'s job: it reports medians of repeated runs.

use partita_core::telemetry::json::JsonValue;
use partita_core::{
    Imp, ImpDb, Instance, ParallelChoice, RequiredGains, SCall, Selection, SelectionAuditor,
    SolveOptions, Solver, SweepSession, SweepTrace,
};
use partita_interface::{InterfaceKind, TransferJob};
use partita_ip::{IpBlock, IpFunction};
use partita_mop::{AreaTenths, Cycles};
use partita_service::{ServiceConfig, ServiceCore};
use partita_workloads::{corpus, gsm, jpeg, Workload};

/// Report schema version (independent of the telemetry event schema).
pub const SUITE_SCHEMA: u32 = 3;

/// The Fig. 9 instance as a reusable workload: three independent `fir()`
/// calls, one FIR IP, and a Problem-2 IMP that runs one call in the kernel
/// as another's parallel code. The sweep covers the published RG = 1500
/// point plus two easier points.
#[must_use]
pub fn fig9_workload() -> Workload {
    let mut inst = Instance::new("fig9");
    let ip = inst.library.add(
        IpBlock::builder("fir")
            .function(IpFunction::Fir)
            .area(AreaTenths::from_units(3))
            .build(),
    );
    let t_sw = Cycles(1000);
    let mut scs = Vec::new();
    for _ in 0..3 {
        scs.push(inst.add_scall(SCall::new(
            "fir",
            IpFunction::Fir,
            t_sw,
            TransferJob::new(8, 8),
        )));
    }
    inst.add_path(scs.clone());
    let mk = |sc, gain: u64, par| {
        Imp::new(
            sc,
            vec![ip],
            InterfaceKind::Type1,
            Cycles(gain),
            AreaTenths::from_tenths(2),
            par,
        )
    };
    let imps = ImpDb::from_imps(vec![
        mk(scs[0], 600, ParallelChoice::None),
        mk(scs[1], 600, ParallelChoice::None),
        mk(scs[2], 600, ParallelChoice::None),
        mk(scs[1], 900, ParallelChoice::SwScalls(vec![scs[2]])),
    ]);
    Workload {
        instance: inst.into(),
        imps: imps.into(),
        rg_sweep: vec![Cycles(600), Cycles(1200), Cycles(1500)],
    }
}

/// Whether a sweep solves every point cold ([`SweepSession::sweep_cold`])
/// or lets earlier proofs answer the points they cover
/// ([`SweepSession::sweep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Cold,
    Interval,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Cold => "cold",
            Mode::Interval => "interval",
        }
    }
}

/// One sweep point's portable outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointResult {
    /// Uniform required gain of the point.
    pub rg: u64,
    /// Total gain of the returned selection.
    pub gain: u64,
    /// Total area of the returned selection, in area tenths.
    pub area_tenths: i64,
    /// Optimality status string (`optimal`, `feasible`, …).
    pub status: String,
}

/// Session cache counters of one config run (portable: the cache rule is
/// deterministic for a fixed request sequence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the solve cache.
    pub cache_hits: u64,
    /// Requests that ran a solver.
    pub cache_misses: u64,
}

impl CacheStats {
    fn from_run(t: &SweepTrace) -> CacheStats {
        CacheStats {
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
        }
    }
}

/// Deterministic simplex per-op counters summed over the points of a
/// config's sweep that ran a search, from each selection's
/// [`partita_core::SolveTrace`]. Exact operation tallies, so they are
/// portable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsCounters {
    /// Phase-1 (feasibility) simplex pivots.
    pub phase1_pivots: u64,
    /// Phase-2 (optimality) simplex pivots.
    pub phase2_pivots: u64,
    /// Dual-simplex pivots of root probes.
    pub dual_pivots: u64,
    /// Pivots spent lex-canonicalising optimal root vertices.
    pub lex_pivots: u64,
    /// Simplex tableaus built.
    pub tableau_builds: u64,
    /// Tableau builds that grew no pooled scratch buffer.
    pub scratch_reuses: u64,
    /// Dantzig→Bland entering-rule fallbacks inside degenerate stalls.
    pub bland_activations: u64,
}

impl OpsCounters {
    /// Sum of all pivot counters.
    #[must_use]
    pub fn total_pivots(&self) -> u64 {
        self.phase1_pivots + self.phase2_pivots + self.dual_pivots + self.lex_pivots
    }

    /// Tableau builds that had to heap-allocate (cold buffers).
    #[must_use]
    pub fn allocating_builds(&self) -> u64 {
        self.tableau_builds.saturating_sub(self.scratch_reuses)
    }

    fn absorb_trace(&mut self, t: &partita_core::SolveTrace) {
        self.phase1_pivots += t.phase1_pivots as u64;
        self.phase2_pivots += t.phase2_pivots as u64;
        self.dual_pivots += t.dual_pivots as u64;
        self.lex_pivots += t.lex_pivots as u64;
        self.tableau_builds += t.tableau_builds as u64;
        self.scratch_reuses += t.scratch_reuses as u64;
        self.bland_activations += t.bland_activations as u64;
    }
}

/// The full result of one `{workload}:{mode}` config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigResult {
    /// Per-point selection outcomes, in sweep order.
    pub points: Vec<PointResult>,
    /// Session cache counters.
    pub cache: CacheStats,
    /// Total branch-and-bound nodes over the sweep.
    pub nodes: u64,
    /// Simplex per-op counters summed over the sweep.
    pub ops: OpsCounters,
}

/// One service-mode run: a scripted two-tenant request sequence driven
/// through an in-process [`ServiceCore`]. The request sequence is derived
/// from the corpus manifest, so every tally is exact on any machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceResult {
    /// Requests in the scripted sequence.
    pub requests: u64,
    /// Requests answered `ok` (the corpus is committed).
    pub ok: u64,
    /// Points answered from the shared canonical cache — every second
    /// tenant's pass, so nonzero by construction.
    pub cache_hits: u64,
    /// Points degraded to the greedy backend under load (0: the sequence
    /// is answered one request at a time, so no backlog builds).
    pub degraded: u64,
}

/// One corpus group's gate run: every manifest entry of a
/// `family[:preset]` group rebuilt through its pinned digest and solved at
/// its mid-sweep requirement (branch-and-bound for the
/// optimally-solvable groups, the deterministic greedy baseline for
/// `table`/`x10` scale). The run itself asserts digests and audits; the
/// report carries the tallies, all exact because the corpus is committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusResult {
    /// Manifest entries in the group.
    pub entries: u64,
    /// Entries whose mid-sweep solve produced a selection.
    pub solved: u64,
    /// Entries that reported a typed infeasibility.
    pub infeasible: u64,
    /// Total gain across solved entries.
    pub gain: u64,
    /// Total area across solved entries, in tenths.
    pub area_tenths: i64,
    /// Total branch-and-bound nodes (0 for the greedy-backed scale groups).
    pub nodes: u64,
    /// Total simplex pivots (0 for the greedy-backed scale groups, which
    /// never touch the simplex).
    pub pivots: u64,
}

/// A full benchsuite run: config, corpus-group and service-group keys
/// (each sorted) mapped to their results.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuiteReport {
    /// `(key, result)` pairs, sorted by key.
    pub configs: Vec<(String, ConfigResult)>,
    /// `(corpus group key, gate tallies)` pairs, sorted by key.
    pub corpus: Vec<(String, CorpusResult)>,
    /// `(corpus group key, service-mode tallies)` pairs, sorted by key.
    pub service: Vec<(String, ServiceResult)>,
}

/// The workloads the suite drives, as `(key, workload)` pairs.
#[must_use]
pub fn suite_workloads(quick: bool) -> Vec<(&'static str, Workload)> {
    if quick {
        vec![("fig9", fig9_workload()), ("table3", jpeg::encoder())]
    } else {
        vec![
            ("table1", gsm::encoder()),
            ("table2", gsm::decoder()),
            ("table3", jpeg::encoder()),
            ("fig9", fig9_workload()),
            ("fig11", jpeg::encoder_hierarchical()),
        ]
    }
}

/// Runs one config and returns its result with the sweep's selections.
fn run_config(w: &Workload, mode: Mode) -> (ConfigResult, Vec<Selection>) {
    let base = SolveOptions::default();
    let mut session = SweepSession::new();
    let sels: Vec<Selection> = match mode {
        Mode::Cold => session.sweep_cold(&w.instance, &w.imps, &base, &w.rg_sweep),
        Mode::Interval => session.sweep(&w.instance, &w.imps, &base, &w.rg_sweep),
    }
    .unwrap_or_else(|e| panic!("{} sweep infeasible: {e}", w.instance.name));
    let trace = session.take_trace();
    let points = sels
        .iter()
        .zip(&w.rg_sweep)
        .map(|(sel, &rg)| PointResult {
            rg: rg.get(),
            gain: sel.total_gain().get(),
            area_tenths: sel.total_area().tenths(),
            status: sel.status.to_string(),
        })
        .collect();
    // A point the cache answered ran no search: like its nodes, its
    // pivots are 0, though it carries the trace of the proof it reused.
    let mut hits: Vec<Option<Cycles>> = trace
        .points
        .iter()
        .filter(|p| p.cache_hit)
        .map(|p| p.rg)
        .collect();
    let mut ops = OpsCounters::default();
    for (sel, &rg) in sels.iter().zip(&w.rg_sweep) {
        match hits.iter().position(|&hit| hit == Some(rg)) {
            Some(i) => {
                hits.swap_remove(i);
            }
            None => ops.absorb_trace(&sel.trace),
        }
    }
    let result = ConfigResult {
        points,
        cache: CacheStats::from_run(&trace),
        nodes: trace.total_nodes(),
        ops,
    };
    (result, sels)
}

/// Asserts that an interval sweep returned exactly the cold sweep's
/// selections and that every one audits clean at its own requirement —
/// the benchmark doubles as an equivalence check of the cache rule.
fn check_interval(w: &Workload, cold: &[Selection], interval: &[Selection]) {
    let name = &w.instance.name;
    for ((c, f), &rg) in interval.iter().zip(cold).zip(&w.rg_sweep) {
        assert!(
            c.chosen() == f.chosen() && c.total_area() == f.total_area() && c.status == f.status,
            "{name}: interval selection diverged from cold at RG {}",
            rg.get()
        );
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
        let report = SelectionAuditor::new(&w.instance, &w.imps).audit(c, &opts);
        assert!(
            report.is_clean(),
            "{name}: interval selection failed the audit at RG {}: {}",
            rg.get(),
            report.to_json()
        );
    }
}

/// Corpus groups whose worst-case optimal solve is minutes, not
/// milliseconds: these run the deterministic greedy baseline instead.
fn corpus_group_is_heuristic(group: &str) -> bool {
    matches!(group, "synth:table" | "synth:x10" | "synth:x100")
}

/// The manifest group key of a corpus entry: `synth:<preset>` or the
/// family name.
fn corpus_group(entry: &corpus::ManifestEntry) -> String {
    if entry.preset.is_empty() {
        entry.family.clone()
    } else {
        format!("{}:{}", entry.family, entry.preset)
    }
}

/// Runs the corpus gate section: every ungated manifest entry of the
/// selected groups rebuilt through its digest, solved at mid-sweep and
/// audited. Quick mode keeps the `synth:small` + `synth:table` groups (one
/// optimal, one heuristic); the full run covers every ungated group.
///
/// Panics on a manifest parse failure, digest mismatch, audit violation or
/// unexpected solver error — the benchmark doubles as the corpus gate.
fn run_corpus(quick: bool) -> Vec<(String, CorpusResult)> {
    let entries = corpus::manifest().expect("tests/corpus/manifest.json parses");
    let mut groups: Vec<(String, Vec<corpus::ManifestEntry>)> = Vec::new();
    for entry in entries.into_iter().filter(|e| !e.gated) {
        let key = corpus_group(&entry);
        if quick && key != "synth:small" && key != "synth:table" {
            continue;
        }
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, list)) => list.push(entry),
            None => groups.push((key, vec![entry])),
        }
    }
    let mut out = Vec::new();
    for (key, list) in groups {
        let heuristic = corpus_group_is_heuristic(&key);
        let mut result = CorpusResult {
            entries: list.len() as u64,
            solved: 0,
            infeasible: 0,
            gain: 0,
            area_tenths: 0,
            nodes: 0,
            pivots: 0,
        };
        for entry in &list {
            let w = entry
                .verify()
                .unwrap_or_else(|e| panic!("corpus gate: {e}"));
            let rg = w.rg_sweep[w.rg_sweep.len() / 2];
            let mut opts = SolveOptions::problem2(RequiredGains::uniform(rg));
            if heuristic {
                opts = opts.backend(partita_core::Backend::Greedy);
            }
            match Solver::new(&w.instance)
                .with_imps(w.imps.clone())
                .solve(&opts)
            {
                Ok(sel) => {
                    let report = SelectionAuditor::new(&w.instance, &w.imps).audit(&sel, &opts);
                    assert!(
                        report.is_clean(),
                        "corpus gate: {} failed the audit: {}",
                        entry.id,
                        report.to_json()
                    );
                    result.solved += 1;
                    result.gain += sel.total_gain().get();
                    result.area_tenths += sel.total_area().tenths();
                    result.nodes += sel.trace.nodes_explored as u64;
                    result.pivots += (sel.trace.phase1_pivots
                        + sel.trace.phase2_pivots
                        + sel.trace.dual_pivots
                        + sel.trace.lex_pivots) as u64;
                }
                Err(
                    partita_core::CoreError::Infeasible { .. } | partita_core::CoreError::NoImps,
                ) => result.infeasible += 1,
                Err(e) => panic!("corpus gate: {} unexpected solver error: {e}", entry.id),
            }
        }
        out.push((key, result));
    }
    out
}

/// Runs the service-mode benchmark: for each selected corpus group, two
/// tenants submit every entry's mid-sweep solve (audited) through an
/// in-process daemon core. The first tenant's pass is cold; the second
/// tenant's must be answered entirely from the shared canonical cache, so
/// the benchmark doubles as a cross-tenant sharing gate.
fn run_service(quick: bool) -> Vec<(String, ServiceResult)> {
    use partita_core::api::{Request, RequestBody, SolveSpec, API_VERSION};
    let presets: &[&str] = if quick {
        &["micro"]
    } else {
        &["micro", "small"]
    };
    let entries = corpus::manifest().expect("tests/corpus/manifest.json parses");
    let mut out = Vec::new();
    for preset in presets {
        let group: Vec<&corpus::ManifestEntry> = entries
            .iter()
            .filter(|e| !e.gated && e.family == "synth" && e.preset == *preset)
            .collect();
        let core = ServiceCore::new(ServiceConfig::default());
        let mut requests = Vec::new();
        for tenant in ["alice", "bob"] {
            for entry in &group {
                let w = entry
                    .verify()
                    .unwrap_or_else(|e| panic!("service bench: {e}"));
                let rg = w.rg_sweep[w.rg_sweep.len() / 2].get();
                requests.push(Request {
                    api_version: API_VERSION,
                    id: format!("{tenant}-{}", entry.id),
                    tenant: tenant.to_string(),
                    body: RequestBody::Solve {
                        instance: entry.id.clone(),
                        spec: SolveSpec {
                            rg,
                            audit: true,
                            ..SolveSpec::default()
                        },
                    },
                });
            }
        }
        let mut ok = 0u64;
        for req in &requests {
            let resp = core.handle_request(req);
            assert!(
                resp.result.is_ok(),
                "service bench: {} failed: {resp:?}",
                req.id
            );
            ok += 1;
        }
        let stats = core.stats();
        assert_eq!(
            stats.cache_hits,
            group.len() as u64,
            "service bench: the second tenant's pass must hit the shared cache"
        );
        out.push((
            format!("synth:{preset}"),
            ServiceResult {
                requests: requests.len() as u64,
                ok,
                cache_hits: stats.cache_hits,
                degraded: stats.degraded,
            },
        ));
    }
    out
}

/// Runs the whole suite — the two quickest workloads and
/// corpus/service groups when `quick` — and returns the report, every
/// section sorted by key.
#[must_use]
pub fn run_suite(quick: bool) -> SuiteReport {
    let mut configs = Vec::new();
    for (name, w) in suite_workloads(quick) {
        let (cold, cold_sels) = run_config(&w, Mode::Cold);
        let (interval, interval_sels) = run_config(&w, Mode::Interval);
        check_interval(&w, &cold_sels, &interval_sels);
        for (mode, result) in [(Mode::Cold, cold), (Mode::Interval, interval)] {
            configs.push((format!("{name}:{}", mode.name()), result));
        }
    }
    let mut corpus = run_corpus(quick);
    let mut service = run_service(quick);
    configs.sort_by(|a, b| a.0.cmp(&b.0));
    corpus.sort_by(|a, b| a.0.cmp(&b.0));
    service.sort_by(|a, b| a.0.cmp(&b.0));
    SuiteReport {
        configs,
        corpus,
        service,
    }
}

/// Appends one report section: `"name": {` then one `"key": body` line per
/// entry, sorted by key.
fn push_section<T>(
    out: &mut String,
    name: &str,
    entries: &[(String, T)],
    body: impl Fn(&T) -> String,
) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    let mut sorted: Vec<&(String, T)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let lines: Vec<String> = sorted
        .iter()
        .map(|(key, v)| format!("    \"{key}\": {}", body(v)))
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }");
}

/// Reads one report section as `(key, value)` pairs sorted by key, or an
/// error naming the section, key and field that is missing or mistyped.
fn parse_section<T>(
    doc: &JsonValue,
    name: &str,
    parse: impl Fn(&Fields<'_>) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    let entries = doc
        .get(name)
        .ok_or_else(|| format!("missing {name}"))?
        .entries()
        .ok_or_else(|| format!("{name} not an object"))?;
    let mut out = Vec::new();
    for (key, value) in entries {
        let fields = Fields {
            path: format!("{name}/{key}"),
            value,
        };
        out.push((key.clone(), parse(&fields)?));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// A JSON object together with its path in the report, so a missing field
/// is reported as `configs/fig9:cold: missing ops`.
struct Fields<'a> {
    path: String,
    value: &'a JsonValue,
}

impl<'a> Fields<'a> {
    fn object(&self, field: &str) -> Result<Fields<'a>, String> {
        Ok(Fields {
            path: format!("{}/{field}", self.path),
            value: self
                .value
                .get(field)
                .filter(|v| v.entries().is_some())
                .ok_or_else(|| format!("{}: missing {field}", self.path))?,
        })
    }

    fn u64(&self, field: &str) -> Result<u64, String> {
        self.value
            .get(field)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{}: missing {field}", self.path))
    }
}

impl SuiteReport {
    /// Serializes the report as one stable JSON document: sections in a
    /// fixed order, one line per entry, keys sorted.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out =
            format!("{{\n  \"schema\": {SUITE_SCHEMA},\n  \"suite\": \"partita-benchsuite\",\n");
        push_section(&mut out, "configs", &self.configs, |c| {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{{\"rg\":{},\"gain\":{},\"area_tenths\":{},\"status\":\"{}\"}}",
                        p.rg, p.gain, p.area_tenths, p.status
                    )
                })
                .collect();
            let (k, o) = (&c.cache, &c.ops);
            format!(
                concat!(
                    "{{\"points\": [{}], ",
                    "\"cache\": {{\"cache_hits\":{},\"cache_misses\":{}}}, ",
                    "\"nodes\": {}, ",
                    "\"ops\": {{\"phase1_pivots\":{},\"phase2_pivots\":{},",
                    "\"dual_pivots\":{},\"lex_pivots\":{},",
                    "\"tableau_builds\":{},\"scratch_reuses\":{},",
                    "\"bland_activations\":{}}}}}"
                ),
                points.join(","),
                k.cache_hits,
                k.cache_misses,
                c.nodes,
                o.phase1_pivots,
                o.phase2_pivots,
                o.dual_pivots,
                o.lex_pivots,
                o.tableau_builds,
                o.scratch_reuses,
                o.bland_activations,
            )
        });
        out.push_str(",\n");
        push_section(&mut out, "corpus", &self.corpus, |c| {
            format!(
                concat!(
                    "{{\"entries\":{},\"solved\":{},\"infeasible\":{},",
                    "\"gain\":{},\"area_tenths\":{},\"nodes\":{},\"pivots\":{}}}"
                ),
                c.entries, c.solved, c.infeasible, c.gain, c.area_tenths, c.nodes, c.pivots,
            )
        });
        out.push_str(",\n");
        push_section(&mut out, "service", &self.service, |s| {
            format!(
                "{{\"requests\":{},\"ok\":{},\"cache_hits\":{},\"degraded\":{}}}",
                s.requests, s.ok, s.cache_hits, s.degraded
            )
        });
        out.push_str("\n}\n");
        out
    }

    /// Parses a report serialized by [`SuiteReport::to_json`]. Every
    /// section and every field is required.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(text: &str) -> Result<SuiteReport, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema")?;
        if schema != u64::from(SUITE_SCHEMA) {
            return Err(format!("unsupported suite schema {schema}"));
        }
        let configs = parse_section(&doc, "configs", |c| {
            let mut points = Vec::new();
            for p in c
                .value
                .get("points")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("{}: missing points", c.path))?
            {
                let p = Fields {
                    path: format!("{}/points", c.path),
                    value: p,
                };
                points.push(PointResult {
                    rg: p.u64("rg")?,
                    gain: p.u64("gain")?,
                    area_tenths: p.u64("area_tenths")? as i64,
                    status: p
                        .value
                        .get("status")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("{}: missing status", p.path))?
                        .to_string(),
                });
            }
            let cache = c.object("cache")?;
            let ops = c.object("ops")?;
            Ok(ConfigResult {
                points,
                cache: CacheStats {
                    cache_hits: cache.u64("cache_hits")?,
                    cache_misses: cache.u64("cache_misses")?,
                },
                nodes: c.u64("nodes")?,
                ops: OpsCounters {
                    phase1_pivots: ops.u64("phase1_pivots")?,
                    phase2_pivots: ops.u64("phase2_pivots")?,
                    dual_pivots: ops.u64("dual_pivots")?,
                    lex_pivots: ops.u64("lex_pivots")?,
                    tableau_builds: ops.u64("tableau_builds")?,
                    scratch_reuses: ops.u64("scratch_reuses")?,
                    bland_activations: ops.u64("bland_activations")?,
                },
            })
        })?;
        let corpus = parse_section(&doc, "corpus", |c| {
            Ok(CorpusResult {
                entries: c.u64("entries")?,
                solved: c.u64("solved")?,
                infeasible: c.u64("infeasible")?,
                gain: c.u64("gain")?,
                area_tenths: c.u64("area_tenths")? as i64,
                nodes: c.u64("nodes")?,
                pivots: c.u64("pivots")?,
            })
        })?;
        let service = parse_section(&doc, "service", |s| {
            Ok(ServiceResult {
                requests: s.u64("requests")?,
                ok: s.u64("ok")?,
                cache_hits: s.u64("cache_hits")?,
                degraded: s.u64("degraded")?,
            })
        })?;
        Ok(SuiteReport {
            configs,
            corpus,
            service,
        })
    }
}

/// Compares `current` against `baseline` and returns one message per
/// regression (empty = pass):
///
/// * a config present in the baseline but missing from the current run;
/// * any drift in a config's per-point gain, area or status, or in its
///   cache counters;
/// * any **node-count** growth (strict: the search is deterministic, so
///   even +1 node is a real change);
/// * any **simplex ops** growth — total pivots or allocating tableau
///   builds;
/// * a **corpus group** missing from the current run, or any drift in its
///   tallies (entry/feasibility counts, total gain/area, or node or pivot
///   growth);
/// * a **service group** missing from the current run, or any drift in its
///   request, ok, cache-hit or degraded tallies;
/// * in the current run alone, an **interval** sweep that explores more
///   nodes than its cold twin, or interval sweeps that do not save nodes
///   strictly in aggregate.
#[must_use]
pub fn compare_reports(baseline: &SuiteReport, current: &SuiteReport) -> Vec<String> {
    let mut regressions = Vec::new();
    for (key, base) in &baseline.configs {
        let Some((_, cur)) = current.configs.iter().find(|(k, _)| k == key) else {
            regressions.push(format!("{key}: config missing from current run"));
            continue;
        };
        if cur.points != base.points {
            regressions.push(format!("{key}: portable selection results drifted"));
        }
        if cur.cache != base.cache {
            regressions.push(format!("{key}: portable cache counters drifted"));
        }
        if cur.nodes > base.nodes {
            regressions.push(format!(
                "{key}: node count regressed {} -> {}",
                base.nodes, cur.nodes
            ));
        }
        // The simplex must not spend more pivots in total, and must not
        // heap-allocate more tableaus, than the baseline.
        let (b, c) = (&base.ops, &cur.ops);
        if c.total_pivots() > b.total_pivots() {
            regressions.push(format!(
                "{key}: simplex pivot count regressed {} -> {}",
                b.total_pivots(),
                c.total_pivots()
            ));
        }
        if c.allocating_builds() > b.allocating_builds() {
            regressions.push(format!(
                "{key}: allocating tableau builds regressed {} -> {}",
                b.allocating_builds(),
                c.allocating_builds()
            ));
        }
    }
    // Corpus gates: the corpus is committed (manifest-pinned digests), so
    // every tally is exact — group membership, feasibility split, total
    // gain/area and node and pivot counts must all reproduce.
    for (key, base) in &baseline.corpus {
        let Some((_, cur)) = current.corpus.iter().find(|(k, _)| k == key) else {
            regressions.push(format!("corpus/{key}: group missing from current run"));
            continue;
        };
        if (cur.entries, cur.solved, cur.infeasible) != (base.entries, base.solved, base.infeasible)
        {
            regressions.push(format!("corpus/{key}: entry/feasibility tallies drifted"));
        }
        if (cur.gain, cur.area_tenths) != (base.gain, base.area_tenths) {
            regressions.push(format!("corpus/{key}: portable selection quality drifted"));
        }
        if cur.nodes > base.nodes {
            regressions.push(format!(
                "corpus/{key}: node count regressed {} -> {}",
                base.nodes, cur.nodes
            ));
        }
        if cur.pivots > base.pivots {
            regressions.push(format!(
                "corpus/{key}: simplex pivot count regressed {} -> {}",
                base.pivots, cur.pivots
            ));
        }
    }
    // Interval gates. The node-saving property is self-contained, so it
    // gates the *current* run outright: per workload the interval sweep
    // must never cost nodes against the cold one, and across the run it
    // must save strictly.
    let mut interval_total = 0u64;
    let mut cold_total = 0u64;
    for (key, interval) in &current.configs {
        let Some(workload) = key.strip_suffix(":interval") else {
            continue;
        };
        let cold_key = format!("{workload}:cold");
        let Some((_, cold)) = current.configs.iter().find(|(k, _)| *k == cold_key) else {
            continue;
        };
        let (c, f) = (interval.nodes, cold.nodes);
        if c > f {
            regressions.push(format!(
                "{key}: the interval sweep cost nodes ({c} > {f} cold)"
            ));
        }
        interval_total += c;
        cold_total += f;
    }
    if cold_total > 0 && interval_total >= cold_total {
        regressions.push(format!(
            "interval sweeps must explore strictly fewer nodes in aggregate \
             (interval {interval_total} !< cold {cold_total})"
        ));
    }
    // Service gates: the scripted two-tenant sequence is derived from the
    // committed corpus, so every tally must reproduce exactly.
    for (key, base) in &baseline.service {
        let Some((_, cur)) = current.service.iter().find(|(k, _)| k == key) else {
            regressions.push(format!("service/{key}: group missing from current run"));
            continue;
        };
        if cur != base {
            regressions.push(format!(
                "service/{key}: portable service tallies drifted \
                 (requests/ok/cache_hits/degraded {}/{}/{}/{} -> {}/{}/{}/{})",
                base.requests,
                base.ok,
                base.cache_hits,
                base.degraded,
                cur.requests,
                cur.ok,
                cur.cache_hits,
                cur.degraded
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(nodes: u64, ops: OpsCounters) -> ConfigResult {
        ConfigResult {
            points: vec![PointResult {
                rg: 90,
                gain: 95,
                area_tenths: 120,
                status: "Optimal".to_string(),
            }],
            cache: CacheStats::default(),
            nodes,
            ops,
        }
    }

    fn corpus_result(nodes: u64, pivots: u64) -> CorpusResult {
        CorpusResult {
            entries: 3,
            solved: 2,
            infeasible: 1,
            gain: 200,
            area_tenths: 450,
            nodes,
            pivots,
        }
    }

    fn sample_ops() -> OpsCounters {
        OpsCounters {
            phase1_pivots: 10,
            phase2_pivots: 20,
            dual_pivots: 3,
            lex_pivots: 2,
            tableau_builds: 8,
            scratch_reuses: 6,
            bland_activations: 1,
        }
    }

    fn report(configs: Vec<(String, ConfigResult)>) -> SuiteReport {
        SuiteReport {
            configs,
            corpus: vec![("synth:small".to_string(), corpus_result(40, 150))],
            service: Vec::new(),
        }
    }

    #[test]
    fn ops_and_pivots_survive_a_json_round_trip() {
        let r = report(vec![("w:cold".to_string(), config(12, sample_ops()))]);
        let parsed = SuiteReport::from_json(&r.to_json()).expect("round-trip parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.configs[0].1.ops, sample_ops());
        assert_eq!(parsed.corpus[0].1.pivots, 150);
    }

    #[test]
    fn pivot_growth_is_a_regression() {
        let baseline = report(vec![("w:cold".to_string(), config(12, sample_ops()))]);
        let mut worse = sample_ops();
        worse.phase2_pivots += 1;
        let current = report(vec![("w:cold".to_string(), config(12, worse))]);
        let regressions = compare_reports(&baseline, &current);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("pivot count regressed")),
            "expected a pivot regression, got {regressions:?}"
        );
    }

    #[test]
    fn allocating_build_growth_is_a_regression_but_fewer_reuses_alone_is_not() {
        let baseline = report(vec![("w:cold".to_string(), config(12, sample_ops()))]);
        let mut worse = sample_ops();
        worse.scratch_reuses -= 1; // builds constant => one more cold allocation
        let current = report(vec![("w:cold".to_string(), config(12, worse))]);
        let regressions = compare_reports(&baseline, &current);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("allocating tableau builds regressed")),
            "expected an allocation regression, got {regressions:?}"
        );
        // Fewer builds *and* fewer reuses (a shorter solve) is fine.
        let mut better = sample_ops();
        better.phase2_pivots -= 5;
        better.tableau_builds -= 2;
        better.scratch_reuses -= 2;
        let current = report(vec![("w:cold".to_string(), config(12, better))]);
        assert!(compare_reports(&baseline, &current).is_empty());
    }

    #[test]
    fn corpus_pivot_growth_is_a_regression() {
        let base = report(Vec::new());
        let mut cur = report(Vec::new());
        cur.corpus[0].1.pivots = 151;
        let regressions = compare_reports(&base, &cur);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("corpus/synth:small: simplex pivot count regressed")),
            "expected a corpus pivot regression, got {regressions:?}"
        );
        // Fewer pivots than baseline is an improvement, not a regression.
        let mut fewer = report(Vec::new());
        fewer.corpus[0].1.pivots = 100;
        assert!(compare_reports(&base, &fewer).is_empty());
    }
}
