//! The benchsuite: one runner that drives every headline workload of the
//! paper's evaluation (Tables 1–3, Fig. 9, Fig. 11) cold and chained at a
//! set of thread counts, and folds the results into a single
//! `BENCH_partita.json` perf-trajectory report.
//!
//! The report separates **portable** results (selection quality, cache
//! behaviour, and — single-threaded — branch-and-bound node counts, all of
//! which must be identical on any machine) from **machine** results (wall
//! times, peak RSS, multi-threaded node counts, which vary with hardware
//! and scheduling). [`compare_reports`] gates on both: any portable drift
//! or single-threaded node-count growth is a regression outright, while
//! wall time gets a relative threshold plus an absolute noise floor.

use std::time::Instant;

use partita_core::telemetry::json::JsonValue;
use partita_core::{
    Imp, ImpDb, Instance, ParallelChoice, RequiredGains, SCall, Selection, SelectionAuditor,
    SolveBudget, SolveOptions, Solver, SweepSession, SweepTrace,
};
use partita_interface::{InterfaceKind, TransferJob};
use partita_ip::{IpBlock, IpFunction};
use partita_mop::{AreaTenths, Cycles};
use partita_service::{ServiceConfig, ServiceCore};
use partita_workloads::{corpus, gsm, jpeg, Workload};

/// Report schema version (independent of the telemetry event schema).
pub const SUITE_SCHEMA: u32 = 1;

/// Default wall-time regression threshold for [`compare_reports`]: 15%.
pub const DEFAULT_WALL_THRESHOLD: f64 = 0.15;

/// Absolute wall-time noise floor in microseconds: a config must regress by
/// at least this much on top of the relative threshold before it counts.
/// Sub-10ms configs are dominated by scheduler noise.
pub const WALL_NOISE_FLOOR_US: u64 = 10_000;

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

/// What the suite should run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Branch-and-bound thread counts to run every workload at.
    pub threads: Vec<usize>,
    /// Restrict to the two fastest workloads (CI smoke mode).
    pub quick: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            threads: vec![1, 4],
            quick: false,
        }
    }
}

/// Whether a sweep runs its points independently or chained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Cold,
    Chained,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Cold => "cold",
            Mode::Chained => "chained",
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

/// Session cache and re-solve counters of one config run (portable: cache
/// behaviour, chaining and basis repair are deterministic for a fixed
/// request sequence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the solve cache.
    pub cache_hits: u64,
    /// Requests that ran a solver.
    pub cache_misses: u64,
    /// Points seeded with the previous point's verified optimum.
    pub chained_accepts: u64,
    /// Points whose carry-over candidate was rejected.
    pub chained_rejects: u64,
    /// Points whose re-solve repaired the retained root basis instead of a
    /// cold two-phase root LP (chained configs only; cold sweeps hold no
    /// basis).
    pub basis_reused: u64,
}

impl CacheStats {
    fn from_run(t: &SweepTrace, sels: &[Selection]) -> CacheStats {
        CacheStats {
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
            chained_accepts: t.chained_accepts,
            chained_rejects: t.chained_rejects,
            basis_reused: sels.iter().map(|s| u64::from(s.trace.basis_reused)).sum(),
        }
    }
}

/// Deterministic simplex per-op counters summed over a config's sweep,
/// from each selection's [`partita_core::SolveTrace`]. Exact operation
/// tallies, so they are portable at one thread (the parallel frontier
/// explores a schedule-dependent node set, hence a schedule-dependent
/// pivot count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsCounters {
    /// Phase-1 (feasibility) simplex pivots.
    pub phase1_pivots: u64,
    /// Phase-2 (optimality) simplex pivots.
    pub phase2_pivots: u64,
    /// Dual-simplex repair pivots (warm-basis installs included).
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

/// The full result of one `{workload}:{mode}:t{threads}` config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigResult {
    /// Per-point selection outcomes, in sweep order.
    pub points: Vec<PointResult>,
    /// Session cache counters.
    pub cache: CacheStats,
    /// Total branch-and-bound nodes when the search is single-threaded
    /// (deterministic, hence portable); `None` at higher thread counts.
    pub portable_nodes: Option<u64>,
    /// Simplex per-op counters summed over the sweep when single-threaded
    /// (portable); `None` at higher thread counts and in baselines written
    /// before the section existed.
    pub ops: Option<OpsCounters>,
    /// Total wall time of the config, in microseconds.
    pub wall_us: u64,
    /// Total nodes at multi-threaded counts (machine-dependent: the
    /// parallel frontier explores a schedule-dependent node set).
    pub machine_nodes: Option<u64>,
    /// Peak resident set of the process so far, from `/proc/self/status`
    /// `VmHWM` (`None` where unavailable).
    pub peak_rss_kb: Option<u64>,
}

/// One service-mode run: a scripted two-tenant request sequence driven
/// through an in-process [`ServiceCore`], per-request latency measured at
/// the protocol boundary ([`ServiceCore::handle_request`]). The request
/// sequence is derived from the corpus manifest, so the portable tallies
/// (request/ok counts, cross-tenant cache hits, degradations) are exact on
/// any machine; only the latency percentiles are machine-dependent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceResult {
    /// Requests in the scripted sequence (portable).
    pub requests: u64,
    /// Requests answered `ok` (portable: the corpus is committed).
    pub ok: u64,
    /// Points answered from the shared canonical cache — every second
    /// tenant's pass, so nonzero by construction (portable).
    pub cache_hits: u64,
    /// Points degraded to the greedy backend by admission control
    /// (portable; 0 for the unconstrained benchmark policy).
    pub degraded: u64,
    /// p50 of per-request service latency, microseconds (machine).
    pub p50_us: u64,
    /// p99 (nearest-rank) of per-request service latency (machine).
    pub p99_us: u64,
}

/// One corpus group's gate run: every manifest entry of a
/// `family[:preset]` group rebuilt through its pinned digest and solved at
/// its mid-sweep requirement (single-threaded branch-and-bound for the
/// optimally-solvable groups, the deterministic greedy baseline for
/// `table`/`x10` scale). The run itself asserts digests and audits; the
/// report carries the portable tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusResult {
    /// Manifest entries in the group.
    pub entries: u64,
    /// Entries whose mid-sweep solve produced a selection.
    pub solved: u64,
    /// Entries that reported a typed infeasibility (portable: the corpus
    /// is committed, so this count is exact).
    pub infeasible: u64,
    /// Total gain across solved entries (portable).
    pub gain: u64,
    /// Total area across solved entries, in tenths (portable).
    pub area_tenths: i64,
    /// Total branch-and-bound nodes at one thread (portable; 0 for the
    /// greedy-backed scale groups).
    pub nodes: u64,
    /// Total simplex pivots at one thread (portable; 0 for the greedy-backed
    /// scale groups, which never touch the simplex).
    pub pivots: u64,
    /// Total wall time of the group, microseconds (machine-dependent).
    pub wall_us: u64,
}

/// A full benchsuite run: config keys (sorted) mapped to results, plus the
/// corpus-gate and service sections (both additive: reports written before
/// a section existed parse to an empty one).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuiteReport {
    /// `(key, result)` pairs, sorted by key.
    pub configs: Vec<(String, ConfigResult)>,
    /// `(corpus group key, gate tallies)` pairs, sorted by key.
    pub corpus: Vec<(String, CorpusResult)>,
    /// `(corpus group key, service-mode benchmark)` pairs, sorted by key.
    pub service: Vec<(String, ServiceResult)>,
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status)
}

/// Extracts the `VmHWM` value in kB from a `/proc/self/status` document.
///
/// Tolerant of the unit/whitespace variants seen across kernels and
/// containers (tabs vs spaces, `kB`/`KB`/`mB` casing, missing unit), and
/// returns `None` — never a bogus number — on malformed lines: a bare
/// `VmHWM:` with no value, a non-numeric value, an unknown unit, or
/// trailing junk after the unit.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status
        .lines()
        .map(str::trim_start)
        .find(|l| l.starts_with("VmHWM"))?;
    let rest = line.strip_prefix("VmHWM")?.trim_start().strip_prefix(':')?;
    let mut tokens = rest.split_whitespace();
    let value: u64 = tokens.next()?.parse().ok()?;
    let scaled = match tokens.next() {
        // The kernel always writes kB today, but be liberal in what we
        // accept as long as the meaning is unambiguous.
        None => value,
        Some(unit) => match unit.to_ascii_lowercase().as_str() {
            "kb" => value,
            "mb" => value.checked_mul(1024)?,
            "gb" => value.checked_mul(1024 * 1024)?,
            _ => return None,
        },
    };
    // Anything after the unit means we misread the line; refuse to guess.
    if tokens.next().is_some() {
        return None;
    }
    Some(scaled)
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
fn run_config(w: &Workload, mode: Mode, threads: usize) -> (ConfigResult, Vec<Selection>) {
    let base = SolveOptions::default().budget(SolveBudget::default().with_threads(threads));
    let mut session = SweepSession::new();
    let started = Instant::now();
    let sels: Vec<Selection> = match mode {
        Mode::Cold => session.sweep_cold(&w.instance, &w.imps, &base, &w.rg_sweep),
        Mode::Chained => session.sweep(&w.instance, &w.imps, &base, &w.rg_sweep),
    }
    .unwrap_or_else(|e| panic!("{} sweep infeasible: {e}", w.instance.name));
    let wall = started.elapsed();
    let trace = session.take_trace();
    let nodes = trace.total_nodes();
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
    let mut ops = OpsCounters::default();
    for sel in &sels {
        ops.absorb_trace(&sel.trace);
    }
    let result = ConfigResult {
        points,
        cache: CacheStats::from_run(&trace, &sels),
        portable_nodes: (threads <= 1).then_some(nodes),
        ops: (threads <= 1).then_some(ops),
        wall_us: u64::try_from(wall.as_micros()).unwrap_or(u64::MAX),
        machine_nodes: (threads > 1).then_some(nodes),
        peak_rss_kb: peak_rss_kb(),
    };
    (result, sels)
}

/// Asserts that a chained sweep returned exactly the cold sweep's
/// selections and that every chained selection audits clean — the
/// benchmark doubles as an equivalence check of the warm re-solve path.
fn check_chained(w: &Workload, cold: &[Selection], chained: &[Selection]) {
    let name = &w.instance.name;
    for ((c, f), &rg) in chained.iter().zip(cold).zip(&w.rg_sweep) {
        assert!(
            c.chosen() == f.chosen() && c.total_area() == f.total_area() && c.status == f.status,
            "{name}: chained selection diverged from cold at RG {}",
            rg.get()
        );
        let opts = SolveOptions::problem2(RequiredGains::uniform(rg));
        let report = SelectionAuditor::new(&w.instance, &w.imps).audit(c, &opts);
        assert!(
            report.is_clean(),
            "{name}: chained selection failed the audit at RG {}: {}",
            rg.get(),
            report.to_json()
        );
    }
}

/// Nearest-rank percentile of an unsorted latency sample, `p` in percent.
fn percentile_us(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
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
            wall_us: 0,
        };
        let started = Instant::now();
        for entry in &list {
            let w = entry
                .verify()
                .unwrap_or_else(|e| panic!("corpus gate: {e}"));
            let rg = w.rg_sweep[w.rg_sweep.len() / 2];
            let mut opts = SolveOptions::problem2(RequiredGains::uniform(rg))
                .budget(SolveBudget::default().with_threads(1));
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
        result.wall_us = elapsed_us(started);
        out.push((key, result));
    }
    out
}

/// Runs the service-mode benchmark: for each selected corpus group, two
/// tenants submit every entry's mid-sweep solve (audited) through an
/// in-process daemon core. The first tenant's pass is cold; the second
/// tenant's must be answered entirely from the shared canonical cache, so
/// the benchmark doubles as a cross-tenant sharing gate. Latency is
/// measured per request around [`ServiceCore::handle_request`] — the same
/// boundary every transport (stdio, sockets, replay) crosses.
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
        let mut lat = Vec::new();
        let mut ok = 0u64;
        for req in &requests {
            let started = Instant::now();
            let resp = core.handle_request(req);
            lat.push(elapsed_us(started));
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
                p50_us: percentile_us(&mut lat, 50.0),
                p99_us: percentile_us(&mut lat, 99.0),
            },
        ));
    }
    out
}

/// Runs the whole suite per `config` and returns the report, configs
/// sorted by key.
#[must_use]
pub fn run_suite(config: &SuiteConfig) -> SuiteReport {
    let mut configs = Vec::new();
    for (name, w) in suite_workloads(config.quick) {
        for &threads in &config.threads {
            let (cold, cold_sels) = run_config(&w, Mode::Cold, threads.max(1));
            let (chained, chained_sels) = run_config(&w, Mode::Chained, threads.max(1));
            check_chained(&w, &cold_sels, &chained_sels);
            for (mode, result) in [(Mode::Cold, cold), (Mode::Chained, chained)] {
                configs.push((format!("{name}:{}:t{threads}", mode.name()), result));
            }
        }
    }
    let mut corpus = run_corpus(config.quick);
    let mut service = run_service(config.quick);
    configs.sort_by(|a, b| a.0.cmp(&b.0));
    corpus.sort_by(|a, b| a.0.cmp(&b.0));
    service.sort_by(|a, b| a.0.cmp(&b.0));
    SuiteReport {
        configs,
        corpus,
        service,
    }
}

fn opt_u64_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

impl SuiteReport {
    /// Serializes the report as one pretty-stable JSON document: keys in a
    /// fixed order, configs sorted, portable and machine sections separated.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"schema\": {SUITE_SCHEMA},\n  \"suite\": \"partita-benchsuite\",\n  \"configs\": {{\n"
        ));
        let mut sorted: Vec<&(String, ConfigResult)> = self.configs.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (key, c)) in sorted.iter().enumerate() {
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
            let ops = c.ops.map_or_else(
                || "null".to_string(),
                |o| {
                    format!(
                        concat!(
                            "{{\"phase1_pivots\":{},\"phase2_pivots\":{},",
                            "\"dual_pivots\":{},\"lex_pivots\":{},",
                            "\"tableau_builds\":{},\"scratch_reuses\":{},",
                            "\"bland_activations\":{}}}"
                        ),
                        o.phase1_pivots,
                        o.phase2_pivots,
                        o.dual_pivots,
                        o.lex_pivots,
                        o.tableau_builds,
                        o.scratch_reuses,
                        o.bland_activations,
                    )
                },
            );
            out.push_str(&format!(
                concat!(
                    "    \"{}\": {{\n",
                    "      \"portable\": {{\"points\": [{}], ",
                    "\"cache\": {{\"cache_hits\":{},\"cache_misses\":{},",
                    "\"chained_accepts\":{},\"chained_rejects\":{},",
                    "\"basis_reused\":{}}}, ",
                    "\"nodes\": {}, \"ops\": {}}},\n",
                    "      \"machine\": {{\"wall_us\": {}, \"nodes\": {}, ",
                    "\"peak_rss_kb\": {}}}\n",
                    "    }}{}\n"
                ),
                key,
                points.join(","),
                c.cache.cache_hits,
                c.cache.cache_misses,
                c.cache.chained_accepts,
                c.cache.chained_rejects,
                c.cache.basis_reused,
                opt_u64_json(c.portable_nodes),
                ops,
                c.wall_us,
                opt_u64_json(c.machine_nodes),
                opt_u64_json(c.peak_rss_kb),
                if i + 1 == sorted.len() { "" } else { "," },
            ));
        }
        out.push_str("  },\n  \"corpus\": {\n");
        let mut sorted: Vec<&(String, CorpusResult)> = self.corpus.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (key, c)) in sorted.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    \"{}\": {{\n",
                    "      \"portable\": {{\"entries\":{},\"solved\":{},",
                    "\"infeasible\":{},\"gain\":{},\"area_tenths\":{},",
                    "\"nodes\":{},\"pivots\":{}}},\n",
                    "      \"machine\": {{\"wall_us\":{}}}\n",
                    "    }}{}\n"
                ),
                key,
                c.entries,
                c.solved,
                c.infeasible,
                c.gain,
                c.area_tenths,
                c.nodes,
                c.pivots,
                c.wall_us,
                if i + 1 == sorted.len() { "" } else { "," },
            ));
        }
        out.push_str("  },\n  \"service\": {\n");
        let mut sorted: Vec<&(String, ServiceResult)> = self.service.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (key, s)) in sorted.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    \"{}\": {{\n",
                    "      \"portable\": {{\"requests\":{},\"ok\":{},",
                    "\"cache_hits\":{},\"degraded\":{}}},\n",
                    "      \"machine\": {{\"p50_us\":{},\"p99_us\":{}}}\n",
                    "    }}{}\n"
                ),
                key,
                s.requests,
                s.ok,
                s.cache_hits,
                s.degraded,
                s.p50_us,
                s.p99_us,
                if i + 1 == sorted.len() { "" } else { "," },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report serialized by [`SuiteReport::to_json`].
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
        let configs_obj = doc.get("configs").ok_or("missing configs")?;
        let mut configs = Vec::new();
        for (key, cfg) in configs_obj.entries().ok_or("configs not an object")? {
            let portable = cfg.get("portable").ok_or("missing portable")?;
            let machine = cfg.get("machine").ok_or("missing machine")?;
            let cache = portable.get("cache").ok_or("missing cache")?;
            let get = |obj: &JsonValue, k: &str| -> Result<u64, String> {
                obj.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("missing {k}"))
            };
            let opt = |obj: &JsonValue, k: &str| -> Option<u64> {
                obj.get(k).and_then(JsonValue::as_u64)
            };
            let mut points = Vec::new();
            for p in portable
                .get("points")
                .and_then(JsonValue::as_array)
                .ok_or("missing points")?
            {
                points.push(PointResult {
                    rg: get(p, "rg")?,
                    gain: get(p, "gain")?,
                    area_tenths: get(p, "area_tenths")? as i64,
                    status: p
                        .get("status")
                        .and_then(JsonValue::as_str)
                        .ok_or("missing status")?
                        .to_string(),
                });
            }
            configs.push((
                key.clone(),
                ConfigResult {
                    points,
                    cache: CacheStats {
                        cache_hits: get(cache, "cache_hits")?,
                        cache_misses: get(cache, "cache_misses")?,
                        chained_accepts: get(cache, "chained_accepts")?,
                        chained_rejects: get(cache, "chained_rejects")?,
                        basis_reused: get(cache, "basis_reused")?,
                    },
                    portable_nodes: opt(portable, "nodes"),
                    // Additive: baselines written before the ops section
                    // existed (and `null` at multi-thread configs) parse to
                    // `None` and skip the ops gates.
                    ops: portable
                        .get("ops")
                        .filter(|o| !matches!(o, JsonValue::Null))
                        .map(|o| OpsCounters {
                            phase1_pivots: opt(o, "phase1_pivots").unwrap_or(0),
                            phase2_pivots: opt(o, "phase2_pivots").unwrap_or(0),
                            dual_pivots: opt(o, "dual_pivots").unwrap_or(0),
                            lex_pivots: opt(o, "lex_pivots").unwrap_or(0),
                            tableau_builds: opt(o, "tableau_builds").unwrap_or(0),
                            scratch_reuses: opt(o, "scratch_reuses").unwrap_or(0),
                            bland_activations: opt(o, "bland_activations").unwrap_or(0),
                        }),
                    wall_us: get(machine, "wall_us")?,
                    machine_nodes: opt(machine, "nodes"),
                    peak_rss_kb: opt(machine, "peak_rss_kb"),
                },
            ));
        }
        configs.sort_by(|a, b| a.0.cmp(&b.0));
        // The corpus section is additive: reports written before it existed
        // parse to an empty section.
        let mut corpus = Vec::new();
        if let Some(corpus_obj) = doc.get("corpus") {
            for (key, c) in corpus_obj.entries().ok_or("corpus not an object")? {
                let portable = c.get("portable").ok_or("missing corpus portable")?;
                let machine = c.get("machine").ok_or("missing corpus machine")?;
                let get = |obj: &JsonValue, k: &str| -> Result<u64, String> {
                    obj.get(k)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("missing corpus {k}"))
                };
                corpus.push((
                    key.clone(),
                    CorpusResult {
                        entries: get(portable, "entries")?,
                        solved: get(portable, "solved")?,
                        infeasible: get(portable, "infeasible")?,
                        gain: get(portable, "gain")?,
                        area_tenths: get(portable, "area_tenths")? as i64,
                        nodes: get(portable, "nodes")?,
                        // Additive: absent in pre-ops baselines.
                        pivots: portable
                            .get("pivots")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0),
                        wall_us: get(machine, "wall_us")?,
                    },
                ));
            }
        }
        corpus.sort_by(|a, b| a.0.cmp(&b.0));
        // The service section is additive: reports written before the
        // daemon existed parse to an empty section.
        let mut service = Vec::new();
        if let Some(service_obj) = doc.get("service") {
            for (key, s) in service_obj.entries().ok_or("service not an object")? {
                let portable = s.get("portable").ok_or("missing service portable")?;
                let machine = s.get("machine").ok_or("missing service machine")?;
                let get = |obj: &JsonValue, k: &str| -> Result<u64, String> {
                    obj.get(k)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("missing service {k}"))
                };
                service.push((
                    key.clone(),
                    ServiceResult {
                        requests: get(portable, "requests")?,
                        ok: get(portable, "ok")?,
                        cache_hits: get(portable, "cache_hits")?,
                        degraded: get(portable, "degraded")?,
                        p50_us: get(machine, "p50_us")?,
                        p99_us: get(machine, "p99_us")?,
                    },
                ));
            }
        }
        service.sort_by(|a, b| a.0.cmp(&b.0));
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
/// * any **portable** drift — per-point gain, area, or status changed, or
///   cache counters changed;
/// * any single-threaded **node-count** growth (strict: the search is
///   deterministic at one thread, so even +1 node is a real change);
/// * any single-threaded **simplex ops** growth — total pivots or
///   allocating tableau builds — when both reports carry an ops section;
/// * **wall time** beyond `baseline * (1 + wall_threshold)` *and* beyond
///   an absolute [`WALL_NOISE_FLOOR_US`] above the baseline;
/// * a **corpus group** missing from the current run, or any drift in its
///   portable tallies (entry/feasibility counts, total gain/area, or
///   node-count growth);
/// * in the current run alone, a single-threaded **chained** sweep that
///   explores more nodes than its cold twin, or chained sweeps that do
///   not save nodes strictly in aggregate.
#[must_use]
pub fn compare_reports(
    baseline: &SuiteReport,
    current: &SuiteReport,
    wall_threshold: f64,
) -> Vec<String> {
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
        if let (Some(b), Some(c)) = (base.portable_nodes, cur.portable_nodes) {
            if c > b {
                regressions.push(format!("{key}: node count regressed {b} -> {c}"));
            }
        }
        // Ops gates (single-threaded configs, skipped against pre-ops
        // baselines): the simplex must not spend more pivots in total, and
        // must not heap-allocate more tableaus, than the baseline.
        if let (Some(b), Some(c)) = (base.ops, cur.ops) {
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
        let allowed = (base.wall_us as f64 * (1.0 + wall_threshold)) as u64;
        let allowed = allowed.max(base.wall_us.saturating_add(WALL_NOISE_FLOOR_US));
        if cur.wall_us > allowed {
            regressions.push(format!(
                "{key}: wall time regressed {} us -> {} us (allowed {} us)",
                base.wall_us, cur.wall_us, allowed
            ));
        }
    }
    // Corpus gates: the corpus is committed (manifest-pinned digests), so
    // every portable tally is exact — group membership, feasibility split,
    // total gain/area and single-threaded node counts must all reproduce.
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
        // Pivot gate, skipped against pre-ops baselines (which carry 0) and
        // for greedy-backed groups that never touch the simplex.
        if base.pivots > 0 && cur.pivots > base.pivots {
            regressions.push(format!(
                "corpus/{key}: simplex pivot count regressed {} -> {}",
                base.pivots, cur.pivots
            ));
        }
    }
    // Chaining gates. The node-saving property is self-contained, so it
    // gates the *current* run outright over its single-threaded configs:
    // per workload the chained sweep must never cost nodes against the cold
    // one, and across the run it must save strictly.
    let mut chained_total = 0u64;
    let mut cold_total = 0u64;
    for (key, chained) in &current.configs {
        let Some(cold_key) = key
            .strip_suffix(":t1")
            .and_then(|k| k.strip_suffix(":chained"))
            .map(|w| format!("{w}:cold:t1"))
        else {
            continue;
        };
        let Some((_, cold)) = current.configs.iter().find(|(k, _)| *k == cold_key) else {
            continue;
        };
        let (Some(c), Some(f)) = (chained.portable_nodes, cold.portable_nodes) else {
            continue;
        };
        if c > f {
            regressions.push(format!("{key}: chaining cost nodes ({c} > {f} cold)"));
        }
        chained_total += c;
        cold_total += f;
    }
    if cold_total > 0 && chained_total >= cold_total {
        regressions.push(format!(
            "chained sweeps must explore strictly fewer nodes in aggregate \
             (chained {chained_total} !< cold {cold_total})"
        ));
    }
    // Service gates: the scripted two-tenant sequence is derived from the
    // committed corpus, so every portable tally must reproduce exactly;
    // latency percentiles are machine-dependent and not gated.
    for (key, base) in &baseline.service {
        let Some((_, cur)) = current.service.iter().find(|(k, _)| k == key) else {
            regressions.push(format!("service/{key}: group missing from current run"));
            continue;
        };
        if (cur.requests, cur.ok, cur.cache_hits, cur.degraded)
            != (base.requests, base.ok, base.cache_hits, base.degraded)
        {
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

    // --- peak RSS parsing -------------------------------------------------

    #[test]
    fn vm_hwm_parses_the_kernel_format() {
        let status = "VmPeak:\t  200000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
    }

    #[test]
    fn vm_hwm_tolerates_whitespace_and_unit_variants() {
        assert_eq!(parse_vm_hwm_kb("VmHWM:     42 kB"), Some(42));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t42\tkB"), Some(42));
        assert_eq!(parse_vm_hwm_kb("  VmHWM:  42 KB"), Some(42));
        assert_eq!(parse_vm_hwm_kb("VmHWM : 42 kB"), Some(42));
        assert_eq!(parse_vm_hwm_kb("VmHWM: 42"), Some(42));
        assert_eq!(parse_vm_hwm_kb("VmHWM: 2 MB"), Some(2048));
        assert_eq!(parse_vm_hwm_kb("VmHWM: 1 gB"), Some(1_048_576));
    }

    #[test]
    fn vm_hwm_returns_none_on_malformed_lines() {
        assert_eq!(parse_vm_hwm_kb(""), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS: 42 kB"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: lots kB"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: -1 kB"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: 42 pages"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: 42 kB extra"), None);
        // A u64 overflow while scaling must refuse, not wrap.
        assert_eq!(parse_vm_hwm_kb(&format!("VmHWM: {} MB", u64::MAX)), None);
    }

    // --- ops section round-trip and compare gates -------------------------

    fn config(nodes: Option<u64>, ops: Option<OpsCounters>) -> ConfigResult {
        ConfigResult {
            points: vec![PointResult {
                rg: 90,
                gain: 95,
                area_tenths: 120,
                status: "Optimal".to_string(),
            }],
            cache: CacheStats::default(),
            portable_nodes: nodes,
            ops,
            wall_us: 1000,
            machine_nodes: nodes.is_none().then_some(7),
            peak_rss_kb: Some(4096),
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
            wall_us: 900,
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
        let r = report(vec![
            ("t1".to_string(), config(Some(12), Some(sample_ops()))),
            ("t4".to_string(), config(None, None)),
        ]);
        let parsed = SuiteReport::from_json(&r.to_json()).expect("round-trip parses");
        assert_eq!(parsed, r);
        assert_eq!(parsed.configs[0].1.ops, Some(sample_ops()));
        assert_eq!(parsed.configs[1].1.ops, None);
        assert_eq!(parsed.corpus[0].1.pivots, 150);
    }

    #[test]
    fn pre_ops_baselines_parse_and_skip_the_ops_gates() {
        // A baseline written before the ops section existed: no "ops" key in
        // the config portable block, no "pivots" in the corpus block.
        let old = format!(
            concat!(
                "{{\"schema\": {}, \"suite\": \"partita-benchsuite\", \"configs\": {{\n",
                "  \"t1\": {{\"portable\": {{\"points\": [], \"cache\": {{",
                "\"cache_hits\":0,\"cache_misses\":0,\"chained_accepts\":0,",
                "\"chained_rejects\":0,\"basis_reused\":0}}, ",
                "\"nodes\": 12}},\n",
                "  \"machine\": {{\"wall_us\": 1000, \"nodes\": null, ",
                "\"peak_rss_kb\": null}}}}\n",
                "}}, \"corpus\": {{\n",
                "  \"synth:small\": {{\"portable\": {{\"entries\":3,\"solved\":2,",
                "\"infeasible\":1,\"gain\":200,\"area_tenths\":450,\"nodes\":40}},\n",
                "  \"machine\": {{\"wall_us\":900}}}}\n",
                "}}}}"
            ),
            SUITE_SCHEMA
        );
        let baseline = SuiteReport::from_json(&old).expect("pre-ops baseline parses");
        assert_eq!(baseline.configs[0].1.ops, None);
        assert_eq!(baseline.corpus[0].1.pivots, 0);
        // A current run that *does* carry ops must not be flagged against it.
        let mut cur_cfg = config(Some(12), Some(sample_ops()));
        cur_cfg.points.clear();
        let current = report(vec![("t1".to_string(), cur_cfg)]);
        let regressions = compare_reports(&baseline, &current, 10.0);
        assert!(
            regressions.is_empty(),
            "pre-ops baseline must skip ops gates: {regressions:?}"
        );
    }

    #[test]
    fn pivot_growth_is_a_regression() {
        let baseline = report(vec![(
            "t1".to_string(),
            config(Some(12), Some(sample_ops())),
        )]);
        let mut worse = sample_ops();
        worse.phase2_pivots += 1;
        let current = report(vec![("t1".to_string(), config(Some(12), Some(worse)))]);
        let regressions = compare_reports(&baseline, &current, 10.0);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("pivot count regressed")),
            "expected a pivot regression, got {regressions:?}"
        );
    }

    #[test]
    fn allocating_build_growth_is_a_regression_but_fewer_reuses_alone_is_not() {
        let baseline = report(vec![(
            "t1".to_string(),
            config(Some(12), Some(sample_ops())),
        )]);
        let mut worse = sample_ops();
        worse.scratch_reuses -= 1; // builds constant => one more cold allocation
        let current = report(vec![("t1".to_string(), config(Some(12), Some(worse)))]);
        let regressions = compare_reports(&baseline, &current, 10.0);
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
        let current = report(vec![("t1".to_string(), config(Some(12), Some(better)))]);
        assert!(compare_reports(&baseline, &current, 10.0).is_empty());
    }

    #[test]
    fn corpus_pivot_growth_is_a_regression_unless_baseline_is_preops() {
        let base = report(Vec::new());
        let mut cur = report(Vec::new());
        cur.corpus[0].1.pivots = 151;
        let regressions = compare_reports(&base, &cur, 10.0);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("corpus/synth:small: simplex pivot count regressed")),
            "expected a corpus pivot regression, got {regressions:?}"
        );
        // Greedy-backed / pre-ops baselines carry 0 pivots: gate skipped.
        let mut preops = report(Vec::new());
        preops.corpus[0].1.pivots = 0;
        assert!(compare_reports(&preops, &cur, 10.0).is_empty());
        // Fewer pivots than baseline is an improvement, not a regression.
        let mut fewer = report(Vec::new());
        fewer.corpus[0].1.pivots = 100;
        assert!(compare_reports(&base, &fewer, 10.0).is_empty());
    }
}
