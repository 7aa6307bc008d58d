//! Sweep-as-a-service: a concurrent multi-tenant solve daemon.
//!
//! The paper's workflow (§5) is interactive design-space exploration — a
//! designer nudges required gains and re-solves. This crate is the
//! long-lived process that serves that loop to many tenants at once,
//! exploiting two properties the lower layers were built for:
//!
//! * **Canonical content keys** ([`partita_core::sweep::canonical_solve_key`])
//!   exclude display names and effort-only knobs, so isomorphic instances
//!   from *different tenants* produce byte-identical keys and share one
//!   entry in the process-wide sharded cache
//!   ([`partita_core::cache::ShardedLru`]).
//! * **`Arc`-shared zero-copy state** — resolved workloads hold
//!   `Arc<Instance>` / `Arc<ImpDb>`, so fanning a corpus entry across
//!   tenants copies pointers, never problem data.
//!
//! # Shape
//!
//! * [`ServiceCore`] — the daemon state: sharded canonical cache, resolved
//!   corpus workloads, per-tenant admission counters, counters. Protocol
//!   handling is [`ServiceCore::handle_request`]; everything else (stdio
//!   pump, socket listeners, scripted replay) funnels into it.
//! * Admission control, the same constants for every tenant: a request's
//!   node cap is clamped to [`partita_core::SolveBudget::default`]'s, each
//!   tenant may run 4 jobs at once and queue 1,024 across every connection
//!   (enforced by the fair scheduler), and under load points degrade to
//!   the greedy backend (honestly reported as
//!   [`partita_core::OptimalityStatus::Heuristic`]).
//! * [`server`] — a worker pool per served stream (stdin/stdout, or each
//!   Unix/TCP connection; `workers` threads each, one per core by default)
//!   with a fair per-tenant FIFO (round-robin across tenants, FIFO within
//!   one), speaking newline-delimited JSON.
//! * [`replay`] — deterministic scripted-replay of a request log, used by
//!   the golden-diff CI leg.
//!
//! Requests and responses are the versioned envelopes of
//! [`partita_core::api`]; instances are named by corpus-manifest ids
//! (e.g. `viterbi-0003`), digest-verified on first resolve.
//!
//! # Example
//!
//! ```
//! use partita_service::{ServiceConfig, ServiceCore};
//!
//! let core = ServiceCore::new(ServiceConfig::default());
//! let reply = core.handle_line(
//!     r#"{"api_version":1,"id":"r1","tenant":"alice","method":"ping"}"#,
//! );
//! assert!(reply.contains("\"pong\":true"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod server;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use partita_core::api::{
    ApiError, Payload, Request, RequestBody, Response, SolveResult, SolveSpec, StatsSnapshot,
};
use partita_core::cache::{fnv1a64, ShardedLru};
use partita_core::delta::{DeltaSession, InstanceDelta};
use partita_core::sweep::{canonical_solve_key, is_cacheable};
use partita_core::telemetry::{self, CacheKind, Event, TelemetrySink};
use partita_core::verify::SelectionAuditor;
use partita_core::{Backend, CoreError, Redaction, Selection, SolveBudget, SolveOptions};
use partita_workloads::corpus::{self, ManifestEntry};
use partita_workloads::Workload;

/// Shards of the process-wide canonical cache. More shards, less lock
/// contention; the full-string keys keep hits collision-free regardless.
const CACHE_SHARDS: usize = 16;

/// When the number of admitted-but-unfinished jobs exceeds this, new
/// points degrade to the greedy backend until the backlog drains (graceful
/// degradation under load; never silent — results say `degraded` and carry
/// [`partita_core::OptimalityStatus::Heuristic`]).
const DEGRADE_LOAD: usize = 64;

/// Jobs of one tenant that may run at once, counted across every served
/// connection; beyond this, the tenant's jobs wait in its FIFO while other
/// tenants' jobs run (the fair scheduler's cap — see [`server`]).
const MAX_INFLIGHT: usize = 4;

/// Jobs of one tenant that may wait, counted across every served
/// connection; beyond this, requests are refused outright with
/// [`ApiError::Overloaded`] (code 429).
const MAX_QUEUED: usize = 1024;

/// Daemon-wide configuration: the worker count and the cache size. The
/// shard count, the admission caps and the overload threshold are
/// constants.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads per served stream (default: one per core).
    pub workers: usize,
    /// Entries per cache shard, LRU beyond that (default 512).
    pub shard_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shard_capacity: 512,
        }
    }
}

/// Process-wide per-tenant admission counters. Shared by every served
/// connection, so [`MAX_INFLIGHT`] / [`MAX_QUEUED`] cannot be multiplied
/// by opening more connections.
#[derive(Debug, Default)]
struct TenantLoad {
    inflight: usize,
    queued: usize,
}

/// The daemon state shared by every listener, worker and replay driver.
///
/// See the crate docs; the one-line summary is: parse the envelope, clamp
/// its node cap, answer points from the sharded canonical cache when
/// byte-identical work was already done for *any* tenant, and solve (or
/// greedy-degrade under load) otherwise.
pub struct ServiceCore {
    config: ServiceConfig,
    cache: ShardedLru<Selection>,
    workloads: Mutex<HashMap<String, Arc<Workload>>>,
    manifest: OnceLock<Result<HashMap<String, ManifestEntry>, String>>,
    /// Per-tenant queued/in-flight counts across every served connection.
    admission: Mutex<HashMap<String, TenantLoad>>,
    /// Jobs admitted by a server loop and not yet answered (load signal
    /// for graceful degradation).
    load: AtomicUsize,
    served: AtomicU64,
    cache_hits: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("config", &self.config)
            .field("cache_entries", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl ServiceCore {
    /// Creates a daemon core with the given configuration.
    #[must_use]
    pub fn new(config: ServiceConfig) -> ServiceCore {
        ServiceCore {
            cache: ShardedLru::new(CACHE_SHARDS, config.shard_capacity),
            workloads: Mutex::new(HashMap::new()),
            manifest: OnceLock::new(),
            admission: Mutex::new(HashMap::new()),
            load: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sink: None,
            config,
        }
    }

    /// Routes this core's telemetry to `sink` instead of the process-wide
    /// default ([`telemetry::global`]).
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> ServiceCore {
        self.sink = Some(sink);
        self
    }

    /// This core's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn sink(&self) -> &dyn TelemetrySink {
        match &self.sink {
            Some(s) => s.as_ref(),
            None => telemetry::global(),
        }
    }

    /// Current counter snapshot (the `stats` method's payload).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cache_entries: self.cache.len() as u64,
        }
    }

    pub(crate) fn load_enter(&self) {
        self.load.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn load_exit(&self) {
        self.load.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Claims one slot of `tenant`'s process-wide queue allowance
    /// ([`MAX_QUEUED`]); `false` refuses the request. Every `true` must be
    /// reversed by exactly one later [`Self::try_start`] (the job ran) or
    /// [`Self::drop_queued`] (dropped at shutdown).
    pub(crate) fn try_admit(&self, tenant: &str) -> bool {
        let mut admission = self.admission.lock().expect("admission lock");
        let load = admission.entry(tenant.to_string()).or_default();
        if load.queued >= MAX_QUEUED {
            if load.queued == 0 && load.inflight == 0 {
                admission.remove(tenant);
            }
            return false;
        }
        load.queued += 1;
        true
    }

    /// Moves one of `tenant`'s queued jobs into its in-flight allowance
    /// ([`MAX_INFLIGHT`]). `false` leaves the job queued for a later
    /// scheduling step.
    pub(crate) fn try_start(&self, tenant: &str) -> bool {
        let mut admission = self.admission.lock().expect("admission lock");
        let load = admission.entry(tenant.to_string()).or_default();
        if load.inflight >= MAX_INFLIGHT {
            return false;
        }
        load.queued = load.queued.saturating_sub(1);
        load.inflight += 1;
        true
    }

    /// Releases the in-flight slot claimed by [`Self::try_start`].
    pub(crate) fn finish_job(&self, tenant: &str) {
        let mut admission = self.admission.lock().expect("admission lock");
        if let Some(load) = admission.get_mut(tenant) {
            load.inflight = load.inflight.saturating_sub(1);
            if load.inflight == 0 && load.queued == 0 {
                admission.remove(tenant);
            }
        }
    }

    /// Releases a queue slot claimed by [`Self::try_admit`] for a job
    /// that will never run (dropped while draining at shutdown).
    pub(crate) fn drop_queued(&self, tenant: &str) {
        let mut admission = self.admission.lock().expect("admission lock");
        if let Some(load) = admission.get_mut(tenant) {
            load.queued = load.queued.saturating_sub(1);
            if load.inflight == 0 && load.queued == 0 {
                admission.remove(tenant);
            }
        }
    }

    /// Jobs admitted by a server loop and not yet answered. Every served
    /// connection returns it to where it started, whatever its input.
    #[must_use]
    pub fn current_load(&self) -> usize {
        self.load.load(Ordering::Relaxed)
    }

    /// Parses one NDJSON request line and answers it, rendering the reply
    /// with `redaction` (scripted-replay goldens use
    /// [`Redaction::Timing`]; live serving uses [`Redaction::None`]).
    #[must_use]
    pub fn handle_line_redacted(&self, line: &str, redaction: Redaction) -> String {
        match Request::parse(line) {
            Ok(req) => self.handle_request(&req).to_json(redaction),
            Err(err) => {
                let (id, tenant) = best_effort_ids(line);
                self.served.fetch_add(1, Ordering::Relaxed);
                Response::error(&id, &tenant, err).to_json(redaction)
            }
        }
    }

    /// [`ServiceCore::handle_line_redacted`] with full (unredacted)
    /// timing.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_redacted(line, Redaction::None)
    }

    /// Answers one parsed request. This is the whole protocol: every
    /// transport (stdio, sockets, replay, tests) funnels here.
    #[must_use]
    pub fn handle_request(&self, req: &Request) -> Response {
        self.served.fetch_add(1, Ordering::Relaxed);
        let result = match &req.body {
            RequestBody::Ping => Ok(Payload::Pong),
            RequestBody::Stats => Ok(Payload::Stats(self.stats())),
            RequestBody::Solve { instance, spec } => self
                .resolve_workload(instance)
                .and_then(|w| self.solve_point(&w, spec, spec.rg))
                .map(Payload::Solve),
            RequestBody::Sweep {
                instance,
                spec,
                rgs,
            }
            | RequestBody::Delta {
                instance,
                spec,
                rgs,
            } => self
                .resolve_workload(instance)
                .and_then(|w| self.serve_walk(&w, spec, rgs))
                .map(Payload::Points),
            RequestBody::Batch { jobs } => {
                let results = jobs
                    .iter()
                    .map(|job| {
                        self.resolve_workload(&job.instance)
                            .and_then(|w| self.solve_point(&w, &job.spec, job.spec.rg))
                    })
                    .collect();
                Ok(Payload::Batch(results))
            }
            // `RequestBody` is non_exhaustive: a newer core may define
            // methods this daemon build does not serve yet.
            other => Err(ApiError::UnknownMethod(other.method().to_string())),
        };
        Response {
            id: req.id.clone(),
            tenant: req.tenant.clone(),
            result,
        }
    }

    /// Resolves a corpus-manifest id to its (digest-verified, `Arc`-shared)
    /// workload, building it on first use.
    fn resolve_workload(&self, id: &str) -> Result<Arc<Workload>, ApiError> {
        if let Some(w) = self
            .workloads
            .lock()
            .expect("workload table lock")
            .get(id)
            .cloned()
        {
            return Ok(w);
        }
        let manifest = self
            .manifest
            .get_or_init(|| {
                corpus::manifest().map(|entries| {
                    entries
                        .into_iter()
                        .map(|e| (e.id.clone(), e))
                        .collect::<HashMap<_, _>>()
                })
            })
            .as_ref()
            .map_err(|e| ApiError::Internal(format!("corpus manifest unreadable: {e}")))?;
        let entry = manifest
            .get(id)
            .ok_or_else(|| ApiError::UnknownInstance(id.to_string()))?;
        // verify() rebuilds the workload and checks the pinned content
        // digest, so a drifted generator can never silently serve wrong
        // instances to tenants.
        let workload = Arc::new(entry.verify().map_err(ApiError::Workload)?);
        self.workloads
            .lock()
            .expect("workload table lock")
            .insert(id.to_string(), workload.clone());
        Ok(workload)
    }

    /// Whether this point must degrade to the greedy backend, and the
    /// options to solve it with: the spec's, its node cap clamped to
    /// [`SolveBudget::default`]'s (its deadline passes through).
    fn admit(&self, spec: &SolveSpec, rg: u64) -> (SolveOptions, bool) {
        let mut options = spec.to_options_at(rg);
        let budget = *options.solve_budget();
        let cap = SolveBudget::default().max_nodes;
        options = options.budget(budget.with_max_nodes(budget.max_nodes.min(cap)));
        let degrade = self.load.load(Ordering::Relaxed) > DEGRADE_LOAD;
        if degrade {
            options = options.backend(Backend::Greedy);
        }
        (options, degrade)
    }

    /// Solves one (instance, spec, rg) point through the shared canonical
    /// cache, cold on a miss.
    fn solve_point(
        &self,
        w: &Workload,
        spec: &SolveSpec,
        rg: u64,
    ) -> Result<SolveResult, ApiError> {
        self.answer_point(w, spec, rg, |options| cold_solve(w, options))
    }

    /// The per-point protocol shared by every method: admission, then the
    /// shared canonical cache, then on a miss a greedy solve when the point
    /// is degraded or `exact` otherwise. Fresh answers feed the cache under
    /// their canonical key unless a budget stop picked them
    /// ([`is_cacheable`]).
    fn answer_point(
        &self,
        w: &Workload,
        spec: &SolveSpec,
        rg: u64,
        exact: impl FnOnce(&SolveOptions) -> Result<Selection, CoreError>,
    ) -> Result<SolveResult, ApiError> {
        let start = Instant::now();
        let (options, degraded) = self.admit(spec, rg);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let key = canonical_solve_key(&w.instance, &w.imps, &options);
        let cached = self.cache.get(&key);
        let hit = cached.is_some();
        let sink = self.sink();
        if sink.enabled() {
            sink.emit(&Event::CacheLookup {
                cache: CacheKind::Service,
                hit,
                digest: fnv1a64(&key),
            });
        }
        let selection = match cached {
            Some(sel) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                // The audit flag is excluded from the canonical key, so a
                // hit must run its own audit when this request asked for
                // one — a cached answer is only as trustworthy as the
                // checks *this* caller requested.
                if spec.audit {
                    SelectionAuditor::new(&w.instance, &w.imps)
                        .audit(&sel, &options)
                        .into_result()
                        .map_err(ApiError::Core)?;
                }
                sel
            }
            None => {
                let sel = if degraded {
                    cold_solve(w, &options)
                } else {
                    exact(&options)
                }
                .map_err(ApiError::Core)?;
                if is_cacheable(&sel) {
                    self.cache.insert(key, sel.clone());
                }
                sel
            }
        };
        let mut result = SolveResult::from_selection(rg, &selection);
        result.cache_hit = hit;
        result.degraded = degraded;
        result.wall_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        Ok(result)
    }

    /// Serves a sweep or a delta walk — one walk for both. Each distinct RG
    /// is visited once, in descending order (the order in which a
    /// predecessor's optimum stays feasible), and the results come back in
    /// the caller's order. A point the shared cache cannot answer, and
    /// that is not degraded, is an `SetRg` patch plus
    /// [`DeltaSession::resolve`] on one lazily built session (basis repair
    /// and verified incumbent seeding). Its answer feeds the shared cache
    /// under its *cold* canonical key — sound because a completed delta
    /// resolve returns the identical selection a cold solve would, and a
    /// budget-picked answer is not cached.
    fn serve_walk(
        &self,
        w: &Workload,
        spec: &SolveSpec,
        rgs: &[u64],
    ) -> Result<Vec<SolveResult>, ApiError> {
        let mut order: Vec<u64> = rgs.to_vec();
        order.sort_unstable_by(|a, b| b.cmp(a));
        order.dedup();
        let mut session: Option<DeltaSession> = None;
        let mut solved: HashMap<u64, SolveResult> = HashMap::new();
        for rg in order {
            let result = self.answer_point(w, spec, rg, |options| {
                let ds = match session.as_mut() {
                    Some(ds) => {
                        ds.apply(InstanceDelta::SetRg(options.gains().clone()))?;
                        ds
                    }
                    None => session.insert(DeltaSession::new(
                        w.instance.clone(),
                        w.imps.clone(),
                        options.clone(),
                    )?),
                };
                ds.resolve()
            })?;
            solved.insert(rg, result);
        }
        Ok(rgs
            .iter()
            .map(|rg| solved.get(rg).cloned().expect("every point solved"))
            .collect())
    }
}

/// A cold library solve of one point of `w`.
fn cold_solve(w: &Workload, options: &SolveOptions) -> Result<Selection, CoreError> {
    partita_core::Solver::new(&w.instance)
        .with_imps(w.imps.clone())
        .solve(options)
}

/// Pulls `id`/`tenant` out of a line that failed full envelope parsing,
/// so even error replies can be matched to their request when possible.
pub(crate) fn best_effort_ids(line: &str) -> (String, String) {
    match telemetry::json::JsonValue::parse(line) {
        Ok(doc) => (
            doc.get("id")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            doc.get("tenant")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
        ),
        Err(_) => (String::new(), String::new()),
    }
}

// Compile-time audit that everything a worker thread shares is actually
// shareable: the service hands `Arc<ServiceCore>` (holding Selections,
// workloads and the cache) across its pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServiceCore>();
    assert_send_sync::<ShardedLru<Selection>>();
    assert_send_sync::<Workload>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ServiceCore {
        ServiceCore::new(ServiceConfig::default())
    }

    #[test]
    fn ping_round_trips() {
        let reply =
            core().handle_line(r#"{"api_version":1,"id":"p","tenant":"t","method":"ping"}"#);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"pong\":true"), "{reply}");
        assert!(reply.contains("\"id\":\"p\""), "{reply}");
    }

    #[test]
    fn malformed_line_answers_code_100_with_best_effort_ids() {
        let reply = core().handle_line(r#"{"id":"x","tenant":"t","method":"ping"}"#);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("\"code\":100"), "{reply}");
        assert!(reply.contains("\"id\":\"x\""), "{reply}");
        let garbage = core().handle_line("not json at all");
        assert!(garbage.contains("\"code\":100"), "{garbage}");
    }

    #[test]
    fn unknown_instance_answers_code_103() {
        let reply = core().handle_line(
            r#"{"api_version":1,"id":"s","tenant":"t","method":"solve","instance":"no-such-id","rg":100}"#,
        );
        assert!(reply.contains("\"code\":103"), "{reply}");
    }

    #[test]
    fn admission_counters_are_process_wide() {
        assert_eq!((MAX_INFLIGHT, MAX_QUEUED), (4, 1024), "the documented caps");
        let core = core();
        // Queue allowance spans every admitter, not one connection.
        for _ in 0..MAX_QUEUED {
            assert!(core.try_admit("t"));
        }
        assert!(!core.try_admit("t"), "admit 1,025 must hit the queue cap");
        assert!(core.try_admit("u"), "another tenant has its own queue");
        core.drop_queued("u");
        // In-flight allowance likewise.
        for _ in 0..MAX_INFLIGHT {
            assert!(core.try_start("t"));
        }
        assert!(!core.try_start("t"), "start 5 must hit the in-flight cap");
        core.finish_job("t");
        assert!(core.try_start("t"), "finish frees the in-flight slot");
        for _ in 0..MAX_INFLIGHT {
            core.finish_job("t");
        }
        for _ in MAX_INFLIGHT + 1..MAX_QUEUED {
            core.drop_queued("t");
        }
        // Both counters back to zero: the tenant's entry is gone.
        assert!(core.admission.lock().expect("admission lock").is_empty());
    }

    #[test]
    fn node_asks_are_capped_and_deadlines_pass_through() {
        let core = core();
        let cap = SolveBudget::default().max_nodes;
        let budget = |max_nodes, deadline_ms| {
            let spec = SolveSpec {
                max_nodes,
                deadline_ms,
                ..SolveSpec::default()
            };
            *core.admit(&spec, 1).0.solve_budget()
        };
        assert_eq!(cap, 200_000);
        assert_eq!(budget(Some(1_000_000), None).max_nodes, cap);
        assert_eq!(budget(None, None).max_nodes, cap);
        let modest = budget(Some(5), Some(7));
        assert_eq!(modest.max_nodes, 5, "a smaller ask passes through");
        assert_eq!(modest.deadline, Some(std::time::Duration::from_millis(7)));
        assert_eq!(budget(None, None).deadline, None);
    }

    #[test]
    fn overload_degrades_points_to_greedy_until_the_backlog_drains() {
        let core = core();
        for _ in 0..=DEGRADE_LOAD {
            core.load_enter();
        }
        let reply = core.handle_line(
            r#"{"api_version":1,"id":"o","tenant":"t","method":"solve","instance":"synth-micro-0000","rg":1}"#,
        );
        assert!(reply.contains("\"degraded\":true"), "{reply}");
        assert!(reply.contains("\"status\":\"heuristic\""), "{reply}");
        assert_eq!(core.stats().degraded, 1);
        for _ in 0..=DEGRADE_LOAD {
            core.load_exit();
        }
        assert_eq!(core.current_load(), 0);
    }

    #[test]
    fn solve_then_resolve_hits_shared_cache() {
        let core = core();
        let line = r#"{"api_version":1,"id":"s1","tenant":"alice","method":"solve","instance":"synth-micro-0000","rg":1}"#;
        let cold = core.handle_line(line);
        assert!(cold.contains("\"cache_hit\":false"), "{cold}");
        // Different tenant, different request id, same canonical problem.
        let warm = core.handle_line(
            r#"{"api_version":1,"id":"s2","tenant":"bob","method":"solve","instance":"synth-micro-0000","rg":1}"#,
        );
        assert!(warm.contains("\"cache_hit\":true"), "{warm}");
        let stats = core.stats();
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.cache_entries >= 1);
    }
}
