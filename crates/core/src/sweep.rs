//! Sweep orchestration: canonical-instance solve caching under the
//! interval rule.
//!
//! The paper's headline experiments (Tables 1–3, Figs 8–11) are RG
//! *sweeps*: the same instance solved at many required-gain points. Driving
//! each point as a cold, independent [`crate::Solver::solve`] call rebuilds
//! the ILP model and restarts branch-and-bound from scratch every time. A
//! [`SweepSession`] removes both redundancies:
//!
//! * **Canonical-instance caching.** Every request is canonicalized by
//!   [`canonical_solve_key`] into a stable content key over the instance
//!   *structure* (s-calls, library, paths, area model — everything except
//!   the display name), the IMP database and the answer-shaping options
//!   other than the gains. Answers are kept with the requirement they were
//!   solved at in a bounded LRU cache, and the cache rule of
//!   [`crate::cache`] decides which requests they answer: a repeat of the
//!   same requirement, and — for a proven optimum at `R` — every
//!   requirement `R' ≥ R` that the answer still meets, which it provably
//!   answers too. Duplicate, isomorphic, revisited or covered requests get
//!   byte-identical results, whichever path first solved them. Answers a
//!   budget stop picked are not kept ([`is_cacheable`]).
//! * **One model per sweep, walked upward.** [`SweepSession::sweep`] visits
//!   its points from the lowest RG up, so each proof can cover the points
//!   above it. A point no earlier answer covers becomes an
//!   [`InstanceDelta::SetRg`] patch of one lazily built [`DeltaSession`]
//!   model and a search on it, instead of a fresh formulation.
//!
//! All of it is observable: the session accumulates a [`SweepTrace`] with
//! cache hits/misses, per-point node counts and wall times, rendered as
//! JSON lines for scraping.

use std::sync::Arc;
use std::time::{Duration, Instant};

use partita_mop::Cycles;

use crate::cache::{fnv1a64, AnswerCache};
use crate::delta::{DeltaSession, InstanceDelta};
use crate::solver::solve_cold;
use crate::telemetry::{CacheKind, Event, TelemetrySink};
use crate::{
    CoreError, ImpDb, Instance, OptimalityStatus, RequiredGains, Selection, SolveOptions,
    SolveTrace,
};

/// Answers a [`SweepSession`] holds before evicting the least recently
/// used.
const SOLVE_CACHE_CAPACITY: usize = 256;

/// Telemetry of one sweep point run through a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// FNV-1a 64 digest of the canonical solve key (telemetry only — cache
    /// lookups compare full keys, never digests). The key leaves the gains
    /// out, so every point of one sweep shares it.
    pub digest: u64,
    /// The uniform required gain, when the point's gains are uniform.
    pub rg: Option<Cycles>,
    /// Whether the solve cache answered without running a solver.
    pub cache_hit: bool,
    /// Branch-and-bound nodes explored (0 on a cache hit — no new search).
    pub nodes_explored: usize,
    /// Wall time of this point, cache lookups included.
    pub wall: Duration,
}

/// Aggregated telemetry of a [`SweepSession`]: totals plus one
/// [`SweepPoint`] per request, in request order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepTrace {
    /// Requests answered from the solve cache.
    pub cache_hits: u64,
    /// Requests that had to run a solver.
    pub cache_misses: u64,
    /// Always 0: no sweep point is seeded from its predecessor. Kept only
    /// because the `perfbench` harness reads it for its
    /// `sweep.chain_accept_share` layer row, until a change to that
    /// harness drops the row.
    pub chained_accepts: u64,
    /// Always 0, kept for the same `sweep.chain_accept_share` row as
    /// [`SweepTrace::chained_accepts`].
    pub chained_rejects: u64,
    /// Per-request telemetry, in request order.
    pub points: Vec<SweepPoint>,
}

impl SweepTrace {
    /// Total branch-and-bound nodes explored across all recorded points
    /// (cache hits contribute 0).
    #[must_use]
    pub fn total_nodes(&self) -> u64 {
        self.points.iter().map(|p| p.nodes_explored as u64).sum()
    }

    /// Total wall time across all recorded points.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.points.iter().map(|p| p.wall).sum()
    }

    /// Renders the aggregate counters as one schema-tagged
    /// [`Event::SweepSummary`] JSON object labelled `label`.
    #[must_use]
    pub fn to_json(&self, label: &str) -> String {
        Event::SweepSummary {
            sweep: label.to_string(),
            points: self.points.len(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            nodes: self.total_nodes(),
            wall: self.total_wall(),
        }
        .to_json()
    }

    /// Renders one [`Event::SweepPoint`] JSON line per recorded point
    /// (with `sweep`/`point` filled in retrospectively), followed by the
    /// [`SweepTrace::to_json`] summary line.
    #[must_use]
    pub fn json_lines(&self, label: &str) -> Vec<String> {
        let mut lines: Vec<String> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Event::SweepPoint {
                    sweep: Some(label.to_string()),
                    point: Some(i),
                    digest: p.digest,
                    rg: p.rg.map(partita_mop::Cycles::get),
                    cache_hit: p.cache_hit,
                    nodes: p.nodes_explored,
                    wall: p.wall,
                }
                .to_json()
            })
            .collect();
        lines.push(self.to_json(label));
        lines
    }

    /// Renders a cold-vs-session comparison as one schema-tagged
    /// [`Event::SweepCompare`] JSON object: total nodes and wall time of
    /// both traces plus the nodes the session saved (negative if it
    /// somehow cost nodes).
    #[must_use]
    pub fn compare_json(label: &str, cold: &SweepTrace, swept: &SweepTrace) -> String {
        Event::SweepCompare {
            sweep: label.to_string(),
            cold_nodes: cold.total_nodes(),
            sweep_nodes: swept.total_nodes(),
            nodes_saved: nodes_saved_clamped(cold.total_nodes(), swept.total_nodes()),
            cold_wall: cold.total_wall(),
            sweep_wall: swept.total_wall(),
        }
        .to_json()
    }
}

/// `cold - swept` as a saturating `i64`: node totals are `u64`, so the
/// naive `as i64` difference wraps once either total passes `i64::MAX` —
/// reachable on x100-scale sweeps. Computing in `i128` and clamping keeps
/// the sign honest at every magnitude.
fn nodes_saved_clamped(cold: u64, swept: u64) -> i64 {
    let saved = i128::from(cold) - i128::from(swept);
    saved.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

/// Public form of the canonical instance + IMP-database content key: every
/// structural field, *excluding* the instance's display name, so isomorphic
/// instances (same structure, different name — e.g. the same corpus entry
/// built for two different tenants) produce byte-identical keys and share
/// cache entries. The `Debug` renderings of the constituent types are
/// deterministic (plain data, `BTreeMap`-backed where ordered iteration
/// matters).
///
/// Keys are full canonical strings, never hashes: equality of keys is
/// equality of problems, so a cache hit can never be a collision.
#[must_use]
pub fn canonical_instance_key(instance: &Instance, db: &ImpDb) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        instance.scalls, instance.library, instance.paths, instance.area_model, db
    )
}

/// The canonical solve key — the one key of every solve cache, the sweep
/// session's and the solve daemon's: the instance content key plus
/// everything other than the gains that can change **which selection is
/// returned** — problem kind, backend and budget (node cap and deadline).
/// The gains stay out because the cache rule compares them itself (see
/// [`crate::cache`]): the key names a family of problems that differ only
/// in their gain rows' right-hand sides, so one rendering serves a whole
/// sweep.
///
/// Deliberately excluded, and guaranteed excluded by test: the `audit`
/// flag (checking an answer never changes it) and the warm-start flag
/// (the greedy seed only prunes; strict pruning and the lexicographic
/// tie-break make the selection a completed search returns seed-invariant).
/// So a sweep point, a delta re-solve and a cold solve of the same problem
/// share answers, and the daemon shares them across tenants whose requests
/// differ only in those knobs. A budget-stopped answer can depend on the
/// warm-start flag, and such answers are never cached ([`is_cacheable`]).
#[must_use]
pub fn canonical_solve_key(instance: &Instance, db: &ImpDb, options: &SolveOptions) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}",
        canonical_instance_key(instance, db),
        options.problem,
        options.backend,
        options.budget,
    )
}

/// Whether a solve cache may store `sel`: every answer except those a
/// budget stop picked ([`OptimalityStatus::FeasibleBudgetExhausted`] and
/// [`OptimalityStatus::FallbackUsed`]), the only ones the key's excluded
/// warm-start flag can change.
#[must_use]
pub fn is_cacheable(sel: &Selection) -> bool {
    !matches!(
        sel.status,
        OptimalityStatus::FeasibleBudgetExhausted | OptimalityStatus::FallbackUsed
    )
}

/// A caching solve session.
///
/// See the module docs for the design; the short version:
///
/// ```
/// use partita_core::{sweep::SweepSession, ImpDb, Instance, RequiredGains,
///     SCall, SolveOptions};
/// use partita_ip::{IpBlock, IpFunction};
/// use partita_interface::TransferJob;
/// use partita_mop::{AreaTenths, Cycles};
///
/// # fn main() -> Result<(), partita_core::CoreError> {
/// let mut instance = Instance::new("demo");
/// instance.library.add(
///     IpBlock::builder("fir16").function(IpFunction::Fir)
///         .rates(4, 4).latency(8)
///         .area(AreaTenths::from_units(3)).build(),
/// );
/// let sc = instance.add_scall(
///     SCall::new("fir", IpFunction::Fir, Cycles(4000), TransferJob::new(160, 160)),
/// );
/// instance.add_path(vec![sc]);
/// let db = ImpDb::generate(&instance);
///
/// let mut session = SweepSession::new();
/// let base = SolveOptions::default();
/// let sweep = session.sweep(&instance, &db, &base, &[Cycles(500), Cycles(1000)])?;
/// assert_eq!(sweep.len(), 2);
/// // Re-running the same sweep is answered entirely from the cache.
/// let again = session.sweep(&instance, &db, &base, &[Cycles(500), Cycles(1000)])?;
/// assert_eq!(sweep, again);
/// assert!(session.trace().cache_hits >= 2);
/// # Ok(())
/// # }
/// ```
pub struct SweepSession {
    solves: AnswerCache,
    trace: SweepTrace,
    sink: Option<Arc<dyn TelemetrySink>>,
}

impl std::fmt::Debug for SweepSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepSession")
            .field("solves", &self.solves)
            .field("trace", &self.trace)
            .field("sink", &self.sink.as_ref().map(|_| "dyn TelemetrySink"))
            .finish()
    }
}

impl Default for SweepSession {
    fn default() -> Self {
        SweepSession::new()
    }
}

/// A rendered [`canonical_solve_key`] and its digest.
struct Key {
    key: String,
    digest: u64,
}

impl Key {
    fn new(instance: &Instance, db: &ImpDb, options: &SolveOptions) -> Key {
        let key = canonical_solve_key(instance, db, options);
        let digest = fnv1a64(&key);
        Key { key, digest }
    }
}

impl SweepSession {
    /// A session with an empty cache bounded at 256 answers
    /// (`SOLVE_CACHE_CAPACITY`), evicted least-recently-used first (a hit
    /// refreshes the answer it served).
    #[must_use]
    pub fn new() -> SweepSession {
        SweepSession {
            solves: AnswerCache::new(SOLVE_CACHE_CAPACITY),
            trace: SweepTrace::default(),
            sink: None,
        }
    }

    /// Routes this session's live telemetry ([`Event::CacheLookup`],
    /// [`Event::SweepPoint`]) — and the inner
    /// solves it dispatches — to `sink` instead of the
    /// process-wide [`crate::telemetry::global`] sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> SweepSession {
        self.sink = Some(sink);
        self
    }

    /// The sink live events go to: the explicit one, else the global one.
    fn sink(&self) -> &dyn TelemetrySink {
        crate::telemetry::resolve(self.sink.as_ref())
    }

    /// Emits a [`Event::CacheLookup`] for a solve-cache probe.
    fn emit_cache(&self, hit: bool, digest: u64) {
        let sink = self.sink();
        if sink.enabled() {
            sink.emit(&Event::CacheLookup {
                cache: CacheKind::Solve,
                hit,
                digest,
            });
        }
    }

    /// Records a point in the trace and emits its live [`Event::SweepPoint`]
    /// (`sweep`/`point` stay `None` — live streams have no label; the
    /// retrospective [`SweepTrace::json_lines`] renderer fills them in).
    fn record(&mut self, p: SweepPoint) {
        let sink = self.sink();
        if sink.enabled() {
            sink.emit(&Event::SweepPoint {
                sweep: None,
                point: None,
                digest: p.digest,
                rg: p.rg.map(Cycles::get),
                cache_hit: p.cache_hit,
                nodes: p.nodes_explored,
                wall: p.wall,
            });
        }
        self.trace.points.push(p);
    }

    /// Telemetry accumulated since construction (or the last
    /// [`SweepSession::take_trace`]).
    #[must_use]
    pub fn trace(&self) -> &SweepTrace {
        &self.trace
    }

    /// Drains and returns the accumulated telemetry, resetting it — lets a
    /// driver emit one trace per phase (e.g. cold sweep vs. cached sweep)
    /// from a single session.
    pub fn take_trace(&mut self) -> SweepTrace {
        std::mem::take(&mut self.trace)
    }

    /// A single cache-aware solve: answers from the solve cache when a
    /// stored answer serves the request (byte-identical [`Selection`],
    /// trace included — whichever path first solved it; see
    /// [`crate::cache`]), otherwise formulates and dispatches like
    /// [`crate::Solver::solve`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`crate::Solver::solve`]; errors are not cached
    /// (nor are budget-stopped answers, see [`is_cacheable`]).
    pub fn solve(
        &mut self,
        instance: &Instance,
        db: &ImpDb,
        options: &SolveOptions,
    ) -> Result<Selection, CoreError> {
        let key = Key::new(instance, db, options);
        self.answer(&key, instance, db, options, |s| {
            solve_cold(instance, db, options, SolveTrace::default(), s.sink())
        })
    }

    /// Runs a uniform-gain RG sweep: points are visited from the lowest
    /// requirement up, each one answered from the cache when a stored
    /// answer serves it — a proof at a lower point covers every point its
    /// selection still meets — and otherwise searched on one patched model
    /// (an [`InstanceDelta::SetRg`] of one [`DeltaSession`]). The key is
    /// rendered once per call. Selections are returned in the order of
    /// `rgs`. `base` supplies everything except the gains, which are
    /// overridden per point.
    ///
    /// Neither the cache rule nor the patch changes a selection — see the
    /// module docs — so the result is identical to
    /// [`SweepSession::sweep_cold`] point for point, only cheaper.
    ///
    /// # Errors
    ///
    /// The first point error, in ascending-RG solve order.
    pub fn sweep(
        &mut self,
        instance: &Instance,
        db: &ImpDb,
        base: &SolveOptions,
        rgs: &[Cycles],
    ) -> Result<Vec<Selection>, CoreError> {
        let key = Key::new(instance, db, base);
        let mut patched: Option<DeltaSession> = None;
        walk_ascending(base, rgs, |opts| {
            self.answer(&key, instance, db, opts, |s| {
                let ds = match patched.as_mut() {
                    Some(ds) => {
                        ds.apply(InstanceDelta::SetRg(opts.gains.clone()))?;
                        ds
                    }
                    None => {
                        let ds = DeltaSession::new(instance.clone(), db.clone(), opts.clone())?;
                        patched.insert(match &s.sink {
                            Some(sink) => ds.with_sink(Arc::clone(sink)),
                            None => ds,
                        })
                    }
                };
                ds.search()
            })
        })
    }

    /// The cold baseline for [`SweepSession::sweep`]: the same points, in
    /// the same order, each formulated and searched from scratch. The
    /// session's cache is neither read nor filled, so every point is a
    /// miss and its nodes are a cold solve's.
    ///
    /// # Errors
    ///
    /// The first point error, in ascending-RG solve order.
    pub fn sweep_cold(
        &mut self,
        instance: &Instance,
        db: &ImpDb,
        base: &SolveOptions,
        rgs: &[Cycles],
    ) -> Result<Vec<Selection>, CoreError> {
        let digest = fnv1a64(&canonical_solve_key(instance, db, base));
        walk_ascending(base, rgs, |opts| {
            let started = Instant::now();
            self.trace.cache_misses += 1;
            let sel = solve_cold(instance, db, opts, SolveTrace::default(), self.sink())?;
            self.record(SweepPoint {
                digest,
                rg: opts.gains.as_uniform(),
                cache_hit: false,
                nodes_explored: sel.trace.nodes_explored,
                wall: started.elapsed(),
            });
            Ok(sel)
        })
    }

    /// The cache-first step shared by every request: answers from the solve
    /// cache when a stored answer under `key` serves `options`, otherwise
    /// runs `miss`, stores its answer (unless a budget stop picked it) and
    /// records the point.
    fn answer(
        &mut self,
        key: &Key,
        instance: &Instance,
        db: &ImpDb,
        options: &SolveOptions,
        miss: impl FnOnce(&mut Self) -> Result<Selection, CoreError>,
    ) -> Result<Selection, CoreError> {
        let started = Instant::now();
        let rg = options.gains.as_uniform();
        if let Some(sel) = self.solves.get(&key.key, instance, options) {
            let sel = sel.clone();
            self.trace.cache_hits += 1;
            self.emit_cache(true, key.digest);
            self.record(SweepPoint {
                digest: key.digest,
                rg,
                cache_hit: true,
                nodes_explored: 0,
                wall: started.elapsed(),
            });
            return audit_cached(instance, db, options, sel);
        }
        self.trace.cache_misses += 1;
        self.emit_cache(false, key.digest);
        let sel = miss(self)?;
        self.record(SweepPoint {
            digest: key.digest,
            rg,
            cache_hit: false,
            nodes_explored: sel.trace.nodes_explored,
            wall: started.elapsed(),
        });
        self.solves.insert(&key.key, &options.gains, sel.clone());
        Ok(sel)
    }
}

/// Visits `rgs` from the lowest up, answering each with `visit` at `base`
/// overridden to that uniform gain, and returns the selections in the
/// order of `rgs`.
fn walk_ascending(
    base: &SolveOptions,
    rgs: &[Cycles],
    mut visit: impl FnMut(&SolveOptions) -> Result<Selection, CoreError>,
) -> Result<Vec<Selection>, CoreError> {
    let mut order: Vec<usize> = (0..rgs.len()).collect();
    order.sort_by_key(|&i| rgs[i]);
    let mut results: Vec<Option<Selection>> = vec![None; rgs.len()];
    for &i in &order {
        let mut opts = base.clone();
        opts.gains = RequiredGains::uniform(rgs[i]);
        results[i] = Some(visit(&opts)?);
    }
    Ok(results
        .into_iter()
        .map(|s| s.expect("every sweep index solved exactly once"))
        .collect())
}

/// Audits a cache-served [`Selection`] when the request opted in. Fresh
/// solves are audited inside the solver; cached ones bypass it because the
/// audit flag is deliberately excluded from the solve key (auditing must
/// never change *what* is solved, only whether the answer is checked).
pub(crate) fn audit_cached(
    instance: &Instance,
    db: &ImpDb,
    options: &SolveOptions,
    sel: Selection,
) -> Result<Selection, CoreError> {
    if options.audit {
        crate::verify::SelectionAuditor::new(instance, db)
            .audit(&sel, options)
            .into_result()?;
    }
    Ok(sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Imp, ParallelChoice, SCall};
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction};
    use partita_mop::AreaTenths;

    /// Three fir() s-calls on one path, one shared IP — small enough for
    /// instant solves, rich enough for a 3-point sweep.
    fn three_firs(name: &str) -> (Instance, ImpDb) {
        firs(name, [600; 3])
    }

    /// Three fir() s-calls with one IMP each, of the given gains, all of
    /// the same area.
    fn firs(name: &str, gains: [u64; 3]) -> (Instance, ImpDb) {
        let mut inst = Instance::new(name);
        let ip = inst.library.add(
            IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let mut scs = Vec::new();
        for _ in 0..3 {
            scs.push(inst.add_scall(SCall::new(
                "fir",
                IpFunction::Fir,
                Cycles(1000),
                TransferJob::new(8, 8),
            )));
        }
        inst.add_path(scs.clone());
        let db = ImpDb::from_imps(
            scs.iter()
                .zip(gains)
                .map(|(&sc, gain)| {
                    Imp::new(
                        sc,
                        vec![ip],
                        InterfaceKind::Type1,
                        Cycles(gain),
                        AreaTenths::from_tenths(2),
                        ParallelChoice::None,
                    )
                })
                .collect(),
        );
        (inst, db)
    }

    #[test]
    fn repeat_solve_hits_cache_with_identical_selection() {
        let (inst, db) = three_firs("a");
        let mut s = SweepSession::new();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
        let cold = s.solve(&inst, &db, &opts).unwrap();
        let hit = s.solve(&inst, &db, &opts).unwrap();
        assert_eq!(
            cold, hit,
            "cache hit must be byte-identical, trace included"
        );
        assert_eq!(s.trace().cache_hits, 1);
        assert_eq!(s.trace().cache_misses, 1);
        assert_eq!(s.solves.len(), 1);
    }

    #[test]
    fn isomorphic_instance_hits_cache() {
        let (a, db_a) = three_firs("first-name");
        let (b, db_b) = three_firs("totally-different-name");
        let mut s = SweepSession::new();
        let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
        let first = s.solve(&a, &db_a, &opts).unwrap();
        let second = s.solve(&b, &db_b, &opts).unwrap();
        assert_eq!(first, second);
        assert_eq!(s.trace().cache_hits, 1, "same structure, different name");
    }

    #[test]
    fn different_gains_do_not_collide() {
        let (inst, db) = three_firs("a");
        let mut s = SweepSession::new();
        let lo = s
            .solve(
                &inst,
                &db,
                &SolveOptions::problem2(RequiredGains::uniform(Cycles(600))),
            )
            .unwrap();
        let hi = s
            .solve(
                &inst,
                &db,
                &SolveOptions::problem2(RequiredGains::uniform(Cycles(1800))),
            )
            .unwrap();
        assert_eq!(s.trace().cache_hits, 0);
        assert!(lo.chosen().len() < hi.chosen().len());
    }

    #[test]
    fn canonical_gains_share_cache_entries() {
        use partita_mop::PathId;
        let (inst, db) = three_firs("a");
        let mut s = SweepSession::new();
        let uniform_zero = SolveOptions::problem2(RequiredGains::uniform(Cycles::ZERO));
        let per_path_zero =
            SolveOptions::problem2(RequiredGains::per_path(vec![(PathId(0), Cycles::ZERO)]));
        s.solve(&inst, &db, &uniform_zero).unwrap();
        s.solve(&inst, &db, &per_path_zero).unwrap();
        assert_eq!(
            s.trace().cache_hits,
            1,
            "per_path([(p,0)]) must share uniform(0)'s cache entry"
        );
    }

    #[test]
    fn sweep_matches_cold_sweep_and_covers_points_from_below() {
        // Gains 500/600/700 at one area: the gain tie-break makes every
        // optimum unique. 450 takes the 700 IMP, and 1100 the 600 and 700
        // ones (1,300), so they cover 600 and 1300.
        let (inst, db) = firs("graded", [500, 600, 700]);
        let rgs = [
            Cycles(1800),
            Cycles(600),
            Cycles(1300),
            Cycles(450),
            Cycles(1100),
        ];
        let base = SolveOptions::default();
        let mut swept = SweepSession::new();
        let sels = swept.sweep(&inst, &db, &base, &rgs).unwrap();
        let mut cold = SweepSession::new();
        let cold_sels = cold.sweep_cold(&inst, &db, &base, &rgs).unwrap();
        // Byte-identical answers; a covered point is the very answer of
        // the proof that covers it, trace included.
        let fingerprint = crate::api::selection_fingerprint;
        for (c, f) in sels.iter().zip(&cold_sels) {
            assert_eq!(fingerprint(c), fingerprint(f));
        }
        assert_eq!(sels[1], sels[3]);
        assert_eq!(sels[2], sels[4]);
        assert_eq!(
            (swept.trace().cache_hits, swept.trace().cache_misses),
            (2, 3)
        );
        assert_eq!((cold.trace().cache_hits, cold.trace().cache_misses), (0, 5));
        assert!(swept.trace().total_nodes() < cold.trace().total_nodes());
        // Ascending solve order; results come back in input order.
        let visited: Vec<_> = swept.trace().points.iter().map(|p| p.rg).collect();
        let ascending = [450, 600, 1100, 1300, 1800].map(|rg| Some(Cycles(rg)));
        assert_eq!(visited, ascending);
        assert!(sels[0].total_gain() >= Cycles(1800));
        // The cold baseline neither reads nor fills the cache.
        assert_eq!(cold.solves.len(), 0);
    }

    #[test]
    fn a_covered_tie_is_answered_by_the_lex_min_optimum() {
        // Three identical IMPs: at 500 and at 600 any one of them is an
        // optimum, and the lexicographically smallest assignment takes the
        // last. The answer at 600 is the exhaustive backend's lex-min one,
        // which is also what a cold search at 600 returns.
        let (inst, db) = three_firs("ties");
        let mut s = SweepSession::new();
        let sels = s
            .sweep(
                &inst,
                &db,
                &SolveOptions::default(),
                &[Cycles(500), Cycles(600)],
            )
            .unwrap();
        assert_eq!(s.trace().cache_hits, 1, "the proof at 500 covers 600");
        let at_600 = SolveOptions::problem2(RequiredGains::uniform(Cycles(600)));
        let solve = |options: &SolveOptions| {
            crate::Solver::new(&inst)
                .with_imps(db.clone())
                .solve(options)
                .unwrap()
        };
        let exhaustive = solve(&at_600.clone().backend(crate::Backend::Exhaustive));
        let fingerprint = crate::api::selection_fingerprint;
        assert_eq!(fingerprint(&sels[1]), fingerprint(&exhaustive));
        assert_eq!(fingerprint(&sels[1]), fingerprint(&solve(&at_600)));
    }

    #[test]
    fn revisits_of_swept_points_hit_the_cache() {
        // A swept point is stored under the same canonical key a plain
        // solve of that point looks up, so revisiting any swept RG with the
        // sweep's base options is a cache hit returning the swept answer.
        let (inst, db) = three_firs("a");
        let rgs = [Cycles(600), Cycles(1200), Cycles(1800)];
        let base = SolveOptions::default();
        let mut s = SweepSession::new();
        let swept = s.sweep(&inst, &db, &base, &rgs).unwrap();
        let hits_before = s.trace().cache_hits;
        for (&rg, sel) in rgs.iter().zip(&swept) {
            let mut opts = base.clone();
            opts.gains = RequiredGains::uniform(rg);
            let again = s.solve(&inst, &db, &opts).unwrap();
            assert_eq!(&again, sel, "revisit of RG {} diverged", rg.get());
        }
        assert_eq!(
            s.trace().cache_hits - hits_before,
            rgs.len() as u64,
            "every revisit must hit the cache"
        );
        assert_eq!(s.trace().cache_misses, rgs.len() as u64);
    }

    #[test]
    fn lru_bound_evicts_old_solves() {
        let (inst, db) = three_firs("a");
        let mut s = SweepSession::new();
        // One answer per node cap: distinct keys at the same gains.
        let solve = |s: &mut SweepSession, i: usize| {
            let budget = crate::SolveBudget::default().with_max_nodes(1_000 + i);
            let opts = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
            s.solve(&inst, &db, &opts.budget(budget)).unwrap();
        };
        for i in 0..=SOLVE_CACHE_CAPACITY {
            solve(&mut s, i);
        }
        assert_eq!(s.solves.len(), SOLVE_CACHE_CAPACITY);
        assert_eq!(s.trace().cache_hits, 0);
        // The newest answer survived; the oldest was evicted, so solving
        // it again is a miss.
        solve(&mut s, SOLVE_CACHE_CAPACITY);
        assert_eq!(s.trace().cache_hits, 1);
        solve(&mut s, 0);
        assert_eq!(s.trace().cache_hits, 1);
        assert_eq!(s.trace().cache_misses, SOLVE_CACHE_CAPACITY as u64 + 2);
    }

    #[test]
    fn canonical_service_key_excludes_all_effort_knobs() {
        // The one solve key ignores the audit flag and the warm-start
        // flag: completed selections are invariant under both, so keying
        // on them would split cache entries (across tenants) for no
        // answer-level reason. It leaves out the gains too, which the
        // cache rule compares itself.
        let (inst, db) = three_firs("a");
        let a = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
        let mut b = a.clone();
        b.audit = !a.audit;
        b.warm_start = !a.warm_start;
        b.gains = RequiredGains::uniform(Cycles(600));
        assert_eq!(
            canonical_solve_key(&inst, &db, &a),
            canonical_solve_key(&inst, &db, &b),
            "audit/warm_start/gains must not shape the service key"
        );
        // ...while anything that *can* change the answer still must.
        let mut c = a.clone();
        c.budget.max_nodes = 1;
        assert_ne!(
            canonical_solve_key(&inst, &db, &a),
            canonical_solve_key(&inst, &db, &c)
        );
        let d = SolveOptions::problem1(RequiredGains::uniform(Cycles(1200)));
        assert_ne!(
            canonical_solve_key(&inst, &db, &a),
            canonical_solve_key(&inst, &db, &d)
        );
    }

    #[test]
    fn canonical_instance_key_excludes_display_name() {
        let (inst_a, db_a) = three_firs("name-a");
        let (inst_b, db_b) = three_firs("name-b");
        assert_eq!(
            canonical_instance_key(&inst_a, &db_a),
            canonical_instance_key(&inst_b, &db_b),
            "isomorphic instances must share canonical keys"
        );
    }

    #[test]
    fn trace_json_lines_are_tagged_and_escaped() {
        let (inst, db) = three_firs("a");
        let mut s = SweepSession::new();
        s.sweep(
            &inst,
            &db,
            &SolveOptions::default(),
            &[Cycles(600), Cycles(1200)],
        )
        .unwrap();
        let lines = s.trace().json_lines("tab\"le");
        assert_eq!(lines.len(), 3, "2 points + summary");
        for line in &lines {
            assert!(
                line.starts_with("{\"schema\":6,\"event\":\"sweep_"),
                "{line}"
            );
            assert!(line.contains("\"sweep\":\"tab\\\"le\""), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(
            lines[0].contains("\"rg\":600"),
            "ascending solve order: {}",
            lines[0]
        );
        assert!(lines[2].contains("\"cache_misses\":2"), "{}", lines[2]);
        assert!(!lines[2].contains("chained"), "{}", lines[2]);
        let cold = s.take_trace();
        assert!(s.trace().points.is_empty());
        let cmp = SweepTrace::compare_json("x", &cold, &SweepTrace::default());
        assert!(cmp.contains("\"nodes_saved\":"));
        assert!(cmp.contains(&format!("\"cold_nodes\":{}", cold.total_nodes())));
    }

    #[test]
    fn nodes_saved_clamps_instead_of_wrapping() {
        // In range: plain differences, both signs.
        assert_eq!(nodes_saved_clamped(10, 3), 7);
        assert_eq!(nodes_saved_clamped(3, 10), -7);
        assert_eq!(nodes_saved_clamped(0, 0), 0);
        // The old `cold as i64 - chained as i64` wrapped here: u64::MAX
        // as i64 is -1, so a huge cold total read as *negative* savings.
        assert_eq!(nodes_saved_clamped(u64::MAX, 0), i64::MAX);
        assert_eq!(nodes_saved_clamped(0, u64::MAX), i64::MIN);
        assert_eq!(nodes_saved_clamped(u64::MAX, u64::MAX), 0);
        // Exactly at the i64 boundary: representable, not clamped.
        assert_eq!(
            nodes_saved_clamped(i64::MAX as u64, 0),
            i64::MAX,
            "boundary value is exact"
        );
        assert_eq!(nodes_saved_clamped(i64::MAX as u64 + 1, 1), i64::MAX);
        assert_eq!(nodes_saved_clamped(u64::MAX, i64::MAX as u64), i64::MAX);
    }
}
