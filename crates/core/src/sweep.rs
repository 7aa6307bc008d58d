//! Sweep orchestration: canonical-instance solve caching and cross-RG
//! warm-start chaining.
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
//!   the display name), the IMP database and the answer-shaping options.
//!   Returned [`Selection`]s are memoized in a bounded LRU cache, so
//!   duplicate, isomorphic or revisited requests hit the cache and return
//!   byte-identical results — whichever path first solved them. Answers a
//!   budget stop picked are not memoized ([`is_cacheable`]).
//! * **Descending-RG warm-start chaining.** A uniform-gain sweep has
//!   monotone structure: a selection feasible at gain `r` is feasible at
//!   every `r' < r` (it achieves at least `r` on every path). So
//!   [`SweepSession::sweep`] walks its points from the highest RG down:
//!   each point first looks up the cache, and a miss becomes an
//!   [`InstanceDelta::SetRg`] patch plus [`DeltaSession::resolve`] on one
//!   lazily built [`DeltaSession`] — the single warm re-solve path, which
//!   repairs the previous root basis and seeds the previous optimum once it
//!   passes an independent feasibility check. Seeding only tightens pruning
//!   — the lexicographic tie-break still picks the same optimum — so every
//!   chained selection is identical to its cold-solve counterpart (for
//!   solves that finish within budget; a budget-exhausted incumbent is
//!   exempt).
//!
//! All of it is observable: the session accumulates a [`SweepTrace`] with
//! cache hits/misses, chained-incumbent accepts, per-point node counts and
//! wall times, rendered as JSON lines for scraping.

use std::sync::Arc;
use std::time::{Duration, Instant};

use partita_mop::Cycles;

use crate::cache::{fnv1a64, LruCache};
use crate::delta::{DeltaSession, InstanceDelta};
use crate::solver::solve_cold;
use crate::telemetry::{CacheKind, Event, TelemetrySink};
use crate::{
    CoreError, ImpDb, Instance, OptimalityStatus, RequiredGains, Selection, SolveOptions,
    SolveTrace,
};

/// Memoized selections a [`SweepSession`] holds before evicting the least
/// recently used.
const SOLVE_CACHE_CAPACITY: usize = 256;

/// Telemetry of one sweep point run through a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// FNV-1a 64 digest of the canonical solve key (telemetry only — cache
    /// lookups compare full keys, never digests).
    pub digest: u64,
    /// The uniform required gain, when the point's gains are uniform.
    pub rg: Option<Cycles>,
    /// Whether the solve cache answered without running a solver.
    pub cache_hit: bool,
    /// Whether a chained warm-start incumbent was injected.
    pub chained: bool,
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
    /// Sweep points that were seeded with the previous (higher-RG) point's
    /// verified-feasible optimum.
    pub chained_accepts: u64,
    /// Sweep points whose carry-over candidate failed the independent
    /// feasibility check and was dropped (e.g. under a budget-exhausted
    /// predecessor).
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
            chained_accepts: self.chained_accepts,
            chained_rejects: self.chained_rejects,
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
                    chained: p.chained,
                    nodes: p.nodes_explored,
                    wall: p.wall,
                }
                .to_json()
            })
            .collect();
        lines.push(self.to_json(label));
        lines
    }

    /// Renders a cold-vs-chained comparison as one schema-tagged
    /// [`Event::SweepCompare`] JSON object: total nodes and wall time of
    /// both traces plus the nodes saved by chaining (negative if chaining
    /// somehow cost nodes).
    #[must_use]
    pub fn compare_json(label: &str, cold: &SweepTrace, chained: &SweepTrace) -> String {
        Event::SweepCompare {
            sweep: label.to_string(),
            cold_nodes: cold.total_nodes(),
            chained_nodes: chained.total_nodes(),
            nodes_saved: nodes_saved_clamped(cold.total_nodes(), chained.total_nodes()),
            chained_accepts: chained.chained_accepts,
            cold_wall: cold.total_wall(),
            chained_wall: chained.total_wall(),
        }
        .to_json()
    }
}

/// `cold - chained` as a saturating `i64`: node totals are `u64`, so the
/// naive `as i64` difference wraps once either total passes `i64::MAX` —
/// reachable on x100-scale sweeps. Computing in `i128` and clamping keeps
/// the sign honest at every magnitude.
fn nodes_saved_clamped(cold: u64, chained: u64) -> i64 {
    let saved = i128::from(cold) - i128::from(chained);
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
/// everything that can change **which selection is returned** — problem
/// kind, required gains, backend and budget (node cap and deadline).
///
/// Deliberately excluded, and guaranteed excluded by test: the `audit`
/// flag (checking an answer never changes it), any retained root **basis**
/// (repair only accelerates reaching the identical lex-min optimum), any
/// warm-start **hint** and the warm-start flag (verified seeds only prune;
/// strict pruning and the lexicographic tie-break make the selection a
/// completed search returns hint-invariant). So a chained sweep point, a
/// delta re-solve and a cold solve of the same problem share one entry,
/// and the daemon shares it across tenants whose requests differ only in
/// those effort knobs.
///
/// The invariance holds only for completed searches: under a node cap or
/// deadline the seeds pick the incumbent, and whether greedy rescues a
/// dry search, so a budget-stopped answer can differ with the hint or the
/// warm-start flag. Such answers are never cached ([`is_cacheable`]), so
/// a key shared across those knobs only ever serves a completed answer.
#[must_use]
pub fn canonical_solve_key(instance: &Instance, db: &ImpDb, options: &SolveOptions) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{:?}",
        canonical_instance_key(instance, db),
        options.problem,
        options.gains,
        options.backend,
        options.budget,
    )
}

/// Whether a solve cache may store `sel` under its [`canonical_solve_key`]:
/// every answer except those a budget stop picked
/// ([`OptimalityStatus::FeasibleBudgetExhausted`] and
/// [`OptimalityStatus::FallbackUsed`]), the only ones the key's excluded
/// hint and warm-start flag can change.
#[must_use]
pub fn is_cacheable(sel: &Selection) -> bool {
    !matches!(
        sel.status,
        OptimalityStatus::FeasibleBudgetExhausted | OptimalityStatus::FallbackUsed
    )
}

/// A caching, chaining solve session.
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
    solves: LruCache<Selection>,
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

impl SweepSession {
    /// A session with an empty cache bounded at 256 memoized selections
    /// (`SOLVE_CACHE_CAPACITY`), evicted least-recently-used first (a hit
    /// refreshes its entry).
    #[must_use]
    pub fn new() -> SweepSession {
        SweepSession {
            solves: LruCache::new(SOLVE_CACHE_CAPACITY),
            trace: SweepTrace::default(),
            sink: None,
        }
    }

    /// Routes this session's live telemetry ([`Event::CacheLookup`],
    /// [`Event::SweepPoint`]) — and the inner
    /// solves and delta re-solves it dispatches — to `sink` instead of the
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

    /// Emits a [`Event::CacheLookup`] for a solve-cache probe keyed by `key`.
    fn emit_cache(&self, hit: bool, key: &str) {
        let sink = self.sink();
        if sink.enabled() {
            sink.emit(&Event::CacheLookup {
                cache: CacheKind::Solve,
                hit,
                digest: fnv1a64(key),
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
                chained: p.chained,
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
    /// driver emit one trace per phase (e.g. cold sweep vs. chained sweep)
    /// from a single session.
    pub fn take_trace(&mut self) -> SweepTrace {
        std::mem::take(&mut self.trace)
    }

    /// A single cache-aware solve: answers from the solve cache when the
    /// canonical key matches a memoized request (byte-identical
    /// [`Selection`], trace included — whichever path first solved it),
    /// otherwise formulates and dispatches like [`crate::Solver::solve`].
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
        self.answer(instance, db, options, |s| {
            solve_cold(instance, db, options, SolveTrace::default(), s.sink())
                .map(|sel| (sel, false))
        })
    }

    /// Runs a uniform-gain RG sweep with descending-RG warm-start chaining:
    /// points are visited from the highest requirement down, each one
    /// answered from the cache when it can be and otherwise re-solved by
    /// one [`DeltaSession`] (an [`InstanceDelta::SetRg`] patch, basis
    /// repair, and the previous optimum as a verified seed). Selections
    /// are returned in the order of `rgs`. `base` supplies everything
    /// except the gains, which are overridden per point.
    ///
    /// Chaining never changes a within-budget selection — see the module
    /// docs — so the result is identical to [`SweepSession::sweep_cold`]
    /// point for point, only cheaper.
    ///
    /// # Errors
    ///
    /// The first point error, in descending-RG solve order.
    pub fn sweep(
        &mut self,
        instance: &Instance,
        db: &ImpDb,
        base: &SolveOptions,
        rgs: &[Cycles],
    ) -> Result<Vec<Selection>, CoreError> {
        let mut walk: Option<DeltaSession> = None;
        self.walk_descending(base, rgs, |s, opts| {
            s.answer(instance, db, opts, |s| {
                let ds = match walk.as_mut() {
                    Some(ds) => {
                        ds.apply(InstanceDelta::SetRg(opts.gains.clone()))?;
                        ds
                    }
                    None => {
                        let ds = DeltaSession::new(instance.clone(), db.clone(), opts.clone())?;
                        walk.insert(match &s.sink {
                            Some(sink) => ds.with_sink(Arc::clone(sink)),
                            None => ds,
                        })
                    }
                };
                let sel = ds.resolve()?;
                let chained = ds.chained();
                match chained {
                    Some(true) => s.trace.chained_accepts += 1,
                    Some(false) => s.trace.chained_rejects += 1,
                    None => {}
                }
                Ok((sel, chained == Some(true)))
            })
        })
    }

    /// The unchained baseline for [`SweepSession::sweep`]: the same sweep
    /// points solved independently through [`SweepSession::solve`], with
    /// no cross-point chaining (the solve cache still applies — a repeated
    /// point still hits).
    ///
    /// # Errors
    ///
    /// The first point error, in descending-RG solve order.
    pub fn sweep_cold(
        &mut self,
        instance: &Instance,
        db: &ImpDb,
        base: &SolveOptions,
        rgs: &[Cycles],
    ) -> Result<Vec<Selection>, CoreError> {
        self.walk_descending(base, rgs, |s, opts| s.solve(instance, db, opts))
    }

    /// Visits `rgs` from the highest down, answering each with `visit` at
    /// `base` overridden to that uniform gain (and stripped of any caller
    /// hint or basis), and returns the selections in the order of `rgs`.
    fn walk_descending(
        &mut self,
        base: &SolveOptions,
        rgs: &[Cycles],
        mut visit: impl FnMut(&mut Self, &SolveOptions) -> Result<Selection, CoreError>,
    ) -> Result<Vec<Selection>, CoreError> {
        let mut order: Vec<usize> = (0..rgs.len()).collect();
        order.sort_by(|&a, &b| rgs[b].cmp(&rgs[a]));
        let mut results: Vec<Option<Selection>> = vec![None; rgs.len()];
        for &i in &order {
            let mut opts = base.clone();
            opts.gains = RequiredGains::uniform(rgs[i]);
            opts.hint = None;
            opts.root_basis = None;
            results[i] = Some(visit(self, &opts)?);
        }
        Ok(results
            .into_iter()
            .map(|s| s.expect("every sweep index solved exactly once"))
            .collect())
    }

    /// The cache-first step shared by every request: answers from the solve
    /// cache when the canonical key matches, otherwise runs `miss` (which
    /// returns the selection and whether it was chained), memoizes the
    /// result when [`is_cacheable`] and records the point.
    fn answer(
        &mut self,
        instance: &Instance,
        db: &ImpDb,
        options: &SolveOptions,
        miss: impl FnOnce(&mut Self) -> Result<(Selection, bool), CoreError>,
    ) -> Result<Selection, CoreError> {
        let started = Instant::now();
        let key = canonical_solve_key(instance, db, options);
        let digest = fnv1a64(&key);
        let rg = options.gains.as_uniform();
        if let Some(sel) = self.solves.get(&key) {
            let sel = sel.clone();
            self.trace.cache_hits += 1;
            self.emit_cache(true, &key);
            self.record(SweepPoint {
                digest,
                rg,
                cache_hit: true,
                chained: false,
                nodes_explored: 0,
                wall: started.elapsed(),
            });
            return audit_cached(instance, db, options, sel);
        }
        self.trace.cache_misses += 1;
        self.emit_cache(false, &key);
        let (sel, chained) = miss(self)?;
        self.record(SweepPoint {
            digest,
            rg,
            cache_hit: false,
            chained,
            nodes_explored: sel.trace.nodes_explored,
            wall: started.elapsed(),
        });
        if is_cacheable(&sel) {
            self.solves.insert(key, sel.clone());
        }
        Ok(sel)
    }
}

/// Audits a cache-served [`Selection`] when the request opted in. Fresh
/// solves are audited inside the solver; cached ones bypass it because the
/// audit flag is deliberately excluded from the solve key (auditing must
/// never change *what* is solved, only whether the answer is checked).
fn audit_cached(
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
                .map(|&sc| {
                    Imp::new(
                        sc,
                        vec![ip],
                        InterfaceKind::Type1,
                        Cycles(600),
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
    fn chained_sweep_matches_cold_sweep() {
        let (inst, db) = three_firs("a");
        let rgs = [Cycles(600), Cycles(1200), Cycles(1800)];
        let base = SolveOptions::default();
        let mut chained = SweepSession::new();
        let chained_sels = chained.sweep(&inst, &db, &base, &rgs).unwrap();
        let mut cold = SweepSession::new();
        let cold_sels = cold.sweep_cold(&inst, &db, &base, &rgs).unwrap();
        assert_eq!(chained_sels.len(), 3);
        for (c, f) in chained_sels.iter().zip(&cold_sels) {
            assert_eq!(c.chosen(), f.chosen());
            assert_eq!(c.total_area(), f.total_area());
            assert_eq!(c.status, f.status);
        }
        // Two of the three points chain off a higher-RG optimum.
        assert_eq!(chained.trace().chained_accepts, 2);
        assert_eq!(chained.trace().chained_rejects, 0);
        assert_eq!(cold.trace().chained_accepts, 0);
        // Results come back in input order, not solve order.
        assert!(chained_sels[0].total_gain() >= Cycles(600));
        assert!(chained_sels[2].total_gain() >= Cycles(1800));
    }

    #[test]
    fn revisits_of_swept_points_hit_the_cache() {
        // A chained point is memoized under the same canonical key a plain
        // solve of that point looks up, so revisiting any swept RG with the
        // sweep's base options is a cache hit returning the swept answer.
        let (inst, db) = three_firs("a");
        let rgs = [Cycles(600), Cycles(1200), Cycles(1800)];
        let base = SolveOptions::default();
        let mut s = SweepSession::new();
        let swept = s.sweep(&inst, &db, &base, &rgs).unwrap();
        assert_eq!(s.trace().chained_accepts, 2, "the lower points chained");
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
        let solve = |s: &mut SweepSession, rg: usize| {
            let gains = RequiredGains::uniform(Cycles(rg as u64));
            s.solve(&inst, &db, &SolveOptions::problem2(gains)).unwrap();
        };
        for rg in 0..=SOLVE_CACHE_CAPACITY {
            solve(&mut s, rg);
        }
        assert_eq!(s.solves.len(), SOLVE_CACHE_CAPACITY);
        assert_eq!(s.trace().cache_hits, 0);
        // The newest entry survived; the oldest (RG 0) was evicted, so
        // solving it again is a miss.
        solve(&mut s, SOLVE_CACHE_CAPACITY);
        assert_eq!(s.trace().cache_hits, 1);
        solve(&mut s, 0);
        assert_eq!(s.trace().cache_hits, 1);
        assert_eq!(s.trace().cache_misses, SOLVE_CACHE_CAPACITY as u64 + 2);
    }

    #[test]
    fn canonical_service_key_excludes_all_effort_knobs() {
        // The one solve key ignores the audit flag, retained bases,
        // warm-start hints and the warm-start flag itself: selections are
        // invariant under all of them, so keying on them would split cache
        // entries (across chained and cold points, or across tenants) for
        // no answer-level reason.
        let (inst, db) = three_firs("a");
        let a = SolveOptions::problem2(RequiredGains::uniform(Cycles(1200)));
        let mut b = a.clone();
        b.root_basis = Some(Arc::new(partita_ilp::Basis::slack(4, 7)));
        b.audit = !a.audit;
        b.hint = Some(vec![crate::ImpId(0), crate::ImpId(2)]);
        b.warm_start = !a.warm_start;
        assert_eq!(
            canonical_solve_key(&inst, &db, &a),
            canonical_solve_key(&inst, &db, &b),
            "audit/basis/hint/warm_start must not shape the service key"
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
    fn chained_sweep_threads_root_basis() {
        let (inst, db) = three_firs("a");
        let rgs = [Cycles(600), Cycles(1200), Cycles(1800)];
        let mut s = SweepSession::new();
        let sels = s.sweep(&inst, &db, &SolveOptions::default(), &rgs).unwrap();
        // Descending solve order puts 1800 first (cold); the two lower
        // points inherit its root basis, and an RG edit is a pure RHS
        // change, so at least one repair must succeed.
        let reused = sels.iter().filter(|sel| sel.trace.basis_reused).count();
        assert!(
            reused >= 1,
            "no sweep point repaired the chained root basis"
        );
        // And reuse never changes the answers (checked in depth by
        // chained_sweep_matches_cold_sweep; re-asserted cheaply here).
        let mut cold = SweepSession::new();
        let cold_sels = cold
            .sweep_cold(&inst, &db, &SolveOptions::default(), &rgs)
            .unwrap();
        for (c, f) in sels.iter().zip(&cold_sels) {
            assert_eq!(c.chosen(), f.chosen());
            assert_eq!(c.total_area(), f.total_area());
        }
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
                line.starts_with("{\"schema\":5,\"event\":\"sweep_"),
                "{line}"
            );
            assert!(line.contains("\"sweep\":\"tab\\\"le\""), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(
            lines[0].contains("\"rg\":1200"),
            "descending solve order: {}",
            lines[0]
        );
        assert!(lines[2].contains("\"chained_accepts\":1"));
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
