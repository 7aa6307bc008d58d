//! Bounded solve caches under one reuse rule: the sweep session's, the
//! delta session's and the process-wide sharded cache behind the solve
//! service.
//!
//! Every cache stores answers — a [`Selection`] and the requirement `R` it
//! was solved at — under a canonical key of everything else that shapes
//! the answer ([`crate::sweep::canonical_solve_key`]: instance, database,
//! problem, backend and budget; never the gains). A stored answer `S`
//! serves a request at `R'` under the same key when:
//!
//! * `R' = R`; or
//! * `S` is proven [`OptimalityStatus::Optimal`], `R ≤ R'` on every path,
//!   and [`Selection::verify`] accepts `S` at `R'`.
//!
//! The second case is exact, not a heuristic. The gains enter the model
//! only as the right-hand sides of the `≥` gain rows, so raising them
//! shrinks the feasible set: every selection feasible at `R'` is feasible
//! at `R`. `S` is feasible at `R'` (the check) and optimal over the larger
//! set, so it is optimal at `R'`; and any other optimum at `R'` is an
//! optimum at `R` too, which the lexicographic tie-break at `R` already
//! ranked after `S`. So `S` is the lex-min optimum a search at `R'` returns.
//! An answer that is not proven optimal (a greedy `heuristic` one) makes
//! no such promise and serves only its own requirement, and answers a
//! budget stop picked are never stored ([`crate::sweep::is_cacheable`]).
//!
//! Keys are full canonical strings, not hashes, so a hit can never be a
//! collision: two requests share answers only when their canonical forms
//! are byte-identical. A key is stored once for all the answers under it.
//! Capacity counts answers. Recency is tracked with a monotonic tick per
//! access; eviction scans for the stalest answer, which is O(len) but
//! irrelevant at the cache sizes used here.
//!
//! [`ShardedLru`] wraps N independent `Mutex`-guarded caches for
//! concurrent multi-tenant use. Hashing the key picks the shard, so every
//! answer under one key lives in one shard, where the rule can see them
//! all; the *full* key string still decides a hit inside it.

use std::collections::HashMap;
use std::sync::Mutex;

use partita_mop::PathId;

use crate::{Instance, OptimalityStatus, RequiredGains, Selection, SolveOptions};

/// FNV-1a 64 digest of `s`: picks a [`ShardedLru`] shard, stands in for a
/// canonical key in `cache_lookup` and `sweep_point` telemetry, and is the
/// [`crate::api::selection_digest`] of a selection's fingerprint.
#[must_use]
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether `lower` requires at most what `upper` does on every path of
/// `instance`.
fn at_most(lower: &RequiredGains, upper: &RequiredGains, instance: &Instance) -> bool {
    let holds = |path: PathId| lower.for_path(path) <= upper.for_path(path);
    if instance.paths.is_empty() {
        holds(PathId(0))
    } else {
        instance.paths.iter().all(|p| holds(p.id))
    }
}

/// A stored answer.
#[derive(Debug, Clone)]
struct Answer {
    /// The requirement the answer was solved at.
    solved_at: RequiredGains,
    selection: Selection,
    last_used: u64,
}

/// A least-recently-used store of answers under the module's reuse rule.
#[derive(Debug, Clone)]
pub(crate) struct AnswerCache {
    /// Answers per canonical key, in insertion order.
    keys: HashMap<String, Vec<Answer>>,
    len: usize,
    capacity: usize,
    tick: u64,
}

impl AnswerCache {
    /// Creates a cache holding at most `capacity` answers (minimum 1).
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            keys: HashMap::new(),
            len: 0,
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// The answer stored under `key` that serves `options` (at the
    /// request's `instance`), refreshing its recency. An answer solved at
    /// the request's own gains wins over one that covers them.
    pub fn get(
        &mut self,
        key: &str,
        instance: &Instance,
        options: &SolveOptions,
    ) -> Option<&Selection> {
        self.tick += 1;
        let answers = self.keys.get_mut(key)?;
        let gains = &options.gains;
        let i = answers
            .iter()
            .position(|a| a.solved_at == *gains)
            .or_else(|| {
                answers.iter().position(|a| {
                    a.selection.status == OptimalityStatus::Optimal
                        && at_most(&a.solved_at, gains, instance)
                        && a.selection.verify(instance, options).is_ok()
                })
            })?;
        let answer = &mut answers[i];
        answer.last_used = self.tick;
        Some(&answer.selection)
    }

    /// Stores `selection`, solved at `solved_at`, under `key` — unless a
    /// budget stop picked it ([`crate::sweep::is_cacheable`]). Replaces an
    /// answer solved at the same gains; otherwise evicts the
    /// least-recently-used answer when the cache is full.
    pub fn insert(&mut self, key: &str, solved_at: &RequiredGains, selection: Selection) {
        if !crate::sweep::is_cacheable(&selection) {
            return;
        }
        self.tick += 1;
        let answer = Answer {
            solved_at: solved_at.clone(),
            selection,
            last_used: self.tick,
        };
        if let Some(slot) = self
            .keys
            .get_mut(key)
            .and_then(|answers| answers.iter_mut().find(|a| a.solved_at == *solved_at))
        {
            *slot = answer;
            return;
        }
        if self.len >= self.capacity {
            self.evict_stalest();
        }
        match self.keys.get_mut(key) {
            Some(answers) => answers.push(answer),
            None => {
                self.keys.insert(key.to_string(), vec![answer]);
            }
        }
        self.len += 1;
    }

    /// Drops the least-recently-used answer, and its key with its last
    /// answer.
    fn evict_stalest(&mut self) {
        let stalest = self
            .keys
            .iter()
            .flat_map(|(k, answers)| {
                answers
                    .iter()
                    .enumerate()
                    .map(move |(i, a)| (a.last_used, k, i))
            })
            .min_by_key(|&(tick, _, _)| tick)
            .map(|(_, k, i)| (k.clone(), i));
        if let Some((key, i)) = stalest {
            let answers = self.keys.get_mut(&key).expect("key just seen");
            answers.remove(i);
            if answers.is_empty() {
                self.keys.remove(&key);
            }
            self.len -= 1;
        }
    }

    /// Number of stored answers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Maximum number of stored answers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A concurrent N-way sharded answer cache.
///
/// Each shard is an independent [`Mutex`]-guarded answer cache; a key's
/// FNV-1a hash picks its shard, so unrelated keys contend on different
/// locks and a lock is only ever held for one lookup or insert (never
/// across a solve). Selections are returned by clone, never as references
/// into a shard.
///
/// This is the store behind the solve daemon's process-wide canonical
/// cache: isomorphic instances from different tenants produce the same
/// canonical key (display names are excluded — see
/// [`crate::sweep::canonical_solve_key`]) and therefore share answers.
///
/// ```
/// use partita_core::cache::ShardedLru;
/// use partita_core::sweep::canonical_solve_key;
/// use partita_core::{ImpDb, Instance, RequiredGains, SCall, SolveOptions, Solver};
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
/// let cache = ShardedLru::new(8, 64);
/// let low = SolveOptions::problem2(RequiredGains::uniform(Cycles(500)));
/// let key = canonical_solve_key(&instance, &db, &low);
/// let sel = Solver::new(&instance).with_imps(db.clone()).solve(&low)?;
/// let reached = sel.total_gain();
/// cache.insert(&key, low.gains(), sel.clone());
/// // The proven answer at 500 also answers every requirement it reaches.
/// let high = SolveOptions::problem2(RequiredGains::uniform(reached));
/// assert_eq!(cache.get(&key, &instance, &high), Some(sel));
/// assert_eq!(cache.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedLru {
    shards: Vec<Mutex<AnswerCache>>,
}

impl ShardedLru {
    /// Creates a cache of `shards` independent shards (minimum 1), each
    /// holding at most `capacity_per_shard` answers (minimum 1).
    #[must_use]
    pub fn new(shards: usize, capacity_per_shard: usize) -> ShardedLru {
        ShardedLru {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(AnswerCache::new(capacity_per_shard)))
                .collect(),
        }
    }

    /// The shard of `key`.
    fn shard(&self, key: &str) -> &Mutex<AnswerCache> {
        &self.shards[(fnv1a64(key) % self.shards.len() as u64) as usize]
    }

    /// The stored answer under `key` that serves `options` (see the module
    /// docs), cloned. A poisoned shard (a panic while a lock was held)
    /// behaves as a miss rather than propagating the panic to unrelated
    /// tenants.
    #[must_use]
    pub fn get(&self, key: &str, instance: &Instance, options: &SolveOptions) -> Option<Selection> {
        self.shard(key)
            .lock()
            .ok()?
            .get(key, instance, options)
            .cloned()
    }

    /// Stores `selection`, solved at `solved_at`, under `key`, unless a
    /// budget stop picked it; evicts the stalest answer of the key's shard
    /// when that shard is full.
    pub fn insert(&self, key: &str, solved_at: &RequiredGains, selection: Selection) {
        if let Ok(mut guard) = self.shard(key).lock() {
            guard.insert(key, solved_at, selection);
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Stored answers summed across every shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|g| g.len()).unwrap_or(0))
            .sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity, in answers, summed across every shard.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|g| g.capacity()).unwrap_or(0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Imp, ImpDb, ParallelChoice, SCall, Solver};
    use partita_interface::{InterfaceKind, TransferJob};
    use partita_ip::{IpBlock, IpFunction};
    use partita_mop::{AreaTenths, Cycles};

    /// Three fir() s-calls on one path, 600 cycles of gain each.
    fn three_firs() -> (Instance, ImpDb) {
        let mut inst = Instance::new("firs");
        let ip = inst.library.add(
            IpBlock::builder("fir")
                .function(IpFunction::Fir)
                .area(AreaTenths::from_units(3))
                .build(),
        );
        let scs: Vec<_> = (0..3)
            .map(|_| {
                inst.add_scall(SCall::new(
                    "fir",
                    IpFunction::Fir,
                    Cycles(1000),
                    TransferJob::new(8, 8),
                ))
            })
            .collect();
        inst.add_path(scs.clone());
        let imps = scs
            .iter()
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
            .collect();
        (inst, ImpDb::from_imps(imps))
    }

    fn at(rg: u64) -> SolveOptions {
        SolveOptions::problem2(RequiredGains::uniform(Cycles(rg)))
    }

    fn solve(inst: &Instance, db: &ImpDb, options: &SolveOptions) -> Selection {
        Solver::new(inst)
            .with_imps(db.clone())
            .solve(options)
            .unwrap()
    }

    #[test]
    fn a_proven_answer_serves_the_requirements_it_reaches() {
        let (inst, db) = three_firs();
        let mut c = AnswerCache::new(4);
        // RG 700 needs two IMPs, which reach 1,200.
        let sel = solve(&inst, &db, &at(700));
        assert_eq!(sel.total_gain(), Cycles(1200));
        c.insert("k", at(700).gains(), sel.clone());
        for rg in [700, 701, 1000, 1200] {
            assert_eq!(c.get("k", &inst, &at(rg)), Some(&sel), "RG {rg}");
        }
        // Below the solved requirement the feasible set is larger, and
        // past what the answer reaches it is no longer feasible.
        for rg in [0, 699, 1201] {
            assert_eq!(c.get("k", &inst, &at(rg)), None, "RG {rg}");
        }
        assert_eq!(c.get("other", &inst, &at(700)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn a_heuristic_answer_serves_only_its_own_requirement() {
        let (inst, db) = three_firs();
        let mut c = AnswerCache::new(4);
        let greedy = at(700).backend(Backend::Greedy);
        let sel = solve(&inst, &db, &greedy);
        assert_eq!(sel.status, OptimalityStatus::Heuristic);
        c.insert("k", greedy.gains(), sel.clone());
        assert_eq!(c.get("k", &inst, &greedy), Some(&sel));
        assert_eq!(c.get("k", &inst, &at(800).backend(Backend::Greedy)), None);
    }

    #[test]
    fn budget_stopped_answers_are_not_stored() {
        let (inst, db) = three_firs();
        let mut c = AnswerCache::new(4);
        for status in [
            OptimalityStatus::FeasibleBudgetExhausted,
            OptimalityStatus::FallbackUsed,
        ] {
            let mut sel = solve(&inst, &db, &at(700));
            sel.status = status;
            c.insert("k", at(700).gains(), sel);
        }
        assert_eq!(c.len(), 0);
        assert_eq!(c.get("k", &inst, &at(700)), None);
    }

    #[test]
    fn an_answer_at_the_same_gains_is_replaced() {
        let (inst, db) = three_firs();
        let mut c = AnswerCache::new(4);
        let first = solve(&inst, &db, &at(700));
        let mut second = first.clone();
        second.trace.nodes_explored += 1;
        c.insert("k", at(700).gains(), first);
        c.insert("k", at(700).gains(), second.clone());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("k", &inst, &at(700)), Some(&second));
    }

    #[test]
    fn eviction_drops_the_least_recently_used_answer() {
        let (inst, db) = three_firs();
        let mut c = AnswerCache::new(2);
        let (low, mid, high) = (at(100), at(700), at(1300));
        c.insert("a", low.gains(), solve(&inst, &db, &low));
        c.insert("b", mid.gains(), solve(&inst, &db, &mid));
        // Touch `a`, so `b` is the stalest.
        assert!(c.get("a", &inst, &low).is_some());
        c.insert("a", high.gains(), solve(&inst, &db, &high));
        assert_eq!(c.len(), 2);
        assert!(c.get("b", &inst, &mid).is_none());
        assert!(!c.keys.contains_key("b"), "an emptied key is dropped");
        assert!(c.get("a", &inst, &low).is_some());
        assert!(c.get("a", &inst, &high).is_some());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let (inst, db) = three_firs();
        let mut c = AnswerCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert("a", at(100).gains(), solve(&inst, &db, &at(100)));
        c.insert("b", at(100).gains(), solve(&inst, &db, &at(100)));
        assert_eq!(c.len(), 1);
        assert!(c.get("a", &inst, &at(100)).is_none());
        assert!(c.get("b", &inst, &at(100)).is_some());
    }

    #[test]
    fn sharded_round_trips_and_counts() {
        let (inst, db) = three_firs();
        let c = ShardedLru::new(4, 8);
        assert_eq!(c.shards(), 4);
        assert!(c.is_empty());
        let rgs = [100, 700, 1300];
        let sels: Vec<Selection> = rgs.iter().map(|&rg| solve(&inst, &db, &at(rg))).collect();
        for i in 0..20 {
            c.insert(
                &format!("key-{i}"),
                at(rgs[i % 3]).gains(),
                sels[i % 3].clone(),
            );
        }
        assert_eq!(c.len(), 20);
        for i in 0..20 {
            let got = c.get(&format!("key-{i}"), &inst, &at(rgs[i % 3]));
            assert_eq!(got.as_ref(), Some(&sels[i % 3]), "key-{i}");
        }
        assert_eq!(c.capacity(), 32);
        assert_eq!(c.get("missing", &inst, &at(700)), None);
        // Every answer under one key lives in one shard, so the rule sees
        // them all.
        let one = ShardedLru::new(16, 8);
        let high = solve(&inst, &db, &at(1300));
        for rg in [100, 700] {
            one.insert("k", at(rg).gains(), solve(&inst, &db, &at(rg)));
        }
        one.insert("k", at(1300).gains(), high.clone());
        assert_eq!(one.len(), 3);
        assert_eq!(one.get("k", &inst, &at(1800)), Some(high));
    }

    #[test]
    fn sharded_eviction_is_per_shard() {
        let (inst, db) = three_firs();
        let c = ShardedLru::new(2, 2);
        let sel = solve(&inst, &db, &at(700));
        // Overfill well past total capacity; every shard stays bounded.
        for i in 0..50 {
            c.insert(&format!("key-{i}"), at(700).gains(), sel.clone());
        }
        assert!(c.len() <= c.capacity());
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn sharded_is_shared_across_threads() {
        let (inst, db) = three_firs();
        let sel = solve(&inst, &db, &at(700));
        let c = std::sync::Arc::new(ShardedLru::new(8, 64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (c, inst, sel) = (c.clone(), &inst, &sel);
                scope.spawn(move || {
                    for i in 0..32u64 {
                        let key = format!("k{i}");
                        c.insert(&key, at(700).gains(), sel.clone());
                        let got = c.get(&key, inst, &at(900)).expect("covered");
                        assert_eq!(&got, sel);
                    }
                });
            }
        });
        assert_eq!(c.len(), 32);
    }
}
