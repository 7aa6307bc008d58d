//! Bounded LRU memos: the sweep session's private caches and the
//! process-wide sharded cache behind the solve service.
//!
//! Keys are full canonical strings (see [`crate::sweep`]), not hashes, so a
//! cache hit can never be a collision: two requests share an entry only when
//! their canonical forms are byte-identical. Recency is tracked with a
//! monotonic tick per access; eviction scans for the stalest entry, which is
//! O(len) but irrelevant at the cache sizes the sweep layer uses.
//!
//! [`ShardedLru`] wraps N independent `Mutex<LruCache>` shards for
//! concurrent multi-tenant use. Hashing picks the shard; the *full* key
//! string still decides the hit inside it, so the no-collision guarantee
//! survives sharding. A flat hash layout wins here for the same reason the
//! retrieval micro-benchmarks in `SNIPPETS.md` show `HashMap` beating
//! ordered structures (ART/B-tree) on random point lookups: canonical keys
//! are long, high-entropy and never range-scanned, so ordered traversal
//! buys nothing and hash-based direct addressing is the fast path.

use std::collections::HashMap;
use std::sync::Mutex;

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

/// A least-recently-used cache over canonical string keys.
#[derive(Debug, Clone)]
pub(crate) struct LruCache<V> {
    map: HashMap<String, Entry<V>>,
    capacity: usize,
    tick: u64,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&mut self, key: String, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(stalest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
            }
        }
        let tick = self.tick;
        self.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A concurrent N-way sharded LRU over canonical string keys.
///
/// Each shard is an independent [`Mutex`]-guarded bounded LRU map; a key's
/// FNV-1a hash picks its shard, so unrelated keys contend on different
/// locks and a lock is only ever held for one map operation (never across
/// a solve). Values are returned by clone — callers hold cheap handles
/// (e.g. a [`crate::Selection`]), never references into a shard.
///
/// This is the store behind the solve daemon's process-wide canonical
/// cache: isomorphic instances from different tenants produce the same
/// canonical key (display names are excluded — see
/// [`crate::sweep::canonical_solve_key`]) and therefore share one entry.
///
/// ```
/// use partita_core::cache::ShardedLru;
///
/// let cache: ShardedLru<u32> = ShardedLru::new(8, 64);
/// assert_eq!(cache.shards(), 8);
/// cache.insert("some|canonical|key".to_string(), 7);
/// assert_eq!(cache.get("some|canonical|key"), Some(7));
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<LruCache<V>>>,
}

impl<V: Clone> ShardedLru<V> {
    /// Creates a cache of `shards` independent shards (minimum 1), each
    /// holding at most `capacity_per_shard` entries (minimum 1).
    #[must_use]
    pub fn new(shards: usize, capacity_per_shard: usize) -> ShardedLru<V> {
        ShardedLru {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(LruCache::new(capacity_per_shard)))
                .collect(),
        }
    }

    /// FNV-1a 64 shard index for `key`.
    fn shard_for(&self, key: &str) -> usize {
        (fnv1a64(key) % self.shards.len() as u64) as usize
    }

    /// Looks up `key`, refreshing its recency and cloning the value on a
    /// hit. A poisoned shard (a panic while a lock was held) behaves as a
    /// miss rather than propagating the panic to unrelated tenants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<V> {
        let shard = &self.shards[self.shard_for(key)];
        shard.lock().ok()?.get(key).cloned()
    }

    /// Inserts (or replaces) `key`, evicting the stalest entry of its
    /// shard when that shard is full.
    pub fn insert(&self, key: String, value: V) {
        let shard = &self.shards[self.shard_for(&key)];
        if let Ok(mut guard) = shard.lock() {
            guard.insert(key, value);
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Live entries summed across every shard.
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

    /// Total capacity summed across every shard.
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

    #[test]
    fn hit_returns_inserted_value() {
        let mut c: LruCache<u32> = LruCache::new(4);
        assert!(c.get("a").is_none());
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replace_keeps_len() {
        let mut c: LruCache<u32> = LruCache::new(4);
        c.insert("a".into(), 1);
        c.insert("a".into(), 2);
        assert_eq!(c.get("a"), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        // Touch `a` so `b` is the stalest.
        assert_eq!(c.get("a"), Some(&1));
        c.insert("c".into(), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a"), Some(&1));
        assert!(c.get("b").is_none());
        assert_eq!(c.get("c"), Some(&3));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c: LruCache<u32> = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get("a").is_none());
        assert_eq!(c.get("b"), Some(&2));
    }

    #[test]
    fn sharded_round_trips_and_counts() {
        let c: ShardedLru<u32> = ShardedLru::new(4, 8);
        assert_eq!(c.shards(), 4);
        assert!(c.is_empty());
        for i in 0..20u32 {
            c.insert(format!("key-{i}"), i);
        }
        assert_eq!(c.len(), 20);
        for i in 0..20u32 {
            assert_eq!(c.get(&format!("key-{i}")), Some(i));
        }
        assert_eq!(c.get("missing"), None);
        assert_eq!(c.capacity(), 32);
    }

    #[test]
    fn sharded_eviction_is_per_shard() {
        let c: ShardedLru<u32> = ShardedLru::new(2, 2);
        // Overfill well past total capacity; every shard stays bounded.
        for i in 0..50u32 {
            c.insert(format!("key-{i}"), i);
        }
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn sharded_is_shared_across_threads() {
        let c = std::sync::Arc::new(ShardedLru::<u64>::new(8, 64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..32u64 {
                        // All threads write the same keyspace: last write
                        // wins, every value is one of the written ones.
                        c.insert(format!("k{i}"), t * 1000 + i);
                        let got = c.get(&format!("k{i}")).expect("just inserted");
                        assert_eq!(got % 1000, i);
                    }
                });
            }
        });
        assert_eq!(c.len(), 32);
    }
}
