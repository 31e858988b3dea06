//! Key-centric caching (§V-B).
//!
//! Two item kinds, named as in the paper:
//! * **scope** — the result of `matchVertex` (+ semantic expansion) for a
//!   noun phrase: "matchVertex requires to compare with all the labels of
//!   V_mg to obtain the corresponding vertex set Sub and Obj, and we named
//!   it as 'scope'";
//! * **path** — the relation pairs `RP` between two scopes: "getRelationpairs
//!   needs to traverse all neighbors … so that all relation pairs RP are
//!   returned, and we named it as 'path'".
//!
//! The pool is bounded by a total *item count* (Fig. 11 sizes pools this
//! way) shared across both kinds, with LFU (the paper's choice) or LRU
//! eviction over every entry of either kind. One [`KeyCentricCache`] holds
//! both kinds behind one lock and is shared by reference: a batch, a
//! session, or every worker of the query server.

use crate::matching::RelationPair;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use svqa_graph::VertexId;
pub use svqa_telemetry::CacheStats;
use svqa_telemetry::{counter, global};

/// Eviction policy for the bounded pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least-frequently-used (the paper's default).
    Lfu,
    /// Least-recently-used (the Fig. 11 comparison point).
    Lru,
}

/// Which item kinds are cached — the Fig. 10(b) ablation axis
/// (No / Scope / Path / Both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheGranularity {
    /// Caching disabled.
    None,
    /// Only scope items.
    Scope,
    /// Only path items.
    Path,
    /// Both (the paper's full mechanism).
    Both,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    freq: u64,
    last_used: u64,
}

/// One bounded key-value store. Every lookup is counted twice: in the
/// pool's own hit/miss fields, and in the process-wide telemetry counters
/// named by `counters` (hit, miss), which `/metrics` reports.
#[derive(Debug)]
struct Pool<V> {
    map: HashMap<String, Entry<V>>,
    hits: u64,
    misses: u64,
    counters: (&'static str, &'static str),
}

impl<V> Pool<V> {
    fn new(counters: (&'static str, &'static str)) -> Self {
        Pool {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            counters,
        }
    }

    fn get(&mut self, key: &str, tick: u64) -> Option<&V> {
        match self.map.get_mut(key) {
            Some(e) => {
                e.freq += 1;
                e.last_used = tick;
                self.hits += 1;
                global().incr_counter(self.counters.0);
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                global().incr_counter(self.counters.1);
                None
            }
        }
    }

    /// `(key, freq, last_used)` of the eviction candidate under `policy`.
    fn eviction_candidate(&self, policy: EvictionPolicy) -> Option<(String, u64, u64)> {
        self.map
            .iter()
            .min_by_key(|(_, e)| match policy {
                EvictionPolicy::Lfu => (e.freq, e.last_used),
                EvictionPolicy::Lru => (e.last_used, e.freq),
            })
            .map(|(k, e)| (k.clone(), e.freq, e.last_used))
    }
}

/// Both pools and the clock that orders their uses: everything the cache's
/// one lock guards.
#[derive(Debug)]
struct Pools {
    scope: Pool<Arc<Vec<VertexId>>>,
    path: Pool<Arc<Vec<RelationPair>>>,
    tick: u64,
}

/// Which pool an operation addresses.
type PoolOf<V> = fn(&mut Pools) -> &mut Pool<V>;

impl Pools {
    fn len(&self) -> usize {
        self.scope.map.len() + self.path.map.len()
    }

    /// Evict until one slot is free, choosing the globally least-valuable
    /// entry under the policy.
    fn make_room(&mut self, policy: EvictionPolicy, pool_size: usize) {
        while self.len() >= pool_size && self.len() > 0 {
            let scope_cand = self.scope.eviction_candidate(policy);
            let path_cand = self.path.eviction_candidate(policy);
            let evict_scope = match (&scope_cand, &path_cand) {
                (Some(s), Some(p)) => match policy {
                    EvictionPolicy::Lfu => (s.1, s.2) <= (p.1, p.2),
                    EvictionPolicy::Lru => (s.2, s.1) <= (p.2, p.1),
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            if evict_scope {
                let key = scope_cand.expect("checked above").0;
                self.scope.map.remove(&key);
            } else {
                let key = path_cand.expect("checked above").0;
                self.path.map.remove(&key);
            }
        }
    }
}

/// The shared scope + path cache: the paper's one pool, behind one lock,
/// so a single cache serves concurrent callers (the query server's
/// workers) by reference.
#[derive(Debug)]
pub struct KeyCentricCache {
    granularity: CacheGranularity,
    policy: EvictionPolicy,
    /// Total item budget across both pools.
    pool_size: usize,
    pools: Mutex<Pools>,
}

impl KeyCentricCache {
    /// Build a cache.
    pub fn new(granularity: CacheGranularity, policy: EvictionPolicy, pool_size: usize) -> Self {
        KeyCentricCache {
            granularity,
            policy,
            pool_size,
            pools: Mutex::new(Pools {
                scope: Pool::new((counter::CACHE_SCOPE_HITS, counter::CACHE_SCOPE_MISSES)),
                path: Pool::new((counter::CACHE_PATH_HITS, counter::CACHE_PATH_MISSES)),
                tick: 0,
            }),
        }
    }

    /// A disabled cache (granularity `None`).
    pub fn disabled() -> Self {
        Self::new(CacheGranularity::None, EvictionPolicy::Lfu, 0)
    }

    fn scope_enabled(&self) -> bool {
        matches!(
            self.granularity,
            CacheGranularity::Scope | CacheGranularity::Both
        )
    }

    fn path_enabled(&self) -> bool {
        matches!(
            self.granularity,
            CacheGranularity::Path | CacheGranularity::Both
        )
    }

    /// Injection gate shared by the four cache entry points. Lookups and
    /// inserts are infallible, so `Error` and `DropResult` both degrade to
    /// "the cache did nothing" (forced miss / dropped insert); `Latency`
    /// stalls the caller; `CorruptLabel` has no cache meaning and is inert.
    fn faulted(site: &'static str) -> bool {
        match svqa_fault::draw(site) {
            Some(svqa_fault::FaultKind::Error | svqa_fault::FaultKind::DropResult) => true,
            Some(svqa_fault::FaultKind::Latency(ms)) => {
                svqa_fault::apply_latency(ms, None);
                false
            }
            Some(svqa_fault::FaultKind::CorruptLabel) | None => false,
        }
    }

    /// The one lookup body: a use of `key` in the pool `pool` picks out.
    fn get<V: Clone>(&self, enabled: bool, pool: PoolOf<V>, key: &str) -> Option<V> {
        if Self::faulted(svqa_fault::site::CACHE_GET) || !enabled {
            return None;
        }
        let mut pools = self.pools.lock();
        pools.tick += 1;
        let tick = pools.tick;
        pool(&mut pools).get(key, tick).cloned()
    }

    /// The one insert body. Overwriting an existing key updates the value
    /// in place — preserving its LFU frequency history and evicting
    /// nothing, since the pool does not grow.
    fn put<V>(&self, enabled: bool, pool: PoolOf<V>, key: &str, value: V) {
        if Self::faulted(svqa_fault::site::CACHE_PUT) || !enabled || self.pool_size == 0 {
            return;
        }
        let mut pools = self.pools.lock();
        pools.tick += 1;
        let tick = pools.tick;
        if let Some(e) = pool(&mut pools).map.get_mut(key) {
            e.value = value;
            e.last_used = tick;
            return;
        }
        pools.make_room(self.policy, self.pool_size);
        pool(&mut pools).map.insert(
            key.to_owned(),
            Entry {
                value,
                freq: 1,
                last_used: tick,
            },
        );
    }

    /// Look up a scope item (cheap `Arc` clone — the vertex sets over a
    /// 4,233-image merged graph run to tens of thousands of ids, and deep
    /// copies on every hit would eat the savings).
    pub fn scope_get(&self, key: &str) -> Option<Arc<Vec<VertexId>>> {
        self.get(self.scope_enabled(), |p| &mut p.scope, key)
    }

    /// Store a scope item.
    pub fn scope_put(&self, key: &str, value: Arc<Vec<VertexId>>) {
        self.put(self.scope_enabled(), |p| &mut p.scope, key, value);
    }

    /// Look up a path item (cheap `Arc` clone).
    pub fn path_get(&self, key: &str) -> Option<Arc<Vec<RelationPair>>> {
        self.get(self.path_enabled(), |p| &mut p.path, key)
    }

    /// Store a path item.
    pub fn path_put(&self, key: &str, value: Arc<Vec<RelationPair>>) {
        self.put(self.path_enabled(), |p| &mut p.path, key, value);
    }

    /// Items currently held (scope + path).
    pub fn len(&self) -> usize {
        self.pools.lock().len()
    }

    /// Whether the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters for both pools since construction.
    pub fn stats(&self) -> CacheStats {
        let pools = self.pools.lock();
        CacheStats {
            scope_hits: pools.scope.hits,
            scope_misses: pools.scope.misses,
            path_hits: pools.path.hits,
            path_misses: pools.path.misses,
        }
    }

    /// The LFU frequency of a scope entry, without touching it (does not
    /// count as a use and does not bump hit/miss counters). `None` when the
    /// key is absent. Exposed so tests and cache introspection can verify
    /// eviction history survives overwrites.
    pub fn scope_frequency(&self, key: &str) -> Option<u64> {
        self.pools.lock().scope.map.get(key).map(|e| e.freq)
    }

    /// The LFU frequency of a path entry, without touching it.
    pub fn path_frequency(&self, key: &str) -> Option<u64> {
        self.pools.lock().path.map.get(key).map(|e| e.freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vid(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    #[test]
    fn disabled_cache_never_stores() {
        let c = KeyCentricCache::disabled();
        c.scope_put("dog", Arc::new(vec![vid(1)]));
        c.path_put("dog|car", Arc::new(vec![]));
        assert!(c.is_empty());
        assert_eq!(c.scope_get("dog"), None);
        assert_eq!(c.path_get("dog|car"), None);
    }

    #[test]
    fn scope_roundtrip_and_stats() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 10);
        assert_eq!(c.scope_get("dog"), None); // miss
        c.scope_put("dog", Arc::new(vec![vid(1), vid(2)]));
        assert_eq!(c.scope_get("dog"), Some(Arc::new(vec![vid(1), vid(2)]))); // hit
        c.path_put("dog|car", Arc::new(vec![]));
        assert!(c.path_get("dog|car").is_some());
        assert_eq!(c.len(), 2);
        let stats = c.stats();
        assert_eq!((stats.scope_hits, stats.scope_misses), (1, 1));
        assert_eq!((stats.path_hits, stats.path_misses), (1, 0));
        assert!((stats.scope_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn granularity_scope_only() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 10);
        c.scope_put("dog", Arc::new(vec![vid(1)]));
        c.path_put("k", Arc::new(vec![]));
        assert_eq!(c.len(), 1);
        assert!(c.scope_get("dog").is_some());
        assert!(c.path_get("k").is_none());
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.scope_put("b", Arc::new(vec![vid(2)]));
        // Touch "a" twice so "b" is least frequent.
        c.scope_get("a");
        c.scope_get("a");
        c.scope_put("c", Arc::new(vec![vid(3)]));
        assert!(c.scope_get("a").is_some());
        assert!(c.scope_get("b").is_none());
        assert!(c.scope_get("c").is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lru, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.scope_put("b", Arc::new(vec![vid(2)]));
        // "a" used many times long ago; "b" used once, recently.
        c.scope_get("a");
        c.scope_get("a");
        c.scope_get("b");
        c.scope_put("c", Arc::new(vec![vid(3)]));
        // LRU evicts "a" (older last_used) despite higher frequency.
        assert!(c.scope_get("a").is_none());
        assert!(c.scope_get("b").is_some());
    }

    #[test]
    fn shared_budget_across_pools() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.path_put("p", Arc::new(vec![]));
        assert_eq!(c.len(), 2);
        c.scope_put("b", Arc::new(vec![vid(2)]));
        assert_eq!(c.len(), 2); // one of the old entries was evicted
    }

    #[test]
    fn zero_pool_accepts_nothing() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 0);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        assert!(c.is_empty());
    }

    #[test]
    fn overwrite_same_key_keeps_len() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 5);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.scope_put("a", Arc::new(vec![vid(2)]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.scope_get("a"), Some(Arc::new(vec![vid(2)])));
    }

    /// Regression: overwriting a key in a *full* cache used to call
    /// `make_room()` and evict an unrelated entry even though the pool was
    /// not growing.
    #[test]
    fn overwrite_in_full_cache_evicts_nothing() {
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 2);
        c.scope_put("a", Arc::new(vec![vid(1)]));
        c.path_put("p", Arc::new(vec![]));
        assert_eq!(c.len(), 2); // full
        c.scope_put("a", Arc::new(vec![vid(9)]));
        assert_eq!(c.len(), 2);
        assert!(c.scope_frequency("a").is_some());
        assert!(c.path_frequency("p").is_some(), "unrelated entry evicted");
        assert_eq!(c.scope_get("a"), Some(Arc::new(vec![vid(9)])));
    }

    /// Regression: overwriting used to reset `freq` to 1, destroying the
    /// LFU history that decides the next eviction.
    #[test]
    fn overwrite_preserves_lfu_history() {
        let c = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 2);
        c.scope_put("hot", Arc::new(vec![vid(1)]));
        c.scope_get("hot");
        c.scope_get("hot"); // freq 3
        c.scope_put("cold", Arc::new(vec![vid(2)])); // freq 1
        c.scope_put("hot", Arc::new(vec![vid(3)])); // overwrite, freq stays 3
        assert_eq!(c.scope_frequency("hot"), Some(3));
        c.scope_put("new", Arc::new(vec![vid(4)]));
        // LFU must evict "cold" (freq 1), not "hot".
        assert!(c.scope_frequency("hot").is_some());
        assert!(c.scope_frequency("cold").is_none());
    }

    /// Threads share one cache by reference: the pool stays within its
    /// budget, every hit returns the value stored under its key, and the
    /// stats count every lookup exactly once.
    #[test]
    fn concurrent_callers_share_one_pool() {
        const THREADS: usize = 4;
        const GETS: usize = 500;
        let c = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 8);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..GETS {
                        let k = (i * 7 + t * 3) % 20;
                        if i % 2 == 0 {
                            if let Some(hit) = c.scope_get(&format!("s{k}")) {
                                assert_eq!(hit.as_slice(), [vid(k)]);
                            }
                            c.scope_put(&format!("s{k}"), Arc::new(vec![vid(k)]));
                        } else {
                            c.path_get(&format!("p{k}"));
                            c.path_put(&format!("p{k}"), Arc::new(vec![]));
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 8, "len {} exceeds the pool", c.len());
        let stats = c.stats();
        assert_eq!(stats.total_lookups(), (THREADS * GETS) as u64);
        assert!(stats.total_hits() > 0, "{stats:?}");
    }
}
