//! Property-based tests for the executor: cache invariants, matcher
//! behaviour, and answer-shape guarantees.

use std::sync::Arc;
use proptest::prelude::*;
use svqa_executor::cache::{CacheGranularity, EvictionPolicy, KeyCentricCache, ShardedCache};
use svqa_executor::executor::QueryGraphExecutor;
use svqa_executor::matching::VertexMatcher;
use svqa_executor::Answer;
use svqa_graph::{Graph, VertexId};
use svqa_qparser::{NounPhrase, QueryGraph, QuestionType, Spoc};

/// A cache operation script.
#[derive(Debug, Clone)]
enum Op {
    ScopeGet(u8),
    ScopePut(u8, u8),
    PathGet(u8),
    PathPut(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16).prop_map(Op::ScopeGet),
        (0u8..16, 0u8..8).prop_map(|(k, v)| Op::ScopePut(k, v)),
        (0u8..16).prop_map(Op::PathGet),
        (0u8..16).prop_map(Op::PathPut),
    ]
}

proptest! {
    #[test]
    fn cache_never_exceeds_pool_size(
        ops in proptest::collection::vec(arb_op(), 0..200),
        pool in 0usize..12,
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { EvictionPolicy::Lfu } else { EvictionPolicy::Lru };
        let mut cache = KeyCentricCache::new(CacheGranularity::Both, policy, pool);
        for op in ops {
            match op {
                Op::ScopeGet(k) => { cache.scope_get(&format!("s{k}")); }
                Op::ScopePut(k, v) => {
                    cache.scope_put(&format!("s{k}"), Arc::new(vec![VertexId::from_index(v as usize)]));
                }
                Op::PathGet(k) => { cache.path_get(&format!("p{k}")); }
                Op::PathPut(k) => { cache.path_put(&format!("p{k}"), Arc::new(vec![])); }
            }
            prop_assert!(cache.len() <= pool, "len {} > pool {}", cache.len(), pool);
        }
        // Value accounting never goes negative/overflows.
        let _ = cache.value_bytes();
    }

    #[test]
    fn cache_get_returns_last_put(
        key in 0u8..8,
        values in proptest::collection::vec(0u8..32, 1..10),
    ) {
        let mut cache = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, 64);
        let k = format!("s{key}");
        let mut last = None;
        for v in values {
            let stored = Arc::new(vec![VertexId::from_index(v as usize)]);
            cache.scope_put(&k, Arc::clone(&stored));
            last = Some(stored);
        }
        prop_assert_eq!(cache.scope_get(&k), last);
    }

    #[test]
    fn disabled_granularities_store_nothing(keys in proptest::collection::vec(0u8..8, 0..20)) {
        let mut cache = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lru, 16);
        for k in &keys {
            cache.path_put(&format!("p{}", k), Arc::new(vec![]));
        }
        for k in &keys {
            let got = cache.path_get(&format!("p{}", k));
            prop_assert!(got.is_none());
        }
    }
}

proptest! {
    /// Overwriting a key that is already cached must not evict anything
    /// and must keep the entry's LFU frequency history (the seed version
    /// called `make_room()` unconditionally and re-inserted with freq 1).
    #[test]
    fn overwrite_preserves_frequency_and_length(
        pool in 1usize..6,
        touches in 0usize..5,
    ) {
        let mut cache = KeyCentricCache::new(CacheGranularity::Scope, EvictionPolicy::Lfu, pool);
        for i in 0..pool {
            cache.scope_put(&format!("k{i}"), Arc::new(vec![]));
        }
        for _ in 0..touches {
            prop_assert!(cache.scope_get("k0").is_some());
        }
        let freq_before = cache.scope_frequency("k0").unwrap();
        let len_before = cache.len();

        let replacement = Arc::new(vec![VertexId::from_index(9)]);
        cache.scope_put("k0", Arc::clone(&replacement));

        prop_assert_eq!(cache.scope_frequency("k0"), Some(freq_before));
        prop_assert_eq!(cache.len(), len_before);
        prop_assert_eq!(cache.scope_get("k0"), Some(replacement));
        // No unrelated entry paid for the overwrite.
        for i in 1..pool {
            prop_assert!(cache.scope_frequency(&format!("k{i}")).is_some(), "k{} evicted", i);
        }
    }

    /// When a fresh insert forces an eviction, the victim is exactly the
    /// policy minimum: min (freq, last_used) under LFU, min (last_used,
    /// freq) under LRU. Ticks are unique, so the minimum is unambiguous
    /// and the model predicts the victim exactly.
    #[test]
    fn eviction_picks_the_policy_minimum(
        pool in 2usize..8,
        gets in proptest::collection::vec(0usize..8, 0..40),
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { EvictionPolicy::Lfu } else { EvictionPolicy::Lru };
        let mut cache = KeyCentricCache::new(CacheGranularity::Scope, policy, pool);
        // Model: (key, freq, last_used), mirroring the cache's tick clock
        // (every get and put advances it by one).
        let mut tick = 0u64;
        let mut model: Vec<(String, u64, u64)> = Vec::new();
        for i in 0..pool {
            let k = format!("k{i}");
            tick += 1;
            cache.scope_put(&k, Arc::new(vec![]));
            model.push((k, 1, tick));
        }
        for g in gets {
            let idx = g % pool;
            tick += 1;
            prop_assert!(cache.scope_get(&model[idx].0).is_some());
            model[idx].1 += 1;
            model[idx].2 = tick;
        }

        cache.scope_put("fresh", Arc::new(vec![]));

        let victim = model
            .iter()
            .min_by_key(|(_, f, t)| match policy {
                EvictionPolicy::Lfu => (*f, *t),
                EvictionPolicy::Lru => (*t, *f),
            })
            .unwrap()
            .0
            .clone();
        prop_assert!(cache.scope_frequency(&victim).is_none(), "{} should be the victim", victim);
        prop_assert!(cache.scope_frequency("fresh").is_some());
        for (k, _, _) in model.iter().filter(|(k, _, _)| *k != victim) {
            prop_assert!(cache.scope_frequency(k).is_some(), "{} wrongly evicted", k);
        }
        prop_assert_eq!(cache.len(), pool);
    }

    /// The sharded cache obeys the same global invariants as a single
    /// pool: total length never exceeds the budget, and any key still
    /// resident returns the last value put for it (routing is stable).
    #[test]
    fn sharded_cache_respects_budget_and_routing(
        ops in proptest::collection::vec(arb_op(), 0..200),
        pool in 0usize..16,
        shards in 1usize..6,
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { EvictionPolicy::Lfu } else { EvictionPolicy::Lru };
        let cache = ShardedCache::new(CacheGranularity::Both, policy, pool, shards);
        let mut last_scope: std::collections::HashMap<String, Arc<Vec<VertexId>>> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::ScopeGet(k) => { cache.scope_get(&format!("s{k}")); }
                Op::ScopePut(k, v) => {
                    let key = format!("s{k}");
                    let value = Arc::new(vec![VertexId::from_index(v as usize)]);
                    cache.scope_put(&key, Arc::clone(&value));
                    last_scope.insert(key, value);
                }
                Op::PathGet(k) => { cache.path_get(&format!("p{k}")); }
                Op::PathPut(k) => { cache.path_put(&format!("p{k}"), Arc::new(vec![])); }
            }
            prop_assert!(cache.len() <= pool, "len {} > pool {}", cache.len(), pool);
            // Shard budgets keep summing to the pool budget and no key
            // leaks into a foreign shard, after every single operation.
            cache.debug_assert_invariants();
        }
        for (key, value) in &last_scope {
            if let Some(got) = cache.scope_get(key) {
                prop_assert_eq!(&got, value, "stale value for {}", key);
            }
        }
        // Merged stats account for every lookup made above.
        let _ = cache.stats().total_lookups();
        let _ = cache.value_bytes();
    }
}

/// A small random merged-graph-like world for executor properties.
fn arb_world() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0usize..6, 0usize..6, 0usize..4), 1..30).prop_map(|edges| {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        const PREDS: [&str; 4] = ["on", "near", "in", "wearing"];
        let mut g = Graph::new();
        let ids: Vec<_> = LABELS.iter().map(|l| g.add_vertex(*l)).collect();
        for (a, b, p) in edges {
            if a != b {
                g.add_edge(ids[a], ids[b], PREDS[p]).unwrap();
            }
        }
        g
    })
}

fn spoc(s: &str, p: &str, o: &str) -> Spoc {
    Spoc {
        subject: if s.is_empty() {
            NounPhrase::default()
        } else {
            NounPhrase::simple(s)
        },
        predicate: p.to_owned(),
        object: if o.is_empty() {
            NounPhrase::default()
        } else {
            NounPhrase::simple(o)
        },
        ..Spoc::default()
    }
}

proptest! {
    #[test]
    fn judgment_answers_are_always_boolean(
        g in arb_world(),
        si in 0usize..6, pi in 0usize..4, oi in 0usize..6,
    ) {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        const PREDS: [&str; 4] = ["on", "near", "in", "wearing"];
        let gq = QueryGraph {
            vertices: vec![spoc(LABELS[si], PREDS[pi], LABELS[oi])],
            edges: vec![],
            question_type: QuestionType::Judgment,
            question: String::new(),
        };
        let ex = QueryGraphExecutor::new(&g);
        let a = ex.run(&gq, None).unwrap().answer;
        prop_assert!(matches!(a, Answer::Judgment(_)));
    }

    #[test]
    fn cached_execution_equals_uncached(
        g in arb_world(),
        si in 0usize..6, pi in 0usize..4, oi in 0usize..6,
    ) {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        const PREDS: [&str; 4] = ["on", "near", "in", "wearing"];
        let gq = QueryGraph {
            vertices: vec![spoc(LABELS[si], PREDS[pi], LABELS[oi])],
            edges: vec![],
            question_type: QuestionType::Counting,
            question: String::new(),
        };
        let ex = QueryGraphExecutor::new(&g);
        let plain = ex.run(&gq, None).unwrap().answer;
        let cache = ShardedCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 64, 4);
        // Run twice so the second pass reads from a warm cache.
        let first = ex.execute_cached(&gq, Some(&cache)).unwrap().0;
        let second = ex.execute_cached(&gq, Some(&cache)).unwrap().0;
        prop_assert_eq!(&plain, &first);
        prop_assert_eq!(&first, &second);
    }

    #[test]
    fn matcher_exact_labels_always_match(g in arb_world(), li in 0usize..6) {
        const LABELS: [&str; 6] = ["dog", "cat", "man", "grass", "car", "hat"];
        let m = VertexMatcher::new(&g);
        let found = m.match_vertex_traced(LABELS[li], LABELS[li]).0;
        prop_assert!(!found.is_empty());
        for v in &found {
            prop_assert_eq!(g.vertex_label(*v), Some(LABELS[li]));
        }
        // Expansion is a superset and idempotent.
        let once = m.expand_semantic(&found);
        for v in &found {
            prop_assert!(once.contains(v));
        }
        prop_assert_eq!(m.expand_semantic(&once), once);
    }
}
