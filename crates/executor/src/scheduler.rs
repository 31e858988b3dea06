//! Optimized multi-query scheduling (§V-B).
//!
//! Before executing N query graphs, each distinct SPOC vertex key is
//! counted across the batch; every query graph gets a score = sum of its
//! vertices' frequency ratios, and the batch executes in descending score
//! order so queries with highly shared vertices run first and seed the
//! cache for the rest (Fig. 6). The scheduler only orders a batch and
//! builds its cache; the batch itself runs one question at a time through
//! the pipeline's answer path (`Svqa::answer_batch_with`).

use crate::cache::{CacheGranularity, EvictionPolicy, KeyCentricCache};
use std::collections::HashMap;
use svqa_qparser::QueryGraph;

/// Batch scheduling and cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Cache granularity (No/Scope/Path/Both — Fig. 10b).
    pub granularity: CacheGranularity,
    /// Eviction policy (LFU/LRU — Fig. 11).
    pub policy: EvictionPolicy,
    /// Cache pool size in items (Fig. 11).
    pub pool_size: usize,
    /// Whether to apply the frequency-ratio ordering (ablation switch; off
    /// = FIFO order).
    pub frequency_sort: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            granularity: CacheGranularity::Both,
            policy: EvictionPolicy::Lfu,
            pool_size: 100,
            frequency_sort: true,
        }
    }
}

/// The multi-query scheduler.
#[derive(Debug, Clone, Default)]
pub struct QueryScheduler {
    config: SchedulerConfig,
}

impl QueryScheduler {
    /// Build a scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        QueryScheduler { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The frequency-ratio ordering of §V-B: vertex keys are counted across
    /// the batch; each query's score is the sum of its vertices' frequency
    /// ratios; descending score (stable on ties).
    pub fn order(queries: &[QueryGraph]) -> Vec<usize> {
        Self::order_with_scores(queries).0
    }

    /// [`order`](Self::order) plus the per-query frequency-ratio scores in
    /// the *original* submission order — the reuse rationale surfaced by
    /// `EXPLAIN ANALYZE`.
    pub fn order_with_scores(queries: &[QueryGraph]) -> (Vec<usize>, Vec<f64>) {
        Self::order_with_scores_hinted(queries, None)
    }

    /// [`order_with_scores`](Self::order_with_scores) with optional static
    /// cost hints (per query, original order — e.g. `qlint`'s cardinality
    /// estimates). Frequency ratio stays the primary key; among queries
    /// with equal reuse potential, the cheaper estimated plan runs first so
    /// it seeds the cache sooner, and the hint breaks ties *before* the
    /// submission index does.
    pub fn order_with_scores_hinted(
        queries: &[QueryGraph],
        cost_hints: Option<&[f64]>,
    ) -> (Vec<usize>, Vec<f64>) {
        let mut freq: HashMap<String, usize> = HashMap::new();
        let mut total = 0usize;
        for q in queries {
            for v in &q.vertices {
                *freq.entry(vertex_key(v)).or_insert(0) += 1;
                total += 1;
            }
        }
        let score = |q: &QueryGraph| -> f64 {
            if total == 0 {
                return 0.0;
            }
            q.vertices
                .iter()
                .map(|v| freq[&vertex_key(v)] as f64 / total as f64)
                .sum()
        };
        let mut idx: Vec<usize> = (0..queries.len()).collect();
        let scores: Vec<f64> = queries.iter().map(score).collect();
        let cost = |i: usize| -> f64 {
            cost_hints
                .and_then(|h| h.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        // `total_cmp`, not `partial_cmp().expect()`: a NaN score must not
        // panic the whole batch (it sorts last), and the index tie-break
        // keeps the order stable.
        idx.sort_by(|&a, &b| {
            scores[b]
                .total_cmp(&scores[a])
                .then(cost(a).total_cmp(&cost(b)))
                .then(a.cmp(&b))
        });
        (idx, scores)
    }

    /// A batch's execution order (indices into `queries`): the
    /// frequency-ratio ordering with optional cost hints (see
    /// [`order_with_scores_hinted`](Self::order_with_scores_hinted)), or
    /// submission order when `frequency_sort` is off. Recorded as the
    /// `schedule` span.
    pub fn order_batch(&self, queries: &[QueryGraph], cost_hints: Option<&[f64]>) -> Vec<usize> {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::SCHEDULE);
        if self.config.frequency_sort {
            Self::order_with_scores_hinted(queries, cost_hints).0
        } else {
            (0..queries.len()).collect()
        }
    }

    /// Build the cache this scheduler's configuration describes — what a
    /// batch uses, and what a long-lived caller (the query service)
    /// constructs once and feeds to every batch.
    pub fn build_cache(&self) -> KeyCentricCache {
        KeyCentricCache::new(
            self.config.granularity,
            self.config.policy,
            self.config.pool_size,
        )
    }
}

/// A vertex's identity for frequency counting: its SPOC key.
fn vertex_key(v: &svqa_qparser::Spoc) -> String {
    format!(
        "{}|{}|{}",
        v.subject.phrase, v.predicate, v.object.phrase
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_qparser::QueryGraphGenerator;

    fn queries(texts: &[&str]) -> Vec<QueryGraph> {
        let gen = QueryGraphGenerator::new();
        texts.iter().map(|q| gen.generate(q).unwrap()).collect()
    }

    #[test]
    fn order_puts_most_shared_first() {
        let qs = queries(&[
            "Does the cat appear in the car?", // unique vertices
            "Does the dog appear in the car?", // shared with q2 below
            "Does the dog appear in the car?",
        ]);
        let order = QueryScheduler::order(&qs);
        // The duplicated dog queries score higher than the cat query.
        assert_eq!(*order.last().unwrap(), 0, "order = {order:?}");
    }

    #[test]
    fn fifo_mode_keeps_submission_order() {
        let qs = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let fifo = QueryScheduler::new(SchedulerConfig {
            frequency_sort: false,
            ..SchedulerConfig::default()
        });
        assert_eq!(fifo.order_batch(&qs, None), vec![0, 1]);
        // Where the frequency ordering runs the shared dog queries first,
        // FIFO still keeps submission order.
        let qs = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let sorted = QueryScheduler::new(SchedulerConfig::default());
        assert_eq!(sorted.order_batch(&qs, None), vec![1, 2, 0]);
        assert_eq!(fifo.order_batch(&qs, None), vec![0, 1, 2]);
    }

    #[test]
    fn scores_explain_the_order() {
        let qs = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let (order, scores) = QueryScheduler::order_with_scores(&qs);
        assert_eq!(scores.len(), 3);
        // Shared dog queries score higher than the unique cat query.
        assert!(scores[1] > scores[0] && (scores[1] - scores[2]).abs() < 1e-12);
        // The order is exactly descending score (stable on ties).
        for w in order.windows(2) {
            assert!(scores[w[0]] >= scores[w[1]], "order={order:?} scores={scores:?}");
        }
    }

    /// Regression for the score sort: exact ties must keep submission
    /// order (stable index tie-break), run after run.
    #[test]
    fn equal_scores_keep_submission_order() {
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        for _ in 0..4 {
            let (order, scores) = QueryScheduler::order_with_scores(&qs);
            assert_eq!(order, vec![0, 1, 2]);
            assert!(scores.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        }
    }

    /// The cache a scheduler builds is the paper's one pool: a full pool
    /// evicts the least-frequent entry among everything it holds, whatever
    /// the newcomer's key.
    #[test]
    fn build_cache_evicts_the_global_least_frequent_entry() {
        let cache = QueryScheduler::new(SchedulerConfig {
            pool_size: 4,
            ..SchedulerConfig::default()
        })
        .build_cache();
        let value = || std::sync::Arc::new(Vec::new());
        for key in ["a", "b", "c", "d"] {
            cache.scope_put(key, value());
        }
        for key in ["a", "b", "c"] {
            assert!(cache.scope_get(key).is_some());
        }
        cache.scope_put("e", value());
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.scope_frequency("d"), None, "d was the least frequent");
        for key in ["a", "b", "c", "e"] {
            assert!(cache.scope_frequency(key).is_some(), "{key} wrongly evicted");
        }
    }

    /// Among equal frequency scores, the cost hint decides: cheaper plans
    /// run first. Without hints the submission index still breaks ties.
    #[test]
    fn cost_hints_break_frequency_ties() {
        let qs = queries(&[
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let (order, _) =
            QueryScheduler::order_with_scores_hinted(&qs, Some(&[3.0, 1.0, 2.0]));
        assert_eq!(order, vec![1, 2, 0]);
        // Hints must never override the frequency ordering itself.
        let mixed = queries(&[
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ]);
        let (order, scores) =
            QueryScheduler::order_with_scores_hinted(&mixed, Some(&[0.0, 9.0, 9.0]));
        assert_eq!(*order.last().unwrap(), 0, "order={order:?} scores={scores:?}");
    }
}
