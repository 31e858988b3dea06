//! Observability for the SVQA pipeline: spans, metrics, per-query traces.
//!
//! The paper's pipeline (Fig. 2) runs a question through five stages —
//! parse, decompose, schedule, match, aggregate — on top of scene-graph
//! generation at build time. This crate gives every stage a name
//! ([`stage`]), a way to time it ([`Span`]), and a place to accumulate
//! counters, gauges, and latency histograms ([`Recorder`]). A
//! [`QueryTrace`] carries the per-question view; [`MetricsSnapshot`]
//! serializes the whole registry to JSON for `svqa-cli --metrics` and the
//! bench reports.
//!
//! Design rules:
//!
//! * **Zero heavy dependencies** — only `parking_lot`, `serde`,
//!   `serde_json`; cheap enough to instrument hot paths unconditionally.
//! * **Global by default, injectable for tests** — [`Span::enter`] and
//!   the counter helpers hit the process-global [`Recorder`] from
//!   [`global()`]; everything also works against an owned recorder.
//! * **Lock-light** — one short mutex hold per event; span timing itself
//!   happens outside any lock.
//!
//! ```
//! use svqa_telemetry::{global, stage, Span};
//!
//! let recorder = svqa_telemetry::Recorder::new();
//! {
//!     let _span = Span::enter_in(&recorder, stage::PARSE);
//!     // ... work ...
//! }
//! let snap = recorder.snapshot();
//! assert_eq!(snap.spans[stage::PARSE].count, 1);
//! let _ = global(); // the process-wide recorder used by `Span::enter`
//! ```

#![forbid(unsafe_code)]

mod exposition;
mod histogram;
mod http;
mod recent;
mod recorder;
pub mod router;
mod span;
mod trace;
mod trace_event;

pub use exposition::prometheus_text;
pub use histogram::{BucketCount, Histogram, HistogramSnapshot};
pub use http::metrics_routes;
pub use recent::{global_profiles, ProfileRing};
pub use recorder::{global, MetricsSnapshot, Recorder};
pub use router::{HttpServer, Request, Response, Router};
pub use span::Span;
pub use trace::{QueryOutcome, QueryTrace, StageTiming};
pub use trace_event::{ChromeTrace, TraceEvent};

use serde::{Deserialize, Serialize};

/// Canonical stage names, matching the paper's Fig. 2 pipeline.
pub mod stage {
    /// Question text → dependency parse (`qparser` front end).
    pub const PARSE: &str = "parse";
    /// Parse tree → query-graph vertices/edges (clause decomposition).
    pub const DECOMPOSE: &str = "decompose";
    /// Batch ordering and dispatch (`executor::scheduler`).
    pub const SCHEDULE: &str = "schedule";
    /// Query-graph matching against the merged graph (Algorithm 3).
    pub const MATCH: &str = "match";
    /// Scene-graph merging into the unified graph (`aggregator`).
    pub const AGGREGATE: &str = "aggregate";
    /// Scene-graph generation per image (`vision::sgg`, build time).
    pub const SGG: &str = "sgg";
    /// Static analysis of the query graph before execution (`qlint`).
    /// Deliberately not part of [`PIPELINE`]: it is a gate in front of the
    /// paper's Fig. 2 stages, not one of them.
    pub const LINT: &str = "lint";

    /// The five per-question pipeline stages, in paper order.
    pub const PIPELINE: [&str; 5] = [PARSE, DECOMPOSE, SCHEDULE, MATCH, AGGREGATE];
}

/// Well-known counter names.
pub mod counter {
    /// Questions successfully parsed into query graphs.
    pub const QUESTIONS_PARSED: &str = "questions_parsed";
    /// Questions answered end to end.
    pub const QUESTIONS_ANSWERED: &str = "questions_answered";
    /// Questions that failed (parse or execution error).
    pub const QUESTIONS_FAILED: &str = "questions_failed";
    /// Scene graphs generated at build time.
    pub const SCENE_GRAPHS_BUILT: &str = "scene_graphs_built";
    /// Scope-cache hits observed by finished batches.
    pub const CACHE_SCOPE_HITS: &str = "cache_scope_hits";
    /// Scope-cache misses observed by finished batches.
    pub const CACHE_SCOPE_MISSES: &str = "cache_scope_misses";
    /// Path-cache hits observed by finished batches.
    pub const CACHE_PATH_HITS: &str = "cache_path_hits";
    /// Path-cache misses observed by finished batches.
    pub const CACHE_PATH_MISSES: &str = "cache_path_misses";
    /// Requests accepted by the query server (`svqa serve`).
    pub const SERVER_REQUESTS: &str = "server_requests";
    /// Requests rejected with 429 because the admission queue was full.
    pub const SERVER_REJECTED: &str = "server_rejected";
    /// Requests that blew their deadline (answered with 504).
    pub const SERVER_DEADLINE_EXCEEDED: &str = "server_deadline_exceeded";
    /// Malformed requests answered with 400 (bad body, missing fields).
    pub const SERVER_REQUESTS_BAD: &str = "server_requests_bad";
    /// Error-severity lint diagnostics (questions rejected before
    /// execution).
    pub const LINT_ERRORS: &str = "lint_errors";
    /// Warning-severity lint diagnostics (executed anyway).
    pub const LINT_WARNINGS: &str = "lint_warnings";
    /// Faults fired by an installed `FaultPlan` (`svqa-fault`).
    pub const FAULTS_INJECTED: &str = "faults_injected";
    /// Transient-fault retries performed by the degradation policy.
    pub const FAULT_RETRIES: &str = "fault_retries";
    /// Answers served in degraded mode (one or more sources missing).
    pub const ANSWERS_DEGRADED: &str = "answers_degraded";
    /// Worker-thread panics caught and converted to 500s (`svqa serve`).
    pub const SERVER_WORKER_PANICS: &str = "server_worker_panics";
}

/// Well-known gauge names.
pub mod gauge {
    /// Query-server requests admitted but not yet answered.
    pub const SERVER_REQUESTS_IN_FLIGHT: &str = "server_requests_in_flight";
    /// Knowledge-graph-source breaker state (0 = closed, 1 = half-open,
    /// 2 = open).
    pub const BREAKER_STATE_KG: &str = "breaker_state_kg";
    /// Scene-graph-source breaker state (same encoding).
    pub const BREAKER_STATE_SCENE: &str = "breaker_state_scene";
}

/// Named hit/miss counters for the key-centric cache's two pools.
///
/// Replaces the positional `(u64, u64, u64, u64)` tuple the executor used
/// to expose; the names make call sites self-describing and the struct
/// serializes into metrics output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Scope-cache (per-vertex candidate set) hits.
    pub scope_hits: u64,
    /// Scope-cache misses.
    pub scope_misses: u64,
    /// Path-cache (edge traversal) hits.
    pub path_hits: u64,
    /// Path-cache misses.
    pub path_misses: u64,
}

impl CacheStats {
    /// All-zero stats.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Total lookups against either pool.
    pub fn total_lookups(&self) -> u64 {
        self.scope_hits + self.scope_misses + self.path_hits + self.path_misses
    }

    /// Total hits across both pools.
    pub fn total_hits(&self) -> u64 {
        self.scope_hits + self.path_hits
    }

    /// Scope-pool hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn scope_hit_rate(&self) -> f64 {
        rate(self.scope_hits, self.scope_hits + self.scope_misses)
    }

    /// Path-pool hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn path_hit_rate(&self) -> f64 {
        rate(self.path_hits, self.path_hits + self.path_misses)
    }

    /// Combined hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        rate(self.total_hits(), self.total_lookups())
    }

    /// Accumulate `other`'s counters into `self` — the batch-runner's way
    /// to sum per-query stats without field-by-field code at every call
    /// site.
    pub fn merge(&mut self, other: &CacheStats) {
        self.scope_hits += other.scope_hits;
        self.scope_misses += other.scope_misses;
        self.path_hits += other.path_hits;
        self.path_misses += other.path_misses;
    }

    /// Counters accumulated after `earlier` was captured (saturating, so
    /// a reset cache yields zeros rather than wrapping).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            scope_hits: self.scope_hits.saturating_sub(earlier.scope_hits),
            scope_misses: self.scope_misses.saturating_sub(earlier.scope_misses),
            path_hits: self.path_hits.saturating_sub(earlier.path_hits),
            path_misses: self.path_misses.saturating_sub(earlier.path_misses),
        }
    }

    /// Push these counters into `recorder` as cache counter increments.
    pub fn record_to(&self, recorder: &Recorder) {
        recorder.incr_counter_by(counter::CACHE_SCOPE_HITS, self.scope_hits);
        recorder.incr_counter_by(counter::CACHE_SCOPE_MISSES, self.scope_misses);
        recorder.incr_counter_by(counter::CACHE_PATH_HITS, self.path_hits);
        recorder.incr_counter_by(counter::CACHE_PATH_MISSES, self.path_misses);
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            scope_hits: self.scope_hits + rhs.scope_hits,
            scope_misses: self.scope_misses + rhs.scope_misses,
            path_hits: self.path_hits + rhs.path_hits,
            path_misses: self.path_misses + rhs.path_misses,
        }
    }
}

fn rate(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_rates() {
        let s = CacheStats {
            scope_hits: 3,
            scope_misses: 1,
            path_hits: 0,
            path_misses: 4,
        };
        assert_eq!(s.total_lookups(), 8);
        assert!((s.scope_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.path_hit_rate(), 0.0);
        assert!((s.hit_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(CacheStats::new().hit_rate(), 0.0);
    }

    #[test]
    fn cache_stats_delta_and_add() {
        let earlier = CacheStats {
            scope_hits: 1,
            scope_misses: 1,
            path_hits: 1,
            path_misses: 1,
        };
        let later = CacheStats {
            scope_hits: 5,
            scope_misses: 2,
            path_hits: 1,
            path_misses: 3,
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(
            delta,
            CacheStats {
                scope_hits: 4,
                scope_misses: 1,
                path_hits: 0,
                path_misses: 2,
            }
        );
        assert_eq!(earlier + delta, later);
        // Saturating: a cache reset between snapshots yields zeros.
        assert_eq!(earlier.delta_since(&later), CacheStats::new());
    }

    #[test]
    fn cache_stats_merge_sums_fields_and_matches_add() {
        let mut acc = CacheStats {
            scope_hits: 1,
            scope_misses: 2,
            path_hits: 3,
            path_misses: 4,
        };
        let other = CacheStats {
            scope_hits: 10,
            scope_misses: 20,
            path_hits: 30,
            path_misses: 40,
        };
        let by_add = acc + other;
        acc.merge(&other);
        assert_eq!(acc, by_add);
        assert_eq!(acc.total_lookups(), 110);
        // Merging zeros is a no-op.
        let before = acc;
        acc.merge(&CacheStats::new());
        assert_eq!(acc, before);
    }

    #[test]
    fn cache_stats_rates_are_zero_not_nan_without_lookups() {
        let empty = CacheStats::new();
        for r in [
            empty.scope_hit_rate(),
            empty.path_hit_rate(),
            empty.hit_rate(),
        ] {
            assert_eq!(r, 0.0, "zero-lookup rate must be 0.0, not NaN");
            assert!(!r.is_nan());
        }
    }

    #[test]
    fn cache_stats_round_trip_json() {
        let s = CacheStats {
            scope_hits: 9,
            scope_misses: 4,
            path_hits: 2,
            path_misses: 7,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: CacheStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
