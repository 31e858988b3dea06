//! The traced run's per-layer measurements, taken from outside by timing
//! calls into each layer's public functions on the workload's own world and
//! questions.

use crate::report::{Metrics, Outcome};
use crate::serve::{self, Load};
use crate::stats::{mean, quantile};
use crate::trace::Tracer;
use serde_json::{json, Map, Value};
use std::hint::black_box;
use std::time::Instant;
use svqa::dataset::questions::{generate_questions, QuestionCounts};
use svqa::dataset::Mvqa;
use svqa::executor::executor::QueryGraphExecutor;
use svqa::executor::matching::{MatchMethod, VertexMatcher};
use svqa::executor::scheduler::QueryScheduler;
use svqa::executor::CacheStats;
use svqa::fault::{self, site, FaultKind, FaultPlan, SiteFault};
use svqa::nlp::Embedder;
use svqa::qparser::QueryGraph;
use svqa::{Svqa, SvqaConfig};

/// Ladder rungs as reported by `match_vertex_traced`, in metric order.
pub const RUNGS: [&str; 5] = ["exact", "lev", "main_noun", "embed", "none"];
const RUNG_SPANS: [&str; 5] = [
    "match.vertex.exact",
    "match.vertex.lev",
    "match.vertex.main_noun",
    "match.vertex.embed",
    "match.vertex.none",
];

fn rung(method: MatchMethod) -> usize {
    match method {
        MatchMethod::Exact => 0,
        MatchMethod::Levenshtein => 1,
        MatchMethod::HeadExact | MatchMethod::HeadLevenshtein => 2,
        MatchMethod::Embedding => 3,
        MatchMethod::NoMatch => 4,
    }
}

/// Loop lengths of the fixed-cost probes.
const SPAN_PROBE_CALLS: u32 = 200_000;
const DRAW_PROBE_CALLS: u32 = 2_000_000;
/// Writes of the ingest probe, and images per write.
const PROBE_WRITES: usize = 5;
pub const IMAGES_PER_WRITE: usize = 10;
/// Requests the in-process guarded replay and the serve probe send.
const GUARDED_REPLAY_CALLS: usize = 1_000;
const SERVE_PROBE_SECONDS: f64 = 1.5;
/// The serve probe's open-loop rate, a fraction of the server's capacity on
/// these worlds, so that its latency is service plus HTTP, not queueing.
const SERVE_PROBE_RPS: f64 = 300.0;

/// Counts gathered while replaying the pool.
#[derive(Debug, Default)]
pub struct Counts {
    pub parse_failed: u64,
    pub lint_rejected: u64,
    pub exec_edges: u64,
    pub match_edges: u64,
    pub rung_calls: [u64; 5],
    pub setups: u64,
    pub merged_vertices: u64,
    pub merged_edges: u64,
    pub cache: CacheStats,
    pub cache_entries: Vec<f64>,
    pub draws_per_question: f64,
    pub trace_overhead: f64,
    pub serve: ServeLayer,
}

/// What the serve probe showed of the HTTP layer.
#[derive(Debug, Default)]
pub struct ServeLayer {
    pub request_p50_ms: f64,
    pub late_p95_ms: f64,
    pub rejected_429: u64,
    pub deadline_504: u64,
}

/// Parse, lint, execute and match every pool question through the layers'
/// public functions, one call span per call. The match replay runs the
/// `VertexMatcher` calls of every slot on the slot's own phrase.
fn replay(system: &Svqa, pool: &[&str], batch: usize, t: &Tracer, c: &mut Counts) {
    let _p = t.phase("layers.replay");
    let graph = system.merged_graph();
    let config = system.config().executor;
    let executor = QueryGraphExecutor::with_config(graph, config);
    let mut matcher = VertexMatcher::new(graph);
    matcher.lev_threshold = config.lev_threshold;
    matcher.embed_threshold = config.embed_threshold;
    let embedder = Embedder::new();
    let mut parsed: Vec<QueryGraph> = Vec::new();
    for q in pool {
        let gq = {
            let _s = t.call("qparser.parse");
            system.parse(q)
        };
        let Ok(gq) = gq else {
            c.parse_failed += 1;
            continue;
        };
        let report = {
            let _s = t.call("qlint.lint");
            system.lint_graph(&gq)
        };
        if report.has_errors() {
            c.lint_rejected += 1;
            continue;
        }
        let run = {
            let _s = t.call("executor.execute");
            executor.execute_cached(&gq, None)
        };
        if let Ok((_, traces)) = run {
            c.exec_edges += traces.iter().map(|v| v.edges_scanned as u64).sum::<u64>();
        }
        for spoc in &gq.vertices {
            {
                let _s = t.call("nlp.embed");
                black_box(embedder.embed(&spoc.predicate));
            }
            let mut scopes = [None, None];
            for (slot, np) in [&spoc.subject, &spoc.object].into_iter().enumerate() {
                if np.is_empty() {
                    continue;
                }
                {
                    let _s = t.call("nlp.embed");
                    black_box(embedder.embed(&np.phrase));
                }
                let (matched, method) = {
                    let mut s = t.call("match.vertex");
                    let out = matcher.match_vertex_traced(&np.phrase, &np.head);
                    s.rename(RUNG_SPANS[rung(out.1)]);
                    out
                };
                c.rung_calls[rung(method)] += 1;
                scopes[slot] = Some({
                    let _s = t.call("match.expand");
                    matcher.expand_semantic(&matched)
                });
            }
            let scanned = {
                let _s = t.call("match.scan");
                match (&scopes[0], &scopes[1]) {
                    (Some(s), Some(o)) => matcher.relations_between_counted(s, o).1,
                    (Some(s), None) => matcher.relations_around_counted(s, true).1,
                    (None, Some(o)) => matcher.relations_around_counted(o, false).1,
                    (None, None) => 0,
                }
            };
            c.match_edges += scanned as u64;
        }
        parsed.push(gq);
    }
    for chunk in parsed.chunks(batch.max(1)) {
        let _s = t.call("scheduler.order");
        black_box(QueryScheduler::order_with_scores(chunk));
    }
    // The generated phrases rarely take the Levenshtein rung, so also look
    // up a one-letter typo of every distinct slot head of five or more
    // letters ("person" -> "personn"), which does on every seed.
    let mut heads: Vec<&str> = parsed
        .iter()
        .flat_map(|gq| gq.vertices.iter())
        .flat_map(|spoc| [spoc.subject.head.as_str(), spoc.object.head.as_str()])
        .filter(|h| h.len() >= 5)
        .collect();
    heads.sort_unstable();
    heads.dedup();
    for head in heads {
        let last = head.chars().next_back().expect("heads are non-empty");
        let typo = format!("{head}{last}");
        let mut s = t.call("match.vertex");
        let (_, method) = matcher.match_vertex_traced(&typo, &typo);
        s.rename(RUNG_SPANS[rung(method)]);
        c.rung_calls[rung(method)] += 1;
    }
}

/// In-process `Svqa::answer_guarded` over the workload's Zipf request mix,
/// with one persistent cache, as a server worker would run it.
fn guarded_replay(system: &Svqa, mvqa: &Mvqa, load: &Load, t: &Tracer) {
    let _p = t.phase("layers.guarded");
    let cache = QueryScheduler::new(system.config().scheduler).build_cache();
    for i in 0..GUARDED_REPLAY_CALLS {
        let q = load.question(mvqa, i);
        let _s = t.call("core.answer_guarded");
        black_box(system.answer_guarded(q, Some(&cache), None).ok());
    }
}

/// What every traced run does after its measured phase, on the workload's
/// final system: replay the pool through each layer, the guarded path and
/// the fixed-cost probes, count fault draws on the batch path (batches of
/// `batch`), run the serve probe, and derive every per-layer metric.
pub fn finish_traced(
    system: Svqa,
    mvqa: &Mvqa,
    batch: usize,
    seed: u64,
    t: &Tracer,
    mut c: Counts,
    out: &mut Outcome,
) {
    t.set_calls(true);
    mvqa_questions(mvqa, seed, t);
    let pool: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    replay(&system, &pool, batch, t, &mut c);
    let load = Load::new(&system, mvqa, seed, t);
    guarded_replay(&system, mvqa, &load, t);
    probes(t);
    let scheduler = QueryScheduler::new(system.config().scheduler);
    let per_site = fault_draws(
        pool.len() as u64,
        || {
            for chunk in pool.chunks(batch) {
                system.answer_batch_cached(chunk, &scheduler.build_cache());
            }
        },
        seed,
        t,
        &mut c,
    );
    out.note("fault_draws_per_site", per_site);
    let probe = serve_probe(system, &load, t, &mut c);
    out.absorb(probe.sent, probe.failed, &probe.problems);
    metrics(t, &c, &mut out.metrics);
}

/// One MVQA question set generated over the whole world, as
/// `Mvqa::generate` does it. Set-up generates per slice instead: at 2,000
/// images this call alone takes seconds, and how many depends on the seed.
fn mvqa_questions(mvqa: &Mvqa, seed: u64, t: &Tracer) {
    let _p = t.phase("layers.mvqa_questions");
    let _s = t.call("dataset.mvqa_questions");
    // `Mvqa::generate` seeds question generation with the image seed ^ 0x51.
    let counts = QuestionCounts::default();
    black_box(generate_questions(
        &mvqa.images,
        &mvqa.kg,
        seed ^ 0x51,
        counts,
    ));
}

/// Fixed costs that should stay flat: one telemetry span, and one fault
/// draw with no plan installed.
fn probes(t: &Tracer) {
    let _p = t.phase("layers.probes");
    assert!(fault::active().is_none(), "no fault plan may be armed here");
    {
        let _s = t.call("telemetry.span_loop");
        for _ in 0..SPAN_PROBE_CALLS {
            drop(black_box(svqa::telemetry::Span::enter("perfbench.probe")));
        }
    }
    {
        let _s = t.call("fault.draw_loop");
        for _ in 0..DRAW_PROBE_CALLS {
            black_box(fault::draw(black_box(site::RELATION_SCAN)));
        }
    }
}

/// Fault draws per question on the workload's answering path: arm a plan
/// whose every rule has probability 0, answer once, read the per-site draw
/// counts. Returns the per-site counts for the run record.
fn fault_draws(
    questions: u64,
    answer: impl FnOnce(),
    seed: u64,
    t: &Tracer,
    c: &mut Counts,
) -> Value {
    let _p = t.phase("layers.fault_draws");
    let plan = site::ALL.iter().fold(FaultPlan::new(seed), |plan, s| {
        plan.with_fault(s, SiteFault::new(FaultKind::Error, 0.0))
    });
    let installed = fault::install(plan);
    answer();
    let mut per_site = Map::new();
    let mut total = 0;
    for s in site::ALL {
        let n = installed.injector().draws_at(s);
        total += n;
        per_site.insert(s.to_owned(), json!(n));
    }
    drop(installed);
    c.draws_per_question = total as f64 / questions.max(1) as f64;
    Value::Object(per_site)
}

/// `Svqa::add_images` on a world of the workload's size: build over all but
/// the last images, then absorb those in writes of [`IMAGES_PER_WRITE`].
pub fn ingest_probe(mvqa: &Mvqa, t: &Tracer) {
    t.set_calls(true);
    let _p = t.phase("layers.ingest_probe");
    let split = mvqa.images.len() - PROBE_WRITES * IMAGES_PER_WRITE;
    let mut system = Svqa::build(&mvqa.images[..split], &mvqa.kg, SvqaConfig::default());
    for chunk in mvqa.images[split..].chunks(IMAGES_PER_WRITE) {
        let _s = t.call("core.add_images");
        system.add_images(chunk);
    }
}

/// A short open loop through `QueryServer` (2 workers) over the workload's
/// world, from a generator with 2 connections.
/// Returns the probe's requests, whose checks count like any other.
fn serve_probe(system: Svqa, load: &Load, t: &Tracer, c: &mut Counts) -> serve::LoopStats {
    let _p = t.phase("layers.serve_probe");
    let server = serve::bind(system);
    let addr = server.local_addr().expect("bound address");
    let stats = std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve());
        let before = serve::counters(addr);
        let stats = serve::open_loop(addr, load, SERVE_PROBE_RPS, SERVE_PROBE_SECONDS, t);
        let after = serve::counters(addr);
        c.serve = ServeLayer {
            request_p50_ms: quantile(&stats.latency_ms, 0.5),
            late_p95_ms: quantile(&stats.late_ms, 0.95),
            rejected_429: serve::delta(&before, &after, "server_rejected"),
            deadline_504: serve::delta(&before, &after, "server_deadline_exceeded"),
        };
        serve::shutdown(addr);
        handle
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
        stats
    });
    stats
}

fn span_mean(t: &Tracer, name: &str, per: f64) -> f64 {
    let d = t.durations_ns(name);
    if d.is_empty() {
        0.0
    } else {
        mean(&d) / per
    }
}

fn span_sum(t: &Tracer, name: &str) -> f64 {
    t.durations_ns(name).iter().sum()
}

/// Every per-layer metric of the manifest, from the recorded spans and the
/// counts.
fn metrics(t: &Tracer, c: &Counts, m: &mut Metrics) {
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let setups = c.setups.max(1) as f64;
    m.put(
        "dataset.images_ms",
        span_mean(t, "dataset.images", MS),
        "ms",
    );
    m.put(
        "dataset.questions_ms",
        span_sum(t, "dataset.questions") / setups / MS,
        "ms",
    );
    m.put(
        "dataset.ground_truth_ms",
        span_mean(t, "dataset.ground_truth", MS),
        "ms",
    );
    m.put(
        "dataset.mvqa_questions_ms",
        span_mean(t, "dataset.mvqa_questions", MS),
        "ms",
    );
    m.put(
        "vision.prior_fit_ms",
        span_mean(t, "vision.prior_fit", MS),
        "ms",
    );
    m.put(
        "vision.sgg_us_per_image",
        span_mean(t, "vision.sgg", US),
        "us",
    );
    m.put(
        "aggregator.merge_ms",
        span_mean(t, "aggregator.merge", MS),
        "ms",
    );
    m.put("graph.merged_vertices", c.merged_vertices as f64, "count");
    m.put("graph.merged_edges", c.merged_edges as f64, "count");
    m.put(
        "qlint.schema_extract_ms",
        span_mean(t, "qlint.schema_extract", MS),
        "ms",
    );
    m.put("core.build_ms", span_mean(t, "core.build", MS), "ms");
    m.put("qparser.parse_us", span_mean(t, "qparser.parse", US), "us");
    m.put("qparser.failed", c.parse_failed as f64, "count");
    m.put("qlint.lint_us", span_mean(t, "qlint.lint", US), "us");
    m.put("qlint.rejected", c.lint_rejected as f64, "count");
    m.put(
        "executor.execute_us",
        span_mean(t, "executor.execute", US),
        "us",
    );
    m.put("executor.edges_scanned", c.exec_edges as f64, "count");
    for (i, name) in RUNGS.iter().enumerate() {
        m.put(
            format!("match.vertex_us.{name}"),
            span_mean(t, RUNG_SPANS[i], US),
            "us",
        );
        m.put(
            format!("match.vertex_calls.{name}"),
            c.rung_calls[i] as f64,
            "count",
        );
    }
    m.put("match.expand_us", span_mean(t, "match.expand", US), "us");
    m.put("match.scan_us", span_mean(t, "match.scan", US), "us");
    m.put("match.edges_scanned", c.match_edges as f64, "count");
    m.put("nlp.embed_us", span_mean(t, "nlp.embed", US), "us");
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.put(
        "cache.scope_hit_ratio",
        ratio(c.cache.scope_hits, c.cache.scope_misses),
        "ratio",
    );
    m.put(
        "cache.scope_lookups",
        (c.cache.scope_hits + c.cache.scope_misses) as f64,
        "count",
    );
    m.put(
        "cache.path_hit_ratio",
        ratio(c.cache.path_hits, c.cache.path_misses),
        "ratio",
    );
    m.put(
        "cache.path_lookups",
        (c.cache.path_hits + c.cache.path_misses) as f64,
        "count",
    );
    m.put("cache.entries", mean(&c.cache_entries), "count");
    m.put(
        "scheduler.order_us",
        span_mean(t, "scheduler.order", US),
        "us",
    );
    let guarded_p50_us = quantile(&t.durations_ns("core.answer_guarded"), 0.5) / US;
    m.put("core.answer_guarded_us", guarded_p50_us, "us");
    m.put(
        "core.add_images_ms",
        span_mean(t, "core.add_images", MS),
        "ms",
    );
    m.put(
        "serve.overhead_us",
        c.serve.request_p50_ms * 1e3 - guarded_p50_us,
        "us",
    );
    m.put("serve.rejected_429", c.serve.rejected_429 as f64, "count");
    m.put("serve.deadline_504", c.serve.deadline_504 as f64, "count");
    m.put("serve.generator_late_ms", c.serve.late_p95_ms, "ms");
    m.put(
        "telemetry.span_ns",
        span_sum(t, "telemetry.span_loop") / f64::from(SPAN_PROBE_CALLS),
        "ns",
    );
    m.put(
        "fault.disarmed_draw_ns",
        span_sum(t, "fault.draw_loop") / f64::from(DRAW_PROBE_CALLS),
        "ns",
    );
    m.put("fault.draws_per_question", c.draws_per_question, "count");
    m.put("trace.overhead", c.trace_overhead, "ratio");
    m.put("trace.coverage", t.coverage(), "ratio");
}

/// Wall-clock seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
