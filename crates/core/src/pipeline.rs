//! The end-to-end SVQA pipeline (Fig. 2 of the paper).

use crate::config::{ConfigSummary, SvqaConfig};
use crate::degrade::{
    execute_with_retry, filter_view, probe_source, AnswerStatus, Breakers, GuardedAnswer,
    ProbeOutcome,
};
use crate::error::SvqaError;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use svqa_fault::{BreakerState, Source};
use svqa_aggregator::DataAggregator;
use svqa_executor::cache::KeyCentricCache;
use svqa_executor::executor::{QueryGraphExecutor, Run};
use svqa_executor::scheduler::QueryScheduler;
use svqa_executor::{Answer, CacheStats, ExecutionProfile, Explanation};
use svqa_graph::{binio, Graph};
use svqa_qlint::{LintConfig, LintReport, Linter, Schema, Severity};
use svqa_qparser::{QueryGraph, QueryGraphGenerator};
use svqa_telemetry::{counter, global, stage, QueryOutcome, QueryTrace, Span};
use svqa_vision::prior::PairPrior;
use svqa_vision::scene::SyntheticImage;
use svqa_vision::sgg::SceneGraphGenerator;

/// Offline build statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Number of scene graphs generated.
    pub scene_graphs: usize,
    /// Merged-graph vertex count.
    pub merged_vertices: usize,
    /// Merged-graph edge count.
    pub merged_edges: usize,
    /// Aggregator accounting (Algorithm 1).
    pub merge: svqa_aggregator::MergeStats,
    /// Wall-clock time of scene-graph generation.
    pub sgg_time: Duration,
    /// Wall-clock time of graph merging.
    pub merge_time: Duration,
}

impl BuildStats {
    /// One-line human summary of the offline phase.
    pub fn summary_line(&self) -> String {
        format!(
            "{} scene graphs in {:.1?}; merged {} vertices / {} edges in {:.1?}",
            self.scene_graphs,
            self.sgg_time,
            self.merged_vertices,
            self.merged_edges,
            self.merge_time
        )
    }
}

/// Result of answering a batch of questions.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-question results (original order). Parse failures are recorded
    /// as errors, matching the paper's Fig. 8a error analysis.
    pub answers: Vec<Result<Answer, SvqaError>>,
    /// Total wall-clock latency of the batch.
    pub total: Duration,
    /// Wall-clock per question (original order; parse-failed questions
    /// carry their parse time).
    pub per_query: Vec<Duration>,
    /// Cache hit/miss counters accumulated over the batch: the sum of the
    /// per-question deltas in `traces`.
    pub cache_stats: CacheStats,
    /// Per-question telemetry traces (original order).
    pub traces: Vec<QueryTrace>,
    /// How complete the evidence behind the batch's answers was: a batch
    /// probes its sources once. When every source is down, each question
    /// that parsed and linted fails with [`SvqaError::Unavailable`] and the
    /// status lists every source as missing.
    pub status: AnswerStatus,
}

/// A question parsed and linted ([`Svqa::prepare`]): the first half of
/// every answer path, and what [`Svqa::answer_prepared`] runs.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The query graph with its lint report (warnings and hints only), or
    /// why the question cannot run: a parse failure or an error-severity
    /// lint finding.
    pub query: Result<(QueryGraph, LintReport), SvqaError>,
    /// The question's trace so far: parse and lint stage times, and the
    /// outcome when the question cannot run.
    pub trace: QueryTrace,
}

/// Everything one question's run produced: the result, its trace, and the
/// executor's run — from which callers build the `EXPLAIN ANALYZE`
/// profile ([`Answered::profile`]) or the answer's supporting evidence
/// ([`Svqa::explanation`]) when they need them.
#[derive(Debug)]
pub struct Answered {
    /// The answer and how complete its evidence was, or why there is none.
    pub result: Result<GuardedAnswer, SvqaError>,
    /// Parse, lint and match stage times, the cache traffic this question
    /// produced (when a cache was given), and the outcome.
    pub trace: QueryTrace,
    /// The executor's run, when execution succeeded.
    pub run: Option<Run>,
    /// The query graph and its lint report, when the question got past
    /// parsing and the lint gate.
    pub query: Option<(QueryGraph, LintReport)>,
    /// The source left out of a degraded run (its view is the graph `run`
    /// refers to).
    missing: Option<Source>,
}

impl Answered {
    /// The `EXPLAIN ANALYZE` profile of this question's run: the plan, with
    /// the parse and lint stages in front and the lint warnings attached.
    /// `None` when nothing ran.
    pub fn profile(&self) -> Option<ExecutionProfile> {
        let (gq, lint) = self.query.as_ref()?;
        let run = self.run.as_ref()?;
        Some(ExecutionProfile::assemble(gq, run, &self.trace, &lint.diagnostics))
    }
}

/// The assembled system: merged graph + query pipeline.
pub struct Svqa {
    config: SvqaConfig,
    merged: Graph,
    generator: QueryGraphGenerator,
    build_stats: BuildStats,
    /// The scene-graph generator, retained for incremental ingestion (its
    /// prior is the one fitted on the original corpus — a deployed model
    /// does not retrain per batch).
    sgg: SceneGraphGenerator,
    /// KG vertices occupy merged ids `0..kg_vertex_count` (absorb order),
    /// which is how incremental linking finds knowledge counterparts.
    kg_vertex_count: usize,
    /// Static query-graph analyzer over the merged graph's extracted
    /// schema; every `answer*` path runs it before the executor and
    /// short-circuits error-severity findings.
    linter: Linter,
    /// Per-source circuit breakers for [`answer_prepared`](Self::answer_prepared).
    breakers: Breakers,
    /// Lazily-built merged-graph view without KG vertices (scene evidence
    /// only), for degraded execution when the KG breaker is open.
    scene_view: OnceLock<Graph>,
    /// Lazily-built merged-graph view without scene vertices (KG evidence
    /// only).
    kg_view: OnceLock<Graph>,
}

impl Svqa {
    /// Offline phase: run scene-graph generation over every image (fitting
    /// the relation model's prior on the corpus), then merge with the
    /// knowledge graph (Algorithm 1).
    pub fn build(images: &[SyntheticImage], kg: &Graph, config: SvqaConfig) -> Svqa {
        let prior = PairPrior::fit(images);
        let sgg = SceneGraphGenerator::new(config.sgg.clone(), prior);
        let t0 = Instant::now();
        let scene_graphs: Vec<Graph> = images.iter().map(|i| sgg.generate(i).graph).collect();
        let sgg_time = t0.elapsed();
        global().incr_counter_by(counter::SCENE_GRAPHS_BUILT, scene_graphs.len() as u64);

        let t1 = Instant::now();
        let aggregator = DataAggregator::new(config.aggregator.clone());
        let merged = aggregator.merge(&scene_graphs, kg);
        let merge_time = t1.elapsed();

        let build_stats = BuildStats {
            scene_graphs: scene_graphs.len(),
            merged_vertices: merged.graph.vertex_count(),
            merged_edges: merged.graph.edge_count(),
            merge: merged.stats,
            sgg_time,
            merge_time,
        };
        Svqa::from_parts(merged.graph, kg.vertex_count(), sgg, build_stats, config)
    }

    /// Persist the offline phase's result into the world directory `dir`
    /// (created if missing): the merged graph as a binary snapshot
    /// (`merged.svqg`, see [`svqa_graph::binio`]) and `system.json` with
    /// the knowledge-graph vertex count, the build statistics, the
    /// configuration summary and the fitted image prior — everything
    /// [`open`](Self::open) needs to answer and to keep ingesting.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir).map_err(at(dir))?;
        let system = SystemFile {
            kg_vertex_count: self.kg_vertex_count,
            build_stats: self.build_stats.clone(),
            config: self.config.summary(),
            prior: self.sgg.prior().clone(),
        };
        let json = serde_json::to_string_pretty(&system).map_err(|e| invalid(dir, e))?;
        let path = dir.join(SYSTEM_FILE);
        std::fs::write(&path, json).map_err(at(&path))?;
        let path = dir.join(GRAPH_FILE);
        std::fs::write(&path, binio::to_bytes(&self.merged)).map_err(at(&path))
    }

    /// Load a world directory written by [`save`](Self::save) and
    /// assemble the system over it with `config`. A missing or unreadable
    /// file, malformed JSON, a corrupt snapshot, or a snapshot whose size
    /// disagrees with `system.json` is an error.
    pub fn open(dir: &Path, config: SvqaConfig) -> io::Result<Svqa> {
        let path = dir.join(SYSTEM_FILE);
        let text = std::fs::read_to_string(&path).map_err(at(&path))?;
        let system: SystemFile = serde_json::from_str(&text).map_err(|e| invalid(&path, e))?;
        let path = dir.join(GRAPH_FILE);
        let bytes = std::fs::read(&path).map_err(at(&path))?;
        let merged = binio::from_bytes(bytes.into()).map_err(|e| invalid(&path, e))?;
        let stats = &system.build_stats;
        if (stats.merged_vertices, stats.merged_edges)
            != (merged.vertex_count(), merged.edge_count())
            || system.kg_vertex_count > merged.vertex_count()
        {
            return Err(invalid(
                &path,
                format!(
                    "{} vertices / {} edges, but {SYSTEM_FILE} records {} / {} with {} from the knowledge graph",
                    merged.vertex_count(),
                    merged.edge_count(),
                    stats.merged_vertices,
                    stats.merged_edges,
                    system.kg_vertex_count
                ),
            ));
        }
        let sgg = SceneGraphGenerator::new(config.sgg.clone(), system.prior);
        Ok(Svqa::from_parts(
            merged,
            system.kg_vertex_count,
            sgg,
            system.build_stats,
            config,
        ))
    }

    /// The one constructor behind [`build`](Self::build) and
    /// [`open`](Self::open): derive the linter's schema and the breakers
    /// from the merged graph and the configuration.
    fn from_parts(
        merged: Graph,
        kg_vertex_count: usize,
        sgg: SceneGraphGenerator,
        build_stats: BuildStats,
        config: SvqaConfig,
    ) -> Svqa {
        let linter = linter(&merged, &config);
        let breakers = Breakers::new(&config.degrade);
        Svqa {
            config,
            merged,
            generator: QueryGraphGenerator::new(),
            build_stats,
            sgg,
            kg_vertex_count,
            linter,
            breakers,
            scene_view: OnceLock::new(),
            kg_view: OnceLock::new(),
        }
    }

    /// Incremental ingestion: run scene-graph generation over `images` and
    /// attach them to the existing merged graph (the data-lake scenario of
    /// §I — new sources arrive continuously, and rebuilding `G_mg` from
    /// scratch per batch would defeat the aggregator). Returns the number
    /// of new link edges created.
    ///
    /// Note: callers running batches through the §V-B scheduler should
    /// start a fresh [`KeyCentricCache`] afterwards —
    /// cached scopes and paths predate the new evidence.
    pub fn add_images(&mut self, images: &[SyntheticImage]) -> usize {
        let link_label = self.config.aggregator.link_label.clone();
        let mut links = 0usize;
        for image in images {
            let out = self.sgg.generate(image);
            let mapping = self.merged.absorb(&out.graph);
            for (local, &merged_id) in out.graph.vertices().map(|(_, v)| v).zip(&mapping) {
                // Knowledge counterpart: the first vertex with this label
                // inside the KG id range.
                let kg_vertex = self
                    .merged
                    .vertices_with_label(local.label())
                    .iter()
                    .copied()
                    .find(|v| v.index() < self.kg_vertex_count);
                if let Some(kg) = kg_vertex {
                    self.merged
                        .add_edge(merged_id, kg, link_label.as_str())
                        .expect("endpoints exist");
                    self.merged
                        .add_edge(kg, merged_id, link_label.as_str())
                        .expect("endpoints exist");
                    links += 2;
                }
            }
        }
        global().incr_counter_by(counter::SCENE_GRAPHS_BUILT, images.len() as u64);
        self.build_stats.scene_graphs += images.len();
        self.build_stats.merged_vertices = self.merged.vertex_count();
        self.build_stats.merged_edges = self.merged.edge_count();
        self.build_stats.merge.links_created += links;
        // The new evidence may introduce categories/predicates the old
        // schema has never seen; re-extract so the linter stays truthful.
        self.linter = linter(&self.merged, &self.config);
        // Degraded views were built from the pre-ingestion graph; drop
        // them so the next guarded answer sees the new evidence.
        self.scene_view = OnceLock::new();
        self.kg_view = OnceLock::new();
        links
    }

    /// The merged graph `G_mg`.
    pub fn merged_graph(&self) -> &Graph {
        &self.merged
    }

    /// Offline build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The configuration.
    pub fn config(&self) -> &SvqaConfig {
        &self.config
    }

    /// Parse a question into its query graph (§IV).
    pub fn parse(&self, question: &str) -> Result<QueryGraph, SvqaError> {
        Ok(self.generator.generate(question)?)
    }

    /// The merged graph's extracted schema — what the linter checks
    /// questions against.
    pub fn schema(&self) -> &Schema {
        self.linter.schema()
    }

    /// Statically analyze a question without executing it: parse, then run
    /// the query-graph linter over the result. `Err` only for parse
    /// failures — an error-riddled report comes back as `Ok`, so callers
    /// can render every diagnostic.
    pub fn lint(&self, question: &str) -> Result<LintReport, SvqaError> {
        let gq = self.parse(question)?;
        Ok(self.lint_graph(&gq))
    }

    /// Lint an already-parsed query graph: records the `lint` stage span
    /// and bumps the lint counters.
    pub fn lint_graph(&self, gq: &QueryGraph) -> LintReport {
        let _span = Span::enter(stage::LINT);
        let report = self.linter.lint(gq);
        let errors = report.count(Severity::Error) as u64;
        let warnings = report.count(Severity::Warning) as u64;
        if errors > 0 {
            global().incr_counter_by(counter::LINT_ERRORS, errors);
        }
        if warnings > 0 {
            global().incr_counter_by(counter::LINT_WARNINGS, warnings);
        }
        report
    }

    /// The first half of every answer path: parse and lint `question`,
    /// timing both stages.
    pub fn prepare(&self, question: &str) -> Prepared {
        let mut trace = QueryTrace::new(question);
        let t0 = Instant::now();
        let parsed = self.generator.generate(question);
        trace.record_stage(stage::PARSE, t0.elapsed());
        let query = match parsed {
            Err(e) => {
                trace.outcome = QueryOutcome::ParseError;
                Err(SvqaError::from(e))
            }
            Ok(gq) => {
                let t1 = Instant::now();
                let report = self.lint_graph(&gq);
                trace.record_stage(stage::LINT, t1.elapsed());
                if report.has_errors() {
                    trace.outcome = QueryOutcome::LintError;
                    Err(SvqaError::Lint(report))
                } else {
                    Ok((gq, report))
                }
            }
        };
        Prepared { query, trace }
    }

    /// Answer a single question end-to-end (no shared cache, no deadline).
    pub fn answer(&self, question: &str) -> Result<Answer, SvqaError> {
        self.answer_with(question, None, None).result.map(|g| g.answer)
    }

    /// [`answer`](Self::answer), plus how complete the evidence behind the
    /// answer was (see [`answer_prepared`](Self::answer_prepared)).
    pub fn answer_guarded(
        &self,
        question: &str,
        cache: Option<&KeyCentricCache>,
        deadline: Option<Instant>,
    ) -> Result<GuardedAnswer, SvqaError> {
        self.answer_with(question, cache, deadline).result
    }

    /// [`prepare`](Self::prepare) followed by
    /// [`answer_prepared`](Self::answer_prepared): the one path from a
    /// question to an answer.
    pub fn answer_with(
        &self,
        question: &str,
        cache: Option<&KeyCentricCache>,
        deadline: Option<Instant>,
    ) -> Answered {
        self.answer_prepared(self.prepare(question), cache, deadline)
    }

    /// Answer a prepared question under the failure-handling policy:
    /// per-source circuit breakers, bounded retries for transient faults,
    /// and partial answers from the surviving sources.
    ///
    /// * Both sources up → executes against the full merged graph and
    ///   returns [`AnswerStatus::Full`].
    /// * One source down (probe failed past the retry budget, or its
    ///   breaker already open) → executes against the surviving source's
    ///   filtered view and returns [`AnswerStatus::Degraded`]. The shared
    ///   `cache` is bypassed for degraded runs: cached ids refer to the
    ///   full merged graph.
    /// * Both sources down → [`SvqaError::Unavailable`] with a
    ///   `Retry-After` hint (the longest remaining breaker cooldown).
    ///
    /// `deadline` bounds injected latency stalls and retry backoff; the
    /// query server derives it from the request's `deadline_ms`. The
    /// result's trace gains the `match` stage and, with a `cache`, the
    /// cache traffic this question produced.
    pub fn answer_prepared(
        &self,
        prepared: Prepared,
        cache: Option<&KeyCentricCache>,
        deadline: Option<Instant>,
    ) -> Answered {
        let Prepared { query, mut trace } = prepared;
        let (query, executed) = match query {
            Err(e) => (None, Err(e)),
            Ok(query) => {
                let executed = self.probe(deadline).and_then(|(status, missing)| {
                    let cache = if missing.is_none() { cache } else { None };
                    let executor =
                        QueryGraphExecutor::with_config(self.view(missing), self.config.executor);
                    let run = self.execute(&executor, &query.0, cache, deadline, &mut trace)?;
                    Ok((status, run, missing))
                });
                if executed.is_err() {
                    trace.outcome = QueryOutcome::ExecError;
                }
                (Some(query), executed)
            }
        };
        let (result, run, missing) = match executed {
            Ok((status, run, missing)) => {
                let answer = run.answer.clone();
                (Ok(GuardedAnswer { answer, status }), Some(run), missing)
            }
            Err(e) => (Err(e), None, None),
        };
        count_outcome(&result, result.as_ref().is_ok_and(|g| g.status.is_degraded()));
        Answered {
            result,
            trace,
            run,
            query,
            missing,
        }
    }

    /// The one body that executes a prepared query graph, for single
    /// questions and batches alike: run `gq` on `executor` with retries for
    /// injected faults, and record the `match` stage and the cache traffic
    /// this question produced on `trace`.
    fn execute(
        &self,
        executor: &QueryGraphExecutor,
        gq: &QueryGraph,
        cache: Option<&KeyCentricCache>,
        deadline: Option<Instant>,
        trace: &mut QueryTrace,
    ) -> Result<Run, SvqaError> {
        let before = cache.map(KeyCentricCache::stats);
        let t0 = Instant::now();
        let run = execute_with_retry(&self.config.degrade.retry, deadline, || {
            executor.run(gq, cache)
        });
        trace.record_stage(stage::MATCH, t0.elapsed());
        if let (Some(c), Some(before)) = (cache, before) {
            trace.cache = c.stats().delta_since(&before);
        }
        Ok(run?)
    }

    /// Probe every source once (breaker gate, injection site, retries
    /// within `deadline`) and decide which evidence a run may use: the
    /// status its answers get, and the source left out of a degraded run.
    fn probe(
        &self,
        deadline: Option<Instant>,
    ) -> Result<(AnswerStatus, Option<Source>), SvqaError> {
        let policy = &self.config.degrade;
        let mut missing: Vec<Source> = Vec::new();
        let mut retry_after_ms = policy.breaker.cooldown_ms;
        for source in Source::ALL {
            match probe_source(&self.breakers, policy, source, deadline) {
                ProbeOutcome::Available => {}
                ProbeOutcome::Down => missing.push(source),
                ProbeOutcome::Rejected {
                    retry_after_ms: ms,
                } => {
                    missing.push(source);
                    retry_after_ms = retry_after_ms.max(ms);
                }
            }
        }
        self.breakers.publish_gauges();
        let names: Vec<String> = missing.iter().map(|s| s.name().to_owned()).collect();
        if missing.len() == Source::ALL.len() {
            return Err(SvqaError::Unavailable {
                missing: names,
                retry_after_ms,
            });
        }
        match missing.first() {
            None => Ok((AnswerStatus::Full, None)),
            Some(&first) => Ok((
                AnswerStatus::Degraded {
                    missing_sources: names,
                    confidence_penalty: (policy.confidence_penalty * missing.len() as f64)
                        .min(1.0),
                },
                Some(first),
            )),
        }
    }

    /// The graph a run uses: the full merged graph, or the surviving
    /// source's view when `missing` is down (built on first use).
    fn view(&self, missing: Option<Source>) -> &Graph {
        match missing {
            None => &self.merged,
            Some(Source::Kg) => self
                .scene_view
                .get_or_init(|| filter_view(&self.merged, |i| i >= self.kg_vertex_count)),
            Some(Source::Scene) => self
                .kg_view
                .get_or_init(|| filter_view(&self.merged, |i| i < self.kg_vertex_count)),
        }
    }

    /// The supporting evidence behind an answered question (which images
    /// and knowledge-graph facts back the answer), over the graph its run
    /// used. `None` when nothing ran.
    pub fn explanation(&self, answered: &Answered) -> Option<Explanation> {
        let run = answered.run.as_ref()?;
        Some(Explanation::from_aps(self.view(answered.missing), &run.aps))
    }

    /// The per-source circuit breakers guarding this system.
    pub fn breakers(&self) -> &Breakers {
        &self.breakers
    }

    /// Current breaker state per source, in [`Source::ALL`] order.
    pub fn breaker_states(&self) -> Vec<(Source, BreakerState)> {
        self.breakers.states()
    }

    /// Overall source health: `"ok"`, `"degraded"`, or `"unhealthy"` (see
    /// [`Breakers::health`]).
    pub fn health_status(&self) -> &'static str {
        self.breakers.health()
    }

    /// Answer a batch with the §V-B optimized scheduler (frequency-sorted
    /// order, shared key-centric cache). Each call starts from a cold
    /// cache; long-lived callers (the query server) should hold a
    /// [`KeyCentricCache`] and use [`answer_batch_with`](Self::answer_batch_with)
    /// so hits carry over between batches.
    pub fn answer_batch(&self, questions: &[&str]) -> BatchOutcome {
        let cache = QueryScheduler::new(self.config.scheduler).build_cache();
        self.answer_batch_with(questions, &cache, None)
    }

    /// [`answer_batch`](Self::answer_batch) against a caller-provided
    /// persistent cache, with no deadline.
    pub fn answer_batch_cached(&self, questions: &[&str], cache: &KeyCentricCache) -> BatchOutcome {
        self.answer_batch_with(questions, cache, None)
    }

    /// The batch path: [`prepare`](Self::prepare) every question, probe
    /// the sources once for the whole batch, then run each prepared query
    /// graph in the scheduler's order through the same body as
    /// [`answer_prepared`](Self::answer_prepared), over the evidence that
    /// is up. Scopes and paths cached by earlier requests in `cache`
    /// accelerate this batch; a degraded batch runs over the surviving
    /// view with no cache, as a degraded question does. `deadline` bounds
    /// the probe and the retries of injected execution faults.
    pub fn answer_batch_with(
        &self,
        questions: &[&str],
        cache: &KeyCentricCache,
        deadline: Option<Instant>,
    ) -> BatchOutcome {
        let start = Instant::now();
        let mut answers: Vec<Option<Result<Answer, SvqaError>>> =
            Vec::with_capacity(questions.len());
        let mut traces: Vec<QueryTrace> = Vec::with_capacity(questions.len());
        // Original indices and query graphs of the questions that may run.
        let mut runnable: Vec<usize> = Vec::new();
        let mut graphs: Vec<QueryGraph> = Vec::new();
        for (i, question) in questions.iter().enumerate() {
            let Prepared { query, trace } = self.prepare(question);
            traces.push(trace);
            match query {
                Ok((gq, _)) => {
                    runnable.push(i);
                    graphs.push(gq);
                    answers.push(None);
                }
                Err(e) => answers.push(Some(Err(e))),
            }
        }
        let mut status = AnswerStatus::Full;
        let mut cache_stats = CacheStats::default();
        if !graphs.is_empty() {
            match self.probe(deadline) {
                Err(e) => {
                    if let SvqaError::Unavailable { missing, .. } = &e {
                        status = AnswerStatus::Degraded {
                            missing_sources: missing.clone(),
                            confidence_penalty: 1.0,
                        };
                    }
                    for &i in &runnable {
                        traces[i].outcome = QueryOutcome::ExecError;
                        answers[i] = Some(Err(e.clone()));
                    }
                }
                Ok((probed, missing)) => {
                    let cache = if missing.is_none() { Some(cache) } else { None };
                    let executor =
                        QueryGraphExecutor::with_config(self.view(missing), self.config.executor);
                    // The linter's cardinality estimates are join-order
                    // hints: ties in the frequency ordering break toward
                    // cheaper plans.
                    let hints: Vec<f64> =
                        graphs.iter().map(|g| self.linter.cost(g).total).collect();
                    let order =
                        QueryScheduler::new(self.config.scheduler).order_batch(&graphs, Some(&hints));
                    for k in order {
                        let trace = &mut traces[runnable[k]];
                        let run = self.execute(&executor, &graphs[k], cache, deadline, trace);
                        if run.is_err() {
                            trace.outcome = QueryOutcome::ExecError;
                        }
                        cache_stats.merge(&trace.cache);
                        answers[runnable[k]] = Some(run.map(|run| run.answer));
                    }
                    status = probed;
                }
            }
        }
        let answers: Vec<Result<Answer, SvqaError>> = answers
            .into_iter()
            .map(|a| a.expect("all questions accounted for"))
            .collect();
        for a in &answers {
            count_outcome(a, status.is_degraded());
        }
        BatchOutcome {
            answers,
            total: start.elapsed(),
            per_query: traces.iter().map(QueryTrace::total).collect(),
            cache_stats,
            traces,
            status,
        }
    }
}

/// The world directory's `system.json`: what [`Svqa::open`] needs beside
/// the merged graph.
#[derive(Serialize, Deserialize)]
struct SystemFile {
    /// KG vertices occupy merged ids `0..kg_vertex_count`.
    kg_vertex_count: usize,
    build_stats: BuildStats,
    /// The configuration the world was built with, for readers of the
    /// file; [`Svqa::open`] takes its configuration from the caller.
    config: ConfigSummary,
    /// The scene-graph generator's prior, fitted on the build corpus and
    /// reused by [`Svqa::add_images`].
    prior: PairPrior,
}

/// The merged-graph snapshot inside a world directory.
const GRAPH_FILE: &str = "merged.svqg";
/// The rest of the system inside a world directory ([`SystemFile`]).
const SYSTEM_FILE: &str = "system.json";

/// Prefix an I/O error with the path it happened at.
fn at(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// An invalid-data error about the file at `path`.
fn invalid(path: &Path, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
}

/// The linter over `merged`'s schema, with the matching thresholds the
/// executor runs under, so lint accepts what execution would match.
fn linter(merged: &Graph, config: &SvqaConfig) -> Linter {
    let executor = &config.executor;
    let lint = LintConfig {
        lev_threshold: executor.lev_threshold,
        embed_threshold: executor.embed_threshold,
        min_predicate_similarity: executor.min_predicate_similarity,
        ..LintConfig::default()
    };
    Linter::with_config(Schema::extract(merged), lint)
}

/// Bump the global answered/failed counters for a finished question, and
/// the degraded counter for an answer from a `degraded` run.
fn count_outcome<T>(result: &Result<T, SvqaError>, degraded: bool) {
    match result {
        Ok(_) => {
            global().incr_counter(counter::QUESTIONS_ANSWERED);
            if degraded {
                global().incr_counter(counter::ANSWERS_DEGRADED);
            }
        }
        Err(_) => global().incr_counter(counter::QUESTIONS_FAILED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_dataset::Mvqa;

    fn small_system() -> (Svqa, Mvqa) {
        let mvqa = Mvqa::generate_small(250, 11);
        let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
        (system, mvqa)
    }

    #[test]
    fn build_produces_a_connected_merged_graph() {
        let (system, mvqa) = small_system();
        let stats = system.build_stats();
        assert_eq!(stats.scene_graphs, 250);
        assert!(stats.merged_vertices > mvqa.kg.vertex_count());
        assert!(stats.merge.links_created > 0);
        system.merged_graph().validate().unwrap();
    }

    #[test]
    fn answers_a_simple_judgment() {
        let (system, _) = small_system();
        // Pets in vehicles exist by archetype construction.
        let a = system
            .answer("Does the dog appear in the car?")
            .unwrap();
        assert!(matches!(a, Answer::Judgment(_)));
    }

    #[test]
    fn parse_failures_are_reported_not_fatal() {
        let (system, _) = small_system();
        let out = system.answer_batch(&[
            "Does the dog appear in the car?",
            "the red dog", // no verb
        ]);
        assert!(out.answers[0].is_ok());
        assert!(matches!(out.answers[1], Err(SvqaError::Parse(_))));
    }

    #[test]
    fn incremental_ingestion_extends_the_merged_graph() {
        let mvqa = Mvqa::generate_small(200, 11);
        let (head, tail) = mvqa.images.split_at(150);
        let mut incremental = Svqa::build(head, &mvqa.kg, SvqaConfig::default());
        let before_vertices = incremental.merged_graph().vertex_count();
        let links = incremental.add_images(tail);
        assert!(links > 0);
        assert!(incremental.merged_graph().vertex_count() > before_vertices);
        assert_eq!(incremental.build_stats().scene_graphs, 200);
        incremental.merged_graph().validate().unwrap();

        // Answers over the incrementally-built graph match the batch-built
        // one (scene-graph generation is seeded per image id, so the two
        // paths see identical perception).
        let full = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
        assert_eq!(
            incremental.merged_graph().vertex_count(),
            full.merged_graph().vertex_count()
        );
        assert_eq!(
            incremental.merged_graph().edge_count(),
            full.merged_graph().edge_count()
        );
        for q in [
            "Does the dog appear in the car?",
            "How many dogs are in the car?",
        ] {
            assert_eq!(incremental.answer(q).ok(), full.answer(q).ok(), "{q}");
        }
    }

    #[test]
    fn explained_answers_cite_images() {
        let (system, _) = small_system();
        let answered = system.answer_with("Does the dog appear in the car?", None, None);
        let answer = answered.result.as_ref().unwrap().answer.clone();
        let explanation = system.explanation(&answered).unwrap();
        if answer.is_yes() {
            assert!(!explanation.cited_images().is_empty());
            assert!(explanation.fact_count() > 0);
        } else {
            assert_eq!(explanation.fact_count(), 0);
        }
    }

    #[test]
    fn answered_profiles_carry_every_stage_and_the_plan() {
        let (system, _) = small_system();
        let q = "Does the dog appear in the car?";
        let plain = system.answer(q).unwrap();
        let answered = system.answer_with(q, None, None);
        assert_eq!(answered.result.as_ref().unwrap().answer, plain);
        let profile = answered.profile().unwrap();
        assert_eq!(profile.question, q);
        let stages: Vec<&str> = profile.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, [stage::PARSE, stage::LINT, stage::MATCH]);
        assert!(!profile.quads.is_empty());
        assert!(profile.render_tree().contains("EXPLAIN ANALYZE"));
        // A question that never ran has neither a profile nor evidence.
        let failed = system.answer_with("the red dog", None, None);
        assert!(matches!(failed.result, Err(SvqaError::Parse(_))));
        assert!(failed.profile().is_none());
        assert!(system.explanation(&failed).is_none());
    }

    #[test]
    fn batch_and_single_agree() {
        let (system, _) = small_system();
        let questions = [
            "Does the dog appear in the car?",
            "How many dogs are in the car?",
        ];
        let batch = system.answer_batch(&questions);
        for (q, b) in questions.iter().zip(&batch.answers) {
            let single = system.answer(q).unwrap();
            assert_eq!(b.as_ref().unwrap(), &single);
        }
        assert!(batch.total > Duration::ZERO);
        assert_eq!(batch.status, AnswerStatus::Full);
    }

    fn questions(mvqa: &Mvqa) -> Vec<&str> {
        mvqa.questions.iter().map(|q| q.question.as_str()).collect()
    }

    #[test]
    fn run_returns_answers_in_original_order() {
        let (system, _) = small_system();
        // The frequency ordering runs the two shared dog questions before
        // the unique cat question; answers still come back as submitted.
        let questions = [
            "Does the cat appear in the car?",
            "Does the dog appear in the car?",
            "Does the dog appear in the car?",
        ];
        let graphs: Vec<QueryGraph> = questions.iter().map(|q| system.parse(q).unwrap()).collect();
        assert_eq!(*QueryScheduler::order(&graphs).last().unwrap(), 0);
        let cache = QueryScheduler::new(system.config().scheduler).build_cache();
        let batch = system.answer_batch_cached(&questions, &cache);
        assert_eq!(batch.answers.len(), questions.len());
        for (q, b) in questions.iter().zip(&batch.answers) {
            assert_eq!(b.as_ref().unwrap(), &system.answer(q).unwrap(), "{q}");
        }
        assert!(batch.total >= batch.per_query.iter().copied().max().unwrap_or_default());
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        let (system, _) = small_system();
        let question = "Does the dog appear in the car?";
        let cache = QueryScheduler::new(system.config().scheduler).build_cache();
        let batch = system.answer_batch_cached(&[question; 3], &cache);
        // Path hits short-circuit the whole query stage (scope lookups are
        // skipped entirely on a hit), so repeats register as path hits.
        let ph = batch.cache_stats.path_hits;
        assert!(ph >= 2, "path hits = {ph}");
        assert_eq!(batch.traces[0].cache.path_hits, 0);
        assert!(batch.traces[1].cache.path_hits > 0 && batch.traces[2].cache.path_hits > 0);
    }

    /// A caller-owned cache persists across batches: the second identical
    /// batch is served from cache state seeded by the first, and each
    /// outcome carries only its own delta.
    #[test]
    fn shared_cache_persists_across_batches() {
        let (system, _) = small_system();
        let questions = ["Does the dog appear in the car?"];
        let cache = QueryScheduler::new(system.config().scheduler).build_cache();
        let first = system.answer_batch_cached(&questions, &cache);
        assert_eq!(first.cache_stats.path_hits, 0);
        assert!(first.cache_stats.path_misses > 0);
        let second = system.answer_batch_cached(&questions, &cache);
        assert!(
            second.cache_stats.path_hits > 0,
            "second batch must hit the persistent cache: {:?}",
            second.cache_stats
        );
        assert_eq!(second.cache_stats.path_misses, 0);
        assert_eq!(first.answers, second.answers);
    }

    #[test]
    fn empty_batch() {
        let (system, _) = small_system();
        let cache = QueryScheduler::new(system.config().scheduler).build_cache();
        let batch = system.answer_batch_cached(&[], &cache);
        assert!(batch.answers.is_empty() && batch.traces.is_empty());
        assert_eq!(batch.cache_stats, CacheStats::default());
        assert_eq!(batch.status, AnswerStatus::Full);
    }

    /// Each trace carries its question's exact cache traffic, so the traces
    /// add up to the batch's total.
    #[test]
    fn batch_cache_stats_are_the_sum_of_per_question_deltas() {
        let (system, mvqa) = small_system();
        let batch = system.answer_batch(&questions(&mvqa));
        let mut summed = CacheStats::default();
        for trace in &batch.traces {
            summed.merge(&trace.cache);
        }
        assert_eq!(summed, batch.cache_stats);
        // The fresh-cache traffic of this world's question set, pinned.
        let expected = CacheStats {
            scope_hits: 130,
            scope_misses: 47,
            path_hits: 60,
            path_misses: 50,
        };
        assert_eq!(batch.cache_stats, expected);
    }

    /// A batch executes with the system's executor configuration, exactly
    /// as a single question does — here one far from the default.
    #[test]
    fn batch_answers_like_single_questions_under_a_custom_executor() {
        let mvqa = Mvqa::generate_small(250, 11);
        let mut config = SvqaConfig::default();
        config.executor.embed_threshold = 0.99;
        config.executor.min_predicate_similarity = 0.99;
        let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
        let questions = questions(&mvqa);
        let batch = system.answer_batch(&questions);
        for (q, b) in questions.iter().zip(&batch.answers) {
            assert_eq!(b, &system.answer(q), "{q}");
        }
    }
}
