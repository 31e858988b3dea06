//! The end-to-end SVQA pipeline (Fig. 2 of the paper).

use crate::config::SvqaConfig;
use crate::degrade::{
    execute_with_retry, filter_view, probe_source, AnswerStatus, Breakers, GuardedAnswer,
    ProbeOutcome,
};
use crate::error::SvqaError;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use svqa_fault::{BreakerState, Source};
use svqa_aggregator::DataAggregator;
use svqa_executor::cache::ShardedCache;
use svqa_executor::executor::{QueryGraphExecutor, Run};
use svqa_executor::scheduler::QueryScheduler;
use svqa_executor::{Answer, CacheStats, ExecutionProfile, Explanation};
use svqa_graph::Graph;
use svqa_qlint::{LintReport, Linter, Schema, Severity};
use svqa_qparser::{QueryGraph, QueryGraphGenerator};
use svqa_telemetry::{counter, global, stage, QueryOutcome, QueryTrace, Span};
use svqa_vision::prior::PairPrior;
use svqa_vision::scene::SyntheticImage;
use svqa_vision::sgg::SceneGraphGenerator;

/// Offline build statistics.
#[derive(Debug, Clone)]
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
    /// Cache hit/miss counters accumulated over the batch.
    pub cache_stats: CacheStats,
    /// Per-question telemetry traces (original order).
    pub traces: Vec<QueryTrace>,
    /// How complete the evidence behind the batch's answers was: a batch
    /// probes its sources once. When every source is down, each question
    /// that parsed and linted fails with [`SvqaError::Unavailable`] and the
    /// status lists every source as missing.
    pub status: AnswerStatus,
}

/// A question parsed and linted: the first half of every answer path, and
/// what [`Svqa::answer_prepared`] runs.
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

impl Prepared {
    /// Parse `question` with `generator` and lint the query graph with
    /// `linter` (recording the `lint` span and counters), timing both
    /// stages. [`Svqa::prepare`] is this over the system's own parser and
    /// linter; tools holding only a loaded graph build their own.
    pub fn new(question: &str, generator: &QueryGraphGenerator, linter: &Linter) -> Prepared {
        let mut trace = QueryTrace::new(question);
        let t0 = Instant::now();
        let parsed = generator.generate(question);
        trace.record_stage(stage::PARSE, t0.elapsed());
        let query = match parsed {
            Err(e) => {
                trace.outcome = QueryOutcome::ParseError;
                Err(SvqaError::from(e))
            }
            Ok(gq) => {
                let t1 = Instant::now();
                let report = lint_counted(linter, &gq);
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
        let linter = Linter::new(Schema::extract(&merged.graph));
        let breakers = Breakers::new(&config.degrade);
        Svqa {
            config,
            merged: merged.graph,
            generator: QueryGraphGenerator::new(),
            build_stats,
            sgg,
            kg_vertex_count: kg.vertex_count(),
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
    /// start a fresh [`svqa_executor::cache::ShardedCache`] afterwards —
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
        self.linter = Linter::new(Schema::extract(&self.merged));
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
        lint_counted(&self.linter, gq)
    }

    /// The first half of every answer path: parse and lint `question`,
    /// timing both stages.
    pub fn prepare(&self, question: &str) -> Prepared {
        Prepared::new(question, &self.generator, &self.linter)
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
        cache: Option<&ShardedCache>,
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
        cache: Option<&ShardedCache>,
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
        cache: Option<&ShardedCache>,
        deadline: Option<Instant>,
    ) -> Answered {
        let Prepared { query, mut trace } = prepared;
        let (query, executed) = match query {
            Err(e) => (None, Err(e)),
            Ok(query) => {
                let executed = self.execute_guarded(&query.0, cache, deadline, &mut trace);
                if executed.is_err() {
                    trace.outcome = QueryOutcome::ExecError;
                }
                (Some(query), executed)
            }
        };
        let (result, run, missing) = match executed {
            Ok((guarded, run, missing)) => (Ok(guarded), Some(run), missing),
            Err(e) => (Err(e), None, None),
        };
        count_outcome(&result);
        if result.as_ref().is_ok_and(|g| g.status.is_degraded()) {
            global().incr_counter(counter::ANSWERS_DEGRADED);
        }
        Answered {
            result,
            trace,
            run,
            query,
            missing,
        }
    }

    /// Probe the sources, then run `gq` with retries over the evidence that
    /// is up. Records the `match` stage (and cache traffic) on `trace`.
    fn execute_guarded(
        &self,
        gq: &QueryGraph,
        cache: Option<&ShardedCache>,
        deadline: Option<Instant>,
        trace: &mut QueryTrace,
    ) -> Result<(GuardedAnswer, Run, Option<Source>), SvqaError> {
        let (status, missing) = self.probe(deadline)?;
        let cache = if missing.is_none() { cache } else { None };
        let before = cache.map(ShardedCache::stats);
        let executor = QueryGraphExecutor::with_config(self.view(missing), self.config.executor);
        let t0 = Instant::now();
        let first = executor.run(gq, cache);
        let executed = execute_with_retry(&self.config.degrade.retry, deadline, first, || {
            executor.run(gq, cache)
        });
        trace.record_stage(stage::MATCH, t0.elapsed());
        if let (Some(c), Some(before)) = (cache, before) {
            trace.cache = c.stats().delta_since(&before);
        }
        let run = executed?;
        let guarded = GuardedAnswer {
            answer: run.answer.clone(),
            status,
        };
        Ok((guarded, run, missing))
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
    /// order, shared key-centric cache, optional parallelism). Each call
    /// starts from a cold cache; long-lived callers (the query server)
    /// should hold a [`ShardedCache`] and use
    /// [`answer_batch_with`](Self::answer_batch_with) so hits carry over
    /// between batches.
    pub fn answer_batch(&self, questions: &[&str]) -> BatchOutcome {
        let cache = QueryScheduler::new(self.config.scheduler).build_cache();
        self.answer_batch_with(questions, &cache, None)
    }

    /// [`answer_batch`](Self::answer_batch) against a caller-provided
    /// persistent cache, with no deadline.
    pub fn answer_batch_cached(&self, questions: &[&str], cache: &ShardedCache) -> BatchOutcome {
        self.answer_batch_with(questions, cache, None)
    }

    /// The batch path: [`prepare`](Self::prepare) every question, probe
    /// the sources once for the whole batch (as
    /// [`answer_prepared`](Self::answer_prepared) does per question), then
    /// run the prepared query graphs through the scheduler over the
    /// evidence that is up. Scopes and paths cached by earlier requests in
    /// `cache` accelerate this batch; a degraded batch runs over the
    /// surviving view with a throwaway cache. `deadline` bounds the probe
    /// and the retries of injected execution faults.
    pub fn answer_batch_with(
        &self,
        questions: &[&str],
        cache: &ShardedCache,
        deadline: Option<Instant>,
    ) -> BatchOutcome {
        let start = Instant::now();
        let mut answers: Vec<Option<Result<Answer, SvqaError>>> =
            Vec::with_capacity(questions.len());
        let mut traces: Vec<QueryTrace> = Vec::with_capacity(questions.len());
        let mut per_query: Vec<Duration> = Vec::with_capacity(questions.len());
        // Original indices and query graphs of the questions that may run.
        let mut runnable: Vec<usize> = Vec::new();
        let mut graphs: Vec<QueryGraph> = Vec::new();
        for (i, question) in questions.iter().enumerate() {
            let Prepared { query, trace } = self.prepare(question);
            per_query.push(trace.total());
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
                    let graph = self.view(missing);
                    let scheduler = QueryScheduler::new(self.config.scheduler);
                    let throwaway;
                    let cache = if missing.is_none() {
                        cache
                    } else {
                        throwaway = scheduler.build_cache();
                        &throwaway
                    };
                    // The linter's cardinality estimates are join-order
                    // hints: ties in the frequency ordering break toward
                    // cheaper plans.
                    let hints: Vec<f64> =
                        graphs.iter().map(|g| self.linter.cost(g).total).collect();
                    let report =
                        scheduler.run_with_cache_hinted(graph, &graphs, cache, Some(&hints));
                    // Injected execution faults are retried one question at
                    // a time, on an executor built only if one happens.
                    let mut retrier = None;
                    let retry = &self.config.degrade.retry;
                    for ((&i, gq), (first, dt)) in runnable
                        .iter()
                        .zip(&graphs)
                        .zip(report.answers.into_iter().zip(report.per_query))
                    {
                        let answer = execute_with_retry(retry, deadline, first, || {
                            retrier
                                .get_or_insert_with(|| {
                                    QueryGraphExecutor::with_config(graph, self.config.executor)
                                })
                                .run(gq, Some(cache))
                                .map(|run| run.answer)
                        });
                        if answer.is_err() {
                            traces[i].outcome = QueryOutcome::ExecError;
                        } else if probed.is_degraded() {
                            global().incr_counter(counter::ANSWERS_DEGRADED);
                        }
                        traces[i].record_stage(stage::MATCH, dt);
                        per_query[i] += dt;
                        answers[i] = Some(answer.map_err(SvqaError::from));
                    }
                    report.cache_stats.record_to(global());
                    // The cache is shared across the batch, so per-question
                    // attribution is an even split (documented as
                    // approximate on `QueryTrace`).
                    let executed = runnable.len() as u64;
                    let share = CacheStats {
                        scope_hits: report.cache_stats.scope_hits / executed,
                        scope_misses: report.cache_stats.scope_misses / executed,
                        path_hits: report.cache_stats.path_hits / executed,
                        path_misses: report.cache_stats.path_misses / executed,
                    };
                    for &i in &runnable {
                        traces[i].cache = share;
                    }
                    cache_stats = report.cache_stats;
                    status = probed;
                }
            }
        }
        let answers: Vec<Result<Answer, SvqaError>> = answers
            .into_iter()
            .map(|a| a.expect("all questions accounted for"))
            .collect();
        for a in &answers {
            count_outcome(a);
        }
        BatchOutcome {
            answers,
            total: start.elapsed(),
            per_query,
            cache_stats,
            traces,
            status,
        }
    }
}

/// Lint `gq`, recording the `lint` stage span and bumping the lint
/// counters.
fn lint_counted(linter: &Linter, gq: &QueryGraph) -> LintReport {
    let _span = Span::enter(stage::LINT);
    let report = linter.lint(gq);
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

/// Bump the global answered/failed counters for a finished question.
fn count_outcome<T>(result: &Result<T, SvqaError>) {
    match result {
        Ok(_) => global().incr_counter(counter::QUESTIONS_ANSWERED),
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
}
