//! `svqa-cli` — build, persist, query and evaluate SVQA worlds from the
//! command line.
//!
//! ```text
//! svqa-cli build --images 1000 --seed 7 --out world/     # offline phase
//! svqa-cli ask   --world world/ "How many dogs are in the car?"
//! svqa-cli ask   --world world/ --explain --trace-out t.json "…"
//! svqa-cli explain --world world/ "How many dogs are in the car?"
//! svqa-cli eval  --world world/                          # Table-III style report
//! svqa-cli eval  --images 200 --metrics out.json         # in-process build + metrics dump
//! svqa-cli repl  --images 500 --verbose                  # interactive loop with traces
//! svqa-cli stats --images 200                            # build stats + telemetry summary
//! svqa-cli serve --images 200 --port 7878                # query service + live metrics
//! svqa-cli chaos --images 120 --rates 0,0.2,0.5          # accuracy under KG faults
//! ```
//!
//! `--metrics <file.json>` (on `ask` and `eval`) writes the process-global
//! telemetry snapshot — per-stage latency histograms with p50/p95/p99,
//! counters, and cache hit rates — as pretty-printed JSON.
//!
//! `explain` (or `ask --explain`) prints the `EXPLAIN ANALYZE` plan tree:
//! per-quadruple candidate counts through each pruning step, cache
//! hit/miss/bypass classification, edges scanned, and wall times.
//! `--trace-out FILE` writes a Chrome trace-event file (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>); `--profile-out FILE`
//! writes the machine-readable profile JSON. `ask`, `explain` and
//! `eval --world` run over the loaded snapshot with the library's
//! `Prepared` parse-and-lint stage and one executor run per question.
//!
//! `serve` answers `POST /ask` and `/batch` over a world built in process
//! and exposes the live registry on the same port: `/metrics` (Prometheus
//! text format), `/metrics.json`, and the profiles of the last answered
//! `/ask` requests at `/profiles/recent`.
//!
//! The world directory holds the merged graph as a binary snapshot
//! (`merged.svqg`, see `svqa_graph::binio`) plus the generated questions
//! with their ground truth (`questions.json`) — everything the online
//! phase needs, without regenerating scenes.

use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use svqa::dataset::mvqa::{Mvqa, MvqaConfig};
use svqa::dataset::questions::{QaPair, QuestionCounts};
use svqa::executor::executor::{QueryGraphExecutor, Run};
use svqa::executor::{ExecutionProfile, Explanation};
use svqa::graph::Graph;
use svqa::qlint::{LintReport, Linter, Schema};
use svqa::qparser::{QueryGraph, QueryGraphGenerator};
use svqa::telemetry::{ChromeTrace, QueryTrace};
use svqa::{Prepared, Svqa, SvqaConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("ask") => cmd_ask(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage: svqa-cli <build|ask|explain|lint|eval|repl|stats|serve|chaos> \
                 [--images N] [--seed S] [--out DIR] [--world DIR] [--metrics FILE] \
                 [--corpus FILE] [--explain] [--json] [--trace-out FILE] [--profile-out FILE] \
                 [--port N] [--workers N] [--queue-depth N] [--deadline-ms N] \
                 [--cache-pool N] [--cache-shards N] [--fault-plan FILE] [--fault-seed S] \
                 [--rates R1,R2,...] [--verbose] [question]"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Flags that consume the following argument as their value. Anything else
/// starting with `--` is a boolean switch (`--explain`, `--verbose`, …).
const VALUE_FLAGS: [&str; 17] = [
    "--images",
    "--seed",
    "--out",
    "--world",
    "--metrics",
    "--corpus",
    "--trace-out",
    "--profile-out",
    "--port",
    "--workers",
    "--queue-depth",
    "--deadline-ms",
    "--cache-pool",
    "--cache-shards",
    "--fault-plan",
    "--fault-seed",
    "--rates",
];

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn positional(args: &[String]) -> Option<String> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = VALUE_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a.clone());
    }
    None
}

fn build_world(images: usize, seed: u64) -> (Svqa, Mvqa) {
    eprintln!("generating {images} images (seed {seed})...");
    let mvqa = Mvqa::generate(MvqaConfig {
        image_count: images,
        seed,
        counts: QuestionCounts::default(),
    });
    eprintln!("building the merged graph...");
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let stats = system.build_stats();
    eprintln!(
        "merged graph: {} vertices, {} edges",
        stats.merged_vertices, stats.merged_edges
    );
    (system, mvqa)
}

fn cmd_build(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(1000), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let out = PathBuf::from(flag(args, "--out").unwrap_or_else(|| "world".to_owned()));
    std::fs::create_dir_all(&out)?;

    let (system, mvqa) = build_world(images, seed);
    std::fs::write(
        out.join("merged.svqg"),
        svqa::graph::binio::to_bytes(system.merged_graph()),
    )?;
    std::fs::write(
        out.join("questions.json"),
        serde_json::to_string_pretty(&mvqa.questions)?,
    )?;
    std::fs::write(
        out.join("meta.json"),
        serde_json::to_string_pretty(&serde_json::json!({
            "images": images,
            "seed": seed,
            "config": system.config().summary(),
        }))?,
    )?;
    println!("world written to {}", out.display());
    Ok(())
}

fn load_world(dir: &Path) -> Result<(Graph, Vec<QaPair>), AnyError> {
    let snapshot = std::fs::read(dir.join("merged.svqg"))?;
    let graph = svqa::graph::binio::from_bytes(snapshot.into())?;
    let questions: Vec<QaPair> =
        serde_json::from_str(&std::fs::read_to_string(dir.join("questions.json"))?)?;
    Ok((graph, questions))
}

/// One question answered over a loaded world.
struct WorldAnswer {
    query: QueryGraph,
    lint: LintReport,
    trace: QueryTrace,
    run: Run,
}

impl WorldAnswer {
    fn profile(&self) -> ExecutionProfile {
        ExecutionProfile::assemble(&self.query, &self.run, &self.trace, &self.lint.diagnostics)
    }
}

/// Prepare (parse + lint) and run one question over a loaded world graph,
/// counting the outcome. A loaded snapshot has no breakers to guard.
fn answer_over(graph: &Graph, question: &str) -> Result<WorldAnswer, AnyError> {
    let linter = Linter::new(Schema::extract(graph));
    let Prepared { query, trace } = Prepared::new(question, &QueryGraphGenerator::new(), &linter);
    let result = query.map_err(AnyError::from).and_then(|(query, lint)| {
        let run = QueryGraphExecutor::new(graph).run(&query, None)?;
        Ok(WorldAnswer {
            query,
            lint,
            trace,
            run,
        })
    });
    let counter = match result {
        Ok(_) => svqa::telemetry::counter::QUESTIONS_ANSWERED,
        Err(_) => svqa::telemetry::counter::QUESTIONS_FAILED,
    };
    svqa::telemetry::global().incr_counter(counter);
    result
}

/// Print the query graph, lint findings, answer and its evidence.
fn print_answer(graph: &Graph, answered: &WorldAnswer) {
    println!("query graph ({:?}):", answered.query.question_type);
    for (i, v) in answered.query.vertices.iter().enumerate() {
        println!("  v{i}: {}", v.display());
    }
    for d in &answered.lint.diagnostics {
        println!("lint: {d}");
    }
    println!("answer: {}", answered.run.answer);
    let explanation = Explanation::from_aps(graph, &answered.run.aps);
    let support = explanation.answer_support();
    if !support.is_empty() {
        println!("evidence ({} facts):", support.len());
        for fact in support.iter().take(8) {
            println!("  {}", fact.display());
        }
        if support.len() > 8 {
            println!("  ... and {} more", support.len() - 8);
        }
    }
}

/// Write the process-global telemetry snapshot as pretty JSON, if asked.
fn write_metrics(path: Option<&str>) -> Result<(), AnyError> {
    if let Some(path) = path {
        std::fs::write(path, svqa::telemetry::global().snapshot().to_json_pretty())?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// Honour `--trace-out` / `--profile-out` for a profiled run.
fn write_profile_outputs(args: &[String], profile: &ExecutionProfile) -> Result<(), AnyError> {
    if let Some(path) = flag(args, "--trace-out") {
        let trace = ChromeTrace::from_query_traces(&[profile.query_trace()]);
        std::fs::write(&path, trace.to_json())?;
        eprintln!("chrome trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = flag(args, "--profile-out") {
        std::fs::write(&path, profile.to_json_pretty())?;
        eprintln!("profile written to {path}");
    }
    Ok(())
}

fn cmd_ask(args: &[String]) -> Result<(), AnyError> {
    let world = PathBuf::from(flag(args, "--world").unwrap_or_else(|| "world".to_owned()));
    let metrics = flag(args, "--metrics");
    let explain = args.iter().any(|a| a == "--explain");
    let wants_profile =
        explain || flag(args, "--trace-out").is_some() || flag(args, "--profile-out").is_some();
    let question = positional(args).ok_or("no question given")?;
    let (graph, _) = load_world(&world)?;
    let outcome = answer_over(&graph, &question).and_then(|answered| {
        if !wants_profile {
            print_answer(&graph, &answered);
            return Ok(());
        }
        let profile = answered.profile();
        println!("answer: {}", answered.run.answer);
        if explain {
            print!("{}", profile.render_tree());
        }
        write_profile_outputs(args, &profile)
    });
    write_metrics(metrics.as_deref())?;
    outcome
}

/// `explain` — `EXPLAIN ANALYZE` for one question: print the plan tree
/// (or the JSON profile with `--json`) without the evidence listing.
fn cmd_explain(args: &[String]) -> Result<(), AnyError> {
    let world = PathBuf::from(flag(args, "--world").unwrap_or_else(|| "world".to_owned()));
    let question = positional(args).ok_or("no question given")?;
    let (graph, _) = load_world(&world)?;
    let profile = answer_over(&graph, &question)?.profile();
    if args.iter().any(|a| a == "--json") {
        println!("{}", profile.to_json_pretty());
    } else {
        print!("{}", profile.render_tree());
    }
    write_profile_outputs(args, &profile)
}

/// `lint` — static analysis of query graphs without executing them: one
/// question (positional) or a whole corpus (`--corpus questions.json`).
/// Prints every diagnostic (or a JSON report with `--json`) and exits
/// nonzero iff any question produced an `Error`-severity diagnostic — the
/// CI gate for "the bundled corpus stays statically clean". Questions the
/// parser rejects are reported but do not fail the gate: parse coverage
/// is the parser's business, not the linter's.
fn cmd_lint(args: &[String]) -> Result<(), AnyError> {
    let world = PathBuf::from(flag(args, "--world").unwrap_or_else(|| "world".to_owned()));
    let json = args.iter().any(|a| a == "--json");
    let (graph, _) = load_world(&world)?;
    let linter = svqa::qlint::Linter::new(svqa::qlint::Schema::extract(&graph));
    let generator = QueryGraphGenerator::new();

    let questions: Vec<String> = match flag(args, "--corpus") {
        Some(path) => {
            let pairs: Vec<QaPair> = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
            pairs.into_iter().map(|p| p.question).collect()
        }
        None => vec![positional(args).ok_or("no question or --corpus FILE given")?],
    };

    let (mut errors, mut warnings, mut hints, mut parse_failures) = (0usize, 0usize, 0usize, 0usize);
    let mut reports = Vec::with_capacity(questions.len());
    for question in &questions {
        match generator.generate(question) {
            Err(e) => {
                parse_failures += 1;
                if !json {
                    println!("{question}\n  parse failed: {e}");
                }
                reports.push(serde_json::json!({
                    "question": question,
                    "parse_error": e.to_string(),
                }));
            }
            Ok(gq) => {
                let report = linter.lint(&gq);
                errors += report.errors().count();
                for d in &report.diagnostics {
                    match d.severity {
                        svqa::qlint::Severity::Warning => warnings += 1,
                        svqa::qlint::Severity::Hint => hints += 1,
                        svqa::qlint::Severity::Error => {}
                    }
                }
                if !json && !report.is_clean() {
                    println!("{question}");
                    for d in &report.diagnostics {
                        println!("  {d}");
                    }
                }
                reports.push(serde_json::json!({
                    "question": question,
                    "diagnostics": report.diagnostics,
                }));
            }
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({
                "questions": reports,
                "errors": errors,
                "warnings": warnings,
                "hints": hints,
                "parse_failures": parse_failures,
            }))?
        );
    } else {
        println!(
            "linted {} question(s): {errors} errors, {warnings} warnings, \
             {hints} hints, {parse_failures} parse failures",
            questions.len()
        );
    }
    if errors > 0 {
        return Err(format!("{errors} error-severity diagnostic(s)").into());
    }
    Ok(())
}

/// `serve` — build a world in process and run the query service on it:
/// `POST /ask` and `/batch` behind a worker pool with admission control
/// and per-request deadlines, plus `/healthz`, `/shutdown`, and the
/// metrics routes, all on one port. Returns after a graceful drain.
fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(200), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let port: u16 = flag(args, "--port").map_or(Ok(7878), |s| s.parse())?;

    let mut serve_config = svqa::ServeConfig::default();
    if let Some(w) = flag(args, "--workers") {
        serve_config.workers = w.parse()?;
    }
    if let Some(d) = flag(args, "--queue-depth") {
        serve_config.queue_depth = d.parse()?;
    }
    if let Some(ms) = flag(args, "--deadline-ms") {
        serve_config.default_deadline = std::time::Duration::from_millis(ms.parse()?);
    }
    let mut config = SvqaConfig::default();
    if let Some(p) = flag(args, "--cache-pool") {
        config.scheduler.pool_size = p.parse()?;
    }
    if let Some(s) = flag(args, "--cache-shards") {
        config.scheduler.shards = s.parse()?;
    }

    eprintln!("generating {images} images (seed {seed})...");
    let mvqa = Mvqa::generate(MvqaConfig {
        image_count: images,
        seed,
        counts: QuestionCounts::default(),
    });
    eprintln!("building the merged graph...");
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    // Arm the fault plan only after the build: chaos targets the online
    // phase, not world construction.
    let fault_guard = match flag(args, "--fault-plan") {
        Some(path) => {
            let plan = svqa::fault::FaultPlan::from_json(&std::fs::read_to_string(&path)?)?;
            eprintln!("fault plan armed from {path} (seed {})", plan.seed);
            Some(svqa::fault::install(plan))
        }
        None => None,
    };
    let server = svqa::QueryServer::bind(system, &format!("127.0.0.1:{port}"), serve_config)?;
    let addr = server.local_addr()?;
    println!("serving on http://{addr}");
    println!("  POST /ask, /batch, /shutdown");
    println!("  GET /healthz, /metrics, /metrics.json, /profiles/recent");
    server.serve()?;
    drop(fault_guard);
    println!("drained, exiting");
    Ok(())
}

/// `chaos` — measure graceful degradation: build a world once, then sweep
/// fault rates, each time installing a seeded plan that drops the
/// knowledge-graph source with the given probability and re-scoring every
/// generated question through `answer_guarded`. Writes the
/// accuracy-vs-fault-rate curve to `--out` (default
/// `results/chaos_s<fault-seed>.json`).
///
/// The same `--fault-seed` across rates makes the fault sets *nested*: a
/// question whose KG probe fails at rate r also fails at every rate above
/// r, so the degraded-question count is exactly monotone in the rate and
/// the curve is reproducible run to run. The circuit breaker is disabled
/// for the sweep (threshold `u32::MAX`) so the curve measures the pure
/// per-question policy, not wall-clock-dependent breaker dynamics.
fn cmd_chaos(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(120), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let fault_seed: u64 = flag(args, "--fault-seed").map_or(Ok(0xc4a05), |s| s.parse())?;
    let deadline_ms: u64 = flag(args, "--deadline-ms").map_or(Ok(2000), |s| s.parse())?;
    let rates: Vec<f64> = match flag(args, "--rates") {
        Some(list) => list
            .split(',')
            .map(|r| r.trim().parse())
            .collect::<Result<_, _>>()?,
        None => vec![0.0, 0.05, 0.1, 0.2, 0.35, 0.5],
    };
    let out = PathBuf::from(
        flag(args, "--out").unwrap_or_else(|| format!("results/chaos_s{fault_seed}.json")),
    );

    eprintln!("generating {images} images (seed {seed})...");
    let mvqa = Mvqa::generate(MvqaConfig {
        image_count: images,
        seed,
        counts: QuestionCounts::default(),
    });
    eprintln!("building the merged graph...");
    let mut config = SvqaConfig::default();
    config.degrade.breaker.failure_threshold = u32::MAX;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let per_question = std::time::Duration::from_millis(deadline_ms);

    let baseline = svqa::evaluate_on_mvqa_guarded(&system, &mvqa, per_question);
    println!(
        "baseline (no plan): accuracy {:.1}% over {} questions",
        baseline.overall * 100.0,
        mvqa.questions.len()
    );

    let mut points = Vec::with_capacity(rates.len());
    for &rate in &rates {
        let plan = svqa::fault::FaultPlan::new(fault_seed).with_fault(
            svqa::fault::site::SOURCE_KG,
            svqa::fault::SiteFault::new(svqa::fault::FaultKind::DropResult, rate),
        );
        let guard = svqa::fault::install(plan);
        let outcome = svqa::evaluate_on_mvqa_guarded(&system, &mvqa, per_question);
        drop(guard);
        println!(
            "rate {rate:5.2}: accuracy {:6.1}%  full {:4}  degraded {:4}  unavailable {:4}",
            outcome.overall * 100.0,
            outcome.full,
            outcome.degraded,
            outcome.unavailable
        );
        points.push(serde_json::json!({ "rate": rate, "outcome": outcome }));
    }

    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&serde_json::json!({
            "images": images,
            "seed": seed,
            "fault_seed": fault_seed,
            "fault_site": svqa::fault::site::SOURCE_KG,
            "fault_kind": "DropResult",
            "questions": mvqa.questions.len(),
            "deadline_ms": deadline_ms,
            "baseline": baseline,
            "points": points,
        }))?,
    )?;
    println!("chaos curve written to {}", out.display());
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), AnyError> {
    let metrics = flag(args, "--metrics");
    if let Some(images) = flag(args, "--images") {
        // In-process build: scene-graph generation and aggregation run
        // here, so `--metrics` captures every pipeline stage including the
        // offline ones (sgg, aggregate).
        let images: usize = images.parse()?;
        let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
        let (system, mvqa) = build_world(images, seed);
        let outcome = svqa::evaluate_on_mvqa(&system, &mvqa);
        println!("{:10} {:.1}%", "Judgment", outcome.judgment * 100.0);
        println!("{:10} {:.1}%", "Counting", outcome.counting * 100.0);
        println!("{:10} {:.1}%", "Reasoning", outcome.reasoning * 100.0);
        println!("{:10} {:.1}%", "Overall", outcome.overall * 100.0);
        println!(
            "{} questions in {:.3}s ({} parse failures)",
            mvqa.questions.len(),
            outcome.total_latency.as_secs_f64(),
            outcome.parse_failures
        );
        println!(
            "per-question latency: mean {:.1}µs, p50 {:.1}µs, p95 {:.1}µs",
            outcome.mean_latency.as_secs_f64() * 1e6,
            outcome.p50_latency.as_secs_f64() * 1e6,
            outcome.p95_latency.as_secs_f64() * 1e6
        );
    } else {
        let world = PathBuf::from(flag(args, "--world").unwrap_or_else(|| "world".to_owned()));
        let (graph, questions) = load_world(&world)?;
        eval_world(&graph, &questions);
    }
    write_metrics(metrics.as_deref())
}

/// Score a loaded world through the §V-B scheduler (shared cache +
/// frequency-sorted order, so the schedule/match spans record).
fn eval_world(graph: &Graph, questions: &[QaPair]) {
    use svqa::executor::scheduler::{QueryScheduler, SchedulerConfig};

    let generator = QueryGraphGenerator::new();
    let linter = Linter::new(Schema::extract(graph));
    let embedder = svqa::nlp::Embedder::new();
    let mut runnable: Vec<usize> = Vec::new();
    let mut graphs: Vec<QueryGraph> = Vec::new();
    for (i, q) in questions.iter().enumerate() {
        if let Ok((gq, _)) = Prepared::new(&q.question, &generator, &linter).query {
            runnable.push(i);
            graphs.push(gq);
        }
    }
    let report = QueryScheduler::new(SchedulerConfig::default()).run(graph, &graphs);
    report.cache_stats.record_to(svqa::telemetry::global());
    let mut predicted: Vec<Option<svqa::Answer>> = vec![None; questions.len()];
    for (&i, answer) in runnable.iter().zip(report.answers) {
        predicted[i] = answer.ok();
    }
    let answered = predicted.iter().flatten().count() as u64;
    let failed = questions.len() as u64 - answered;
    let recorder = svqa::telemetry::global();
    recorder.incr_counter_by(svqa::telemetry::counter::QUESTIONS_ANSWERED, answered);
    recorder.incr_counter_by(svqa::telemetry::counter::QUESTIONS_FAILED, failed);

    let mut per_type: std::collections::HashMap<&str, (usize, usize)> = Default::default();
    for (q, predicted) in questions.iter().zip(&predicted) {
        let entry = per_type.entry(q.qtype.name()).or_insert((0, 0));
        entry.1 += 1;
        let correct = match (&q.answer, predicted) {
            (svqa::dataset::GtAnswer::YesNo(g), Some(svqa::Answer::Judgment(p))) => g == p,
            (svqa::dataset::GtAnswer::Count(g), Some(svqa::Answer::Count(p))) => g == p,
            (svqa::dataset::GtAnswer::Entity(g), Some(svqa::Answer::Entity { label, .. })) => {
                g == label || embedder.similarity(g, label) >= 0.7
            }
            _ => false,
        };
        if correct {
            entry.0 += 1;
        }
    }
    let mut total = (0usize, 0usize);
    for (name, (c, n)) in &per_type {
        println!("{name:10} {c}/{n} = {:.1}%", 100.0 * *c as f64 / *n as f64);
        total.0 += c;
        total.1 += n;
    }
    println!(
        "{:10} {}/{} = {:.1}%",
        "Overall",
        total.0,
        total.1,
        100.0 * total.0 as f64 / total.1.max(1) as f64
    );
    let cache = report.cache_stats;
    println!(
        "cache: scope {}/{} path {}/{} ({:.0}% hit overall)",
        cache.scope_hits,
        cache.scope_hits + cache.scope_misses,
        cache.path_hits,
        cache.path_hits + cache.path_misses,
        cache.hit_rate() * 100.0
    );
}

/// `stats` — build (or rebuild) a world in process and print the offline
/// build statistics plus the telemetry snapshot accumulated doing it.
fn cmd_stats(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(200), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(0x4d56_5141), |s| s.parse())?;
    let (system, mvqa) = build_world(images, seed);
    let stats = system.build_stats();
    println!("build: {}", stats.summary_line());
    println!(
        "questions generated: {} ({} images, seed {seed})",
        mvqa.questions.len(),
        images
    );
    println!("{}", svqa::telemetry::global().snapshot().to_json_pretty());
    Ok(())
}

fn cmd_repl(args: &[String]) -> Result<(), AnyError> {
    let images: usize = flag(args, "--images").map_or(Ok(500), |s| s.parse())?;
    let seed: u64 = flag(args, "--seed").map_or(Ok(7), |s| s.parse())?;
    let verbose = args.iter().any(|a| a == "--verbose");
    let (system, _) = build_world(images, seed);
    // A session-lived cache so repeat questions show up as hits in the
    // per-question summaries.
    let cache = svqa::executor::ShardedCache::new(
        svqa::executor::CacheGranularity::Both,
        svqa::executor::EvictionPolicy::Lfu,
        100,
        4,
    );
    println!("ready — type a question (empty line to quit)");
    let stdin = std::io::stdin();
    loop {
        print!("svqa> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let question = line.trim();
        if question.is_empty() {
            break;
        }
        let answered = system.answer_with(question, verbose.then_some(&cache), None);
        match &answered.result {
            Ok(guarded) => println!("answer: {}", guarded.answer),
            Err(e) => println!("could not answer: {e}"),
        }
        if verbose {
            println!("  {}", answered.trace.summary_line());
        } else if let Some(explanation) = system.explanation(&answered) {
            for fact in explanation.answer_support().iter().take(5) {
                println!("  {}", fact.display());
            }
        }
    }
    Ok(())
}
