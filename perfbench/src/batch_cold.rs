//! `batch-cold`: independent 2,000-image worlds whose question pools are
//! answered over and over through `Svqa::answer_batch_cached`, in batches
//! of 100 with a fresh scheduler cache each (exactly what
//! `Svqa::answer_batch` does; the benchmark builds the cache itself so that
//! it can read its size).
//!
//! Matching dominates here, and caching only helps within a batch.

use crate::layers::{self, secs, Counts};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{derive, fast_rate, fast_time, mean, median, quantile, SplitMix};
use crate::trace::Tracer;
use crate::world::{self, Shape};
use crate::Args;
use serde_json::json;
use std::time::Instant;
use svqa::dataset::Mvqa;
use svqa::eval::to_predicted;
use svqa::executor::scheduler::QueryScheduler;
use svqa::executor::{Answer, CacheStats};
use svqa::{Svqa, SvqaError};

pub const SHAPE: Shape = Shape {
    images: 2000,
    question_images: 2000,
};
pub const BATCH: usize = 100;
/// Worlds per run. How fast one 2,000-image world answers its pool depends
/// on its seed (its quartiles lie about 11% apart over ten seeds); a run
/// over three independent worlds halves that.
pub const WORLDS: usize = 3;

/// The seed of a run's `k`-th world; the first is the run's own seed.
pub fn world_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        derive(seed, 0xc01d_0000 + k as u64)
    }
}

/// One world of the run, with the answers its batches must reproduce.
struct World {
    mvqa: Mvqa,
    system: Svqa,
    refs: References,
}

/// What the answering phase observed. A pass answers every world's pool
/// once; each statistic is taken per pass and reported from the fast end
/// of the passes ([`fast_rate`], [`fast_time`]).
#[derive(Default)]
struct Measured {
    /// Questions per second of answering time, one value per pass.
    pass_qps: Vec<f64>,
    /// Median and 95th percentile of a pass's batch latencies, ms.
    pass_p50_ms: Vec<f64>,
    pass_p95_ms: Vec<f64>,
    batches: usize,
    /// The first pass's answers, per world in pool order.
    first_pass: Vec<Vec<Option<Answer>>>,
    attempted: u64,
    ok: u64,
    cache: CacheStats,
    entries: Vec<f64>,
}

/// The answers a batch must reproduce: the single-question path's.
type References = Vec<Result<Answer, SvqaError>>;

/// Check one batch answer against its reference. Returns whether it is an
/// answer (`Ok`, and equal to the reference); an error is accepted only
/// where the reference failed the same way (the generated set's parse
/// failures).
pub fn check(
    got: &Result<Answer, SvqaError>,
    want: &Result<Answer, SvqaError>,
    question: &str,
    out: &mut Outcome,
) -> bool {
    match (got, want) {
        (Ok(a), Ok(r)) if a == r => true,
        (Err(e), Err(r)) if std::mem::discriminant(e) == std::mem::discriminant(r) => false,
        _ => {
            out.failed += 1;
            out.problem(format!("{question:?}: got {got:?}, expected {want:?}"));
            false
        }
    }
}

/// Answer every pool question once per pass, world after world, each in a
/// fresh seeded order and in batches of [`BATCH`], until `seconds` have
/// passed.
fn measure(
    worlds: &[World],
    seconds: f64,
    rng: &mut SplitMix,
    t: &Tracer,
    out: &mut Outcome,
) -> Measured {
    let pools: Vec<Vec<&str>> = worlds.iter().map(|w| world::texts(&w.mvqa)).collect();
    let questions_per_pass: usize = pools.iter().map(Vec::len).sum();
    let mut m = Measured {
        first_pass: pools.iter().map(|p| vec![None; p.len()]).collect(),
        ..Measured::default()
    };
    let scheduler = QueryScheduler::new(worlds[0].system.config().scheduler);
    let mut orders: Vec<Vec<usize>> = pools.iter().map(|p| (0..p.len()).collect()).collect();
    let start = Instant::now();
    let mut first = true;
    while first || secs(start) < seconds {
        let mut answering_s = 0.0;
        let mut batch_ms = Vec::new();
        for (w, world) in worlds.iter().enumerate() {
            let (pool, order) = (&pools[w], &mut orders[w]);
            rng.shuffle(order);
            for chunk in order.chunks(BATCH) {
                let questions: Vec<&str> = chunk.iter().map(|&i| pool[i]).collect();
                let t0 = Instant::now();
                let (outcome, cache) = {
                    let _s = t.call("core.answer_batch");
                    let cache = scheduler.build_cache();
                    (world.system.answer_batch_cached(&questions, &cache), cache)
                };
                let dt = secs(t0);
                answering_s += dt;
                batch_ms.push(dt * 1e3);
                m.cache.merge(&outcome.cache_stats);
                m.entries.push(cache.len() as f64);
                for (&i, got) in chunk.iter().zip(&outcome.answers) {
                    m.attempted += 1;
                    if check(got, &world.refs[i], pool[i], out) {
                        m.ok += 1;
                    }
                    if first {
                        m.first_pass[w][i] = got.as_ref().ok().cloned();
                    }
                }
            }
        }
        m.pass_qps.push(questions_per_pass as f64 / answering_s);
        m.pass_p50_ms.push(quantile(&batch_ms, 0.5));
        m.pass_p95_ms.push(quantile(&batch_ms, 0.95));
        m.batches += batch_ms.len();
        first = false;
    }
    m
}

/// Build the run's worlds. Their reference answers are filled in after
/// set-up, so that `setup_s` does not include them.
fn set_up(seed: u64, t: &Tracer) -> Vec<World> {
    (0..WORLDS)
        .map(|k| {
            let mvqa = world::dataset(world_seed(seed, k), SHAPE, t);
            let system = world::build(&mvqa.images, &mvqa.kg, t);
            World {
                mvqa,
                system,
                refs: Vec::new(),
            }
        })
        .collect()
}

pub fn run(args: &Args, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let setups = if t.enabled() { 1 } else { world::SETUPS };
    let mut setup_s = Vec::new();
    let mut prints = Vec::new();
    let mut built = Vec::new();
    for _ in 0..setups {
        built.clear();
        let _p = t.phase("setup");
        let calls = t.set_calls(true);
        let t0 = Instant::now();
        built = set_up(args.seed, t);
        setup_s.push(secs(t0));
        t.set_calls(calls);
        let print: Vec<_> = built
            .iter()
            .map(|w| world::fingerprint(&w.mvqa, &w.system))
            .collect();
        prints.push(print);
    }
    let mut worlds = built;
    if prints.windows(2).any(|w| w[0] != w[1]) {
        out.problem(format!("set-ups of one seed differ: {prints:?}"));
    }
    {
        let _p = t.phase("check.reference");
        for w in &mut worlds {
            let refs = world::texts(&w.mvqa)
                .iter()
                .map(|q| w.system.answer(q))
                .collect();
            w.refs = refs;
        }
    }
    let mut rng = SplitMix::new(derive(args.seed, 0xba7c));
    let seconds = args.seconds as f64;

    let mut untraced_qps = f64::NAN;
    let measured = if t.enabled() {
        let untraced = {
            let _p = t.phase("measure.untraced");
            measure(&worlds, seconds / 2.0, &mut rng, t, &mut out)
        };
        let _p = t.phase("measure.traced");
        t.set_calls(true);
        let traced = measure(&worlds, seconds / 2.0, &mut rng, t, &mut out);
        t.set_calls(false);
        untraced_qps = fast_rate(&untraced.pass_qps);
        out.attempted += untraced.attempted;
        traced
    } else {
        let _p = t.phase("measure");
        measure(&worlds, seconds, &mut rng, t, &mut out)
    };
    out.attempted += measured.attempted;

    let accuracy = mean(
        &worlds
            .iter()
            .zip(&measured.first_pass)
            .map(|(w, answers)| {
                let preds: Vec<_> = answers
                    .iter()
                    .map(|a| a.as_ref().and_then(to_predicted))
                    .collect();
                w.mvqa.score_answers(&preds).3
            })
            .collect::<Vec<_>>(),
    );
    out.note("worlds", json!(worlds.len()));
    out.note(
        "questions",
        json!(worlds.iter().map(|w| w.refs.len()).collect::<Vec<_>>()),
    );
    let pass_qps: Vec<i64> = measured.pass_qps.iter().map(|q| q.round() as i64).collect();
    out.note("pass_qps", json!(pass_qps));
    out.note("batches", json!(measured.batches));
    out.note("setups", json!(setup_s.len()));
    out.note(
        "expected_failures_per_pass",
        json!(worlds
            .iter()
            .flat_map(|w| &w.refs)
            .filter(|r| r.is_err())
            .count()),
    );

    if t.enabled() {
        // The layers are replayed over the first world, whose seed is the
        // run's own.
        let World { mvqa, system, .. } = worlds.swap_remove(0);
        drop(worlds);
        let c = Counts {
            setups: WORLDS as u64,
            merged_vertices: system.build_stats().merged_vertices as u64,
            merged_edges: system.build_stats().merged_edges as u64,
            cache: measured.cache,
            cache_entries: measured.entries.clone(),
            trace_overhead: fast_rate(&measured.pass_qps) / untraced_qps,
            ..Counts::default()
        };
        layers::ingest_probe(&mvqa, t);
        layers::finish_traced(system, &mvqa, BATCH, args.seed, t, c, &mut out);
    } else {
        let m = &mut out.metrics;
        m.put("setup_s", median(&setup_s), "s");
        m.put("answer_qps", fast_rate(&measured.pass_qps), "1/s");
        m.put("request_p50_ms", fast_time(&measured.pass_p50_ms), "ms");
        m.put("request_p95_ms", fast_time(&measured.pass_p95_ms), "ms");
        m.put(
            "ok_share",
            measured.ok as f64 / measured.attempted as f64,
            "ratio",
        );
        m.put("accuracy", accuracy, "ratio");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    out
}
