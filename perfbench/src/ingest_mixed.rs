//! `ingest-mixed`: build a 1,000-image world, then absorb 1,000 more images
//! through `Svqa::add_images` in writes of 10. Each write is followed by a
//! read: a 20-question batch through `Svqa::answer_batch_cached` with a
//! fresh cache (the new evidence makes cached scopes stale).
//!
//! Writes re-run scene-graph generation, absorb, linking and
//! `Schema::extract`; a change that makes reads faster by precomputing
//! per-graph tables pays for it here, on every write.
//!
//! An untraced run's cycles go round the same independent worlds as
//! `batch-cold`'s, so that its figures do not hinge on one world.

use crate::batch_cold::{check, world_seed, WORLDS};
use crate::layers::{self, secs, Counts, IMAGES_PER_WRITE};
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
use svqa::executor::CacheStats;
use svqa::Svqa;

/// All images of the run; the first [`BASE`] form the initial world. The
/// questions come from all of them, so reads also ask about evidence that
/// has not arrived yet, and the pool is the one `batch-cold` answers.
pub const SHAPE: Shape = Shape {
    images: 2000,
    question_images: 2000,
};
pub const BASE: usize = 1000;
/// Questions per read.
pub const READ: usize = 20;
/// Rounds per `answer_qps` sample (100 images written, 200 questions read).
const ROUNDS_PER_SAMPLE: usize = 10;

/// Questions answered per second of round time (writes included), one
/// value per [`ROUNDS_PER_SAMPLE`] consecutive rounds.
fn qps_samples(round_ms: &[f64]) -> Vec<f64> {
    round_ms
        .chunks_exact(ROUNDS_PER_SAMPLE)
        .map(|w| (w.len() * READ) as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect()
}

/// One cycle: a fresh set-up, then every write and its read.
struct Cycle {
    /// Which of the run's worlds it grew.
    world: usize,
    setup_s: f64,
    /// Write plus read, ms, per round.
    round_ms: Vec<f64>,
    cache: CacheStats,
    entries: Vec<f64>,
    attempted: u64,
    ok: u64,
    /// Whether its rounds ran with call spans (traced run only).
    traced: bool,
}

/// Run one cycle on the run's `world`-th world; returns it with the grown
/// system and its inputs.
fn cycle(args: &Args, world: usize, t: &Tracer, out: &mut Outcome) -> (Cycle, Svqa, Mvqa) {
    let setup = t.phase("setup");
    let calls = t.set_calls(true);
    let t0 = Instant::now();
    let seed = world_seed(args.seed, world);
    let mvqa = world::dataset(seed, SHAPE, t);
    let mut system = world::build(&mvqa.images[..BASE], &mvqa.kg, t);
    let setup_s = secs(t0);
    t.set_calls(calls);
    drop(setup);

    let _p = t.phase("measure.cycle");
    let pool = world::texts(&mvqa);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    SplitMix::new(derive(seed, 0x1a9e)).shuffle(&mut order);
    let scheduler = QueryScheduler::new(system.config().scheduler);
    let mut c = Cycle {
        world,
        setup_s,
        round_ms: Vec::new(),
        cache: CacheStats::default(),
        entries: Vec::new(),
        attempted: 0,
        ok: 0,
        traced: false,
    };
    let mut next = 0;
    for chunk in mvqa.images[BASE..].chunks(IMAGES_PER_WRITE) {
        let picked: Vec<usize> = (0..READ).map(|j| order[(next + j) % order.len()]).collect();
        next += READ;
        let questions: Vec<&str> = picked.iter().map(|&i| pool[i]).collect();
        let t0 = Instant::now();
        {
            let _s = t.call("core.add_images");
            system.add_images(chunk);
        }
        let (outcome, cache) = {
            let _s = t.call("core.answer_batch");
            let cache = scheduler.build_cache();
            (system.answer_batch_cached(&questions, &cache), cache)
        };
        c.round_ms.push(secs(t0) * 1e3);
        c.cache.merge(&outcome.cache_stats);
        c.entries.push(cache.len() as f64);
        // The write succeeded if it returned; each read answer must match
        // the single-question path on the same grown world.
        c.attempted += 1 + READ as u64;
        c.ok += 1;
        let _check = t.phase("check.reference");
        for (q, got) in questions.iter().zip(&outcome.answers) {
            if check(got, &system.answer(q), q, out) {
                c.ok += 1;
            }
        }
    }
    (c, system, mvqa)
}

/// After a world's first cycle: the grown world must answer the whole pool like
/// a world built from all its images at once, and its answers give the
/// accuracy against ground truth over all of them.
fn final_checks(system: &Svqa, mvqa: &Mvqa, t: &Tracer, out: &mut Outcome) -> f64 {
    let _p = t.phase("check.final");
    let pool = world::texts(mvqa);
    let rebuilt = Svqa::build(&mvqa.images, &mvqa.kg, system.config().clone());
    let grown = system.answer_batch(&pool);
    let mut preds = Vec::with_capacity(pool.len());
    for (q, got) in pool.iter().zip(&grown.answers) {
        check(got, &rebuilt.answer(q), q, out);
        preds.push(got.as_ref().ok().and_then(to_predicted));
    }
    mvqa.score_answers(&preds).3
}

/// A statistic of the untraced run: taken per cycle, picked from each
/// world's cycles by `fast_end` ([`fast_rate`] or [`fast_time`]), and
/// averaged over the worlds.
fn over_worlds(cycles: &[Cycle], stat: impl Fn(&Cycle) -> f64, fast_end: fn(&[f64]) -> f64) -> f64 {
    let per_world: Vec<f64> = (0..WORLDS)
        .map(|w| {
            let values: Vec<f64> = cycles.iter().filter(|c| c.world == w).map(&stat).collect();
            fast_end(&values)
        })
        .collect();
    mean(&per_world)
}

pub fn run(args: &Args, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seconds = args.seconds as f64;
    let mut cycles_s = 0.0;
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut grown = None;
    let mut accuracy = Vec::new();
    // An untraced run cycles through its worlds until its cycles have
    // taken `seconds` (the checks after a world's first cycle do not
    // count), and at least once through every world. A traced run grows
    // only the first world, alternating untraced and traced cycles (so that
    // neither side gets all of the process's cold start) until `seconds`
    // have passed in cycles, with at least one of each.
    loop {
        let enough = if t.enabled() {
            cycles.iter().any(|c| c.traced)
        } else {
            cycles.len() >= WORLDS
        };
        if enough && cycles_s >= seconds {
            break;
        }
        let traced = t.enabled() && cycles.len() % 2 == 1;
        let world = if t.enabled() {
            0
        } else {
            cycles.len() % WORLDS
        };
        // Free the previous cycle's world before building the next one.
        drop(grown.take());
        t.set_calls(traced);
        let t0 = Instant::now();
        let (mut c, system, mvqa) = cycle(args, world, t, &mut out);
        cycles_s += secs(t0);
        t.set_calls(false);
        c.traced = traced;
        if cycles.iter().all(|c| c.world != world) {
            accuracy.push(final_checks(&system, &mvqa, t, &mut out));
        }
        out.attempted += c.attempted;
        cycles.push(c);
        grown = Some((system, mvqa));
    }
    let round_ms: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.round_ms.iter().copied())
        .collect();
    let ok: u64 = cycles.iter().map(|c| c.ok).sum();
    let attempted: u64 = cycles.iter().map(|c| c.attempted).sum();
    out.note("cycles", json!(cycles.len()));
    out.note("rounds", json!(round_ms.len()));
    let (system, mvqa) = grown.expect("at least one cycle");
    out.note("pool_questions", json!(mvqa.questions.len()));

    if t.enabled() {
        let qps_of = |traced: bool| {
            let rounds: Vec<f64> = cycles
                .iter()
                .filter(|c| c.traced == traced)
                .flat_map(|c| c.round_ms.iter().copied())
                .collect();
            median(&qps_samples(&rounds))
        };
        let mut c = Counts {
            setups: cycles.len() as u64,
            merged_vertices: system.build_stats().merged_vertices as u64,
            merged_edges: system.build_stats().merged_edges as u64,
            trace_overhead: qps_of(true) / qps_of(false),
            ..Counts::default()
        };
        for cycle in cycles.iter().filter(|c| c.traced) {
            c.cache.merge(&cycle.cache);
            c.cache_entries.extend(&cycle.entries);
        }
        layers::finish_traced(system, &mvqa, READ, args.seed, t, c, &mut out);
    } else {
        let setup_s: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
        let m = &mut out.metrics;
        m.put("setup_s", median(&setup_s), "s");
        m.put(
            "answer_qps",
            over_worlds(&cycles, |c| median(&qps_samples(&c.round_ms)), fast_rate),
            "1/s",
        );
        m.put(
            "request_p50_ms",
            over_worlds(&cycles, |c| quantile(&c.round_ms, 0.5), fast_time),
            "ms",
        );
        m.put(
            "request_p95_ms",
            over_worlds(&cycles, |c| quantile(&c.round_ms, 0.95), fast_time),
            "ms",
        );
        m.put("ok_share", ok as f64 / attempted as f64, "ratio");
        m.put("accuracy", mean(&accuracy), "ratio");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    out
}
