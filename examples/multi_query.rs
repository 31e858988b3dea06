//! Multi-query scheduling and key-centric caching — the paper's Figure 6.
//!
//! Runs a batch of questions through the §V-B optimized scheduler and
//! prints the frequency-sorted execution order, cache statistics, and the
//! latency difference against an uncached run.
//!
//! ```text
//! cargo run -p svqa --example multi_query --release
//! ```

use svqa::executor::cache::KeyCentricCache;
use svqa::executor::scheduler::QueryScheduler;
use svqa::qparser::QueryGraphGenerator;
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

fn main() {
    println!("building a 1,500-image world...");
    let mvqa = Mvqa::generate_small(1500, 42);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());

    // A batch with deliberately shared SPOC vertices (Fig. 6's premise).
    let questions: Vec<&str> = mvqa
        .questions
        .iter()
        .map(|q| q.question.as_str())
        .collect();

    let generator = QueryGraphGenerator::new();
    let graphs: Vec<_> = questions
        .iter()
        .filter_map(|q| generator.generate(q).ok())
        .collect();
    println!("parsed {} of {} questions", graphs.len(), questions.len());

    // The frequency-ratio ordering.
    let order = QueryScheduler::order(&graphs);
    println!(
        "scheduler order (first 10 of {}): {:?}",
        order.len(),
        &order[..order.len().min(10)]
    );

    // Uncached vs cached, both in the scheduler's order.
    let plain = system.answer_batch_cached(&questions, &KeyCentricCache::disabled());
    let cached = system.answer_batch(&questions);
    let (t_plain, t_cached) = (plain.total, cached.total);
    let stats = cached.cache_stats;
    println!("\nno cache:                      {t_plain:?}");
    println!("key-centric cache + schedule:  {t_cached:?}");
    println!(
        "reduction: {:.1}%  (paper reports ≈48.9%)",
        (1.0 - t_cached.as_secs_f64() / t_plain.as_secs_f64()) * 100.0
    );
    println!(
        "cache stats: scope {} hits / {} misses, path {} hits / {} misses ({:.0}% hit overall)",
        stats.scope_hits,
        stats.scope_misses,
        stats.path_hits,
        stats.path_misses,
        stats.hit_rate() * 100.0
    );
}
