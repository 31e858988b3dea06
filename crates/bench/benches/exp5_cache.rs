//! Exp-5 (Figs. 10–11) bench: the key-centric cache.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use svqa::executor::cache::{CacheGranularity, EvictionPolicy};
use svqa::executor::scheduler::{QueryScheduler, SchedulerConfig};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

fn bench_exp5(c: &mut Criterion) {
    let mvqa = Mvqa::generate_small(500, 21);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    let mut bench = |name: String, scheduler: QueryScheduler| {
        c.bench_function(&name, |b| {
            b.iter(|| {
                let cache = scheduler.build_cache();
                black_box(system.answer_batch_cached(&questions, &cache).answers.len())
            })
        });
    };

    // Fig. 10a/10b: granularities.
    for (label, g) in [
        ("none", CacheGranularity::None),
        ("scope", CacheGranularity::Scope),
        ("path", CacheGranularity::Path),
        ("both", CacheGranularity::Both),
    ] {
        let scheduler = QueryScheduler::new(SchedulerConfig {
            granularity: g,
            pool_size: 100,
            ..SchedulerConfig::default()
        });
        bench(format!("exp5/batch_cache_{label}"), scheduler);
    }

    // Fig. 11: policy × pool size.
    for policy in [EvictionPolicy::Lfu, EvictionPolicy::Lru] {
        for pool in [10usize, 100] {
            let scheduler = QueryScheduler::new(SchedulerConfig {
                policy,
                pool_size: pool,
                ..SchedulerConfig::default()
            });
            bench(format!("exp5/pool_{policy:?}_{pool}"), scheduler);
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_exp5
}
criterion_main!(benches);
