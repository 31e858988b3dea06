//! Ablation benches for the design choices DESIGN.md calls out:
//! frequency-sorted vs FIFO scheduling and Algorithm 1's subgraph-cache
//! thresholds.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use svqa::aggregator::{AggregatorConfig, DataAggregator};
use svqa::vision::prior::PairPrior;
use svqa::vision::sgg::{SceneGraphGenerator, SggConfig};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::{build_knowledge_graph, Mvqa};

fn bench_ablations(c: &mut Criterion) {
    let mvqa = Mvqa::generate_small(500, 21);
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();

    // Scheduler ordering ablation: the same world, answered in frequency
    // order and in submission order.
    for (label, sort) in [("freq_sorted", true), ("fifo", false)] {
        let mut config = SvqaConfig::default();
        config.scheduler.frequency_sort = sort;
        let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
        c.bench_function(&format!("ablation/scheduler_{label}"), |b| {
            b.iter(|| black_box(system.answer_batch(&questions).answers.len()))
        });
    }

    // Algorithm 1 thresholds (c' frequency threshold, k radius).
    let kg = build_knowledge_graph();
    let prior = PairPrior::fit(&mvqa.images);
    let sgg = SceneGraphGenerator::new(SggConfig::default(), prior);
    let scene_graphs: Vec<_> = mvqa
        .images
        .iter()
        .take(300)
        .map(|i| sgg.generate(i).graph)
        .collect();
    for (label, c_threshold, k) in [
        ("paper_c5_k2", 5usize, 2usize),
        ("no_cache_c_huge", usize::MAX / 2, 2),
        ("deep_c5_k4", 5, 4),
    ] {
        let aggregator = DataAggregator::new(AggregatorConfig {
            frequency_threshold: c_threshold,
            k,
            ..AggregatorConfig::default()
        });
        c.bench_function(&format!("ablation/aggregator_{label}"), |b| {
            b.iter(|| black_box(aggregator.merge(&scene_graphs, &kg).graph.edge_count()))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
