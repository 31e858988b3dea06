//! Failure-injection tests: the pipeline must degrade, not panic, when a
//! subsystem is crippled.

use svqa::vision::detector::DetectorConfig;
use svqa::{evaluate_on_mvqa, Svqa, SvqaConfig};
use svqa_dataset::Mvqa;
use svqa_graph::Graph;

fn mvqa() -> Mvqa {
    Mvqa::generate_small(250, 77)
}

#[test]
fn blind_detector_degrades_gracefully() {
    // detect_prob = 0: no scene evidence at all. Every judgment becomes
    // "No", counting 0, reasoning Unknown — and nothing panics.
    let mvqa = mvqa();
    let mut config = SvqaConfig::default();
    config.sgg.detector = DetectorConfig {
        detect_prob: 0.0,
        spurious_rate: 0.0,
        ..DetectorConfig::default()
    };
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let outcome = evaluate_on_mvqa(&system, &mvqa.questions);
    // Only all-No judgments can score.
    assert_eq!(outcome.counting, 0.0, "{outcome:?}");
    assert_eq!(outcome.reasoning, 0.0, "{outcome:?}");
    for q in mvqa.questions.iter().take(10) {
        let _ = system.answer(&q.question); // must not panic
    }
}

#[test]
fn maximal_label_confusion_still_executes() {
    let mvqa = mvqa();
    let mut config = SvqaConfig::default();
    config.sgg.detector.confusion_prob = 1.0;
    let system = Svqa::build(&mvqa.images, &mvqa.kg, config);
    for q in mvqa.questions.iter().take(20) {
        let _ = system.answer(&q.question);
    }
    let outcome = evaluate_on_mvqa(&system, &mvqa.questions);
    // Accuracy collapses versus the healthy pipeline but stays a valid
    // fraction.
    assert!((0.0..=1.0).contains(&outcome.overall));
}

#[test]
fn empty_knowledge_graph_kills_kg_questions_only() {
    let mvqa = mvqa();
    let empty_kg = Graph::new();
    let system = Svqa::build(&mvqa.images, &empty_kg, SvqaConfig::default());
    system.merged_graph().validate().unwrap();
    // Knowledge-dependent question: no taxonomy, no girlfriend facts.
    let a = system
        .answer("How many wizards are near Harry Potter's girlfriend?")
        .unwrap();
    assert_eq!(a, svqa::Answer::Count(0));
    // A purely visual question still works (exact labels need no
    // taxonomy).
    let visual = system.answer("Does the dog appear in the car?");
    assert!(visual.is_ok());
}

#[test]
fn extreme_jitter_hurts_but_does_not_break() {
    let mvqa = mvqa();
    let mut config = SvqaConfig::default();
    config.sgg.detector.bbox_jitter = 0.9;
    let healthy = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let jittery = Svqa::build(&mvqa.images, &mvqa.kg, config);
    let h = evaluate_on_mvqa(&healthy, &mvqa.questions);
    let j = evaluate_on_mvqa(&jittery, &mvqa.questions);
    assert!(
        j.overall <= h.overall + 0.05,
        "jitter should not help: healthy {} vs jittery {}",
        h.overall,
        j.overall
    );
}

#[test]
fn empty_image_set_is_knowledge_only() {
    let mvqa = mvqa();
    let system = Svqa::build(&[], &mvqa.kg, SvqaConfig::default());
    // Knowledge-graph queries still answer.
    let a = system
        .answer("How many wizards are near Harry Potter's girlfriend?")
        .unwrap();
    assert_eq!(a, svqa::Answer::Count(0)); // no co-appearance evidence
    // The merged graph is exactly the KG.
    assert_eq!(
        system.merged_graph().vertex_count(),
        mvqa.kg.vertex_count()
    );
}

#[test]
fn tiny_cache_pool_never_corrupts_answers() {
    use svqa::executor::cache::{CacheGranularity, EvictionPolicy, KeyCentricCache};

    let mvqa = mvqa();
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let questions: Vec<&str> = mvqa
        .questions
        .iter()
        .take(30)
        .map(|q| q.question.as_str())
        .collect();
    let baseline = system.answer_batch_cached(&questions, &KeyCentricCache::disabled());
    // A pathological pool of 1 item thrashes constantly but must stay
    // correct.
    let tiny = KeyCentricCache::new(CacheGranularity::Both, EvictionPolicy::Lfu, 1);
    let thrashing = system.answer_batch_cached(&questions, &tiny);
    assert!(thrashing.cache_stats.total_lookups() > 0);
    assert_eq!(baseline.answers, thrashing.answers);
}
