//! World building: the generated inputs (images, knowledge graph, question
//! pool with ground truth) and the assembled system.

use crate::stats::derive;
use crate::trace::Tracer;
use svqa::aggregator::DataAggregator;
use svqa::dataset::questions::{generate_questions, QuestionCounts};
use svqa::dataset::{build_knowledge_graph, generate_images, GroundTruth, Mvqa, MvqaConfig};
use svqa::graph::Graph;
use svqa::qlint::Schema;
use svqa::vision::scene::SyntheticImage;
use svqa::vision::{PairPrior, SceneGraphGenerator};
use svqa::{Svqa, SvqaConfig};

/// Questions are generated per slice of this many images. One MVQA
/// question set (~100 questions) per slice gives every workload a pool of
/// several hundred questions, so its figures do not hinge on the handful of
/// expensive questions one small set happens to contain.
pub const SLICE_IMAGES: usize = 250;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Shape of a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Images generated from the seed.
    pub images: usize,
    /// Questions come from the slices of the first `question_images`.
    pub question_images: usize,
}

/// Generate the inputs: images and knowledge graph, a question pool with
/// one MVQA question set per image slice, and ground truth re-evaluated
/// over the whole world (every image, not only the question's slice).
pub fn dataset(seed: u64, shape: Shape, t: &Tracer) -> Mvqa {
    let images = {
        let _s = t.call("dataset.images");
        generate_images(shape.images, seed)
    };
    let kg = build_knowledge_graph();
    let mut questions = Vec::new();
    let mut specs = Vec::new();
    for (k, slice) in images[..shape.question_images]
        .chunks(SLICE_IMAGES)
        .enumerate()
    {
        let _s = t.call("dataset.questions");
        let (q, s) = generate_questions(
            slice,
            &kg,
            derive(seed, k as u64 + 1),
            QuestionCounts::default(),
        );
        questions.extend(q);
        specs.extend(s);
    }
    {
        let _s = t.call("dataset.ground_truth");
        let gt = GroundTruth::new(&images, &kg);
        for (q, s) in questions.iter_mut().zip(&specs) {
            q.answer = gt.eval(&s.chain, &s.links, s.qtype, s.answer_side);
        }
    }
    Mvqa {
        images,
        kg,
        questions,
        specs,
        config: MvqaConfig {
            image_count: shape.images,
            seed,
            counts: QuestionCounts::default(),
        },
    }
}

/// Assemble the system over `images`. In the traced run the offline
/// phase's layers are first called one by one through their public
/// functions, each under its own span, and then `Svqa::build` runs them
/// again as a whole.
pub fn build(images: &[SyntheticImage], kg: &Graph, t: &Tracer) -> Svqa {
    let config = SvqaConfig::default();
    if t.enabled() {
        let prior = {
            let _s = t.call("vision.prior_fit");
            PairPrior::fit(images)
        };
        let sgg = SceneGraphGenerator::new(config.sgg.clone(), prior);
        let graphs: Vec<Graph> = images
            .iter()
            .map(|image| {
                let _s = t.call("vision.sgg");
                sgg.generate(image).graph
            })
            .collect();
        let merged = {
            let _s = t.call("aggregator.merge");
            DataAggregator::new(config.aggregator.clone()).merge(&graphs, kg)
        };
        let _schema = {
            let _s = t.call("qlint.schema_extract");
            Schema::extract(&merged.graph)
        };
    }
    let _s = t.call("core.build");
    Svqa::build(images, kg, config)
}

/// What must come out identical from every set-up of one seed.
pub fn fingerprint(mvqa: &Mvqa, system: &Svqa) -> (usize, usize, usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for q in &mvqa.questions {
        for b in q.question.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let stats = system.build_stats();
    (
        mvqa.questions.len(),
        stats.merged_vertices,
        stats.merged_edges,
        hash,
    )
}

/// Question texts of the pool.
pub fn texts(mvqa: &Mvqa) -> Vec<&str> {
    mvqa.questions.iter().map(|q| q.question.as_str()).collect()
}
