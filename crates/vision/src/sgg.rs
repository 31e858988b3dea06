//! Scene-graph generation end-to-end (§III-A) with the Table V model zoo.
//!
//! `G_sg(I) = (V_sg, E_sg)`: detections become vertices; per ordered pair,
//! the relation model produces scores (Original = Eq. (1) argmax,
//! TDE = Eq. (3) argmax) and pairs above threshold become edges.

use crate::detector::{Detection, Detector, DetectorConfig};
use crate::eval::RelationPrediction;
use crate::prior::PairPrior;
use crate::relation::{RelationModelParams, RelationPredictor, RELATION_VOCAB};
use crate::scene::SyntheticImage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use svqa_graph::{Graph, Properties, VertexId};

/// The SGG frameworks compared in Table V, as parameterisations of the
/// simulated relation model. Ordered weakest → strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SggModel {
    /// Zhang et al. 2017: translation-embedding model — weakest geometry.
    VTransE,
    /// Tang et al. 2019: dynamic tree composition.
    VCTree,
    /// Zellers et al. 2018: the paper's default (MOTIFNET).
    NeuralMotifs,
}

impl SggModel {
    /// All three models, in Table V order.
    pub const ALL: [SggModel; 3] = [SggModel::VTransE, SggModel::VCTree, SggModel::NeuralMotifs];

    /// Display name as printed in Table V.
    pub fn name(self) -> &'static str {
        match self {
            SggModel::VTransE => "VTransE",
            SggModel::VCTree => "VCTree",
            SggModel::NeuralMotifs => "Neural-Motifs",
        }
    }

    /// Relation-model parameters for this framework. `prior_weight` is the
    /// shared training bias; fidelity/noise encode each model's geometry
    /// reading quality, calibrated so Neural-Motifs > VCTree > VTransE on
    /// mR@K (Table V).
    pub fn params(self) -> RelationModelParams {
        match self {
            SggModel::VTransE => RelationModelParams {
                fidelity: 0.65,
                prior_weight: 1.3,
                noise: 0.14,
            },
            SggModel::VCTree => RelationModelParams {
                fidelity: 0.95,
                prior_weight: 1.25,
                noise: 0.08,
            },
            SggModel::NeuralMotifs => RelationModelParams {
                fidelity: 1.10,
                prior_weight: 1.2,
                noise: 0.06,
            },
        }
    }
}

/// Configuration of a scene-graph generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SggConfig {
    /// Which relation framework to use.
    pub model: SggModel,
    /// Whether to apply TDE debiasing (Eq. (3)) — the Original/TDE split of
    /// Table V.
    pub use_tde: bool,
    /// Detector channel parameters.
    pub detector: DetectorConfig,
    /// Minimum score for a pair to yield an edge.
    pub edge_threshold: f64,
    /// Base seed; each image derives its own stream from `seed ^ image id`.
    pub seed: u64,
}

impl Default for SggConfig {
    fn default() -> Self {
        SggConfig {
            model: SggModel::NeuralMotifs,
            use_tde: true,
            detector: DetectorConfig::default(),
            edge_threshold: 0.35,
            seed: 0x5eed,
        }
    }
}

/// The generated scene graph plus evaluation bookkeeping.
#[derive(Debug, Clone)]
pub struct SceneGraphOutput {
    /// The scene graph `G_sg(I)` (vertex props carry `image` and bbox;
    /// edge props carry `score`).
    pub graph: Graph,
    /// The detections backing each vertex, aligned with vertex ids.
    pub detections: Vec<Detection>,
    /// Vertex ids aligned with `detections`.
    pub vertex_ids: Vec<VertexId>,
    /// All scored pair predictions (for mR@K), sorted descending by score.
    pub predictions: Vec<RelationPrediction>,
}

/// The scene-graph generator: detector + relation model + edge selection.
pub struct SceneGraphGenerator {
    config: SggConfig,
    detector: Detector,
    predictor: RelationPredictor,
}

impl SceneGraphGenerator {
    /// Build a generator; `prior` is the fitted training bias (use
    /// [`PairPrior::fit`] on the image corpus).
    pub fn new(config: SggConfig, prior: PairPrior) -> Self {
        let detector = Detector::new(config.detector.clone());
        let predictor = RelationPredictor::new(config.model.params(), prior);
        SceneGraphGenerator {
            config,
            detector,
            predictor,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SggConfig {
        &self.config
    }

    /// The relation model's fitted prior.
    pub fn prior(&self) -> &PairPrior {
        self.predictor.prior()
    }

    /// Generate the scene graph of one image.
    pub fn generate(&self, image: &SyntheticImage) -> SceneGraphOutput {
        let _span = svqa_telemetry::Span::enter(svqa_telemetry::stage::SGG);
        // Fault-plan gate, one draw per image. Generation is infallible, so
        // `Error` degrades to an empty scene graph (the image yields
        // nothing); `CorruptLabel` scrambles every edge predicate.
        let fault = svqa_fault::draw(svqa_fault::site::SGG_GENERATE);
        match fault {
            Some(svqa_fault::FaultKind::Error | svqa_fault::FaultKind::DropResult) => {
                return SceneGraphOutput {
                    graph: Graph::new(),
                    detections: Vec::new(),
                    vertex_ids: Vec::new(),
                    predictions: Vec::new(),
                };
            }
            Some(svqa_fault::FaultKind::Latency(ms)) => {
                svqa_fault::apply_latency(ms, None);
            }
            Some(svqa_fault::FaultKind::CorruptLabel) | None => {}
        }
        let corrupt_edges = fault == Some(svqa_fault::FaultKind::CorruptLabel);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ u64::from(image.id));
        let detections = self.detector.detect(image, &mut rng);

        let mut graph = Graph::with_capacity(detections.len(), detections.len() * 2);
        let mut vertex_ids = Vec::with_capacity(detections.len());
        for d in &detections {
            let props: Properties = [
                ("image", svqa_graph::PropValue::Int(i64::from(image.id))),
                ("x", svqa_graph::PropValue::Float(d.bbox.x)),
                ("y", svqa_graph::PropValue::Float(d.bbox.y)),
                ("w", svqa_graph::PropValue::Float(d.bbox.w)),
                ("h", svqa_graph::PropValue::Float(d.bbox.h)),
            ]
            .into_iter()
            .collect();
            vertex_ids.push(graph.add_vertex_with_props(d.label.clone(), props));
        }

        // Predictions rank every (ordered pair, predicate) triplet — the
        // standard SGG evaluation protocol behind mR@K. Graph edges keep
        // only the per-pair argmax above threshold (the relational matrix
        // of Eq. (3)).
        let mut predictions = Vec::new();
        let mut edges: Vec<(usize, usize, usize, f64)> = Vec::new();
        for i in 0..detections.len() {
            for j in 0..detections.len() {
                if i == j {
                    continue;
                }
                let scores = if self.config.use_tde {
                    self.predictor
                        .tde_scores(&detections[i], &detections[j], &mut rng)
                } else {
                    self.predictor
                        .original_scores(&detections[i], &detections[j], &mut rng)
                };
                let mut best = 0usize;
                for (r, &score) in scores.iter().enumerate() {
                    predictions.push(RelationPrediction {
                        sub: i,
                        obj: j,
                        relation: r,
                        score,
                    });
                    if score > scores[best] {
                        best = r;
                    }
                }
                if scores[best] >= self.config.edge_threshold {
                    edges.push((i, j, best, scores[best]));
                }
            }
        }
        predictions.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));

        for (i, j, relation, score) in edges {
            let mut props = Properties::new();
            props.set("score", score);
            let relation = if corrupt_edges {
                (relation + 1) % RELATION_VOCAB.len()
            } else {
                relation
            };
            graph
                .add_edge_with_props(
                    vertex_ids[i],
                    vertex_ids[j],
                    RELATION_VOCAB[relation],
                    props,
                )
                .expect("vertices exist");
        }

        SceneGraphOutput {
            graph,
            detections,
            vertex_ids,
            predictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneBuilder;

    fn frisbee_scene() -> SyntheticImage {
        // Figure 3's scene: a dog jumping over grass to catch a frisbee, a
        // man watching from behind a fence.
        let mut rng = StdRng::seed_from_u64(33);
        let mut b = SceneBuilder::new(1, &mut rng);
        let dog = b.add_object("dog");
        let grass = b.add_object("grass");
        let man = b.add_object("man");
        let frisbee = b.add_object("frisbee");
        b.relate(dog, "jumping over", grass);
        b.relate(man, "behind", dog);
        b.relate(dog, "holding", frisbee);
        b.build()
    }

    fn noiseless_config(use_tde: bool) -> SggConfig {
        SggConfig {
            use_tde,
            detector: DetectorConfig {
                detect_prob: 1.0,
                confusion_prob: 0.0,
                bbox_jitter: 0.0,
                spurious_rate: 0.0,
            },
            ..SggConfig::default()
        }
    }

    #[test]
    fn scene_graph_has_vertex_per_detection() {
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(noiseless_config(true), PairPrior::uniform());
        let out = gen.generate(&img);
        assert_eq!(out.graph.vertex_count(), 4);
        assert_eq!(out.detections.len(), 4);
        assert_eq!(out.vertex_ids.len(), 4);
        let labels: Vec<_> = out.graph.vertices().map(|(_, v)| v.label()).collect();
        for l in ["dog", "grass", "man", "frisbee"] {
            assert!(labels.contains(&l), "{l} missing from {labels:?}");
        }
    }

    #[test]
    fn predictions_cover_all_ordered_pairs_sorted() {
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(noiseless_config(true), PairPrior::uniform());
        let out = gen.generate(&img);
        assert_eq!(out.predictions.len(), 4 * 3 * RELATION_VOCAB.len());
        for w in out.predictions.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn edges_carry_scores_and_respect_threshold() {
        let img = frisbee_scene();
        let mut cfg = noiseless_config(true);
        cfg.edge_threshold = 0.2;
        let gen = SceneGraphGenerator::new(cfg, PairPrior::uniform());
        let out = gen.generate(&img);
        for (_, e) in out.graph.edges() {
            let score = e.props().get("score").and_then(|p| p.as_float()).unwrap();
            assert!(score >= 0.2);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let img = frisbee_scene();
        let gen = SceneGraphGenerator::new(SggConfig::default(), PairPrior::uniform());
        let a = gen.generate(&img);
        let b = gen.generate(&img);
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.predictions.len(), b.predictions.len());
        for (x, y) in a.predictions.iter().zip(&b.predictions) {
            assert_eq!(x.relation, y.relation);
            assert!((x.score - y.score).abs() < 1e-12);
        }
    }

    #[test]
    fn model_zoo_parameters_are_ordered() {
        let v = SggModel::VTransE.params();
        let c = SggModel::VCTree.params();
        let m = SggModel::NeuralMotifs.params();
        assert!(v.fidelity < c.fidelity && c.fidelity < m.fidelity);
        assert!(v.noise > c.noise && c.noise > m.noise);
        assert_eq!(SggModel::NeuralMotifs.name(), "Neural-Motifs");
    }

    #[test]
    fn tde_mode_differs_from_original() {
        // With a biased prior the two modes must produce different edges at
        // least sometimes.
        let mut rng = StdRng::seed_from_u64(55);
        let mut train = Vec::new();
        for i in 0..30 {
            let mut b = SceneBuilder::new(i + 100, &mut rng);
            let d = b.add_object("dog");
            let g = b.add_object("grass");
            b.relate(d, "near", g);
            train.push(b.build());
        }
        let prior = PairPrior::fit(&train);
        let img = frisbee_scene();
        let orig = SceneGraphGenerator::new(noiseless_config(false), prior.clone()).generate(&img);
        let tde = SceneGraphGenerator::new(noiseless_config(true), prior).generate(&img);
        let rels = |out: &SceneGraphOutput| {
            out.predictions
                .iter()
                .map(|p| p.relation)
                .collect::<Vec<_>>()
        };
        assert_ne!(rels(&orig), rels(&tde));
    }
}
