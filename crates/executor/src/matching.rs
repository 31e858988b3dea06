//! `matchVertex` and `getRelationpairs` (Algorithm 3, lines 21–26).
//!
//! `matchVertex` "uses the Levenshtein Distance to find `v ∈ V_mg` whose
//! distance is less than the empirical threshold"; for non-simple nouns it
//! falls back to the main noun and, failing that, cosine similarity of
//! embeddings. Matched vertices are then *semantically expanded*: following
//! the aggregator's `same as` link edges (scene instance ↔ knowledge
//! entity) and incoming taxonomy (`is a`) edges, so that a query about
//! "pets" reaches the scene-graph `dog` vertices through the knowledge
//! graph — the cross-source reasoning step the paper's Example 1 builds on.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use svqa_nlp::lev::levenshtein_similarity;
use svqa_nlp::Embedder;
use svqa_graph::{EdgeId, Graph, VertexId};

/// The edge label linking scene instances to knowledge entities (must match
/// the aggregator's `link_label`).
pub const SAME_AS: &str = "same as";

/// The taxonomy edge label in the knowledge graph.
pub const IS_A: &str = "is a";

/// Which rung of the `matchVertex` ladder produced a match — recorded in
/// execution profiles so `EXPLAIN ANALYZE` can say *how* a phrase reached
/// the graph, not just how many vertices it hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchMethod {
    /// Exact label match on the full phrase.
    Exact,
    /// Levenshtein similarity over distinct labels.
    Levenshtein,
    /// Exact match after falling back to the main noun.
    HeadExact,
    /// Levenshtein match on the main noun.
    HeadLevenshtein,
    /// Embedding cosine-similarity fallback.
    Embedding,
    /// Every rung failed: empty candidate set.
    #[default]
    NoMatch,
}

impl fmt::Display for MatchMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MatchMethod::Exact => "exact",
            MatchMethod::Levenshtein => "levenshtein",
            MatchMethod::HeadExact => "head-exact",
            MatchMethod::HeadLevenshtein => "head-levenshtein",
            MatchMethod::Embedding => "embedding",
            MatchMethod::NoMatch => "no-match",
        })
    }
}

/// A relation pair `(Sub, e, Obj)` — one element of `RP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelationPair {
    /// Subject-side vertex.
    pub sub: VertexId,
    /// The connecting edge.
    pub edge: EdgeId,
    /// Object-side vertex.
    pub obj: VertexId,
}

/// Vertex matching over the merged graph.
pub struct VertexMatcher<'g> {
    graph: &'g Graph,
    embedder: Embedder,
    /// Minimum Levenshtein similarity for a label match.
    pub lev_threshold: f64,
    /// Minimum cosine similarity for the embedding fallback.
    pub embed_threshold: f32,
}

impl<'g> VertexMatcher<'g> {
    /// Build a matcher over `graph` with the default thresholds.
    pub fn new(graph: &'g Graph) -> Self {
        VertexMatcher {
            graph,
            embedder: Embedder::new(),
            lev_threshold: 0.8,
            embed_threshold: 0.6,
        }
    }

    /// The embedder (shared with `maxScore` in the executor).
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// `matchVertex(label, G_mg)`: vertices whose label matches the phrase,
    /// plus which ladder rung matched them.
    ///
    /// 1. exact label match;
    /// 2. Levenshtein similarity ≥ threshold over distinct labels;
    /// 3. main-noun retry for multi-word phrases;
    /// 4. embedding cosine fallback.
    pub fn match_vertex_traced(&self, phrase: &str, head: &str) -> (Vec<VertexId>, MatchMethod) {
        let exact = self.graph.vertices_with_label(phrase);
        if !exact.is_empty() {
            return (exact.to_vec(), MatchMethod::Exact);
        }
        let by_lev = self.match_distinct_labels(|label| {
            levenshtein_similarity(label, phrase) >= self.lev_threshold
        });
        if !by_lev.is_empty() {
            return (by_lev, MatchMethod::Levenshtein);
        }
        // Non-simple noun: retry with the main noun (§V-A).
        if head != phrase && !head.is_empty() {
            let exact = self.graph.vertices_with_label(head);
            if !exact.is_empty() {
                return (exact.to_vec(), MatchMethod::HeadExact);
            }
            let by_lev = self.match_distinct_labels(|label| {
                levenshtein_similarity(label, head) >= self.lev_threshold
            });
            if !by_lev.is_empty() {
                return (by_lev, MatchMethod::HeadLevenshtein);
            }
        }
        // Embedding fallback on the head noun.
        let probe = if head.is_empty() { phrase } else { head };
        let mut best: Vec<(f32, &str)> = Vec::new();
        for (label, _) in self.graph.vertex_label_counts() {
            let sim = self.embedder.similarity(probe, label);
            if sim >= self.embed_threshold {
                best.push((sim, label));
            }
        }
        // `total_cmp` never panics (a NaN similarity is an ordinary — if
        // worthless — value, not a crash), and the label tie-break makes
        // equal-similarity candidates independent of `HashMap` iteration
        // order, so embedding-fallback results are deterministic.
        best.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        let found: Vec<VertexId> = best
            .iter()
            .flat_map(|(_, label)| self.graph.vertices_with_label(label))
            .copied()
            .collect();
        if found.is_empty() {
            (found, MatchMethod::NoMatch)
        } else {
            (found, MatchMethod::Embedding)
        }
    }

    fn match_distinct_labels(&self, pred: impl Fn(&str) -> bool) -> Vec<VertexId> {
        let mut out = Vec::new();
        for (label, _) in self.graph.vertex_label_counts() {
            if pred(label) {
                out.extend_from_slice(self.graph.vertices_with_label(label));
            }
        }
        out
    }

    /// Semantic expansion: close the set under `same as` links (both
    /// directions) and *incoming* `is a` edges (instances and subtypes of a
    /// matched concept are also matches).
    pub fn expand_semantic(&self, seed: &[VertexId]) -> Vec<VertexId> {
        let mut seen: HashSet<VertexId> = seed.iter().copied().collect();
        let mut stack: Vec<VertexId> = seed.to_vec();
        while let Some(v) = stack.pop() {
            for (_, e) in self.graph.out_edges(v) {
                if e.label() == SAME_AS && seen.insert(e.dst()) {
                    stack.push(e.dst());
                }
            }
            for (_, e) in self.graph.in_edges(v) {
                if (e.label() == SAME_AS || e.label() == IS_A) && seen.insert(e.src()) {
                    stack.push(e.src());
                }
            }
        }
        let mut out: Vec<VertexId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// `getRelations(Sub, Obj)`: the edges from any subject-side vertex to
    /// any object-side vertex (excluding structural `same as`/`is a` links),
    /// as relation pairs, plus the number of candidate edges examined (the
    /// profiling "edges scanned" figure).
    pub fn relations_between_counted(
        &self,
        subs: &[VertexId],
        objs: &[VertexId],
    ) -> (Vec<RelationPair>, usize) {
        let obj_set: HashSet<VertexId> = objs.iter().copied().collect();
        let mut pairs = Vec::new();
        let mut scanned = 0usize;
        for &s in subs {
            for (eid, e) in self.graph.out_edges(s) {
                scanned += 1;
                if e.label() == SAME_AS || e.label() == IS_A {
                    continue;
                }
                if obj_set.contains(&e.dst()) {
                    pairs.push(RelationPair {
                        sub: s,
                        edge: eid,
                        obj: e.dst(),
                    });
                }
            }
        }
        (pairs, scanned)
    }

    /// Relation pairs when one side is a wildcard: every non-structural
    /// edge incident to the constrained side, plus the number of incident
    /// edges examined.
    pub fn relations_around_counted(
        &self,
        anchors: &[VertexId],
        anchor_is_subject: bool,
    ) -> (Vec<RelationPair>, usize) {
        let mut pairs = Vec::new();
        let mut scanned = 0usize;
        for &a in anchors {
            if anchor_is_subject {
                for (eid, e) in self.graph.out_edges(a) {
                    scanned += 1;
                    if e.label() != SAME_AS && e.label() != IS_A {
                        pairs.push(RelationPair {
                            sub: a,
                            edge: eid,
                            obj: e.dst(),
                        });
                    }
                }
            } else {
                for (eid, e) in self.graph.in_edges(a) {
                    scanned += 1;
                    if e.label() != SAME_AS && e.label() != IS_A {
                        pairs.push(RelationPair {
                            sub: e.src(),
                            edge: eid,
                            obj: a,
                        });
                    }
                }
            }
        }
        (pairs, scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svqa_graph::GraphBuilder;

    /// A miniature merged graph: KG taxonomy + one scene.
    fn merged() -> Graph {
        let mut b = GraphBuilder::new();
        // Knowledge graph.
        b.triple("dog", "is a", "pet")
            .triple("cat", "is a", "pet")
            .triple("pet", "is a", "animal")
            .triple("ginny weasley", "girlfriend of", "harry potter");
        let mut g = b.build();
        // Scene instances (duplicate labels are distinct vertices).
        let scene_dog = g.add_vertex("dog");
        let scene_car = g.add_vertex("car");
        g.add_edge(scene_dog, scene_car, "in").unwrap();
        // Aggregator links.
        let kg_dog = g.vertices_with_label("dog")[0];
        g.add_edge(scene_dog, kg_dog, SAME_AS).unwrap();
        g.add_edge(kg_dog, scene_dog, SAME_AS).unwrap();
        g
    }

    #[test]
    fn exact_match() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let found = m.match_vertex_traced("dog", "dog").0;
        assert_eq!(found.len(), 2); // KG dog + scene dog
    }

    #[test]
    fn levenshtein_tolerates_typos_and_inflection() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        // "dogs" normalizes to "dog" upstream, but even the raw plural
        // passes the Levenshtein threshold (sim 0.75 < 0.8? "dogs"/"dog" =
        // 1 edit over 4 chars = 0.75) — it instead hits the embedding
        // fallback, which maps synonyms too.
        let found = m.match_vertex_traced("puppy", "puppy").0;
        assert!(!found.is_empty(), "puppy should reach dog via embeddings");
        assert!(found
            .iter()
            .all(|&v| g.vertex_label(v) == Some("dog")));
    }

    /// Regression for the NaN-unsafe, tie-unstable embedding sort: two
    /// distinct labels that embed identically ("Puppy" vs "puppy" — the
    /// embedder lowercases) tie exactly on similarity, and the order used
    /// to leak `HashMap` iteration order, which varies per `Graph`
    /// instance. With `total_cmp` + label tie-break the candidate order is
    /// identical across rebuilds.
    #[test]
    fn embedding_fallback_is_deterministic_on_ties() {
        let build = || {
            let mut g = Graph::default();
            // Force the embedding rung: nothing matches "hound" exactly or
            // within the Levenshtein threshold, but both labels live in the
            // "dog" concept cluster.
            for label in ["Puppy", "puppy", "canine", "kitten"] {
                g.add_vertex(label);
            }
            g
        };
        let mut orders: Vec<Vec<String>> = Vec::new();
        for _ in 0..8 {
            let g = build();
            let m = VertexMatcher::new(&g);
            let (found, method) = m.match_vertex_traced("hound", "hound");
            assert_eq!(method, MatchMethod::Embedding);
            assert!(found.len() >= 2, "both puppy spellings should match");
            orders.push(
                found
                    .iter()
                    .map(|&v| g.vertex_label(v).unwrap().to_owned())
                    .collect(),
            );
        }
        for order in &orders[1..] {
            assert_eq!(order, &orders[0], "candidate order must not vary");
        }
    }

    #[test]
    fn main_noun_retry() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let found = m.match_vertex_traced("kind of dog", "dog").0;
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn no_match_is_empty() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        assert!(m.match_vertex_traced("spaceship", "spaceship").0.is_empty());
    }

    #[test]
    fn expansion_reaches_instances_through_taxonomy() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        // "pet" → KG pet → (incoming is-a) dog, cat → (same as) scene dog.
        let seed = m.match_vertex_traced("pet", "pet").0;
        let expanded = m.expand_semantic(&seed);
        let labels: Vec<_> = expanded
            .iter()
            .map(|&v| g.vertex_label(v).unwrap())
            .collect();
        assert!(labels.contains(&"dog"));
        assert!(labels.contains(&"cat"));
        // Both dog vertices (KG + scene) present.
        assert_eq!(labels.iter().filter(|&&l| l == "dog").count(), 2);
    }

    #[test]
    fn relations_between_skips_structural_edges() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let dogs = m.expand_semantic(&m.match_vertex_traced("pet", "pet").0);
        let cars = m.match_vertex_traced("car", "car").0;
        let pairs = m.relations_between_counted(&dogs, &cars).0;
        assert_eq!(pairs.len(), 1);
        assert_eq!(g.edge_label(pairs[0].edge), Some("in"));
    }

    #[test]
    fn wildcard_object_side() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let harry = m.match_vertex_traced("harry potter", "harry potter").0;
        let pairs = m.relations_around_counted(&harry, false).0;
        assert_eq!(pairs.len(), 1);
        assert_eq!(g.edge_label(pairs[0].edge), Some("girlfriend of"));
        assert_eq!(g.vertex_label(pairs[0].sub), Some("ginny weasley"));
    }

    #[test]
    fn wildcard_subject_side() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let scene_dog = vec![g.vertices_with_label("dog")[1]];
        let pairs = m.relations_around_counted(&scene_dog, true).0;
        assert_eq!(pairs.len(), 1);
        assert_eq!(g.vertex_label(pairs[0].obj), Some("car"));
    }

    #[test]
    fn traced_matching_reports_the_ladder_rung() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        assert_eq!(m.match_vertex_traced("dog", "dog").1, MatchMethod::Exact);
        assert_eq!(
            m.match_vertex_traced("kind of dog", "dog").1,
            MatchMethod::HeadExact
        );
        assert_eq!(
            m.match_vertex_traced("puppy", "puppy").1,
            MatchMethod::Embedding
        );
        let (found, method) = m.match_vertex_traced("spaceship", "spaceship");
        assert!(found.is_empty());
        assert_eq!(method, MatchMethod::NoMatch);
    }

    #[test]
    fn counted_scans_cover_all_incident_edges() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let dogs = m.expand_semantic(&m.match_vertex_traced("pet", "pet").0);
        let cars = m.match_vertex_traced("car", "car").0;
        let (pairs, scanned) = m.relations_between_counted(&dogs, &cars);
        assert_eq!(pairs.len(), 1);
        // Structural (same as / is a) edges are scanned even though they
        // never become pairs, so scanned strictly exceeds the pair count.
        assert!(scanned > pairs.len(), "scanned={scanned}");

        let scene_dog = vec![g.vertices_with_label("dog")[1]];
        let (pairs, scanned) = m.relations_around_counted(&scene_dog, true);
        assert_eq!(pairs.len(), 1);
        assert!(scanned >= pairs.len());
    }

    #[test]
    fn expansion_is_idempotent() {
        let g = merged();
        let m = VertexMatcher::new(&g);
        let once = m.expand_semantic(&m.match_vertex_traced("pet", "pet").0);
        let twice = m.expand_semantic(&once);
        assert_eq!(once, twice);
    }
}
