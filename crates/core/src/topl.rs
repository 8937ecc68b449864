//! Online TopL-ICDE processing (Algorithm 3).
//!
//! The processor traverses the tree index with a max-heap keyed by
//! influential-score upper bounds, so nodes that may contain high-influence
//! seed communities are visited first. Index entries are filtered with the
//! index-level pruning rules (Lemmas 5–7); surviving leaf vertices are
//! filtered with the community-level rules (Lemmas 1, 2, 4) and only then
//! refined: the maximal seed community around the centre is extracted
//! (Definition 2) and its exact influential score computed with
//! `calculate_influence(g, θ)`. Once `L` answers exist, the smallest answer
//! score `σ_L` drives score pruning and the early-termination test.
//!
//! Two implementations of that traversal coexist:
//!
//! * [`TopLProcessor::run`] / [`TopLProcessor::run_with_toggles`] — the
//!   default path, backed by the progressive bound-driven kernel in
//!   [`crate::progressive`]: leaf candidates join index nodes in one
//!   best-bound-first heap and exact refinement is deferred until a
//!   candidate's upper bound reaches the top;
//! * [`TopLProcessor::run_eager`] / [`TopLProcessor::run_eager_with_toggles`]
//!   — the direct transcription of Algorithm 3 that refines every surviving
//!   leaf vertex as its leaf pops. It is kept in-tree as the reference
//!   oracle: the progressive path must return bit-identical answers
//!   (`crates/core/tests/progressive_equivalence.rs` enforces this).

use crate::error::{CoreError, CoreResult};
use crate::index::{CommunityIndex, NodeRef};
use crate::progressive::{run_progressive, vertex_set_fingerprint};
use crate::pruning;
use crate::query::TopLQuery;
use crate::seed::{extract_seed_community, SeedCommunity};
use crate::stats::PruningStats;
use icde_graph::{SocialNetwork, VertexId};
use icde_influence::{InfluenceConfig, InfluenceEvaluator};
use serde::Serialize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Enables/disables individual pruning rules — the knob behind the ablation
/// study of Figure 4. All rules are enabled by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PruningToggles {
    /// Keyword pruning (Lemmas 1 and 5).
    pub keyword: bool,
    /// Support pruning (Lemmas 2 and 6).
    pub support: bool,
    /// Influential-score pruning and early termination (Lemmas 4 and 7).
    pub score: bool,
}

impl Default for PruningToggles {
    fn default() -> Self {
        PruningToggles {
            keyword: true,
            support: true,
            score: true,
        }
    }
}

impl PruningToggles {
    /// Keyword pruning only (first ablation configuration of Fig. 4).
    pub fn keyword_only() -> Self {
        PruningToggles {
            keyword: true,
            support: false,
            score: false,
        }
    }

    /// Keyword + support pruning (second ablation configuration).
    pub fn keyword_support() -> Self {
        PruningToggles {
            keyword: true,
            support: true,
            score: false,
        }
    }

    /// All rules (third ablation configuration; same as `default`).
    pub fn all() -> Self {
        Self::default()
    }

    /// No pruning at all (pure index scan; used as a baseline in tests).
    pub fn none() -> Self {
        PruningToggles {
            keyword: false,
            support: false,
            score: false,
        }
    }
}

/// The result of one TopL-ICDE query.
#[derive(Debug, Clone, Serialize)]
pub struct TopLAnswer {
    /// Top-`L` seed communities in descending influential-score order. May
    /// contain fewer than `L` entries when the graph does not host `L`
    /// distinct valid communities.
    pub communities: Vec<SeedCommunity>,
    /// Pruning counters accumulated while answering the query.
    pub stats: PruningStats,
    /// Wall-clock time spent inside the processor.
    pub elapsed: Duration,
}

impl TopLAnswer {
    /// The smallest influential score among the returned communities
    /// (`-∞` when empty).
    pub fn sigma_l(&self) -> f64 {
        self.communities
            .last()
            .map_or(f64::NEG_INFINITY, |c| c.influential_score)
    }

    /// The highest influential score among the returned communities.
    pub fn best_score(&self) -> f64 {
        self.communities
            .first()
            .map_or(f64::NEG_INFINITY, |c| c.influential_score)
    }
}

/// Max-heap entry over index nodes keyed by score upper bound.
#[derive(Debug)]
struct HeapEntry {
    key: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Collects the running top-`L` answer set with duplicate elimination.
///
/// Two candidate communities are duplicates when they have the same vertex
/// set (different centres can induce the same maximal community); only the
/// best-scoring copy is kept so the returned `L` communities are distinct.
/// Duplicate detection keys on an FNV fingerprint of the sorted vertex ids
/// (kept in a parallel vector) so the common case is one `u64` compare per
/// held entry; the full vertex-set comparison runs only on a fingerprint
/// match.
#[derive(Debug, Default)]
struct TopLCollector {
    capacity: usize,
    entries: Vec<SeedCommunity>,
    /// `vertex_set_fingerprint` of each entry, index-aligned with `entries`.
    fingerprints: Vec<u64>,
}

impl TopLCollector {
    fn new(capacity: usize) -> Self {
        TopLCollector {
            capacity,
            entries: Vec::with_capacity(capacity + 1),
            fingerprints: Vec::with_capacity(capacity + 1),
        }
    }

    /// `σ_L`: the score of the `L`-th best community so far, or `-∞` while
    /// fewer than `L` communities have been collected.
    fn sigma_l(&self) -> f64 {
        if self.entries.len() < self.capacity {
            f64::NEG_INFINITY
        } else {
            self.entries
                .last()
                .map_or(f64::NEG_INFINITY, |c| c.influential_score)
        }
    }

    /// The insertion slot keeping descending score order: the first index
    /// whose score is strictly smaller than `score` — i.e. *after* any
    /// equal-scoring entries, matching what pushing to the back and stably
    /// re-sorting used to produce, in O(log L) instead of O(L log L).
    fn insertion_point(&self, score: f64) -> usize {
        self.entries
            .partition_point(|c| c.influential_score >= score)
    }

    fn insert(&mut self, candidate: SeedCommunity) {
        let fingerprint = vertex_set_fingerprint(candidate.vertices.as_slice());
        if let Some(pos) = self
            .fingerprints
            .iter()
            .zip(&self.entries)
            .position(|(&f, c)| f == fingerprint && c.vertices == candidate.vertices)
        {
            // duplicate vertex set: keep only the better-scoring copy, moving
            // it to its new slot (scores only increase, so it shifts left)
            if candidate.influential_score > self.entries[pos].influential_score {
                self.entries.remove(pos);
                self.fingerprints.remove(pos);
                let at = self.insertion_point(candidate.influential_score);
                self.entries.insert(at, candidate);
                self.fingerprints.insert(at, fingerprint);
            }
            return;
        }
        let at = self.insertion_point(candidate.influential_score);
        if at >= self.capacity {
            return; // would fall off the end anyway
        }
        self.entries.insert(at, candidate);
        self.fingerprints.insert(at, fingerprint);
        if self.entries.len() > self.capacity {
            self.entries.pop();
            self.fingerprints.pop();
        }
    }

    fn into_sorted(self) -> Vec<SeedCommunity> {
        self.entries
    }
}

/// Answers TopL-ICDE queries over one graph + index pair.
#[derive(Debug, Clone, Copy)]
pub struct TopLProcessor<'a> {
    graph: &'a SocialNetwork,
    index: &'a CommunityIndex,
}

impl<'a> TopLProcessor<'a> {
    /// Creates a processor. The index must have been built over `graph`.
    pub fn new(graph: &'a SocialNetwork, index: &'a CommunityIndex) -> Self {
        TopLProcessor { graph, index }
    }

    /// Answers `query` with every pruning rule enabled (progressive kernel).
    pub fn run(&self, query: &TopLQuery) -> CoreResult<TopLAnswer> {
        self.run_with_toggles(query, PruningToggles::default())
    }

    /// Answers `query` with an explicit pruning configuration (ablation),
    /// through the progressive bound-driven kernel.
    pub fn run_with_toggles(
        &self,
        query: &TopLQuery,
        toggles: PruningToggles,
    ) -> CoreResult<TopLAnswer> {
        let query = &self.validate(query)?;
        let start = Instant::now();
        let (communities, stats) = run_progressive(self.graph, self.index, query, toggles);
        Ok(TopLAnswer {
            communities,
            stats,
            elapsed: start.elapsed(),
        })
    }

    /// Rejects queries the index cannot answer before any traversal starts
    /// and returns the canonical form the kernels actually run — so every
    /// spelling of the same query (permuted/duplicated keywords, oversized
    /// `L`) takes the identical execution path.
    fn validate(&self, query: &TopLQuery) -> CoreResult<TopLQuery> {
        let query = query.canonicalize()?;
        if query.radius > self.index.r_max() {
            return Err(CoreError::RadiusExceedsIndex {
                requested: query.radius,
                r_max: self.index.r_max(),
            });
        }
        if self.graph.num_vertices() != self.index.num_graph_vertices() {
            return Err(CoreError::IndexGraphMismatch {
                graph_vertices: self.graph.num_vertices(),
                index_vertices: self.index.num_graph_vertices(),
            });
        }
        Ok(query)
    }

    /// Answers `query` with every pruning rule enabled through the eager
    /// reference path (refine-on-leaf-pop, Algorithm 3 verbatim).
    pub fn run_eager(&self, query: &TopLQuery) -> CoreResult<TopLAnswer> {
        self.run_eager_with_toggles(query, PruningToggles::default())
    }

    /// The eager reference formulation of Algorithm 3: every leaf vertex
    /// that survives the cheap filters is refined the moment its leaf pops.
    ///
    /// Kept as the oracle for the progressive kernel — slower, but a direct
    /// transcription of the paper's pseudocode.
    pub fn run_eager_with_toggles(
        &self,
        query: &TopLQuery,
        toggles: PruningToggles,
    ) -> CoreResult<TopLAnswer> {
        let query = &self.validate(query)?;

        let start = Instant::now();
        let mut stats = PruningStats::new();
        let query_signature = query.keyword_signature(self.index.signature_bits());
        let evaluator = InfluenceEvaluator::new(self.graph, InfluenceConfig { theta: query.theta });
        let mut collector = TopLCollector::new(query.l);

        // Best-first traversal: the root enters with an infinite key so it is
        // always expanded (Algorithm 3 line 3 uses key 0 before any answer
        // exists; +inf is equivalent because sigma_L starts at -inf).
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            key: f64::INFINITY,
            node: self.index.root(),
        });

        while let Some(HeapEntry { key, node }) = heap.pop() {
            stats.heap_pops += 1;
            // Early termination (lines 7-8): every remaining entry has a key
            // not larger than the popped one.
            if toggles.score && key <= collector.sigma_l() {
                stats.early_termination_pops += 1;
                stats.early_terminated_entries += heap.len();
                break;
            }
            match self.index.node(node) {
                NodeRef::Leaf { vertices } => {
                    for &v in vertices {
                        self.process_candidate(
                            v,
                            query,
                            &query_signature,
                            &evaluator,
                            toggles,
                            &mut collector,
                            &mut stats,
                        );
                    }
                }
                NodeRef::Internal { children } => {
                    for &child in children {
                        let child = child as usize;
                        let aggregate = self.index.aggregate(child, query.radius);
                        if toggles.keyword
                            && pruning::can_prune_by_keyword_signature(
                                aggregate.keyword_signature,
                                &query_signature,
                            )
                        {
                            stats.index_keyword_pruned += 1;
                            continue;
                        }
                        if toggles.support
                            && pruning::can_prune_by_support(
                                aggregate.support_upper_bound,
                                query.support,
                            )
                        {
                            stats.index_support_pruned += 1;
                            continue;
                        }
                        let bound = self
                            .index
                            .node_score_bound(child, query.radius, query.theta);
                        if toggles.score && pruning::can_prune_by_score(bound, collector.sigma_l())
                        {
                            stats.index_score_pruned += 1;
                            continue;
                        }
                        heap.push(HeapEntry {
                            key: bound,
                            node: child,
                        });
                    }
                }
            }
        }

        Ok(TopLAnswer {
            communities: collector.into_sorted(),
            stats,
            elapsed: start.elapsed(),
        })
    }

    /// Applies the community-level pruning rules to one candidate centre and
    /// refines it if it survives.
    #[allow(clippy::too_many_arguments)]
    fn process_candidate(
        &self,
        center: VertexId,
        query: &TopLQuery,
        query_signature: &icde_graph::BitVector,
        evaluator: &InfluenceEvaluator<'_>,
        toggles: PruningToggles,
        collector: &mut TopLCollector,
        stats: &mut PruningStats,
    ) {
        let aggregate = self.index.precomputed.aggregate(center, query.radius);
        if toggles.keyword
            && pruning::can_prune_by_keyword_signature(aggregate.keyword_signature, query_signature)
        {
            stats.candidate_keyword_pruned += 1;
            return;
        }
        if toggles.support
            && pruning::can_prune_by_support(aggregate.support_upper_bound, query.support)
        {
            stats.candidate_support_pruned += 1;
            return;
        }
        let bound = self
            .index
            .precomputed
            .score_bound(center, query.radius, query.theta);
        if toggles.score && pruning::can_prune_by_score(bound, collector.sigma_l()) {
            stats.candidate_score_pruned += 1;
            return;
        }

        // Refinement: extract the maximal seed community and compute its
        // exact influential score.
        match extract_seed_community(
            self.graph,
            center,
            query.support,
            query.radius,
            &query.keywords,
        ) {
            None => {
                stats.candidates_without_community += 1;
            }
            Some(vertices) => {
                let influenced = evaluator.influenced_community(&vertices);
                let community = SeedCommunity {
                    center,
                    influential_score: influenced.influential_score(),
                    influenced_size: influenced.len(),
                    vertices,
                };
                stats.candidates_refined += 1;
                stats.exact_verifications += 1; // eager always expands for real
                collector.insert(community);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::precompute::PrecomputeConfig;
    use crate::seed::is_valid_seed_community;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::KeywordSet;

    fn graph() -> SocialNetwork {
        DatasetSpec::new(DatasetKind::Uniform, 250, 5)
            .with_keyword_domain(12)
            .generate()
    }

    fn index(g: &SocialNetwork) -> CommunityIndex {
        IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_fanout(4)
        .with_leaf_capacity(8)
        .build(g)
    }

    fn query() -> TopLQuery {
        TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3, 4]), 3, 2, 0.2, 5)
    }

    #[test]
    fn returns_valid_sorted_communities() {
        let g = graph();
        let idx = index(&g);
        let q = query();
        let answer = TopLProcessor::new(&g, &idx).run(&q).unwrap();
        assert!(!answer.communities.is_empty());
        assert!(answer.communities.len() <= q.l);
        let mut last = f64::INFINITY;
        for c in &answer.communities {
            assert!(c.influential_score <= last + 1e-9);
            last = c.influential_score;
            assert!(is_valid_seed_community(
                &g,
                &c.vertices,
                c.center,
                q.support,
                q.radius,
                &q.keywords
            ));
            assert!(c.influenced_size >= c.len());
        }
        // distinct communities
        for i in 0..answer.communities.len() {
            for j in (i + 1)..answer.communities.len() {
                assert_ne!(
                    answer.communities[i].vertices,
                    answer.communities[j].vertices
                );
            }
        }
    }

    #[test]
    fn pruning_does_not_change_the_answer() {
        let g = graph();
        let idx = index(&g);
        let q = query();
        let processor = TopLProcessor::new(&g, &idx);
        let full = processor
            .run_with_toggles(&q, PruningToggles::all())
            .unwrap();
        let none = processor
            .run_with_toggles(&q, PruningToggles::none())
            .unwrap();
        let kw = processor
            .run_with_toggles(&q, PruningToggles::keyword_only())
            .unwrap();
        let ks = processor
            .run_with_toggles(&q, PruningToggles::keyword_support())
            .unwrap();
        let scores = |a: &TopLAnswer| -> Vec<f64> {
            a.communities
                .iter()
                .map(|c| (c.influential_score * 1e9).round() / 1e9)
                .collect()
        };
        assert_eq!(scores(&full), scores(&none));
        assert_eq!(scores(&full), scores(&kw));
        assert_eq!(scores(&full), scores(&ks));
    }

    #[test]
    fn pruning_reduces_refinement_work() {
        let g = graph();
        let idx = index(&g);
        let q = query();
        let processor = TopLProcessor::new(&g, &idx);
        let full = processor
            .run_with_toggles(&q, PruningToggles::all())
            .unwrap();
        let none = processor
            .run_with_toggles(&q, PruningToggles::none())
            .unwrap();
        assert!(full.stats.candidates_refined <= none.stats.candidates_refined);
        assert!(full.stats.total_pruned_candidates() >= none.stats.total_pruned_candidates());
        // without pruning every vertex is refined or found communityless
        assert_eq!(
            none.stats.candidates_refined + none.stats.candidates_without_community,
            g.num_vertices()
        );
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let g = graph();
        let idx = index(&g);
        let processor = TopLProcessor::new(&g, &idx);
        let mut q = query();
        q.l = 0;
        assert!(matches!(
            processor.run(&q),
            Err(CoreError::InvalidResultSize(0))
        ));
        let mut q = query();
        q.radius = 99;
        assert!(matches!(
            processor.run(&q),
            Err(CoreError::RadiusExceedsIndex { .. })
        ));
    }

    #[test]
    fn mismatched_index_is_rejected() {
        let g = graph();
        let other = DatasetSpec::new(DatasetKind::Uniform, 40, 9).generate();
        let idx = index(&other);
        let processor = TopLProcessor::new(&g, &idx);
        assert!(matches!(
            processor.run(&query()),
            Err(CoreError::IndexGraphMismatch { .. })
        ));
    }

    #[test]
    fn no_matching_keywords_returns_empty() {
        let g = graph();
        let idx = index(&g);
        // keyword domain is 12, so keyword 500 matches nothing
        let q = TopLQuery::new(KeywordSet::from_ids([500]), 3, 2, 0.2, 5);
        let answer = TopLProcessor::new(&g, &idx).run(&q).unwrap();
        assert!(answer.communities.is_empty());
        // keyword pruning should have discarded essentially everything
        assert_eq!(answer.stats.candidates_refined, 0);
    }

    #[test]
    fn answer_helpers() {
        let g = graph();
        let idx = index(&g);
        let answer = TopLProcessor::new(&g, &idx).run(&query()).unwrap();
        if !answer.communities.is_empty() {
            assert!(answer.best_score() >= answer.sigma_l());
        }
        let empty = TopLAnswer {
            communities: vec![],
            stats: PruningStats::new(),
            elapsed: Duration::ZERO,
        };
        assert_eq!(empty.sigma_l(), f64::NEG_INFINITY);
        assert_eq!(empty.best_score(), f64::NEG_INFINITY);
    }

    #[test]
    fn larger_l_returns_superset_prefix() {
        let g = graph();
        let idx = index(&g);
        let processor = TopLProcessor::new(&g, &idx);
        let small = processor.run(&query().with_result_size(2)).unwrap();
        let large = processor.run(&query().with_result_size(6)).unwrap();
        assert!(small.communities.len() <= 2);
        assert!(large.communities.len() >= small.communities.len());
        for (s, l) in small.communities.iter().zip(large.communities.iter()) {
            assert!((s.influential_score - l.influential_score).abs() < 1e-9);
        }
    }

    #[test]
    fn collector_dedups_identical_vertex_sets() {
        let mut c = TopLCollector::new(2);
        let community = |score: f64, ids: &[u32]| SeedCommunity {
            center: VertexId(ids[0]),
            vertices: ids.iter().map(|i| VertexId(*i)).collect(),
            influential_score: score,
            influenced_size: ids.len(),
        };
        c.insert(community(1.0, &[1, 2, 3]));
        c.insert(community(2.0, &[1, 2, 3]));
        c.insert(community(1.5, &[4, 5, 6]));
        let out = c.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].influential_score, 2.0);
        assert_eq!(out[1].influential_score, 1.5);
    }

    #[test]
    fn collector_binary_insertion_matches_push_and_sort_reference() {
        // regression for the partition_point insertion: any interleaving of
        // fresh inserts, duplicate upgrades and overflow evictions must
        // produce exactly what the old push-then-stable-sort-then-pop loop
        // produced, including tie order
        let community = |score: f64, ids: &[u32]| SeedCommunity {
            center: VertexId(ids[0]),
            vertices: ids.iter().map(|i| VertexId(*i)).collect(),
            influential_score: score,
            influenced_size: ids.len(),
        };
        let stream = [
            community(1.0, &[1]),
            community(3.0, &[2]),
            community(2.0, &[3]),
            community(2.0, &[4]), // tie with a distinct set
            community(2.0, &[3]), // duplicate, equal score: ignored
            community(4.0, &[3]), // duplicate, better: moves to the front
            community(0.5, &[5]), // below sigma_L once full: dropped
            community(2.5, &[6]),
            community(2.5, &[7]),
            community(0.5, &[5]),
        ];
        for capacity in [1usize, 2, 3, 4, 10] {
            let mut collector = TopLCollector::new(capacity);
            // the pre-optimisation formulation, inlined as the oracle
            let mut reference: Vec<SeedCommunity> = Vec::new();
            for candidate in &stream {
                collector.insert(candidate.clone());
                if let Some(existing) = reference
                    .iter_mut()
                    .find(|c| c.vertices == candidate.vertices)
                {
                    if candidate.influential_score > existing.influential_score {
                        *existing = candidate.clone();
                        reference.sort_by(|a, b| {
                            b.influential_score
                                .partial_cmp(&a.influential_score)
                                .unwrap()
                        });
                    }
                } else {
                    reference.push(candidate.clone());
                    reference.sort_by(|a, b| {
                        b.influential_score
                            .partial_cmp(&a.influential_score)
                            .unwrap()
                    });
                    if reference.len() > capacity {
                        reference.pop();
                    }
                }
                assert_eq!(collector.sigma_l(), {
                    if reference.len() < capacity {
                        f64::NEG_INFINITY
                    } else {
                        reference
                            .last()
                            .map_or(f64::NEG_INFINITY, |c| c.influential_score)
                    }
                });
            }
            let got = collector.into_sorted();
            assert_eq!(got.len(), reference.len(), "capacity {capacity}");
            for (g, r) in got.iter().zip(reference.iter()) {
                assert_eq!(g.vertices, r.vertices, "capacity {capacity}");
                assert_eq!(g.influential_score, r.influential_score);
            }
        }
    }
}
