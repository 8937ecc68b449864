//! Influenced communities and influential scores.
//!
//! Given a seed community `g` and a threshold `θ`, the influenced community
//! `g^Inf` (Definition 3) contains every vertex `v` with community-to-user
//! propagation probability `cpp(g, v) ≥ θ` (Eq. (4); members of the seed have
//! `cpp = 1`). The influential score `σ(g)` (Eq. (5)) sums those
//! probabilities over `g^Inf`.
//!
//! The expansion mirrors the paper's `calculate_influence(g, θ)` discussion
//! (Section VI-B): a multi-source, max-product Dijkstra seeded with every
//! community member at probability 1, expanding frontier vertices through
//! `cpp(g, v_new) = max_{u ∈ g^Inf} cpp(g, u) · p_{u, v_new}` and stopping as
//! soon as a candidate's probability would drop below `θ`. Because edge
//! probabilities are ≤ 1, probabilities only decrease along paths, so the
//! cut-off is exact rather than heuristic.
//!
//! The expansion runs through a [`TraversalWorkspace`] (epoch-stamped best
//! values plus the monotone bucket queue) with *settled-skip* semantics: an
//! entry popped at a probability equal to one already expanded is dropped,
//! so equal-probability duplicates — common under symmetric edge weights —
//! no longer re-expand their whole neighbourhood.

use icde_graph::workspace::{with_thread_workspace, TraversalWorkspace};
use icde_graph::{SocialNetwork, VertexId, VertexSubset, Weight};
use serde::Serialize;

/// Parameters of influence evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InfluenceConfig {
    /// Influence threshold `θ ∈ [0, 1)`: vertices with `cpp(g, v) < θ` are
    /// outside the influenced community.
    pub theta: Weight,
}

impl InfluenceConfig {
    /// Creates a config after validating `0 ≤ θ < 1`.
    ///
    /// # Panics
    /// Panics if θ is outside `[0, 1)`.
    pub fn new(theta: Weight) -> Self {
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1), got {theta}"
        );
        InfluenceConfig { theta }
    }
}

impl Default for InfluenceConfig {
    /// The paper's default threshold θ = 0.2 (Table III).
    fn default() -> Self {
        InfluenceConfig { theta: 0.2 }
    }
}

/// The influenced community `g^Inf` of one seed community: every member's
/// community-to-user propagation probability.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InfluencedCommunity {
    /// `(v, cpp(g, v))` for every vertex of `g^Inf` in expansion
    /// (first-touch) order: the seed members first, at 1.0.
    members: Vec<(VertexId, Weight)>,
    /// Number of seed vertices.
    seed_size: usize,
    /// Threshold used during expansion.
    theta: Weight,
    /// Influential score accumulated in deterministic expansion order (see
    /// [`InfluencedCommunity::influential_score`]).
    score: Weight,
}

impl InfluencedCommunity {
    /// Number of vertices in `g^Inf` (seed members included).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the influenced community is empty (only possible for
    /// an empty seed).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of seed vertices.
    pub fn seed_size(&self) -> usize {
        self.seed_size
    }

    /// Number of influenced vertices outside the seed.
    pub fn influenced_only_count(&self) -> usize {
        self.members.len() - self.seed_size
    }

    /// The threshold `θ` the community was expanded with.
    pub fn theta(&self) -> Weight {
        self.theta
    }

    /// `cpp(g, v)`, or 0.0 if `v` is outside the influenced community. A
    /// linear scan over `g^Inf`.
    pub fn cpp(&self, v: VertexId) -> Weight {
        self.members
            .iter()
            .find(|(u, _)| *u == v)
            .map_or(0.0, |&(_, p)| p)
    }

    /// Returns `true` if `v` belongs to `g^Inf`. A linear scan over `g^Inf`.
    pub fn contains(&self, v: VertexId) -> bool {
        self.members.iter().any(|(u, _)| *u == v)
    }

    /// Iterates over `(vertex, cpp)` pairs in expansion (first-touch) order,
    /// which the seed and the graph fully determine: every sum over this
    /// iterator (diversity scores, marginal gains) repeats bit for bit.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.members.iter().copied()
    }

    /// The influential score `σ(g)` (Eq. (5)): the sum of all `cpp` values.
    ///
    /// The value is accumulated during the expansion in deterministic
    /// (bucket-drain) order, so the same seed community always yields the
    /// exact same floating-point score.
    pub fn influential_score(&self) -> Weight {
        self.score
    }

    /// The vertex set of `g^Inf`.
    pub fn vertex_set(&self) -> VertexSubset {
        VertexSubset::from_iter(self.members.iter().map(|(v, _)| *v))
    }

    /// Number of vertices shared with another influenced community.
    pub fn overlap(&self, other: &InfluencedCommunity) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let large = large.vertex_set();
        small
            .members
            .iter()
            .filter(|(v, _)| large.contains(*v))
            .count()
    }
}

/// Evaluates influence propagation over one social network.
///
/// Borrowing the graph once lets callers evaluate many seed communities
/// without re-validating the configuration each time.
#[derive(Debug, Clone, Copy)]
pub struct InfluenceEvaluator<'g> {
    graph: &'g SocialNetwork,
    config: InfluenceConfig,
}

impl<'g> InfluenceEvaluator<'g> {
    /// Creates an evaluator for `graph` with the given configuration.
    pub fn new(graph: &'g SocialNetwork, config: InfluenceConfig) -> Self {
        InfluenceEvaluator { graph, config }
    }

    /// The threshold θ this evaluator uses.
    pub fn theta(&self) -> Weight {
        self.config.theta
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g SocialNetwork {
        self.graph
    }

    /// Expands the influenced community `g^Inf` of `seed` under the
    /// evaluator's threshold (the paper's `calculate_influence(g, θ)`).
    pub fn influenced_community(&self, seed: &VertexSubset) -> InfluencedCommunity {
        self.influenced_community_with_theta(seed, self.config.theta)
    }

    /// Expands `g^Inf` with an explicit threshold, which is how the offline
    /// pre-computation evaluates the same seed under several thresholds
    /// `θ_1 < θ_2 < ... < θ_m` (Algorithm 2).
    pub fn influenced_community_with_theta(
        &self,
        seed: &VertexSubset,
        theta: Weight,
    ) -> InfluencedCommunity {
        with_thread_workspace(|ws| self.influenced_community_with_theta_in(ws, seed, theta))
    }

    /// [`influenced_community_with_theta`] against a caller-owned workspace
    /// (the offline pre-computation evaluates thousands of regions per
    /// worker thread and amortises the scratch state across all of them).
    ///
    /// [`influenced_community_with_theta`]:
    /// InfluenceEvaluator::influenced_community_with_theta
    pub fn influenced_community_with_theta_in(
        &self,
        ws: &mut TraversalWorkspace,
        seed: &VertexSubset,
        theta: Weight,
    ) -> InfluencedCommunity {
        let score = self.expand(ws, seed.as_slice(), theta);
        InfluencedCommunity {
            members: ws.touched().iter().map(|&v| (v, ws.prob(v))).collect(),
            seed_size: seed.len(),
            theta,
            score,
        }
    }

    /// `(σ(g), |g^Inf|)` of the seed with members `seed` (distinct ids, in
    /// ascending order for the score to match
    /// [`influenced_community_with_theta_in`] bit for bit), without
    /// materialising `g^Inf`: the progressive kernel's exact verification.
    ///
    /// [`influenced_community_with_theta_in`]:
    /// InfluenceEvaluator::influenced_community_with_theta_in
    pub fn score_and_size(
        &self,
        ws: &mut TraversalWorkspace,
        seed: &[VertexId],
        theta: Weight,
    ) -> (Weight, usize) {
        let score = self.expand(ws, seed, theta);
        (score, ws.touched().len())
    }

    /// The expansion behind [`score_and_size`] and
    /// [`influenced_community_with_theta_in`]: leaves `cpp` of every vertex
    /// of `g^Inf` in `ws` (in first-touch order, [`TraversalWorkspace::touched`])
    /// and returns `σ(g)` accumulated in expansion order.
    ///
    /// [`score_and_size`]: InfluenceEvaluator::score_and_size
    /// [`influenced_community_with_theta_in`]:
    /// InfluenceEvaluator::influenced_community_with_theta_in
    fn expand(&self, ws: &mut TraversalWorkspace, seed: &[VertexId], theta: Weight) -> Weight {
        ws.begin(self.graph.num_vertices());
        let mut score = 0.0;
        for &v in seed {
            ws.set_prob(v, 1.0);
            score += 1.0;
            ws.bucket_push(1.0, v);
        }
        // effective floor: members always qualify; influenced vertices need
        // probability >= theta (a theta of 0 admits any positive probability)
        while let Some((probability, vertex)) = ws.bucket_pop() {
            if probability < ws.prob(vertex) {
                continue; // stale: a better probability was recorded since
            }
            if !ws.try_expand(vertex, probability) {
                continue; // settled: an equal duplicate was already expanded
            }
            for (n, p) in self.graph.outgoing(vertex) {
                let candidate = probability * p;
                if candidate < theta || candidate <= 0.0 {
                    continue;
                }
                // members sit at 1.0 and every stored edge probability lies
                // in [0, 1], so `candidate > current` never touches them
                let current = ws.prob(n);
                if candidate > current {
                    ws.set_prob(n, candidate);
                    score += candidate - current;
                    ws.bucket_push(candidate, n);
                }
            }
        }
        score
    }

    /// The influential score `σ(g)` of a seed community (Eq. (5)).
    pub fn influential_score(&self, seed: &VertexSubset) -> Weight {
        self.influenced_community(seed).influential_score()
    }

    /// Computes `σ_z(seed)` for **every** threshold in `thresholds` with a
    /// single influence expansion (the offline phase's Algorithm 2 inner
    /// loop; the naive formulation runs `m = |thresholds|` full expansions).
    ///
    /// Borrows this thread's shared workspace; see
    /// [`multi_threshold_scores_in`] for the caller-owned-workspace variant
    /// and the correctness argument.
    ///
    /// [`multi_threshold_scores_in`]:
    /// InfluenceEvaluator::multi_threshold_scores_in
    pub fn multi_threshold_scores(&self, seed: &VertexSubset, thresholds: &[f64]) -> Vec<f64> {
        with_thread_workspace(|ws| self.multi_threshold_scores_in(ws, seed, thresholds))
    }

    /// [`multi_threshold_scores`] against a caller-owned workspace.
    ///
    /// **Why one expansion suffices.** Every edge probability is ≤ 1, so
    /// along any path the running product is nonincreasing: every *prefix*
    /// of a max-influence path has probability ≥ its endpoint's `cpp`. A
    /// max-product Dijkstra truncated at `θ_min = min(thresholds)` therefore
    /// settles every vertex whose true `cpp` clears **any** of the
    /// thresholds, and settles it at exactly the value the per-threshold
    /// expansion at `θ_z ≤ cpp` would have computed (the optimal path never
    /// dips below `cpp ≥ θ_z ≥ θ_min` at any prefix, so no cutoff ever
    /// discards it). `σ_z` is then the sum of the settled `cpp` values that
    /// reach `θ_z`, accumulated in deterministic first-touch order — the
    /// same seed always yields the exact same floating-point scores.
    ///
    /// `thresholds` need not be sorted; each returned score is aligned with
    /// its input position. Scores match the per-threshold reference path
    /// within floating-point summation order (≤ 1e-9 in practice), and the
    /// settled `cpp` values themselves are bit-identical.
    ///
    /// [`multi_threshold_scores`]: InfluenceEvaluator::multi_threshold_scores
    pub fn multi_threshold_scores_in(
        &self,
        ws: &mut TraversalWorkspace,
        seed: &VertexSubset,
        thresholds: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0; thresholds.len()];
        self.multi_threshold_scores_into(ws, seed.iter(), thresholds, &mut out);
        out
    }

    /// The allocation-free core of [`multi_threshold_scores_in`]: takes the
    /// seed as a plain vertex iterator (the offline phase feeds BFS-order
    /// region prefixes without materialising a `VertexSubset`) and writes
    /// the scores into a caller-owned slice. Nothing is allocated per call
    /// — probabilities are read straight off the workspace and no influenced
    /// community map is built.
    ///
    /// # Panics
    /// Panics if `out.len() != thresholds.len()`, or if any threshold lies
    /// outside `[0, 1)` — a `θ_z ≥ 1` would silently drop seed members
    /// (`cpp = 1.0 < θ_z`) from `σ_z` where the per-threshold reference
    /// counts them unconditionally, so out-of-range input fails loudly
    /// instead (the same domain [`InfluenceConfig::new`] enforces).
    ///
    /// [`multi_threshold_scores_in`]:
    /// InfluenceEvaluator::multi_threshold_scores_in
    pub fn multi_threshold_scores_into(
        &self,
        ws: &mut TraversalWorkspace,
        seed: impl IntoIterator<Item = VertexId>,
        thresholds: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), thresholds.len(), "one output slot per threshold");
        assert!(
            thresholds.iter().all(|t| (0.0..1.0).contains(t)),
            "thresholds must lie in [0, 1)"
        );
        out.fill(0.0);
        let theta_min = thresholds.iter().copied().fold(f64::INFINITY, f64::min);
        ws.begin(self.graph.num_vertices());
        for v in seed {
            ws.set_prob(v, 1.0);
            ws.bucket_push(1.0, v);
        }
        while let Some((probability, vertex)) = ws.bucket_pop() {
            if probability < ws.prob(vertex) {
                continue; // stale: a better probability was recorded since
            }
            if !ws.try_expand(vertex, probability) {
                continue; // settled: an equal duplicate was already expanded
            }
            for (n, p) in self.graph.outgoing(vertex) {
                let candidate = probability * p;
                if candidate < theta_min || candidate <= 0.0 {
                    continue;
                }
                // seed members sit at probability 1.0, so `candidate > current`
                // also keeps them (and any already-better vertex) untouched
                let current = ws.prob(n);
                if candidate > current {
                    ws.set_prob(n, candidate);
                    ws.bucket_push(candidate, n);
                }
            }
        }
        // deterministic drain: `touched` records first-touch order, which is
        // fully determined by the seed order and the graph
        for &v in ws.touched() {
            let cpp = ws.prob(v);
            for (z, &theta_z) in thresholds.iter().enumerate() {
                if cpp >= theta_z {
                    out[z] += cpp;
                }
            }
        }
    }

    /// Community-to-user propagation probability `cpp(g, v)` (Eq. (4)),
    /// honouring the threshold truncation (vertices outside `g^Inf` report 0).
    pub fn community_to_user(&self, seed: &VertexSubset, v: VertexId) -> Weight {
        if seed.contains(v) {
            1.0
        } else {
            self.influenced_community(seed).cpp(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mia::user_propagation_probability;

    /// Line 0-1-2-3-4 with strong probabilities plus a side vertex 5 attached
    /// to 1.
    fn line_graph() -> SocialNetwork {
        let mut b = icde_graph::GraphBuilder::with_vertices(6);
        b.add_symmetric_edge(VertexId(0), VertexId(1), 0.8);
        b.add_symmetric_edge(VertexId(1), VertexId(2), 0.8);
        b.add_symmetric_edge(VertexId(2), VertexId(3), 0.8);
        b.add_symmetric_edge(VertexId(3), VertexId(4), 0.8);
        b.add_symmetric_edge(VertexId(1), VertexId(5), 0.3);
        b.build().unwrap()
    }

    #[test]
    fn config_validation() {
        assert_eq!(InfluenceConfig::default().theta, 0.2);
        assert_eq!(InfluenceConfig::new(0.0).theta, 0.0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn config_rejects_out_of_range() {
        let _ = InfluenceConfig::new(1.0);
    }

    #[test]
    fn seed_members_have_cpp_one() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.2));
        let seed = VertexSubset::from_iter([VertexId(1), VertexId(2)]);
        let inf = eval.influenced_community(&seed);
        assert_eq!(inf.cpp(VertexId(1)), 1.0);
        assert_eq!(inf.cpp(VertexId(2)), 1.0);
        assert_eq!(inf.seed_size(), 2);
        assert_eq!(eval.community_to_user(&seed, VertexId(1)), 1.0);
    }

    #[test]
    fn expansion_respects_threshold() {
        let g = line_graph();
        let seed = VertexSubset::from_iter([VertexId(0)]);
        // theta = 0.5: cpp along the line is 0.8, 0.64, 0.512, 0.4096, so the
        // influenced community stops after vertex 3
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.5));
        let inf = eval.influenced_community(&seed);
        assert!(inf.contains(VertexId(1)));
        assert!(inf.contains(VertexId(2)));
        assert!(inf.contains(VertexId(3)));
        assert!((inf.cpp(VertexId(3)) - 0.512).abs() < 1e-12);
        assert!(!inf.contains(VertexId(4)));
        assert_eq!(inf.cpp(VertexId(4)), 0.0);
        assert!(!inf.contains(VertexId(5)));
    }

    #[test]
    fn expansion_matches_pairwise_upp() {
        // For a single-vertex seed, cpp(g, v) must equal upp(u, v) whenever
        // it clears the threshold (Eq. (4)).
        let g = line_graph();
        let seed = VertexSubset::from_iter([VertexId(0)]);
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.1));
        let inf = eval.influenced_community(&seed);
        for v in g.vertices() {
            let upp = user_propagation_probability(&g, VertexId(0), v);
            if v == VertexId(0) {
                assert_eq!(inf.cpp(v), 1.0);
            } else if upp >= 0.1 {
                assert!(
                    (inf.cpp(v) - upp).abs() < 1e-12,
                    "vertex {v}: {} vs {upp}",
                    inf.cpp(v)
                );
            } else {
                assert_eq!(inf.cpp(v), 0.0, "vertex {v}");
            }
        }
    }

    #[test]
    fn multi_source_takes_maximum() {
        let g = line_graph();
        let seed = VertexSubset::from_iter([VertexId(0), VertexId(4)]);
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.1));
        let inf = eval.influenced_community(&seed);
        // vertex 2 is reachable from both ends at 0.64
        let upp0 = user_propagation_probability(&g, VertexId(0), VertexId(2));
        let upp4 = user_propagation_probability(&g, VertexId(4), VertexId(2));
        assert!((inf.cpp(VertexId(2)) - upp0.max(upp4)).abs() < 1e-12);
    }

    #[test]
    fn influential_score_sums_cpp() {
        let g = line_graph();
        let seed = VertexSubset::from_iter([VertexId(1)]);
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.3));
        let inf = eval.influenced_community(&seed);
        // members: 1 (1.0); influenced: 0 (0.8), 2 (0.8), 5 (0.3), 3 (0.64),
        // 4 (0.512)
        let expected = 1.0 + 0.8 + 0.8 + 0.3 + 0.64 + 0.512;
        assert!(
            (inf.influential_score() - expected).abs() < 1e-9,
            "{}",
            inf.influential_score()
        );
        assert_eq!(inf.len(), 6);
        assert_eq!(inf.influenced_only_count(), 5);
        assert!((eval.influential_score(&seed) - expected).abs() < 1e-9);
    }

    #[test]
    fn score_is_monotone_in_theta() {
        // Higher thresholds can only shrink the influenced community and its
        // score — the property the influential-score pruning bound relies on.
        let g = line_graph();
        let seed = VertexSubset::from_iter([VertexId(2)]);
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::default());
        let mut last = f64::INFINITY;
        for theta in [0.0, 0.1, 0.2, 0.3, 0.5, 0.8] {
            let score = eval
                .influenced_community_with_theta(&seed, theta)
                .influential_score();
            assert!(score <= last + 1e-12, "theta={theta}");
            last = score;
        }
    }

    #[test]
    fn score_is_monotone_in_seed_growth() {
        // Adding vertices to the seed can only increase the score (the basis
        // of using sigma(hop(v, r)) as an upper bound in Algorithm 2).
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.2));
        let small = VertexSubset::from_iter([VertexId(1)]);
        let large = VertexSubset::from_iter([VertexId(1), VertexId(2), VertexId(3)]);
        assert!(eval.influential_score(&large) >= eval.influential_score(&small));
    }

    #[test]
    fn empty_seed_has_empty_influence() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.2));
        let inf = eval.influenced_community(&VertexSubset::new());
        assert!(inf.is_empty());
        assert_eq!(inf.influential_score(), 0.0);
        assert_eq!(inf.len(), 0);
    }

    #[test]
    fn overlap_counts_shared_vertices() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.3));
        let a = eval.influenced_community(&VertexSubset::from_iter([VertexId(0)]));
        let b = eval.influenced_community(&VertexSubset::from_iter([VertexId(4)]));
        let overlap = a.overlap(&b);
        assert_eq!(overlap, b.overlap(&a));
        assert!(overlap >= 1, "both reach the middle of the line");
    }

    #[test]
    fn symmetric_probabilities_expand_each_vertex_once() {
        // Equal-probability duplicate heap entries used to slip past the
        // `probability < cpp[v]` stale check and re-expand their whole
        // neighbourhood. With settled-skip semantics every vertex expands at
        // most once when no strict improvement occurs.
        let mut b = icde_graph::GraphBuilder::with_vertices(6);
        for i in 0..6u32 {
            // 6-cycle, perfectly symmetric weights
            b.add_symmetric_edge(VertexId(i), VertexId((i + 1) % 6), 0.5);
        }
        let g = b.build().unwrap();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.1));
        // symmetric seed: vertices 0 and 3 reach 1, 2, 4, 5 at identical
        // probabilities from both sides
        let seed = VertexSubset::from_iter([VertexId(0), VertexId(3)]);

        let mut ws = TraversalWorkspace::new();
        let inf = eval.influenced_community_with_theta_in(&mut ws, &seed, 0.1);
        assert!(
            ws.expansions() <= inf.len(),
            "{} expansions for {} members",
            ws.expansions(),
            inf.len()
        );

        // cpp must equal the max over the seeds' pairwise upp, and the score
        // their sum
        let mut expected_score = 0.0;
        for v in g.vertices() {
            let expected = if seed.contains(v) {
                1.0
            } else {
                let upp = g
                    .vertices()
                    .filter(|s| seed.contains(*s))
                    .map(|s| user_propagation_probability(&g, s, v))
                    .fold(0.0f64, f64::max);
                if upp >= 0.1 {
                    upp
                } else {
                    0.0
                }
            };
            assert!((inf.cpp(v) - expected).abs() < 1e-12, "vertex {v}");
            expected_score += expected;
        }
        assert!((inf.influential_score() - expected_score).abs() < 1e-9);

        // and the run is reproducible bit-for-bit through the same reused
        // workspace
        let again = eval.influenced_community_with_theta_in(&mut ws, &seed, 0.1);
        assert_eq!(inf, again);
        assert_eq!(inf.influential_score(), again.influential_score());
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.2));
        let mut reused = TraversalWorkspace::new();
        for v in g.vertices() {
            let seed = VertexSubset::from_iter([v]);
            let with_reuse = eval.influenced_community_with_theta_in(&mut reused, &seed, 0.2);
            let fresh =
                eval.influenced_community_with_theta_in(&mut TraversalWorkspace::new(), &seed, 0.2);
            assert_eq!(with_reuse, fresh);
            assert_eq!(with_reuse.influential_score(), fresh.influential_score());
        }
    }

    #[test]
    fn multi_threshold_scores_match_per_threshold_expansions() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.0));
        let thresholds = [0.1, 0.2, 0.3, 0.5, 0.8];
        let mut ws = TraversalWorkspace::new();
        for a in g.vertices() {
            for b in g.vertices() {
                let seed = VertexSubset::from_iter([a, b]);
                let shared = eval.multi_threshold_scores_in(&mut ws, &seed, &thresholds);
                for (z, &theta) in thresholds.iter().enumerate() {
                    let reference = eval
                        .influenced_community_with_theta_in(&mut ws, &seed, theta)
                        .influential_score();
                    assert!(
                        (shared[z] - reference).abs() < 1e-9,
                        "seed {{{a}, {b}}} theta {theta}: {} vs {reference}",
                        shared[z]
                    );
                }
            }
        }
    }

    #[test]
    fn multi_threshold_scores_handle_unsorted_thresholds_and_zero() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.0));
        let seed = VertexSubset::from_iter([VertexId(0)]);
        // unsorted input: each output stays aligned with its position
        let shuffled = eval.multi_threshold_scores(&seed, &[0.5, 0.0, 0.2]);
        for (z, &theta) in [0.5, 0.0, 0.2].iter().enumerate() {
            let reference = eval
                .influenced_community_with_theta(&seed, theta)
                .influential_score();
            assert!((shuffled[z] - reference).abs() < 1e-9, "theta {theta}");
        }
        // empty seed: all zeros
        let empty = eval.multi_threshold_scores(&VertexSubset::new(), &[0.1, 0.2]);
        assert_eq!(empty, vec![0.0, 0.0]);
    }

    #[test]
    fn multi_threshold_scores_into_is_reproducible_and_reusable() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.0));
        let thresholds = [0.1, 0.3];
        let mut ws = TraversalWorkspace::new();
        let mut out_a = [0.0; 2];
        let mut out_b = [7.0; 2]; // stale garbage must be overwritten
        let seed = [VertexId(1), VertexId(3)];
        eval.multi_threshold_scores_into(&mut ws, seed.iter().copied(), &thresholds, &mut out_a);
        eval.multi_threshold_scores_into(&mut ws, seed.iter().copied(), &thresholds, &mut out_b);
        assert_eq!(out_a.map(f64::to_bits), out_b.map(f64::to_bits));
        let fresh = eval.multi_threshold_scores_in(
            &mut TraversalWorkspace::new(),
            &VertexSubset::from_iter(seed),
            &thresholds,
        );
        assert_eq!(
            out_a
                .to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn vertex_set_matches_membership() {
        let g = line_graph();
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.2));
        let inf = eval.influenced_community(&VertexSubset::from_iter([VertexId(2)]));
        let set = inf.vertex_set();
        assert_eq!(set.len(), inf.len());
        for v in set.iter() {
            assert!(inf.contains(v));
        }
    }
}
