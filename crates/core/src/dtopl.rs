//! Diversified TopL-ICDE processing (Section VII).
//!
//! DTopL-ICDE returns one *set* of `L` seed communities maximising the
//! diversity score `D(S) = Σ_v max_{g∈S} cpp(g, v)` — collaborative influence
//! with overlaps counted once. The problem is NP-hard (Lemma 8, by reduction
//! from Maximum Coverage), so the paper's algorithm is a two-step
//! approximation:
//!
//! 1. fetch the top-`n·L` most influential candidate communities with the
//!    TopL-ICDE processor (Algorithm 3),
//! 2. greedily pick `L` of them by marginal diversity gain. The
//!    [`DTopLStrategy::GreedyWithPruning`] variant (Algorithm 4) is the lazy
//!    greedy of Lemma 9: stale gains are upper bounds (submodularity), so a
//!    candidate is only re-evaluated when it reaches the top of the heap.
//!
//! [`DTopLStrategy::GreedyWithoutPruning`] re-evaluates every remaining
//! candidate each round and [`DTopLStrategy::Optimal`] enumerates all
//! `C(nL, L)` subsets — both exist as evaluation baselines (Figure 6).

use crate::error::CoreResult;
use crate::index::CommunityIndex;
use crate::query::TopLQuery;
use crate::seed::SeedCommunity;
use crate::stats::PruningStats;
use crate::topl::TopLProcessor;
use icde_graph::SocialNetwork;
use icde_influence::{DiversityState, InfluenceConfig, InfluenceEvaluator, InfluencedCommunity};
use serde::Serialize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Parameters of a DTopL-ICDE query: the base TopL-ICDE parameters plus the
/// candidate multiplier `n` (the greedy refinement works over `n·L`
/// candidates).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DTopLQuery {
    /// The underlying TopL-ICDE parameters (`Q`, `k`, `r`, `θ`, `L`).
    pub base: TopLQuery,
    /// Candidate multiplier `n > 1` (Table III default: 3).
    pub candidate_multiplier: usize,
}

impl DTopLQuery {
    /// Creates a DTopL-ICDE query.
    pub fn new(base: TopLQuery, candidate_multiplier: usize) -> Self {
        DTopLQuery {
            base,
            candidate_multiplier,
        }
    }

    /// The paper's default multiplier `n = 3`.
    pub fn with_default_multiplier(base: TopLQuery) -> Self {
        DTopLQuery {
            base,
            candidate_multiplier: 3,
        }
    }
}

/// Candidate-refinement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DTopLStrategy {
    /// Algorithm 4: lazy greedy with diversity-score pruning (Lemma 9).
    GreedyWithPruning,
    /// Greedy without pruning: recompute every candidate's marginal gain in
    /// every round.
    GreedyWithoutPruning,
    /// Exact optimum by exhaustive subset enumeration (exponential; only
    /// viable for small `n·L`).
    Optimal,
}

/// Result of one DTopL-ICDE query.
#[derive(Debug, Clone, Serialize)]
pub struct DTopLAnswer {
    /// The selected set `S` of (up to) `L` seed communities, in selection
    /// order for the greedy strategies.
    pub communities: Vec<SeedCommunity>,
    /// The diversity score `D(S)` of the selected set.
    pub diversity_score: f64,
    /// Pruning counters (TopL phase + diversity pruning).
    pub stats: PruningStats,
    /// Wall-clock time spent inside the processor (including the TopL phase).
    pub elapsed: Duration,
}

/// Heap entry for the lazy greedy: a candidate index with a (possibly stale)
/// gain upper bound and the round in which that bound was computed.
#[derive(Debug)]
struct LazyEntry {
    gain: f64,
    round: usize,
    candidate: usize,
}

impl PartialEq for LazyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.candidate == other.candidate
    }
}
impl Eq for LazyEntry {}
impl Ord for LazyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.candidate.cmp(&self.candidate))
    }
}
impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Answers DTopL-ICDE queries over one graph + index pair.
#[derive(Debug, Clone, Copy)]
pub struct DTopLProcessor<'a> {
    graph: &'a SocialNetwork,
    index: &'a CommunityIndex,
}

impl<'a> DTopLProcessor<'a> {
    /// Creates a processor. The index must have been built over `graph`.
    pub fn new(graph: &'a SocialNetwork, index: &'a CommunityIndex) -> Self {
        DTopLProcessor { graph, index }
    }

    /// Answers `query` with the requested strategy.
    pub fn run(&self, query: &DTopLQuery, strategy: DTopLStrategy) -> CoreResult<DTopLAnswer> {
        let start = Instant::now();
        let l = query.base.l;
        let candidate_count = l.saturating_mul(query.candidate_multiplier.max(1));

        // Step 1: top-(nL) most influential candidates.
        let topl_query = query.base.with_result_size(candidate_count.max(l));
        let topl = TopLProcessor::new(self.graph, self.index).run(&topl_query)?;
        let mut stats = topl.stats;
        let candidates = topl.communities;

        // Influenced communities of every candidate drive the diversity math.
        let evaluator = InfluenceEvaluator::new(
            self.graph,
            InfluenceConfig {
                theta: query.base.theta,
            },
        );
        let influenced: Vec<InfluencedCommunity> = candidates
            .iter()
            .map(|c| evaluator.influenced_community(&c.vertices))
            .collect();

        let selected_indices = match strategy {
            DTopLStrategy::GreedyWithPruning => self.lazy_greedy(&influenced, l, &mut stats),
            DTopLStrategy::GreedyWithoutPruning => self.plain_greedy(&influenced, l),
            DTopLStrategy::Optimal => self.exhaustive(&influenced, l),
        };

        let mut state = DiversityState::new();
        for &i in &selected_indices {
            state.add(&influenced[i]);
        }
        let communities = selected_indices
            .iter()
            .map(|&i| candidates[i].clone())
            .collect();

        Ok(DTopLAnswer {
            communities,
            diversity_score: state.score(),
            stats,
            elapsed: start.elapsed(),
        })
    }

    /// Algorithm 4: lazy greedy with stale-gain pruning.
    fn lazy_greedy(
        &self,
        influenced: &[InfluencedCommunity],
        l: usize,
        stats: &mut PruningStats,
    ) -> Vec<usize> {
        let mut heap: BinaryHeap<LazyEntry> = influenced
            .iter()
            .enumerate()
            .map(|(i, c)| LazyEntry {
                gain: c.influential_score(),
                round: 0,
                candidate: i,
            })
            .collect();
        let mut state = DiversityState::new();
        let mut selected = Vec::with_capacity(l);
        let mut round = 0usize;

        while selected.len() < l {
            let Some(entry) = heap.pop() else { break };
            if entry.round == round {
                // Fresh gain: by Lemma 9 nothing else can beat it this round,
                // so every other candidate skipped its re-evaluation.
                stats.diversity_pruned += heap.len();
                state.add(&influenced[entry.candidate]);
                selected.push(entry.candidate);
                round += 1;
            } else {
                // Stale gain: recompute against the current answer set and
                // push back.
                let fresh = state.gain(&influenced[entry.candidate]);
                heap.push(LazyEntry {
                    gain: fresh,
                    round,
                    candidate: entry.candidate,
                });
            }
        }
        selected
    }

    /// Greedy without pruning: every remaining candidate is re-evaluated each
    /// round.
    fn plain_greedy(&self, influenced: &[InfluencedCommunity], l: usize) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..influenced.len()).collect();
        let mut state = DiversityState::new();
        let mut selected = Vec::with_capacity(l);
        while selected.len() < l && !remaining.is_empty() {
            let (pos, &best) = remaining
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    state
                        .gain(&influenced[a])
                        .partial_cmp(&state.gain(&influenced[b]))
                        .unwrap_or(Ordering::Equal)
                })
                .expect("remaining is non-empty");
            state.add(&influenced[best]);
            selected.push(best);
            remaining.remove(pos);
        }
        selected
    }

    /// Exact optimum by exhaustive enumeration of all `C(n, l)` subsets.
    fn exhaustive(&self, influenced: &[InfluencedCommunity], l: usize) -> Vec<usize> {
        let n = influenced.len();
        if n == 0 {
            return Vec::new();
        }
        let l = l.min(n);
        let mut best_set: Vec<usize> = Vec::new();
        let mut best_score = f64::NEG_INFINITY;
        let mut combination: Vec<usize> = (0..l).collect();
        loop {
            let refs: Vec<&InfluencedCommunity> =
                combination.iter().map(|&i| &influenced[i]).collect();
            let score = icde_influence::diversity_score(&refs);
            if score > best_score {
                best_score = score;
                best_set = combination.clone();
            }
            // next combination in lexicographic order
            let mut i = l;
            loop {
                if i == 0 {
                    return best_set;
                }
                i -= 1;
                if combination[i] != i + n - l {
                    combination[i] += 1;
                    for j in (i + 1)..l {
                        combination[j] = combination[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::precompute::PrecomputeConfig;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::KeywordSet;

    fn graph() -> SocialNetwork {
        DatasetSpec::new(DatasetKind::Uniform, 200, 21)
            .with_keyword_domain(10)
            .generate()
    }

    fn index(g: &SocialNetwork) -> CommunityIndex {
        IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_leaf_capacity(8)
        .build(g)
    }

    fn query(l: usize, n: usize) -> DTopLQuery {
        DTopLQuery::new(
            TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3, 4]), 3, 2, 0.2, l),
            n,
        )
    }

    #[test]
    fn greedy_strategies_agree_on_selection_quality() {
        let g = graph();
        let idx = index(&g);
        let processor = DTopLProcessor::new(&g, &idx);
        let q = query(3, 3);
        let wp = processor.run(&q, DTopLStrategy::GreedyWithPruning).unwrap();
        let wop = processor
            .run(&q, DTopLStrategy::GreedyWithoutPruning)
            .unwrap();
        // Lazy greedy and plain greedy pick sets with identical diversity
        // (the lazy version only skips redundant recomputations).
        assert!((wp.diversity_score - wop.diversity_score).abs() < 1e-6);
        assert_eq!(wp.communities.len(), wop.communities.len());
        assert!(
            wp.stats.diversity_pruned > 0,
            "lazy greedy should skip recomputations"
        );
    }

    #[test]
    fn greedy_achieves_high_fraction_of_optimal() {
        let g = graph();
        let idx = index(&g);
        let processor = DTopLProcessor::new(&g, &idx);
        let q = query(2, 3);
        let greedy = processor.run(&q, DTopLStrategy::GreedyWithPruning).unwrap();
        let optimal = processor.run(&q, DTopLStrategy::Optimal).unwrap();
        assert!(optimal.diversity_score + 1e-9 >= greedy.diversity_score);
        // (1 - 1/e) ≈ 0.63 guarantee; in practice the ratio is near 1
        assert!(
            greedy.diversity_score >= 0.63 * optimal.diversity_score,
            "greedy {} vs optimal {}",
            greedy.diversity_score,
            optimal.diversity_score
        );
    }

    #[test]
    fn diversity_no_larger_than_sum_of_scores() {
        let g = graph();
        let idx = index(&g);
        let q = query(3, 2);
        let answer = DTopLProcessor::new(&g, &idx)
            .run(&q, DTopLStrategy::GreedyWithPruning)
            .unwrap();
        let sum: f64 = answer.communities.iter().map(|c| c.influential_score).sum();
        assert!(answer.diversity_score <= sum + 1e-9);
        assert!(answer.diversity_score > 0.0);
        assert!(answer.communities.len() <= 3);
    }

    #[test]
    fn returns_at_most_l_communities_in_selection_order() {
        let g = graph();
        let idx = index(&g);
        let q = query(4, 2);
        let answer = DTopLProcessor::new(&g, &idx)
            .run(&q, DTopLStrategy::GreedyWithPruning)
            .unwrap();
        assert!(answer.communities.len() <= 4);
        // selection order: first pick is the highest influential score among
        // candidates (gain w.r.t. empty set equals the influential score)
        if answer.communities.len() > 1 {
            let first = answer.communities[0].influential_score;
            for c in &answer.communities[1..] {
                assert!(first + 1e-9 >= c.influential_score);
            }
        }
    }

    #[test]
    fn invalid_base_query_propagates_error() {
        let g = graph();
        let idx = index(&g);
        let bad = DTopLQuery::new(TopLQuery::new(KeywordSet::new(), 3, 2, 0.2, 3), 2);
        assert!(DTopLProcessor::new(&g, &idx)
            .run(&bad, DTopLStrategy::GreedyWithPruning)
            .is_err());
    }

    #[test]
    fn exhaustive_on_empty_candidate_set() {
        let g = graph();
        let idx = index(&g);
        // impossible keyword -> no candidates at all
        let q = DTopLQuery::new(TopLQuery::new(KeywordSet::from_ids([900]), 3, 2, 0.2, 2), 2);
        for strategy in [
            DTopLStrategy::GreedyWithPruning,
            DTopLStrategy::GreedyWithoutPruning,
            DTopLStrategy::Optimal,
        ] {
            let answer = DTopLProcessor::new(&g, &idx).run(&q, strategy).unwrap();
            assert!(answer.communities.is_empty());
            assert_eq!(answer.diversity_score, 0.0);
        }
    }

    #[test]
    fn repeated_queries_return_identical_bits() {
        // The benchmark's input family: a locality small world with weights
        // in [0.5, 0.6) and 3 of 12 uniform keywords per vertex. D(S) and
        // every marginal gain are sums over influenced communities, so the
        // same query must give the same picks and the same D(S) bits every
        // time it runs.
        use icde_graph::generators::{
            assign_keywords, assign_uniform_weights, small_world, KeywordDistribution,
            SmallWorldConfig, WeightRange,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(404);
        let mut g = small_world(&SmallWorldConfig::locality(2_000), &mut rng);
        assign_uniform_weights(&mut g, WeightRange::paper_default(), &mut rng);
        assign_keywords(&mut g, 12, 3, KeywordDistribution::Uniform, &mut rng);
        let idx = IndexBuilder::new(PrecomputeConfig::new(2, vec![0.15, 0.3])).build(&g);
        let processor = DTopLProcessor::new(&g, &idx);
        let mut differing = Vec::new();
        for i in 0..32usize {
            let keywords = (0..2 + i % 3).map(|j| ((i * 5 + j * 7) % 12) as u32);
            let base = TopLQuery::new(
                KeywordSet::from_ids(keywords),
                2 + (i / 3 % 2) as u32,
                1 + (i / 6 % 2) as u32,
                [0.15, 0.2, 0.25, 0.3][i % 4],
                1 + i % 8,
            );
            let q = DTopLQuery::new(base, 3);
            let first = processor.run(&q, DTopLStrategy::GreedyWithPruning).unwrap();
            let again = processor.run(&q, DTopLStrategy::GreedyWithPruning).unwrap();
            let picks = |a: &DTopLAnswer| -> Vec<_> {
                a.communities
                    .iter()
                    .map(|c| (c.center, c.vertices.clone()))
                    .collect()
            };
            if first.diversity_score.to_bits() != again.diversity_score.to_bits()
                || picks(&first) != picks(&again)
            {
                differing.push(i);
            }
        }
        assert!(
            differing.is_empty(),
            "queries {differing:?} changed on a repeat"
        );
    }

    #[test]
    fn default_multiplier_is_three() {
        let q =
            DTopLQuery::with_default_multiplier(TopLQuery::with_defaults(KeywordSet::from_ids([
                1,
            ])));
        assert_eq!(q.candidate_multiplier, 3);
    }
}
