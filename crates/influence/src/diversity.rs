//! Diversity scores for DTopL-ICDE (Eq. (6)).
//!
//! The diversity score of a set `S` of seed communities is
//! `D(S) = Σ_v max_{g ∈ S} cpp(g, v)`: every user counts once, with the best
//! influence any selected community exerts on them. The paper proves the
//! score is **monotone** and **submodular**, which is what makes the lazy
//! greedy algorithm (Lemma 9 / Algorithm 4) both correct and effective.
//!
//! [`DiversityState`] keeps the running per-vertex maximum, so the marginal
//! gain of a candidate — `ΔD_g(S) = D(S ∪ {g}) − D(S)` — is computed in time
//! proportional to the candidate's influenced community, not to `|S|`.
//! Every sum walks the communities in the given order and each community in
//! its expansion order ([`InfluencedCommunity::iter`]), never a hash map's,
//! so scores and gains repeat bit for bit.

use crate::influenced::InfluencedCommunity;
use icde_graph::{VertexId, Weight};
use std::collections::HashMap;

/// The diversity score `D(S)` of a set of influenced communities (Eq. (6)).
///
/// Vertices outside every influenced community contribute 0 (their `cpp` is
/// below the threshold for every selected community). Folds the communities
/// into a [`DiversityState`] in order, so the result has the same bits as
/// the state the greedy builds from the same picks.
pub fn diversity_score(communities: &[&InfluencedCommunity]) -> Weight {
    let mut state = DiversityState::new();
    for community in communities {
        state.add(community);
    }
    state.score()
}

/// The marginal gain `ΔD_g(S)` of adding `candidate` to the set whose
/// per-vertex maxima are already accumulated in `selected`.
pub fn marginal_gain(selected: &[&InfluencedCommunity], candidate: &InfluencedCommunity) -> Weight {
    let mut state = DiversityState::new();
    for s in selected {
        state.add(s);
    }
    state.gain(candidate)
}

/// Incrementally maintained diversity state: for every vertex touched by a
/// selected community, the best `cpp` seen so far.
#[derive(Debug, Clone, Default)]
pub struct DiversityState {
    best: HashMap<VertexId, Weight>,
    total: Weight,
}

impl DiversityState {
    /// Creates an empty state (`D(∅) = 0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current diversity score `D(S)`.
    pub fn score(&self) -> Weight {
        self.total
    }

    /// Number of distinct vertices influenced by the selected set.
    pub fn covered_vertices(&self) -> usize {
        self.best.len()
    }

    /// Marginal gain `ΔD_g(S)` of adding `candidate` without modifying the
    /// state.
    pub fn gain(&self, candidate: &InfluencedCommunity) -> Weight {
        let mut gain = 0.0;
        for (v, p) in candidate.iter() {
            let current = self.best.get(&v).copied().unwrap_or(0.0);
            if p > current {
                gain += p - current;
            }
        }
        gain
    }

    /// Adds `candidate` to the selected set, updating the per-vertex maxima;
    /// returns the realised marginal gain.
    pub fn add(&mut self, candidate: &InfluencedCommunity) -> Weight {
        let mut gain = 0.0;
        for (v, p) in candidate.iter() {
            let entry = self.best.entry(v).or_insert(0.0);
            if p > *entry {
                gain += p - *entry;
                *entry = p;
            }
        }
        self.total += gain;
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influenced::{InfluenceConfig, InfluenceEvaluator};
    use icde_graph::{SocialNetwork, VertexSubset};

    /// Two hubs (0 and 6) with partially overlapping neighbourhoods.
    fn two_hub_graph() -> SocialNetwork {
        let mut b = icde_graph::GraphBuilder::with_vertices(9);
        for n in [1u32, 2, 3, 4] {
            b.add_symmetric_edge(VertexId(0), VertexId(n), 0.8);
        }
        for n in [3u32, 4, 5, 7, 8] {
            b.add_symmetric_edge(VertexId(6), VertexId(n), 0.8);
        }
        b.build().unwrap()
    }

    fn communities(g: &SocialNetwork) -> (InfluencedCommunity, InfluencedCommunity) {
        let eval = InfluenceEvaluator::new(g, InfluenceConfig::new(0.5));
        let a = eval.influenced_community(&VertexSubset::from_iter([VertexId(0)]));
        let b = eval.influenced_community(&VertexSubset::from_iter([VertexId(6)]));
        (a, b)
    }

    #[test]
    fn single_community_diversity_equals_score() {
        let g = two_hub_graph();
        let (a, _) = communities(&g);
        assert!((diversity_score(&[&a]) - a.influential_score()).abs() < 1e-12);
        assert_eq!(diversity_score(&[]), 0.0);
    }

    #[test]
    fn overlap_reduces_combined_diversity() {
        let g = two_hub_graph();
        let (a, b) = communities(&g);
        let combined = diversity_score(&[&a, &b]);
        let sum = a.influential_score() + b.influential_score();
        assert!(
            combined < sum,
            "overlapping communities must not double-count"
        );
        assert!(combined >= a.influential_score().max(b.influential_score()));
    }

    #[test]
    fn diversity_is_monotone() {
        let g = two_hub_graph();
        let (a, b) = communities(&g);
        assert!(diversity_score(&[&a, &b]) >= diversity_score(&[&a]) - 1e-12);
        assert!(diversity_score(&[&a, &b]) >= diversity_score(&[&b]) - 1e-12);
    }

    #[test]
    fn diversity_is_submodular() {
        // gain of b w.r.t. {} must be >= gain of b w.r.t. {a}
        let g = two_hub_graph();
        let (a, b) = communities(&g);
        let gain_empty = marginal_gain(&[], &b);
        let gain_after_a = marginal_gain(&[&a], &b);
        assert!(gain_after_a <= gain_empty + 1e-12);
    }

    #[test]
    fn state_matches_batch_computation() {
        let g = two_hub_graph();
        let (a, b) = communities(&g);
        let mut state = DiversityState::new();
        let gain_a = state.add(&a);
        assert!((gain_a - a.influential_score()).abs() < 1e-12);
        let predicted_gain_b = state.gain(&b);
        let realised_gain_b = state.add(&b);
        assert!((predicted_gain_b - realised_gain_b).abs() < 1e-12);
        assert!((state.score() - diversity_score(&[&a, &b])).abs() < 1e-12);
        assert_eq!(state.covered_vertices(), diversity_covered(&[&a, &b]));
    }

    fn diversity_covered(communities: &[&InfluencedCommunity]) -> usize {
        let mut set = std::collections::HashSet::new();
        for c in communities {
            for (v, _) in c.iter() {
                set.insert(v);
            }
        }
        set.len()
    }

    #[test]
    fn gain_of_duplicate_community_is_zero() {
        let g = two_hub_graph();
        let (a, _) = communities(&g);
        let mut state = DiversityState::new();
        state.add(&a);
        assert!(state.gain(&a).abs() < 1e-12);
        assert!(state.add(&a).abs() < 1e-12);
    }
}
