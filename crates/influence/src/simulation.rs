//! Monte-Carlo Independent Cascade (IC) simulation.
//!
//! The MIA model used throughout the paper is itself an approximation of the
//! Independent Cascade diffusion process (Kempe et al.): it keeps only the
//! single most probable influence path to each user. This module provides a
//! reference IC simulator so that
//!
//! * tests can check that MIA-based influential scores are *correlated* with
//!   simulated spreads (communities ranked higher by `σ(g)` should not spread
//!   less when actually simulated), and
//! * applications can re-validate a chosen seed community with the more
//!   expensive but less biased estimator before committing a campaign to it.
//!
//! The simulator activates the seed set, then repeatedly gives every newly
//! activated user one chance to activate each inactive neighbour `v` with
//! probability `p_{u,v}`, until no new activation happens; the *spread* is
//! the number of activated users, averaged over `runs` rounds.

use icde_graph::{SocialNetwork, VertexId, VertexSubset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Result of a Monte-Carlo IC estimation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpreadEstimate {
    /// Mean number of activated users (seed included) over all runs.
    pub mean_spread: f64,
    /// Sample standard deviation of the spread.
    pub std_dev: f64,
    /// Number of simulation runs.
    pub runs: usize,
}

impl SpreadEstimate {
    /// Half-width of a crude 95% confidence interval (`1.96 · σ / √runs`).
    pub fn confidence_half_width(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            1.96 * self.std_dev / (self.runs as f64).sqrt()
        }
    }
}

/// Runs one IC cascade from `seed` and returns the number of activated users.
pub fn simulate_cascade_once<R: Rng>(g: &SocialNetwork, seed: &VertexSubset, rng: &mut R) -> usize {
    let mut active = vec![false; g.num_vertices()];
    let mut frontier: Vec<VertexId> = Vec::with_capacity(seed.len());
    for v in seed.iter() {
        if !active[v.index()] {
            active[v.index()] = true;
            frontier.push(v);
        }
    }
    let mut activated = frontier.len();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for (v, p) in g.outgoing(u) {
                if !active[v.index()] && rng.gen_bool(p.clamp(0.0, 1.0)) {
                    active[v.index()] = true;
                    activated += 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    activated
}

/// Estimates the expected IC spread of `seed` over `runs` Monte-Carlo rounds
/// with a fixed RNG seed (reproducible).
pub fn estimate_spread(
    g: &SocialNetwork,
    seed: &VertexSubset,
    runs: usize,
    rng_seed: u64,
) -> SpreadEstimate {
    assert!(runs > 0, "at least one simulation run is required");
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let samples: Vec<f64> = (0..runs)
        .map(|_| simulate_cascade_once(g, seed, &mut rng) as f64)
        .collect();
    let mean = samples.iter().sum::<f64>() / runs as f64;
    let variance = if runs > 1 {
        samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (runs as f64 - 1.0)
    } else {
        0.0
    };
    SpreadEstimate {
        mean_spread: mean,
        std_dev: variance.sqrt(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influenced::{InfluenceConfig, InfluenceEvaluator};
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::KeywordSet;

    #[test]
    fn spread_always_includes_the_seed() {
        let g = DatasetSpec::new(DatasetKind::Uniform, 200, 1).generate();
        let seed = VertexSubset::from_iter([VertexId(0), VertexId(1)]);
        let estimate = estimate_spread(&g, &seed, 20, 7);
        assert!(estimate.mean_spread >= seed.len() as f64);
        assert!(estimate.mean_spread <= g.num_vertices() as f64);
        assert!(estimate.confidence_half_width() >= 0.0);
    }

    #[test]
    fn deterministic_for_fixed_rng_seed() {
        let g = DatasetSpec::new(DatasetKind::Zipf, 150, 2).generate();
        let seed = VertexSubset::from_iter([VertexId(3)]);
        let a = estimate_spread(&g, &seed, 10, 42);
        let b = estimate_spread(&g, &seed, 10, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_seed_spreads_nowhere() {
        let mut b = icde_graph::GraphBuilder::new();
        let a = b.add_vertex(KeywordSet::new());
        b.add_vertex(KeywordSet::new());
        let g = b.build().unwrap();
        let estimate = estimate_spread(&g, &VertexSubset::from_iter([a]), 5, 1);
        assert_eq!(estimate.mean_spread, 1.0);
        assert_eq!(estimate.std_dev, 0.0);
    }

    #[test]
    fn larger_seeds_spread_at_least_as_far() {
        // Monte-Carlo estimates fluctuate, so compare means with a slack of a
        // few standard errors; the larger seed contains the smaller one plus
        // two extra users, so its expected spread is strictly larger.
        let g = DatasetSpec::new(DatasetKind::Uniform, 300, 9).generate();
        let small = VertexSubset::from_iter([VertexId(0)]);
        let large = VertexSubset::from_iter([VertexId(0), VertexId(10), VertexId(20)]);
        let s = estimate_spread(&g, &small, 200, 5);
        let l = estimate_spread(&g, &large, 200, 5);
        let slack = 3.0 * (s.confidence_half_width() + l.confidence_half_width()).max(0.5);
        assert!(
            l.mean_spread + slack >= s.mean_spread,
            "large {} vs small {} (slack {slack})",
            l.mean_spread,
            s.mean_spread
        );
    }

    #[test]
    fn mia_score_correlates_with_simulated_spread() {
        // Rank a handful of 1-hop-ball "communities" by MIA score and by
        // simulated spread; the two rankings must agree on which of the
        // extreme pair is larger (weak but meaningful correlation check).
        let g = DatasetSpec::new(DatasetKind::AmazonLike, 400, 11).generate();
        let evaluator = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.1));
        let centers: Vec<VertexId> = (0..8u32).map(VertexId).collect();
        let mut scored: Vec<(f64, f64)> = centers
            .iter()
            .map(|&c| {
                let ball = icde_graph::traversal::hop_subgraph(&g, c, 1);
                let mia = evaluator.influential_score(&ball);
                let sim = estimate_spread(&g, &ball, 30, 13).mean_spread;
                (mia, sim)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let lowest = scored.first().unwrap();
        let highest = scored.last().unwrap();
        assert!(
            highest.1 >= lowest.1,
            "community with the larger MIA score should not spread less: {scored:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_runs_panics() {
        let g = DatasetSpec::new(DatasetKind::Uniform, 50, 1).generate();
        let _ = estimate_spread(&g, &VertexSubset::from_iter([VertexId(0)]), 0, 1);
    }
}
