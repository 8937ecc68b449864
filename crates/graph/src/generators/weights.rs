//! Edge-weight (activation probability) assignment.
//!
//! Section VIII-A: "For each edge `e_{u,v}` in graph G, we randomly generate
//! a value within the interval `[0.5, 0.6)` as the edge weight `p_{u,v}`."
//! The two directions of an edge are drawn independently, matching the
//! directed influence weights in Figure 1 of the paper.

use crate::graph::SocialNetwork;
use crate::types::Weight;
use rand::Rng;
use serde::Serialize;

/// Half-open interval `[low, high)` from which activation probabilities are
/// drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WeightRange {
    /// Inclusive lower bound.
    pub low: Weight,
    /// Exclusive upper bound.
    pub high: Weight,
}

impl WeightRange {
    /// Creates a range after validating `0 ≤ low < high ≤ 1`.
    ///
    /// # Panics
    /// Panics if the bounds are not valid probabilities or `low >= high`.
    pub fn new(low: Weight, high: Weight) -> Self {
        assert!(
            (0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low < high,
            "weight range must satisfy 0 <= low < high <= 1, got [{low}, {high})"
        );
        WeightRange { low, high }
    }

    /// The paper's range `[0.5, 0.6)`.
    pub fn paper_default() -> Self {
        WeightRange {
            low: 0.5,
            high: 0.6,
        }
    }

    /// Draws a weight from the range.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Weight {
        rng.gen_range(self.low..self.high)
    }

    /// Returns `true` if `w` lies inside the range.
    pub fn contains(&self, w: Weight) -> bool {
        w >= self.low && w < self.high
    }
}

/// Re-draws both directed activation probabilities of every edge uniformly
/// from `range`.
pub fn assign_uniform_weights<R: Rng>(g: &mut SocialNetwork, range: WeightRange, rng: &mut R) {
    let updates: Vec<_> = g
        .edges()
        .map(|(e, _, _)| (e, range.sample(rng), range.sample(rng)))
        .collect();
    g.set_edge_weights_bulk(&updates)
        .expect("weights sampled from a validated range are valid probabilities");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::small_world::{small_world, SmallWorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_bounds() {
        let r = WeightRange::paper_default();
        assert_eq!(r.low, 0.5);
        assert_eq!(r.high, 0.6);
        assert!(r.contains(0.55));
        assert!(!r.contains(0.6));
        assert!(!r.contains(0.49));
    }

    #[test]
    #[should_panic(expected = "weight range")]
    fn invalid_range_panics() {
        let _ = WeightRange::new(0.7, 0.6);
    }

    #[test]
    fn sample_stays_in_range() {
        let r = WeightRange::new(0.2, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let w = r.sample(&mut rng);
            assert!(r.contains(w));
        }
    }

    #[test]
    fn assign_covers_every_edge_both_directions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = small_world(&SmallWorldConfig::paper_default(80), &mut rng);
        assign_uniform_weights(&mut g, WeightRange::paper_default(), &mut rng);
        let r = WeightRange::paper_default();
        for (e, u, v) in g.edges() {
            assert!(r.contains(g.directed_weight(e, u)));
            assert!(r.contains(g.directed_weight(e, v)));
        }
    }
}
