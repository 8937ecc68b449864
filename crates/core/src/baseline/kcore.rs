//! k-core community baseline for the Figure 5 case study.
//!
//! The paper's case study compares the Top1-ICDE seed community against the
//! k-core community around the same centre vertex: the k-core tends to
//! include more seed users but, because it ignores triangle cohesion,
//! keywords and influence, its influenced community is smaller and its
//! influential score lower.

use icde_graph::{SocialNetwork, VertexId};
use icde_influence::{InfluenceConfig, InfluenceEvaluator};
use icde_truss::kcore::maximal_kcore_containing;
use serde::Serialize;

/// The k-core community around a centre vertex together with its influence
/// metrics (same fields the case study reports).
#[derive(Debug, Clone, Serialize)]
pub struct KCoreCommunity {
    /// The centre vertex the community was grown from.
    pub center: VertexId,
    /// Members of the connected k-core containing the centre.
    pub vertices: icde_graph::VertexSubset,
    /// Influential score `σ(g)` of the community under the given threshold.
    pub influential_score: f64,
    /// Size of the influenced community `g^Inf`.
    pub influenced_size: usize,
}

/// Extracts the connected k-core containing `center` and evaluates its
/// influence under threshold `theta`. Returns `None` when the centre's core
/// number is below `k`.
pub fn kcore_community(
    g: &SocialNetwork,
    center: VertexId,
    k: u32,
    theta: f64,
) -> Option<KCoreCommunity> {
    let vertices = maximal_kcore_containing(g, center, k)?;
    let evaluator = InfluenceEvaluator::new(g, InfluenceConfig { theta });
    let influenced = evaluator.influenced_community(&vertices);
    Some(KCoreCommunity {
        center,
        influential_score: influenced.influential_score(),
        influenced_size: influenced.len(),
        vertices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_graph::generators::{DatasetKind, DatasetSpec};

    #[test]
    fn kcore_community_has_consistent_metrics() {
        let g = DatasetSpec::new(DatasetKind::AmazonLike, 300, 5).generate();
        // find some centre that belongs to a 3-core
        let cores = icde_truss::kcore::core_numbers(&g);
        let center = g
            .vertices()
            .find(|v| cores[v.index()] >= 3)
            .expect("amazon-like graphs contain a 3-core");
        let community = kcore_community(&g, center, 3, 0.2).unwrap();
        assert!(community.vertices.contains(center));
        assert!(community.influenced_size >= community.vertices.len());
        assert!(community.influential_score >= community.vertices.len() as f64);
        // every member indeed has core number >= 3
        for v in community.vertices.iter() {
            assert!(cores[v.index()] >= 3);
        }
    }

    #[test]
    fn missing_core_returns_none() {
        let g = DatasetSpec::new(DatasetKind::Uniform, 100, 6).generate();
        let max_core = icde_truss::kcore::degeneracy(&g);
        assert!(kcore_community(&g, VertexId(0), max_core + 5, 0.2).is_none());
    }
}
