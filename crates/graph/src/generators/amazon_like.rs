//! Amazon-like co-purchase graph generator.
//!
//! The real Amazon graph in the paper (335K vertices, 926K edges) is an
//! "Also Bought" network: two products are connected when customers
//! co-purchase them. Such networks combine a heavy-tailed degree
//! distribution (popular products are co-purchased with many others) with
//! local clustering (products in the same category form small dense
//! pockets).
//!
//! The generator uses preferential attachment for the degree skew plus a
//! triadic-closure step for the clustering: each new product connects to a
//! few existing products chosen proportionally to their degree, and with some
//! probability also to a neighbour of one of those products (closing a
//! triangle, as category-mates tend to be co-purchased together).

use super::dblp_like::connect_isolated_vertices;
use crate::builder::GraphBuilder;
use crate::graph::SocialNetwork;
use crate::types::VertexId;
use rand::Rng;
use serde::Serialize;

/// Parameters of the Amazon-like co-purchase generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AmazonLikeConfig {
    /// Number of products (vertices).
    pub num_vertices: usize,
    /// Edges added per new product (preferential attachment `m`).
    pub edges_per_vertex: usize,
    /// Probability of closing a triangle for each attachment edge.
    pub triadic_closure_probability: f64,
}

impl AmazonLikeConfig {
    /// Default configuration producing ≈2.8 edges per vertex, close to the
    /// real Amazon edge/vertex ratio (926K / 335K ≈ 2.8).
    pub fn with_vertices(num_vertices: usize) -> Self {
        AmazonLikeConfig {
            num_vertices,
            edges_per_vertex: 3,
            triadic_closure_probability: 0.4,
        }
    }
}

/// Generates an Amazon-like co-purchase network. Edges carry a placeholder
/// weight of 0.5 until [`super::assign_uniform_weights`] is run.
///
/// # Panics
/// Panics if `num_vertices <= edges_per_vertex + 1`, `edges_per_vertex == 0`,
/// or `triadic_closure_probability` is not a probability.
pub fn amazon_like<R: Rng>(config: &AmazonLikeConfig, rng: &mut R) -> SocialNetwork {
    let n = config.num_vertices;
    let m = config.edges_per_vertex;
    assert!(m >= 1, "edges_per_vertex must be at least 1");
    assert!(n > m + 1, "need more than edges_per_vertex + 1 vertices");
    assert!(
        (0.0..=1.0).contains(&config.triadic_closure_probability),
        "triadic_closure_probability must be in [0, 1], got {}",
        config.triadic_closure_probability
    );

    let mut b = GraphBuilder::with_vertices(n);

    // Seed core: a small clique so early attachments have targets and the
    // graph contains triangles from the start.
    let core = (m + 1).min(n);
    for i in 0..core {
        for j in (i + 1)..core {
            b.try_add_symmetric_edge(VertexId::from_index(i), VertexId::from_index(j), 0.5);
        }
    }

    // `attachment_pool` holds one entry per edge endpoint, so sampling from
    // it is degree-proportional (the classic Barabási–Albert trick).
    let mut attachment_pool: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    for (u, v) in b.buffered_edges() {
        attachment_pool.push(u);
        attachment_pool.push(v);
    }

    for new in core..n {
        let v = VertexId::from_index(new);
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m && guard < m * 20 {
            guard += 1;
            let target = attachment_pool[rng.gen_range(0..attachment_pool.len())];
            if target == v || !b.try_add_symmetric_edge(v, target, 0.5) {
                continue;
            }
            attachment_pool.push(v);
            attachment_pool.push(target);
            added += 1;

            // Triadic closure: also co-purchase one of the target's existing
            // neighbours, creating a triangle v-target-w. The builder mirror
            // is insertion-ordered, so sort to keep the RNG-indexed pick
            // identical to the seed store's ascending neighbour lists.
            if rng.gen_bool(config.triadic_closure_probability) {
                let mut neighbors: Vec<VertexId> = b
                    .neighbor_ids(target)
                    .iter()
                    .copied()
                    .filter(|w| *w != v)
                    .collect();
                neighbors.sort_unstable();
                if !neighbors.is_empty() {
                    let w = neighbors[rng.gen_range(0..neighbors.len())];
                    if b.try_add_symmetric_edge(v, w, 0.5) {
                        attachment_pool.push(v);
                        attachment_pool.push(w);
                    }
                }
            }
        }
    }

    connect_isolated_vertices(&mut b, rng);
    b.build().expect("generator buffers only admissible edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_co_purchase_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = amazon_like(&AmazonLikeConfig::with_vertices(2000), &mut rng);
        assert_eq!(g.num_vertices(), 2000);
        let ratio = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(ratio > 2.0 && ratio < 6.0, "edge/vertex ratio {ratio}");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = amazon_like(&AmazonLikeConfig::with_vertices(3000), &mut rng);
        let max_deg = g.max_degree() as f64;
        let avg_deg = g.average_degree();
        // preferential attachment produces hubs far above the average degree
        assert!(max_deg > avg_deg * 4.0, "max={max_deg} avg={avg_deg}");
    }

    #[test]
    fn triadic_closure_creates_triangles() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = amazon_like(&AmazonLikeConfig::with_vertices(1500), &mut rng);
        let triangle_edges = g
            .edges()
            .filter(|&(_, u, v)| g.common_neighbor_count(u, v) > 0)
            .count();
        assert!(
            triangle_edges * 4 > g.num_edges(),
            "too few triangle edges: {triangle_edges}/{}",
            g.num_edges()
        );
    }

    #[test]
    fn graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = amazon_like(&AmazonLikeConfig::with_vertices(800), &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = AmazonLikeConfig::with_vertices(400);
        let a = amazon_like(&cfg, &mut StdRng::seed_from_u64(9));
        let b = amazon_like(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "edges_per_vertex")]
    fn zero_attachment_panics() {
        let cfg = AmazonLikeConfig {
            edges_per_vertex: 0,
            ..AmazonLikeConfig::with_vertices(100)
        };
        let _ = amazon_like(&cfg, &mut StdRng::seed_from_u64(0));
    }
}
