//! DBLP-like co-authorship graph generator.
//!
//! The real DBLP graph used in the paper (317K vertices, 1.05M edges) is a
//! co-authorship network: two authors are connected if they co-authored at
//! least one paper. Structurally this produces many small overlapping
//! cliques (one per paper's author list) glued together by prolific authors,
//! giving high triangle density and strong community structure — exactly the
//! features k-truss-based seed communities are sensitive to.
//!
//! This generator reproduces that process directly: it synthesises "papers"
//! with 2–5 authors each, biasing author selection toward a local window of
//! the id space (research communities) with occasional cross-community
//! collaborations, and inserts a clique over each author list.

use crate::builder::GraphBuilder;
use crate::graph::SocialNetwork;
use crate::types::VertexId;
use rand::Rng;
use serde::Serialize;

/// Parameters of the DBLP-like co-authorship generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DblpLikeConfig {
    /// Number of authors (vertices).
    pub num_vertices: usize,
    /// Average number of papers per author; total papers ≈
    /// `num_vertices * papers_per_author / avg authors per paper`.
    pub papers_per_author: f64,
    /// Minimum authors per paper.
    pub min_authors: usize,
    /// Maximum authors per paper (clique size cap).
    pub max_authors: usize,
    /// Size of the "research community" window from which co-authors are
    /// preferentially drawn.
    pub community_window: usize,
    /// Probability that a co-author is drawn globally instead of from the
    /// local community window (cross-community collaboration).
    pub cross_community_probability: f64,
}

impl DblpLikeConfig {
    /// Default configuration producing roughly 3.3 edges per vertex, close to
    /// the real DBLP edge/vertex ratio (1.05M / 317K ≈ 3.3).
    pub fn with_vertices(num_vertices: usize) -> Self {
        DblpLikeConfig {
            num_vertices,
            papers_per_author: 1.5,
            min_authors: 2,
            max_authors: 5,
            community_window: 50,
            cross_community_probability: 0.1,
        }
    }
}

/// Generates a DBLP-like co-authorship network. Edges carry a placeholder
/// weight of 0.5 until [`super::assign_uniform_weights`] is run.
///
/// # Panics
/// Panics if `num_vertices < max_authors`, the author bounds are invalid, or
/// `cross_community_probability` is not a probability.
pub fn dblp_like<R: Rng>(config: &DblpLikeConfig, rng: &mut R) -> SocialNetwork {
    let n = config.num_vertices;
    assert!(
        config.min_authors >= 2 && config.max_authors >= config.min_authors,
        "author bounds must satisfy 2 <= min <= max"
    );
    assert!(
        n > config.max_authors,
        "need more vertices than the largest author list"
    );
    assert!(
        (0.0..=1.0).contains(&config.cross_community_probability),
        "cross_community_probability must be in [0, 1], got {}",
        config.cross_community_probability
    );

    let mut b = GraphBuilder::with_vertices(n);

    let avg_authors = (config.min_authors + config.max_authors) as f64 / 2.0;
    let num_papers = ((n as f64 * config.papers_per_author) / avg_authors).ceil() as usize;

    let mut authors: Vec<VertexId> = Vec::with_capacity(config.max_authors);
    for _ in 0..num_papers {
        // Lead author chosen uniformly; co-authors from the lead's community
        // window, with occasional global collaborators.
        let lead = rng.gen_range(0..n);
        let paper_size = rng.gen_range(config.min_authors..=config.max_authors);
        authors.clear();
        authors.push(VertexId::from_index(lead));
        let window = config.community_window.max(paper_size + 1);
        let window_start = lead
            .saturating_sub(window / 2)
            .min(n.saturating_sub(window));
        let mut attempts = 0;
        while authors.len() < paper_size && attempts < paper_size * 16 {
            attempts += 1;
            let candidate = if rng.gen_bool(config.cross_community_probability) {
                rng.gen_range(0..n)
            } else {
                window_start + rng.gen_range(0..window.min(n - window_start))
            };
            let candidate = VertexId::from_index(candidate);
            if !authors.contains(&candidate) {
                authors.push(candidate);
            }
        }
        // Clique over the author list: co-authorship connects every pair.
        for i in 0..authors.len() {
            for j in (i + 1)..authors.len() {
                b.try_add_symmetric_edge(authors[i], authors[j], 0.5);
            }
        }
    }

    connect_isolated_vertices(&mut b, rng);
    b.build().expect("generator buffers only admissible edges")
}

/// Ensures no vertex is left isolated (the paper's social network is
/// connected); every isolated vertex is attached to a random neighbour.
pub(crate) fn connect_isolated_vertices<R: Rng>(b: &mut GraphBuilder, rng: &mut R) {
    let n = b.num_vertices();
    if n < 2 {
        return;
    }
    for i in 0..n {
        let v = VertexId::from_index(i);
        if b.degree(v) == 0 {
            loop {
                let other = VertexId::from_index(rng.gen_range(0..n));
                if other != v {
                    b.try_add_symmetric_edge(v, other, 0.5);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_co_authorship_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = dblp_like(&DblpLikeConfig::with_vertices(2000), &mut rng);
        assert_eq!(g.num_vertices(), 2000);
        let ratio = g.num_edges() as f64 / g.num_vertices() as f64;
        // real DBLP has ~3.3 edges per vertex; accept a broad band
        assert!(ratio > 1.5 && ratio < 6.0, "edge/vertex ratio {ratio}");
    }

    #[test]
    fn no_isolated_vertices() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = dblp_like(&DblpLikeConfig::with_vertices(500), &mut rng);
        for v in g.vertices() {
            assert!(g.degree(v) >= 1, "vertex {v} is isolated");
        }
    }

    #[test]
    fn papers_create_triangles() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = dblp_like(&DblpLikeConfig::with_vertices(1000), &mut rng);
        // at least some edges must participate in a triangle because every
        // >=3-author paper is a clique
        let mut triangle_edges = 0usize;
        for (_, u, v) in g.edges() {
            if g.common_neighbor_count(u, v) > 0 {
                triangle_edges += 1;
            }
        }
        assert!(
            triangle_edges * 3 > g.num_edges(),
            "too few triangle edges: {triangle_edges}/{}",
            g.num_edges()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DblpLikeConfig::with_vertices(300);
        let a = dblp_like(&cfg, &mut StdRng::seed_from_u64(42));
        let b = dblp_like(&cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "author bounds")]
    fn invalid_author_bounds_panic() {
        let cfg = DblpLikeConfig {
            min_authors: 1,
            ..DblpLikeConfig::with_vertices(100)
        };
        let _ = dblp_like(&cfg, &mut StdRng::seed_from_u64(0));
    }
}
