//! Descriptive statistics of social networks.
//!
//! Used by the dataset-statistics report (Table II), by the generator tests
//! (to check that the DBLP-like / Amazon-like stand-ins have realistic degree
//! skew and clustering) and by applications that want a quick structural
//! profile of a loaded graph.

use crate::graph::SocialNetwork;
use crate::traversal::{bfs_within_with, connected_components};
use crate::types::VertexId;
use crate::workspace::with_thread_workspace;
use serde::Serialize;

/// Summary statistics of one social network.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphStatistics {
    /// Number of vertices `|V(G)|`.
    pub num_vertices: usize,
    /// Number of undirected edges `|E(G)|`.
    pub num_edges: usize,
    /// Average degree `2|E|/|V|`.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Median degree.
    pub median_degree: usize,
    /// Number of connected components.
    pub connected_components: usize,
    /// Size of the largest connected component.
    pub largest_component: usize,
    /// Average keyword-set size over all vertices.
    pub average_keywords_per_vertex: f64,
    /// Number of distinct keywords observed (the realised `|Σ|`).
    pub distinct_keywords: usize,
    /// Lower bound of the diameter obtained from a double-sweep BFS over the
    /// largest component (exact diameters are too expensive at 1M vertices).
    pub diameter_lower_bound: u32,
}

/// Computes summary statistics for `g`.
pub fn graph_statistics(g: &SocialNetwork) -> GraphStatistics {
    let n = g.num_vertices();
    let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let median_degree = if degrees.is_empty() {
        0
    } else {
        degrees[degrees.len() / 2]
    };

    let components = connected_components(g);
    let largest_component = components.first().map_or(0, |c| c.len());

    let mut keyword_total = 0usize;
    let mut distinct = std::collections::HashSet::new();
    for v in g.vertices() {
        let set = g.keyword_set(v);
        keyword_total += set.len();
        for kw in set.iter() {
            distinct.insert(kw);
        }
    }

    GraphStatistics {
        num_vertices: n,
        num_edges: g.num_edges(),
        average_degree: g.average_degree(),
        max_degree: g.max_degree(),
        median_degree,
        connected_components: components.len(),
        largest_component,
        average_keywords_per_vertex: if n == 0 {
            0.0
        } else {
            keyword_total as f64 / n as f64
        },
        distinct_keywords: distinct.len(),
        diameter_lower_bound: diameter_lower_bound(g),
    }
}

/// Double-sweep BFS lower bound on the diameter: BFS from an arbitrary
/// vertex, then BFS again from the farthest vertex found; the eccentricity of
/// the second sweep lower-bounds the diameter.
pub fn diameter_lower_bound(g: &SocialNetwork) -> u32 {
    if g.num_vertices() == 0 {
        return 0;
    }
    with_thread_workspace(|ws| {
        let first = bfs_within_with(ws, g, VertexId(0), u32::MAX);
        // BFS order is non-decreasing in distance: the last vertex is (one
        // of) the farthest
        match first.distances.last() {
            Some(&(farthest, _)) => bfs_within_with(ws, g, farthest, u32::MAX).max_distance(),
            None => 0,
        }
    })
}

/// Per-degree histogram: `histogram[d]` is the number of vertices with degree
/// `d` (vector length = max degree + 1; empty for the empty graph).
pub fn degree_histogram(g: &SocialNetwork) -> Vec<usize> {
    if g.num_vertices() == 0 {
        return Vec::new();
    }
    let mut histogram = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        histogram[g.degree(v)] += 1;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{DatasetKind, DatasetSpec};
    use crate::keywords::KeywordSet;

    #[test]
    fn statistics_of_small_known_graph() {
        // path 0-1-2 with keywords
        let mut b = crate::builder::GraphBuilder::new();
        for kw in [1u32, 2, 2] {
            b.add_vertex(KeywordSet::from_ids([kw]));
        }
        b.add_symmetric_edge(VertexId(0), VertexId(1), 0.5);
        b.add_symmetric_edge(VertexId(1), VertexId(2), 0.5);
        let g = b.build().unwrap();
        let stats = graph_statistics(&g);
        assert_eq!(stats.num_vertices, 3);
        assert_eq!(stats.num_edges, 2);
        assert_eq!(stats.max_degree, 2);
        assert_eq!(stats.median_degree, 1);
        assert_eq!(stats.connected_components, 1);
        assert_eq!(stats.largest_component, 3);
        assert_eq!(stats.distinct_keywords, 2);
        assert!((stats.average_keywords_per_vertex - 1.0).abs() < 1e-12);
        assert_eq!(stats.diameter_lower_bound, 2);
    }

    #[test]
    fn degree_histogram_sums_to_vertex_count() {
        let g = DatasetSpec::new(DatasetKind::AmazonLike, 500, 2).generate();
        let histogram = degree_histogram(&g);
        assert_eq!(histogram.iter().sum::<usize>(), g.num_vertices());
        assert_eq!(histogram.len(), g.max_degree() + 1);
    }

    #[test]
    fn generated_graphs_are_mostly_connected() {
        let g = DatasetSpec::new(DatasetKind::Uniform, 400, 4).generate();
        let stats = graph_statistics(&g);
        assert_eq!(stats.connected_components, 1);
        assert_eq!(stats.largest_component, 400);
        assert!(stats.diameter_lower_bound >= 2);
    }

    #[test]
    fn empty_graph_statistics() {
        let stats = graph_statistics(&SocialNetwork::new());
        assert_eq!(stats.num_vertices, 0);
        assert_eq!(stats.connected_components, 0);
        assert_eq!(stats.diameter_lower_bound, 0);
        assert!(degree_histogram(&SocialNetwork::new()).is_empty());
    }
}
