//! Edge support computation.
//!
//! The support `sup(e_{u,v})` of an edge is the number of triangles that
//! contain it. Definition 2 requires every edge of a seed community to have
//! support at least `k − 2` inside the community; the support pruning rule
//! (Lemma 2) uses the support in the *data graph* (or any supergraph) as an
//! upper bound `ub_sup(e_{u,v})`, because a subgraph can only lose triangles.

use crate::local::LocalSubgraph;
use icde_graph::{EdgeId, SocialNetwork, VertexSubset};

/// Computes the support of every edge of the data graph `G` (the upper bound
/// `ub_sup(e)` used by support pruning), indexed by [`EdgeId`].
///
/// The vector spans the full edge-id space, so on a graph with a delta
/// overlay attached the slots of tombstoned ids stay 0.
pub fn edge_supports_global(g: &SocialNetwork) -> Vec<u32> {
    let mut supports = vec![0u32; g.edge_id_space()];
    for (e, u, v) in g.edges() {
        supports[e.index()] = g.common_neighbor_count(u, v) as u32;
    }
    supports
}

/// Computes the support of every edge of the subgraph induced by `subset`.
///
/// Returns `(edge supports, local view)` so callers can keep using the local
/// index translation.
pub fn edge_supports_in_subset(
    g: &SocialNetwork,
    subset: &VertexSubset,
) -> (Vec<u32>, LocalSubgraph) {
    let local = LocalSubgraph::new(g, subset);
    (local.edge_supports(), local)
}

/// Maximum edge support inside the subgraph induced by `subset`
/// (`v_i.ub_sup_r` from Algorithm 2 when `subset = hop(v_i, r)`).
///
/// Returns 0 for subgraphs with no edges.
pub fn max_edge_support(g: &SocialNetwork, subset: &VertexSubset) -> u32 {
    let (supports, _) = edge_supports_in_subset(g, subset);
    supports.into_iter().max().unwrap_or(0)
}

/// Support of a single global edge in the full data graph.
pub fn support_of_edge(g: &SocialNetwork, e: EdgeId) -> u32 {
    let (u, v) = g.edge_endpoints(e);
    g.common_neighbor_count(u, v) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_graph::VertexId;

    /// K4 on {0..3} plus a pendant edge 3-4.
    fn k4_plus_pendant() -> SocialNetwork {
        let mut b = icde_graph::GraphBuilder::with_vertices(5);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_symmetric_edge(VertexId(i), VertexId(j), 0.5);
            }
        }
        b.add_symmetric_edge(VertexId(3), VertexId(4), 0.5);
        b.build().unwrap()
    }

    #[test]
    fn global_supports_match_triangles() {
        let g = k4_plus_pendant();
        let sup = edge_supports_global(&g);
        for (e, u, v) in g.edges() {
            if v == VertexId(4) || u == VertexId(4) {
                assert_eq!(sup[e.index()], 0);
            } else {
                assert_eq!(sup[e.index()], 2, "edge {u}-{v}");
            }
            assert_eq!(sup[e.index()], support_of_edge(&g, e));
        }
    }

    #[test]
    fn subset_supports_shrink() {
        let g = k4_plus_pendant();
        let subset = VertexSubset::from_iter([0, 1, 2].map(VertexId));
        let (sup, local) = edge_supports_in_subset(&g, &subset);
        assert_eq!(local.num_edges(), 3);
        assert!(sup.iter().all(|&s| s == 1));
        // subgraph support never exceeds the data-graph support (Lemma 2 premise)
        let global = edge_supports_global(&g);
        for (le, &(lu, lv)) in (0..local.num_edges()).zip(local_edges(&local).iter()) {
            let gu = local.global(lu);
            let gv = local.global(lv);
            let ge = g.edge_between(gu, gv).unwrap();
            assert!(sup[le] <= global[ge.index()]);
        }
    }

    fn local_edges(local: &LocalSubgraph) -> Vec<(usize, usize)> {
        (0..local.num_edges()).map(|e| local.edge(e)).collect()
    }

    #[test]
    fn max_support_of_hop_subgraph() {
        let g = k4_plus_pendant();
        let all = VertexSubset::from_iter(g.vertices());
        assert_eq!(max_edge_support(&g, &all), 2);
        let pair = VertexSubset::from_iter([3, 4].map(VertexId));
        assert_eq!(max_edge_support(&g, &pair), 0);
        assert_eq!(max_edge_support(&g, &VertexSubset::new()), 0);
    }
}
