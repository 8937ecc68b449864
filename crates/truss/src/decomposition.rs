//! Full truss decomposition: the trussness of every edge.
//!
//! The trussness `τ(e)` of an edge is the largest `k` such that `e` belongs
//! to the maximal k-truss of the graph. The ATindex baseline (Section
//! VIII-A) offline "pre-computes and indexes the trussness on vertices and
//! edges" and online filters vertices whose trussness is below `k`; this
//! module supplies that decomposition.
//!
//! The implementation is the standard bottom-up peeling: process edges in
//! increasing support order, fixing each edge's trussness as
//! `min(current support, peeled level) + 2` and decrementing the supports of
//! the edges that shared a triangle with it.

use icde_graph::{EdgeId, SocialNetwork, VertexId};

/// Result of a truss decomposition over the full data graph.
#[derive(Debug, Clone)]
pub struct TrussDecomposition {
    /// `edge_trussness[e]` — trussness τ(e) of edge `e`, indexed over the
    /// full edge-id space (≥ 2 for every live edge, 0 on tombstoned slots).
    pub edge_trussness: Vec<u32>,
    /// `vertex_trussness[v]` — maximum trussness over the edges incident to
    /// `v` (0 for isolated vertices).
    pub vertex_trussness: Vec<u32>,
}

impl TrussDecomposition {
    /// Trussness of a specific edge.
    pub fn edge(&self, e: EdgeId) -> u32 {
        self.edge_trussness[e.index()]
    }

    /// Trussness of a vertex (max over incident edges).
    pub fn vertex(&self, v: VertexId) -> u32 {
        self.vertex_trussness[v.index()]
    }

    /// Maximum trussness in the graph.
    pub fn max_trussness(&self) -> u32 {
        self.edge_trussness.iter().copied().max().unwrap_or(0)
    }
}

/// Computes the trussness of every edge (and the derived per-vertex maxima)
/// of the data graph.
pub fn truss_decomposition(g: &SocialNetwork) -> TrussDecomposition {
    // Dense per-edge arrays span the full id space: with a delta overlay
    // attached, tombstoned ids leave holes, so only live edges (`g.edges()`)
    // are seeded into the buckets and counted towards the peel target.
    let id_space = g.edge_id_space();
    let live = g.num_edges();
    let mut support: Vec<u32> = vec![0; id_space];
    for (e, u, v) in g.edges() {
        support[e.index()] = g.common_neighbor_count(u, v) as u32;
    }

    // Bucket queue over supports for O(m * max_support) peeling without a
    // priority queue.
    let max_support = support.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_support + 1];
    for (e, _, _) in g.edges() {
        buckets[support[e.index()] as usize].push(e.index());
    }

    let mut removed = vec![false; id_space];
    let mut trussness = vec![0u32; id_space];
    let mut processed = 0usize;
    let mut level = 0usize;

    while processed < live {
        // find the lowest non-empty bucket at or below the current minimum
        let mut current = None;
        for (s, bucket) in buckets.iter().enumerate() {
            if !bucket.is_empty() {
                current = Some(s);
                break;
            }
        }
        let Some(s) = current else { break };
        let e = buckets[s].pop().expect("non-empty bucket");
        if removed[e] {
            continue;
        }
        // stale entry: the edge's support changed since it was bucketed
        if support[e] as usize != s {
            buckets[support[e] as usize].push(e);
            continue;
        }
        level = level.max(s);
        removed[e] = true;
        processed += 1;
        trussness[e] = level as u32 + 2;

        let (u, v) = g.edge_endpoints(EdgeId::from_index(e));
        // One merge over the two CSR neighbour slices yields each triangle's
        // other two edge ids directly — no per-triangle binary searches.
        g.for_each_common_neighbor(u, v, |_w, e_uw, e_vw| {
            // The triangle (u, v, w) only still counts towards the other two
            // edges if both of them are alive; otherwise it was already broken.
            if removed[e_uw.index()] || removed[e_vw.index()] {
                return;
            }
            for other in [e_uw.index(), e_vw.index()] {
                if support[other] > 0 {
                    support[other] -= 1;
                    buckets[support[other] as usize].push(other);
                }
            }
        });
    }

    let mut vertex_trussness = vec![0u32; g.num_vertices()];
    for (e, u, v) in g.edges() {
        let t = trussness[e.index()];
        vertex_trussness[u.index()] = vertex_trussness[u.index()].max(t);
        vertex_trussness[v.index()] = vertex_trussness[v.index()].max(t);
    }

    TrussDecomposition {
        edge_trussness: trussness,
        vertex_trussness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktruss::maximal_ktruss;
    use icde_graph::generators::{small_world, SmallWorldConfig};
    use icde_graph::VertexSubset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layered_graph() -> SocialNetwork {
        let mut b = icde_graph::GraphBuilder::with_vertices(9);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                b.add_symmetric_edge(VertexId(i), VertexId(j), 0.5);
            }
        }
        b.add_symmetric_edge(VertexId(5), VertexId(6), 0.5);
        b.add_symmetric_edge(VertexId(6), VertexId(7), 0.5);
        b.add_symmetric_edge(VertexId(5), VertexId(7), 0.5);
        b.add_symmetric_edge(VertexId(4), VertexId(5), 0.5);
        b.add_symmetric_edge(VertexId(7), VertexId(8), 0.5);
        b.build().unwrap()
    }

    #[test]
    fn clique_edges_have_trussness_five() {
        let g = layered_graph();
        let d = truss_decomposition(&g);
        for (e, u, v) in g.edges() {
            let both_in_clique = u.0 < 5 && v.0 < 5;
            if both_in_clique {
                assert_eq!(d.edge(e), 5, "edge {u}-{v}");
            }
        }
        assert_eq!(d.max_trussness(), 5);
    }

    #[test]
    fn triangle_and_pendant_trussness() {
        let g = layered_graph();
        let d = truss_decomposition(&g);
        let tri_edge = g.edge_between(VertexId(5), VertexId(6)).unwrap();
        assert_eq!(d.edge(tri_edge), 3);
        let pendant = g.edge_between(VertexId(7), VertexId(8)).unwrap();
        assert_eq!(d.edge(pendant), 2);
        let bridge = g.edge_between(VertexId(4), VertexId(5)).unwrap();
        assert_eq!(d.edge(bridge), 2);
    }

    #[test]
    fn vertex_trussness_is_max_of_incident_edges() {
        let g = layered_graph();
        let d = truss_decomposition(&g);
        assert_eq!(d.vertex(VertexId(0)), 5);
        assert_eq!(d.vertex(VertexId(4)), 5);
        assert_eq!(d.vertex(VertexId(5)), 3);
        assert_eq!(d.vertex(VertexId(8)), 2);
    }

    #[test]
    fn decomposition_consistent_with_peeling() {
        // The set of edges with trussness >= k must equal the edges surviving
        // the maximal k-truss peel, for every k.
        let mut rng = StdRng::seed_from_u64(17);
        let g = small_world(&SmallWorldConfig::paper_default(120), &mut rng);
        let d = truss_decomposition(&g);
        let all = VertexSubset::from_iter(g.vertices());
        for k in 2..=d.max_trussness() {
            let peel = maximal_ktruss(&g, &all, k);
            for e in 0..g.num_edges() {
                let survives = peel.is_edge_alive(local_edge_for_global(&peel, &g, e));
                let by_trussness = d.edge_trussness[e] >= k;
                assert_eq!(survives, by_trussness, "k={k} edge={e}");
            }
        }
    }

    /// Maps a global edge index to its local index in a peel over the full
    /// vertex set (vertex ids coincide, but edge ids may be ordered
    /// differently).
    fn local_edge_for_global(
        peel: &crate::ktruss::KTrussPeel,
        g: &SocialNetwork,
        e: usize,
    ) -> usize {
        let (u, v) = g.edge_endpoints(EdgeId::from_index(e));
        let local = peel.local();
        let lu = local.local(u).unwrap();
        let lv = local.local(v).unwrap();
        (0..local.num_edges())
            .find(|&le| {
                let (a, b) = local.edge(le);
                (a == lu && b == lv) || (a == lv && b == lu)
            })
            .expect("edge exists in local view")
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = SocialNetwork::new();
        let d = truss_decomposition(&g);
        assert!(d.edge_trussness.is_empty());
        assert_eq!(d.max_trussness(), 0);
    }
}
