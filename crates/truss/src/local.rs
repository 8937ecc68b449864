//! Compact local view of a vertex-induced subgraph.
//!
//! Peeling algorithms (k-truss extraction, k-core, truss decomposition over a
//! candidate region) repeatedly look up degrees, neighbour lists and edge
//! supports inside one induced subgraph. Doing this against the global
//! [`SocialNetwork`] would pay a membership test on every adjacency scan, so
//! [`LocalSubgraph`] translates the region once into dense local indices:
//! vertices become `0..n_local`, edges become `0..m_local`, and the peeling
//! loops run on one flat CSR.
//!
//! Local ids follow the ascending order of the global ids, so the
//! global→local translation is a binary search over the sorted vertex slice
//! and every adjacency row comes out sorted without a sort. A
//! [`KTrussPeel`](crate::ktruss::KTrussPeel) rebuilds its view in place for
//! every region it peels, so a caller that peels thousands of regions in a
//! row (the seed-community extractor) allocates only while the buffers grow.

use icde_graph::{SocialNetwork, VertexId, VertexSubset};

/// A dense, index-translated copy of the subgraph induced by a vertex subset.
#[derive(Debug, Clone, Default)]
pub struct LocalSubgraph {
    /// Global id of each local vertex (`local index → global id`), ascending.
    globals: Vec<VertexId>,
    /// Row bounds: the neighbours of local vertex `u` are
    /// `adjacency[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    /// `(local neighbour, local edge)` pairs, each row in ascending
    /// neighbour order.
    adjacency: Vec<(u32, u32)>,
    /// Local edge table: `(local u, local v)` with `u < v`.
    edges: Vec<(u32, u32)>,
}

impl LocalSubgraph {
    /// Builds the local view of the subgraph of `g` induced by `subset`.
    pub fn new(g: &SocialNetwork, subset: &VertexSubset) -> Self {
        let mut local = LocalSubgraph::default();
        local.rebuild(g, subset.as_slice());
        local
    }

    /// Rebuilds this view in place over the subgraph of `g` induced by
    /// `vertices`, reusing the buffers of the previous region.
    ///
    /// # Panics
    /// Panics if `vertices` is not strictly ascending (the binary-search
    /// translation depends on it).
    pub(crate) fn rebuild(&mut self, g: &SocialNetwork, vertices: &[VertexId]) {
        assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "local view needs strictly ascending vertex ids"
        );
        let LocalSubgraph {
            globals,
            offsets,
            adjacency,
            edges,
        } = self;
        globals.clear();
        globals.extend_from_slice(vertices);
        offsets.clear();
        adjacency.clear();
        edges.clear();
        offsets.push(0);
        for (lu, &global_u) in vertices.iter().enumerate() {
            let lu = lu as u32;
            // neighbours arrive in ascending global order, so each lookup
            // only needs to search past the previous hit
            let mut from = 0usize;
            for (global_v, _) in g.neighbors(global_u) {
                from += vertices[from..].partition_point(|&x| x < global_v);
                if from == vertices.len() {
                    break;
                }
                if vertices[from] != global_v {
                    continue;
                }
                let lv = from as u32;
                let eid = if lu < lv {
                    edges.push((lu, lv));
                    edges.len() as u32 - 1
                } else {
                    // the row of `lv < lu` is complete: the edge already has
                    // its id there
                    let row = &adjacency
                        [offsets[lv as usize] as usize..offsets[lv as usize + 1] as usize];
                    let at = row.partition_point(|&(w, _)| w < lu);
                    row[at].1
                };
                adjacency.push((lv, eid));
            }
            offsets.push(adjacency.len() as u32);
        }
    }

    /// Number of local vertices.
    pub fn num_vertices(&self) -> usize {
        self.globals.len()
    }

    /// Number of local edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Global id of local vertex `local`.
    #[inline]
    pub fn global(&self, local: usize) -> VertexId {
        self.globals[local]
    }

    /// Local index of a global vertex (if it belongs to the subgraph).
    #[inline]
    pub fn local(&self, v: VertexId) -> Option<usize> {
        self.globals.binary_search(&v).ok()
    }

    /// Local endpoints of local edge `e`, lower index first.
    #[inline]
    pub fn edge(&self, e: usize) -> (usize, usize) {
        let (u, v) = self.edges[e];
        (u as usize, v as usize)
    }

    /// Sorted local adjacency of vertex `local` as `(neighbour, edge)` pairs.
    #[inline]
    pub fn neighbors(&self, local: usize) -> &[(u32, u32)] {
        &self.adjacency[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// Local degree of a vertex.
    #[inline]
    pub fn degree(&self, local: usize) -> usize {
        (self.offsets[local + 1] - self.offsets[local]) as usize
    }

    /// Computes the support (triangle count) of every local edge.
    pub fn edge_supports(&self) -> Vec<u32> {
        let mut supports = Vec::new();
        self.count_supports(&mut supports, &mut Vec::new());
        supports
    }

    /// Fills `supports` with the triangle count of every local edge, using
    /// `mark` (grown as needed, left all-zero) as a per-vertex scratch.
    ///
    /// Each triangle `u < v < w` is found once, from its lowest vertex: the
    /// neighbours of `u` are stamped with their edge ids, then every
    /// higher neighbour `v` scans its own higher neighbours for stamps.
    pub(crate) fn count_supports(&self, supports: &mut Vec<u32>, mark: &mut Vec<u32>) {
        supports.clear();
        supports.resize(self.edges.len(), 0);
        if mark.len() < self.globals.len() {
            mark.resize(self.globals.len(), 0);
        }
        for u in 0..self.globals.len() {
            let row_u = self.neighbors(u);
            for &(w, e) in row_u {
                mark[w as usize] = e + 1;
            }
            let higher_u = &row_u[row_u.partition_point(|&(w, _)| (w as usize) < u)..];
            for &(v, e_uv) in higher_u {
                let row_v = self.neighbors(v as usize);
                for &(w, e_vw) in &row_v[row_v.partition_point(|&(x, _)| x <= v)..] {
                    let stamp = mark[w as usize];
                    if stamp != 0 {
                        supports[e_uv as usize] += 1;
                        supports[e_vw as usize] += 1;
                        supports[stamp as usize - 1] += 1;
                    }
                }
            }
            for &(w, _) in row_u {
                mark[w as usize] = 0;
            }
        }
    }

    /// Converts a set of local vertex indices back to a global
    /// [`VertexSubset`].
    pub fn to_global_subset<I: IntoIterator<Item = usize>>(&self, locals: I) -> VertexSubset {
        VertexSubset::from_iter(locals.into_iter().map(|l| self.globals[l]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global graph: clique {1,2,3,4} plus pendant 0-1 and an outside vertex 5.
    fn clique_graph() -> SocialNetwork {
        let mut b = icde_graph::GraphBuilder::with_vertices(6);
        let ids = [1u32, 2, 3, 4];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                b.add_symmetric_edge(VertexId(ids[i]), VertexId(ids[j]), 0.5);
            }
        }
        b.add_symmetric_edge(VertexId(0), VertexId(1), 0.5);
        b.build().unwrap()
    }

    #[test]
    fn builds_local_view_of_subset() {
        let g = clique_graph();
        let subset = VertexSubset::from_iter([1, 2, 3, 4].map(VertexId));
        let local = LocalSubgraph::new(&g, &subset);
        assert_eq!(local.num_vertices(), 4);
        assert_eq!(local.num_edges(), 6);
        for l in 0..4 {
            assert_eq!(local.degree(l), 3);
            let v = local.global(l);
            assert_eq!(local.local(v), Some(l));
            // rows are sorted and every entry names the edge back to `l`
            let row = local.neighbors(l);
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
            for &(w, e) in row {
                let (a, b) = local.edge(e as usize);
                assert!((a, b) == (l, w as usize) || (a, b) == (w as usize, l));
            }
        }
        assert_eq!(local.local(VertexId(0)), None);
    }

    #[test]
    fn supports_in_clique() {
        let g = clique_graph();
        let subset = VertexSubset::from_iter([1, 2, 3, 4].map(VertexId));
        let local = LocalSubgraph::new(&g, &subset);
        let sup = local.edge_supports();
        // every edge of K4 is in exactly 2 triangles
        assert!(sup.iter().all(|&s| s == 2), "{sup:?}");
    }

    #[test]
    fn supports_respect_masks() {
        // a rebuilt view over fewer vertices drops every triangle through
        // the vertex left out: the remaining triangle has support 1 per edge
        let g = clique_graph();
        let mut local =
            LocalSubgraph::new(&g, &VertexSubset::from_iter([1, 2, 3, 4].map(VertexId)));
        local.rebuild(&g, &[1, 2, 3].map(VertexId));
        assert_eq!(local.num_edges(), 3);
        assert_eq!(local.local(VertexId(4)), None);
        assert!(local.edge_supports().iter().all(|&s| s == 1));
    }

    #[test]
    fn pendant_edge_has_zero_support() {
        let g = clique_graph();
        let subset = VertexSubset::from_iter([0, 1, 2].map(VertexId));
        let local = LocalSubgraph::new(&g, &subset);
        let sup = local.edge_supports();
        let pendant = (0..local.num_edges())
            .position(|e| {
                let (u, v) = local.edge(e);
                local.global(u) == VertexId(0) || local.global(v) == VertexId(0)
            })
            .unwrap();
        assert_eq!(sup[pendant], 0);
    }

    #[test]
    fn to_global_subset_roundtrips() {
        let g = clique_graph();
        let subset = VertexSubset::from_iter([1, 3, 5].map(VertexId));
        let local = LocalSubgraph::new(&g, &subset);
        let back = local.to_global_subset(0..local.num_vertices());
        assert_eq!(back, subset);
    }
}
