//! Maximal k-truss extraction by support peeling.
//!
//! A k-truss is a subgraph in which every edge is contained in at least
//! `k − 2` triangles *of that subgraph*. The **maximal** k-truss of a region
//! is obtained by repeatedly deleting any edge whose support drops below
//! `k − 2` (deleting an edge can reduce the support of the other two edges of
//! each triangle it participated in); whatever survives is the unique maximal
//! k-truss. Seed communities (Definition 2) are connected components of the
//! maximal k-truss of `hop(v_q, r)` that contain the centre `v_q`.

use crate::local::LocalSubgraph;
use icde_graph::{SocialNetwork, VertexId, VertexSubset};
use std::cmp::Ordering;

/// The maximal k-truss of one region, kept as live peel state over a
/// reusable [`LocalSubgraph`]: which local edges survive and how many
/// surviving triangles each surviving edge closes.
///
/// [`KTrussPeel::peel`] computes the maximal k-truss of an induced subgraph;
/// [`KTrussPeel::remove_vertices`] then shrinks the region and re-peels only
/// what the removal touches. The result equals a fresh peel of the smaller
/// region: for `W ⊆ V` the maximal k-truss of `induced(W)` lies inside that
/// of `induced(V)`, so cascading from the current truss after deleting the
/// removed vertices' edges reaches the same unique fixpoint.
#[derive(Debug, Clone, Default)]
pub struct KTrussPeel {
    /// Local view of the peeled region.
    local: LocalSubgraph,
    /// Support requirement `k − 2`.
    required: u32,
    /// `edge_alive[e]` — whether local edge `e` survives.
    edge_alive: Vec<bool>,
    /// For every surviving edge, the number of triangles whose three edges
    /// all survive.
    supports: Vec<u32>,
    /// Edges ever queued for removal; each is queued at most once.
    queued: Vec<bool>,
    /// Edges queued and not yet removed.
    queue: Vec<u32>,
    /// Per-vertex scratch of the support count.
    mark: Vec<u32>,
}

impl KTrussPeel {
    /// Peels the subgraph of `g` induced by `vertices` (strictly ascending)
    /// down to its maximal k-truss, reusing this value's buffers.
    ///
    /// `k < 2` is treated as `k = 2` (every edge trivially satisfies a
    /// support requirement of zero).
    pub fn peel(&mut self, g: &SocialNetwork, vertices: &[VertexId], k: u32) {
        let KTrussPeel {
            local,
            required,
            edge_alive,
            supports,
            queued,
            queue,
            mark,
        } = self;
        local.rebuild(g, vertices);
        local.count_supports(supports, mark);
        *required = k.saturating_sub(2);
        edge_alive.clear();
        edge_alive.resize(supports.len(), true);
        queued.clear();
        queued.extend(supports.iter().map(|&s| s < *required));
        queue.clear();
        queue.extend((0..supports.len() as u32).filter(|&e| queued[e as usize]));
        self.drain();
    }

    /// Removes local vertices from the region and re-peels: afterwards the
    /// surviving edges are the maximal k-truss of the subgraph induced by
    /// the remaining vertices.
    pub fn remove_vertices(&mut self, locals: impl IntoIterator<Item = usize>) {
        for u in locals {
            for &(_, e) in self.local.neighbors(u) {
                let e = e as usize;
                if self.edge_alive[e] && !self.queued[e] {
                    self.queued[e] = true;
                    self.queue.push(e as u32);
                }
            }
        }
        self.drain();
    }

    /// Removes every queued edge. Deleting edge `{u, v}` breaks each
    /// surviving triangle `(u, v, w)`, so the other two edges each lose one
    /// support and are queued once they fall below the requirement.
    fn drain(&mut self) {
        let KTrussPeel {
            local,
            required,
            edge_alive,
            supports,
            queued,
            queue,
            ..
        } = self;
        while let Some(e) = queue.pop() {
            let e = e as usize;
            debug_assert!(edge_alive[e], "an edge is queued at most once");
            edge_alive[e] = false;
            let (u, v) = local.edge(e);
            let (a, b) = (local.neighbors(u), local.neighbors(v));
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        let (e_uw, e_vw) = (a[i].1 as usize, b[j].1 as usize);
                        if edge_alive[e_uw] && edge_alive[e_vw] {
                            for other in [e_uw, e_vw] {
                                // the broken triangle was counted, so the
                                // support is at least one
                                supports[other] -= 1;
                                if supports[other] < *required && !queued[other] {
                                    queued[other] = true;
                                    queue.push(other as u32);
                                }
                            }
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }

    /// Local view of the peeled region.
    pub fn local(&self) -> &LocalSubgraph {
        &self.local
    }

    /// Whether local edge `e` survived the peel.
    #[inline]
    pub fn is_edge_alive(&self, e: usize) -> bool {
        self.edge_alive[e]
    }

    /// Whether local vertex `u` keeps at least one surviving edge.
    #[inline]
    pub fn has_alive_edge(&self, u: usize) -> bool {
        self.local
            .neighbors(u)
            .iter()
            .any(|&(_, e)| self.edge_alive[e as usize])
    }

    /// Vertices with at least one surviving incident edge, as a global subset.
    pub fn surviving_vertices(&self) -> VertexSubset {
        self.local
            .to_global_subset((0..self.local.num_vertices()).filter(|&u| self.has_alive_edge(u)))
    }

    /// Number of surviving edges.
    pub fn surviving_edge_count(&self) -> usize {
        self.edge_alive.iter().filter(|a| **a).count()
    }

    /// Local vertices reachable from `start` through surviving edges,
    /// marking each in `seen`.
    fn reach(&self, start: usize, seen: &mut [bool]) -> Vec<usize> {
        let mut component = Vec::new();
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            component.push(u);
            for &(w, e) in self.local.neighbors(u) {
                let w = w as usize;
                if self.edge_alive[e as usize] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        component
    }

    /// Connected components of the surviving subgraph (vertices connected by
    /// surviving edges), largest first.
    pub fn components(&self) -> Vec<VertexSubset> {
        let mut seen = vec![false; self.local.num_vertices()];
        let mut components = Vec::new();
        for start in 0..self.local.num_vertices() {
            if !seen[start] && self.has_alive_edge(start) {
                components.push(self.local.to_global_subset(self.reach(start, &mut seen)));
            }
        }
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        components
    }

    /// The component containing `center`, if the centre survived the peel.
    pub fn component_containing(&self, center: VertexId) -> Option<VertexSubset> {
        let start = self.local.local(center)?;
        if !self.has_alive_edge(start) {
            return None;
        }
        let mut seen = vec![false; self.local.num_vertices()];
        Some(self.local.to_global_subset(self.reach(start, &mut seen)))
    }
}

/// Peels the subgraph induced by `subset` down to its maximal k-truss.
///
/// `k < 2` is treated as `k = 2` (every edge trivially satisfies a support
/// requirement of zero).
pub fn maximal_ktruss(g: &SocialNetwork, subset: &VertexSubset, k: u32) -> KTrussPeel {
    let mut peel = KTrussPeel::default();
    peel.peel(g, subset.as_slice(), k);
    peel
}

/// Connected components of the maximal k-truss of the region, largest first.
pub fn ktruss_components(g: &SocialNetwork, subset: &VertexSubset, k: u32) -> Vec<VertexSubset> {
    maximal_ktruss(g, subset, k).components()
}

/// The connected k-truss containing `center` inside the region, or `None`
/// if the centre does not survive the peel (it keeps no incident edge with
/// sufficient support).
pub fn connected_ktruss_containing(
    g: &SocialNetwork,
    subset: &VertexSubset,
    center: VertexId,
    k: u32,
) -> Option<VertexSubset> {
    maximal_ktruss(g, subset, k).component_containing(center)
}

/// Checks whether the subgraph induced by `subset` is itself a k-truss
/// (every induced edge has induced support ≥ k − 2). Does **not** check
/// connectivity; combine with [`VertexSubset::is_connected`].
pub fn is_ktruss(g: &SocialNetwork, subset: &VertexSubset, k: u32) -> bool {
    let required = k.saturating_sub(2);
    LocalSubgraph::new(g, subset)
        .edge_supports()
        .into_iter()
        .all(|s| s >= required)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// K5 on {0..4}, a triangle {5,6,7} attached to the clique by edge 4-5,
    /// and a pendant path 7-8.
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

    fn all_vertices(g: &SocialNetwork) -> VertexSubset {
        VertexSubset::from_iter(g.vertices())
    }

    #[test]
    fn k5_survives_5truss() {
        let g = layered_graph();
        let peel = maximal_ktruss(&g, &all_vertices(&g), 5);
        let survivors = peel.surviving_vertices();
        assert_eq!(survivors.as_slice(), &[0, 1, 2, 3, 4].map(VertexId));
        assert_eq!(peel.surviving_edge_count(), 10);
    }

    #[test]
    fn triangle_survives_3truss_but_not_4truss() {
        let g = layered_graph();
        let comps3 = ktruss_components(&g, &all_vertices(&g), 3);
        // 3-truss: the K5 and the triangle are separate components (the
        // bridge 4-5 and pendant 7-8 are peeled away)
        assert_eq!(comps3.len(), 2);
        assert_eq!(comps3[0].len(), 5);
        assert_eq!(comps3[1].len(), 3);

        let comps4 = ktruss_components(&g, &all_vertices(&g), 4);
        assert_eq!(comps4.len(), 1);
        assert_eq!(comps4[0].len(), 5);
    }

    #[test]
    fn component_containing_center() {
        let g = layered_graph();
        let all = all_vertices(&g);
        let c = connected_ktruss_containing(&g, &all, VertexId(6), 3).unwrap();
        assert_eq!(c.as_slice(), &[5, 6, 7].map(VertexId));
        // centre peeled away at k=4
        assert!(connected_ktruss_containing(&g, &all, VertexId(6), 4).is_none());
        // pendant vertex never forms a truss with k >= 3
        assert!(connected_ktruss_containing(&g, &all, VertexId(8), 3).is_none());
    }

    #[test]
    fn low_k_keeps_every_edge() {
        let g = layered_graph();
        let all = all_vertices(&g);
        for k in [0, 1, 2] {
            let peel = maximal_ktruss(&g, &all, k);
            assert_eq!(peel.surviving_edge_count(), g.num_edges(), "k={k}");
            assert_eq!(peel.components().len(), 1);
        }
    }

    #[test]
    fn peel_respects_subset_boundary() {
        let g = layered_graph();
        // restrict to the triangle plus the bridge vertex 4: the bridge edge
        // 4-5 has no triangle inside the subset, so only the triangle remains
        let subset = VertexSubset::from_iter([4, 5, 6, 7].map(VertexId));
        let comps = ktruss_components(&g, &subset, 3);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].as_slice(), &[5, 6, 7].map(VertexId));
    }

    #[test]
    fn is_ktruss_checks_induced_supports() {
        let g = layered_graph();
        let k5 = VertexSubset::from_iter([0, 1, 2, 3, 4].map(VertexId));
        assert!(is_ktruss(&g, &k5, 5));
        assert!(!is_ktruss(&g, &k5, 6));
        let tri = VertexSubset::from_iter([5, 6, 7].map(VertexId));
        assert!(is_ktruss(&g, &tri, 3));
        assert!(!is_ktruss(&g, &tri, 4));
        let with_pendant = VertexSubset::from_iter([5, 6, 7, 8].map(VertexId));
        assert!(!is_ktruss(&g, &with_pendant, 3));
        assert!(is_ktruss(&g, &VertexSubset::new(), 7));
    }

    /// Surviving edges of a peel as sorted global endpoint pairs.
    fn surviving_edges(peel: &KTrussPeel) -> Vec<(VertexId, VertexId)> {
        let local = peel.local();
        let mut edges: Vec<_> = (0..local.num_edges())
            .filter(|&e| peel.is_edge_alive(e))
            .map(|e| {
                let (u, v) = local.edge(e);
                (local.global(u), local.global(v))
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn removing_vertices_matches_a_fresh_peel() {
        use icde_graph::generators::{small_world, SmallWorldConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(5);
        let g = small_world(&SmallWorldConfig::paper_default(60), &mut rng);
        let all: Vec<VertexId> = g.vertices().collect();
        for k in 2..=5 {
            let mut peel = KTrussPeel::default();
            peel.peel(&g, &all, k);
            let mut remaining = all.clone();
            // shrink the region in three rounds, re-peeling incrementally
            for _ in 0..3 {
                let (gone, kept): (Vec<VertexId>, Vec<VertexId>) =
                    remaining.iter().partition(|_| rng.gen_bool(0.2));
                let gone: Vec<usize> = gone
                    .iter()
                    .map(|&v| peel.local().local(v).unwrap())
                    .collect();
                peel.remove_vertices(gone);
                remaining = kept;
                let fresh =
                    maximal_ktruss(&g, &VertexSubset::from_iter(remaining.iter().copied()), k);
                assert_eq!(surviving_edges(&peel), surviving_edges(&fresh), "k={k}");
            }
        }
        // the hand-built graph: dropping vertex 6 breaks the only triangle
        // of {5, 6, 7}, so the 3-truss keeps the K5 alone
        let g = layered_graph();
        let mut peel = maximal_ktruss(&g, &all_vertices(&g), 3);
        let six = peel.local().local(VertexId(6)).unwrap();
        peel.remove_vertices([six]);
        assert_eq!(
            peel.surviving_vertices().as_slice(),
            &[0, 1, 2, 3, 4].map(VertexId)
        );
    }

    #[test]
    fn high_k_removes_everything() {
        let g = layered_graph();
        let peel = maximal_ktruss(&g, &all_vertices(&g), 7);
        assert_eq!(peel.surviving_edge_count(), 0);
        assert!(peel.components().is_empty());
        assert!(peel.surviving_vertices().is_empty());
    }
}
