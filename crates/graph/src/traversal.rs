//! Breadth-first traversal utilities: r-hop subgraphs, hop distances and
//! connected components.
//!
//! The radius constraint of Definition 2 and the offline pre-computation of
//! Algorithm 2 both revolve around the *r-hop subgraph* `hop(v_i, r)` — the
//! subgraph induced by every vertex within `r` hops of the centre `v_i`. This
//! module provides that extraction plus the hop-distance primitives used by
//! the radius pruning rule (Lemma 3).
//!
//! Every function comes in two flavours (see [`crate::workspace`] for the
//! borrowing contract): the plain name borrows this thread's shared
//! [`TraversalWorkspace`], while the `_with` variant takes one explicitly so
//! batch callers pay the scratch allocations only once. Sources that the
//! graph does not contain (stale [`VertexId`]s, queries against an empty
//! graph) yield empty results instead of panicking.

use crate::graph::SocialNetwork;
use crate::subgraph::VertexSubset;
use crate::types::VertexId;
use crate::workspace::{with_thread_workspace, TraversalWorkspace};
use std::cell::OnceCell;
use std::collections::HashMap;

/// Result of a bounded BFS: every reached vertex together with its hop
/// distance from the source.
#[derive(Debug, Clone)]
pub struct HopDistances {
    /// Source of the BFS.
    pub source: VertexId,
    /// `(vertex, hops)` pairs in BFS order (source first with distance 0);
    /// empty when the source is not a vertex of the graph.
    pub distances: Vec<(VertexId, u32)>,
    /// Dense lookup table built lazily on the first [`distance`] call, so
    /// repeated lookups are O(1) instead of a linear scan while the hot
    /// callers that never look up individual vertices pay nothing.
    ///
    /// [`distance`]: HopDistances::distance
    lookup: OnceCell<HashMap<VertexId, u32>>,
}

impl HopDistances {
    /// Wraps a BFS-ordered `(vertex, hops)` list.
    pub fn new(source: VertexId, distances: Vec<(VertexId, u32)>) -> Self {
        HopDistances {
            source,
            distances,
            lookup: OnceCell::new(),
        }
    }

    /// Looks up the hop distance of `v`, if it was reached. O(1) after the
    /// first call (which builds the lookup table in one pass).
    pub fn distance(&self, v: VertexId) -> Option<u32> {
        self.lookup
            .get_or_init(|| self.distances.iter().copied().collect())
            .get(&v)
            .copied()
    }

    /// The vertex set reached by the BFS.
    pub fn reached(&self) -> VertexSubset {
        VertexSubset::from_iter(self.distances.iter().map(|(v, _)| *v))
    }

    /// The maximum hop distance of any reached vertex (the eccentricity of
    /// the source within the explored ball).
    pub fn max_distance(&self) -> u32 {
        // BFS discovers vertices in non-decreasing distance order, so the
        // last entry carries the maximum.
        self.distances.last().map_or(0, |&(_, d)| d)
    }
}

/// Runs a BFS from `source` bounded to `max_hops` hops and returns every
/// reached vertex with its hop distance. Borrows the thread workspace.
///
/// `max_hops = u32::MAX` gives an unbounded BFS over the connected component.
/// A `source` outside the graph yields an empty result.
pub fn bfs_within(g: &SocialNetwork, source: VertexId, max_hops: u32) -> HopDistances {
    with_thread_workspace(|ws| bfs_within_with(ws, g, source, max_hops))
}

/// [`bfs_within`] against a caller-owned workspace.
pub fn bfs_within_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    source: VertexId,
    max_hops: u32,
) -> HopDistances {
    let mut order = Vec::new();
    bfs_within_into(ws, g, source, max_hops, &mut order);
    HopDistances::new(source, order)
}

/// [`bfs_within`] into a caller-owned output buffer: `order` is cleared and
/// refilled with the reached `(vertex, hops)` pairs in BFS (nondecreasing
/// distance) order. Batch callers — the offline pre-computation visits every
/// vertex — reuse one buffer across all calls and pay no per-call allocation
/// once it has grown.
///
/// The workspace keeps the epoch-stamped hop distance of every reached vertex
/// ([`TraversalWorkspace::dist`]) until its next `begin`, so callers can do
/// O(1) "is `u` within `r` hops" membership tests against the same traversal.
pub fn bfs_within_into(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    source: VertexId,
    max_hops: u32,
    order: &mut Vec<(VertexId, u32)>,
) {
    order.clear();
    // invalidate stale stamps even for a missing source, so the documented
    // `dist()` membership contract always reflects *this* (empty) traversal
    ws.begin(g.num_vertices());
    if !g.contains_vertex(source) {
        return;
    }
    // the output list doubles as the BFS ring buffer: entries are appended
    // on discovery and consumed in order through `head`
    order.push((source, 0u32));
    ws.try_visit(source, 0);
    let mut head = 0;
    while head < order.len() {
        let (u, du) = order[head];
        head += 1;
        if du == max_hops {
            continue;
        }
        for (n, _) in g.neighbors(u) {
            if ws.try_visit(n, du + 1) {
                order.push((n, du + 1));
            }
        }
    }
}

/// Extracts the r-hop subgraph `hop(center, r)`: the set of vertices within
/// `r` hops of `center` (including the centre itself).
pub fn hop_subgraph(g: &SocialNetwork, center: VertexId, r: u32) -> VertexSubset {
    with_thread_workspace(|ws| hop_subgraph_with(ws, g, center, r))
}

/// [`hop_subgraph`] against a caller-owned workspace.
pub fn hop_subgraph_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    center: VertexId,
    r: u32,
) -> VertexSubset {
    bfs_within_with(ws, g, center, r).reached()
}

/// Hop distance between `u` and `v` in the full graph, or `None` if they are
/// disconnected (or either endpoint is not a vertex of the graph).
pub fn hop_distance(g: &SocialNetwork, u: VertexId, v: VertexId) -> Option<u32> {
    with_thread_workspace(|ws| hop_distance_with(ws, g, u, v))
}

/// [`hop_distance`] against a caller-owned workspace.
pub fn hop_distance_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    u: VertexId,
    v: VertexId,
) -> Option<u32> {
    if !g.contains_vertex(u) || !g.contains_vertex(v) {
        return None;
    }
    if u == v {
        return Some(0);
    }
    ws.begin(g.num_vertices());
    ws.try_visit(u, 0);
    ws.queue_push(u, 0);
    while let Some((x, dx)) = ws.queue_pop_front() {
        for (n, _) in g.neighbors(x) {
            if ws.try_visit(n, dx + 1) {
                if n == v {
                    return Some(dx + 1);
                }
                ws.queue_push(n, dx + 1);
            }
        }
    }
    None
}

/// Hop distances from `source` restricted to the subgraph induced by
/// `subset`; vertices outside `subset` are never traversed.
///
/// Used to verify the radius constraint of Definition 2, where the shortest
/// path distance `dist(v_q, v_l)` is measured *inside* the seed community.
pub fn hop_distances_within_subset(
    g: &SocialNetwork,
    subset: &VertexSubset,
    source: VertexId,
) -> HopDistances {
    with_thread_workspace(|ws| hop_distances_within_subset_with(ws, g, subset, source))
}

/// [`hop_distances_within_subset`] against a caller-owned workspace.
pub fn hop_distances_within_subset_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    subset: &VertexSubset,
    source: VertexId,
) -> HopDistances {
    if !g.contains_vertex(source) {
        return HopDistances::new(source, Vec::new());
    }
    debug_assert!(subset.contains(source), "source must belong to the subset");
    ws.begin(g.num_vertices());
    let mut order = vec![(source, 0u32)];
    ws.try_visit(source, 0);
    let mut head = 0;
    while head < order.len() {
        let (u, du) = order[head];
        head += 1;
        for (n, _) in g.neighbors(u) {
            if subset.contains(n) && ws.try_visit(n, du + 1) {
                order.push((n, du + 1));
            }
        }
    }
    HopDistances::new(source, order)
}

/// Returns `true` if every vertex of `subset` lies within `r` hops of
/// `center` when paths are restricted to `subset` (the radius constraint of
/// Definition 2).
pub fn satisfies_radius(
    g: &SocialNetwork,
    subset: &VertexSubset,
    center: VertexId,
    r: u32,
) -> bool {
    if subset.is_empty() {
        return true;
    }
    if !subset.contains(center) {
        return false;
    }
    let hd = hop_distances_within_subset(g, subset, center);
    hd.distances.len() == subset.len() && hd.max_distance() <= r
}

/// Computes the connected components of the graph; returns one
/// [`VertexSubset`] per component, largest first.
pub fn connected_components(g: &SocialNetwork) -> Vec<VertexSubset> {
    with_thread_workspace(|ws| connected_components_with(ws, g))
}

/// [`connected_components`] against a caller-owned workspace.
pub fn connected_components_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
) -> Vec<VertexSubset> {
    ws.begin(g.num_vertices());
    let mut components = Vec::new();
    for v in g.vertices() {
        if !ws.try_visit(v, 0) {
            continue;
        }
        let mut component = Vec::new();
        ws.queue_push(v, 0);
        while let Some((u, _)) = ws.queue_pop_back() {
            component.push(u);
            for (n, _) in g.neighbors(u) {
                if ws.try_visit(n, 0) {
                    ws.queue_push(n, 0);
                }
            }
        }
        components.push(VertexSubset::from_iter(component));
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    components
}

/// Returns `true` if the whole graph is connected (the paper's Definition 1
/// assumes a connected social network).
pub fn is_connected(g: &SocialNetwork) -> bool {
    g.num_vertices() <= 1 || connected_components(g).len() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3-4 plus an isolated vertex 5.
    fn path_graph() -> SocialNetwork {
        let mut b = crate::builder::GraphBuilder::with_vertices(6);
        for i in 0..4u32 {
            b.add_symmetric_edge(VertexId(i), VertexId(i + 1), 0.5);
        }
        b.build().unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph();
        let hd = bfs_within(&g, VertexId(0), u32::MAX);
        assert_eq!(hd.distance(VertexId(0)), Some(0));
        assert_eq!(hd.distance(VertexId(3)), Some(3));
        assert_eq!(hd.distance(VertexId(5)), None);
        assert_eq!(hd.max_distance(), 4);
    }

    #[test]
    fn distance_lookup_agrees_with_bfs_order() {
        // regression for the O(n) linear-scan lookup: every entry of the
        // BFS-ordered list must be reproduced by `distance`, and misses must
        // stay misses
        let g = path_graph();
        let hd = bfs_within(&g, VertexId(1), u32::MAX);
        for &(v, d) in &hd.distances {
            assert_eq!(hd.distance(v), Some(d), "vertex {v}");
        }
        for v in g.vertices() {
            let expected = hd.distances.iter().find(|(u, _)| *u == v).map(|&(_, d)| d);
            assert_eq!(hd.distance(v), expected, "vertex {v}");
        }
        assert_eq!(hd.distance(VertexId(999)), None);
    }

    #[test]
    fn bounded_bfs_stops_at_radius() {
        let g = path_graph();
        let hd = bfs_within(&g, VertexId(0), 2);
        assert_eq!(hd.distances.len(), 3);
        assert_eq!(hd.distance(VertexId(2)), Some(2));
        assert_eq!(hd.distance(VertexId(3)), None);
    }

    #[test]
    fn stale_sources_yield_empty_results() {
        let g = path_graph();
        let stale = VertexId(99);
        assert!(bfs_within(&g, stale, 3).distances.is_empty());
        assert!(hop_subgraph(&g, stale, 2).is_empty());
        assert_eq!(hop_distance(&g, stale, VertexId(0)), None);
        assert_eq!(hop_distance(&g, VertexId(0), stale), None);
        // even the reflexive case must not report distance 0 for a vertex
        // the graph does not contain
        assert_eq!(hop_distance(&g, stale, stale), None);
    }

    #[test]
    fn empty_graph_traversals_are_empty() {
        let g = SocialNetwork::new();
        assert!(bfs_within(&g, VertexId(0), u32::MAX).distances.is_empty());
        assert!(hop_subgraph(&g, VertexId(0), 1).is_empty());
        assert_eq!(hop_distance(&g, VertexId(0), VertexId(1)), None);
        assert!(connected_components(&g).is_empty());
    }

    #[test]
    fn hop_subgraph_matches_radius() {
        let g = path_graph();
        let h1 = hop_subgraph(&g, VertexId(2), 1);
        assert_eq!(h1.as_slice(), &[VertexId(1), VertexId(2), VertexId(3)]);
        let h0 = hop_subgraph(&g, VertexId(2), 0);
        assert_eq!(h0.as_slice(), &[VertexId(2)]);
    }

    #[test]
    fn hop_distance_between_pairs() {
        let g = path_graph();
        assert_eq!(hop_distance(&g, VertexId(0), VertexId(4)), Some(4));
        assert_eq!(hop_distance(&g, VertexId(1), VertexId(1)), Some(0));
        assert_eq!(hop_distance(&g, VertexId(0), VertexId(5)), None);
    }

    #[test]
    fn subset_restricted_distances() {
        let g = path_graph();
        // subset {0, 1, 3, 4}: 3 and 4 unreachable from 0 without vertex 2
        let s = VertexSubset::from_iter([VertexId(0), VertexId(1), VertexId(3), VertexId(4)]);
        let hd = hop_distances_within_subset(&g, &s, VertexId(0));
        assert_eq!(hd.distances.len(), 2);
        assert!(!satisfies_radius(&g, &s, VertexId(0), 5));
        let t = VertexSubset::from_iter([VertexId(0), VertexId(1), VertexId(2)]);
        assert!(satisfies_radius(&g, &t, VertexId(0), 2));
        assert!(!satisfies_radius(&g, &t, VertexId(0), 1));
        assert!(satisfies_radius(&g, &t, VertexId(1), 1));
        // centre outside the subset never satisfies the constraint
        assert!(!satisfies_radius(&g, &t, VertexId(4), 3));
        assert!(satisfies_radius(&g, &VertexSubset::new(), VertexId(0), 1));
    }

    #[test]
    fn components_and_connectivity() {
        let g = path_graph();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 5);
        assert_eq!(comps[1].len(), 1);
        assert!(!is_connected(&g));

        let mut g2 = g.clone();
        g2.apply_edge_inserted(VertexId(4), VertexId(5), 0.5, 0.5)
            .unwrap();
        assert!(is_connected(&g2));
        assert!(is_connected(&SocialNetwork::new()));
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let g = path_graph();
        let mut reused = TraversalWorkspace::new();
        for source in g.vertices() {
            for max_hops in [0, 1, 2, u32::MAX] {
                let with_reuse = bfs_within_with(&mut reused, &g, source, max_hops);
                let fresh = bfs_within_with(&mut TraversalWorkspace::new(), &g, source, max_hops);
                assert_eq!(with_reuse.distances, fresh.distances);
            }
        }
    }

    #[test]
    fn bfs_into_reuses_buffer_and_keeps_distance_stamps() {
        let g = path_graph();
        let mut ws = TraversalWorkspace::new();
        let mut order = Vec::new();
        for source in g.vertices() {
            for max_hops in [0, 1, 3, u32::MAX] {
                bfs_within_into(&mut ws, &g, source, max_hops, &mut order);
                let fresh = bfs_within_with(&mut TraversalWorkspace::new(), &g, source, max_hops);
                assert_eq!(order, fresh.distances, "source {source} r {max_hops}");
                // the epoch-stamped distances survive until the next begin(),
                // giving O(1) region-membership tests over the same BFS
                for &(v, d) in &order {
                    assert_eq!(ws.dist(v), Some(d));
                }
            }
        }
        // stale sources leave the buffer empty rather than panicking, and
        // invalidate the previous traversal's stamps so membership tests
        // reflect the (empty) region instead of leftover distances
        bfs_within_into(&mut ws, &g, VertexId(99), 2, &mut order);
        assert!(order.is_empty());
        for v in g.vertices() {
            assert_eq!(ws.dist(v), None, "stale stamp survived for {v}");
        }
    }
}
