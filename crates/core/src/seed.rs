//! Seed communities (Definition 2): extraction and validation.
//!
//! A seed community `g` centred at `v_q` with parameters `(k, r, Q)` is a
//! connected subgraph such that
//!
//! 1. `v_q ∈ V(g)`,
//! 2. every member is within `r` hops of `v_q` *inside* `g`,
//! 3. `g` is a k-truss (every edge of `g` lies in ≥ `k − 2` triangles of `g`),
//! 4. every member's keyword set intersects the query keyword set `Q`.
//!
//! [`extract_seed_community`] computes the (unique) maximal such subgraph for
//! one centre by alternating three monotone reductions until a fixpoint:
//! keyword filtering, k-truss peeling, and radius trimming. Each step only
//! removes vertices/edges that can never belong to any valid seed community
//! around this centre, so the fixpoint is the maximal valid community (or
//! nothing if the centre itself is eliminated).

use icde_graph::traversal::{bfs_within_into, hop_distances_within_subset};
use icde_graph::workspace::{with_thread_workspace, TraversalWorkspace};
use icde_graph::{KeywordSet, SocialNetwork, VertexId, VertexSubset};
use icde_truss::ktruss::{maximal_ktruss, KTrussPeel};
use serde::Serialize;
use std::cell::RefCell;

/// A fully-refined seed community together with its influential score.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeedCommunity {
    /// The centre vertex `v_q`.
    pub center: VertexId,
    /// Members of the community (centre included).
    pub vertices: VertexSubset,
    /// Exact influential score `σ(g)` under the query threshold.
    pub influential_score: f64,
    /// Size of the influenced community `g^Inf` (members + influenced users).
    pub influenced_size: usize,
}

impl SeedCommunity {
    /// Number of members of the seed community.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` if the community has no members (never produced by the
    /// processors; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of influenced users outside the seed community.
    pub fn influenced_only(&self) -> usize {
        self.influenced_size.saturating_sub(self.vertices.len())
    }
}

/// Extracts the maximal seed community centred at `center` for parameters
/// `(k, r, Q)`, or `None` if no valid community containing the centre exists.
pub fn extract_seed_community(
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: &KeywordSet,
) -> Option<VertexSubset> {
    with_thread_workspace(|ws| {
        extract_seed_community_with(ws, g, center, support, radius, query_keywords)
    })
}

/// [`extract_seed_community`] against a caller-owned workspace (used for the
/// r-hop ball's BFS).
pub fn extract_seed_community_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: &KeywordSet,
) -> Option<VertexSubset> {
    extract_subset(ws, g, center, support, radius, Some(query_keywords))
}

/// The keyword-*unconstrained* maximal seed community `X_all(center; k, r)`:
/// the fixpoint of truss peeling and radius trimming over the full r-hop
/// ball, with no keyword filter.
///
/// Every keyword-constrained seed community for the same `(k, r)` is a
/// subgraph of this set (the extraction fixpoint is monotone in its starting
/// set), so `σ_θ(X_all)` upper-bounds `σ_θ` of any query's community at this
/// centre. The offline engine stores exactly that bound per `(v, r, θ_z)`.
pub fn extract_unconstrained_seed_community_with(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
) -> Option<VertexSubset> {
    extract_subset(ws, g, center, support, radius, None)
}

fn extract_subset(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: Option<&KeywordSet>,
) -> Option<VertexSubset> {
    let mut members = Vec::new();
    extract_seed_members(ws, g, center, support, radius, query_keywords, &mut members)
        .then(|| VertexSubset::from_iter(members))
}

/// The extraction fixpoint behind every public entry point: writes the
/// maximal community's members into `out` in ascending id order and returns
/// `true`, or leaves `out` empty and returns `false` when there is none.
/// `query_keywords: None` skips the keyword filter (the `X_all` variant the
/// offline seed bounds use). The progressive kernel and the offline engine
/// call it directly and never build a [`VertexSubset`] for a refinement.
pub(crate) fn extract_seed_members(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: Option<&KeywordSet>,
    out: &mut Vec<VertexId>,
) -> bool {
    out.clear();
    if !g.contains_vertex(center) {
        return false;
    }
    // The centre itself must satisfy the keyword constraint.
    if let Some(q) = query_keywords {
        if !g.keyword_set(center).intersects(q) {
            return false;
        }
    }
    // `run` calls nothing that could extract again, so the borrow is never
    // re-entrant
    THREAD_EXTRACTOR.with(|cell| {
        cell.borrow_mut()
            .run(ws, g, center, support, radius, query_keywords, out)
    })
}

thread_local! {
    /// One set of extraction buffers per thread, grown to the largest ball
    /// the thread has refined and reused from then on.
    static THREAD_EXTRACTOR: RefCell<Extractor> = RefCell::new(Extractor::default());
}

/// Reusable buffers of the extraction fixpoint.
#[derive(Debug, Default)]
struct Extractor {
    /// The r-hop ball in BFS order.
    ball: Vec<(VertexId, u32)>,
    /// Keyword-qualified ball members, ascending: the first candidate set.
    candidate: Vec<VertexId>,
    /// The k-truss peel over the candidate set's local view.
    peel: KTrussPeel,
    /// Per local vertex: still a candidate.
    live: Vec<bool>,
    /// Per local vertex: in the centre's surviving component this round.
    in_component: Vec<bool>,
    /// Per local vertex: in the component and within `radius` of the centre.
    within: Vec<bool>,
    /// DFS stack / BFS queue of local vertices with their hop distance.
    queue: Vec<(u32, u32)>,
}

impl Extractor {
    /// Alternates three monotone reductions until nothing changes: keyword
    /// filtering (once, on the ball), k-truss peeling, and trimming to the
    /// centre's surviving component within `radius` hops.
    ///
    /// The local view is built once. A round that trims vertices removes
    /// them from the peel, which re-peels incrementally to exactly the
    /// maximal k-truss of the smaller set (see [`KTrussPeel`]). The radius
    /// is measured over *every* induced edge among the component's
    /// vertices, peeled ones included, as in Definition 2's `dist` inside
    /// the community's vertex set.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        ws: &mut TraversalWorkspace,
        g: &SocialNetwork,
        center: VertexId,
        support: u32,
        radius: u32,
        query_keywords: Option<&KeywordSet>,
        out: &mut Vec<VertexId>,
    ) -> bool {
        let Extractor {
            ball,
            candidate,
            peel,
            live,
            in_component,
            within,
            queue,
        } = self;
        bfs_within_into(ws, g, center, radius, ball);
        candidate.clear();
        candidate.extend(
            ball.iter()
                .map(|&(v, _)| v)
                .filter(|&v| query_keywords.is_none_or(|q| g.keyword_set(v).intersects(q))),
        );
        if candidate.len() <= 1 {
            return false;
        }
        candidate.sort_unstable();
        peel.peel(g, candidate, support);
        let local = peel.local();
        let n = local.num_vertices();
        let c = local
            .local(center)
            .expect("the qualified centre lies in its own ball");
        live.clear();
        live.resize(n, true);
        let mut live_count = n;
        loop {
            // the centre's component through surviving truss edges
            if !peel.has_alive_edge(c) {
                return false;
            }
            let local = peel.local();
            in_component.clear();
            in_component.resize(n, false);
            in_component[c] = true;
            queue.clear();
            queue.push((c as u32, 0));
            while let Some((u, _)) = queue.pop() {
                for &(w, e) in local.neighbors(u as usize) {
                    if peel.is_edge_alive(e as usize) && !in_component[w as usize] {
                        in_component[w as usize] = true;
                        queue.push((w, 0));
                    }
                }
            }
            // radius trim: BFS from the centre over every local edge between
            // component members, to depth `radius`
            within.clear();
            within.resize(n, false);
            within[c] = true;
            let mut within_count = 1;
            queue.clear();
            queue.push((c as u32, 0));
            let mut head = 0;
            while head < queue.len() {
                let (u, d) = queue[head];
                head += 1;
                if d == radius {
                    continue;
                }
                for &(w, _) in local.neighbors(u as usize) {
                    let w = w as usize;
                    if in_component[w] && !within[w] {
                        within[w] = true;
                        within_count += 1;
                        queue.push((w as u32, d + 1));
                    }
                }
            }
            // `within ⊆ component ⊆ candidates`: equal sizes mean a fixpoint
            if within_count == live_count {
                out.extend((0..n).filter(|&u| within[u]).map(|u| local.global(u)));
                return true;
            }
            if within_count <= 1 {
                return false;
            }
            // drop every candidate outside `within` and re-peel what is left
            peel.remove_vertices((0..n).filter(|&u| live[u] && !within[u]));
            std::mem::swap(live, within);
            live_count = within_count;
        }
    }
}

/// Checks whether `subset` is a valid seed community for `(center, k, r, Q)`
/// per Definition 2 (connectivity, centre membership, radius, truss and
/// keyword constraints).
///
/// The k-truss constraint uses the edge-subgraph semantics standard in truss
/// community search: the maximal k-truss of the subgraph induced by `subset`
/// must span every member and connect them all to the centre through truss
/// edges. (Stray induced edges that do not reach the required support are not
/// part of the community's edge set; they do not invalidate it.)
pub fn is_valid_seed_community(
    g: &SocialNetwork,
    subset: &VertexSubset,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: &KeywordSet,
) -> bool {
    if subset.is_empty() || !subset.contains(center) {
        return false;
    }
    if !subset
        .iter()
        .all(|v| g.keyword_set(v).intersects(query_keywords))
    {
        return false;
    }
    if !subset.is_connected(g) {
        return false;
    }
    // radius constraint measured inside the subgraph
    let distances = hop_distances_within_subset(g, subset, center);
    if distances.distances.len() != subset.len() || distances.max_distance() > radius {
        return false;
    }
    // truss constraint: the k-truss of the induced subgraph must cover the
    // whole subset and keep it connected around the centre
    match maximal_ktruss(g, subset, support).component_containing(center) {
        Some(component) => component == *subset,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_graph::KeywordSet;

    /// Graph used across the seed tests:
    /// * K4 on {0,1,2,3} — all tagged with keyword 1,
    /// * vertex 4 attached to 0,1,2 (forming a K5 minus edge 3-4) — keyword 2,
    /// * a far triangle {5,6,7} tagged keyword 1, connected to 3 by one edge.
    fn test_graph() -> SocialNetwork {
        let mut b = icde_graph::GraphBuilder::new();
        for kw in [1u32, 1, 1, 1, 2, 1, 1, 1] {
            b.add_vertex(KeywordSet::from_ids([kw]));
        }
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_symmetric_edge(VertexId(i), VertexId(j), 0.6);
            }
        }
        for n in [0u32, 1, 2] {
            b.add_symmetric_edge(VertexId(4), VertexId(n), 0.6);
        }
        b.add_symmetric_edge(VertexId(3), VertexId(5), 0.6);
        b.add_symmetric_edge(VertexId(5), VertexId(6), 0.6);
        b.add_symmetric_edge(VertexId(6), VertexId(7), 0.6);
        b.add_symmetric_edge(VertexId(5), VertexId(7), 0.6);
        b.build().unwrap()
    }

    #[test]
    fn extracts_clique_community() {
        let g = test_graph();
        let q = KeywordSet::from_ids([1]);
        let c = extract_seed_community(&g, VertexId(0), 4, 2, &q).unwrap();
        // vertex 4 fails the keyword constraint, so the community is the K4
        assert_eq!(c.as_slice(), &[0, 1, 2, 3].map(VertexId));
        assert!(is_valid_seed_community(&g, &c, VertexId(0), 4, 2, &q));
    }

    #[test]
    fn keyword_2_admits_vertex_4() {
        let g = test_graph();
        let q = KeywordSet::from_ids([1, 2]);
        let c = extract_seed_community(&g, VertexId(0), 4, 2, &q).unwrap();
        // with both keywords allowed, vertex 4 joins and the 4-truss covers
        // {0,1,2,3,4}
        assert_eq!(c.as_slice(), &[0, 1, 2, 3, 4].map(VertexId));
        assert!(is_valid_seed_community(&g, &c, VertexId(0), 4, 2, &q));
    }

    #[test]
    fn center_without_query_keyword_yields_none() {
        let g = test_graph();
        let q = KeywordSet::from_ids([1]);
        assert!(extract_seed_community(&g, VertexId(4), 3, 2, &q).is_none());
    }

    #[test]
    fn triangle_center_with_k3() {
        let g = test_graph();
        let q = KeywordSet::from_ids([1]);
        let c = extract_seed_community(&g, VertexId(6), 3, 1, &q).unwrap();
        assert_eq!(c.as_slice(), &[5, 6, 7].map(VertexId));
        // k = 4 is too demanding for the triangle
        assert!(extract_seed_community(&g, VertexId(6), 4, 2, &q).is_none());
    }

    #[test]
    fn radius_constraint_trims_far_vertices() {
        let g = test_graph();
        let q = KeywordSet::from_ids([1]);
        // radius 1 around vertex 5: the triangle is within one hop, the K4 is
        // not (vertex 3 is adjacent but its clique-mates are 2 hops away)
        let c = extract_seed_community(&g, VertexId(5), 3, 1, &q).unwrap();
        assert_eq!(c.as_slice(), &[5, 6, 7].map(VertexId));
    }

    #[test]
    fn unreachable_or_low_support_centers_yield_none() {
        // test_graph plus an isolated vertex 8
        let g = {
            let mut b = icde_graph::GraphBuilder::new();
            for kw in [1u32, 1, 1, 1, 2, 1, 1, 1, 1] {
                b.add_vertex(KeywordSet::from_ids([kw]));
            }
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    b.add_symmetric_edge(VertexId(i), VertexId(j), 0.6);
                }
            }
            for n in [0u32, 1, 2] {
                b.add_symmetric_edge(VertexId(4), VertexId(n), 0.6);
            }
            b.add_symmetric_edge(VertexId(3), VertexId(5), 0.6);
            b.add_symmetric_edge(VertexId(5), VertexId(6), 0.6);
            b.add_symmetric_edge(VertexId(6), VertexId(7), 0.6);
            b.add_symmetric_edge(VertexId(5), VertexId(7), 0.6);
            b.build().unwrap()
        };
        let isolated = VertexId(8);
        let q = KeywordSet::from_ids([1]);
        assert!(extract_seed_community(&g, isolated, 3, 2, &q).is_none());
        // support 5 exceeds anything in the graph (K4 edges only have 2
        // triangles each inside {0,1,2,3})
        assert!(extract_seed_community(&g, VertexId(0), 6, 2, &q).is_none());
    }

    #[test]
    fn validation_rejects_constraint_violations() {
        let g = test_graph();
        let q = KeywordSet::from_ids([1]);
        let k4 = VertexSubset::from_iter([0, 1, 2, 3].map(VertexId));
        assert!(is_valid_seed_community(&g, &k4, VertexId(0), 4, 2, &q));
        // centre outside
        assert!(!is_valid_seed_community(&g, &k4, VertexId(5), 4, 2, &q));
        // keyword violation: vertex 4 has keyword 2 only
        let with4 = VertexSubset::from_iter([0, 1, 2, 3, 4].map(VertexId));
        assert!(!is_valid_seed_community(&g, &with4, VertexId(0), 4, 2, &q));
        // disconnected set
        let disconnected = VertexSubset::from_iter([0, 1, 6].map(VertexId));
        assert!(!is_valid_seed_community(
            &g,
            &disconnected,
            VertexId(0),
            2,
            3,
            &q
        ));
        // truss violation: {3,5,6} forms a path (edge 3-5 in no triangle)
        let path = VertexSubset::from_iter([3, 5, 6].map(VertexId));
        assert!(!is_valid_seed_community(&g, &path, VertexId(3), 3, 2, &q));
        // radius violation: K4 plus the triangle around centre 0 at radius 1
        let all = VertexSubset::from_iter([0, 1, 2, 3, 5, 6, 7].map(VertexId));
        assert!(!is_valid_seed_community(&g, &all, VertexId(0), 3, 1, &q));
        // empty set
        assert!(!is_valid_seed_community(
            &g,
            &VertexSubset::new(),
            VertexId(0),
            3,
            1,
            &q
        ));
    }

    #[test]
    fn extracted_community_is_always_valid() {
        // For every centre and a few parameter combinations, whatever the
        // extractor returns must pass the validator.
        let g = test_graph();
        for center in g.vertices() {
            for (k, r, kws) in [
                (3u32, 1u32, vec![1u32]),
                (3, 2, vec![1, 2]),
                (4, 2, vec![1]),
                (4, 3, vec![1, 2]),
                (5, 2, vec![1, 2]),
            ] {
                let q = KeywordSet::from_ids(kws.clone());
                if let Some(c) = extract_seed_community(&g, center, k, r, &q) {
                    assert!(
                        is_valid_seed_community(&g, &c, center, k, r, &q),
                        "center {center} k {k} r {r} {kws:?} -> {:?}",
                        c.as_slice()
                    );
                }
            }
        }
    }

    #[test]
    fn unconstrained_extraction_ignores_keywords_and_dominates() {
        let g = test_graph();
        // vertex 4 (keyword 2 only) joins X_all regardless of query keywords
        let c = with_thread_workspace(|ws| {
            extract_unconstrained_seed_community_with(ws, &g, VertexId(0), 4, 2)
        })
        .unwrap();
        assert_eq!(c.as_slice(), &[0, 1, 2, 3, 4].map(VertexId));
        // every keyword-constrained community at the same centre is a subset
        for kws in [vec![1u32], vec![2], vec![1, 2]] {
            let q = KeywordSet::from_ids(kws);
            if let Some(sub) = extract_seed_community(&g, VertexId(0), 4, 2, &q) {
                assert!(sub.iter().all(|v| c.contains(v)));
            }
        }
    }

    #[test]
    fn seed_community_accessors() {
        let sc = SeedCommunity {
            center: VertexId(3),
            vertices: VertexSubset::from_iter([1, 2, 3].map(VertexId)),
            influential_score: 4.5,
            influenced_size: 7,
        };
        assert_eq!(sc.len(), 3);
        assert!(!sc.is_empty());
        assert_eq!(sc.influenced_only(), 4);
    }
}
