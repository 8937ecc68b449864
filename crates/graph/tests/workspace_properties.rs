//! Property tests for the epoch-stamp reset bug class: a traversal through a
//! *reused* [`TraversalWorkspace`] must be bit-identical to one through a
//! fresh workspace, no matter what the previous traversals left behind, and
//! the epoch-counter wraparound must not resurrect stale stamps. The bounded
//! BFS is also checked against an independent reference that shares no code
//! with the workspace path, so a fault in that path cannot pass by agreeing
//! with itself.

use icde_graph::traversal::{
    bfs_within_with, connected_components_with, hop_distance_with, hop_distances_within_subset_with,
};
use icde_graph::workspace::TraversalWorkspace;
use icde_graph::{GraphBuilder, SocialNetwork, VertexId, VertexSubset};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Deterministic random graph from an (n, seed) pair: xorshift-driven edge
/// set over `n` vertices, roughly 2n attempted edges.
fn random_graph(n: usize, seed: u64) -> SocialNetwork {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut builder = GraphBuilder::with_vertices(n);
    for _ in 0..2 * n {
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        let p_ab = (1 + next() % 999) as f64 / 1000.0;
        let p_ba = (1 + next() % 999) as f64 / 1000.0;
        builder.try_add_edge(VertexId(a), VertexId(b), p_ab, p_ba);
    }
    builder
        .build()
        .expect("try_add_edge admits only valid edges")
}

/// The bounded BFS without a workspace: per-call `Option` distances and a
/// `VecDeque`. Returns the hop distance of every vertex (`None` when the
/// source does not reach it within `max_hops`).
fn reference_bfs_distances(g: &SocialNetwork, source: VertexId, max_hops: u32) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued vertices have distances");
        if du == max_hops {
            continue;
        }
        for (n, _) in g.neighbors(u) {
            if dist[n.index()].is_none() {
                dist[n.index()] = Some(du + 1);
                queue.push_back(n);
            }
        }
    }
    dist
}

fn graph_strategy(max_vertices: usize) -> impl Strategy<Value = SocialNetwork> {
    (2usize..max_vertices, any::<u64>()).prop_map(|(n, seed)| random_graph(n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn bfs_is_bit_identical_through_a_reused_workspace(g in graph_strategy(40)) {
        // many consecutive calls on one workspace vs a fresh workspace per
        // call: any stale stamp leaking across epochs would desync them
        let mut reused = TraversalWorkspace::new();
        for source in g.vertices() {
            for max_hops in [0u32, 1, 2, u32::MAX] {
                let a = bfs_within_with(&mut reused, &g, source, max_hops);
                let b = bfs_within_with(&mut TraversalWorkspace::new(), &g, source, max_hops);
                prop_assert_eq!(&a.distances, &b.distances, "source {} hops {}", source, max_hops);
                let mut per_vertex = vec![None; g.num_vertices()];
                for &(v, d) in &a.distances {
                    per_vertex[v.index()] = Some(d);
                }
                prop_assert_eq!(
                    per_vertex,
                    reference_bfs_distances(&g, source, max_hops),
                    "source {} hops {} vs the reference", source, max_hops
                );
            }
        }
    }

    #[test]
    fn subset_bfs_and_components_survive_workspace_reuse(g in graph_strategy(30)) {
        let mut reused = TraversalWorkspace::new();
        // interleave different traversal kinds on the same workspace
        let all = VertexSubset::from_iter(g.vertices());
        for source in g.vertices() {
            let a = hop_distances_within_subset_with(&mut reused, &g, &all, source);
            let b = hop_distances_within_subset_with(
                &mut TraversalWorkspace::new(), &g, &all, source,
            );
            prop_assert_eq!(&a.distances, &b.distances);

            let ca = connected_components_with(&mut reused, &g);
            let cb = connected_components_with(&mut TraversalWorkspace::new(), &g);
            prop_assert_eq!(&ca, &cb);

            let target = VertexId((source.0 + 1) % g.num_vertices() as u32);
            prop_assert_eq!(
                hop_distance_with(&mut reused, &g, source, target),
                hop_distance_with(&mut TraversalWorkspace::new(), &g, source, target)
            );
        }
    }

    #[test]
    fn epoch_wraparound_does_not_corrupt_traversals(g in graph_strategy(30)) {
        // park the reused workspace a few epochs before the wrap, then run
        // enough traversals to cross it; each must still match a fresh run
        let mut reused = TraversalWorkspace::new();
        // leave realistic stale stamps behind before the jump
        let _ = bfs_within_with(&mut reused, &g, VertexId(0), u32::MAX);
        reused.force_epoch(u32::MAX - 3);
        let mut crossed = 0u32;
        for i in 0..8u32 {
            let source = VertexId(i % g.num_vertices() as u32);
            let before = reused.epoch();
            let a = bfs_within_with(&mut reused, &g, source, u32::MAX);
            let b = bfs_within_with(&mut TraversalWorkspace::new(), &g, source, u32::MAX);
            prop_assert_eq!(&a.distances, &b.distances, "epoch {}", reused.epoch());
            if reused.epoch() < before {
                crossed += 1;
            }
        }
        prop_assert_eq!(crossed, 1, "the wraparound must actually be exercised");
    }
}
