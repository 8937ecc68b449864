//! Property tests for the epoch-stamp reset bug class on the influence side:
//! `single_source_upp` and `influenced_community` must produce bit-identical
//! results through a reused [`TraversalWorkspace`] across many consecutive
//! calls on random graphs, and across the epoch-counter wraparound.
//! `single_source_upp` is also checked against an independent `BinaryHeap`
//! Dijkstra that shares no code with the workspace's bucket queue.

use icde_graph::workspace::TraversalWorkspace;
use icde_graph::{GraphBuilder, SocialNetwork, VertexId, VertexSubset};
use icde_influence::mia::{max_influence_path_with, single_source_upp_with};
use icde_influence::{InfluenceConfig, InfluenceEvaluator};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Deterministic random graph from an (n, seed) pair with asymmetric
/// directed probabilities in (0, 1].
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

/// `single_source_upp` without a workspace: per-call dense arrays and a
/// `BinaryHeap` Dijkstra over probabilities (max-product paths, candidates
/// below `floor` dropped).
fn reference_single_source_upp(g: &SocialNetwork, source: VertexId, floor: f64) -> Vec<f64> {
    #[derive(PartialEq)]
    struct Entry(f64, VertexId);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0
                .partial_cmp(&other.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.1.cmp(&other.1))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut best = vec![0.0f64; g.num_vertices()];
    let mut settled = vec![false; g.num_vertices()];
    let mut heap = BinaryHeap::new();
    best[source.index()] = 1.0;
    heap.push(Entry(1.0, source));
    while let Some(Entry(probability, vertex)) = heap.pop() {
        if settled[vertex.index()] {
            continue;
        }
        settled[vertex.index()] = true;
        for (n, p) in g.outgoing(vertex) {
            let candidate = probability * p;
            if candidate >= floor && candidate > best[n.index()] {
                best[n.index()] = candidate;
                heap.push(Entry(candidate, n));
            }
        }
    }
    best
}

fn graph_strategy(max_vertices: usize) -> impl Strategy<Value = SocialNetwork> {
    (2usize..max_vertices, any::<u64>()).prop_map(|(n, seed)| random_graph(n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn single_source_upp_is_bit_identical_through_a_reused_workspace(
        g in graph_strategy(32),
    ) {
        let mut reused = TraversalWorkspace::new();
        for source in g.vertices() {
            for floor in [0.0, 0.05, 0.3, 0.7] {
                let a = single_source_upp_with(&mut reused, &g, source, floor);
                let b = single_source_upp_with(
                    &mut TraversalWorkspace::new(), &g, source, floor,
                );
                // exact equality: probabilities are products along identical
                // best paths, independent of workspace history
                prop_assert_eq!(&a, &b, "source {} floor {}", source, floor);
                let reference = reference_single_source_upp(&g, source, floor);
                prop_assert_eq!(a.len(), reference.len());
                for (i, (x, y)) in a.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "source {} floor {} vertex {} vs the reference", source, floor, i
                    );
                }
            }
        }
    }

    #[test]
    fn influenced_community_is_bit_identical_through_a_reused_workspace(
        g in graph_strategy(24),
    ) {
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.2));
        let mut reused = TraversalWorkspace::new();
        for v in g.vertices() {
            // grow a two-vertex seed where possible to exercise multi-source
            let mut seed = VertexSubset::from_iter([v]);
            if let Some((n, _)) = g.neighbors(v).first() {
                seed.insert(n);
            }
            for theta in [0.05, 0.2, 0.5] {
                let a = eval.influenced_community_with_theta_in(&mut reused, &seed, theta);
                let b = eval.influenced_community_with_theta_in(
                    &mut TraversalWorkspace::new(), &seed, theta,
                );
                prop_assert_eq!(a.influential_score().to_bits(), b.influential_score().to_bits());
                prop_assert_eq!(a.len(), b.len());
                for (vertex, cpp) in a.iter() {
                    prop_assert_eq!(cpp.to_bits(), b.cpp(vertex).to_bits(), "vertex {}", vertex);
                }
            }
        }
    }

    #[test]
    fn mixed_traversals_survive_the_epoch_wraparound(g in graph_strategy(24)) {
        // interleave upp, mip and cpp expansions on one workspace across the
        // epoch wrap; every call must match a fresh-workspace run
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(0.1));
        let mut reused = TraversalWorkspace::new();
        let _ = single_source_upp_with(&mut reused, &g, VertexId(0), 0.0);
        reused.force_epoch(u32::MAX - 4);
        for i in 0..9u32 {
            let source = VertexId(i % g.num_vertices() as u32);
            let a = single_source_upp_with(&mut reused, &g, source, 0.1);
            let b = single_source_upp_with(&mut TraversalWorkspace::new(), &g, source, 0.1);
            prop_assert_eq!(&a, &b);

            let target = VertexId((source.0 + 1) % g.num_vertices() as u32);
            let ma = max_influence_path_with(&mut reused, &g, source, target);
            let mb = max_influence_path_with(&mut TraversalWorkspace::new(), &g, source, target);
            prop_assert_eq!(ma, mb);

            let seed = VertexSubset::from_iter([source]);
            let ca = eval.influenced_community_with_theta_in(&mut reused, &seed, 0.1);
            let cb = eval.influenced_community_with_theta_in(
                &mut TraversalWorkspace::new(), &seed, 0.1,
            );
            prop_assert_eq!(ca.influential_score().to_bits(), cb.influential_score().to_bits());
            prop_assert_eq!(ca, cb);
        }
    }
}
