//! Property tests for the builder → frozen-CSR freeze: whatever random edge
//! set goes into [`GraphBuilder`], the frozen [`SocialNetwork`] must come out
//! with sorted contiguous neighbour slices, symmetric adjacency, insertion-
//! order edge ids, and directed weights that agree with the builder's inputs.

use icde_graph::{EdgeId, GraphBuilder, KeywordSet, SocialNetwork, VertexId};
use proptest::prelude::*;

/// A random edge set over `n` vertices plus the graph frozen from it. The raw
/// table (insertion order, deduplicated, canonicalised endpoints) is kept so
/// properties can compare the frozen store against the builder's inputs.
type EdgeTable = Vec<(u32, u32, f64, f64)>;

fn random_frozen(max_vertices: usize) -> impl Strategy<Value = (usize, EdgeTable, SocialNetwork)> {
    (2usize..max_vertices, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut builder = GraphBuilder::with_vertices(n);
        for i in 0..n {
            let kws: Vec<u32> = (0..1 + next() % 3).map(|_| (next() % 16) as u32).collect();
            builder
                .set_keywords(VertexId(i as u32), KeywordSet::from_ids(kws))
                .expect("vertex exists");
        }
        let mut table: EdgeTable = Vec::new();
        let attempts = 1 + (next() % (3 * n as u64)) as usize;
        for _ in 0..attempts {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            let p_ab = (next() % 1000) as f64 / 1000.0;
            let p_ba = (next() % 1000) as f64 / 1000.0;
            if builder.try_add_edge(VertexId(a), VertexId(b), p_ab, p_ba) {
                // canonicalise exactly the way the store does
                let (lo, hi, wf, wb) = if a < b {
                    (a, b, p_ab, p_ba)
                } else {
                    (b, a, p_ba, p_ab)
                };
                table.push((lo, hi, wf, wb));
            }
        }
        let g = builder
            .build()
            .expect("try_add_edge admits only valid edges");
        (n, table, g)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn neighbor_slices_are_sorted_and_duplicate_free((_, _, g) in random_frozen(40)) {
        for v in g.vertices() {
            let row = g.neighbors(v).to_vec();
            prop_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row of {v} not strictly sorted");
            prop_assert_eq!(row.len(), g.degree(v));
        }
    }

    #[test]
    fn adjacency_is_symmetric_with_shared_edge_ids((_, _, g) in random_frozen(40)) {
        for v in g.vertices() {
            for (n, e) in g.neighbors(v) {
                // the reverse entry exists and carries the same edge id
                let reverse = g.neighbors(n).iter().find(|&(w, _)| w == v);
                prop_assert_eq!(reverse.map(|(_, re)| re), Some(e), "missing reverse of {}-{}", v, n);
                // the edge table agrees with both directions
                let (lo, hi) = g.edge_endpoints(e);
                prop_assert!((lo == v && hi == n) || (lo == n && hi == v));
                prop_assert!(lo < hi, "edge table must be canonical");
            }
        }
    }

    #[test]
    fn edge_ids_are_stable_insertion_order((_, table, g) in random_frozen(40)) {
        prop_assert_eq!(g.num_edges(), table.len());
        for (i, &(lo, hi, _, _)) in table.iter().enumerate() {
            let e = EdgeId(i as u32);
            prop_assert_eq!(g.edge_endpoints(e), (VertexId(lo), VertexId(hi)));
            prop_assert_eq!(g.edge_between(VertexId(lo), VertexId(hi)), Some(e));
        }
    }

    #[test]
    fn directed_weights_agree_with_builder_inputs((_, table, g) in random_frozen(40)) {
        for (i, &(lo, hi, wf, wb)) in table.iter().enumerate() {
            let e = EdgeId(i as u32);
            prop_assert_eq!(g.directed_weight(e, VertexId(lo)), wf);
            prop_assert_eq!(g.directed_weight(e, VertexId(hi)), wb);
            prop_assert_eq!(g.activation_probability(VertexId(lo), VertexId(hi)).unwrap(), wf);
            prop_assert_eq!(g.activation_probability(VertexId(hi), VertexId(lo)).unwrap(), wb);
        }
    }

    #[test]
    fn degrees_match_edge_table_incidence((n, table, g) in random_frozen(40)) {
        let mut expected = vec![0usize; n];
        for &(lo, hi, _, _) in &table {
            expected[lo as usize] += 1;
            expected[hi as usize] += 1;
        }
        for v in g.vertices() {
            prop_assert_eq!(g.degree(v), expected[v.index()]);
        }
        prop_assert_eq!(2 * g.num_edges(), expected.iter().sum::<usize>());
    }
}
