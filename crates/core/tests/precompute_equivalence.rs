//! Equivalence property tests for the offline pre-computation engine.
//!
//! The frontier-incremental, multi-threshold, work-stealing engine behind
//! [`PrecomputedData::compute`] must be indistinguishable from the in-tree
//! reference path ([`PrecomputedData::compute_reference`] — one full
//! influence expansion per `(vertex, radius, threshold)` and per-region
//! re-scans): keyword signatures, support bounds and region sizes
//! **bit-identical**, every `σ_z` within 1e-9 (the two paths sum the same
//! settled `cpp` values in different orders). Scheduling must be invisible —
//! any worker count writes the exact same table — and the streaming
//! maintainer's incremental refresh must agree with a from-scratch build
//! after edge insertions and deletions.

use icde_core::precompute::{PrecomputeConfig, PrecomputedData};
use icde_core::query::TopLQuery;
use icde_core::streaming::{EdgeUpdate, StreamingMaintainer};
use icde_core::topl::TopLProcessor;
use icde_core::IndexBuilder;
use icde_graph::generators::{DatasetKind, DatasetSpec};
use icde_graph::{KeywordSet, SocialNetwork, VertexId};
use proptest::prelude::*;

fn generated_graph(n: usize, seed: u64, keyword_domain: u32) -> SocialNetwork {
    DatasetSpec::new(DatasetKind::Uniform, n.max(4), seed)
        .with_keyword_domain(keyword_domain.max(2))
        .generate()
}

fn config_strategy() -> impl Strategy<Value = PrecomputeConfig> {
    (
        1u32..5,
        prop_oneof![
            Just(vec![0.1, 0.2, 0.3]),
            Just(vec![0.2]),
            Just(vec![0.05, 0.15, 0.25, 0.5]),
            Just(vec![0.0, 0.3]),
        ],
    )
        .prop_map(|(r_max, thresholds)| {
            PrecomputeConfig::new(r_max, thresholds).with_parallel(false)
        })
}

/// Asserts the engine-vs-reference equivalence contract between two tables.
fn assert_equivalent(fast: &PrecomputedData, reference: &PrecomputedData) {
    assert_eq!(fast.edge_supports, reference.edge_supports);
    assert_eq!(fast.num_vertices(), reference.num_vertices());
    assert_eq!(
        fast.table().structural_fingerprint(),
        reference.table().structural_fingerprint(),
        "signatures / supports / region sizes must be bit-identical"
    );
    let delta = fast.table().max_score_delta(reference.table());
    assert!(delta < 1e-9, "score bounds diverged by {delta}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_reference_on_generated_graphs(
        n in 8usize..90,
        seed in any::<u64>(),
        keyword_domain in 2u32..24,
        config in config_strategy(),
    ) {
        let g = generated_graph(n, seed, keyword_domain);
        let fast = PrecomputedData::compute(&g, config.clone());
        let reference = PrecomputedData::compute_reference(&g, config);
        assert_equivalent(&fast, &reference);
        // and row-by-row, so a failure names the offending aggregate
        for v in g.vertices() {
            for r in 1..=fast.config.r_max {
                let a = fast.aggregate(v, r);
                let b = reference.aggregate(v, r);
                prop_assert_eq!(a.keyword_signature, b.keyword_signature, "{} r={}", v, r);
                prop_assert_eq!(a.support_upper_bound, b.support_upper_bound, "{} r={}", v, r);
                prop_assert_eq!(a.region_size, b.region_size, "{} r={}", v, r);
                for (z, (sa, sb)) in a
                    .score_upper_bounds
                    .iter()
                    .zip(b.score_upper_bounds.iter())
                    .enumerate()
                {
                    prop_assert!((sa - sb).abs() < 1e-9, "{} r={} z={}: {} vs {}", v, r, z, sa, sb);
                }
            }
        }
        // a query answers the same off either index: scores, reach and
        // vertex sets (not centres, which can tie within one community)
        let radius = fast.config.r_max.min(2);
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3]), 3, radius, 0.2, 5);
        let engine_index = IndexBuilder::new(fast.config.clone()).build_from_precomputed(&g, fast);
        let reference_index =
            IndexBuilder::new(reference.config.clone()).build_from_precomputed(&g, reference);
        let a = TopLProcessor::new(&g, &engine_index).run(&query).unwrap();
        let b = TopLProcessor::new(&g, &reference_index).run(&query).unwrap();
        prop_assert_eq!(a.communities.len(), b.communities.len());
        for (x, y) in a.communities.iter().zip(&b.communities) {
            prop_assert_eq!(x.influential_score.to_bits(), y.influential_score.to_bits());
            prop_assert_eq!(x.influenced_size, y.influenced_size);
            prop_assert_eq!(&x.vertices, &y.vertices);
        }
    }

    #[test]
    fn any_worker_count_writes_the_same_table(
        n in 8usize..120,
        seed in any::<u64>(),
        workers in 2usize..6,
        config in config_strategy(),
    ) {
        let g = generated_graph(n, seed, 12);
        let sequential = PrecomputedData::compute(&g, config.clone().with_num_threads(Some(1)));
        let parallel = PrecomputedData::compute(&g, config.with_num_threads(Some(workers)));
        // the engine computes every vertex identically no matter which worker
        // claims it: exact equality, floats included
        prop_assert_eq!(sequential.table(), parallel.table());
        prop_assert_eq!(&sequential.edge_supports, &parallel.edge_supports);
    }

    #[test]
    fn maintenance_round_trip_agrees_with_from_scratch(
        n in 16usize..70,
        seed in any::<u64>(),
    ) {
        let config = PrecomputeConfig::default().with_parallel(false);
        let g = generated_graph(n, seed, 10);
        let Some((u, v)) = g
            .vertices()
            .flat_map(|u| g.vertices().map(move |v| (u, v)))
            .find(|&(u, v)| u < v && !g.contains_edge(u, v))
        else {
            return; // complete graph: nothing to insert
        };
        let (_, du, dv) = g.edges().next().expect("graph has edges");
        let index = IndexBuilder::new(config.clone()).build(&g);
        let mut maintainer = StreamingMaintainer::new(g, index);
        for update in [
            EdgeUpdate::Insert { u, v, p_uv: 0.4, p_vu: 0.6 },
            EdgeUpdate::Remove { u: du, v: dv },
        ] {
            prop_assert!(maintainer.apply_batch(&[update]) > 0);
            let scratch = PrecomputedData::compute(maintainer.graph(), config.clone());
            assert_equivalent(&maintainer.index().precomputed, &scratch);
        }
    }
}

#[test]
fn single_vertex_recompute_rides_the_engine() {
    // a single-vertex recompute must reproduce the row a from-scratch engine
    // build computes, for every vertex. At 200 vertices a single-vertex batch
    // hashes signatures on the fly while the full batch goes through the
    // flat table — both paths must agree with the bulk build bit for bit.
    let g = generated_graph(200, 7, 8);
    let config = PrecomputeConfig::default().with_parallel(false);
    let scratch = PrecomputedData::compute(&g, config.clone());
    let mut data = PrecomputedData::compute(&g, config);
    for v in g.vertices() {
        data.recompute_vertices(&g, &[v]);
    }
    assert_eq!(data.table(), scratch.table());
    // batch form, deliberately unsorted and with repeats
    let mut batch: Vec<VertexId> = g.vertices().collect();
    batch.reverse();
    batch.push(VertexId(0));
    data.recompute_vertices(&g, &batch);
    assert_eq!(data.table(), scratch.table());
}
