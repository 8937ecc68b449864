//! Equivalence property tests for the offline pre-computation engine.
//!
//! The frontier-incremental, multi-threshold, work-stealing engine behind
//! [`PrecomputedData::compute`] must be indistinguishable from the in-tree
//! reference path ([`PrecomputedData::compute_reference`] — one full
//! influence expansion per `(vertex, radius, threshold)` and per-region
//! re-scans): keyword signatures, support bounds and region sizes
//! **bit-identical**, every `σ_z` within 1e-9 (the two paths sum the same
//! settled `cpp` values in different orders). Scheduling must be invisible —
//! any worker count, even one that leaves most workers an empty home range,
//! writes the exact same table and seed bounds, floats included, and so
//! serves the same Top-L answers — and the streaming maintainer's
//! incremental refresh must agree with a from-scratch build after edge
//! insertions and deletions. On a locality graph the workers' resident
//! scratch must also stay well below the dense n-per-worker projection.

use icde_core::precompute::{MaintenanceArena, PrecomputeConfig, PrecomputedData};
use icde_core::query::TopLQuery;
use icde_core::streaming::{EdgeUpdate, StreamingMaintainer};
use icde_core::topl::TopLProcessor;
use icde_core::IndexBuilder;
use icde_graph::generators::{
    assign_keywords, assign_uniform_weights, small_world, DatasetKind, DatasetSpec,
    KeywordDistribution, SmallWorldConfig, WeightRange,
};
use icde_graph::{KeywordSet, SocialNetwork, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;

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
        workers in 2usize..200,
        config in config_strategy(),
    ) {
        // workers routinely exceeds n here, so the count clamps to n and
        // every home range is smaller than one work-stealing chunk
        let g = generated_graph(n, seed, 12);
        let sequential = PrecomputedData::compute(&g, config.clone().with_num_threads(Some(1)));
        let parallel = PrecomputedData::compute(&g, config.with_num_threads(Some(workers)));
        // the engine computes every vertex identically no matter which worker
        // claims it: exact equality, floats included
        prop_assert_eq!(sequential.table(), parallel.table());
        prop_assert_eq!(sequential.table().max_score_delta(parallel.table()), 0.0);
        prop_assert_eq!(&sequential.edge_supports, &parallel.edge_supports);
        prop_assert_eq!(sequential.seed_bounds(), parallel.seed_bounds());
    }

    #[test]
    fn topl_answers_are_identical_off_a_parallel_index(
        n in 20usize..80,
        seed in any::<u64>(),
        workers in 2usize..16,
    ) {
        let g = generated_graph(n, seed, 12);
        let config = PrecomputeConfig::new(2, vec![0.1, 0.2, 0.3]);
        let sequential_index =
            IndexBuilder::new(config.clone().with_num_threads(Some(1))).build(&g);
        let parallel_index =
            IndexBuilder::new(config.with_num_threads(Some(workers))).build(&g);
        prop_assert_eq!(
            sequential_index.content_fingerprint(),
            parallel_index.content_fingerprint()
        );
        let query = TopLQuery::new(KeywordSet::from_ids([0u32, 1, 2, 3]), 3, 2, 0.2, 3);
        let a = TopLProcessor::new(&g, &sequential_index).run(&query).unwrap();
        let b = TopLProcessor::new(&g, &parallel_index).run(&query).unwrap();
        prop_assert_eq!(a.communities, b.communities);
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
    // build computes, for every vertex, and so must one batch over the whole
    // graph through a fresh arena
    let g = generated_graph(200, 7, 8);
    let config = PrecomputeConfig::default().with_parallel(false);
    let scratch = PrecomputedData::compute(&g, config.clone());
    let mut data = PrecomputedData::compute(&g, config);
    for v in g.vertices() {
        data.recompute_vertices(&g, &[v], &mut [MaintenanceArena::new()]);
    }
    assert_eq!(data.table(), scratch.table());
    // batch form, deliberately unsorted and with repeats
    let mut batch: Vec<VertexId> = g.vertices().collect();
    batch.reverse();
    batch.push(VertexId(0));
    data.recompute_vertices(&g, &batch, &mut [MaintenanceArena::new()]);
    assert_eq!(data.table(), scratch.table());
}

/// Locality keeps `r_max`-hop balls ring-sized at any n, so each of 16
/// workers, starting on its own contiguous home range, keeps only
/// ball-cover-sized scratch resident instead of two dense n-vertex
/// workspaces plus a full-graph signature table. Worker scheduling moves the
/// measured bytes from run to run; at 20k vertices on 2 vCPUs the ratio has
/// read between 5.6x and 6.6x.
#[test]
fn worker_scratch_is_at_least_four_times_below_the_dense_projection() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20240614 ^ 0xB9);
    let mut g = small_world(&SmallWorldConfig::locality(20_000), &mut rng);
    assign_uniform_weights(&mut g, WeightRange::paper_default(), &mut rng);
    assign_keywords(&mut g, 12, 3, KeywordDistribution::Uniform, &mut rng);
    let config = PrecomputeConfig::new(2, vec![0.15, 0.3]).with_num_threads(Some(16));
    let (_, stats) = PrecomputedData::compute_with_stats(&g, config);
    assert_eq!(stats.workers, 16);
    let measured = stats.measured_scratch_bytes();
    let ratio = stats.naive_scratch_bytes as f64 / measured.max(1) as f64;
    assert!(
        ratio >= 4.0,
        "per-worker scratch advantage {ratio:.2}x is below 4x (measured {measured} B, \
         dense projection {} B)",
        stats.naive_scratch_bytes
    );
}
