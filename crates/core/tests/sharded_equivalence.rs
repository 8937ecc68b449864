//! Equivalence property tests for the sharded offline engine.
//!
//! A sharded build partitions the vertex-id space into contiguous ranges and
//! gives every worker only ball-cover-sized scratch — but the per-vertex
//! computation is self-contained, so the output contract is strict: for ANY
//! shard plan (even boundaries, arbitrary boundaries, shards smaller than a
//! work-stealing chunk, `n` not divisible by the shard count) the aggregate
//! table, edge supports, seed bounds and fingerprint must be **bit-identical**
//! to the sequential unsharded engine, floats included — and therefore so is
//! every Top-L answer served off the resulting index. On a locality graph the
//! sharded workers' resident scratch must also stay well below the dense
//! n-per-worker projection it replaced.

use icde_core::precompute::{PrecomputeConfig, PrecomputedData, ShardPlan};
use icde_core::query::TopLQuery;
use icde_core::topl::TopLProcessor;
use icde_core::IndexBuilder;
use icde_graph::generators::{
    assign_keywords, assign_uniform_weights, small_world, DatasetKind, DatasetSpec,
    KeywordDistribution, SmallWorldConfig, WeightRange,
};
use icde_graph::{KeywordSet, SocialNetwork};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn generated_graph(n: usize, seed: u64) -> SocialNetwork {
    DatasetSpec::new(DatasetKind::Uniform, n.max(8), seed)
        .with_keyword_domain(12)
        .generate()
}

/// The trusted reference: one worker, no sharding.
fn sequential_config() -> PrecomputeConfig {
    PrecomputeConfig {
        parallel: false,
        ..PrecomputeConfig::new(2, vec![0.1, 0.2, 0.3])
    }
}

fn sharded_config(workers: usize) -> PrecomputeConfig {
    PrecomputeConfig::new(2, vec![0.1, 0.2, 0.3]).with_num_threads(Some(workers))
}

/// Folds raw draws into strictly-increasing interior boundaries in `(0, n)` —
/// this deliberately produces uneven plans, single-vertex shards (smaller
/// than one work-stealing chunk), and boundary counts independent of `n`.
fn interior_boundaries(n: usize, raw: &[usize]) -> Vec<usize> {
    raw.iter()
        .map(|r| 1 + r % (n - 1))
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect()
}

fn assert_bit_identical(sharded: &PrecomputedData, reference: &PrecomputedData) {
    assert_eq!(sharded.edge_supports, reference.edge_supports);
    // exact table equality — signatures, supports, region sizes AND floats
    assert_eq!(sharded.table(), reference.table());
    assert_eq!(
        sharded.table().structural_fingerprint(),
        reference.table().structural_fingerprint()
    );
    assert_eq!(
        sharded.table().max_score_delta(reference.table()),
        0.0,
        "sharding must not perturb a single score bit"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_shard_boundaries_write_the_same_table(
        n in 10usize..100,
        raw in collection::vec(0usize..10_000, 0..8),
        seed in any::<u64>(),
        workers in 1usize..5,
    ) {
        let g = generated_graph(n, seed);
        let interior = interior_boundaries(g.num_vertices(), &raw);
        let reference = PrecomputedData::compute(&g, sequential_config());
        let plan = ShardPlan::from_interior_boundaries(g.num_vertices(), &interior).unwrap();
        let (sharded, stats) = PrecomputedData::compute_with_plan(&g, sharded_config(workers), &plan);
        prop_assert_eq!(stats.shards, plan.num_shards());
        assert_bit_identical(&sharded, &reference);
    }

    #[test]
    fn shard_counts_beyond_chunks_and_workers_agree(
        n in 10usize..90,
        seed in any::<u64>(),
        shards in 1usize..200,
        workers in 1usize..5,
    ) {
        // shards routinely exceeds n here, so the plan clamps to one-vertex
        // shards — each smaller than a work-stealing chunk
        let g = generated_graph(n, seed);
        let reference = PrecomputedData::compute(&g, sequential_config());
        let sharded = PrecomputedData::compute(
            &g,
            sharded_config(workers).with_num_shards(Some(shards)),
        );
        assert_bit_identical(&sharded, &reference);
    }

    #[test]
    fn topl_answers_are_identical_off_a_sharded_index(
        n in 20usize..80,
        seed in any::<u64>(),
        shards in 2usize..16,
    ) {
        let g = generated_graph(n, seed);
        let reference_index = IndexBuilder::new(sequential_config()).build(&g);
        let sharded_index = IndexBuilder::new(
            sharded_config(3).with_num_shards(Some(shards)),
        )
        .build(&g);
        prop_assert_eq!(
            reference_index.content_fingerprint(),
            sharded_index.content_fingerprint()
        );
        let query = TopLQuery::new(KeywordSet::from_ids([0u32, 1, 2, 3]), 3, 2, 0.2, 3);
        let a = TopLProcessor::new(&g, &reference_index).run(&query).unwrap();
        let b = TopLProcessor::new(&g, &sharded_index).run(&query).unwrap();
        prop_assert_eq!(a.communities, b.communities);
    }
}

/// Locality keeps `r_max`-hop balls ring-sized at any n, so each of 16
/// workers over 16 shards keeps only ball-cover-sized scratch resident
/// instead of two dense n-vertex workspaces plus a full-graph signature
/// table. Worker scheduling moves the measured bytes from run to run; at
/// 20k vertices on 2 vCPUs the ratio has read between 5.6x and 6.6x, in
/// debug and release builds alike.
#[test]
fn sharded_scratch_is_at_least_four_times_below_the_dense_projection() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20240614 ^ 0xB9);
    let mut g = small_world(&SmallWorldConfig::locality(20_000), &mut rng);
    assign_uniform_weights(&mut g, WeightRange::paper_default(), &mut rng);
    assign_keywords(&mut g, 12, 3, KeywordDistribution::Uniform, &mut rng);
    let config = PrecomputeConfig::new(2, vec![0.15, 0.3])
        .with_num_threads(Some(16))
        .with_num_shards(Some(16));
    let (_, stats) = PrecomputedData::compute_with_stats(&g, config);
    assert_eq!(stats.shards, 16);
    let measured = stats.measured_scratch_bytes();
    let ratio = stats.naive_scratch_bytes as f64 / measured.max(1) as f64;
    assert!(
        ratio >= 4.0,
        "per-worker scratch advantage {ratio:.2}x is below 4x (measured {measured} B, \
         dense projection {} B)",
        stats.naive_scratch_bytes
    );
}
