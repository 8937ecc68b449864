//! Workload construction: datasets, indexes and query sampling.
//!
//! A [`Workload`] bundles one generated social network with the offline index
//! built over it and the query keyword set sampled for the experiment — the
//! online phases of our approach and of every baseline then run against the
//! same objects, exactly as in the paper's setup ("we randomly select |Q|
//! keywords from the keyword domain Σ and form a query keyword set Q").

use crate::params::ExperimentParams;
use icde_core::dtopl::DTopLQuery;
use icde_core::index::{CommunityIndex, IndexBuilder};
use icde_core::precompute::PrecomputeConfig;
use icde_core::query::TopLQuery;
use icde_graph::generators::{DatasetKind, DatasetSpec};
use icde_graph::{KeywordSet, SocialNetwork};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A fully-prepared experiment workload.
pub struct Workload {
    /// The dataset family the graph was generated from.
    pub kind: DatasetKind,
    /// The generated social network.
    pub graph: SocialNetwork,
    /// The offline index (pre-computed data + tree).
    pub index: CommunityIndex,
    /// Time spent generating the graph.
    pub generation_time: Duration,
    /// Time spent in the offline phase (pre-computation + index build).
    pub offline_time: Duration,
    /// Parameters the workload was built with.
    pub params: ExperimentParams,
}

/// Samples the query keyword set `Q` for `params` (|Q| keywords drawn from Σ
/// without replacement, deterministic per seed) and assembles the TopL-ICDE
/// query. Exposed separately from [`Workload`] so parameter sweeps that only
/// change online parameters can reuse one workload with many queries.
pub fn sample_topl_query(params: &ExperimentParams) -> TopLQuery {
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5eed_cafe);
    let count = params.query_keywords.min(params.keyword_domain as usize);
    let chosen = sample(&mut rng, params.keyword_domain as usize, count);
    let keywords = KeywordSet::from_ids(chosen.iter().map(|i| i as u32));
    TopLQuery::new(
        keywords,
        params.support,
        params.radius,
        params.theta,
        params.result_size,
    )
}

/// The DTopL-ICDE query for `params` (base query plus the multiplier `n`).
pub fn sample_dtopl_query(params: &ExperimentParams) -> DTopLQuery {
    DTopLQuery::new(sample_topl_query(params), params.multiplier)
}

impl Workload {
    /// Generates the graph for `kind` under `params` and builds the offline
    /// index over it.
    pub fn build(kind: DatasetKind, params: &ExperimentParams) -> Self {
        let spec = DatasetSpec::new(kind, params.graph_size, params.seed)
            .with_keyword_domain(params.keyword_domain)
            .with_keywords_per_vertex(params.keywords_per_vertex);
        let gen_start = Instant::now();
        let graph = spec.generate();
        let generation_time = gen_start.elapsed();

        let offline_start = Instant::now();
        let config = PrecomputeConfig {
            r_max: 3,
            thresholds: vec![0.1, 0.2, 0.3],
            signature_bits: 128,
            parallel: true,
            num_threads: None,
        };
        let index = IndexBuilder::new(config).build(&graph);
        let offline_time = offline_start.elapsed();

        Workload {
            kind,
            graph,
            index,
            generation_time,
            offline_time,
            params: params.clone(),
        }
    }

    /// Samples the query keyword set `Q` (|Q| keywords drawn from Σ without
    /// replacement) and assembles the TopL-ICDE query from the parameters.
    pub fn topl_query(&self) -> TopLQuery {
        sample_topl_query(&self.params)
    }

    /// The TopL-ICDE query for an overridden parameter set (used by sweeps
    /// that only change online parameters, so the graph/index are reused).
    pub fn topl_query_with(&self, params: &ExperimentParams) -> TopLQuery {
        sample_topl_query(params)
    }

    /// The DTopL-ICDE query corresponding to the parameters.
    pub fn dtopl_query(&self) -> DTopLQuery {
        sample_dtopl_query(&self.params)
    }

    /// The DTopL-ICDE query for an overridden parameter set.
    pub fn dtopl_query_with(&self, params: &ExperimentParams) -> DTopLQuery {
        sample_dtopl_query(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams::at_scale(300).with_keyword_domain(12)
    }

    #[test]
    fn workload_builds_graph_and_index() {
        let w = Workload::build(DatasetKind::Uniform, &tiny_params());
        assert_eq!(w.graph.num_vertices(), 300);
        assert_eq!(w.index.num_graph_vertices(), 300);
        assert!(w.offline_time > Duration::ZERO);
    }

    #[test]
    fn query_respects_parameters() {
        let w = Workload::build(DatasetKind::Zipf, &tiny_params().with_query_keywords(4));
        let q = w.topl_query();
        assert_eq!(q.keywords.len(), 4);
        assert_eq!(q.support, 4);
        assert_eq!(q.radius, 2);
        assert_eq!(q.theta, 0.2);
        assert_eq!(q.l, 5);
        for kw in q.keywords.iter() {
            assert!(kw.0 < 12);
        }
        let d = w.dtopl_query();
        assert_eq!(d.candidate_multiplier, 3);
        assert_eq!(d.base, q);
    }

    #[test]
    fn query_sampling_is_deterministic_per_seed() {
        let p = tiny_params();
        let a = Workload::build(DatasetKind::Uniform, &p).topl_query();
        let b = Workload::build(DatasetKind::Uniform, &p).topl_query();
        assert_eq!(a.keywords, b.keywords);
        let c = Workload::build(DatasetKind::Uniform, &p.with_seed(99)).topl_query();
        // different seed very likely changes the sampled keywords
        assert!(a.keywords != c.keywords || a.keywords.len() <= 1);
    }

    #[test]
    fn keyword_count_capped_by_domain() {
        let p = tiny_params().with_keyword_domain(3).with_query_keywords(10);
        let w = Workload::build(DatasetKind::Uniform, &p);
        assert_eq!(w.topl_query().keywords.len(), 3);
    }
}
