//! Synthetic workload generators matching Section VIII-A of the paper.
//!
//! The paper evaluates on two real graphs (DBLP, Amazon) and three synthetic
//! Newman–Watts–Strogatz small-world graphs whose vertex keywords follow
//! Uniform, Gaussian or Zipf distributions (`Uni`, `Gau`, `Zipf`). The real
//! graphs are not redistributable here, so this module additionally provides
//! *DBLP-like* (overlapping co-author cliques) and *Amazon-like*
//! (preferential-attachment co-purchase) generators that reproduce the
//! structural features the algorithms are sensitive to: triangle density,
//! degree skew and community structure. See DESIGN.md for the substitution
//! rationale.
//!
//! All generators are deterministic given a seed, so experiments are
//! reproducible run-to-run.

pub mod amazon_like;
pub mod dblp_like;
pub mod keywords;
pub mod small_world;
pub mod weights;

pub use amazon_like::{amazon_like, AmazonLikeConfig};
pub use dblp_like::{dblp_like, DblpLikeConfig};
pub use keywords::{assign_keywords, KeywordDistribution};
pub use small_world::{small_world, SmallWorldConfig};
pub use weights::{assign_uniform_weights, WeightRange};

use crate::graph::SocialNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// The five dataset families used throughout the experiments (Table II and
/// the synthetic `Uni`/`Gau`/`Zipf` graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetKind {
    /// Small-world graph with uniformly distributed keywords.
    Uniform,
    /// Small-world graph with Gaussian-distributed keywords.
    Gaussian,
    /// Small-world graph with Zipf-distributed keywords.
    Zipf,
    /// Synthetic stand-in for the DBLP co-authorship network.
    DblpLike,
    /// Synthetic stand-in for the Amazon co-purchase network.
    AmazonLike,
}

impl DatasetKind {
    /// All dataset kinds in the order the paper reports them
    /// (DBLP, Amazon, Uni, Gau, Zipf).
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::DblpLike,
        DatasetKind::AmazonLike,
        DatasetKind::Uniform,
        DatasetKind::Gaussian,
        DatasetKind::Zipf,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Uniform => "Uni",
            DatasetKind::Gaussian => "Gau",
            DatasetKind::Zipf => "Zipf",
            DatasetKind::DblpLike => "DBLP*",
            DatasetKind::AmazonLike => "Amazon*",
        }
    }
}

/// Declarative description of a synthetic dataset: structure, keyword
/// distribution and scale.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DatasetSpec {
    /// Which family of graph to generate.
    pub kind: DatasetKind,
    /// Number of vertices `|V(G)|`.
    pub num_vertices: usize,
    /// Keyword domain size `|Σ|`.
    pub keyword_domain: u32,
    /// Keywords per vertex `|v_i.W|`.
    pub keywords_per_vertex: usize,
    /// RNG seed (same seed ⇒ same graph).
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates a spec with the paper's default keyword parameters
    /// (`|Σ| = 50`, `|v_i.W| = 3`, Table III).
    pub fn new(kind: DatasetKind, num_vertices: usize, seed: u64) -> Self {
        DatasetSpec {
            kind,
            num_vertices,
            keyword_domain: 50,
            keywords_per_vertex: 3,
            seed,
        }
    }

    /// Overrides the keyword domain size `|Σ|`.
    pub fn with_keyword_domain(mut self, domain: u32) -> Self {
        self.keyword_domain = domain;
        self
    }

    /// Overrides the number of keywords per vertex `|v_i.W|`.
    pub fn with_keywords_per_vertex(mut self, k: usize) -> Self {
        self.keywords_per_vertex = k;
        self
    }

    /// Generates the social network described by this spec: topology, edge
    /// weights in `[0.5, 0.6)` and keyword assignment.
    pub fn generate(&self) -> SocialNetwork {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = match self.kind {
            DatasetKind::Uniform | DatasetKind::Gaussian | DatasetKind::Zipf => small_world(
                &SmallWorldConfig::paper_default(self.num_vertices),
                &mut rng,
            ),
            DatasetKind::DblpLike => {
                dblp_like(&DblpLikeConfig::with_vertices(self.num_vertices), &mut rng)
            }
            DatasetKind::AmazonLike => amazon_like(
                &AmazonLikeConfig::with_vertices(self.num_vertices),
                &mut rng,
            ),
        };
        assign_uniform_weights(&mut g, WeightRange::paper_default(), &mut rng);
        let dist = match self.kind {
            DatasetKind::Gaussian => KeywordDistribution::Gaussian,
            DatasetKind::Zipf => KeywordDistribution::Zipf { exponent: 1.0 },
            _ => KeywordDistribution::Uniform,
        };
        assign_keywords(
            &mut g,
            self.keyword_domain,
            self.keywords_per_vertex,
            dist,
            &mut rng,
        );
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a structural fingerprint: vertex count, keyword sets, and the
    /// edge table in id order with both directed weights.
    fn fingerprint(g: &SocialNetwork) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(&(g.num_vertices() as u64).to_le_bytes());
        eat(&(g.num_edges() as u64).to_le_bytes());
        for v in g.vertices() {
            for kw in g.keyword_set(v).iter() {
                eat(&kw.0.to_le_bytes());
            }
        }
        for (e, u, v) in g.edges() {
            eat(&u.0.to_le_bytes());
            eat(&v.0.to_le_bytes());
            eat(&g.directed_weight(e, u).to_bits().to_le_bytes());
            eat(&g.directed_weight(e, v).to_bits().to_le_bytes());
        }
        h
    }

    /// The batch-builder construction path must reproduce the seed
    /// adjacency-list implementation bit for bit: same RNG stream, same edge
    /// ids, same weights and keywords. Expected hashes were captured from the
    /// pre-refactor (PR-1) implementation for these exact seeds.
    #[test]
    fn generators_match_seed_output_for_fixed_seed() {
        let g = small_world(
            &SmallWorldConfig::paper_default(2000),
            &mut StdRng::seed_from_u64(42),
        );
        assert_eq!(fingerprint(&g), 0x9adf96b30aeb79dc, "small_world drifted");
        let g = dblp_like(
            &DblpLikeConfig::with_vertices(2000),
            &mut StdRng::seed_from_u64(42),
        );
        assert_eq!(fingerprint(&g), 0xe59af7a5cb6ab189, "dblp_like drifted");
        let g = amazon_like(
            &AmazonLikeConfig::with_vertices(2000),
            &mut StdRng::seed_from_u64(42),
        );
        assert_eq!(fingerprint(&g), 0xdebd1d30026d8595, "amazon_like drifted");
    }

    /// Full `DatasetSpec::generate` pipeline (topology + weights + keywords)
    /// against pre-refactor hashes, one per dataset family.
    #[test]
    fn dataset_specs_match_seed_output_for_fixed_seed() {
        let expected: [(DatasetKind, u64); 5] = [
            (DatasetKind::DblpLike, 0x581e4f1bbf5d4504),
            (DatasetKind::AmazonLike, 0xc14b77515e6994a8),
            (DatasetKind::Uniform, 0x3ba0c98fded1bf71),
            (DatasetKind::Gaussian, 0x78aeb99a81bc7bcf),
            (DatasetKind::Zipf, 0x479783b531d1f46c),
        ];
        for (kind, hash) in expected {
            let g = DatasetSpec::new(kind, 1500, 7).generate();
            assert_eq!(fingerprint(&g), hash, "{kind:?} drifted from seed output");
        }
    }

    #[test]
    fn spec_generates_deterministically() {
        let spec = DatasetSpec::new(DatasetKind::Uniform, 200, 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.num_vertices(), 200);
        assert_eq!(a.num_edges(), b.num_edges());
        // same seed produces identical keyword assignment
        for v in a.vertices() {
            assert_eq!(a.keyword_set(v), b.keyword_set(v));
        }
    }

    #[test]
    fn all_kinds_generate_nonempty_graphs() {
        for kind in DatasetKind::ALL {
            let g = DatasetSpec::new(kind, 150, 3).generate();
            assert_eq!(g.num_vertices(), 150, "{kind:?}");
            assert!(g.num_edges() > 100, "{kind:?} produced too few edges");
            // every vertex has the requested number of keywords available
            assert!(
                g.vertices().all(|v| !g.keyword_set(v).is_empty()),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            DatasetKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), DatasetKind::ALL.len());
    }

    #[test]
    fn spec_builder_overrides() {
        let spec = DatasetSpec::new(DatasetKind::Zipf, 100, 1)
            .with_keyword_domain(10)
            .with_keywords_per_vertex(2);
        assert_eq!(spec.keyword_domain, 10);
        assert_eq!(spec.keywords_per_vertex, 2);
        let g = spec.generate();
        for v in g.vertices() {
            assert!(g.keyword_set(v).len() <= 2);
            for kw in g.keyword_set(v).iter() {
                assert!(kw.0 < 10);
            }
        }
    }
}
