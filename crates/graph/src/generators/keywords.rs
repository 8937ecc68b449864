//! Keyword assignment following Uniform, Gaussian or Zipf distributions.
//!
//! Section VIII-A: "For each vertex, we also randomly produce a keyword set
//! `v_i.W` from the keyword domain `Σ`, following Uniform, Gaussian, or Zipf
//! distribution". The distribution shapes how popular each keyword is across
//! the population, which in turn controls how selective the keyword pruning
//! rule is.

use crate::graph::SocialNetwork;
use crate::keywords::{Keyword, KeywordSet};
use rand::Rng;
use serde::Serialize;

/// Distribution of keyword popularity over the domain `Σ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum KeywordDistribution {
    /// Every keyword equally likely.
    Uniform,
    /// Keyword ids drawn from a normal distribution centred on the middle of
    /// the domain (σ = |Σ|/6), clamped to the domain.
    Gaussian,
    /// Keyword `i` (1-based rank) drawn with probability ∝ 1 / i^exponent.
    Zipf {
        /// Skew exponent `s` (the paper's Zipf graphs use s = 1).
        exponent: f64,
    },
}

/// Draws a single keyword id from the configured distribution.
fn sample_keyword<R: Rng>(domain: u32, dist: KeywordDistribution, rng: &mut R) -> Keyword {
    debug_assert!(domain > 0);
    match dist {
        KeywordDistribution::Uniform => Keyword(rng.gen_range(0..domain)),
        KeywordDistribution::Gaussian => {
            // Box–Muller transform; avoids pulling in rand_distr.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let mean = (domain as f64 - 1.0) / 2.0;
            let sigma = (domain as f64 / 6.0).max(1.0);
            let id = (mean + z * sigma).round().clamp(0.0, domain as f64 - 1.0);
            Keyword(id as u32)
        }
        KeywordDistribution::Zipf { exponent } => {
            // Inverse-CDF sampling over the finite domain.
            let s = exponent.max(0.0);
            let norm: f64 = (1..=domain as u64).map(|i| 1.0 / (i as f64).powf(s)).sum();
            let target: f64 = rng.gen_range(0.0..norm);
            let mut acc = 0.0;
            for i in 1..=domain as u64 {
                acc += 1.0 / (i as f64).powf(s);
                if acc >= target {
                    return Keyword((i - 1) as u32);
                }
            }
            Keyword(domain - 1)
        }
    }
}

/// Samples a keyword set of (up to) `keywords_per_vertex` distinct keywords.
///
/// Sampling is with rejection, so the realised set can be smaller than
/// requested only if the domain itself is smaller.
pub fn sample_keyword_set<R: Rng>(
    domain: u32,
    keywords_per_vertex: usize,
    dist: KeywordDistribution,
    rng: &mut R,
) -> KeywordSet {
    let target = keywords_per_vertex.min(domain as usize);
    let mut set = KeywordSet::new();
    let mut attempts = 0usize;
    while set.len() < target && attempts < target * 32 {
        set.insert(sample_keyword(domain, dist, rng));
        attempts += 1;
    }
    // Fall back to deterministic fill if rejection sampling stalls on a very
    // skewed distribution.
    let mut next = 0u32;
    while set.len() < target && next < domain {
        set.insert(Keyword(next));
        next += 1;
    }
    set
}

/// Assigns a fresh keyword set to every vertex of `g`.
pub fn assign_keywords<R: Rng>(
    g: &mut SocialNetwork,
    domain: u32,
    keywords_per_vertex: usize,
    dist: KeywordDistribution,
    rng: &mut R,
) {
    assert!(domain > 0, "keyword domain must be non-empty");
    for v in 0..g.num_vertices() {
        let set = sample_keyword_set(domain, keywords_per_vertex, dist, rng);
        g.set_keyword_set(crate::types::VertexId::from_index(v), set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::small_world::{small_world, SmallWorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(dist: KeywordDistribution, domain: u32, samples: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; domain as usize];
        for _ in 0..samples {
            counts[sample_keyword(domain, dist, &mut rng).index()] += 1;
        }
        counts
    }

    #[test]
    fn uniform_spreads_over_domain() {
        let counts = histogram(KeywordDistribution::Uniform, 10, 10_000);
        for c in &counts {
            // each bucket expects 1000; allow generous slack
            assert!(*c > 700 && *c < 1300, "uniform bucket out of range: {c}");
        }
    }

    #[test]
    fn gaussian_concentrates_in_middle() {
        let counts = histogram(KeywordDistribution::Gaussian, 20, 20_000);
        let middle: usize = counts[8..12].iter().sum();
        let edges: usize =
            counts[0..2].iter().sum::<usize>() + counts[18..20].iter().sum::<usize>();
        assert!(middle > edges * 3, "middle={middle} edges={edges}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let counts = histogram(KeywordDistribution::Zipf { exponent: 1.0 }, 20, 20_000);
        assert!(
            counts[0] > counts[10] * 3,
            "head={} mid={}",
            counts[0],
            counts[10]
        );
        assert!(counts[0] > counts[19] * 5);
    }

    #[test]
    fn sample_set_respects_size_and_domain() {
        let mut rng = StdRng::seed_from_u64(5);
        let set = sample_keyword_set(50, 3, KeywordDistribution::Uniform, &mut rng);
        assert_eq!(set.len(), 3);
        for kw in set.iter() {
            assert!(kw.0 < 50);
        }
        // domain smaller than the requested size: capped at the domain
        let set = sample_keyword_set(2, 5, KeywordDistribution::Zipf { exponent: 2.0 }, &mut rng);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn assign_keywords_covers_all_vertices() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = small_world(&SmallWorldConfig::paper_default(100), &mut rng);
        assign_keywords(&mut g, 20, 3, KeywordDistribution::Gaussian, &mut rng);
        for v in g.vertices() {
            assert_eq!(g.keyword_set(v).len(), 3);
        }
    }
}
