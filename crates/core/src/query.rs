//! Online query parameters.
//!
//! A TopL-ICDE query (Definition 4) is specified by the query keyword set
//! `Q`, the truss support `k`, the maximum radius `r` of seed communities,
//! the influence threshold `θ` and the number of answers `L`. All of them are
//! "online" parameters: they arrive with each query, while the index is built
//! once offline.

use crate::error::{CoreError, CoreResult};
use icde_graph::snapshot::{fnv1a, fnv1a_extend};
use icde_graph::{BitVector, KeywordSet};
use serde::Serialize;

/// Largest result size `L` a canonical query may request.
/// [`TopLQuery::canonicalize`] clamps `l` here so one pathological query
/// cannot make the collector (or a serving cache entry) allocate without
/// bound; any realistic Top-L request is orders of magnitude below it.
pub const MAX_RESULT_SIZE: usize = 1 << 16;

/// Parameters of one TopL-ICDE query (Definition 4).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TopLQuery {
    /// Query keyword set `Q`; every seed-community member must contain at
    /// least one of these keywords.
    pub keywords: KeywordSet,
    /// Truss support parameter `k`: every edge of a seed community must be in
    /// at least `k − 2` triangles of the community.
    pub support: u32,
    /// Maximum radius `r`: every member must be within `r` hops of the centre
    /// inside the community.
    pub radius: u32,
    /// Influence threshold `θ ∈ [0, 1)` for membership in the influenced
    /// community.
    pub theta: f64,
    /// Number of seed communities to return (`L`).
    pub l: usize,
}

impl TopLQuery {
    /// Creates a query; use [`TopLQuery::validate`] (or the processors, which
    /// validate on entry) to check the parameters.
    pub fn new(keywords: KeywordSet, support: u32, radius: u32, theta: f64, l: usize) -> Self {
        TopLQuery {
            keywords,
            support,
            radius,
            theta,
            l,
        }
    }

    /// The paper's default parameters (Table III, bold values): `k = 4`,
    /// `r = 2`, `θ = 0.2`, `L = 5`.
    pub fn with_defaults(keywords: KeywordSet) -> Self {
        TopLQuery {
            keywords,
            support: 4,
            radius: 2,
            theta: 0.2,
            l: 5,
        }
    }

    /// Validates every parameter range from Definition 4.
    pub fn validate(&self) -> CoreResult<()> {
        if self.keywords.is_empty() {
            return Err(CoreError::EmptyQueryKeywords);
        }
        if self.l == 0 {
            return Err(CoreError::InvalidResultSize(self.l));
        }
        if self.support < 2 {
            return Err(CoreError::InvalidSupport(self.support));
        }
        if self.radius == 0 {
            return Err(CoreError::InvalidRadius(self.radius));
        }
        if !(0.0..1.0).contains(&self.theta) {
            return Err(CoreError::InvalidTheta(self.theta));
        }
        Ok(())
    }

    /// Returns the query in canonical form, validated: keywords sorted and
    /// de-duplicated, `l` clamped to [`MAX_RESULT_SIZE`], every other
    /// parameter checked by [`TopLQuery::validate`].
    ///
    /// All query entry points (the processors, the serving runtime's cache
    /// key) agree on this one normal form, so two queries that differ only
    /// in keyword order or duplicates are the *same* query — they produce
    /// identical answers and identical [`TopLQuery::canonical_fingerprint`]s.
    pub fn canonicalize(&self) -> CoreResult<TopLQuery> {
        let mut q = self.clone();
        // every `KeywordSet` constructor sorts and de-duplicates, so this
        // re-normalisation is defensive: the normal form the cache key relies
        // on stays a property of this function, not of every constructor.
        q.keywords = q.keywords.iter().collect();
        q.l = q.l.min(MAX_RESULT_SIZE);
        q.validate()?;
        Ok(q)
    }

    /// An FNV-1a fingerprint of the canonical form
    /// `(sorted keywords, k, r, θ, L)` — the serving LRU's cache key.
    /// Queries that differ only in keyword order or duplicates fingerprint
    /// identically; any semantic difference (including `θ` at the bit level)
    /// fingerprints apart.
    pub fn canonical_fingerprint(&self) -> u64 {
        let mut h = fnv1a(b"icde-query-key-v1");
        let word = |h: u64, v: u64| fnv1a_extend(h, &v.to_le_bytes());
        h = word(h, self.keywords.len() as u64);
        for kw in self.keywords.iter() {
            h = word(h, u64::from(kw.0));
        }
        h = word(h, u64::from(self.support));
        h = word(h, u64::from(self.radius));
        h = word(h, self.theta.to_bits());
        h = word(h, self.l.min(MAX_RESULT_SIZE) as u64);
        h
    }

    /// Hashes the query keyword set into a signature of `bits` bits
    /// (`Q.BV`, Algorithm 3 line 1).
    pub fn keyword_signature(&self, bits: usize) -> BitVector {
        BitVector::from_keywords(&self.keywords, bits)
    }

    /// Returns a copy with a different result size `L` (used by DTopL-ICDE,
    /// which first fetches `n·L` candidates).
    pub fn with_result_size(&self, l: usize) -> Self {
        let mut q = self.clone();
        q.l = l;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keywords() -> KeywordSet {
        KeywordSet::from_ids([1, 2, 3])
    }

    #[test]
    fn defaults_match_table_iii() {
        let q = TopLQuery::with_defaults(keywords());
        assert_eq!(q.support, 4);
        assert_eq!(q.radius, 2);
        assert_eq!(q.theta, 0.2);
        assert_eq!(q.l, 5);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let q = TopLQuery::new(KeywordSet::new(), 4, 2, 0.2, 5);
        assert_eq!(q.validate(), Err(CoreError::EmptyQueryKeywords));
        let q = TopLQuery::new(keywords(), 4, 2, 0.2, 0);
        assert_eq!(q.validate(), Err(CoreError::InvalidResultSize(0)));
        let q = TopLQuery::new(keywords(), 1, 2, 0.2, 5);
        assert_eq!(q.validate(), Err(CoreError::InvalidSupport(1)));
        let q = TopLQuery::new(keywords(), 4, 0, 0.2, 5);
        assert_eq!(q.validate(), Err(CoreError::InvalidRadius(0)));
        let q = TopLQuery::new(keywords(), 4, 2, 1.0, 5);
        assert_eq!(q.validate(), Err(CoreError::InvalidTheta(1.0)));
        let q = TopLQuery::new(keywords(), 4, 2, -0.1, 5);
        assert!(matches!(q.validate(), Err(CoreError::InvalidTheta(_))));
    }

    #[test]
    fn keyword_signature_covers_query_keywords() {
        let q = TopLQuery::with_defaults(keywords());
        let bv = q.keyword_signature(128);
        for kw in q.keywords.iter() {
            assert!(bv.maybe_contains(kw));
        }
    }

    #[test]
    fn permuted_and_duplicated_keywords_canonicalise_identically() {
        let a = TopLQuery::new(KeywordSet::from_ids([3, 1, 2]), 4, 2, 0.2, 5);
        let b = TopLQuery::new(KeywordSet::from_ids([2, 3, 1, 1, 2]), 4, 2, 0.2, 5);
        let ca = a.canonicalize().unwrap();
        let cb = b.canonicalize().unwrap();
        assert_eq!(ca, cb);
        assert_eq!(ca.canonical_fingerprint(), cb.canonical_fingerprint());
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }

    #[test]
    fn fingerprint_separates_semantically_different_queries() {
        let base = TopLQuery::with_defaults(keywords());
        let fp = base.canonical_fingerprint();
        let mut other = base.clone();
        other.support = 5;
        assert_ne!(fp, other.canonical_fingerprint());
        let mut other = base.clone();
        other.theta = 0.3;
        assert_ne!(fp, other.canonical_fingerprint());
        let mut other = base.clone();
        other.l = 6;
        assert_ne!(fp, other.canonical_fingerprint());
        let other = TopLQuery::with_defaults(KeywordSet::from_ids([1, 2, 4]));
        assert_ne!(fp, other.canonical_fingerprint());
    }

    #[test]
    fn canonicalize_clamps_l_and_rejects_invalid_parameters() {
        let big = TopLQuery::new(keywords(), 4, 2, 0.2, usize::MAX);
        assert_eq!(big.canonicalize().unwrap().l, MAX_RESULT_SIZE);
        // clamped and unclamped spellings of the same request share a key
        let max = TopLQuery::new(keywords(), 4, 2, 0.2, MAX_RESULT_SIZE);
        assert_eq!(big.canonical_fingerprint(), max.canonical_fingerprint());
        let bad = TopLQuery::new(keywords(), 1, 2, 0.2, 5);
        assert_eq!(bad.canonicalize(), Err(CoreError::InvalidSupport(1)));
        let bad = TopLQuery::new(KeywordSet::new(), 4, 2, 0.2, 5);
        assert_eq!(bad.canonicalize(), Err(CoreError::EmptyQueryKeywords));
    }

    #[test]
    fn with_result_size_changes_only_l() {
        let q = TopLQuery::with_defaults(keywords());
        let q3 = q.with_result_size(15);
        assert_eq!(q3.l, 15);
        assert_eq!(q3.support, q.support);
        assert_eq!(q3.keywords, q.keywords);
    }
}
