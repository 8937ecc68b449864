//! B-bit keyword signatures (`v_i.BV`, `Q.BV`) used by the keyword pruning
//! rule (Lemma 1 / Lemma 5).
//!
//! Section V-A of the paper hashes every keyword `w` of a vertex keyword set
//! into a bit vector of size `B` via a hash function `f(w) ∈ [0, B-1]` and
//! sets that bit. Aggregated signatures for r-hop subgraphs and index entries
//! are bit-ORs of member signatures. The query keyword set is hashed the same
//! way, and an index entry can be pruned when `N_i.BV_r ∧ Q.BV = 0`.
//!
//! The signature is a *filter*: hash collisions can cause false positives
//! (an entry survives pruning although no real keyword matches) but never
//! false dismissals — the property tests in this module and in the core crate
//! assert exactly that invariant.

use crate::keywords::{Keyword, KeywordSet};
use crate::types::VertexId;

/// Default signature width in bits; matches a 2-word signature which is wide
/// enough for the keyword domains used in the paper (|Σ| ≤ 80).
pub const DEFAULT_SIGNATURE_BITS: usize = 128;

/// A fixed-width bit vector storing hashed keyword signatures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVector {
    /// Number of usable bits (`B` in the paper).
    bits: u32,
    /// Backing words, `ceil(bits / 64)` entries.
    words: Vec<u64>,
}

impl BitVector {
    /// Creates an all-zero signature of `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits` is zero.
    pub fn zeros(bits: usize) -> Self {
        assert!(bits > 0, "bit vector width must be positive");
        BitVector {
            bits: bits as u32,
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// Creates a signature of the default width.
    pub fn default_width() -> Self {
        Self::zeros(DEFAULT_SIGNATURE_BITS)
    }

    /// Hashes a full keyword set into a fresh signature of `bits` bits.
    pub fn from_keywords(set: &KeywordSet, bits: usize) -> Self {
        let mut bv = Self::zeros(bits);
        for kw in set.iter() {
            bv.set_keyword(kw);
        }
        bv
    }

    /// Number of usable bits.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.bits as usize
    }

    /// The hash function `f(w)` mapping a keyword to a bit position.
    #[inline]
    pub fn hash_position(&self, kw: Keyword) -> usize {
        hash_position(self.bits, kw)
    }

    /// Sets the bit corresponding to keyword `kw`.
    #[inline]
    pub fn set_keyword(&mut self, kw: Keyword) {
        let pos = self.hash_position(kw);
        self.set_bit(pos);
    }

    /// Sets bit `pos`.
    #[inline]
    pub fn set_bit(&mut self, pos: usize) {
        debug_assert!(pos < self.bits as usize);
        self.words[pos / 64] |= 1u64 << (pos % 64);
    }

    /// Returns bit `pos`.
    #[inline]
    pub fn get_bit(&self, pos: usize) -> bool {
        debug_assert!(pos < self.bits as usize);
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Returns `true` if the keyword's bit is set (i.e. the keyword *may* be
    /// present).
    #[inline]
    pub fn maybe_contains(&self, kw: Keyword) -> bool {
        self.get_bit(self.hash_position(kw))
    }

    /// In-place bit-OR with another signature of the same width (the
    /// aggregation `BV_r = ⋁ v_l.BV` from Algorithm 2).
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn or_assign(&mut self, other: &BitVector) {
        assert_eq!(self.bits, other.bits, "bit vector width mismatch");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= *o;
        }
    }

    /// Returns the bit-OR of two signatures.
    pub fn or(&self, other: &BitVector) -> BitVector {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Returns `true` if the bitwise AND of the two signatures is non-zero
    /// (i.e. the sets *may* intersect). `intersects == false` is a safe
    /// pruning condition: the underlying keyword sets definitely do not
    /// intersect.
    pub fn intersects(&self, other: &BitVector) -> bool {
        assert_eq!(self.bits, other.bits, "bit vector width mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The backing words (`ceil(bits / 64)` entries, low bits first) — the
    /// raw block the flattened aggregate tables and the binary snapshot
    /// writer store.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Borrows this signature as a [`SignatureRef`].
    #[inline]
    pub fn as_sig(&self) -> SignatureRef<'_> {
        SignatureRef {
            bits: self.bits,
            words: &self.words,
        }
    }

    /// Rebuilds a signature from its width and backing words (the inverse of
    /// [`BitVector::words`]); returns `None` when the word count does not
    /// match the width.
    pub fn from_words(bits: usize, words: Vec<u64>) -> Option<Self> {
        if bits == 0 || words.len() != bits.div_ceil(64) {
            return None;
        }
        Some(BitVector {
            bits: bits as u32,
            words,
        })
    }

    /// In-place bit-OR with a borrowed signature of the same width.
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn or_assign_sig(&mut self, other: SignatureRef<'_>) {
        assert_eq!(self.bits, other.bits, "bit vector width mismatch");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= *o;
        }
    }
}

/// A borrowed signature: the same bit semantics as [`BitVector`], viewing a
/// word block owned elsewhere (one row of a flattened aggregate table, or a
/// mapped snapshot section). Copy-cheap; comparisons and intersection tests
/// behave exactly like the owned type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureRef<'a> {
    bits: u32,
    words: &'a [u64],
}

impl<'a> SignatureRef<'a> {
    /// Wraps a word block as a signature of `bits` bits.
    ///
    /// # Panics
    /// Panics if the word count does not match the width.
    pub fn new(bits: usize, words: &'a [u64]) -> Self {
        assert!(bits > 0, "bit vector width must be positive");
        assert_eq!(words.len(), bits.div_ceil(64), "word count mismatch");
        SignatureRef {
            bits: bits as u32,
            words,
        }
    }

    /// Number of usable bits.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.bits as usize
    }

    /// The backing words.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Returns bit `pos`.
    #[inline]
    pub fn get_bit(&self, pos: usize) -> bool {
        debug_assert!(pos < self.bits as usize);
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Returns `true` if the keyword's bit is set (the keyword *may* be
    /// present).
    #[inline]
    pub fn maybe_contains(&self, kw: Keyword) -> bool {
        self.get_bit(hash_position(self.bits, kw))
    }

    /// Returns `true` if the bitwise AND with `other` is non-zero (the sets
    /// *may* intersect); `false` is a safe pruning condition.
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn intersects(&self, other: &BitVector) -> bool {
        assert_eq!(self.bits, other.bits, "bit vector width mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Copies the view into an owned [`BitVector`].
    pub fn to_owned_sig(&self) -> BitVector {
        BitVector {
            bits: self.bits,
            words: self.words.to_vec(),
        }
    }
}

/// Log2 of the page size of the scratch's vertex→slot map: 256 entries.
const SIG_PAGE_BITS: usize = 8;
/// Entries per map page.
const SIG_PAGE_LEN: usize = 1 << SIG_PAGE_BITS;
/// Mask extracting the within-page slot from a vertex index.
const SIG_PAGE_MASK: usize = SIG_PAGE_LEN - 1;

/// One page of the sparse vertex→row-slot map: an epoch stamp plus the slot
/// index the vertex's signature row occupies in the packed arena.
#[derive(Debug)]
struct SigMapPage {
    stamp: [u32; SIG_PAGE_LEN],
    slot: [u32; SIG_PAGE_LEN],
}

impl SigMapPage {
    fn new_boxed() -> Box<SigMapPage> {
        Box::new(SigMapPage {
            stamp: [0; SIG_PAGE_LEN],
            slot: [0; SIG_PAGE_LEN],
        })
    }
}

/// An epoch-stamped sparse signature arena: the keyword signatures of the
/// vertices one worker touches.
///
/// Region aggregation ORs member signatures for every `(vertex, radius)`
/// pair; hashing each member's keyword set into a fresh [`BitVector`] there
/// would cost one heap allocation per member per region. An offline-build
/// worker only ever touches the r_max ball cover of its vertex range, and
/// the streaming maintainer only the balls around an update batch. This
/// scratch hashes a vertex's keyword set on **first touch**, caches the row
/// in a dense-packed grow-only arena (id-remapped through a lazily-paged
/// vertex→slot map) and replays the cached row on every later touch, so
/// aggregation is a word-OR with no per-member allocation and resident
/// bytes track the touched set, not `n`.
///
/// Rows go through the same hash `f(w)` as every other signature
/// formulation, so aggregates built through the scratch are bit-identical
/// to `BitVector::from_keywords`.
///
/// Keyword sets are immutable under edge updates and compaction, so a
/// scratch owned by a maintainer stays warm across update batches with no
/// invalidation. Callers that reuse one scratch across *different graphs*
/// (or widths) must call [`invalidate`] in between; [`ensure`] does so
/// automatically when the width or vertex count changes.
///
/// [`invalidate`]: SignatureScratch::invalidate
/// [`ensure`]: SignatureScratch::ensure
#[derive(Debug)]
pub struct SignatureScratch {
    bits: u32,
    words_per_row: usize,
    /// Vertex count the map is sized for (cache key for [`ensure`]).
    len: usize,
    /// Map entries are valid iff their stamp equals this epoch.
    epoch: u32,
    /// Lazily-allocated pages of the vertex→slot map.
    map: Vec<Option<Box<SigMapPage>>>,
    /// Dense-packed row arena: slot `s` occupies
    /// `rows[s * words_per_row ..][..words_per_row]`. Grow-only.
    rows: Vec<u64>,
    /// Next free slot in the arena.
    next_slot: u32,
}

impl Default for SignatureScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SignatureScratch {
    /// Creates an empty scratch; pages and rows grow on first use.
    pub fn new() -> Self {
        SignatureScratch {
            bits: 0,
            words_per_row: 0,
            len: 0,
            epoch: 1,
            map: Vec::new(),
            rows: Vec::new(),
            next_slot: 0,
        }
    }

    /// Prepares the scratch for an `n`-vertex graph with `bits`-wide
    /// signatures. Cached rows stay warm when the shape is unchanged; a
    /// width or vertex-count change invalidates them (a different shape
    /// means a different graph).
    ///
    /// # Panics
    /// Panics if `bits` is zero.
    pub fn ensure(&mut self, n: usize, bits: usize) {
        assert!(bits > 0, "bit vector width must be positive");
        if self.bits != bits as u32 || self.len != n {
            self.bits = bits as u32;
            self.words_per_row = bits.div_ceil(64);
            self.len = n;
            self.invalidate();
        }
        let num_pages = n.div_ceil(SIG_PAGE_LEN);
        if self.map.len() < num_pages {
            self.map.resize_with(num_pages, || None);
        }
    }

    /// Drops every cached row (one epoch bump; no memory is released).
    /// Required when reusing the scratch across graphs whose shape happens
    /// to match, or after keyword sets change.
    pub fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // wraparound: stamps from 2^32 invalidations ago would alias
            for page in self.map.iter_mut().flatten() {
                page.stamp = [0; SIG_PAGE_LEN];
            }
            self.epoch = 1;
        }
        self.next_slot = 0;
    }

    /// ORs vertex `v`'s signature row into `acc`, hashing the keyword set
    /// only on the first touch since the last [`invalidate`] and replaying
    /// the cached arena row afterwards.
    ///
    /// # Panics
    /// Panics if `v` is outside the prepared vertex range or `acc` is
    /// narrower than one row.
    ///
    /// [`invalidate`]: SignatureScratch::invalidate
    #[inline]
    pub fn or_row_into(&mut self, g: &crate::graph::SocialNetwork, v: VertexId, acc: &mut [u64]) {
        let i = v.index();
        let epoch = self.epoch;
        let page: &mut SigMapPage =
            self.map[i >> SIG_PAGE_BITS].get_or_insert_with(SigMapPage::new_boxed);
        let s = i & SIG_PAGE_MASK;
        let slot = if page.stamp[s] == epoch {
            page.slot[s] as usize
        } else {
            let slot = self.next_slot as usize;
            page.stamp[s] = epoch;
            page.slot[s] = self.next_slot;
            self.next_slot += 1;
            let start = slot * self.words_per_row;
            if self.rows.len() < start + self.words_per_row {
                self.rows.resize(start + self.words_per_row, 0);
            }
            // the region may hold residue from before an invalidation (or a
            // reshape that left a partially-stale prefix) — zero it always
            self.rows[start..start + self.words_per_row].fill(0);
            let row = &mut self.rows[start..start + self.words_per_row];
            for kw in g.keyword_set(v).iter() {
                let pos = hash_position(self.bits, kw);
                row[pos / 64] |= 1u64 << (pos % 64);
            }
            slot
        };
        let start = slot * self.words_per_row;
        for (a, w) in acc
            .iter_mut()
            .zip(&self.rows[start..start + self.words_per_row])
        {
            *a |= *w;
        }
    }

    /// Number of distinct vertices whose rows are cached this epoch.
    pub fn rows_cached(&self) -> usize {
        self.next_slot as usize
    }

    /// Resident bytes of the scratch: allocated map pages plus the row
    /// arena, against the `n × ⌈bits/64⌉ × 8` a full-graph signature table
    /// would pin.
    pub fn allocated_bytes(&self) -> usize {
        self.map.iter().flatten().count() * std::mem::size_of::<SigMapPage>()
            + self.map.capacity() * std::mem::size_of::<Option<Box<SigMapPage>>>()
            + self.rows.capacity() * std::mem::size_of::<u64>()
    }
}

/// The hash function `f(w)` shared by [`BitVector`], [`SignatureRef`] and
/// [`SignatureScratch`]:
/// a 64-bit splitmix finaliser, so nearby keyword ids scatter across the
/// signature instead of clustering in the low bits.
#[inline]
fn hash_position(bits: u32, kw: Keyword) -> usize {
    let mut x = kw.0 as u64;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % bits as u64) as usize
}

impl PartialEq<BitVector> for SignatureRef<'_> {
    fn eq(&self, other: &BitVector) -> bool {
        self.bits == other.bits && self.words == other.words.as_slice()
    }
}

impl PartialEq<SignatureRef<'_>> for BitVector {
    fn eq(&self, other: &SignatureRef<'_>) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_is_empty() {
        let bv = BitVector::zeros(64);
        assert!(bv.is_zero());
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.num_bits(), 64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = BitVector::zeros(0);
    }

    #[test]
    fn set_and_get_bits() {
        let mut bv = BitVector::zeros(130);
        bv.set_bit(0);
        bv.set_bit(64);
        bv.set_bit(129);
        assert!(bv.get_bit(0) && bv.get_bit(64) && bv.get_bit(129));
        assert!(!bv.get_bit(1));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn keyword_membership_never_false_negative() {
        let set = KeywordSet::from_ids([3, 17, 99, 1000]);
        let bv = BitVector::from_keywords(&set, 128);
        for kw in set.iter() {
            assert!(bv.maybe_contains(kw));
        }
    }

    #[test]
    fn or_aggregates_signatures() {
        let a = BitVector::from_keywords(&KeywordSet::from_ids([1, 2]), 128);
        let b = BitVector::from_keywords(&KeywordSet::from_ids([3]), 128);
        let u = a.or(&b);
        for kw in [1u32, 2, 3] {
            assert!(u.maybe_contains(Keyword(kw)));
        }
        assert!(u.count_ones() >= a.count_ones());
        assert!(u.count_ones() >= b.count_ones());
    }

    #[test]
    fn disjoint_small_sets_usually_do_not_intersect() {
        // With 128 bits and 2+2 keywords, these particular ids do not collide.
        let a = BitVector::from_keywords(&KeywordSet::from_ids([1, 2]), 128);
        let b = BitVector::from_keywords(&KeywordSet::from_ids([40, 41]), 128);
        assert!(!a.intersects(&b));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let a = BitVector::zeros(64);
        let b = BitVector::zeros(128);
        let _ = a.intersects(&b);
    }

    #[test]
    fn signature_scratch_matches_table_and_caches_rows() {
        let mut b = crate::builder::GraphBuilder::new();
        for ids in [vec![1u32, 2], vec![], vec![7, 99, 1000], vec![3], vec![42]] {
            b.add_vertex(KeywordSet::from_ids(ids));
        }
        let g = b.build().unwrap();
        for bits in [64usize, 128, 130] {
            let mut scratch = SignatureScratch::new();
            scratch.ensure(g.num_vertices(), bits);
            let words = bits.div_ceil(64);
            for v in g.vertices() {
                let owned = BitVector::from_keywords(g.keyword_set(v), bits);
                // touch twice: first hashes, second replays the cached row
                for _ in 0..2 {
                    let mut via_scratch = vec![0u64; words];
                    scratch.or_row_into(&g, v, &mut via_scratch);
                    assert_eq!(via_scratch, owned.words(), "vertex {v} bits {bits}");
                }
            }
            assert_eq!(scratch.rows_cached(), g.num_vertices());
        }
    }

    #[test]
    fn signature_scratch_only_pays_for_touched_vertices() {
        let mut b = crate::builder::GraphBuilder::new();
        for i in 0..(4 * SIG_PAGE_LEN as u32) {
            b.add_vertex(KeywordSet::from_ids(vec![i]));
        }
        let g = b.build().unwrap();
        let mut scratch = SignatureScratch::new();
        scratch.ensure(g.num_vertices(), 128);
        let mut acc = vec![0u64; 2];
        scratch.or_row_into(&g, VertexId(0), &mut acc);
        scratch.or_row_into(&g, VertexId(1), &mut acc);
        assert_eq!(scratch.rows_cached(), 2);
        // one map page + two 2-word rows, far below the full-table footprint
        let full_table_bytes = g.num_vertices() * 2 * std::mem::size_of::<u64>();
        assert!(scratch.allocated_bytes() < full_table_bytes);
    }

    #[test]
    fn signature_scratch_invalidate_drops_cached_rows() {
        let mut b = crate::builder::GraphBuilder::new();
        b.add_vertex(KeywordSet::from_ids(vec![5]));
        let g = b.build().unwrap();
        let mut scratch = SignatureScratch::new();
        scratch.ensure(1, 64);
        let mut acc = vec![0u64; 1];
        scratch.or_row_into(&g, VertexId(0), &mut acc);
        assert_eq!(scratch.rows_cached(), 1);
        scratch.invalidate();
        assert_eq!(scratch.rows_cached(), 0);
        // re-touch re-hashes and still matches the owned formulation
        let mut acc2 = vec![0u64; 1];
        scratch.or_row_into(&g, VertexId(0), &mut acc2);
        let owned = BitVector::from_keywords(g.keyword_set(VertexId(0)), 64);
        assert_eq!(&acc2, owned.words());
        assert_eq!(acc, acc2);
    }

    #[test]
    fn signature_scratch_reshape_invalidates_automatically() {
        let mut b = crate::builder::GraphBuilder::new();
        b.add_vertex(KeywordSet::from_ids(vec![9]));
        b.add_vertex(KeywordSet::from_ids(vec![10]));
        let g = b.build().unwrap();
        let mut scratch = SignatureScratch::new();
        scratch.ensure(2, 64);
        let mut acc = vec![0u64; 1];
        scratch.or_row_into(&g, VertexId(0), &mut acc);
        assert_eq!(scratch.rows_cached(), 1);
        scratch.ensure(2, 128); // width change → stale rows dropped
        assert_eq!(scratch.rows_cached(), 0);
        let mut wide = vec![0u64; 2];
        scratch.or_row_into(&g, VertexId(1), &mut wide);
        let owned = BitVector::from_keywords(g.keyword_set(VertexId(1)), 128);
        assert_eq!(&wide, owned.words());
    }

    proptest! {
        /// Keyword-pruning soundness: if the real keyword sets intersect then
        /// the signatures must intersect (no false dismissals).
        #[test]
        fn prop_no_false_dismissal(
            a in proptest::collection::vec(0u32..500, 0..10),
            b in proptest::collection::vec(0u32..500, 0..10),
            bits in prop_oneof![Just(32usize), Just(64), Just(128), Just(256)],
        ) {
            let sa = KeywordSet::from_ids(a);
            let sb = KeywordSet::from_ids(b);
            let bva = BitVector::from_keywords(&sa, bits);
            let bvb = BitVector::from_keywords(&sb, bits);
            if sa.intersects(&sb) {
                prop_assert!(bva.intersects(&bvb));
            }
        }

        /// OR-aggregation soundness: a member's keyword is always visible in
        /// the aggregated signature.
        #[test]
        fn prop_or_preserves_membership(
            sets in proptest::collection::vec(proptest::collection::vec(0u32..200, 1..6), 1..8),
        ) {
            let mut agg = BitVector::zeros(128);
            let keyword_sets: Vec<KeywordSet> =
                sets.into_iter().map(KeywordSet::from_ids).collect();
            for s in &keyword_sets {
                agg.or_assign(&BitVector::from_keywords(s, 128));
            }
            for s in &keyword_sets {
                for kw in s.iter() {
                    prop_assert!(agg.maybe_contains(kw));
                }
            }
        }
    }
}
