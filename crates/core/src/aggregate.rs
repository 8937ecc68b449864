//! Flattened (struct-of-arrays) aggregate storage shared by the pre-computed
//! per-vertex data and the tree-index node bounds.
//!
//! The pre-PR-4 layout was pointer-rich: every vertex (and every index node)
//! owned a `Vec<RadiusAggregate>`, each element owning a `BitVector` word
//! vector and a score vector — five heap allocations per entity and no way
//! to serialise the whole thing flat. Every aggregate is perfectly
//! rectangular, though: `entities × r_max` rows, each with a fixed-width
//! signature block, one support bound, `m` score bounds and one region size.
//! [`AggregateTable`] therefore stores four contiguous arrays keyed by
//! `(entity, r, θ_index)`:
//!
//! * `signatures[((entity·r_max)+(r−1))·W .. +W]` — the `W = ⌈bits/64⌉`
//!   signature words,
//! * `supports[(entity·r_max)+(r−1)]` — `ub_sup_r`,
//! * `scores[(((entity·r_max)+(r−1))·m)+z]` — `σ_z`,
//! * `region_sizes[(entity·r_max)+(r−1)]`.
//!
//! Index traversal reads rows through the borrowed [`AggregateRef`] view
//! (cache-local, no pointer chasing), and the binary snapshot writer dumps
//! the four arrays verbatim.

use crate::precompute::RadiusAggregate;
use icde_graph::snapshot::{FlatVec, SectionShadow};
use icde_graph::{BitVector, SignatureRef};

/// Borrowed view of one `(entity, radius)` aggregate row — field-compatible
/// with the owned [`RadiusAggregate`].
#[derive(Debug, Clone, Copy)]
pub struct AggregateRef<'a> {
    /// OR of the keyword signatures of every vertex in the region (`BV_r`).
    pub keyword_signature: SignatureRef<'a>,
    /// Maximum data-graph edge support over the region's edges (`ub_sup_r`).
    pub support_upper_bound: u32,
    /// `σ_z` for each pre-selected threshold.
    pub score_upper_bounds: &'a [f64],
    /// Number of vertices in the region.
    pub region_size: u32,
}

impl AggregateRef<'_> {
    /// Copies the row into an owned [`RadiusAggregate`].
    pub fn to_owned_aggregate(&self) -> RadiusAggregate {
        RadiusAggregate {
            keyword_signature: self.keyword_signature.to_owned_sig(),
            support_upper_bound: self.support_upper_bound,
            score_upper_bounds: self.score_upper_bounds.to_vec(),
            region_size: self.region_size,
        }
    }
}

/// The flattened aggregate store (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateTable {
    entities: usize,
    r_max: u32,
    signature_bits: usize,
    num_thresholds: usize,
    /// `entities · r_max · ⌈signature_bits/64⌉` signature words.
    ///
    /// The four column arrays are [`FlatVec`]s so a snapshot-loaded table
    /// reads straight off the mapped file (zero-copy, like the graph's CSR
    /// arrays); in-memory builds own plain vectors. Mutation goes through
    /// [`FlatVec::to_mut`] — copy-on-write at whole-array granularity —
    /// so incremental maintenance keeps working on loaded tables.
    signatures: FlatVec<u64>,
    /// `entities · r_max` support upper bounds.
    supports: FlatVec<u32>,
    /// `entities · r_max · num_thresholds` score upper bounds.
    scores: FlatVec<f64>,
    /// `entities · r_max` region sizes.
    region_sizes: FlatVec<u32>,
}

impl AggregateTable {
    /// Creates a zeroed table for `entities` entities.
    ///
    /// # Panics
    /// Panics if `r_max`, `signature_bits` or `num_thresholds` is zero.
    pub fn new(entities: usize, r_max: u32, signature_bits: usize, num_thresholds: usize) -> Self {
        assert!(r_max >= 1, "r_max must be at least 1");
        assert!(signature_bits > 0, "signature width must be positive");
        assert!(num_thresholds > 0, "at least one threshold is required");
        let rows = entities * r_max as usize;
        AggregateTable {
            entities,
            r_max,
            signature_bits,
            num_thresholds,
            signatures: vec![0; rows * signature_bits.div_ceil(64)].into(),
            supports: vec![0; rows].into(),
            scores: vec![0.0; rows * num_thresholds].into(),
            region_sizes: vec![0; rows].into(),
        }
    }

    /// Rebuilds a table from its raw arrays (the binary snapshot loader
    /// passes mapped [`FlatVec`] views, keeping the load zero-copy; owned
    /// vectors convert via `.into()`); errors when the lengths do not agree
    /// with the dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        entities: usize,
        r_max: u32,
        signature_bits: usize,
        num_thresholds: usize,
        signatures: impl Into<FlatVec<u64>>,
        supports: impl Into<FlatVec<u32>>,
        scores: impl Into<FlatVec<f64>>,
        region_sizes: impl Into<FlatVec<u32>>,
    ) -> Result<Self, String> {
        let table = AggregateTable {
            entities,
            r_max,
            signature_bits,
            num_thresholds,
            signatures: signatures.into(),
            supports: supports.into(),
            scores: scores.into(),
            region_sizes: region_sizes.into(),
        };
        table.validate()?;
        Ok(table)
    }

    /// Checks the dimension/array-length invariants every accessor indexes
    /// by. Run on every table assembled from raw arrays (the binary snapshot
    /// loader's sections) so a malformed table errors instead of panicking on
    /// first row access.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.r_max == 0 || self.signature_bits == 0 || self.num_thresholds == 0 {
            return Err("aggregate table dimensions must be positive".to_string());
        }
        let rows = self
            .entities
            .checked_mul(self.r_max as usize)
            .ok_or("aggregate table row count overflows")?;
        let words = rows
            .checked_mul(self.signature_bits.div_ceil(64))
            .ok_or("aggregate table signature block overflows")?;
        let scores = rows
            .checked_mul(self.num_thresholds)
            .ok_or("aggregate table score block overflows")?;
        if self.signatures.len() != words
            || self.supports.len() != rows
            || self.scores.len() != scores
            || self.region_sizes.len() != rows
        {
            return Err(format!(
                "aggregate table arrays disagree with {} entities × {} radii",
                self.entities, self.r_max
            ));
        }
        Ok(())
    }

    /// Number of entities (vertices or index nodes).
    pub fn entities(&self) -> usize {
        self.entities
    }

    /// Maximum radius the table holds aggregates for.
    pub fn r_max(&self) -> u32 {
        self.r_max
    }

    /// Signature width in bits.
    pub fn signature_bits(&self) -> usize {
        self.signature_bits
    }

    /// Number of pre-selected thresholds per row.
    pub fn num_thresholds(&self) -> usize {
        self.num_thresholds
    }

    #[inline]
    fn row_index(&self, entity: usize, r: u32) -> usize {
        assert!(
            r >= 1 && r <= self.r_max,
            "radius {r} outside [1, {}]",
            self.r_max
        );
        entity * self.r_max as usize + (r - 1) as usize
    }

    /// The aggregate row of `entity` at radius `r` (1-based).
    ///
    /// # Panics
    /// Panics if `r` is 0 or exceeds `r_max`, or `entity` is out of range.
    #[inline]
    pub fn row(&self, entity: usize, r: u32) -> AggregateRef<'_> {
        let row = self.row_index(entity, r);
        let words = self.signature_bits.div_ceil(64);
        AggregateRef {
            keyword_signature: SignatureRef::new(
                self.signature_bits,
                &self.signatures[row * words..(row + 1) * words],
            ),
            support_upper_bound: self.supports[row],
            score_upper_bounds: &self.scores
                [row * self.num_thresholds..(row + 1) * self.num_thresholds],
            region_size: self.region_sizes[row],
        }
    }

    /// The score upper bound `σ_z` of `entity` at radius `r` for threshold
    /// index `z` — the single-value hot-path lookup of index traversal.
    #[inline]
    pub fn score(&self, entity: usize, r: u32, z: usize) -> f64 {
        debug_assert!(z < self.num_thresholds);
        self.scores[self.row_index(entity, r) * self.num_thresholds + z]
    }

    /// Overwrites the row of `entity` at radius `r` from an owned aggregate.
    ///
    /// # Panics
    /// Panics if the aggregate's signature width or threshold count does not
    /// match the table.
    pub fn set_row(&mut self, entity: usize, r: u32, agg: &RadiusAggregate) {
        assert_eq!(
            agg.keyword_signature.num_bits(),
            self.signature_bits,
            "signature width mismatch"
        );
        assert_eq!(
            agg.score_upper_bounds.len(),
            self.num_thresholds,
            "threshold count mismatch"
        );
        let row = self.row_index(entity, r);
        let words = self.signature_bits.div_ceil(64);
        self.signatures.to_mut()[row * words..(row + 1) * words]
            .copy_from_slice(agg.keyword_signature.words());
        self.supports.to_mut()[row] = agg.support_upper_bound;
        self.scores.to_mut()[row * self.num_thresholds..(row + 1) * self.num_thresholds]
            .copy_from_slice(&agg.score_upper_bounds);
        self.region_sizes.to_mut()[row] = agg.region_size;
    }

    /// Overwrites every radius row of `entity` at once (`rows[r-1]` holds
    /// radius `r`).
    ///
    /// # Panics
    /// Panics if `rows` does not hold exactly `r_max` aggregates.
    pub fn set_entity(&mut self, entity: usize, rows: &[RadiusAggregate]) {
        assert_eq!(rows.len(), self.r_max as usize, "one aggregate per radius");
        for (i, agg) in rows.iter().enumerate() {
            self.set_row(entity, (i + 1) as u32, agg);
        }
    }

    /// Rebuilds the owned signature of one row (diagnostics; the hot paths
    /// use the borrowed view from [`AggregateTable::row`]).
    pub fn signature(&self, entity: usize, r: u32) -> BitVector {
        self.row(entity, r).keyword_signature.to_owned_sig()
    }

    /// Splits the table into disjoint mutable chunks of
    /// `entities_per_chunk` consecutive entities each (the last chunk may be
    /// shorter). Every chunk borrows its own slice of the four flat arrays,
    /// so the pre-computation's work-stealing workers scatter finished rows
    /// **in place** — concurrently, without locks around the table and
    /// without any per-worker result buffering — while the borrow checker
    /// still proves the writes disjoint.
    ///
    /// # Panics
    /// Panics if `entities_per_chunk` is zero.
    pub fn chunks_mut(&mut self, entities_per_chunk: usize) -> Vec<TableChunkMut<'_>> {
        assert!(
            entities_per_chunk > 0,
            "chunks must hold at least one entity"
        );
        let r_max = self.r_max as usize;
        let words = self.signature_bits.div_ceil(64);
        let m = self.num_thresholds;
        let rows_per_chunk = entities_per_chunk * r_max;
        self.signatures
            .to_mut()
            .chunks_mut(rows_per_chunk * words)
            .zip(self.supports.to_mut().chunks_mut(rows_per_chunk))
            .zip(self.scores.to_mut().chunks_mut(rows_per_chunk * m))
            .zip(self.region_sizes.to_mut().chunks_mut(rows_per_chunk))
            .enumerate()
            .map(
                |(i, (((signatures, supports), scores), region_sizes))| TableChunkMut {
                    first_entity: i * entities_per_chunk,
                    r_max,
                    words,
                    num_thresholds: m,
                    signatures,
                    supports,
                    scores,
                    region_sizes,
                },
            )
            .collect()
    }

    /// Splits the table into disjoint mutable chunks covering the given
    /// ascending, non-overlapping `[start, end)` entity ranges (gaps between
    /// ranges are simply not handed out). This is the parallel maintenance
    /// analogue of [`AggregateTable::chunks_mut`]: the streaming refresh
    /// partitions its *sorted* affected-vertex list into per-worker spans and
    /// the borrow checker proves the concurrent scatter writes disjoint.
    ///
    /// # Panics
    /// Panics if the ranges are out of order, overlapping or out of bounds.
    pub fn ranges_mut(&mut self, ranges: &[(usize, usize)]) -> Vec<TableChunkMut<'_>> {
        let r_max = self.r_max as usize;
        let words = self.signature_bits.div_ceil(64);
        let m = self.num_thresholds;
        let mut sig = self.signatures.to_mut().as_mut_slice();
        let mut sup = self.supports.to_mut().as_mut_slice();
        let mut sco = self.scores.to_mut().as_mut_slice();
        let mut reg = self.region_sizes.to_mut().as_mut_slice();
        let mut out = Vec::with_capacity(ranges.len());
        let mut consumed = 0usize;
        for &(start, end) in ranges {
            assert!(
                start >= consumed && end >= start && end <= self.entities,
                "entity ranges must be ascending, disjoint and in bounds"
            );
            let gap = (start - consumed) * r_max;
            let take = (end - start) * r_max;
            fn split_rows<'s, T>(slice: &mut &'s mut [T], gap: usize, take: usize) -> &'s mut [T] {
                let rest = std::mem::take(slice);
                let (_, rest) = rest.split_at_mut(gap);
                let (chunk, rest) = rest.split_at_mut(take);
                *slice = rest;
                chunk
            }
            out.push(TableChunkMut {
                first_entity: start,
                r_max,
                words,
                num_thresholds: m,
                signatures: split_rows(&mut sig, gap * words, take * words),
                supports: split_rows(&mut sup, gap, take),
                scores: split_rows(&mut sco, gap * m, take * m),
                region_sizes: split_rows(&mut reg, gap, take),
            });
            consumed = end;
        }
        out
    }

    /// A single-entity mutable chunk view (the incremental-maintenance
    /// writer; the bulk path uses [`AggregateTable::chunks_mut`]).
    ///
    /// # Panics
    /// Panics if `entity` is out of range.
    pub fn entity_mut(&mut self, entity: usize) -> TableChunkMut<'_> {
        assert!(entity < self.entities, "entity {entity} out of range");
        let r_max = self.r_max as usize;
        let words = self.signature_bits.div_ceil(64);
        let m = self.num_thresholds;
        let rows = entity * r_max..(entity + 1) * r_max;
        TableChunkMut {
            first_entity: entity,
            r_max,
            words,
            num_thresholds: m,
            signatures: &mut self.signatures.to_mut()[rows.start * words..rows.end * words],
            supports: &mut self.supports.to_mut()[rows.clone()],
            scores: &mut self.scores.to_mut()[rows.start * m..rows.end * m],
            region_sizes: &mut self.region_sizes.to_mut()[rows],
        }
    }

    /// Raw signature words (the snapshot writer's view).
    pub fn raw_signatures(&self) -> &[u64] {
        &self.signatures
    }

    /// Raw support bounds.
    pub fn raw_supports(&self) -> &[u32] {
        &self.supports
    }

    /// Raw score bounds.
    pub fn raw_scores(&self) -> &[f64] {
        &self.scores
    }

    /// Raw region sizes.
    pub fn raw_region_sizes(&self) -> &[u32] {
        &self.region_sizes
    }

    /// Returns `true` if any column array is still a zero-copy view into a
    /// loaded snapshot region (i.e. the table has not been copied-on-write).
    pub fn is_mapped(&self) -> bool {
        self.signatures.is_mapped()
            || self.supports.is_mapped()
            || self.scores.is_mapped()
            || self.region_sizes.is_mapped()
    }

    /// FNV-1a fingerprint of the *structural* content — dimensions,
    /// signature words, support bounds and region sizes, everything except
    /// the float scores. Two builds that agree structurally bit-for-bit
    /// (the engine-vs-reference equivalence contract; scores are compared
    /// separately with [`AggregateTable::max_score_delta`] because their
    /// summation order may differ) produce equal fingerprints.
    pub fn structural_fingerprint(&self) -> u64 {
        use icde_graph::snapshot::{fnv1a, fnv1a_extend};
        let mut h = fnv1a(b"icde-aggregate-structure-v1");
        let mut word = |v: u64| h = fnv1a_extend(h, &v.to_le_bytes());
        word(self.entities as u64);
        word(u64::from(self.r_max));
        word(self.signature_bits as u64);
        word(self.num_thresholds as u64);
        for &w in self.signatures.iter() {
            word(w);
        }
        for &s in self.supports.iter() {
            word(u64::from(s));
        }
        for &s in self.region_sizes.iter() {
            word(u64::from(s));
        }
        h
    }

    /// The largest element-wise absolute difference between this table's
    /// score bounds and another's (`+∞` when the tables' shapes differ).
    pub fn max_score_delta(&self, other: &AggregateTable) -> f64 {
        if self.scores.len() != other.scores.len() {
            return f64::INFINITY;
        }
        self.scores
            .iter()
            .zip(other.scores.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// One disjoint chunk of consecutive entities of an [`AggregateTable`],
/// produced by [`AggregateTable::chunks_mut`]. A pre-computation worker that
/// has claimed the chunk writes each entity's rows through
/// [`row_mut`](TableChunkMut::row_mut) — no other thread can alias them.
#[derive(Debug)]
pub struct TableChunkMut<'a> {
    first_entity: usize,
    r_max: usize,
    words: usize,
    num_thresholds: usize,
    signatures: &'a mut [u64],
    supports: &'a mut [u32],
    scores: &'a mut [f64],
    region_sizes: &'a mut [u32],
}

/// Mutable view of one `(entity, radius)` row: the four column slots a
/// pre-computation worker fills in place.
#[derive(Debug)]
pub struct AggregateRowMut<'a> {
    /// The `⌈signature_bits/64⌉` signature words.
    pub signature: &'a mut [u64],
    /// `ub_sup_r`.
    pub support_upper_bound: &'a mut u32,
    /// `σ_z` per pre-selected threshold.
    pub score_upper_bounds: &'a mut [f64],
    /// Number of vertices in the region.
    pub region_size: &'a mut u32,
}

impl TableChunkMut<'_> {
    /// Global id of the first entity in this chunk.
    pub fn first_entity(&self) -> usize {
        self.first_entity
    }

    /// Number of entities the chunk covers.
    pub fn len(&self) -> usize {
        self.supports.len() / self.r_max
    }

    /// Returns `true` if the chunk covers no entities.
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// The mutable row of the chunk-local entity `local` (0-based within the
    /// chunk) at radius `r` (1-based).
    ///
    /// # Panics
    /// Panics if `local` or `r` is out of range.
    pub fn row_mut(&mut self, local: usize, r: u32) -> AggregateRowMut<'_> {
        assert!(
            r >= 1 && r as usize <= self.r_max,
            "radius {r} outside [1, {}]",
            self.r_max
        );
        let row = local * self.r_max + (r - 1) as usize;
        AggregateRowMut {
            signature: &mut self.signatures[row * self.words..(row + 1) * self.words],
            support_upper_bound: &mut self.supports[row],
            score_upper_bounds: &mut self.scores
                [row * self.num_thresholds..(row + 1) * self.num_thresholds],
            region_size: &mut self.region_sizes[row],
        }
    }
}

/// Publish shadow for one [`AggregateTable`] whose rows are mutated entity
/// by entity between snapshot publishes (the streaming maintainer's vertex
/// and node tables): one [`SectionShadow`] per column array, all marked with
/// the same dirty-entity set. See [`SectionShadow`] for the double-buffer
/// replay protocol.
#[derive(Debug)]
pub(crate) struct TableShadow {
    signatures: SectionShadow<u64>,
    supports: SectionShadow<u32>,
    scores: SectionShadow<f64>,
    region_sizes: SectionShadow<u32>,
}

impl TableShadow {
    /// A shadow matching `table`'s row geometry (one logical row = one
    /// entity = all its `r_max` radius rows).
    pub(crate) fn new(table: &AggregateTable) -> Self {
        let r_max = table.r_max as usize;
        let words = table.signature_bits.div_ceil(64);
        let m = table.num_thresholds;
        TableShadow {
            signatures: SectionShadow::new((r_max * words).max(1)),
            supports: SectionShadow::new(r_max.max(1)),
            scores: SectionShadow::new((r_max * m).max(1)),
            region_sizes: SectionShadow::new(r_max.max(1)),
        }
    }

    /// Records the entities whose rows were rewritten since the last publish.
    pub(crate) fn mark_entities(&mut self, entities: &[u32]) {
        self.signatures.mark_rows(entities);
        self.supports.mark_rows(entities);
        self.scores.mark_rows(entities);
        self.region_sizes.mark_rows(entities);
    }

    /// Invalidates both buffers (wholesale rewrite, e.g. a repack).
    pub(crate) fn mark_all(&mut self) {
        self.signatures.mark_all();
        self.supports.mark_all();
        self.scores.mark_all();
        self.region_sizes.mark_all();
    }

    /// Syncs both double-buffer slots with `table` so the first publishes
    /// after construction replay dirty rows instead of full-copying.
    pub(crate) fn prime(&mut self, table: &AggregateTable) {
        self.signatures.prime(table.raw_signatures());
        self.supports.prime(table.raw_supports());
        self.scores.prime(table.raw_scores());
        self.region_sizes.prime(table.raw_region_sizes());
    }

    /// Builds a structurally-shared snapshot copy of `table`: untouched rows
    /// alias the shadow buffers, dirty rows are replayed from `table`.
    pub(crate) fn publish(&mut self, table: &AggregateTable) -> AggregateTable {
        AggregateTable {
            entities: table.entities,
            r_max: table.r_max,
            signature_bits: table.signature_bits,
            num_thresholds: table.num_thresholds,
            signatures: self.signatures.publish(table.raw_signatures()),
            supports: self.supports.publish(table.raw_supports()),
            scores: self.scores.publish(table.raw_scores()),
            region_sizes: self.region_sizes.publish(table.raw_region_sizes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_graph::KeywordSet;

    fn sample_aggregate(support: u32, scores: &[f64], kw: u32) -> RadiusAggregate {
        RadiusAggregate {
            keyword_signature: BitVector::from_keywords(&KeywordSet::from_ids([kw]), 128),
            support_upper_bound: support,
            score_upper_bounds: scores.to_vec(),
            region_size: support + 1,
        }
    }

    #[test]
    fn rows_roundtrip_through_the_flat_arrays() {
        let mut table = AggregateTable::new(3, 2, 128, 2);
        let agg = sample_aggregate(7, &[1.5, 0.5], 3);
        table.set_row(1, 2, &agg);
        let row = table.row(1, 2);
        assert_eq!(row.support_upper_bound, 7);
        assert_eq!(row.score_upper_bounds, &[1.5, 0.5]);
        assert_eq!(row.region_size, 8);
        assert_eq!(row.keyword_signature, agg.keyword_signature);
        assert_eq!(row.to_owned_aggregate(), agg);
        // untouched rows stay zeroed
        assert_eq!(table.row(1, 1).support_upper_bound, 0);
        assert_eq!(table.score(1, 2, 0), 1.5);
        assert_eq!(table.score(1, 2, 1), 0.5);
    }

    #[test]
    fn set_entity_writes_every_radius() {
        let mut table = AggregateTable::new(2, 3, 64, 1);
        let rows: Vec<RadiusAggregate> = (1..=3u32)
            .map(|r| RadiusAggregate {
                keyword_signature: BitVector::from_keywords(&KeywordSet::from_ids([r]), 64),
                support_upper_bound: r,
                score_upper_bounds: vec![f64::from(r)],
                region_size: 10 * r,
            })
            .collect();
        table.set_entity(1, &rows);
        for r in 1..=3u32 {
            let row = table.row(1, r);
            assert_eq!(row.support_upper_bound, r);
            assert_eq!(row.region_size, 10 * r);
        }
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn out_of_range_radius_panics() {
        let table = AggregateTable::new(1, 2, 64, 1);
        let _ = table.row(0, 3);
    }

    #[test]
    fn chunked_writers_cover_the_whole_table_disjointly() {
        let entities = 7usize;
        let mut table = AggregateTable::new(entities, 2, 128, 3);
        let mut chunks = table.chunks_mut(3);
        // 7 entities at 3 per chunk: 3 + 3 + 1
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks.iter().map(TableChunkMut::len).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        assert_eq!(
            chunks
                .iter()
                .map(TableChunkMut::first_entity)
                .collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        assert!(!chunks[0].is_empty());
        for chunk in &mut chunks {
            let first = chunk.first_entity();
            for local in 0..chunk.len() {
                for r in 1..=2u32 {
                    let row = chunk.row_mut(local, r);
                    let entity = (first + local) as u32;
                    row.signature.fill(u64::from(entity * 10 + r));
                    *row.support_upper_bound = entity * 10 + r;
                    row.score_upper_bounds.fill(f64::from(entity * 10 + r));
                    *row.region_size = entity;
                }
            }
        }
        drop(chunks);
        for entity in 0..entities {
            for r in 1..=2u32 {
                let expected = entity as u32 * 10 + r;
                let row = table.row(entity, r);
                assert_eq!(row.support_upper_bound, expected);
                assert_eq!(row.region_size, entity as u32);
                assert!(row
                    .keyword_signature
                    .words()
                    .iter()
                    .all(|w| *w == u64::from(expected)));
                assert!(row
                    .score_upper_bounds
                    .iter()
                    .all(|s| *s == f64::from(expected)));
            }
        }
    }

    #[test]
    fn from_raw_validates_lengths() {
        let table = AggregateTable::new(2, 2, 128, 3);
        let ok = AggregateTable::from_raw(
            2,
            2,
            128,
            3,
            table.raw_signatures().to_vec(),
            table.raw_supports().to_vec(),
            table.raw_scores().to_vec(),
            table.raw_region_sizes().to_vec(),
        );
        assert_eq!(ok.unwrap(), table);
        let bad = AggregateTable::from_raw(
            3, // wrong entity count for the same arrays
            2,
            128,
            3,
            table.raw_signatures().to_vec(),
            table.raw_supports().to_vec(),
            table.raw_scores().to_vec(),
            table.raw_region_sizes().to_vec(),
        );
        assert!(bad.is_err());
    }
}
