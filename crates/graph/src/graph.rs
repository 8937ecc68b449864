//! The social network graph store (Definition 1).
//!
//! A [`SocialNetwork`] is an attributed, undirected, weighted graph
//! `G = (V(G), E(G), Φ(G))`: the *structure* (who is connected to whom) is
//! undirected, while each structural edge carries two directed activation
//! probabilities `p_{u,v}` (u activates v) and `p_{v,u}` (v activates u) used
//! by the MIA propagation model. Each vertex carries a keyword set `v_i.W`.
//!
//! # Layered store: frozen CSR base + delta overlay
//!
//! The adjacency lives in two layers:
//!
//! * The **frozen CSR base**, produced in one shot by the mutable
//!   [`crate::builder::GraphBuilder`] (or the I/O loaders): `offsets:
//!   Vec<u32>` of length `n + 1` and one flat `csr: Vec<(VertexId, EdgeId)>`
//!   of length `2m` holding every vertex's neighbour list back to back,
//!   sorted by neighbour id. The base is mmap-able and never touched by
//!   structural updates.
//! * A small **delta overlay** ([`crate::overlay::DeltaOverlay`]): per-vertex
//!   sorted runs of inserted `(neighbour, edge id, weight)` entries plus a
//!   tombstone set of deleted edge ids.
//!
//! [`SocialNetwork::neighbors`] returns a [`Neighbors`] cursor that merges
//! the base slice with the vertex's run (minus tombstones, still sorted);
//! for untouched rows — every row of an overlay-free graph — the cursor *is*
//! the contiguous base slice, so the traversal kernels keep their slice-speed
//! inner loops. [`SocialNetwork::degree`] stays O(1) and
//! [`SocialNetwork::edge_between`] a binary search. Edge- and vertex-indexed
//! attributes (directed weights, keyword sets) live in parallel flat vectors
//! addressed by [`EdgeId`] / [`VertexId`]; inserted edges append to overlay
//! columns, and tombstoned ids are **never reused**, so edge-indexed side
//! data stays valid across updates.
//!
//! Structural updates go through [`SocialNetwork::apply_edge_inserted`] /
//! [`SocialNetwork::apply_edge_removed`] — O(degree · log degree) overlay
//! patches — and [`SocialNetwork::compact`] folds the overlay back into a
//! fresh CSR (returning an [`EdgeIdRemap`] for side data) once it exceeds a
//! configurable fraction of `m`; see [`SocialNetwork::maybe_compact`].
//! Attributes stay mutable without the overlay ([`set_edge_weights`],
//! [`set_keyword_set`]): the generators draw weights and keywords after the
//! topology is fixed, and neither touches the CSR arrays.
//!
//! [`set_edge_weights`]: SocialNetwork::set_edge_weights
//! [`set_keyword_set`]: SocialNetwork::set_keyword_set

use crate::error::{GraphError, GraphResult};
use crate::keywords::KeywordSet;
use crate::overlay::{DeltaOverlay, EdgeIdRemap, Neighbors, Outgoing};
use crate::snapshot::{fnv1a, fnv1a_extend, FlatVec};
use crate::types::{is_valid_probability, EdgeId, VertexId, Weight};
use std::collections::HashSet;
use std::sync::Arc;

/// Default overlay-size trigger for [`SocialNetwork::maybe_compact`]: fold
/// the overlay back into the CSR once tombstones + inserted edges exceed
/// this fraction of the base edge count.
pub const DEFAULT_COMPACT_THRESHOLD: f64 = 0.125;

/// An attributed, undirected, weighted social network (Definition 1), frozen
/// into a flat CSR store. Construct one through
/// [`crate::builder::GraphBuilder`].
#[derive(Debug, Clone)]
pub struct SocialNetwork {
    /// CSR row offsets: the neighbours of `v` live in
    /// `csr[offsets[v] .. offsets[v + 1]]`. Length `n + 1`.
    ///
    /// The flat arrays live in [`FlatVec`]s: owned vectors for graphs built
    /// in memory, zero-copy views into the file region for graphs loaded
    /// from a binary snapshot ([`crate::snapshot`]).
    offsets: FlatVec<u32>,
    /// Packed `(neighbour, edge id)` pairs, sorted by neighbour id within each
    /// vertex's row. Length `2m`.
    csr: FlatVec<(VertexId, EdgeId)>,
    /// Outgoing activation probability per CSR slot: `csr_out_weight[s]` is
    /// `p_{v→n}` where slot `s` of `v`'s row points at `n`. Keeps the
    /// max-product Dijkstra inner loop on two contiguous slices instead of
    /// chasing the edge table per neighbour. Derived data, rebuilt alongside
    /// the CSR and patched by [`SocialNetwork::set_edge_weights`].
    csr_out_weight: FlatVec<Weight>,
    /// Canonical edge table: `edges[e] = (u, v)` with `u < v`.
    edges: FlatVec<(VertexId, VertexId)>,
    /// Directed activation probability `p_{u,v}` for the canonical direction
    /// (`u < v`).
    weight_forward: FlatVec<Weight>,
    /// Directed activation probability `p_{v,u}` for the reverse direction.
    weight_backward: FlatVec<Weight>,
    /// Per-vertex keyword sets `v_i.W`. `Arc`-shared so snapshot clones are
    /// O(1); the rare mutation ([`SocialNetwork::set_keyword_set`]) detaches
    /// a uniquely-referenced vector for free via `Arc::make_mut`.
    keywords: Arc<Vec<KeywordSet>>,
    /// The delta overlay holding structural updates since the base was
    /// frozen: `None` (the common case) means every reader takes the raw
    /// slice fast path. Boxed so the frozen store stays lean.
    overlay: Option<Box<DeltaOverlay>>,
}

impl Default for SocialNetwork {
    fn default() -> Self {
        SocialNetwork {
            offsets: vec![0].into(),
            csr: FlatVec::default(),
            csr_out_weight: FlatVec::default(),
            edges: FlatVec::default(),
            weight_forward: FlatVec::default(),
            weight_backward: FlatVec::default(),
            keywords: Arc::new(Vec::new()),
            overlay: None,
        }
    }
}

/// Borrowed view of every flat array of a frozen [`SocialNetwork`] — the
/// graph's "raw parts", consumed by the binary snapshot writer and the
/// content fingerprint, and useful for any external tool that wants the CSR
/// without going through the accessor methods.
#[derive(Debug, Clone, Copy)]
pub struct GraphParts<'a> {
    /// CSR row offsets (`n + 1` entries).
    pub offsets: &'a [u32],
    /// Packed `(neighbour, edge id)` CSR slots (`2m` entries).
    pub csr: &'a [(VertexId, EdgeId)],
    /// Outgoing activation probability per CSR slot (`2m` entries).
    pub csr_out_weights: &'a [Weight],
    /// Canonical edge endpoints, `u < v` (`m` entries).
    pub edges: &'a [(VertexId, VertexId)],
    /// Directed weights in the canonical direction (`m` entries).
    pub weight_forward: &'a [Weight],
    /// Directed weights in the reverse direction (`m` entries).
    pub weight_backward: &'a [Weight],
    /// Per-vertex keyword sets (`n` entries).
    pub keywords: &'a [KeywordSet],
}

/// Builds the CSR arrays for `n` vertices from a canonical edge table with a
/// counting sort: one pass to count degrees, a prefix sum for the offsets,
/// one pass to scatter, and a per-row sort by neighbour id.
pub(crate) fn build_csr(
    n: usize,
    edges: &[(VertexId, VertexId)],
) -> (Vec<u32>, Vec<(VertexId, EdgeId)>) {
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in edges {
        offsets[u.index() + 1] += 1;
        offsets[v.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut csr = vec![(VertexId(0), EdgeId(0)); 2 * edges.len()];
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for (i, &(u, v)) in edges.iter().enumerate() {
        let e = EdgeId::from_index(i);
        csr[cursor[u.index()] as usize] = (v, e);
        cursor[u.index()] += 1;
        csr[cursor[v.index()] as usize] = (u, e);
        cursor[v.index()] += 1;
    }
    for v in 0..n {
        csr[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable_by_key(|&(w, _)| w);
    }
    (offsets, csr)
}

impl SocialNetwork {
    /// Creates an empty (zero-vertex) frozen network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates an in-insertion-order edge table against `keywords.len()`
    /// vertices and freezes it into a CSR store. Edge `i` of the table gets
    /// [`EdgeId`] `i`; endpoints are canonicalised to `u < v` and the directed
    /// weights follow. This is the single construction path shared by the
    /// builder, the snapshot loaders and the structural-update helpers.
    pub(crate) fn assemble(
        keywords: Vec<KeywordSet>,
        edge_table: Vec<(VertexId, VertexId, Weight, Weight)>,
    ) -> GraphResult<Self> {
        let n = keywords.len();
        let mut edges = Vec::with_capacity(edge_table.len());
        let mut weight_forward = Vec::with_capacity(edge_table.len());
        let mut weight_backward = Vec::with_capacity(edge_table.len());
        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(edge_table.len());
        for (u, v, p_uv, p_vu) in edge_table {
            if u.index() >= n {
                return Err(GraphError::UnknownVertex(u));
            }
            if v.index() >= n {
                return Err(GraphError::UnknownVertex(v));
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if !is_valid_probability(p_uv) {
                return Err(GraphError::InvalidWeight { u, v, weight: p_uv });
            }
            if !is_valid_probability(p_vu) {
                return Err(GraphError::InvalidWeight {
                    u: v,
                    v: u,
                    weight: p_vu,
                });
            }
            let (lo, hi) = if u < v { (u, v) } else { (v, u) };
            if !seen.insert((lo.0, hi.0)) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            let (p_lo_hi, p_hi_lo) = if u < v { (p_uv, p_vu) } else { (p_vu, p_uv) };
            edges.push((lo, hi));
            weight_forward.push(p_lo_hi);
            weight_backward.push(p_hi_lo);
        }
        let (offsets, csr) = build_csr(n, &edges);
        let mut network = SocialNetwork {
            offsets: offsets.into(),
            csr: csr.into(),
            csr_out_weight: FlatVec::default(),
            edges: edges.into(),
            weight_forward: weight_forward.into(),
            weight_backward: weight_backward.into(),
            keywords: Arc::new(keywords),
            overlay: None,
        };
        network.refresh_csr_out_weights();
        Ok(network)
    }

    /// Assembles a frozen network directly from already-validated flat parts
    /// (the binary snapshot loader, which has checked every structural
    /// invariant and hands over zero-copy views where possible).
    pub(crate) fn from_snapshot_parts(
        offsets: FlatVec<u32>,
        csr: FlatVec<(VertexId, EdgeId)>,
        csr_out_weight: FlatVec<Weight>,
        edges: FlatVec<(VertexId, VertexId)>,
        weight_forward: FlatVec<Weight>,
        weight_backward: FlatVec<Weight>,
        keywords: Vec<KeywordSet>,
    ) -> Self {
        SocialNetwork {
            offsets,
            csr,
            csr_out_weight,
            edges,
            weight_forward,
            weight_backward,
            keywords: Arc::new(keywords),
            overlay: None,
        }
    }

    /// Borrowed view of every flat array (see [`GraphParts`]). The view
    /// covers the frozen **base** only; callers that need the full logical
    /// graph as flat arrays (the binary snapshot writer) must
    /// [`compact`](SocialNetwork::compact) first.
    pub fn raw_parts(&self) -> GraphParts<'_> {
        GraphParts {
            offsets: &self.offsets,
            csr: &self.csr,
            csr_out_weights: &self.csr_out_weight,
            edges: &self.edges,
            weight_forward: &self.weight_forward,
            weight_backward: &self.weight_backward,
            keywords: &self.keywords[..],
        }
    }

    /// Converts every owned base array to `Arc`-shared storage in place
    /// (O(1) per array), so [`Clone`] copies nothing but refcounts. Streamed
    /// structural updates only touch the overlay — the base arrays stay
    /// frozen until [`compact`](SocialNetwork::compact) rebuilds them as
    /// owned vectors, after which callers re-share. Mapped (snapshot-backed)
    /// arrays are already cheap to clone and are left untouched.
    pub fn share_sections(&mut self) {
        self.offsets.share();
        self.csr.share();
        self.csr_out_weight.share();
        self.edges.share();
        self.weight_forward.share();
        self.weight_backward.share();
    }

    /// Returns `true` if any flat array is a zero-copy view into a loaded
    /// binary snapshot (attribute mutation copies on first write).
    pub fn is_snapshot_backed(&self) -> bool {
        self.offsets.is_mapped()
            || self.csr.is_mapped()
            || self.csr_out_weight.is_mapped()
            || self.edges.is_mapped()
            || self.weight_forward.is_mapped()
            || self.weight_backward.is_mapped()
    }

    /// Returns `true` if any flat array views an actual `mmap(2)` of the
    /// snapshot file (the buffered fallback also produces snapshot-backed
    /// views, but over a heap region).
    pub fn is_mmap_backed(&self) -> bool {
        self.offsets.is_file_mapped()
            || self.csr.is_file_mapped()
            || self.csr_out_weight.is_file_mapped()
            || self.edges.is_file_mapped()
            || self.weight_forward.is_file_mapped()
            || self.weight_backward.is_file_mapped()
    }

    /// An FNV-1a fingerprint of the complete graph content (topology,
    /// weights bit patterns, keywords). Two graphs with equal fingerprints
    /// are byte-identical in every flat array — the bit-identity check used
    /// by the snapshot round-trip tests.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = fnv1a(b"icde-graph-content-v1");
        let word = |h: u64, v: u64| fnv1a_extend(h, &v.to_le_bytes());
        h = word(h, self.num_vertices() as u64);
        h = word(h, self.num_edges() as u64);
        for &o in self.offsets.iter() {
            h = word(h, u64::from(o));
        }
        for &(n, e) in self.csr.iter() {
            h = word(h, u64::from(n.0) << 32 | u64::from(e.0));
        }
        for &w in self.csr_out_weight.iter() {
            h = word(h, w.to_bits());
        }
        for &(u, v) in self.edges.iter() {
            h = word(h, u64::from(u.0) << 32 | u64::from(v.0));
        }
        for &w in self.weight_forward.iter() {
            h = word(h, w.to_bits());
        }
        for &w in self.weight_backward.iter() {
            h = word(h, w.to_bits());
        }
        for set in self.keywords.iter() {
            h = word(h, set.len() as u64);
            for kw in set.iter() {
                h = word(h, u64::from(kw.0));
            }
        }
        // overlay state folds in after the base so an overlay-free graph
        // keeps the exact byte path (and fingerprint) of earlier versions
        if let Some(o) = self.overlay.as_deref() {
            if !o.is_empty() {
                h = fnv1a_extend(h, b"overlay");
                let mut dead: Vec<u32> = o.tombstones.iter().copied().collect();
                dead.sort_unstable();
                h = word(h, dead.len() as u64);
                for id in dead {
                    h = word(h, u64::from(id));
                }
                h = word(h, o.extra_edges.len() as u64);
                for (i, &(u, v)) in o.extra_edges.iter().enumerate() {
                    h = word(h, u64::from(u.0) << 32 | u64::from(v.0));
                    h = word(h, o.extra_weight_forward[i].to_bits());
                    h = word(h, o.extra_weight_backward[i].to_bits());
                }
            }
        }
        h
    }

    /// Recomputes the packed per-slot outgoing weights from the directed
    /// weight tables in one O(m) pass.
    fn refresh_csr_out_weights(&mut self) {
        let mut out = vec![0.0; self.csr.len()];
        for (slot, value) in out.iter_mut().enumerate() {
            // a slot pointing at the higher endpoint lives in the lower
            // endpoint's row, so the outgoing direction is forward
            let (n, e) = self.csr[slot];
            let (_, hi) = self.edges[e.index()];
            *value = if n == hi {
                self.weight_forward[e.index()]
            } else {
                self.weight_backward[e.index()]
            };
        }
        self.csr_out_weight = out.into();
    }

    /// Number of vertices `|V(G)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.keywords.len()
    }

    /// Number of **live** undirected edges `|E(G)|` (tombstoned edges
    /// excluded).
    #[inline]
    pub fn num_edges(&self) -> usize {
        match self.overlay.as_deref() {
            None => self.edges.len(),
            Some(o) => self.edges.len() + o.extra_edges.len() - o.tombstones.len(),
        }
    }

    /// Size of the edge-**id** space: one more than the largest id ever
    /// handed out, including tombstoned ids (which are never reused until
    /// [`compact`](SocialNetwork::compact)). Dense edge-indexed side arrays
    /// must be sized by this, not by [`num_edges`](SocialNetwork::num_edges).
    #[inline]
    pub fn edge_id_space(&self) -> usize {
        self.edges.len() + self.overlay.as_deref().map_or(0, |o| o.extra_edges.len())
    }

    /// `true` when structural updates are pending in the delta overlay (the
    /// graph differs from its frozen CSR base).
    pub fn has_overlay(&self) -> bool {
        self.overlay.as_deref().is_some_and(|o| !o.is_empty())
    }

    /// Overlay size relative to the base edge count: `(tombstones + inserted
    /// edges) / base_m`. The [`maybe_compact`](SocialNetwork::maybe_compact)
    /// trigger.
    pub fn overlay_fraction(&self) -> f64 {
        match self.overlay.as_deref() {
            None => 0.0,
            Some(o) => {
                (o.tombstones.len() + o.extra_edges.len()) as f64 / self.edges.len().max(1) as f64
            }
        }
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// Returns `true` if `v` is a valid vertex id of this graph.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.keywords.len()
    }

    /// Iterates over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.keywords.len()).map(VertexId::from_index)
    }

    /// Iterates over the **live** edges as `(edge id, u, v)` with `u < v`,
    /// in ascending id order (base edges first, then overlay insertions;
    /// tombstoned ids are skipped).
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        let extras: &[(VertexId, VertexId)] =
            self.overlay.as_deref().map_or(&[], |o| &o.extra_edges);
        self.edges
            .iter()
            .chain(extras.iter())
            .enumerate()
            .filter(move |&(i, _)| !self.is_tombstoned(EdgeId::from_index(i)))
            .map(|(i, &(u, v))| (EdgeId::from_index(i), u, v))
    }

    /// `true` if `e`'s id has been retired by
    /// [`apply_edge_removed`](SocialNetwork::apply_edge_removed).
    #[inline]
    fn is_tombstoned(&self, e: EdgeId) -> bool {
        self.overlay.as_deref().is_some_and(|o| o.is_tombstoned(e))
    }

    /// Returns the edge id between `u` and `v`, if any (binary search of the
    /// shorter row's cursor).
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if !self.contains_vertex(u) || !self.contains_vertex(v) {
            return None;
        }
        let (probe, key) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(probe).find(key)
    }

    /// Returns `true` if `{u, v}` is an edge.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Returns the canonical endpoints `(u, v)` with `u < v` of an edge
    /// (base or overlay id; tombstoned ids keep their endpoints until
    /// compaction).
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        if e.index() < self.edges.len() {
            self.edges[e.index()]
        } else {
            self.overlay
                .as_deref()
                .expect("extra edge id implies an overlay")
                .extra_edges[e.index() - self.edges.len()]
        }
    }

    /// Directed activation probability `p_{u→v}` along an existing edge.
    ///
    /// Returns an error if `{u, v}` is not an edge.
    pub fn activation_probability(&self, u: VertexId, v: VertexId) -> GraphResult<Weight> {
        let eid = self
            .edge_between(u, v)
            .ok_or(GraphError::MissingEdge(u, v))?;
        Ok(self.directed_weight(eid, u))
    }

    /// Directed activation probability along edge `e` when leaving from
    /// `from` (which must be one of the endpoints).
    #[inline]
    pub fn directed_weight(&self, e: EdgeId, from: VertexId) -> Weight {
        if e.index() < self.edges.len() {
            let (lo, _hi) = self.edges[e.index()];
            if from == lo {
                self.weight_forward[e.index()]
            } else {
                self.weight_backward[e.index()]
            }
        } else {
            let o = self
                .overlay
                .as_deref()
                .expect("extra edge id implies an overlay");
            let i = e.index() - self.edges.len();
            let (lo, _hi) = o.extra_edges[i];
            if from == lo {
                o.extra_weight_forward[i]
            } else {
                o.extra_weight_backward[i]
            }
        }
    }

    /// Degree of a vertex: an offset subtraction, plus two O(1) overlay
    /// lookups when updates are pending.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let base = (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize;
        match self.overlay.as_deref() {
            None => base,
            Some(o) => base - o.removed_in_row(v) + o.run(v).len(),
        }
    }

    /// Average degree over all vertices (`avg_deg` in the complexity
    /// analyses), 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.keywords.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        if self.has_overlay() {
            self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
        } else {
            self.offsets
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0)
        }
    }

    /// The base CSR row of `v` (pre-overlay adjacency).
    #[inline]
    fn base_row(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.csr[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// The neighbours of `v` as a [`Neighbors`] cursor over `(neighbour,
    /// edge id)` pairs in ascending neighbour order. For rows without
    /// pending overlay entries — every row of an overlay-free graph — the
    /// cursor is the contiguous CSR slice ([`Neighbors::Slice`]).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        match self.overlay.as_deref() {
            None => Neighbors::Slice(self.base_row(v)),
            Some(o) if !o.row_is_patched(v) => Neighbors::Slice(self.base_row(v)),
            Some(o) => Neighbors::Merged {
                base: self.base_row(v),
                run: o.run(v),
                tombstones: &o.tombstones,
            },
        }
    }

    /// Iterates over the neighbours of `v` together with the *outgoing*
    /// activation probability `p_{v→n}`. Overlay-free rows zip the two
    /// contiguous CSR slices (no per-neighbour edge-table lookup); patched
    /// rows merge in the run entries, which carry their weights inline.
    pub fn outgoing(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize;
        match self.overlay.as_deref() {
            Some(o) if o.row_is_patched(v) => Outgoing::Merged {
                base: &self.csr[range.clone()],
                base_w: &self.csr_out_weight[range],
                run: o.run(v),
                tombstones: &o.tombstones,
                bi: 0,
                ri: 0,
            },
            _ => Outgoing::Slice(
                self.csr[range.clone()]
                    .iter()
                    .zip(&self.csr_out_weight[range]),
            ),
        }
    }

    /// Keyword set `v.W` of a vertex.
    #[inline]
    pub fn keyword_set(&self, v: VertexId) -> &KeywordSet {
        &self.keywords[v.index()]
    }

    /// Replaces the keyword set of a vertex (used by the generators when
    /// keywords are assigned after the topology is frozen; attribute-only,
    /// the CSR structure is untouched).
    pub fn set_keyword_set(&mut self, v: VertexId, keywords: KeywordSet) {
        Arc::make_mut(&mut self.keywords)[v.index()] = keywords;
    }

    /// Overwrites both directed weights of an existing edge (attribute-only,
    /// the CSR structure is untouched).
    pub fn set_edge_weights(
        &mut self,
        e: EdgeId,
        p_forward: Weight,
        p_backward: Weight,
    ) -> GraphResult<()> {
        let (lo, hi) = self.edge_endpoints(e);
        if !is_valid_probability(p_forward) {
            return Err(GraphError::InvalidWeight {
                u: lo,
                v: hi,
                weight: p_forward,
            });
        }
        if !is_valid_probability(p_backward) {
            return Err(GraphError::InvalidWeight {
                u: hi,
                v: lo,
                weight: p_backward,
            });
        }
        if e.index() < self.edges.len() {
            self.weight_forward.to_mut()[e.index()] = p_forward;
            self.weight_backward.to_mut()[e.index()] = p_backward;
            // keep the packed per-slot outgoing weights in sync: the forward
            // direction leaves lo's row (slot pointing at hi) and vice versa
            self.patch_out_weight(lo, hi, p_forward);
            self.patch_out_weight(hi, lo, p_backward);
        } else {
            let base_m = self.edges.len();
            let o = self
                .overlay
                .as_deref_mut()
                .expect("extra edge id implies an overlay");
            let i = e.index() - base_m;
            o.extra_weight_forward[i] = p_forward;
            o.extra_weight_backward[i] = p_backward;
            // the run entries carry the outgoing weights inline
            o.patch_run_weight(lo, e, p_forward);
            o.patch_run_weight(hi, e, p_backward);
        }
        Ok(())
    }

    /// Overwrites the directed weights of many edges at once (attribute-only,
    /// the CSR structure is untouched). Validates every update before
    /// applying any, then refreshes the packed per-slot weights in one O(m)
    /// pass — the generators re-draw *every* edge after freezing, where
    /// per-edge [`set_edge_weights`] would pay two binary searches per edge.
    ///
    /// [`set_edge_weights`]: SocialNetwork::set_edge_weights
    pub fn set_edge_weights_bulk(
        &mut self,
        updates: &[(EdgeId, Weight, Weight)],
    ) -> GraphResult<()> {
        for &(e, p_forward, p_backward) in updates {
            let (lo, hi) = self.edge_endpoints(e);
            if !is_valid_probability(p_forward) {
                return Err(GraphError::InvalidWeight {
                    u: lo,
                    v: hi,
                    weight: p_forward,
                });
            }
            if !is_valid_probability(p_backward) {
                return Err(GraphError::InvalidWeight {
                    u: hi,
                    v: lo,
                    weight: p_backward,
                });
            }
        }
        let base_m = self.edges.len();
        for &(e, p_forward, p_backward) in updates {
            if e.index() < base_m {
                self.weight_forward.to_mut()[e.index()] = p_forward;
                self.weight_backward.to_mut()[e.index()] = p_backward;
            } else {
                let (lo, hi) = self.edge_endpoints(e);
                let o = self
                    .overlay
                    .as_deref_mut()
                    .expect("extra edge id implies an overlay");
                let i = e.index() - base_m;
                o.extra_weight_forward[i] = p_forward;
                o.extra_weight_backward[i] = p_backward;
                o.patch_run_weight(lo, e, p_forward);
                o.patch_run_weight(hi, e, p_backward);
            }
        }
        self.refresh_csr_out_weights();
        Ok(())
    }

    /// Overwrites the packed outgoing weight of the slot in `from`'s row that
    /// points at `to` (the slot exists for every edge endpoint pair).
    fn patch_out_weight(&mut self, from: VertexId, to: VertexId, weight: Weight) {
        let start = self.offsets[from.index()] as usize;
        let row = &self.csr[start..self.offsets[from.index() + 1] as usize];
        let pos = row
            .binary_search_by_key(&to, |&(n, _)| n)
            .expect("endpoints of an existing edge are mutual neighbours");
        self.csr_out_weight.to_mut()[start + pos] = weight;
    }

    /// Inserts the edge `{u, v}` as a delta-overlay patch: the CSR base is
    /// untouched, the edge gets the next fresh id
    /// ([`edge_id_space`](SocialNetwork::edge_id_space)), and a sorted run
    /// entry is spliced into each endpoint's row — O(degree · log degree),
    /// not O(n + m). Returns the new edge's id.
    pub fn apply_edge_inserted(
        &mut self,
        u: VertexId,
        v: VertexId,
        p_uv: Weight,
        p_vu: Weight,
    ) -> GraphResult<EdgeId> {
        if !self.contains_vertex(u) {
            return Err(GraphError::UnknownVertex(u));
        }
        if !self.contains_vertex(v) {
            return Err(GraphError::UnknownVertex(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !is_valid_probability(p_uv) {
            return Err(GraphError::InvalidWeight { u, v, weight: p_uv });
        }
        if !is_valid_probability(p_vu) {
            return Err(GraphError::InvalidWeight {
                u: v,
                v: u,
                weight: p_vu,
            });
        }
        if self.contains_edge(u, v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let e = EdgeId::from_index(self.edge_id_space());
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let (p_lo_hi, p_hi_lo) = if u < v { (p_uv, p_vu) } else { (p_vu, p_uv) };
        let o = self.overlay.get_or_insert_with(Default::default);
        o.extra_edges.push((lo, hi));
        o.extra_weight_forward.push(p_lo_hi);
        o.extra_weight_backward.push(p_hi_lo);
        o.insert_run_entry(lo, hi, e, p_lo_hi);
        o.insert_run_entry(hi, lo, e, p_hi_lo);
        Ok(e)
    }

    /// Removes the edge `{u, v}` as a delta-overlay patch: its id is
    /// tombstoned (retired, never reused until
    /// [`compact`](SocialNetwork::compact)), so edge-indexed side data for
    /// the surviving edges stays valid. O(degree) for overlay-inserted
    /// edges, O(1) for base edges. Returns the removed edge's id.
    pub fn apply_edge_removed(&mut self, u: VertexId, v: VertexId) -> GraphResult<EdgeId> {
        let e = self
            .edge_between(u, v)
            .ok_or(GraphError::MissingEdge(u, v))?;
        let base_m = self.edges.len();
        let (lo, hi) = self.edge_endpoints(e);
        let o = self.overlay.get_or_insert_with(Default::default);
        o.tombstones.insert(e.0);
        if e.index() < base_m {
            // a base edge: its CSR slots stay but become invisible
            *o.removed_in_row.entry(lo.0).or_insert(0) += 1;
            *o.removed_in_row.entry(hi.0).or_insert(0) += 1;
        } else {
            // an overlay edge: drop its run entries (runs hold live edges
            // only); the extras slot stays so ids above it don't shift
            o.remove_run_entry(lo, e);
            o.remove_run_entry(hi, e);
        }
        Ok(e)
    }

    /// Folds the delta overlay back into a fresh frozen CSR: live edges keep
    /// their relative order and pack densely into ids `0..num_edges()`. The
    /// only remaining O(n + m) step of the update path, amortised by
    /// [`maybe_compact`](SocialNetwork::maybe_compact). Returns the old→new
    /// [`EdgeIdRemap`] for edge-indexed side data (identity if the overlay
    /// was empty).
    pub fn compact(&mut self) -> EdgeIdRemap {
        if !self.has_overlay() {
            self.overlay = None;
            return EdgeIdRemap::identity(self.edges.len());
        }
        let id_space = self.edge_id_space();
        let mut map = vec![u32::MAX; id_space];
        let mut table = Vec::with_capacity(self.num_edges());
        for (e, u, v) in self.edges() {
            map[e.index()] = table.len() as u32;
            table.push((u, v, self.directed_weight(e, u), self.directed_weight(e, v)));
        }
        let live = table.len();
        let keywords = std::mem::take(&mut self.keywords);
        // A snapshot may still hold the keyword Arc; compaction is already
        // O(n + m), so falling back to one clone is fine.
        let keywords = Arc::try_unwrap(keywords).unwrap_or_else(|arc| (*arc).clone());
        *self = Self::assemble(keywords, table)
            .expect("live edges of a valid graph re-assemble cleanly");
        EdgeIdRemap::from_map(map, live)
    }

    /// Compacts when the overlay exceeds `threshold` as a fraction of the
    /// base edge count (see
    /// [`overlay_fraction`](SocialNetwork::overlay_fraction) and
    /// [`DEFAULT_COMPACT_THRESHOLD`]); returns the remap when it fired.
    pub fn maybe_compact(&mut self, threshold: f64) -> Option<EdgeIdRemap> {
        (self.overlay_fraction() > threshold).then(|| self.compact())
    }

    /// The live canonical edge table with weights, in edge-id order, as a
    /// borrowing iterator — only [`compact`](SocialNetwork::compact) and the
    /// snapshot writers ever materialise it.
    pub fn edge_table_iter(
        &self,
    ) -> impl Iterator<Item = (VertexId, VertexId, Weight, Weight)> + '_ {
        self.edges()
            .map(|(e, u, v)| (u, v, self.directed_weight(e, u), self.directed_weight(e, v)))
    }

    /// Counts the number of common neighbours of `u` and `v` (the number of
    /// triangles through the edge `{u, v}` when they are adjacent).
    ///
    /// Linear merge over the two sorted rows (raw-slice merge when neither
    /// row has overlay entries).
    pub fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        merge_count_cursors(self.neighbors(u), self.neighbors(v))
    }

    /// Counts common neighbours of `u` and `v` with id strictly greater than
    /// `floor` — the ordered-enumeration primitive of triangle counting
    /// (count each triangle `{a < b < c}` at its smallest edge). Binary
    /// searches skip both rows to `floor` before merging.
    pub fn common_neighbor_count_above(&self, u: VertexId, v: VertexId, floor: VertexId) -> usize {
        merge_count_cursors(
            self.neighbors(u).suffix_above(floor),
            self.neighbors(v).suffix_above(floor),
        )
    }

    /// Collects the common neighbours of `u` and `v`.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.for_each_common_neighbor(u, v, |w, _, _| out.push(w));
        out
    }

    /// Visits every common neighbour `w` of `u` and `v` together with the
    /// connecting edge ids `(w, e_{u,w}, e_{v,w})` in one merge — the peeling
    /// loops use this to avoid two extra `edge_between` binary searches per
    /// triangle.
    pub fn for_each_common_neighbor<F: FnMut(VertexId, EdgeId, EdgeId)>(
        &self,
        u: VertexId,
        v: VertexId,
        mut f: F,
    ) {
        let ca = self.neighbors(u);
        let cb = self.neighbors(v);
        if let (Some(a), Some(b)) = (ca.as_slice(), cb.as_slice()) {
            // overlay-free fast path: the original two-slice merge
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                match a[i].0.cmp(&b[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        f(a[i].0, a[i].1, b[j].1);
                        i += 1;
                        j += 1;
                    }
                }
            }
            return;
        }
        let mut ai = ca.iter();
        let mut bi = cb.iter();
        let (mut x, mut y) = (ai.next(), bi.next());
        while let (Some((an, ae)), Some((bn, be))) = (x, y) {
            match an.cmp(&bn) {
                std::cmp::Ordering::Less => x = ai.next(),
                std::cmp::Ordering::Greater => y = bi.next(),
                std::cmp::Ordering::Equal => {
                    f(an, ae, be);
                    x = ai.next();
                    y = bi.next();
                }
            }
        }
    }
}

/// Counts matching neighbour ids in a merge over two sorted cursors,
/// dispatching to the raw two-slice merge when both rows are overlay-free.
fn merge_count_cursors(a: Neighbors<'_>, b: Neighbors<'_>) -> usize {
    match (a.as_slice(), b.as_slice()) {
        (Some(a), Some(b)) => merge_count(a, b),
        _ => {
            let mut ai = a.iter();
            let mut bi = b.iter();
            let (mut x, mut y) = (ai.next(), bi.next());
            let mut count = 0usize;
            while let (Some((an, _)), Some((bn, _))) = (x, y) {
                match an.cmp(&bn) {
                    std::cmp::Ordering::Less => x = ai.next(),
                    std::cmp::Ordering::Greater => y = bi.next(),
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        x = ai.next();
                        y = bi.next();
                    }
                }
            }
            count
        }
    }
}

/// Counts matching neighbour ids in a merge over two sorted CSR slices.
fn merge_count(a: &[(VertexId, EdgeId)], b: &[(VertexId, EdgeId)]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::keywords::KeywordSet;

    fn triangle() -> SocialNetwork {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(KeywordSet::from_ids([1]));
        let bb = b.add_vertex(KeywordSet::from_ids([1, 2]));
        let c = b.add_vertex(KeywordSet::from_ids([2]));
        b.add_edge(a, bb, 0.8, 0.7);
        b.add_edge(bb, c, 0.6, 0.5);
        b.add_edge(a, c, 0.9, 0.9);
        b.build().unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = SocialNetwork::new();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn freeze_builds_csr() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.average_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        assert!(g.contains_edge(VertexId(0), VertexId(1)));
        assert!(g.contains_edge(VertexId(1), VertexId(0)));
        assert!(!g.contains_edge(VertexId(0), VertexId(3)));
    }

    #[test]
    fn neighbor_slices_are_sorted_and_contiguous() {
        let g = triangle();
        // overlay-free rows are raw slices tiling the single CSR allocation
        let base = g.csr.as_ptr();
        let mut expected_offset = 0usize;
        for v in g.vertices() {
            let row = g
                .neighbors(v)
                .as_slice()
                .expect("overlay-free rows take the slice fast path");
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row sorted");
            assert_eq!(
                row.as_ptr() as usize - base as usize,
                expected_offset * std::mem::size_of::<(VertexId, EdgeId)>()
            );
            expected_offset += row.len();
        }
        assert_eq!(expected_offset, 2 * g.num_edges());
    }

    #[test]
    fn directed_weights_are_kept_per_direction() {
        let g = triangle();
        let (a, b) = (VertexId(0), VertexId(1));
        assert_eq!(g.activation_probability(a, b).unwrap(), 0.8);
        assert_eq!(g.activation_probability(b, a).unwrap(), 0.7);
        // edge added as (b, c) with p_bc = 0.6, p_cb = 0.5
        assert_eq!(
            g.activation_probability(VertexId(1), VertexId(2)).unwrap(),
            0.6
        );
        assert_eq!(
            g.activation_probability(VertexId(2), VertexId(1)).unwrap(),
            0.5
        );
    }

    #[test]
    fn outgoing_iterates_with_weights() {
        let g = triangle();
        let out: Vec<(VertexId, f64)> = g.outgoing(VertexId(0)).collect();
        assert_eq!(out, vec![(VertexId(1), 0.8), (VertexId(2), 0.9)]);
    }

    #[test]
    fn missing_edge_weight_lookup_errors() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_symmetric_edge(VertexId(0), VertexId(1), 0.5);
        let g = b.build().unwrap();
        assert!(matches!(
            g.activation_probability(VertexId(0), VertexId(3)),
            Err(GraphError::MissingEdge(..))
        ));
        assert_eq!(g.edge_between(VertexId(0), VertexId(9)), None);
    }

    #[test]
    fn common_neighbors_of_triangle_edge() {
        let g = triangle();
        assert_eq!(g.common_neighbor_count(VertexId(0), VertexId(1)), 1);
        assert_eq!(
            g.common_neighbors(VertexId(0), VertexId(1)),
            vec![VertexId(2)]
        );
        // only vertex 2 > 1 qualifies above floor 1; nothing above floor 2
        assert_eq!(
            g.common_neighbor_count_above(VertexId(0), VertexId(1), VertexId(1)),
            1
        );
        assert_eq!(
            g.common_neighbor_count_above(VertexId(0), VertexId(1), VertexId(2)),
            0
        );
    }

    #[test]
    fn for_each_common_neighbor_yields_both_edge_ids() {
        let g = triangle();
        let mut seen = Vec::new();
        g.for_each_common_neighbor(VertexId(0), VertexId(1), |w, e_uw, e_vw| {
            seen.push((w, e_uw, e_vw));
        });
        assert_eq!(seen.len(), 1);
        let (w, e_uw, e_vw) = seen[0];
        assert_eq!(w, VertexId(2));
        assert_eq!(g.edge_between(VertexId(0), VertexId(2)), Some(e_uw));
        assert_eq!(g.edge_between(VertexId(1), VertexId(2)), Some(e_vw));
    }

    #[test]
    fn keyword_sets_accessible_and_mutable() {
        let mut g = triangle();
        assert!(g.keyword_set(VertexId(0)).contains(crate::Keyword(1)));
        g.set_keyword_set(VertexId(0), KeywordSet::from_ids([7]));
        assert!(g.keyword_set(VertexId(0)).contains(crate::Keyword(7)));
    }

    #[test]
    fn set_edge_weights_validates() {
        let mut g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        g.set_edge_weights(e, 0.2, 0.3).unwrap();
        assert_eq!(
            g.activation_probability(VertexId(0), VertexId(1)).unwrap(),
            0.2
        );
        assert_eq!(
            g.activation_probability(VertexId(1), VertexId(0)).unwrap(),
            0.3
        );
        // the packed per-slot outgoing weights must be patched too
        assert!(g
            .outgoing(VertexId(0))
            .any(|(n, w)| n == VertexId(1) && w == 0.2));
        assert!(g
            .outgoing(VertexId(1))
            .any(|(n, w)| n == VertexId(0) && w == 0.3));
        assert!(g.set_edge_weights(e, -1.0, 0.5).is_err());
    }

    #[test]
    fn bulk_weight_update_patches_packed_slots() {
        let mut g = triangle();
        let updates: Vec<(EdgeId, f64, f64)> = g
            .edges()
            .map(|(e, _, _)| {
                (
                    e,
                    0.11 + 0.1 * e.index() as f64,
                    0.21 + 0.1 * e.index() as f64,
                )
            })
            .collect();
        g.set_edge_weights_bulk(&updates).unwrap();
        for &(e, wf, wb) in &updates {
            let (lo, hi) = g.edge_endpoints(e);
            assert_eq!(g.activation_probability(lo, hi).unwrap(), wf);
            assert_eq!(g.activation_probability(hi, lo).unwrap(), wb);
            assert!(g.outgoing(lo).any(|(n, w)| n == hi && w == wf));
            assert!(g.outgoing(hi).any(|(n, w)| n == lo && w == wb));
        }
        // an invalid entry anywhere rejects the whole batch before applying
        let before: Vec<f64> = g.outgoing(VertexId(0)).map(|(_, w)| w).collect();
        assert!(g
            .set_edge_weights_bulk(&[(EdgeId(0), 0.5, 0.5), (EdgeId(1), 1.5, 0.5)])
            .is_err());
        let after: Vec<f64> = g.outgoing(VertexId(0)).map(|(_, w)| w).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn packed_outgoing_weights_agree_with_edge_table() {
        let g = triangle();
        for v in g.vertices() {
            let packed: Vec<(VertexId, f64)> = g.outgoing(v).collect();
            let via_table: Vec<(VertexId, f64)> = g
                .neighbors(v)
                .iter()
                .map(|(n, e)| (n, g.directed_weight(e, v)))
                .collect();
            assert_eq!(packed, via_table, "vertex {v}");
        }
    }

    #[test]
    fn edge_iteration_is_canonical() {
        let g = triangle();
        for (e, u, v) in g.edges() {
            assert!(u < v);
            assert_eq!(g.edge_endpoints(e), (u, v));
        }
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn insert_edge_preserves_existing_edge_ids() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(VertexId(0), VertexId(1), 0.8, 0.7);
        b.add_symmetric_edge(VertexId(1), VertexId(2), 0.6);
        let g = b.build().unwrap();
        let mut g2 = g.clone();
        g2.apply_edge_inserted(VertexId(3), VertexId(0), 0.4, 0.3)
            .unwrap();
        assert_eq!(g2.num_edges(), 3);
        for (e, u, v) in g.edges() {
            assert_eq!(g2.edge_endpoints(e), (u, v));
            assert_eq!(g2.directed_weight(e, u), g.directed_weight(e, u));
        }
        // the new edge got the next id, canonicalised to (0, 3)
        assert_eq!(g2.edge_endpoints(EdgeId(2)), (VertexId(0), VertexId(3)));
        assert_eq!(
            g2.activation_probability(VertexId(3), VertexId(0)).unwrap(),
            0.4
        );
        assert_eq!(
            g2.activation_probability(VertexId(0), VertexId(3)).unwrap(),
            0.3
        );
        // invalid inserts are rejected
        assert!(matches!(
            g2.clone()
                .apply_edge_inserted(VertexId(0), VertexId(1), 0.5, 0.5),
            Err(GraphError::DuplicateEdge(..))
        ));
        assert!(matches!(
            g2.clone()
                .apply_edge_inserted(VertexId(0), VertexId(9), 0.5, 0.5),
            Err(GraphError::UnknownVertex(_))
        ));
    }

    #[test]
    fn remove_edge_tombstones_without_shifting_ids() {
        let g = triangle();
        let mut g2 = g.clone();
        let removed = g2.apply_edge_removed(VertexId(1), VertexId(0)).unwrap();
        assert_eq!(removed, EdgeId(0));
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.edge_id_space(), 3, "the tombstoned id is not reused");
        assert!(!g2.contains_edge(VertexId(0), VertexId(1)));
        // surviving edges keep their ids — no shift-down footgun
        assert_eq!(g2.edge_endpoints(EdgeId(1)), (VertexId(1), VertexId(2)));
        assert_eq!(g2.edge_endpoints(EdgeId(2)), (VertexId(0), VertexId(2)));
        assert_eq!(
            g2.edges().map(|(e, _, _)| e).collect::<Vec<_>>(),
            vec![EdgeId(1), EdgeId(2)]
        );
        assert!(matches!(
            g2.clone().apply_edge_removed(VertexId(0), VertexId(1)),
            Err(GraphError::MissingEdge(..))
        ));
        // a reinsert gets a fresh id, never the tombstoned one
        let mut g3 = g2.clone();
        let e = g3
            .apply_edge_inserted(VertexId(0), VertexId(1), 0.4, 0.3)
            .unwrap();
        assert_eq!(e, EdgeId(3));
        assert_eq!(g3.num_edges(), 3);
        assert_eq!(
            g3.activation_probability(VertexId(0), VertexId(1)).unwrap(),
            0.4
        );
    }

    #[test]
    fn overlay_rows_merge_and_degrade_to_slices() {
        let mut b = GraphBuilder::with_vertices(5);
        b.add_edge(VertexId(0), VertexId(1), 0.8, 0.7);
        b.add_edge(VertexId(0), VertexId(3), 0.6, 0.5);
        let mut g = b.build().unwrap();
        assert!(!g.has_overlay());
        g.apply_edge_inserted(VertexId(0), VertexId(2), 0.9, 0.85)
            .unwrap();
        assert!(g.has_overlay());
        // touched rows merge (base ∪ run, sorted); untouched rows stay slices
        assert!(g.neighbors(VertexId(0)).as_slice().is_none());
        assert!(g.neighbors(VertexId(1)).as_slice().is_some());
        assert_eq!(
            g.neighbors(VertexId(0))
                .iter()
                .map(|(n, _)| n)
                .collect::<Vec<_>>(),
            vec![VertexId(1), VertexId(2), VertexId(3)]
        );
        assert_eq!(g.degree(VertexId(0)), 3);
        assert_eq!(g.degree(VertexId(2)), 1);
        assert_eq!(g.max_degree(), 3);
        let out: Vec<(VertexId, f64)> = g.outgoing(VertexId(0)).collect();
        assert_eq!(
            out,
            vec![(VertexId(1), 0.8), (VertexId(2), 0.9), (VertexId(3), 0.6)]
        );
        assert_eq!(
            g.activation_probability(VertexId(2), VertexId(0)).unwrap(),
            0.85
        );
        // removing a base edge tombstones its CSR slots
        g.apply_edge_removed(VertexId(0), VertexId(3)).unwrap();
        assert_eq!(g.degree(VertexId(0)), 2);
        assert!(g.neighbors(VertexId(3)).is_empty());
        assert_eq!(
            g.neighbors(VertexId(0))
                .iter()
                .map(|(n, _)| n)
                .collect::<Vec<_>>(),
            vec![VertexId(1), VertexId(2)]
        );
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn compaction_renumbers_and_returns_the_remap() {
        let mut g = triangle();
        g.apply_edge_removed(VertexId(0), VertexId(1)).unwrap(); // id 0 dies
        let e_new = g
            .apply_edge_inserted(VertexId(0), VertexId(1), 0.4, 0.3)
            .unwrap(); // id 3
        assert!(g.overlay_fraction() > 0.5);
        let fingerprint_before: Vec<(VertexId, VertexId, f64, f64)> = g.edge_table_iter().collect();
        let remap = g.compact();
        assert!(!g.has_overlay());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_id_space(), 3);
        // live ids packed in old-id order: 1→0, 2→1, 3→2; dead id 0 gone
        assert_eq!(remap.new_id(EdgeId(0)), None);
        assert_eq!(remap.new_id(EdgeId(1)), Some(EdgeId(0)));
        assert_eq!(remap.new_id(EdgeId(2)), Some(EdgeId(1)));
        assert_eq!(remap.new_id(e_new), Some(EdgeId(2)));
        let after: Vec<(VertexId, VertexId, f64, f64)> = g.edge_table_iter().collect();
        assert_eq!(
            fingerprint_before, after,
            "compaction preserves the logical graph"
        );
        // compacting an overlay-free graph is the identity
        assert!(g.compact().is_identity());
        assert!(g
            .maybe_compact(crate::graph::DEFAULT_COMPACT_THRESHOLD)
            .is_none());
    }

    #[test]
    fn overlay_graph_matches_from_scratch_rebuild() {
        let mut b = GraphBuilder::with_vertices(6);
        b.add_edge(VertexId(0), VertexId(1), 0.8, 0.7);
        b.add_edge(VertexId(1), VertexId(2), 0.6, 0.5);
        b.add_edge(VertexId(2), VertexId(3), 0.9, 0.9);
        b.add_edge(VertexId(3), VertexId(4), 0.3, 0.4);
        b.add_edge(VertexId(0), VertexId(4), 0.2, 0.1);
        let mut g = b.build().unwrap();
        g.apply_edge_inserted(VertexId(1), VertexId(4), 0.45, 0.55)
            .unwrap();
        g.apply_edge_inserted(VertexId(0), VertexId(5), 0.35, 0.25)
            .unwrap();
        g.apply_edge_removed(VertexId(2), VertexId(3)).unwrap();
        // rebuild from scratch at the same logical state
        let rebuilt = {
            let mut c = g.clone();
            c.compact();
            c
        };
        assert_eq!(g.num_edges(), rebuilt.num_edges());
        for v in g.vertices() {
            assert_eq!(
                g.neighbors(v).iter().map(|(n, _)| n).collect::<Vec<_>>(),
                rebuilt
                    .neighbors(v)
                    .iter()
                    .map(|(n, _)| n)
                    .collect::<Vec<_>>(),
                "neighbour sequence of {v}"
            );
            let a: Vec<(VertexId, f64)> = g.outgoing(v).collect();
            let b: Vec<(VertexId, f64)> = rebuilt.outgoing(v).collect();
            assert_eq!(a, b, "outgoing weights of {v}");
            assert_eq!(g.degree(v), rebuilt.degree(v));
        }
        for u in g.vertices() {
            for v in g.vertices() {
                if u < v {
                    assert_eq!(
                        g.common_neighbor_count(u, v),
                        rebuilt.common_neighbor_count(u, v)
                    );
                    assert_eq!(
                        g.common_neighbor_count_above(u, v, VertexId(1)),
                        rebuilt.common_neighbor_count_above(u, v, VertexId(1))
                    );
                    assert_eq!(g.contains_edge(u, v), rebuilt.contains_edge(u, v));
                }
            }
        }
    }
}
