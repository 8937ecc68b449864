//! The hierarchical tree index `I` (Section V-B), stored flat.
//!
//! The index is built over the per-vertex pre-computed aggregates of
//! [`crate::precompute`]. Leaf nodes hold batches of vertices; non-leaf nodes
//! hold child entries, each annotated with aggregated bounds per radius:
//!
//! * an OR-folded keyword signature `N_i.BV_r`,
//! * the maximum support upper bound `N_i.ub_sup_r`,
//! * the maximum influential-score upper bound `N_i.σ_z` per pre-selected
//!   threshold.
//!
//! Construction follows the paper: vertices are sorted by the average of
//! their support and score bounds (so that similar vertices share subtrees
//! and the aggregated bounds stay tight), then recursively partitioned into
//! equally-sized children until batches fit into leaves.
//!
//! # Flat layout
//!
//! Before PR 4 the tree was a `Vec<IndexNode>` of enum nodes, each leaf and
//! internal owning its own `Vec`, with a parallel `Vec<NodeAggregate>` of
//! nested per-radius vectors — fine for building, hostile to traversal cache
//! locality and impossible to serialise flat. The frozen index now keeps:
//!
//! * one shared `u32` **item pool**: the items of node `i` live in
//!   `item_pool[item_start[i] .. item_start[i+1]]` and are leaf vertices or
//!   child node ids depending on the node's bit in `leaf_mask`,
//! * one [`AggregateTable`] keyed `(node, r, θ_index)` for all node bounds.
//!
//! Traversal borrows node views through [`NodeRef`] / [`AggregateRef`]; the
//! binary snapshot writer (`crate::snapshot`) dumps the arrays verbatim.

use crate::aggregate::{AggregateRef, AggregateTable, TableShadow};
use crate::precompute::{PrecomputeConfig, PrecomputeShadow, PrecomputedData, RadiusAggregate};
use icde_graph::snapshot::{fnv1a, fnv1a_extend, FlatVec};
use icde_graph::{vertex_ids_from_raw, SocialNetwork, VertexId};

/// Default number of children per non-leaf node (the fan-out `γ`).
pub const DEFAULT_FANOUT: usize = 8;
/// Default number of vertices per leaf node.
pub const DEFAULT_LEAF_CAPACITY: usize = 16;

/// Aggregated bounds of one index node while the tree is being built, one
/// entry per radius `r ∈ [1, r_max]`. The frozen index flattens these into
/// its [`AggregateTable`]; this owned form only lives inside the builder.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAggregate {
    /// `per_radius[r - 1]` — aggregate for radius `r`.
    pub per_radius: Vec<RadiusAggregate>,
}

impl NodeAggregate {
    fn empty(config: &PrecomputeConfig) -> Self {
        NodeAggregate {
            per_radius: (0..config.r_max)
                .map(|_| RadiusAggregate::empty(config.signature_bits, config.thresholds.len()))
                .collect(),
        }
    }

    fn merge_vertex(&mut self, data: &PrecomputedData, v: VertexId) {
        for (r, agg) in self.per_radius.iter_mut().enumerate() {
            agg.merge_max_ref(data.aggregate(v, (r + 1) as u32));
        }
    }

    fn merge_node(&mut self, other: &NodeAggregate) {
        for (mine, theirs) in self.per_radius.iter_mut().zip(&other.per_radius) {
            mine.merge_max(theirs);
        }
    }
}

/// Maintainer-side scratch for [`CommunityIndex::patch_vertices`]: the
/// vertex→leaf and child→parent maps plus the dirty-propagation workspace.
///
/// Both maps are fully derivable from the frozen tree arrays in O(n), so they
/// are **never serialised** — a maintainer derives them once per tree shape
/// ([`CommunityIndex::derive_placement`]) and re-derives after a repack
/// changes vertex→leaf placement. The dirty bitset and level queues are
/// allocated once and reused across batches, so a steady-state patch performs
/// no O(n) work.
#[derive(Debug, Clone)]
pub struct IndexPlacement {
    /// `vertex_leaf[v]` — id of the leaf holding vertex `v`.
    vertex_leaf: Vec<u32>,
    /// `parent[i]` — parent node id of node `i` (`u32::MAX` for the root).
    parent: Vec<u32>,
    /// Dirty-node bitset over node ids; always all-zero between patches.
    dirty: Vec<u64>,
    level: Vec<u32>,
    next: Vec<u32>,
}

impl IndexPlacement {
    /// The leaf node currently holding vertex `v`.
    #[inline]
    pub fn leaf_of(&self, v: VertexId) -> usize {
        self.vertex_leaf[v.index()] as usize
    }

    /// Returns `true` if this placement was derived from a tree with the
    /// given vertex and node counts (the cheap staleness check).
    pub fn matches(&self, index: &CommunityIndex) -> bool {
        self.vertex_leaf.len() == index.num_graph_vertices()
            && self.parent.len() == index.node_count()
    }
}

/// Borrowed view of one index node: a batch of candidate centres (leaf) or a
/// batch of child node ids (internal), both slices of the shared item pool.
#[derive(Debug, Clone, Copy)]
pub enum NodeRef<'a> {
    /// Leaf node holding a batch of vertices (candidate centres).
    Leaf {
        /// Vertices stored in this leaf.
        vertices: &'a [VertexId],
    },
    /// Internal node holding child node ids.
    Internal {
        /// Ids of the children (indexes into the same node space).
        children: &'a [u32],
    },
}

/// The tree index `I` over one social network (flat storage, see the module
/// docs).
#[derive(Debug, Clone)]
pub struct CommunityIndex {
    /// The pre-computed data the index aggregates.
    pub precomputed: PrecomputedData,
    /// `item_start[i] .. item_start[i+1]` bounds node `i`'s items in the
    /// pool. Length `node_count + 1`. [`FlatVec`]-backed so snapshot loads
    /// serve the tree straight off the mapped file.
    item_start: FlatVec<u32>,
    /// Shared item pool: leaf vertices or child node ids (see `leaf_mask`).
    item_pool: FlatVec<u32>,
    /// Bit `i` set ⇔ node `i` is a leaf. `⌈node_count/64⌉` words.
    leaf_mask: FlatVec<u64>,
    /// Aggregated bounds keyed `(node, r, θ_index)`.
    node_aggregates: AggregateTable,
    root: usize,
    num_graph_vertices: usize,
    fanout: usize,
    leaf_capacity: usize,
}

impl CommunityIndex {
    /// Id of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Total number of index nodes.
    pub fn node_count(&self) -> usize {
        self.item_start.len() - 1
    }

    /// Number of graph vertices the index covers.
    pub fn num_graph_vertices(&self) -> usize {
        self.num_graph_vertices
    }

    /// Maximum radius supported by the underlying pre-computation.
    pub fn r_max(&self) -> u32 {
        self.precomputed.config.r_max
    }

    /// Signature width used by the underlying pre-computation.
    pub fn signature_bits(&self) -> usize {
        self.precomputed.config.signature_bits
    }

    /// The fan-out the index was built with.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The leaf capacity the index was built with.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Returns `true` if node `id` is a leaf.
    #[inline]
    pub fn is_leaf(&self, id: usize) -> bool {
        (self.leaf_mask[id / 64] >> (id % 64)) & 1 == 1
    }

    /// The node with the given id, as a borrowed view of the item pool.
    #[inline]
    pub fn node(&self, id: usize) -> NodeRef<'_> {
        let items = &self.item_pool[self.item_start[id] as usize..self.item_start[id + 1] as usize];
        if self.is_leaf(id) {
            NodeRef::Leaf {
                vertices: vertex_ids_from_raw(items),
            }
        } else {
            NodeRef::Internal { children: items }
        }
    }

    /// The aggregated bounds of node `id` for radius `r` (a borrowed row of
    /// the flat node table).
    ///
    /// # Panics
    /// Panics if `r` is 0 or exceeds `r_max`, or `id` is out of range.
    #[inline]
    pub fn aggregate(&self, id: usize, r: u32) -> AggregateRef<'_> {
        self.node_aggregates.row(id, r)
    }

    /// The flattened node-aggregate table (the snapshot writer's view).
    pub fn node_aggregates(&self) -> &AggregateTable {
        &self.node_aggregates
    }

    /// The flat tree arrays `(item_start, item_pool, leaf_mask)` — the
    /// snapshot writer's view of the topology.
    pub fn tree_parts(&self) -> (&[u32], &[u32], &[u64]) {
        (&self.item_start, &self.item_pool, &self.leaf_mask)
    }

    /// Influential-score upper bound of a node for radius `r` and online
    /// threshold `theta` (`+∞` when no pre-selected threshold applies).
    pub fn node_score_bound(&self, id: usize, r: u32, theta: f64) -> f64 {
        match self.precomputed.config.threshold_index(theta) {
            Some(z) => self.node_aggregates.score(id, r, z),
            None => f64::INFINITY,
        }
    }

    /// Height of the tree (a single leaf-root has height 1).
    ///
    /// Children always carry smaller ids than their parent (the builder
    /// freezes levels bottom-up and [`CommunityIndex::validate`] enforces
    /// it), so one ascending pass computes every depth iteratively — no
    /// recursion, no cycle hazard.
    pub fn height(&self) -> usize {
        let nodes = self.node_count();
        let mut depth = vec![1usize; nodes];
        for id in 0..nodes {
            if let NodeRef::Internal { children } = self.node(id) {
                depth[id] = 1 + children
                    .iter()
                    .map(|c| depth[*c as usize])
                    .max()
                    .unwrap_or(0);
            }
        }
        depth[self.root]
    }

    /// Iterates over every leaf vertex (in index order) — used by tests to
    /// check the index covers the whole graph.
    pub fn all_leaf_vertices(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.num_graph_vertices);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match self.node(id) {
                NodeRef::Leaf { vertices } => out.extend(vertices.iter().copied()),
                NodeRef::Internal { children } => {
                    stack.extend(children.iter().map(|c| *c as usize))
                }
            }
        }
        out
    }

    /// Derives the [`IndexPlacement`] maps from the frozen tree arrays in
    /// one O(n + node_count) pass. Call once per tree shape (after build or
    /// repack); [`CommunityIndex::patch_vertices`] keeps the placement valid
    /// because it never moves items between nodes.
    pub fn derive_placement(&self) -> IndexPlacement {
        let nodes = self.node_count();
        let mut vertex_leaf = vec![u32::MAX; self.num_graph_vertices];
        let mut parent = vec![u32::MAX; nodes];
        for id in 0..nodes {
            match self.node(id) {
                NodeRef::Leaf { vertices } => {
                    for &v in vertices {
                        vertex_leaf[v.index()] = id as u32;
                    }
                }
                NodeRef::Internal { children } => {
                    for &c in children {
                        parent[c as usize] = id as u32;
                    }
                }
            }
        }
        IndexPlacement {
            vertex_leaf,
            parent,
            dirty: vec![0u64; nodes.div_ceil(64)],
            level: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Re-merges the aggregated bounds of exactly the leaves holding
    /// `vertices` and their ancestor paths to the root, leaving the tree
    /// shape (and therefore `placement`) untouched. Ids of every recomputed
    /// node are appended to `patched_nodes` (for publish dirty tracking).
    ///
    /// Cost is O(|dirty leaves| · leaf_capacity + |dirty ancestors| · fanout)
    /// row merges — proportional to the update footprint, not to `n`. The
    /// patched bounds are *identical* to what a full re-merge of the same
    /// tree would produce (max/OR folds are order-independent), so answers
    /// match a from-scratch rebuild wherever answers are shape-independent.
    ///
    /// # Panics
    /// Panics if `placement` was derived from a different tree shape.
    pub fn patch_vertices(
        &mut self,
        vertices: &[VertexId],
        placement: &mut IndexPlacement,
        patched_nodes: &mut Vec<u32>,
    ) {
        assert!(
            placement.matches(self),
            "index placement is stale: derive_placement after build/repack"
        );
        let before = patched_nodes.len();
        placement.level.clear();
        for &v in vertices {
            let leaf = placement.vertex_leaf[v.index()];
            let (w, b) = (leaf as usize / 64, leaf as usize % 64);
            if placement.dirty[w] >> b & 1 == 0 {
                placement.dirty[w] |= 1 << b;
                placement.level.push(leaf);
            }
        }
        let r_max = self.precomputed.config.r_max as usize;
        while !placement.level.is_empty() {
            placement.next.clear();
            for &id in &placement.level {
                let id = id as usize;
                let start = self.item_start[id] as usize;
                let end = self.item_start[id + 1] as usize;
                let mut agg = NodeAggregate::empty(&self.precomputed.config);
                if self.is_leaf(id) {
                    for &v in vertex_ids_from_raw(&self.item_pool[start..end]) {
                        agg.merge_vertex(&self.precomputed, v);
                    }
                } else {
                    for i in start..end {
                        let child = self.item_pool[i] as usize;
                        for r0 in 0..r_max {
                            agg.per_radius[r0]
                                .merge_max_ref(self.node_aggregates.row(child, (r0 + 1) as u32));
                        }
                    }
                }
                self.node_aggregates.set_entity(id, &agg.per_radius);
                patched_nodes.push(id as u32);
                let p = placement.parent[id];
                if p != u32::MAX {
                    let (w, b) = (p as usize / 64, p as usize % 64);
                    if placement.dirty[w] >> b & 1 == 0 {
                        placement.dirty[w] |= 1 << b;
                        placement.next.push(p);
                    }
                }
            }
            std::mem::swap(&mut placement.level, &mut placement.next);
        }
        // restore the all-zero invariant without an O(nodes) sweep
        for &id in &patched_nodes[before..] {
            placement.dirty[id as usize / 64] &= !(1u64 << (id as usize % 64));
        }
    }

    /// Converts the owned tree arrays to `Arc`-shared storage in place (the
    /// streaming maintainer never mutates them between repacks, so snapshot
    /// publishes can share them for free).
    pub fn share_tree_sections(&mut self) {
        self.item_start.share();
        self.item_pool.share();
        self.leaf_mask.share();
    }

    /// An FNV-1a fingerprint of the complete index content (configuration,
    /// per-vertex table, edge supports, tree arrays, node table). Equal
    /// fingerprints mean byte-identical flat arrays — the bit-identity check
    /// used by snapshot round-trip tests.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = fnv1a(b"icde-index-content-v1");
        let word = |h: u64, v: u64| fnv1a_extend(h, &v.to_le_bytes());
        let config = &self.precomputed.config;
        h = word(h, u64::from(config.r_max));
        h = word(h, config.signature_bits as u64);
        for t in &config.thresholds {
            h = word(h, t.to_bits());
        }
        let hash_table = |mut h: u64, table: &AggregateTable| {
            h = word(h, table.entities() as u64);
            for &w in table.raw_signatures() {
                h = word(h, w);
            }
            for &s in table.raw_supports() {
                h = word(h, u64::from(s));
            }
            for &s in table.raw_scores() {
                h = word(h, s.to_bits());
            }
            for &s in table.raw_region_sizes() {
                h = word(h, u64::from(s));
            }
            h
        };
        h = hash_table(h, self.precomputed.table());
        for &s in self.precomputed.edge_supports.iter() {
            h = word(h, u64::from(s));
        }
        for &b in self.precomputed.seed_bounds() {
            h = word(h, b.to_bits());
        }
        for &v in self.item_start.iter() {
            h = word(h, u64::from(v));
        }
        for &v in self.item_pool.iter() {
            h = word(h, u64::from(v));
        }
        for &v in self.leaf_mask.iter() {
            h = word(h, v);
        }
        h = hash_table(h, &self.node_aggregates);
        h = word(h, self.root as u64);
        h = word(h, self.num_graph_vertices as u64);
        h = word(h, self.fanout as u64);
        h = word(h, self.leaf_capacity as u64);
        h
    }

    /// Reassembles a frozen index from flat parts (the binary snapshot
    /// loader), validating every structural invariant the traversal relies
    /// on so no accessor can go out of bounds afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_flat_parts(
        precomputed: PrecomputedData,
        item_start: impl Into<FlatVec<u32>>,
        item_pool: impl Into<FlatVec<u32>>,
        leaf_mask: impl Into<FlatVec<u64>>,
        node_aggregates: AggregateTable,
        root: usize,
        num_graph_vertices: usize,
        fanout: usize,
        leaf_capacity: usize,
    ) -> Result<Self, String> {
        let index = CommunityIndex {
            precomputed,
            item_start: item_start.into(),
            item_pool: item_pool.into(),
            leaf_mask: leaf_mask.into(),
            node_aggregates,
            root,
            num_graph_vertices,
            fanout,
            leaf_capacity,
        };
        index.validate()?;
        Ok(index)
    }

    /// Checks every structural invariant traversal relies on, without
    /// assuming anything about where the data came from. The binary
    /// snapshot loader runs this (through [`Self::from_flat_parts`]) before
    /// an index is handed to callers, so no accessor can go out of bounds,
    /// loop, or panic on a malformed file afterwards.
    fn validate(&self) -> Result<(), String> {
        // a loaded file can hold arbitrary section combinations; check the
        // aggregate tables' internal consistency first so the per-node walk
        // below cannot index past their arrays
        let config = &self.precomputed.config;
        self.precomputed.validate()?;
        self.node_aggregates.validate()?;
        if self.node_aggregates.r_max() != config.r_max
            || self.node_aggregates.signature_bits() != config.signature_bits
            || self.node_aggregates.num_thresholds() != config.thresholds.len()
        {
            return Err("node aggregate table disagrees with the configuration".to_string());
        }
        if self.item_start.is_empty() {
            return Err("item_start must hold at least one entry".to_string());
        }
        let nodes = self.item_start.len() - 1;
        if nodes == 0 {
            return Err("index must hold at least one node".to_string());
        }
        if self.item_start[0] != 0
            || self.item_start[nodes] as usize != self.item_pool.len()
            || self.item_start.windows(2).any(|w| w[0] > w[1])
        {
            return Err("item_start does not partition the item pool".to_string());
        }
        if self.leaf_mask.len() != nodes.div_ceil(64) {
            return Err("leaf mask length disagrees with the node count".to_string());
        }
        if self.node_aggregates.entities() != nodes {
            return Err("node aggregate table disagrees with the node count".to_string());
        }
        if self.root >= nodes {
            return Err("root node id out of range".to_string());
        }
        if self.num_graph_vertices != self.precomputed.num_vertices() {
            return Err("index vertex count disagrees with the pre-computed data".to_string());
        }
        for id in 0..nodes {
            match self.node(id) {
                NodeRef::Leaf { vertices } => {
                    if vertices
                        .iter()
                        .any(|v| v.index() >= self.num_graph_vertices)
                    {
                        return Err(format!("leaf {id} references an out-of-range vertex"));
                    }
                }
                NodeRef::Internal { children } => {
                    if children.is_empty() {
                        return Err(format!("internal node {id} has no children"));
                    }
                    // the builder freezes levels bottom-up, so children
                    // always have smaller ids; enforcing that here also
                    // proves acyclicity (a crafted cycle would otherwise
                    // make height()/all_leaf_vertices() diverge)
                    if children.iter().any(|c| *c as usize >= id) {
                        return Err(format!(
                            "node {id} references a child with a non-smaller id"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Publish shadow over a whole [`CommunityIndex`]: the per-vertex data
/// shadow plus one for the node-aggregate table. The tree arrays are never
/// mutated between repacks, so publishing clones them directly (an `Arc`
/// bump once [`CommunityIndex::share_tree_sections`] has run). The published
/// index is replayed row-for-row from an already-validated working index, so
/// no O(n) re-validation runs per publish.
#[derive(Debug)]
pub(crate) struct IndexShadow {
    data: PrecomputeShadow,
    nodes: TableShadow,
}

impl IndexShadow {
    pub(crate) fn new(index: &CommunityIndex) -> Self {
        IndexShadow {
            data: PrecomputeShadow::new(&index.precomputed),
            nodes: TableShadow::new(&index.node_aggregates),
        }
    }

    /// Marks vertices whose per-vertex rows (table + seed bounds) changed.
    pub(crate) fn mark_vertices(&mut self, vertices: &[u32]) {
        self.data.mark_vertices(vertices);
    }

    /// Marks edge ids whose support slots changed.
    pub(crate) fn mark_edges(&mut self, edges: &[u32]) {
        self.data.mark_edges(edges);
    }

    /// Invalidates the support shadow after an edge-id renumbering.
    pub(crate) fn mark_all_edges(&mut self) {
        self.data.mark_all_edges();
    }

    /// Marks index nodes whose aggregate rows were patched.
    pub(crate) fn mark_nodes(&mut self, nodes: &[u32]) {
        self.nodes.mark_entities(nodes);
    }

    /// Invalidates everything (a repack rebuilt the tree wholesale).
    pub(crate) fn mark_all(&mut self) {
        self.data.mark_all();
        self.nodes.mark_all();
    }

    /// Syncs both double-buffer slots with `index` so the first publishes
    /// after construction replay dirty rows instead of full-copying — the
    /// one-time O(n) sync runs at maintainer construction, not on the
    /// steady-state batch path.
    pub(crate) fn prime(&mut self, index: &CommunityIndex) {
        self.data.prime(&index.precomputed);
        self.nodes.prime(&index.node_aggregates);
    }

    /// Builds a structurally-shared snapshot copy of `index`: untouched rows
    /// alias the shadow buffers, dirty rows are replayed, tree arrays are
    /// shared.
    pub(crate) fn publish(&mut self, index: &CommunityIndex) -> CommunityIndex {
        CommunityIndex {
            precomputed: self.data.publish(&index.precomputed),
            item_start: index.item_start.clone(),
            item_pool: index.item_pool.clone(),
            leaf_mask: index.leaf_mask.clone(),
            node_aggregates: self.nodes.publish(&index.node_aggregates),
            root: index.root,
            num_graph_vertices: index.num_graph_vertices,
            fanout: index.fanout,
            leaf_capacity: index.leaf_capacity,
        }
    }
}

/// Builder for [`CommunityIndex`].
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    config: PrecomputeConfig,
    fanout: usize,
    leaf_capacity: usize,
}

impl IndexBuilder {
    /// Creates a builder with the given offline configuration and default
    /// fan-out / leaf capacity.
    pub fn new(config: PrecomputeConfig) -> Self {
        IndexBuilder {
            config,
            fanout: DEFAULT_FANOUT,
            leaf_capacity: DEFAULT_LEAF_CAPACITY,
        }
    }

    /// Overrides the fan-out `γ` of non-leaf nodes.
    ///
    /// # Panics
    /// Panics if `fanout < 2`.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        self.fanout = fanout;
        self
    }

    /// Overrides the number of vertices per leaf.
    ///
    /// # Panics
    /// Panics if `leaf_capacity` is zero.
    pub fn with_leaf_capacity(mut self, leaf_capacity: usize) -> Self {
        assert!(leaf_capacity >= 1, "leaf capacity must be at least 1");
        self.leaf_capacity = leaf_capacity;
        self
    }

    /// Runs the offline pre-computation for `g` and builds the index over it.
    pub fn build(&self, g: &SocialNetwork) -> CommunityIndex {
        let data = PrecomputedData::compute(g, self.config.clone());
        self.build_from_precomputed(g, data)
    }

    /// Builds the index over already pre-computed data (useful when the same
    /// data backs several index configurations, e.g. the fan-out ablation).
    pub fn build_from_precomputed(
        &self,
        g: &SocialNetwork,
        data: PrecomputedData,
    ) -> CommunityIndex {
        let n = g.num_vertices();
        // Sort vertices by the average of their support bound and largest
        // score bound at r_max, so vertices with similar bounds share leaves
        // and aggregated bounds stay discriminative (Section V-B).
        let mut order: Vec<VertexId> = g.vertices().collect();
        if data.config.r_max >= 1 && !data.config.thresholds.is_empty() {
            let key = |v: &VertexId| {
                let agg = data.aggregate(*v, data.config.r_max);
                let score = agg.score_upper_bounds.first().copied().unwrap_or(0.0);
                agg.support_upper_bound as f64 / 2.0 + score / 2.0
            };
            order.sort_by(|a, b| {
                key(b)
                    .partial_cmp(&key(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        // Grow the flat arrays node by node: each new node appends its items
        // (leaf vertices or child ids) to the shared pool.
        let mut item_start: Vec<u32> = vec![0];
        let mut item_pool: Vec<u32> = Vec::new();
        let mut is_leaf: Vec<bool> = Vec::new();
        let mut aggregates: Vec<NodeAggregate> = Vec::new();
        let mut push_node = |items: &[u32], leaf: bool| -> usize {
            item_pool.extend_from_slice(items);
            item_start.push(item_pool.len() as u32);
            is_leaf.push(leaf);
            is_leaf.len() - 1
        };

        // Leaf level.
        let mut level: Vec<usize> = Vec::new();
        if n == 0 {
            aggregates.push(NodeAggregate::empty(&data.config));
            level.push(push_node(&[], true));
        } else {
            for chunk in order.chunks(self.leaf_capacity) {
                let mut agg = NodeAggregate::empty(&data.config);
                for &v in chunk {
                    agg.merge_vertex(&data, v);
                }
                let items: Vec<u32> = chunk.iter().map(|v| v.0).collect();
                aggregates.push(agg);
                level.push(push_node(&items, true));
            }
        }

        // Internal levels until a single root remains.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(self.fanout) {
                let mut agg = NodeAggregate::empty(&data.config);
                for &child in group {
                    agg.merge_node(&aggregates[child]);
                }
                let items: Vec<u32> = group.iter().map(|c| *c as u32).collect();
                aggregates.push(agg);
                next_level.push(push_node(&items, false));
            }
            level = next_level;
        }
        let root = level[0];

        // Flatten the per-node accumulators into the SoA table.
        let nodes = is_leaf.len();
        let mut node_aggregates = AggregateTable::new(
            nodes,
            data.config.r_max,
            data.config.signature_bits,
            data.config.thresholds.len(),
        );
        for (i, agg) in aggregates.iter().enumerate() {
            node_aggregates.set_entity(i, &agg.per_radius);
        }
        let mut leaf_mask = vec![0u64; nodes.div_ceil(64)];
        for (i, leaf) in is_leaf.iter().enumerate() {
            if *leaf {
                leaf_mask[i / 64] |= 1u64 << (i % 64);
            }
        }

        CommunityIndex {
            precomputed: data,
            item_start: item_start.into(),
            item_pool: item_pool.into(),
            leaf_mask: leaf_mask.into(),
            node_aggregates,
            root,
            num_graph_vertices: n,
            fanout: self.fanout,
            leaf_capacity: self.leaf_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::BitVector;
    use icde_graph::KeywordSet;

    fn graph() -> SocialNetwork {
        DatasetSpec::new(DatasetKind::Uniform, 200, 11)
            .with_keyword_domain(20)
            .generate()
    }

    fn build(g: &SocialNetwork) -> CommunityIndex {
        IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_fanout(4)
        .with_leaf_capacity(8)
        .build(g)
    }

    #[test]
    fn index_covers_every_vertex_exactly_once() {
        let g = graph();
        let index = build(&g);
        let mut leaves = index.all_leaf_vertices();
        leaves.sort_unstable();
        let expected: Vec<VertexId> = g.vertices().collect();
        assert_eq!(leaves, expected);
        assert_eq!(index.num_graph_vertices(), g.num_vertices());
    }

    #[test]
    fn tree_shape_respects_fanout_and_capacity() {
        let g = graph();
        let index = build(&g);
        assert!(index.height() >= 2);
        for id in 0..index.node_count() {
            match index.node(id) {
                NodeRef::Leaf { vertices } => assert!(vertices.len() <= 8),
                NodeRef::Internal { children } => {
                    assert!(children.len() <= 4);
                    assert!(!children.is_empty());
                }
            }
        }
    }

    #[test]
    fn aggregates_dominate_children() {
        let g = graph();
        let index = build(&g);
        for id in 0..index.node_count() {
            if let NodeRef::Internal { children } = index.node(id) {
                for &child in children {
                    for r in 1..=index.r_max() {
                        let parent = index.aggregate(id, r);
                        let child_agg = index.aggregate(child as usize, r);
                        assert!(parent.support_upper_bound >= child_agg.support_upper_bound);
                        for z in 0..parent.score_upper_bounds.len() {
                            assert!(
                                parent.score_upper_bounds[z] >= child_agg.score_upper_bounds[z]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_aggregates_dominate_member_vertices() {
        let g = graph();
        let index = build(&g);
        for id in 0..index.node_count() {
            if let NodeRef::Leaf { vertices } = index.node(id) {
                for &v in vertices {
                    for r in 1..=index.r_max() {
                        let node_agg = index.aggregate(id, r);
                        let vert_agg = index.precomputed.aggregate(v, r);
                        assert!(node_agg.support_upper_bound >= vert_agg.support_upper_bound);
                        for z in 0..node_agg.score_upper_bounds.len() {
                            assert!(
                                node_agg.score_upper_bounds[z] >= vert_agg.score_upper_bounds[z]
                            );
                        }
                        // every keyword visible at the vertex is visible at the node
                        for u in [v] {
                            for kw in g.keyword_set(u).iter() {
                                if vert_agg.keyword_signature.maybe_contains(kw) {
                                    assert!(node_agg.keyword_signature.maybe_contains(kw));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn score_bound_uses_threshold_brackets() {
        let g = graph();
        let index = build(&g);
        let root = index.root();
        let low = index.node_score_bound(root, 2, 0.1);
        let high = index.node_score_bound(root, 2, 0.3);
        assert!(low >= high, "lower thresholds give larger bounds");
        assert!(index.node_score_bound(root, 2, 0.01).is_infinite());
    }

    #[test]
    fn empty_graph_builds_a_single_leaf() {
        let g = SocialNetwork::new();
        let index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .build(&g);
        assert_eq!(index.node_count(), 1);
        assert_eq!(index.height(), 1);
        assert!(index.all_leaf_vertices().is_empty());
        assert!(index.is_leaf(index.root()));
    }

    #[test]
    fn builder_validation() {
        let b = IndexBuilder::new(PrecomputeConfig::default())
            .with_fanout(2)
            .with_leaf_capacity(1);
        assert_eq!(b.fanout, 2);
        assert_eq!(b.leaf_capacity, 1);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn tiny_fanout_panics() {
        let _ = IndexBuilder::new(PrecomputeConfig::default()).with_fanout(1);
    }

    #[test]
    fn single_vertex_graph_index() {
        let mut b = icde_graph::GraphBuilder::new();
        b.add_vertex(KeywordSet::from_ids([1]));
        let g = b.build().unwrap();
        let index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .build(&g);
        assert_eq!(index.all_leaf_vertices().len(), 1);
        let agg = index.aggregate(index.root(), 1);
        let q = BitVector::from_keywords(&KeywordSet::from_ids([1]), index.signature_bits());
        assert!(agg.keyword_signature.intersects(&q));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let g = graph();
        let a = build(&g);
        let b = build(&g);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        let other = DatasetSpec::new(DatasetKind::Uniform, 200, 12)
            .with_keyword_domain(20)
            .generate();
        let c = build(&other);
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());
    }

    #[test]
    fn flat_parts_reassemble_and_reject_corruption() {
        let g = graph();
        let index = build(&g);
        let (item_start, item_pool, leaf_mask) = index.tree_parts();
        let rebuilt = CommunityIndex::from_flat_parts(
            index.precomputed.clone(),
            item_start.to_vec(),
            item_pool.to_vec(),
            leaf_mask.to_vec(),
            index.node_aggregates().clone(),
            index.root(),
            index.num_graph_vertices(),
            index.fanout(),
            index.leaf_capacity(),
        )
        .unwrap();
        assert_eq!(rebuilt.content_fingerprint(), index.content_fingerprint());
        // out-of-range root
        assert!(CommunityIndex::from_flat_parts(
            index.precomputed.clone(),
            item_start.to_vec(),
            item_pool.to_vec(),
            leaf_mask.to_vec(),
            index.node_aggregates().clone(),
            index.node_count() + 7,
            index.num_graph_vertices(),
            index.fanout(),
            index.leaf_capacity(),
        )
        .is_err());
        // corrupt pool partition
        let mut bad_start = item_start.to_vec();
        bad_start[1] = u32::MAX;
        assert!(CommunityIndex::from_flat_parts(
            index.precomputed.clone(),
            bad_start,
            item_pool.to_vec(),
            leaf_mask.to_vec(),
            index.node_aggregates().clone(),
            index.root(),
            index.num_graph_vertices(),
            index.fanout(),
            index.leaf_capacity(),
        )
        .is_err());
        // a cyclic "tree": with the leaf mask cleared, node 0 becomes
        // internal and its vertex ids read as child ids ≥ its own id
        assert!(CommunityIndex::from_flat_parts(
            index.precomputed.clone(),
            item_start.to_vec(),
            item_pool.to_vec(),
            vec![0u64; leaf_mask.len()],
            index.node_aggregates().clone(),
            index.root(),
            index.num_graph_vertices(),
            index.fanout(),
            index.leaf_capacity(),
        )
        .is_err());
    }
}
