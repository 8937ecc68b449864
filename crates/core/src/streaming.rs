//! D-TopL streaming maintenance: edge-update batches applied against a live
//! graph + index pair and republished through the serving runtime.
//!
//! The offline pipeline treats the social network as frozen; this module is
//! the *online update* half of the D-TopL loop. A [`StreamingMaintainer`]
//! owns the working graph + index pair and, per update batch:
//!
//! 1. applies each edge insert/remove as an **O(degree · log degree) delta
//!    overlay patch** ([`SocialNetwork::apply_edge_inserted`] /
//!    [`SocialNetwork::apply_edge_removed`]) — no CSR rebuild,
//! 2. patches the edge-indexed truss supports incrementally (only the
//!    triangles the edge opens or closes change), logging every touched
//!    support slot,
//! 3. recomputes the per-vertex aggregates of the **affected balls only**
//!    (`hop(u, r_max + slack) ∪ hop(v, r_max + slack)` per update) — fanned
//!    out over a pool of warm [`MaintenanceArena`]s via
//!    `PrecomputedData::recompute_vertices` once the deduplicated ball
//!    grows past [`PARALLEL_BATCH_MIN`],
//! 4. compacts the overlay back into a fresh CSR once it exceeds the
//!    configured fraction of the base edge count, applying the returned
//!    edge-id remap to the supports, and
//! 5. **patches** the index tree in place ([`CommunityIndex::patch_vertices`]):
//!    only the leaves holding recomputed vertices and their ancestor paths
//!    are re-merged, so the index refresh costs
//!    O(|ball| · leaf_capacity · depth) instead of the O(n log n) sort +
//!    full re-merge of a rebuild.
//!
//! # Patch vs. repack
//!
//! Patching keeps every vertex in the leaf the last full build placed it in.
//! The bounds stay *exact* — a leaf's re-merged aggregate is identical to
//! what a from-scratch re-merge of the same tree produces — but the tree's
//! *pruning quality* decays as updates drift vertices away from the
//! support/score order the builder packed them by. The maintainer therefore
//! counts recomputed vertices since the last full build and, once they
//! exceed [`DEFAULT_REPACK_THRESHOLD`] (configurable via
//! [`StreamingMaintainer::with_repack_threshold`]) as a fraction of `n`,
//! performs a **repack**: a full re-sorted rebuild that restores the packing
//! invariant and resets the drift counter.
//!
//! # Footprint-proportional publishing
//!
//! [`StreamingMaintainer::publish_to`] does not deep-copy the pair. The
//! graph's base CSR sections and the index's tree arrays are `Arc`-shared
//! (O(1) clone); the mutable flat tables are published through double-
//! buffered shadows that replay only the rows dirtied since the previous
//! publish. The snapshot is tagged with an incrementally-evolved state tag
//! instead of re-hashing the whole index, and a publish with nothing to
//! say (no applied updates, no compaction) is skipped entirely.
//!
//! [`StreamingMaintainer::spawn`] moves the maintainer onto a dedicated
//! maintenance thread that drains batches from a channel and hot-swaps each
//! refreshed snapshot into a [`ServingRuntime`], so queries keep draining on
//! the previous snapshot while the next one is prepared. The refreshed index
//! is *exact*: observationally identical to one rebuilt from scratch at the
//! same logical graph state.

use crate::error::CoreResult;
use crate::index::{CommunityIndex, IndexBuilder, IndexPlacement, IndexShadow};
use crate::precompute::MaintenanceArena;
use crate::serving::{ServingRuntime, ServingSnapshot};
use icde_graph::graph::DEFAULT_COMPACT_THRESHOLD;
use icde_graph::snapshot::fnv1a_extend;
use icde_graph::traversal::hop_subgraph_with;
use icde_graph::{SocialNetwork, VertexId, Weight};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// One edge update in a D-TopL stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate {
    /// Insert the edge `{u, v}` with directed activation probabilities
    /// `p_uv` (u → v) and `p_vu` (v → u).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Activation probability u → v.
        p_uv: Weight,
        /// Activation probability v → u.
        p_vu: Weight,
    },
    /// Remove the existing edge `{u, v}`.
    Remove {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
}

/// Counters and per-phase wall-clock accumulated by a
/// [`StreamingMaintainer`] over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintainerStats {
    /// Batches applied.
    pub batches: u64,
    /// Edge insertions applied.
    pub inserts_applied: u64,
    /// Edge removals applied.
    pub removes_applied: u64,
    /// Updates skipped (duplicate inserts, removals of missing edges, …).
    pub updates_skipped: u64,
    /// Vertices whose aggregates were recomputed (after deduplication).
    pub vertices_recomputed: u64,
    /// Ball-cover overlap: vertices discovered more than once within a
    /// batch's endpoint balls (raw visits minus deduplicated set size). A
    /// high ratio against `vertices_recomputed` means the batch's updates
    /// land in overlapping neighbourhoods and batching is paying off.
    pub ball_overlap: u64,
    /// Overlay compactions folded back into the CSR base.
    pub compactions: u64,
    /// Index refreshes served by the in-place patch path.
    pub index_patches: u64,
    /// Index refreshes served by a full re-sorted rebuild (repack).
    pub repacks: u64,
    /// Publishes skipped because nothing changed since the last one.
    pub publishes_skipped: u64,
    /// Seconds spent applying overlay edits and patching edge supports.
    pub support_patch_secs: f64,
    /// Seconds spent discovering affected balls and recomputing their
    /// per-vertex aggregates and seed bounds.
    pub ball_recompute_secs: f64,
    /// Seconds spent refreshing the index tree (patch or repack).
    pub index_patch_secs: f64,
    /// Seconds spent building structurally-shared snapshots for publishing.
    pub publish_secs: f64,
}

impl MaintainerStats {
    /// Total updates applied (inserts + removes).
    pub fn updates_applied(&self) -> u64 {
        self.inserts_applied + self.removes_applied
    }
}

/// The pre-PR-10 name of [`MaintainerStats`].
pub type StreamStats = MaintainerStats;

/// Default bound on a spawned maintenance thread's pending-batch queue:
/// [`UpdateFeed::push`] blocks once this many batches are queued, so a
/// producer that outruns the maintainer is backpressured instead of growing
/// the queue without limit.
pub const DEFAULT_UPDATE_QUEUE_CAP: usize = 64;

/// Deduplicated affected-ball size at which a batch refresh fans out over
/// the arena pool (when the precompute config grants more than one worker).
/// Below this the sequential single-arena path is both faster (no spawn
/// overhead) and exactly reproducible arena-for-arena.
pub const PARALLEL_BATCH_MIN: usize = 64;

/// Default fraction of `n` that recomputed vertices may accumulate to since
/// the last full build before the next refresh repacks the tree (see the
/// module docs on patch vs. repack).
pub const DEFAULT_REPACK_THRESHOLD: f64 = 0.25;

/// Largest directed activation probability over the live edges (O(m) scan).
fn scan_p_max(graph: &SocialNetwork) -> f64 {
    let mut p_max = 0.0f64;
    for (e, a, b) in graph.edges() {
        p_max = p_max
            .max(graph.directed_weight(e, a))
            .max(graph.directed_weight(e, b));
    }
    p_max
}

/// Owns a mutable graph + index working pair and keeps both exact under a
/// stream of edge updates (see the module docs for the per-batch pipeline).
pub struct StreamingMaintainer {
    graph: SocialNetwork,
    /// Always `Some` between batches; taken during a batch because a repack
    /// ([`IndexBuilder::build_from_precomputed`]) consumes the data.
    index: Option<CommunityIndex>,
    compact_threshold: f64,
    repack_threshold: f64,
    /// Monotone upper bound on the largest directed edge weight of the
    /// working graph, maintained incrementally so small batches avoid an
    /// O(m) rescan: folded up on inserts, refreshed exactly on compaction.
    /// Removals may leave it stale-high, which only widens the refresh
    /// radius — still correct, just conservative.
    p_max: f64,
    /// Pool of ball-cover-sized recompute scratches reused across batches
    /// (paged workspaces + sparse signature rows stay warm — keywords never
    /// change under edge updates). Small batches use only `arenas[0]`; large
    /// batches partition the affected set across the whole pool, one scoped
    /// worker thread per arena.
    arenas: Vec<MaintenanceArena>,
    /// Vertex → leaf placement of the current tree, kept stable by the patch
    /// path and re-derived on repack.
    placement: IndexPlacement,
    /// Double-buffered publish shadow: tracks which rows changed since each
    /// buffer's last publish so [`Self::publish_to`] copies only those.
    shadow: IndexShadow,
    /// Incrementally-evolved content tag for published snapshots (replaces
    /// the O(n + m) `content_fingerprint` re-hash per epoch).
    state_tag: u64,
    /// Whether anything changed since the last publish.
    dirty_since_publish: bool,
    /// Recomputed vertices accumulated since the last full build; drives the
    /// repack decision against `repack_threshold · n`.
    dirty_since_repack: u64,
    /// One-shot override: the next refresh repacks regardless of drift.
    force_repack: bool,
    stats: MaintainerStats,
    // Reusable per-batch buffers (allocation-free steady state).
    affected: Vec<VertexId>,
    touched_edges: Vec<u32>,
    patched_nodes: Vec<u32>,
    dirty_vertices: Vec<u32>,
}

impl StreamingMaintainer {
    /// Wraps a graph and the index built over it. The pair is typically the
    /// same one published to a [`ServingRuntime`] as its initial snapshot.
    /// Converts both to `Arc`-shared section storage so every subsequent
    /// publish clones the untouched bulk in O(1).
    pub fn new(mut graph: SocialNetwork, mut index: CommunityIndex) -> Self {
        let p_max = scan_p_max(&graph);
        graph.share_sections();
        index.share_tree_sections();
        let placement = index.derive_placement();
        let mut shadow = IndexShadow::new(&index);
        // pay the two full-buffer syncs once here, so even the first two
        // publishes only replay dirty rows instead of copying O(n) arrays
        shadow.prime(&index);
        // the one full hash: every later publish evolves this tag
        // incrementally instead of re-hashing O(n + m) content
        let state_tag = index.content_fingerprint();
        StreamingMaintainer {
            graph,
            index: Some(index),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            repack_threshold: DEFAULT_REPACK_THRESHOLD,
            p_max,
            arenas: vec![MaintenanceArena::new()],
            placement,
            shadow,
            state_tag,
            dirty_since_publish: true,
            dirty_since_repack: 0,
            force_repack: false,
            stats: MaintainerStats::default(),
            affected: Vec::new(),
            touched_edges: Vec::new(),
            patched_nodes: Vec::new(),
            dirty_vertices: Vec::new(),
        }
    }

    /// Sets the overlay fraction above which a batch triggers compaction
    /// (default [`DEFAULT_COMPACT_THRESHOLD`]).
    pub fn with_compact_threshold(mut self, threshold: f64) -> Self {
        self.compact_threshold = threshold;
        self
    }

    /// Sets the fraction of `n` that recomputed vertices may accumulate to
    /// before a refresh repacks the tree instead of patching it (default
    /// [`DEFAULT_REPACK_THRESHOLD`]). `0.0` repacks on every batch (the
    /// pre-PR-10 behaviour); `f64::INFINITY` never repacks.
    pub fn with_repack_threshold(mut self, threshold: f64) -> Self {
        self.repack_threshold = threshold;
        self
    }

    /// The current working graph.
    pub fn graph(&self) -> &SocialNetwork {
        &self.graph
    }

    /// The current working index.
    pub fn index(&self) -> &CommunityIndex {
        self.index
            .as_ref()
            .expect("maintainer always holds an index")
    }

    /// The vertex → leaf placement of the current tree (stable under the
    /// patch path, re-derived on repack).
    pub fn placement(&self) -> &IndexPlacement {
        &self.placement
    }

    /// The lifetime counters.
    pub fn stats(&self) -> MaintainerStats {
        self.stats
    }

    /// The primary recompute scratch arena reused across batches (telemetry:
    /// resident bytes and warm signature rows). Large batches spread across
    /// an internal pool; this is the arena small batches run on.
    pub fn arena(&self) -> &MaintenanceArena {
        &self.arenas[0]
    }

    /// Applies one batch of updates and refreshes the index; returns the
    /// number of vertices whose aggregates were recomputed. Invalid updates
    /// (duplicate insert, removal of a missing edge, unknown vertex, …) are
    /// skipped and counted, so a noisy stream cannot wedge the maintainer.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> usize {
        let mut index = self.index.take().expect("maintainer always holds an index");
        let r_max = index.precomputed.config.r_max;

        // The refresh radius bound must hold on every intermediate graph of
        // the batch, so fold the weights of pending insertions into the
        // running p_max bound before any of them is applied.
        let theta_min = index
            .precomputed
            .config
            .thresholds
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        for update in updates {
            if let EdgeUpdate::Insert { p_uv, p_vu, .. } = *update {
                self.p_max = self.p_max.max(p_uv).max(p_vu);
            }
        }
        let slack = influence_slack_bound(theta_min, self.p_max).unwrap_or(u32::MAX / 2);

        self.affected.clear();
        self.touched_edges.clear();
        let applied_before = self.stats.updates_applied();
        for &update in updates {
            match update {
                EdgeUpdate::Insert { u, v, p_uv, p_vu } => {
                    let t = Instant::now();
                    match self.graph.apply_edge_inserted(u, v, p_uv, p_vu) {
                        Ok(e) => {
                            index.precomputed.patch_supports_after_insertion(
                                &self.graph,
                                u,
                                v,
                                e,
                                &mut self.touched_edges,
                            );
                            self.stats.support_patch_secs += t.elapsed().as_secs_f64();
                            let t = Instant::now();
                            affected_vertices_with(
                                &mut self.arenas[0],
                                &self.graph,
                                u,
                                v,
                                r_max,
                                slack,
                                &mut self.affected,
                            );
                            self.stats.ball_recompute_secs += t.elapsed().as_secs_f64();
                            self.state_tag = tag_insert(self.state_tag, u, v, p_uv, p_vu);
                            self.stats.inserts_applied += 1;
                        }
                        Err(_) => self.stats.updates_skipped += 1,
                    }
                }
                EdgeUpdate::Remove { u, v } => {
                    // measure the ball while the edge still exists: it may be
                    // a bridge, and the post-deletion ball would then no
                    // longer reach the far side
                    let t = Instant::now();
                    let mark = self.affected.len();
                    affected_vertices_with(
                        &mut self.arenas[0],
                        &self.graph,
                        u,
                        v,
                        r_max,
                        slack,
                        &mut self.affected,
                    );
                    self.stats.ball_recompute_secs += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    match self.graph.apply_edge_removed(u, v) {
                        Ok(e) => {
                            index.precomputed.patch_supports_after_removal(
                                &self.graph,
                                u,
                                v,
                                e,
                                &mut self.touched_edges,
                            );
                            self.stats.support_patch_secs += t.elapsed().as_secs_f64();
                            self.state_tag = tag_remove(self.state_tag, u, v);
                            self.stats.removes_applied += 1;
                        }
                        Err(_) => {
                            // discard the speculative ball of a skipped update
                            self.affected.truncate(mark);
                            self.stats.updates_skipped += 1;
                        }
                    }
                }
            }
        }
        let applied = self.stats.updates_applied() > applied_before;

        let mut compacted = false;
        if let Some(remap) = self.graph.maybe_compact(self.compact_threshold) {
            index.precomputed.apply_edge_id_remap(&remap);
            self.p_max = scan_p_max(&self.graph);
            // compaction rebuilt the CSR base: re-share the fresh sections
            // and invalidate the support shadow (the edge-id space moved)
            self.graph.share_sections();
            self.shadow.mark_all_edges();
            self.state_tag = fnv1a_extend(self.state_tag, b"compact");
            self.stats.compactions += 1;
            compacted = true;
        }

        // Nothing applied and nothing compacted: the pair is untouched, so
        // skip the recompute, the index refresh and the publish dirtying
        // entirely — a batch of duplicates costs only its validation.
        if !applied && !compacted {
            self.stats.batches += 1;
            self.index = Some(index);
            return 0;
        }

        let t = Instant::now();
        let raw_visits = self.affected.len();
        self.affected.sort_unstable();
        self.affected.dedup();
        self.stats.ball_overlap += (raw_visits - self.affected.len()) as u64;
        // keywords are immutable under edge updates (and compaction remaps
        // edge ids, not vertices), so the arenas' cached signature rows stay
        // valid across the maintainer's whole lifetime
        let workers = index
            .precomputed
            .config
            .worker_count(self.graph.num_vertices());
        let arenas = if self.affected.len() >= PARALLEL_BATCH_MIN && workers > 1 {
            while self.arenas.len() < workers {
                self.arenas.push(MaintenanceArena::new());
            }
            &mut self.arenas[..workers]
        } else {
            &mut self.arenas[..1]
        };
        index
            .precomputed
            .recompute_vertices(&self.graph, &self.affected, arenas);
        self.stats.ball_recompute_secs += t.elapsed().as_secs_f64();
        self.stats.vertices_recomputed += self.affected.len() as u64;
        self.stats.batches += 1;

        let t = Instant::now();
        self.patched_nodes.clear();
        self.dirty_since_repack += self.affected.len() as u64;
        let repack_due = self.force_repack
            || self.dirty_since_repack as f64
                >= self.repack_threshold * self.graph.num_vertices() as f64;
        if repack_due {
            index = self.repack(index);
        } else {
            index.patch_vertices(&self.affected, &mut self.placement, &mut self.patched_nodes);
            self.stats.index_patches += 1;
            // publish dirty tracking: recomputed vertex rows, touched
            // support slots (stale pre-compaction ids are clamped away by
            // the shadow when a compaction invalidated them above), and the
            // re-merged tree nodes
            self.dirty_vertices.clear();
            self.dirty_vertices
                .extend(self.affected.iter().map(|v| v.0));
            self.shadow.mark_vertices(&self.dirty_vertices);
            self.shadow.mark_edges(&self.touched_edges);
            self.shadow.mark_nodes(&self.patched_nodes);
        }
        self.stats.index_patch_secs += t.elapsed().as_secs_f64();

        self.dirty_since_publish = true;
        self.index = Some(index);
        self.affected.len()
    }

    /// Full re-sorted rebuild over the current precomputed data: restores
    /// the builder's support/score packing order, re-derives the placement
    /// and invalidates the whole publish shadow.
    fn repack(&mut self, index: CommunityIndex) -> CommunityIndex {
        let fanout = index.fanout();
        let leaf_capacity = index.leaf_capacity();
        let data = index.precomputed;
        let mut rebuilt = IndexBuilder::new(data.config.clone())
            .with_fanout(fanout)
            .with_leaf_capacity(leaf_capacity)
            .build_from_precomputed(&self.graph, data);
        rebuilt.share_tree_sections();
        self.placement = rebuilt.derive_placement();
        self.shadow.mark_all();
        self.state_tag = fnv1a_extend(self.state_tag, b"repack");
        self.stats.repacks += 1;
        self.dirty_since_repack = 0;
        self.force_repack = false;
        rebuilt
    }

    /// Forces a repack on the next refresh regardless of accumulated drift
    /// (one-shot; overrides even an infinite [`Self::with_repack_threshold`]).
    pub fn force_repack_next(&mut self) {
        self.force_repack = true;
    }

    /// Folds any pending overlay back into the CSR base and applies the
    /// resulting edge-id remap to the precomputed supports. Snapshot writers
    /// serialize the *live* edge table — implicitly renumbering edge ids
    /// past tombstone holes — so anything persisting the maintainer's
    /// graph + index pair must call this first, or the saved supports would
    /// stay keyed by the stale pre-compaction id space and silently
    /// misalign after a reload.
    ///
    /// Compaction renumbers edge ids only: no per-vertex aggregate, seed
    /// bound or tree node changes, so (unlike the pre-PR-10 path) the index
    /// is *not* rebuilt — a rebuild over the identical data would produce
    /// the identical tree. Returns `true` when a compaction actually ran
    /// (no-op on an empty overlay).
    pub fn compact_now(&mut self) -> bool {
        if !self.graph.has_overlay() {
            return false;
        }
        let remap = self.graph.compact();
        self.index
            .as_mut()
            .expect("maintainer always holds an index")
            .precomputed
            .apply_edge_id_remap(&remap);
        self.p_max = scan_p_max(&self.graph);
        self.graph.share_sections();
        self.shadow.mark_all_edges();
        self.state_tag = fnv1a_extend(self.state_tag, b"compact");
        self.stats.compactions += 1;
        self.dirty_since_publish = true;
        true
    }

    /// Publishes the current working pair to a serving runtime as a fresh
    /// snapshot. The clone is structurally shared: base CSR sections, tree
    /// arrays and every table row untouched since the previous publish are
    /// `Arc`-aliased, only dirty rows are copied, and the snapshot carries
    /// the incrementally-evolved state tag instead of a fresh O(n + m)
    /// content hash. When nothing changed since the last publish, the
    /// runtime's current snapshot is returned as-is (no epoch bump).
    pub fn publish_to(&mut self, runtime: &ServingRuntime) -> CoreResult<Arc<ServingSnapshot>> {
        if !self.dirty_since_publish {
            self.stats.publishes_skipped += 1;
            return Ok(runtime.current());
        }
        let t = Instant::now();
        let index = self
            .index
            .as_ref()
            .expect("maintainer always holds an index");
        let shared_index = self.shadow.publish(index);
        let snapshot =
            runtime.publish_with_fingerprint(self.graph.clone(), shared_index, self.state_tag)?;
        self.dirty_since_publish = false;
        self.stats.publish_secs += t.elapsed().as_secs_f64();
        Ok(snapshot)
    }

    /// Moves the maintainer onto a dedicated maintenance thread that applies
    /// each batch received on the returned feed and hot-swaps the refreshed
    /// snapshot into `runtime`. Dropping the feed (or calling
    /// [`UpdateFeed::finish`]) stops the thread.
    pub fn spawn(self, runtime: Arc<ServingRuntime>) -> UpdateFeed {
        self.spawn_with_queue(runtime, DEFAULT_UPDATE_QUEUE_CAP)
    }

    /// [`spawn`](StreamingMaintainer::spawn) with an explicit bound on the
    /// pending-batch queue (see [`DEFAULT_UPDATE_QUEUE_CAP`]).
    pub fn spawn_with_queue(self, runtime: Arc<ServingRuntime>, queue_cap: usize) -> UpdateFeed {
        let (tx, rx) = mpsc::sync_channel::<Vec<EdgeUpdate>>(queue_cap.max(1));
        let handle = thread::Builder::new()
            .name("icde-maintain".to_string())
            .spawn(move || {
                let mut maintainer = self;
                while let Ok(batch) = rx.recv() {
                    maintainer.apply_batch(&batch);
                    // a failed publish means the runtime has already shut
                    // down: stop consuming instead of panicking, so finish()
                    // still returns the maintainer cleanly
                    if maintainer.publish_to(&runtime).is_err() {
                        break;
                    }
                }
                maintainer
            })
            .expect("failed to spawn maintenance thread");
        UpdateFeed {
            tx: Some(tx),
            handle: Some(handle),
        }
    }
}

/// The number of extra hops (beyond `r_max`) an edge update can influence:
/// a score expansion only crosses the edge if it reaches one of its
/// endpoints with probability ≥ θ_min, and every hop multiplies the
/// probability by at most the largest edge weight `p_max`, so the reach
/// beyond the r-hop region is bounded by `⌊ln θ_min / ln p_max⌋` hops.
/// [`StreamingMaintainer::apply_batch`] folds the weights of *pending*
/// insertions into `p_max` before any of them is applied.
///
/// Returns `None` when no finite bound exists (`p_max` is 1.0 or the
/// smallest pre-selected threshold is 0); callers then refresh every vertex.
fn influence_slack_bound(theta_min: f64, p_max: f64) -> Option<u32> {
    if theta_min <= 0.0 || theta_min.is_nan() || p_max >= 1.0 {
        return None;
    }
    if p_max <= 0.0 {
        return Some(0);
    }
    Some((theta_min.ln() / p_max.ln()).floor().max(0.0) as u32)
}

/// Appends to `out` every vertex whose pre-computed aggregates may change
/// when the edge `{u, v}` is inserted or removed: the `r_max +
/// influence_slack` hop balls of both endpoints, measured on a graph that
/// contains the edge. `out` is neither cleared nor deduplicated — the two
/// balls usually overlap heavily, and the batch sort-dedups once, counting
/// the overlap as a maintenance statistic. The discovery reuses the arena's
/// already-resident traversal pages, so it touches no thread-local state and
/// allocates nothing beyond `out`'s growth.
fn affected_vertices_with(
    arena: &mut MaintenanceArena,
    g: &SocialNetwork,
    u: VertexId,
    v: VertexId,
    r_max: u32,
    influence_slack: u32,
    out: &mut Vec<VertexId>,
) {
    let ws = arena.traversal_workspace();
    for endpoint in [u, v] {
        out.extend(hop_subgraph_with(ws, g, endpoint, r_max + influence_slack).iter());
    }
}

/// Folds one applied insertion into the running state tag.
fn tag_insert(tag: u64, u: VertexId, v: VertexId, p_uv: f64, p_vu: f64) -> u64 {
    let mut t = fnv1a_extend(tag, &[1u8]);
    t = fnv1a_extend(t, &u.0.to_le_bytes());
    t = fnv1a_extend(t, &v.0.to_le_bytes());
    t = fnv1a_extend(t, &p_uv.to_bits().to_le_bytes());
    fnv1a_extend(t, &p_vu.to_bits().to_le_bytes())
}

/// Folds one applied removal into the running state tag.
fn tag_remove(tag: u64, u: VertexId, v: VertexId) -> u64 {
    let mut t = fnv1a_extend(tag, &[2u8]);
    t = fnv1a_extend(t, &u.0.to_le_bytes());
    fnv1a_extend(t, &v.0.to_le_bytes())
}

/// Handle to a spawned maintenance thread (see [`StreamingMaintainer::spawn`]).
pub struct UpdateFeed {
    tx: Option<mpsc::SyncSender<Vec<EdgeUpdate>>>,
    handle: Option<thread::JoinHandle<StreamingMaintainer>>,
}

impl UpdateFeed {
    /// Enqueues one update batch, blocking while the queue is at capacity
    /// (backpressure against a producer that outruns the maintainer).
    /// Returns `false` if the maintenance thread has already stopped.
    pub fn push(&self, batch: Vec<EdgeUpdate>) -> bool {
        match &self.tx {
            Some(tx) => tx.send(batch).is_ok(),
            None => false,
        }
    }

    /// Closes the feed, waits for the maintenance thread to drain every
    /// queued batch, and returns the maintainer (with its final graph, index
    /// and counters).
    pub fn finish(mut self) -> StreamingMaintainer {
        drop(self.tx.take());
        self.handle
            .take()
            .expect("finish consumes the feed")
            .join()
            .expect("maintenance thread panicked")
    }
}

impl Drop for UpdateFeed {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::{PrecomputeConfig, PrecomputedData};
    use crate::query::TopLQuery;
    use crate::serving::ServingConfig;
    use crate::topl::TopLProcessor;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::{GraphBuilder, KeywordSet};

    fn setup(n: usize, seed: u64) -> (SocialNetwork, CommunityIndex) {
        let g = DatasetSpec::new(DatasetKind::Uniform, n, seed)
            .with_keyword_domain(10)
            .generate();
        let index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_leaf_capacity(8)
        .build(&g);
        (g, index)
    }

    /// Rebuilds the logical graph from scratch (fresh builder over the live
    /// edge table → dense CSR, no overlay) with the same keyword sets.
    fn rebuild_from_scratch(g: &SocialNetwork) -> SocialNetwork {
        let mut b = GraphBuilder::with_vertices(g.num_vertices());
        for v in g.vertices() {
            b.set_keywords(v, g.keyword_set(v).clone()).unwrap();
        }
        for (u, v, wf, wb) in g.edge_table_iter() {
            b.add_edge(u, v, wf, wb);
        }
        b.build().unwrap()
    }

    /// The first vertex pair, in id order, that is not yet an edge.
    fn missing_edge(g: &SocialNetwork) -> (VertexId, VertexId) {
        g.vertices()
            .flat_map(|u| g.vertices().map(move |v| (u, v)))
            .find(|&(u, v)| u < v && !g.contains_edge(u, v))
            .expect("graph is not complete")
    }

    fn answer_bits(a: &crate::topl::TopLAnswer) -> Vec<(u32, u64, Vec<u32>)> {
        a.communities
            .iter()
            .map(|c| {
                (
                    c.center.0,
                    c.influential_score.to_bits(),
                    c.vertices.iter().map(|v| v.0).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn batched_stream_stays_exact_and_compacts() {
        let (g, index) = setup(150, 31);
        let mut maintainer =
            StreamingMaintainer::new(g.clone(), index).with_compact_threshold(0.02);

        // a deterministic mixed stream: remove every 7th edge, insert a few
        // fresh ones
        let removals: Vec<EdgeUpdate> = g
            .edges()
            .filter(|(e, _, _)| e.index() % 7 == 0)
            .take(6)
            .map(|(_, u, v)| EdgeUpdate::Remove { u, v })
            .collect();
        let mut inserts = Vec::new();
        'outer: for u in g.vertices() {
            for v in g.vertices() {
                if u < v && !g.contains_edge(u, v) {
                    inserts.push(EdgeUpdate::Insert {
                        u,
                        v,
                        p_uv: 0.4,
                        p_vu: 0.35,
                    });
                    if inserts.len() == 6 {
                        break 'outer;
                    }
                }
            }
        }

        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3]), 3, 2, 0.2, 5);
        for batch in [removals, inserts] {
            maintainer.apply_batch(&batch);
            let scratch = rebuild_from_scratch(maintainer.graph());
            let scratch_index = IndexBuilder::new(PrecomputeConfig {
                parallel: false,
                ..Default::default()
            })
            .with_leaf_capacity(8)
            .build(&scratch);
            let live = TopLProcessor::new(maintainer.graph(), maintainer.index())
                .run(&query)
                .unwrap();
            let reference = TopLProcessor::new(&scratch, &scratch_index)
                .run(&query)
                .unwrap();
            assert_eq!(answer_bits(&live), answer_bits(&reference));
        }
        let stats = maintainer.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.updates_applied(), 12);
        assert_eq!(stats.updates_skipped, 0);
        assert!(
            stats.compactions >= 1,
            "low threshold must trigger compaction"
        );
    }

    /// The patch path (repack disabled) must stay exact too: answers after
    /// in-place leaf/ancestor re-merges match a from-scratch rebuild at
    /// every intermediate state, and the phase breakdown actually ticks.
    #[test]
    fn patched_index_stays_exact_without_repacks() {
        let (g, index) = setup(150, 36);
        let mut maintainer = StreamingMaintainer::new(g.clone(), index)
            .with_compact_threshold(f64::INFINITY)
            .with_repack_threshold(f64::INFINITY);

        let removals: Vec<EdgeUpdate> = g
            .edges()
            .filter(|(e, _, _)| e.index() % 9 == 0)
            .take(5)
            .map(|(_, u, v)| EdgeUpdate::Remove { u, v })
            .collect();
        let reinserts: Vec<EdgeUpdate> = removals
            .iter()
            .map(|r| match *r {
                EdgeUpdate::Remove { u, v } => EdgeUpdate::Insert {
                    u,
                    v,
                    p_uv: 0.3,
                    p_vu: 0.25,
                },
                _ => unreachable!(),
            })
            .collect();

        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3]), 3, 2, 0.2, 5);
        for batch in [removals, reinserts] {
            maintainer.apply_batch(&batch);
            let scratch = rebuild_from_scratch(maintainer.graph());
            let scratch_index = IndexBuilder::new(PrecomputeConfig {
                parallel: false,
                ..Default::default()
            })
            .with_leaf_capacity(8)
            .build(&scratch);
            let live = TopLProcessor::new(maintainer.graph(), maintainer.index())
                .run(&query)
                .unwrap();
            let reference = TopLProcessor::new(&scratch, &scratch_index)
                .run(&query)
                .unwrap();
            assert_eq!(answer_bits(&live), answer_bits(&reference));
        }
        let stats = maintainer.stats();
        assert_eq!(stats.repacks, 0, "repack disabled: every refresh patches");
        assert_eq!(stats.index_patches, 2);
        assert!(stats.vertices_recomputed > 0);
        assert!(stats.support_patch_secs >= 0.0);
        assert!(stats.ball_recompute_secs > 0.0);
        assert!(stats.index_patch_secs > 0.0);
    }

    /// A batch where every update is invalid leaves the pair untouched, so
    /// the refresh and the next publish are skipped outright.
    #[test]
    fn no_op_batch_skips_refresh_and_publish() {
        let (g, index) = setup(80, 37);
        let runtime = Arc::new(
            ServingRuntime::start(ServingConfig::with_workers(1), g.clone(), index.clone())
                .unwrap(),
        );
        let mut maintainer = StreamingMaintainer::new(g.clone(), index);
        let first = maintainer.publish_to(&runtime).unwrap();
        assert_eq!(first.epoch(), 2);

        let (_, u, v) = g.edges().next().unwrap();
        let recomputed = maintainer.apply_batch(&[
            // both invalid: a duplicate insert and a removal of a missing edge
            EdgeUpdate::Insert {
                u,
                v,
                p_uv: 0.5,
                p_vu: 0.5,
            },
            EdgeUpdate::Remove {
                u: VertexId(0),
                v: VertexId(0),
            },
        ]);
        assert_eq!(recomputed, 0);
        let stats = maintainer.stats();
        assert_eq!(stats.updates_skipped, 2);
        assert_eq!(stats.vertices_recomputed, 0);
        assert_eq!(stats.index_patches + stats.repacks, 0);

        // nothing changed: publish returns the current snapshot, no epoch bump
        let again = maintainer.publish_to(&runtime).unwrap();
        assert_eq!(again.epoch(), first.epoch());
        assert_eq!(maintainer.stats().publishes_skipped, 1);
        assert_eq!(runtime.current().epoch(), first.epoch());
    }

    /// Published snapshots structurally share the maintainer's working pair:
    /// the publish path must still produce answers identical to querying the
    /// maintainer's own graph + index directly, across patches, repacks and
    /// compactions.
    #[test]
    fn structurally_shared_publish_matches_working_pair() {
        let (g, index) = setup(150, 38);
        let runtime = Arc::new(
            ServingRuntime::start(ServingConfig::with_workers(1), g.clone(), index.clone())
                .unwrap(),
        );
        // repacks only when forced below, so both refresh paths are covered
        let mut maintainer = StreamingMaintainer::new(g.clone(), index)
            .with_compact_threshold(0.02)
            .with_repack_threshold(f64::INFINITY);

        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3]), 3, 2, 0.2, 5);
        let mut edges = g.edges();
        for round in 0..3 {
            let (_, u, v) = edges.next().unwrap();
            if round == 2 {
                maintainer.force_repack_next();
            }
            maintainer.apply_batch(&[EdgeUpdate::Remove { u, v }]);
            let snapshot = maintainer.publish_to(&runtime).unwrap();
            let published = TopLProcessor::new(&snapshot.graph, &snapshot.index)
                .run(&query)
                .unwrap();
            let direct = TopLProcessor::new(maintainer.graph(), maintainer.index())
                .run(&query)
                .unwrap();
            assert_eq!(answer_bits(&published), answer_bits(&direct));
        }
        let stats = maintainer.stats();
        assert!(stats.repacks >= 1, "forced repack must run");
        assert!(stats.index_patches >= 1, "earlier rounds patch");

        // distinct content must carry distinct snapshot tags (cache keying)
        let early = runtime.current().fingerprint();
        let (_, u, v) = edges.next().unwrap();
        maintainer.apply_batch(&[EdgeUpdate::Remove { u, v }]);
        let late = maintainer.publish_to(&runtime).unwrap();
        assert_ne!(late.fingerprint(), early);
    }

    /// Persisting a pair with a pending overlay is only safe after
    /// [`StreamingMaintainer::compact_now`]: snapshot writers renumber edge
    /// ids past tombstone holes, and the supports must follow the remap.
    #[test]
    fn compact_now_realigns_supports_with_the_persisted_id_space() {
        let (g, index) = setup(150, 34);
        // huge threshold: batches never trigger compaction on their own
        let mut maintainer =
            StreamingMaintainer::new(g.clone(), index).with_compact_threshold(f64::INFINITY);
        let removals: Vec<EdgeUpdate> = g
            .edges()
            .filter(|(e, _, _)| e.index() % 5 == 0)
            .take(4)
            .map(|(_, u, v)| EdgeUpdate::Remove { u, v })
            .collect();
        maintainer.apply_batch(&removals);
        assert!(maintainer.graph().has_overlay());
        assert_eq!(maintainer.stats().compactions, 0);

        assert!(maintainer.compact_now());
        assert!(!maintainer.graph().has_overlay());
        assert_eq!(maintainer.stats().compactions, 1);
        // no-op on an empty overlay
        assert!(!maintainer.compact_now());
        assert_eq!(maintainer.stats().compactions, 1);

        // the compacted pair is bit-identical to a from-scratch rebuild in
        // the dense id space a snapshot writer would persist — including the
        // edge-indexed supports, which the pre-fix path left misaligned
        let scratch = rebuild_from_scratch(maintainer.graph());
        let scratch_index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_leaf_capacity(8)
        .build(&scratch);
        assert_eq!(
            maintainer.index().precomputed.edge_supports.as_slice(),
            scratch_index.precomputed.edge_supports.as_slice()
        );
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3]), 3, 2, 0.2, 5);
        let live = TopLProcessor::new(maintainer.graph(), maintainer.index())
            .run(&query)
            .unwrap();
        let reference = TopLProcessor::new(&scratch, &scratch_index)
            .run(&query)
            .unwrap();
        assert_eq!(answer_bits(&live), answer_bits(&reference));
    }

    /// The maintainer owns a ball-cover-sized arena whose signature rows
    /// survive across batches instead of hashing an O(n·words) full-graph
    /// signature table per refresh: a second batch over the same region
    /// re-hashes nothing and allocates no new rows.
    #[test]
    fn recompute_arena_stays_warm_across_batches() {
        let (g, index) = setup(150, 35);
        let mut maintainer =
            StreamingMaintainer::new(g.clone(), index).with_compact_threshold(f64::INFINITY);
        assert_eq!(maintainer.arena().signature_rows_cached(), 0);

        let (_, u, v) = g.edges().next().unwrap();
        let cycle = [
            vec![EdgeUpdate::Remove { u, v }],
            vec![EdgeUpdate::Insert {
                u,
                v,
                p_uv: 0.4,
                p_vu: 0.35,
            }],
        ];
        // first cycle saturates the arena's ball-cover capacity
        for batch in &cycle {
            maintainer.apply_batch(batch);
        }
        let rows_warm = maintainer.arena().signature_rows_cached();
        let bytes_warm = maintainer.arena().resident_bytes();
        assert!(rows_warm > 0, "first cycle warms the arena");

        // the same balls again: every signature row is already cached, so the
        // arena neither re-hashes nor grows
        for batch in &cycle {
            maintainer.apply_batch(batch);
            assert_eq!(maintainer.arena().signature_rows_cached(), rows_warm);
            assert_eq!(maintainer.arena().resident_bytes(), bytes_warm);
        }

        // and the refreshed pair is still exact
        let scratch = rebuild_from_scratch(maintainer.graph());
        let scratch_index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_leaf_capacity(8)
        .build(&scratch);
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3]), 3, 2, 0.2, 5);
        let live = TopLProcessor::new(maintainer.graph(), maintainer.index())
            .run(&query)
            .unwrap();
        let reference = TopLProcessor::new(&scratch, &scratch_index)
            .run(&query)
            .unwrap();
        assert_eq!(answer_bits(&live), answer_bits(&reference));
    }

    /// The refresh stays local: one insertion into a 600-vertex graph
    /// recomputes the endpoints' balls, not the whole graph. The ball is at
    /// least [`PARALLEL_BATCH_MIN`] vertices, so with more than one worker it
    /// is split across arenas, and every split must write what a
    /// from-scratch build writes.
    #[test]
    fn refresh_touches_only_a_fraction_on_larger_graphs() {
        let g = DatasetSpec::new(DatasetKind::Uniform, 600, 4)
            .with_keyword_domain(10)
            .generate();
        let (u, v) = missing_edge(&g);
        for workers in 1..=3 {
            // weights in [0.5, 0.6) and θ_min = 0.4 give a one-hop influence
            // slack, so each endpoint ball has radius r_max + 1 = 3
            let config = PrecomputeConfig::new(2, vec![0.4]).with_num_threads(Some(workers));
            let index = IndexBuilder::new(config.clone()).build(&g);
            let mut maintainer = StreamingMaintainer::new(g.clone(), index);
            maintainer.apply_batch(&[EdgeUpdate::Insert {
                u,
                v,
                p_uv: 0.55,
                p_vu: 0.55,
            }]);
            let recomputed = maintainer.stats().vertices_recomputed;
            assert!(
                recomputed >= PARALLEL_BATCH_MIN as u64 && recomputed < 300,
                "recomputed {recomputed} of 600"
            );
            let scratch = PrecomputedData::compute(maintainer.graph(), config);
            let refreshed = &maintainer.index().precomputed;
            assert_eq!(refreshed.table(), scratch.table(), "{workers} workers");
            assert_eq!(
                refreshed.seed_bounds(),
                scratch.seed_bounds(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn invalid_updates_are_skipped_not_fatal() {
        let (g, index) = setup(60, 32);
        let (_, u, v) = g.edges().next().unwrap();
        let mut maintainer = StreamingMaintainer::new(g, index);
        maintainer.apply_batch(&[
            // duplicate insert
            EdgeUpdate::Insert {
                u,
                v,
                p_uv: 0.5,
                p_vu: 0.5,
            },
            // self loop
            EdgeUpdate::Insert {
                u,
                v: u,
                p_uv: 0.5,
                p_vu: 0.5,
            },
            // genuine removal
            EdgeUpdate::Remove { u, v },
            // double removal
            EdgeUpdate::Remove { u, v },
        ]);
        let stats = maintainer.stats();
        assert_eq!(stats.removes_applied, 1);
        assert_eq!(stats.inserts_applied, 0);
        assert_eq!(stats.updates_skipped, 3);
        assert!(!maintainer.graph().contains_edge(u, v));
    }

    /// Score bits, influenced size and vertex set of every community, in
    /// rank order: what a from-scratch rebuild must reproduce exactly. The
    /// centre is left out because two centres of one community can tie
    /// bit-exactly, and which one is credited follows the tree shape.
    fn centerless_bits(a: &crate::topl::TopLAnswer) -> Vec<(u64, usize, Vec<u32>)> {
        a.communities
            .iter()
            .map(|c| {
                (
                    c.influential_score.to_bits(),
                    c.influenced_size,
                    c.vertices.iter().map(|v| v.0).collect(),
                )
            })
            .collect()
    }

    /// Queries served while the maintenance thread publishes batch after
    /// batch must each answer exactly like a from-scratch rebuild of the
    /// graph state their epoch names: epoch e is the state after batch e − 1.
    #[test]
    fn maintenance_thread_publishes_refreshed_snapshots() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let (g, index) = setup(120, 33);
        let mut edges = g.edges().map(|(_, u, v)| (u, v));
        let (a, b) = edges.next().unwrap();
        let (c, d) = edges.next().unwrap();
        let (x, y) = missing_edge(&g);
        // every batch changes the graph, so every batch publishes
        let batches = vec![
            vec![EdgeUpdate::Remove { u: a, v: b }],
            vec![EdgeUpdate::Insert {
                u: x,
                v: y,
                p_uv: 0.45,
                p_vu: 0.4,
            }],
            vec![
                EdgeUpdate::Remove { u: c, v: d },
                EdgeUpdate::Insert {
                    u: a,
                    v: b,
                    p_uv: 0.3,
                    p_vu: 0.35,
                },
            ],
            vec![EdgeUpdate::Remove { u: x, v: y }],
        ];
        let queries = [
            TopLQuery::new(KeywordSet::from_ids([0, 1, 2]), 3, 2, 0.2, 4),
            TopLQuery::new(KeywordSet::from_ids([3, 4, 5, 6]), 3, 1, 0.1, 3),
        ];

        // reference[s][q]: query q off a from-scratch rebuild of the graph
        // after s batches
        let answers_off_a_rebuild = |state: &SocialNetwork| {
            let scratch = rebuild_from_scratch(state);
            let scratch_index = IndexBuilder::new(PrecomputeConfig {
                parallel: false,
                ..Default::default()
            })
            .with_leaf_capacity(8)
            .build(&scratch);
            let processor = TopLProcessor::new(&scratch, &scratch_index);
            queries
                .iter()
                .map(|q| centerless_bits(&processor.run(q).unwrap()))
                .collect::<Vec<_>>()
        };
        let mut state = g.clone();
        let mut reference = vec![answers_off_a_rebuild(&state)];
        for batch in &batches {
            for update in batch {
                match *update {
                    EdgeUpdate::Insert { u, v, p_uv, p_vu } => {
                        state.apply_edge_inserted(u, v, p_uv, p_vu).unwrap();
                    }
                    EdgeUpdate::Remove { u, v } => {
                        state.apply_edge_removed(u, v).unwrap();
                    }
                }
            }
            reference.push(answers_off_a_rebuild(&state));
        }

        let runtime = Arc::new(
            ServingRuntime::start(ServingConfig::with_workers(2), g.clone(), index.clone())
                .unwrap(),
        );
        let feed = StreamingMaintainer::new(g.clone(), index).spawn(Arc::clone(&runtime));
        let stop = AtomicBool::new(false);
        let (first_tx, first_rx) = mpsc::channel();
        let (maintainer, served) = thread::scope(|scope| {
            let client = scope.spawn(|| {
                let mut served = Vec::new();
                for i in 0.. {
                    // read the flag before submitting, so the last query
                    // goes out after every batch has been published
                    let stopping = stop.load(Ordering::SeqCst);
                    let q = i % queries.len();
                    served.push((q, runtime.submit(queries[q].clone()).wait().unwrap()));
                    if i == 0 {
                        first_tx.send(()).unwrap();
                    }
                    if stopping {
                        break;
                    }
                }
                served
            });
            // the first answer is served off the initial snapshot, before any
            // batch is pushed; the rest race the maintenance thread
            first_rx.recv().unwrap();
            for batch in &batches {
                assert!(feed.push(batch.clone()));
            }
            let maintainer = feed.finish();
            stop.store(true, Ordering::SeqCst);
            (maintainer, client.join().unwrap())
        });

        let last_epoch = 1 + batches.len() as u64;
        assert_eq!(served.first().unwrap().1.epoch, 1);
        assert_eq!(served.last().unwrap().1.epoch, last_epoch);
        for (q, answer) in &served {
            assert_eq!(
                centerless_bits(&answer.answer),
                reference[(answer.epoch - 1) as usize][*q],
                "query {q} served at epoch {}",
                answer.epoch
            );
        }

        let stats = maintainer.stats();
        assert_eq!(stats.inserts_applied, 2);
        assert_eq!(stats.removes_applied, 3);
        let snapshot = runtime.current();
        assert_eq!(snapshot.epoch(), last_epoch, "every batch must hot-swap");
        assert!(snapshot.graph.contains_edge(a, b));
        assert!(!snapshot.graph.contains_edge(c, d));
        assert!(!snapshot.graph.contains_edge(x, y));

        // the published snapshot answers exactly like the maintainer's pair,
        // centres included
        let (q, last) = served.last().unwrap();
        let direct = TopLProcessor::new(maintainer.graph(), maintainer.index())
            .run(&queries[*q])
            .unwrap();
        assert_eq!(answer_bits(&last.answer), answer_bits(&direct));

        let serving = runtime.stats();
        assert_eq!(serving.swaps, batches.len() as u64);
        assert_eq!(serving.queries_failed, 0);
    }
}
