//! Offline pre-computation (Algorithm 2).
//!
//! For every vertex `v_i` and every radius `r ∈ [1, r_max]`, the offline
//! phase computes three aggregates over the r-hop region `hop(v_i, r)`:
//!
//! * the OR-folded keyword signature `v_i.BV_r` (used by keyword pruning),
//! * the support upper bound `v_i.ub_sup_r` — the maximum *data-graph* edge
//!   support over the region's edges (used by support pruning),
//! * `m` influential-score upper bounds `σ_z(hop(v_i, r))`, one per
//!   pre-selected threshold `θ_z` (used by influential-score pruning): the
//!   score of the whole region over-estimates the score of any seed community
//!   extracted from it.
//!
//! # The engine
//!
//! The inner loop is built around four structural optimisations (each
//! verified against the in-tree [`reference_precompute_vertex`] path —
//! signatures, supports and region sizes bit-identical, every `σ_z` within
//! float-summation tolerance):
//!
//! 1. **One influence expansion per `(vertex, radius)`** instead of one per
//!    threshold: a single max-product Dijkstra truncated at
//!    `θ_min = min(thresholds)` settles the exact `cpp` of every vertex that
//!    clears *any* pre-selected threshold, and
//!    [`InfluenceEvaluator::multi_threshold_scores_into`] buckets the settled
//!    values into all `σ_z` in one deterministic drain.
//! 2. **Score-only expansion** — probabilities are read straight off the
//!    workspace; no `HashMap` (or anything else) is allocated per expansion.
//! 3. **Frontier-incremental radius aggregation** — the bounded BFS yields
//!    vertices in nondecreasing distance order, so radius `r`'s region is a
//!    prefix of the order buffer and only the *frontier* (distance exactly
//!    `r`) is new. Signatures are OR-folded for frontier vertices only, from
//!    the worker's own sparse [`SignatureScratch`] (a row is hashed on first
//!    touch and replayed afterwards); the support bound scans only edges
//!    incident to the frontier whose other endpoint is already in the region
//!    (an O(1) check against the epoch-stamped BFS distance array).
//!    Everything except the influence expansion is O(frontier), not
//!    O(region).
//! 4. **Work-stealing scheduler with in-place scatter** — the table is cut
//!    into fixed-size entity chunks ([`AggregateTable::chunks_mut`]) and the
//!    chunks into one contiguous home range per worker. Worker *w* drains
//!    range *w* first and then steals from the others, so a hub-heavy
//!    stretch never straggles behind a static partition while a worker's
//!    traversal pages and signature rows stay on one id range. Workers write
//!    finished rows straight into their claimed chunks; there are no
//!    per-worker result buffers and no sequential scatter pass.
//!    [`PrecomputeConfig::num_threads`] pins the worker count; every worker
//!    count writes the same bytes.
//!
//! Each worker owns two [`TraversalWorkspace`]s — one keeps the BFS distance
//! stamps valid across all radii while the other churns through the
//! influence expansions — plus the reused BFS-order buffer, signature
//! accumulator and signature row cache, so the steady-state hot path
//! performs no heap allocation at all, and its resident scratch tracks the
//! ball cover of its range instead of `n`.
//!
//! # Seed-community score bounds
//!
//! The region bound `σ_z(hop(v, r))` is sound but loose: it scores the whole
//! r-hop ball, while the online phase only ever realises a *seed community*
//! inside it. The offline phase therefore also stores, per `(v, r, θ_z)`,
//! the score of the keyword-**unconstrained** maximal seed community
//! `X_all(v; k = SEED_BOUND_SUPPORT, r)`
//! ([`crate::seed::extract_unconstrained_seed_community_with`]). Every
//! keyword-constrained seed community at the same centre with support
//! `k ≥ `[`SEED_BOUND_SUPPORT`] is a subgraph of `X_all` (the extraction
//! fixpoint is monotone in its starting set and antitone in `k`), and `σ` is
//! monotone in the seed set and antitone in `θ`, so
//! `σ_θz(X_all)` upper-bounds `σ_θ` of any such community for `θ ≥ θ_z`.
//! Centres with no `X_all` at all admit no community for any `k ≥ 3`; their
//! bound is stored as the negative [`NO_SEED_COMMUNITY`] sentinel and read
//! back as `-∞`. The progressive online kernel takes the min of this bound
//! and the region bound, which is what lets it refine tens of candidates
//! instead of tens of thousands.

use crate::aggregate::{AggregateRef, AggregateTable, TableChunkMut, TableShadow};
use crate::seed::extract_seed_members;
use icde_graph::snapshot::{FlatVec, SectionShadow};
use icde_graph::traversal::bfs_within_into;
use icde_graph::workspace::TraversalWorkspace;
use icde_graph::{
    BitVector, EdgeId, EdgeIdRemap, SignatureScratch, SocialNetwork, VertexId, VertexSubset,
};
use icde_influence::{InfluenceConfig, InfluenceEvaluator};
use icde_truss::support::edge_supports_global;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Truss support the seed-community score bounds are computed at. Bounds are
/// sound for any online query with `support >= SEED_BOUND_SUPPORT` (larger
/// support yields a smaller community); queries below it fall back to the
/// region bound alone.
pub const SEED_BOUND_SUPPORT: u32 = 3;

/// Stored stand-in for "no keyword-unconstrained seed community exists at
/// this centre" (no community exists for any `k ≥ `[`SEED_BOUND_SUPPORT`]
/// either, so the true bound is `-∞`). Index snapshots store this value in
/// the seed-bound section, so changing it changes the on-disk format.
/// [`PrecomputedData::seed_score_bound`] maps any negative stored value back
/// to `-∞`.
pub const NO_SEED_COMMUNITY: f64 = -1.0;

/// Configuration of the offline pre-computation phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputeConfig {
    /// Maximum radius `r_max` to pre-compute aggregates for (queries may use
    /// any `r ≤ r_max`).
    pub r_max: u32,
    /// Pre-selected influence thresholds `θ_1 < θ_2 < ... < θ_m`; an online
    /// threshold `θ ∈ [θ_z, θ_{z+1})` uses `σ_z` as its score upper bound.
    pub thresholds: Vec<f64>,
    /// Width (in bits) of the keyword signatures.
    pub signature_bits: usize,
    /// Whether to spread the per-vertex work across worker threads.
    pub parallel: bool,
    /// Exact number of worker threads. `Some(n)` forces `n` workers
    /// regardless of `parallel` (`Some(1)` is the sequential build); `None`
    /// defers to `parallel` (`available_parallelism()` workers when set).
    ///
    /// A runtime knob, not data: the index snapshot does not store it (all
    /// loads yield `None`), so artifacts stay independent of the machine
    /// that built them.
    pub num_threads: Option<usize>,
}

impl Default for PrecomputeConfig {
    /// The paper's defaults: `r_max = 3`, thresholds `{0.1, 0.2, 0.3}`
    /// (Table III), 128-bit signatures.
    fn default() -> Self {
        PrecomputeConfig {
            r_max: 3,
            thresholds: vec![0.1, 0.2, 0.3],
            signature_bits: 128,
            parallel: true,
            num_threads: None,
        }
    }
}

impl PrecomputeConfig {
    /// Creates a config with explicit `r_max` and thresholds (sorted and
    /// validated).
    ///
    /// # Panics
    /// Panics if `r_max == 0`, thresholds is empty, or any threshold is
    /// outside `[0, 1)`.
    pub fn new(r_max: u32, mut thresholds: Vec<f64>) -> Self {
        assert!(r_max >= 1, "r_max must be at least 1");
        assert!(!thresholds.is_empty(), "at least one threshold is required");
        assert!(
            thresholds.iter().all(|t| (0.0..1.0).contains(t)),
            "thresholds must lie in [0, 1)"
        );
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
        PrecomputeConfig {
            r_max,
            thresholds,
            ..Default::default()
        }
    }

    /// Overrides the signature width.
    pub fn with_signature_bits(mut self, bits: usize) -> Self {
        self.signature_bits = bits;
        self
    }

    /// Enables or disables parallel pre-computation.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Pins the worker-thread count (see [`PrecomputeConfig::num_threads`]).
    pub fn with_num_threads(mut self, num_threads: Option<usize>) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// The number of workers the offline build will actually use for an
    /// `n`-vertex graph.
    pub fn worker_count(&self, n: usize) -> usize {
        let requested = match self.num_threads {
            Some(t) => t.max(1),
            None if self.parallel => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            None => 1,
        };
        requested.min(n.max(1))
    }

    /// Index of the largest pre-selected threshold `θ_z ≤ θ`, or `None` if
    /// `θ` is below every pre-selected threshold (in which case no valid
    /// pre-computed upper bound exists and score pruning is disabled).
    pub fn threshold_index(&self, theta: f64) -> Option<usize> {
        let mut best = None;
        for (i, t) in self.thresholds.iter().enumerate() {
            if *t <= theta {
                best = Some(i);
            }
        }
        best
    }
}

/// Telemetry of one offline build: where the wall time went and how many
/// bytes of traversal/signature scratch each worker actually kept resident,
/// against the dense projection of two n-vertex workspaces per worker plus a
/// full-graph signature table. `precompute_equivalence.rs` asserts
/// `measured_scratch_bytes() × 4 ≤ naive_scratch_bytes` on a 20k-vertex
/// locality graph; nothing here affects the computed data.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker threads the build ran with.
    pub workers: usize,
    /// Wall time of the global edge-support pass.
    pub support_phase_secs: f64,
    /// Wall time of the aggregate-table pass.
    pub table_phase_secs: f64,
    /// Wall time of the seed-bound pass.
    pub seed_phase_secs: f64,
    /// Resident scratch bytes per table-pass worker at the end of the pass
    /// (workspace pages + sparse signature arena + accumulators).
    pub table_worker_scratch_bytes: Vec<usize>,
    /// Resident scratch bytes per seed-pass worker at the end of the pass.
    pub seed_worker_scratch_bytes: Vec<usize>,
    /// Table-pass chunks each worker stole from outside its home range.
    pub stolen_chunks: Vec<usize>,
    /// What a dense engine would keep resident for this graph and worker
    /// count: two n-vertex traversal workspaces per worker plus one
    /// full-graph signature table.
    pub naive_scratch_bytes: usize,
}

impl EngineStats {
    /// Total measured resident scratch: the sum over the workers of the
    /// heavier pass.
    pub fn measured_scratch_bytes(&self) -> usize {
        let table: usize = self.table_worker_scratch_bytes.iter().sum();
        let seed: usize = self.seed_worker_scratch_bytes.iter().sum();
        table.max(seed)
    }
}

/// Aggregates of one `(vertex, radius)` pair, i.e. one r-hop region.
#[derive(Debug, Clone, PartialEq)]
pub struct RadiusAggregate {
    /// OR of the keyword signatures of every vertex in the region (`BV_r`).
    pub keyword_signature: BitVector,
    /// Maximum data-graph edge support over the region's edges (`ub_sup_r`).
    pub support_upper_bound: u32,
    /// `σ_z(hop(v_i, r))` for each pre-selected threshold, aligned with
    /// [`PrecomputeConfig::thresholds`].
    pub score_upper_bounds: Vec<f64>,
    /// Number of vertices in the region (useful diagnostics; not used for
    /// pruning).
    pub region_size: u32,
}

impl RadiusAggregate {
    /// An "empty region" aggregate (used as the identity when folding).
    pub fn empty(signature_bits: usize, num_thresholds: usize) -> Self {
        RadiusAggregate {
            keyword_signature: BitVector::zeros(signature_bits),
            support_upper_bound: 0,
            score_upper_bounds: vec![0.0; num_thresholds],
            region_size: 0,
        }
    }

    /// Folds another aggregate into this one (bit-OR signatures, max support,
    /// element-wise max scores) — the aggregation used by index entries.
    pub fn merge_max(&mut self, other: &RadiusAggregate) {
        self.merge_max_ref(AggregateRef {
            keyword_signature: other.keyword_signature.as_sig(),
            support_upper_bound: other.support_upper_bound,
            score_upper_bounds: &other.score_upper_bounds,
            region_size: other.region_size,
        });
    }

    /// [`merge_max`] against a borrowed table row (the index builder folds
    /// flattened per-vertex rows without materialising owned aggregates).
    ///
    /// [`merge_max`]: RadiusAggregate::merge_max
    pub fn merge_max_ref(&mut self, other: AggregateRef<'_>) {
        self.keyword_signature
            .or_assign_sig(other.keyword_signature);
        self.support_upper_bound = self.support_upper_bound.max(other.support_upper_bound);
        for (mine, theirs) in self
            .score_upper_bounds
            .iter_mut()
            .zip(other.score_upper_bounds)
        {
            if *theirs > *mine {
                *mine = *theirs;
            }
        }
        self.region_size = self.region_size.max(other.region_size);
    }
}

/// All pre-computed data of one vertex: one aggregate per radius
/// `r ∈ [1, r_max]` (index 0 holds `r = 1`). This is the unit of work a
/// pre-computation worker produces before the rows are scattered into the
/// flattened [`AggregateTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct VertexPrecompute {
    /// Aggregates per radius; `per_radius[r - 1]` belongs to radius `r`.
    pub per_radius: Vec<RadiusAggregate>,
}

/// The output of the offline phase for a whole graph: the per-vertex
/// aggregates flattened into one [`AggregateTable`] (`entity` = vertex id)
/// plus the global per-edge supports.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputedData {
    /// The configuration the data was computed with.
    pub config: PrecomputeConfig,
    /// Per-vertex aggregates keyed `(vertex, r, θ_index)`.
    table: AggregateTable,
    /// Per-edge data-graph supports (`ub_sup(e_{u,v})`), indexed by edge id.
    /// [`FlatVec`]-backed so snapshot loads stay zero-copy (see
    /// [`AggregateTable`]'s field docs).
    pub edge_supports: FlatVec<u32>,
    /// Seed-community score bounds `σ_z(X_all(v; SEED_BOUND_SUPPORT, r))`,
    /// flattened `((v · r_max) + (r − 1)) · m + z` like the table's score
    /// lane; [`NO_SEED_COMMUNITY`] where no `X_all` exists (see the module
    /// docs).
    seed_bounds: FlatVec<f64>,
}

impl PrecomputedData {
    /// Runs the offline pre-computation (Algorithm 2) over `g` through the
    /// frontier-incremental, multi-threshold, work-stealing engine (see the
    /// module docs).
    pub fn compute(g: &SocialNetwork, config: PrecomputeConfig) -> Self {
        Self::compute_with_stats(g, config).0
    }

    /// [`compute`](PrecomputedData::compute) plus build telemetry: phase
    /// wall times and the resident scratch bytes each worker actually held
    /// (see [`EngineStats`]).
    pub fn compute_with_stats(g: &SocialNetwork, config: PrecomputeConfig) -> (Self, EngineStats) {
        let n = g.num_vertices();
        let workers = config.worker_count(n);
        let words = config.signature_bits.div_ceil(64);
        let mut stats = EngineStats {
            workers,
            naive_scratch_bytes: workers * 2 * TraversalWorkspace::dense_lane_bytes(n)
                + n * words * std::mem::size_of::<u64>(),
            ..EngineStats::default()
        };

        let t = Instant::now();
        let edge_supports = edge_supports_global(g);
        stats.support_phase_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut table = AggregateTable::new(
            n,
            config.r_max,
            config.signature_bits,
            config.thresholds.len(),
        );
        let ctx = EngineCtx {
            g,
            config: &config,
            edge_supports: &edge_supports,
        };
        let chunks = table.chunks_mut(chunk_entities(n, workers));
        let per_worker = run_claimed(chunks, workers, |scratch, mut chunk| {
            let first = chunk.first_entity();
            for local in 0..chunk.len() {
                let v = VertexId::from_index(first + local);
                precompute_vertex_into(&ctx, v, scratch, &mut chunk, local);
            }
        });
        (stats.table_worker_scratch_bytes, stats.stolen_chunks) = per_worker.into_iter().unzip();
        stats.table_phase_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let seed_bounds = compute_seed_bounds(g, &config, workers, &mut stats);
        stats.seed_phase_secs = t.elapsed().as_secs_f64();

        (
            PrecomputedData {
                config,
                table,
                edge_supports: edge_supports.into(),
                seed_bounds: seed_bounds.into(),
            },
            stats,
        )
    }

    /// Reference (pre-overhaul) sequential build: one full influence
    /// expansion per `(vertex, radius, threshold)` and per-region re-scans,
    /// via [`reference_precompute_vertex`]. Kept in-tree as the equivalence
    /// baseline for the engine — the property tests assert the fast path
    /// reproduces it (structurally bit-identical, scores within
    /// float-summation tolerance).
    pub fn compute_reference(g: &SocialNetwork, config: PrecomputeConfig) -> Self {
        let edge_supports = edge_supports_global(g);
        let n = g.num_vertices();
        let mut table = AggregateTable::new(
            n,
            config.r_max,
            config.signature_bits,
            config.thresholds.len(),
        );
        let mut ws = TraversalWorkspace::new();
        for i in 0..n {
            let pre = reference_precompute_vertex(
                g,
                &config,
                &edge_supports,
                VertexId::from_index(i),
                &mut ws,
            );
            table.set_entity(i, &pre.per_radius);
        }
        // The seed-bound pass is shared with the engine build: it is new
        // with the progressive kernel, so there is no pre-overhaul reference
        // formulation to diverge from, and sharing it keeps the two builds
        // comparable field-for-field.
        let seed_bounds = compute_seed_bounds(g, &config, 1, &mut EngineStats::default());
        PrecomputedData {
            config,
            table,
            edge_supports: edge_supports.into(),
            seed_bounds: seed_bounds.into(),
        }
    }

    /// Rebuilds pre-computed data from an already-flattened table (the
    /// binary snapshot loader); errors when the table dimensions disagree
    /// with the configuration.
    pub fn from_table(
        config: PrecomputeConfig,
        table: AggregateTable,
        edge_supports: impl Into<FlatVec<u32>>,
        seed_bounds: impl Into<FlatVec<f64>>,
    ) -> Result<Self, String> {
        let data = PrecomputedData {
            config,
            table,
            edge_supports: edge_supports.into(),
            seed_bounds: seed_bounds.into(),
        };
        data.validate()?;
        Ok(data)
    }

    /// Checks internal table consistency and agreement with the
    /// configuration (run on every loaded index; see
    /// [`crate::aggregate::AggregateTable::validate`]).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.table.validate()?;
        if self.table.r_max() != self.config.r_max
            || self.table.signature_bits() != self.config.signature_bits
            || self.table.num_thresholds() != self.config.thresholds.len()
        {
            return Err("aggregate table dimensions disagree with the configuration".to_string());
        }
        let expected =
            self.table.entities() * self.config.r_max as usize * self.config.thresholds.len();
        if self.seed_bounds.len() != expected {
            return Err(format!(
                "seed-bound table has {} entries, expected {expected}",
                self.seed_bounds.len()
            ));
        }
        if self.seed_bounds.iter().any(|b| !b.is_finite()) {
            return Err("seed-bound table contains non-finite entries".to_string());
        }
        Ok(())
    }

    /// The flattened per-vertex aggregate table.
    pub fn table(&self) -> &AggregateTable {
        &self.table
    }

    /// The aggregate of `hop(v, r)` as a borrowed row of the flat table.
    ///
    /// # Panics
    /// Panics if `r` is 0 or exceeds `r_max`.
    pub fn aggregate(&self, v: VertexId, r: u32) -> AggregateRef<'_> {
        self.table.row(v.index(), r)
    }

    /// Influential-score upper bound for `hop(v, r)` under online threshold
    /// `theta`; `+∞` when no pre-selected threshold is ≤ `theta` (no usable
    /// bound ⇒ never prune).
    pub fn score_bound(&self, v: VertexId, r: u32, theta: f64) -> f64 {
        match self.config.threshold_index(theta) {
            Some(z) => self.table.score(v.index(), r, z),
            None => f64::INFINITY,
        }
    }

    /// Seed-community score bound `σ_z(X_all(v; SEED_BOUND_SUPPORT, r))`
    /// under online threshold `theta` (see the module docs): `+∞` when no
    /// pre-selected threshold is ≤ `theta`, `-∞` when no
    /// keyword-unconstrained community exists at this centre at all. Only
    /// sound for queries with `support >= `[`SEED_BOUND_SUPPORT`].
    ///
    /// # Panics
    /// Panics if `r` is 0 or exceeds `r_max`.
    pub fn seed_score_bound(&self, v: VertexId, r: u32, theta: f64) -> f64 {
        let Some(z) = self.config.threshold_index(theta) else {
            return f64::INFINITY;
        };
        assert!(
            r >= 1 && r <= self.config.r_max,
            "radius {r} outside [1, {}]",
            self.config.r_max
        );
        let m = self.config.thresholds.len();
        let row = v.index() * self.config.r_max as usize + (r as usize - 1);
        let stored = self.seed_bounds[row * m + z];
        if stored < 0.0 {
            f64::NEG_INFINITY
        } else {
            stored
        }
    }

    /// The flat seed-bound table (snapshot persistence; see the field docs
    /// for the layout).
    pub fn seed_bounds(&self) -> &[f64] {
        &self.seed_bounds
    }

    /// Number of vertices the data was computed over.
    pub fn num_vertices(&self) -> usize {
        self.table.entities()
    }

    /// Recomputes the aggregates and seed bounds of `vertices` against the
    /// current state of `g` (the incremental-maintenance refresh path),
    /// through caller-owned [`MaintenanceArena`]s dedicated to `g`. An
    /// arena's sparse signature rows and paged traversal lanes stay warm
    /// across calls: keyword sets are immutable under edge updates and
    /// compaction, so nothing is re-hashed, nothing is zeroed O(n), and
    /// resident bytes track the update balls.
    ///
    /// With one arena the batch runs on the calling thread and may hold
    /// vertices in any order. With more, the **sorted, deduplicated** batch
    /// is split into one contiguous span per arena and each span runs on its
    /// own scoped worker, scattering its rows into a disjoint
    /// [`AggregateTable::ranges_mut`] chunk (plus the matching seed-bound
    /// slice) — the offline engine's lock-free scatter discipline.
    ///
    /// `edge_supports` must already reflect the updated graph; patch them
    /// with [`PrecomputedData::patch_supports_after_insertion`] /
    /// [`PrecomputedData::patch_supports_after_removal`] first.
    ///
    /// # Panics
    /// Panics if `arenas` is empty, and (debug) if more than one arena is
    /// given and `vertices` is not sorted and deduplicated.
    pub fn recompute_vertices(
        &mut self,
        g: &SocialNetwork,
        vertices: &[VertexId],
        arenas: &mut [MaintenanceArena],
    ) {
        assert!(!arenas.is_empty(), "a refresh needs at least one arena");
        if vertices.is_empty() {
            return;
        }
        let ctx = EngineCtx {
            g,
            config: &self.config,
            edge_supports: &self.edge_supports,
        };
        let stride = self.config.r_max as usize * self.config.thresholds.len();
        if let [arena] = arenas {
            let seed_bounds = self.seed_bounds.to_mut();
            for &v in vertices {
                let mut chunk = self.table.entity_mut(v.index());
                precompute_vertex_into(&ctx, v, &mut arena.scratch, &mut chunk, 0);
                let row = &mut seed_bounds[v.index() * stride..(v.index() + 1) * stride];
                seed_bounds_vertex_into(g, ctx.config, &mut arena.scratch, v, row);
            }
            return;
        }
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "a batch split across arenas must be sorted and deduplicated"
        );
        let per = vertices.len().div_ceil(arenas.len());
        let parts: Vec<&[VertexId]> = vertices.chunks(per).collect();
        let ranges: Vec<(usize, usize)> = parts
            .iter()
            .map(|p| (p[0].index(), p[p.len() - 1].index() + 1))
            .collect();
        let chunks = self.table.ranges_mut(&ranges);
        let mut seed_rest = self.seed_bounds.to_mut().as_mut_slice();
        let mut seed_slices: Vec<&mut [f64]> = Vec::with_capacity(ranges.len());
        let mut consumed = 0usize;
        for &(start, end) in &ranges {
            let rest = std::mem::take(&mut seed_rest);
            let (_, rest) = rest.split_at_mut((start - consumed) * stride);
            let (chunk, rest) = rest.split_at_mut((end - start) * stride);
            seed_slices.push(chunk);
            seed_rest = rest;
            consumed = end;
        }
        let ctx = &ctx;
        std::thread::scope(|scope| {
            for ((part, mut chunk), (seed_slice, arena)) in parts
                .into_iter()
                .zip(chunks)
                .zip(seed_slices.into_iter().zip(arenas.iter_mut()))
            {
                scope.spawn(move || {
                    let base = chunk.first_entity();
                    for &v in part {
                        let local = v.index() - base;
                        precompute_vertex_into(ctx, v, &mut arena.scratch, &mut chunk, local);
                        let row = &mut seed_slice[local * stride..(local + 1) * stride];
                        seed_bounds_vertex_into(ctx.g, ctx.config, &mut arena.scratch, v, row);
                    }
                });
            }
        });
    }

    /// Patches `edge_supports` after the edge `{u, v}` (id `e`) has been
    /// inserted into `g` (which must already contain it): the new edge's
    /// support is its common-neighbour count, and every triangle it closes
    /// raises the support of the two adjacent edges by one. O(deg u + deg v),
    /// no full rebuild. The id of every support slot written (the new edge
    /// plus the two adjacent edges of each closed triangle) is appended to
    /// `touched`, so callers that publish supports with structural sharing
    /// know exactly which rows went stale.
    pub fn patch_supports_after_insertion(
        &mut self,
        g: &SocialNetwork,
        u: VertexId,
        v: VertexId,
        e: EdgeId,
        touched: &mut Vec<u32>,
    ) {
        let supports = self.edge_supports.to_mut();
        if supports.len() < g.edge_id_space() {
            supports.resize(g.edge_id_space(), 0);
        }
        let mut sup = 0u32;
        g.for_each_common_neighbor(u, v, |_w, e_uw, e_vw| {
            sup += 1;
            supports[e_uw.index()] += 1;
            supports[e_vw.index()] += 1;
            touched.push(e_uw.index() as u32);
            touched.push(e_vw.index() as u32);
        });
        supports[e.index()] = sup;
        touched.push(e.index() as u32);
    }

    /// Patches `edge_supports` after the edge `{u, v}` (old id `e`) has been
    /// removed from `g` (which must no longer contain it): every triangle the
    /// edge closed is gone, so the other two edges' supports drop by one. The
    /// removed id's slot is zeroed — it stays a tombstoned hole until the
    /// graph compacts. Every touched support slot (including the zeroed
    /// tombstone) is appended to `touched`.
    pub fn patch_supports_after_removal(
        &mut self,
        g: &SocialNetwork,
        u: VertexId,
        v: VertexId,
        e: EdgeId,
        touched: &mut Vec<u32>,
    ) {
        let supports = self.edge_supports.to_mut();
        g.for_each_common_neighbor(u, v, |_w, e_uw, e_vw| {
            supports[e_uw.index()] -= 1;
            supports[e_vw.index()] -= 1;
            touched.push(e_uw.index() as u32);
            touched.push(e_vw.index() as u32);
        });
        if let Some(slot) = supports.get_mut(e.index()) {
            *slot = 0;
            touched.push(e.index() as u32);
        }
    }

    /// Applies the edge-id remap returned by [`SocialNetwork::compact`] to
    /// the edge-indexed supports, packing live slots into the fresh dense id
    /// space and dropping tombstoned holes.
    pub fn apply_edge_id_remap(&mut self, remap: &EdgeIdRemap) {
        if remap.is_identity() {
            return;
        }
        self.edge_supports = remap.remap_dense(self.edge_supports.as_slice()).into();
    }
}

/// Read-only state shared by every pre-computation worker.
struct EngineCtx<'a> {
    g: &'a SocialNetwork,
    config: &'a PrecomputeConfig,
    edge_supports: &'a [u32],
}

/// Per-worker reusable scratch: two traversal workspaces (the BFS one keeps
/// its epoch-stamped distance array valid across all radii while the
/// influence one churns through the expansions), the BFS-order buffer, the
/// signature accumulator and the sparse signature row cache. Nothing here is
/// allocated per vertex.
#[derive(Default)]
struct WorkerScratch {
    ws_bfs: TraversalWorkspace,
    ws_inf: TraversalWorkspace,
    order: Vec<(VertexId, u32)>,
    /// Members of the last extracted `X_all`, ascending.
    members: Vec<VertexId>,
    sig_acc: Vec<u64>,
    sig: SignatureScratch,
}

impl WorkerScratch {
    /// Readies the signature row cache for `g` and zeroes the accumulator at
    /// `bits` width (a default scratch starts with an empty one).
    fn reset_signature(&mut self, g: &SocialNetwork, bits: usize) {
        self.sig.ensure(g.num_vertices(), bits);
        self.sig_acc.clear();
        self.sig_acc.resize(bits.div_ceil(64), 0);
    }

    /// ORs member `v`'s signature row into the accumulator: exactly the bits
    /// `BitVector::from_keywords` would set, hashed on the worker's first
    /// touch of `v` and replayed from the row cache afterwards.
    #[inline]
    fn or_member_sig(&mut self, g: &SocialNetwork, v: VertexId) {
        self.sig.or_row_into(g, v, &mut self.sig_acc);
    }

    /// Resident bytes this scratch currently pins: workspace lane pages and
    /// queue buffers plus the sparse signature arena and accumulators.
    fn resident_bytes(&self) -> usize {
        self.ws_bfs.scratch_bytes()
            + self.ws_inf.scratch_bytes()
            + self.sig.allocated_bytes()
            + self.order.capacity() * std::mem::size_of::<(VertexId, u32)>()
            + self.members.capacity() * std::mem::size_of::<VertexId>()
            + self.sig_acc.capacity() * std::mem::size_of::<u64>()
    }
}

/// A caller-owned maintenance scratch arena: the worker scratch (paged
/// traversal workspaces, sparse signature row cache, accumulators) kept
/// alive across update batches by its owner — the streaming maintainer —
/// instead of rebuilt or invalidated per refresh.
///
/// The signature rows cached inside are keyed by vertex id and stay valid
/// as long as the graph's *keyword sets* do; edge insertions, deletions and
/// compaction never touch them, so an arena dedicated to one
/// [`SocialNetwork`] never needs invalidation. Reusing one arena for a
/// different graph with the same vertex count is a logic error; take a fresh
/// arena instead.
#[derive(Default)]
pub struct MaintenanceArena {
    scratch: WorkerScratch,
}

impl MaintenanceArena {
    /// Creates an empty arena; everything inside grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of signature rows currently cached.
    pub fn signature_rows_cached(&self) -> usize {
        self.scratch.sig.rows_cached()
    }

    /// Resident bytes the arena currently pins (workspace pages, signature
    /// arena, accumulators) — maintenance observability; compare against
    /// the `n × ⌈bits/64⌉ × 8` bytes of a full-graph signature table.
    pub fn resident_bytes(&self) -> usize {
        self.scratch.resident_bytes()
    }

    /// The arena's BFS traversal workspace. The recompute engine re-stamps
    /// its epochs on every call, so callers may freely run their own bounded
    /// traversals (e.g. affected-ball discovery) through the same resident
    /// pages between recomputes.
    pub fn traversal_workspace(&mut self) -> &mut TraversalWorkspace {
        &mut self.scratch.ws_bfs
    }
}

/// Publish shadow over one [`PrecomputedData`]: the vertex aggregate table
/// and seed bounds are marked per dirty *vertex*, the edge supports per
/// dirty *edge id* (with a wholesale invalidation when compaction renumbers
/// the id space). See [`SectionShadow`] for the replay protocol.
#[derive(Debug)]
pub(crate) struct PrecomputeShadow {
    table: TableShadow,
    seed_bounds: SectionShadow<f64>,
    edge_supports: SectionShadow<u32>,
}

impl PrecomputeShadow {
    pub(crate) fn new(data: &PrecomputedData) -> Self {
        let stride = data.config.r_max as usize * data.config.thresholds.len();
        PrecomputeShadow {
            table: TableShadow::new(&data.table),
            seed_bounds: SectionShadow::new(stride.max(1)),
            edge_supports: SectionShadow::new(1),
        }
    }

    /// Marks vertices whose table rows and seed bounds were recomputed.
    pub(crate) fn mark_vertices(&mut self, vertices: &[u32]) {
        self.table.mark_entities(vertices);
        self.seed_bounds.mark_rows(vertices);
    }

    /// Marks edge ids whose support slots were patched.
    pub(crate) fn mark_edges(&mut self, edges: &[u32]) {
        self.edge_supports.mark_rows(edges);
    }

    /// Invalidates the support shadow (the edge-id space was renumbered by
    /// compaction).
    pub(crate) fn mark_all_edges(&mut self) {
        self.edge_supports.mark_all();
    }

    /// Invalidates everything (full recompute / repack of the data).
    pub(crate) fn mark_all(&mut self) {
        self.table.mark_all();
        self.seed_bounds.mark_all();
        self.edge_supports.mark_all();
    }

    /// Syncs both double-buffer slots with `data` so the first publishes
    /// after construction replay dirty rows instead of full-copying.
    pub(crate) fn prime(&mut self, data: &PrecomputedData) {
        self.table.prime(&data.table);
        self.seed_bounds.prime(&data.seed_bounds);
        self.edge_supports.prime(&data.edge_supports);
    }

    /// Builds a structurally-shared snapshot copy of `data`.
    pub(crate) fn publish(&mut self, data: &PrecomputedData) -> PrecomputedData {
        PrecomputedData {
            config: data.config.clone(),
            table: self.table.publish(&data.table),
            edge_supports: self.edge_supports.publish(&data.edge_supports),
            seed_bounds: self.seed_bounds.publish(&data.seed_bounds),
        }
    }
}

/// Entities per work-stealing chunk: small enough that a hub-heavy stretch
/// of vertices cannot straggle one worker, large enough that the claim is
/// free.
fn chunk_entities(n: usize, workers: usize) -> usize {
    (n / (workers * 16)).clamp(8, 512)
}

/// Runs `work` over every chunk on `workers` scoped threads, each with its
/// own [`WorkerScratch`]. The chunks are grouped into one contiguous home
/// range per worker: worker `w` drains range `w` first, then steals from
/// ranges `w + 1, w + 2, …` in turn until every chunk is claimed, so a
/// worker's scratch stays on one id range while no chunk waits on a
/// straggler. Returns, per worker, its resident scratch bytes and the number
/// of chunks it stole.
fn run_claimed<C: Send>(
    chunks: Vec<C>,
    workers: usize,
    work: impl Fn(&mut WorkerScratch, C) + Sync,
) -> Vec<(usize, usize)> {
    let total = chunks.len();
    let home = |w: usize| w * total / workers..(w + 1) * total / workers;
    let slots: Vec<Mutex<Option<C>>> = chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let cursors: Vec<AtomicUsize> = (0..workers)
        .map(|w| AtomicUsize::new(home(w).start))
        .collect();
    let (slots, cursors, work) = (&slots, &cursors, &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = WorkerScratch::default();
                    let mut stolen = 0;
                    for offset in 0..workers {
                        let range = (w + offset) % workers;
                        let end = home(range).end;
                        loop {
                            let i = cursors[range].fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            let chunk = slots[i]
                                .lock()
                                .expect("chunk slot lock")
                                .take()
                                .expect("each chunk is claimed exactly once");
                            work(&mut scratch, chunk);
                            stolen += usize::from(offset != 0);
                        }
                    }
                    (scratch.resident_bytes(), stolen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pre-computation worker panicked"))
            .collect()
    })
}

/// The engine inner loop: computes the aggregates of one vertex for every
/// radius and writes them straight into the claimed table chunk.
///
/// One bounded BFS to `r_max` yields the region members in nondecreasing
/// distance order, so radius `r`'s region is the prefix `order[..end_r]` and
/// the *frontier* `order[start_r..end_r]` (distance exactly `r`) is the only
/// new material: its signatures are OR-folded from the row cache, and the
/// support maximum scans only its incident edges whose other endpoint is
/// already inside the region (`dist ≤ r` against the epoch-stamped BFS
/// array). An edge `{u, w}` enters the region exactly when its deeper
/// endpoint joins the frontier (`r = max(d_u, d_w)`), so every region edge
/// is accounted for exactly at its first radius — re-observing an edge whose
/// both endpoints sit on the same frontier is harmless under `max`. The
/// score bounds for all thresholds come from a single expansion per radius
/// ([`InfluenceEvaluator::multi_threshold_scores_into`]).
fn precompute_vertex_into(
    ctx: &EngineCtx<'_>,
    v: VertexId,
    scratch: &mut WorkerScratch,
    chunk: &mut TableChunkMut<'_>,
    local: usize,
) {
    let config = ctx.config;
    let evaluator = InfluenceEvaluator::new(ctx.g, InfluenceConfig { theta: 0.0 });
    bfs_within_into(
        &mut scratch.ws_bfs,
        ctx.g,
        v,
        config.r_max,
        &mut scratch.order,
    );

    scratch.reset_signature(ctx.g, config.signature_bits);
    let mut support = 0u32;
    // distance-0 "frontier": the centre itself (no incident region edges yet)
    if let Some(&(center, _)) = scratch.order.first() {
        scratch.or_member_sig(ctx.g, center);
    }
    let mut end = usize::from(!scratch.order.is_empty());
    for r in 1..=config.r_max {
        let start = end;
        while end < scratch.order.len() && scratch.order[end].1 == r {
            end += 1;
        }
        for idx in start..end {
            let u = scratch.order[idx].0;
            scratch.or_member_sig(ctx.g, u);
            for (n, e) in ctx.g.neighbors(u) {
                match scratch.ws_bfs.dist(n) {
                    Some(d) if d <= r => {
                        support = support.max(ctx.edge_supports[e.index()]);
                    }
                    _ => {}
                }
            }
        }
        let row = chunk.row_mut(local, r);
        row.signature.copy_from_slice(&scratch.sig_acc);
        *row.support_upper_bound = support;
        *row.region_size = end as u32;
        evaluator.multi_threshold_scores_into(
            &mut scratch.ws_inf,
            scratch.order[..end].iter().map(|&(u, _)| u),
            &config.thresholds,
            row.score_upper_bounds,
        );
    }
}

/// Computes the flat seed-bound table for every vertex (layout: see the
/// [`PrecomputedData::seed_bounds`] field docs), spread over `workers`
/// threads with the table pass's home-range work stealing
/// ([`run_claimed`]). Each vertex is computed identically regardless of
/// which worker claims it, so the result is the same for every worker count.
fn compute_seed_bounds(
    g: &SocialNetwork,
    config: &PrecomputeConfig,
    workers: usize,
    stats: &mut EngineStats,
) -> Vec<f64> {
    let n = g.num_vertices();
    let stride = config.r_max as usize * config.thresholds.len();
    let mut bounds = vec![NO_SEED_COMMUNITY; n * stride];
    let per_chunk = chunk_entities(n, workers);
    // one claimable chunk: (first vertex index, its slice of the table)
    let chunks: Vec<(usize, &mut [f64])> = bounds
        .chunks_mut(per_chunk * stride)
        .enumerate()
        .map(|(i, rows)| (i * per_chunk, rows))
        .collect();
    let per_worker = run_claimed(chunks, workers, |scratch, (first, rows)| {
        for (local, row) in rows.chunks_mut(stride).enumerate() {
            let v = VertexId::from_index(first + local);
            seed_bounds_vertex_into(g, config, scratch, v, row);
        }
    });
    stats.seed_worker_scratch_bytes = per_worker.into_iter().map(|(bytes, _)| bytes).collect();
    bounds
}

/// Fills one vertex's seed-bound row: per radius, extract
/// `X_all(v; SEED_BOUND_SUPPORT, r)` and score it under every pre-selected
/// threshold with a single influence expansion; [`NO_SEED_COMMUNITY`] where
/// no community exists.
fn seed_bounds_vertex_into(
    g: &SocialNetwork,
    config: &PrecomputeConfig,
    scratch: &mut WorkerScratch,
    v: VertexId,
    row: &mut [f64],
) {
    let m = config.thresholds.len();
    debug_assert_eq!(row.len(), config.r_max as usize * m);
    let evaluator = InfluenceEvaluator::new(g, InfluenceConfig { theta: 0.0 });
    for r in 1..=config.r_max {
        let slot = &mut row[(r as usize - 1) * m..r as usize * m];
        let members = &mut scratch.members;
        if extract_seed_members(
            &mut scratch.ws_bfs,
            g,
            v,
            SEED_BOUND_SUPPORT,
            r,
            None,
            members,
        ) {
            evaluator.multi_threshold_scores_into(
                &mut scratch.ws_inf,
                members.iter().copied(),
                &config.thresholds,
                slot,
            );
        } else {
            slot.fill(NO_SEED_COMMUNITY);
        }
    }
}

/// The pre-overhaul per-vertex computation, kept in-tree as the engine's
/// correctness baseline: one full influence expansion (with its influenced
/// community `HashMap`) per `(radius, threshold)`, per-member signature
/// hashing, and a full induced-edge re-scan per radius. The equivalence
/// property tests (`crates/core/tests/precompute_equivalence.rs`) compare
/// the engine against this path.
pub fn reference_precompute_vertex(
    g: &SocialNetwork,
    config: &PrecomputeConfig,
    edge_supports: &[u32],
    v: VertexId,
    ws: &mut TraversalWorkspace,
) -> VertexPrecompute {
    // One bounded BFS to r_max gives every radius at once.
    let distances = icde_graph::traversal::bfs_within_with(ws, g, v, config.r_max);
    let evaluator = InfluenceEvaluator::new(g, InfluenceConfig { theta: 0.0 });

    let mut per_radius = Vec::with_capacity(config.r_max as usize);
    for r in 1..=config.r_max {
        let members: Vec<VertexId> = distances
            .distances
            .iter()
            .filter(|(_, d)| *d <= r)
            .map(|(u, _)| *u)
            .collect();
        let region = VertexSubset::from_iter(members.iter().copied());

        // keyword signature: OR of member signatures
        let mut signature = BitVector::zeros(config.signature_bits);
        for &u in &members {
            signature.or_assign(&BitVector::from_keywords(
                g.keyword_set(u),
                config.signature_bits,
            ));
        }

        // support bound: max data-graph support over region edges
        let mut support_upper_bound = 0u32;
        for (e, _, _) in region.induced_edges(g) {
            support_upper_bound = support_upper_bound.max(edge_supports[e.index()]);
        }

        // score bounds: sigma_z(hop(v, r)) for every pre-selected threshold
        let score_upper_bounds: Vec<f64> = config
            .thresholds
            .iter()
            .map(|&theta_z| {
                evaluator
                    .influenced_community_with_theta_in(ws, &region, theta_z)
                    .influential_score()
            })
            .collect();

        per_radius.push(RadiusAggregate {
            keyword_signature: signature,
            support_upper_bound,
            score_upper_bounds,
            region_size: region.len() as u32,
        });
    }
    VertexPrecompute { per_radius }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::traversal::hop_subgraph;
    use icde_graph::{KeywordSet, VertexId};
    use icde_influence::{InfluenceConfig, InfluenceEvaluator};

    fn small_graph() -> SocialNetwork {
        DatasetSpec::new(DatasetKind::Uniform, 120, 3)
            .with_keyword_domain(20)
            .generate()
    }

    #[test]
    fn config_defaults_and_threshold_lookup() {
        let c = PrecomputeConfig::default();
        assert_eq!(c.r_max, 3);
        assert_eq!(c.thresholds, vec![0.1, 0.2, 0.3]);
        assert_eq!(c.threshold_index(0.2), Some(1));
        assert_eq!(c.threshold_index(0.25), Some(1));
        assert_eq!(c.threshold_index(0.35), Some(2));
        assert_eq!(c.threshold_index(0.05), None);
        assert_eq!(c.threshold_index(0.1), Some(0));
    }

    #[test]
    #[should_panic(expected = "r_max")]
    fn zero_radius_config_panics() {
        let _ = PrecomputeConfig::new(0, vec![0.1]);
    }

    #[test]
    fn new_sorts_thresholds() {
        let c = PrecomputeConfig::new(2, vec![0.3, 0.1, 0.2]);
        assert_eq!(c.thresholds, vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn precompute_produces_per_radius_aggregates() {
        let g = small_graph();
        let config = PrecomputeConfig {
            parallel: false,
            ..Default::default()
        };
        let data = PrecomputedData::compute(&g, config);
        assert_eq!(data.num_vertices(), g.num_vertices());
        assert_eq!(data.edge_supports.len(), g.num_edges());
        assert_eq!(data.table().r_max(), 3);
        for v in g.vertices() {
            // larger radius => larger (or equal) region, signature, bounds
            for r in 1..3u32 {
                let smaller = data.aggregate(v, r);
                let larger = data.aggregate(v, r + 1);
                assert!(larger.region_size >= smaller.region_size);
                assert!(larger.support_upper_bound >= smaller.support_upper_bound);
                for z in 0..3 {
                    assert!(larger.score_upper_bounds[z] >= smaller.score_upper_bounds[z] - 1e-9);
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = small_graph();
        let seq = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        // every scheduling shape must write the exact same table: the
        // default-parallel build, `--threads 1` through `num_threads`, and
        // pinned worker counts up to and past n, whose home ranges shrink
        // below one work-stealing chunk until most workers only steal
        let pinned = [1, 2, 3, 4, 5, 7, 16, 120, 500]
            .map(|w| PrecomputeConfig::default().with_num_threads(Some(w)));
        for config in [PrecomputeConfig::default()].into_iter().chain(pinned) {
            let par = PrecomputedData::compute(&g, config);
            assert_eq!(seq.edge_supports, par.edge_supports);
            assert_eq!(seq.num_vertices(), par.num_vertices());
            // the engine computes each vertex identically regardless of which
            // worker claims it, so even the float scores are bit-identical
            assert_eq!(seq.table(), par.table());
            assert_eq!(seq.table().max_score_delta(par.table()), 0.0);
            assert_eq!(seq.seed_bounds(), par.seed_bounds());
        }
    }

    #[test]
    fn build_stats_report_bounded_worker_scratch() {
        let g = small_graph();
        let (_, stats) = PrecomputedData::compute_with_stats(
            &g,
            PrecomputeConfig::default().with_num_threads(Some(4)),
        );
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.table_worker_scratch_bytes.len(), 4);
        assert_eq!(stats.seed_worker_scratch_bytes.len(), 4);
        assert_eq!(stats.stolen_chunks.len(), 4);
        assert!(stats.table_worker_scratch_bytes.iter().all(|&b| b > 0));
        assert!(stats.naive_scratch_bytes > 0);
    }

    #[test]
    fn arena_recompute_matches_fresh_build_and_stays_warm() {
        let spec = DatasetSpec::new(DatasetKind::Uniform, 80, 5).with_keyword_domain(16);
        let g = spec.generate();
        let config = PrecomputeConfig {
            parallel: false,
            ..Default::default()
        };
        let fresh = PrecomputedData::compute(&g, config.clone());
        let mut stale = PrecomputedData::compute(&g, config);
        let mut arenas = [MaintenanceArena::new()];
        let victims: Vec<VertexId> = (0..10).map(VertexId::from_index).collect();
        stale.recompute_vertices(&g, &victims, &mut arenas);
        assert_eq!(stale.table(), fresh.table());
        assert_eq!(stale.seed_bounds(), fresh.seed_bounds());
        let cached = arenas[0].signature_rows_cached();
        assert!(cached > 0, "arena caches the touched balls");
        assert!(arenas[0].resident_bytes() > 0);
        // a second batch over the same balls re-hashes nothing
        stale.recompute_vertices(&g, &victims, &mut arenas);
        assert_eq!(arenas[0].signature_rows_cached(), cached);
        assert_eq!(stale.table(), fresh.table());
    }

    #[test]
    fn worker_count_resolution() {
        let base = PrecomputeConfig::default();
        assert_eq!(base.clone().with_num_threads(Some(4)).worker_count(100), 4);
        // explicit threads override the parallel flag, and are capped by n
        assert_eq!(
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            }
            .with_num_threads(Some(4))
            .worker_count(2),
            2
        );
        assert_eq!(base.clone().with_num_threads(Some(0)).worker_count(10), 1);
        assert_eq!(
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            }
            .worker_count(10),
            1
        );
        assert!(base.worker_count(1_000_000) >= 1);
    }

    #[test]
    fn engine_matches_reference_path() {
        let g = small_graph();
        let config = PrecomputeConfig {
            parallel: false,
            ..Default::default()
        };
        let fast = PrecomputedData::compute(&g, config.clone());
        let reference = PrecomputedData::compute_reference(&g, config);
        assert_eq!(fast.edge_supports, reference.edge_supports);
        assert_eq!(
            fast.table().structural_fingerprint(),
            reference.table().structural_fingerprint()
        );
        assert!(fast.table().max_score_delta(reference.table()) < 1e-9);
    }

    #[test]
    fn signature_covers_region_keywords() {
        let g = small_graph();
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        for v in g.vertices().take(20) {
            let region = hop_subgraph(&g, v, 2);
            let agg = data.aggregate(v, 2);
            for u in region.iter() {
                for kw in g.keyword_set(u).iter() {
                    assert!(agg.keyword_signature.maybe_contains(kw));
                }
            }
        }
    }

    #[test]
    fn support_bound_dominates_region_supports() {
        let g = small_graph();
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        for v in g.vertices().take(20) {
            let region = hop_subgraph(&g, v, 2);
            let agg = data.aggregate(v, 2);
            let exact = icde_truss::support::max_edge_support(&g, &region);
            assert!(agg.support_upper_bound >= exact, "vertex {v}");
        }
    }

    #[test]
    fn score_bound_dominates_any_subcommunity_score() {
        // sigma_z(hop(v, r)) with theta_z <= theta is an upper bound of the
        // score of any seed subgraph of hop(v, r) at theta.
        let g = small_graph();
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let theta = 0.25; // falls in [0.2, 0.3)
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(theta));
        for v in g.vertices().take(15) {
            let bound = data.score_bound(v, 2, theta);
            let region = hop_subgraph(&g, v, 2);
            // the region itself
            assert!(
                bound + 1e-9 >= eval.influential_score(&region),
                "vertex {v}"
            );
            // and an arbitrary subset of it (here: the 1-hop ball)
            let sub = hop_subgraph(&g, v, 1);
            assert!(bound + 1e-9 >= eval.influential_score(&sub), "vertex {v}");
        }
    }

    #[test]
    fn seed_bound_dominates_constrained_communities() {
        // sigma_theta of any keyword-constrained seed community with support
        // >= SEED_BOUND_SUPPORT is bounded by the stored sigma_z(X_all).
        let g = small_graph();
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let theta = 0.25; // falls in [0.2, 0.3)
        let eval = InfluenceEvaluator::new(&g, InfluenceConfig::new(theta));
        let keywords = KeywordSet::from_ids([0u32, 1, 2, 3, 4]);
        for v in g.vertices().take(40) {
            for r in 1..=2u32 {
                for k in [SEED_BOUND_SUPPORT, SEED_BOUND_SUPPORT + 1] {
                    if let Some(c) = crate::seed::extract_seed_community(&g, v, k, r, &keywords) {
                        let bound = data.seed_score_bound(v, r, theta);
                        assert!(
                            bound + 1e-9 >= eval.influential_score(&c),
                            "vertex {v} r {r} k {k}: bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seed_bound_sentinel_and_threshold_edges() {
        // An isolated vertex has no X_all at any radius: its stored sentinel
        // must read back as -inf; a theta below every pre-selected threshold
        // must read back as +inf (no usable bound).
        let g = {
            let mut b = icde_graph::GraphBuilder::new();
            for _ in 0..4 {
                b.add_vertex(KeywordSet::from_ids([1u32]));
            }
            b.add_symmetric_edge(VertexId(0), VertexId(1), 0.5);
            b.build().unwrap()
        };
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        // vertex 3 is isolated; vertex 0 is on a single edge (no triangle)
        assert_eq!(
            data.seed_score_bound(VertexId(3), 2, 0.2),
            f64::NEG_INFINITY
        );
        assert_eq!(
            data.seed_score_bound(VertexId(0), 2, 0.2),
            f64::NEG_INFINITY
        );
        assert!(data.seed_score_bound(VertexId(0), 1, 0.01).is_infinite());
        assert!(data.seed_score_bound(VertexId(0), 1, 0.01) > 0.0);
        // every stored entry is the finite sentinel, never an actual -inf
        assert!(data.seed_bounds().iter().all(|b| b.is_finite()));
    }

    #[test]
    fn recompute_refreshes_seed_bounds() {
        let g = small_graph();
        let config = PrecomputeConfig {
            parallel: false,
            ..Default::default()
        };
        let reference = PrecomputedData::compute(&g, config.clone());
        let mut stale = reference.clone();
        // corrupt a few rows, then recompute those vertices: the rows must
        // come back bit-identical to the fresh build
        let victims = [VertexId(0), VertexId(17), VertexId(63)];
        let stride = config.r_max as usize * config.thresholds.len();
        for v in victims {
            stale.seed_bounds.to_mut()[v.index() * stride..(v.index() + 1) * stride].fill(9999.0);
        }
        stale.recompute_vertices(&g, &victims, &mut [MaintenanceArena::new()]);
        assert_eq!(stale.seed_bounds(), reference.seed_bounds());
    }

    #[test]
    fn score_bound_without_valid_threshold_is_infinite() {
        let g = small_graph();
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        assert!(data.score_bound(VertexId(0), 1, 0.01).is_infinite());
    }

    #[test]
    fn merge_max_folds_aggregates() {
        let mut a = RadiusAggregate::empty(64, 2);
        let mut b = RadiusAggregate::empty(64, 2);
        a.support_upper_bound = 3;
        a.score_upper_bounds = vec![5.0, 2.0];
        a.keyword_signature = BitVector::from_keywords(&KeywordSet::from_ids([1]), 64);
        b.support_upper_bound = 7;
        b.score_upper_bounds = vec![4.0, 6.0];
        b.keyword_signature = BitVector::from_keywords(&KeywordSet::from_ids([2]), 64);
        a.merge_max(&b);
        assert_eq!(a.support_upper_bound, 7);
        assert_eq!(a.score_upper_bounds, vec![5.0, 6.0]);
        assert!(a.keyword_signature.maybe_contains(icde_graph::Keyword(1)));
        assert!(a.keyword_signature.maybe_contains(icde_graph::Keyword(2)));
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn aggregate_out_of_range_radius_panics() {
        let g = small_graph();
        let data = PrecomputedData::compute(
            &g,
            PrecomputeConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let _ = data.aggregate(VertexId(0), 9);
    }
}
