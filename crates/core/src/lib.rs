//! # icde-core — TopL-ICDE and DTopL-ICDE query processing
//!
//! The paper's contribution, layered over the `icde-graph`, `icde-truss` and
//! `icde-influence` substrates:
//!
//! * [`query`] — online query parameters (`L`, `θ`, `k`, `r`, `Q`) with
//!   validation,
//! * [`seed`] — seed-community extraction and validation (Definition 2),
//! * [`pruning`] — the keyword / support / radius / influential-score pruning
//!   rules (Lemmas 1–7) and the diversity-score pruning rule (Lemma 9),
//! * [`precompute`] — offline pre-computation of per-vertex, per-radius
//!   aggregates (Algorithm 2),
//! * [`aggregate`] — the flattened (struct-of-arrays) aggregate tables both
//!   the pre-computed data and the index node bounds live in,
//! * [`index`] — the hierarchical tree index `I` over the pre-computed data
//!   (Section V-B), stored flat (shared item pool + SoA bounds),
//! * [`snapshot`] — binary snapshot persistence of the index (same
//!   container format as `icde_graph::snapshot`),
//! * [`topl`] — online TopL-ICDE processing by best-first index traversal
//!   (Algorithm 3),
//! * [`dtopl`] — DTopL-ICDE processing: the lazy greedy with diversity
//!   pruning (Algorithm 4), the unpruned greedy and the exact optimal
//!   baseline,
//! * [`baseline`] — competitor methods used in the evaluation (brute force,
//!   ATindex, k-core),
//! * [`stats`] — pruning-power instrumentation backing the ablation study,
//! * [`serving`] — the concurrent query-serving runtime: worker pool over a
//!   hot-swappable snapshot with a canonicalised query LRU,
//! * [`streaming`] — D-TopL streaming maintenance: edge-update batches
//!   applied as delta-overlay patches with affected-ball aggregate refresh,
//!   republished through the serving runtime.

pub mod aggregate;
pub mod baseline;
pub mod dtopl;
pub mod error;
pub mod index;
pub mod precompute;
pub mod progressive;
pub mod pruning;
pub mod query;
pub mod seed;
pub mod serving;
pub mod snapshot;
pub mod stats;
pub mod streaming;
pub mod topl;

pub use aggregate::{AggregateRef, AggregateTable};
pub use dtopl::{DTopLAnswer, DTopLProcessor, DTopLQuery, DTopLStrategy};
pub use error::CoreError;
pub use index::{CommunityIndex, IndexBuilder, IndexPlacement, NodeRef};
pub use precompute::{EngineStats, MaintenanceArena, PrecomputeConfig, PrecomputedData};
pub use query::TopLQuery;
pub use seed::SeedCommunity;
pub use serving::{
    EpochLatency, LatencyHistogram, ServedAnswer, ServingConfig, ServingError, ServingRuntime,
    ServingSnapshot, ServingStats,
};
pub use stats::PruningStats;
pub use streaming::{EdgeUpdate, MaintainerStats, StreamStats, StreamingMaintainer, UpdateFeed};
pub use topl::{TopLAnswer, TopLProcessor};
