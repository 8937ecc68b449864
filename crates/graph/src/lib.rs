//! # icde-graph — social network substrate for TopL-ICDE
//!
//! This crate provides the data model from Definition 1 of the TopL-ICDE
//! paper: an attributed, undirected, weighted **social network** where each
//! vertex carries a keyword set and each edge carries an activation
//! probability, plus everything the upper layers need to work with it:
//!
//! * [`SocialNetwork`] — **frozen CSR** graph store (flat offsets + packed
//!   neighbour array) with per-vertex keyword sets and per-edge propagation
//!   probabilities; all structure is built in one shot by the mutable
//!   [`GraphBuilder`] and read back through the [`Neighbors`] cursor, which
//!   is the raw contiguous slice for overlay-free rows,
//! * [`overlay`] — the **delta overlay** (per-vertex inserted runs +
//!   tombstones) that makes edge insert/delete O(degree · log degree)
//!   instead of a full CSR rebuild, with amortised compaction,
//! * [`builder`] — the mutable accumulation side of the builder/frozen
//!   split: append-only buffering, O(1) incremental queries for the
//!   generators, one-shot validate + counting-sort freeze,
//! * [`keywords`] — keyword sets and the B-bit hashed [`bitvec::BitVector`]
//!   signatures used by the keyword pruning rule,
//! * [`traversal`] — BFS, r-hop subgraph extraction `hop(v, r)`, hop
//!   distances and connected components,
//! * [`workspace`] — the reusable [`TraversalWorkspace`] (epoch-stamped
//!   scratch arrays, ring buffer, monotone bucket queue) every traversal and
//!   propagation loop borrows instead of allocating per call,
//! * [`subgraph`] — light-weight vertex-subset views over a network,
//! * [`generators`] — synthetic workload generators (Newman–Watts–Strogatz
//!   small-world, DBLP-like, Amazon-like, keyword distributions, edge
//!   weights),
//! * [`io`] — attributed edge-list reader and writer,
//! * [`snapshot`] — sectioned, checksummed **binary snapshots** of the
//!   frozen store that load zero-copy via `mmap(2)` (with a buffered
//!   fallback path), so production starts skip the text re-parse entirely.
//!
//! The representation is bespoke (rather than reusing a generic graph crate)
//! so that keyword bit vectors, edge supports and per-radius aggregates can
//! be stored next to the topology and accessed without hashing.

pub mod bitvec;
pub mod builder;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod keywords;
pub mod overlay;
pub mod snapshot;
pub mod statistics;
pub mod subgraph;
pub mod traversal;
pub mod types;
pub mod workspace;

pub use bitvec::{BitVector, SignatureRef, SignatureScratch};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{GraphParts, SocialNetwork};
pub use keywords::{Keyword, KeywordSet};
pub use overlay::{DeltaOverlay, EdgeIdRemap, Neighbors, NeighborsIter};
pub use subgraph::VertexSubset;
pub use types::{vertex_ids_from_raw, EdgeId, VertexId, Weight};
pub use workspace::TraversalWorkspace;
