//! Fundamental identifier and weight types shared across the workspace.
//!
//! Vertices are identified by dense `u32` indices so that per-vertex data can
//! be stored in flat vectors; edges are identified by the position of their
//! canonical `(min, max)` endpoint pair in the edge table.

use serde::Serialize;
use std::fmt;

/// Dense identifier of a vertex in a [`crate::SocialNetwork`].
///
/// Vertex ids are assigned contiguously from `0..n` when the graph is built,
/// which lets every layer above (truss decomposition, pre-computation, the
/// tree index) use plain `Vec` lookups instead of hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[repr(transparent)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the id as a `usize` index for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a vertex id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `idx` does not fit in `u32` (graphs are limited to
    /// `u32::MAX` vertices, far above the 1M-vertex scale of the paper).
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        debug_assert!(idx <= u32::MAX as usize, "vertex index overflow");
        VertexId(idx as u32)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<VertexId> for u32 {
    fn from(v: VertexId) -> Self {
        v.0
    }
}

/// Dense identifier of an undirected edge in a [`crate::SocialNetwork`].
///
/// The id is the position of the edge in the canonical edge table (edges are
/// stored once with `u < v`). Edge supports and trussness values are indexed
/// by `EdgeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[repr(transparent)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the id as a `usize` index for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an edge id from a `usize` index.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        debug_assert!(idx <= u32::MAX as usize, "edge index overflow");
        EdgeId(idx as u32)
    }
}

/// Reinterprets a slice of raw `u32` ids as [`VertexId`]s without copying —
/// sound because `VertexId` is `#[repr(transparent)]` over `u32`. Used by
/// flat pool layouts (the tree index stores leaf vertices and child node ids
/// in one shared `u32` pool) and by the snapshot loaders.
pub fn vertex_ids_from_raw(ids: &[u32]) -> &[VertexId] {
    // Safety: repr(transparent) guarantees identical layout and alignment.
    unsafe { std::slice::from_raw_parts(ids.as_ptr() as *const VertexId, ids.len()) }
}

impl From<u32> for EdgeId {
    fn from(e: u32) -> Self {
        EdgeId(e)
    }
}

impl From<EdgeId> for u32 {
    fn from(e: EdgeId) -> Self {
        e.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Propagation probability attached to a directed influence relation
/// `p_{u,v}` — the probability that user `u` activates user `v`.
///
/// Stored as `f64` in `[0, 1]`; the helper constructors clamp and validate.
pub type Weight = f64;

/// Clamps a raw weight into the valid probability range `[0, 1]`.
#[inline]
pub fn clamp_probability(w: Weight) -> Weight {
    if w.is_nan() {
        0.0
    } else {
        w.clamp(0.0, 1.0)
    }
}

/// Returns `true` if `w` is a valid propagation probability (finite, within
/// `[0, 1]`).
#[inline]
pub fn is_valid_probability(w: Weight) -> bool {
    w.is_finite() && (0.0..=1.0).contains(&w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(v.to_string(), "v42");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::from_index(7);
        assert_eq!(e.index(), 7);
        assert_eq!(e.to_string(), "e7");
    }

    #[test]
    fn vertex_id_ordering_follows_index() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(0) < EdgeId(10));
    }

    #[test]
    fn clamp_probability_bounds() {
        assert_eq!(clamp_probability(-0.5), 0.0);
        assert_eq!(clamp_probability(1.5), 1.0);
        assert_eq!(clamp_probability(0.7), 0.7);
        assert_eq!(clamp_probability(f64::NAN), 0.0);
    }

    #[test]
    fn valid_probability_checks() {
        assert!(is_valid_probability(0.0));
        assert!(is_valid_probability(1.0));
        assert!(is_valid_probability(0.53));
        assert!(!is_valid_probability(-0.01));
        assert!(!is_valid_probability(1.01));
        assert!(!is_valid_probability(f64::NAN));
        assert!(!is_valid_probability(f64::INFINITY));
    }
}
