//! Error types for query validation and index usage.

use std::fmt;

/// Errors raised while validating queries or matching a query against an
/// index.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The query keyword set is empty; every seed-community member must share
    /// a keyword with it, so an empty set can never match.
    EmptyQueryKeywords,
    /// `L` (or the candidate multiplier `n`) must be at least 1.
    InvalidResultSize(usize),
    /// The truss support parameter must be at least 2.
    InvalidSupport(u32),
    /// The radius must be at least 1.
    InvalidRadius(u32),
    /// The influence threshold must lie in `[0, 1)`.
    InvalidTheta(f64),
    /// The query radius exceeds the `r_max` the index was pre-computed with,
    /// so offline bounds would not be valid upper bounds.
    RadiusExceedsIndex {
        /// Radius requested by the query.
        requested: u32,
        /// Maximum radius supported by the index.
        r_max: u32,
    },
    /// The index was built over a graph with a different number of vertices.
    IndexGraphMismatch {
        /// Vertices in the graph passed to the processor.
        graph_vertices: usize,
        /// Vertices the index was built over.
        index_vertices: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyQueryKeywords => write!(f, "query keyword set must not be empty"),
            CoreError::InvalidResultSize(l) => write!(f, "result size must be >= 1, got {l}"),
            CoreError::InvalidSupport(k) => write!(f, "truss support k must be >= 2, got {k}"),
            CoreError::InvalidRadius(r) => write!(f, "radius must be >= 1, got {r}"),
            CoreError::InvalidTheta(t) => {
                write!(f, "influence threshold must be in [0, 1), got {t}")
            }
            CoreError::RadiusExceedsIndex { requested, r_max } => write!(
                f,
                "query radius {requested} exceeds the index's maximum pre-computed radius {r_max}"
            ),
            CoreError::IndexGraphMismatch {
                graph_vertices,
                index_vertices,
            } => write!(
                f,
                "index was built over {index_vertices} vertices but the graph has {graph_vertices}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias for core operations.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoreError::EmptyQueryKeywords
            .to_string()
            .contains("keyword"));
        assert!(CoreError::InvalidResultSize(0).to_string().contains('0'));
        assert!(CoreError::InvalidSupport(1)
            .to_string()
            .contains("k must be >= 2"));
        assert!(CoreError::InvalidTheta(1.5).to_string().contains("1.5"));
        assert!(CoreError::RadiusExceedsIndex {
            requested: 5,
            r_max: 3
        }
        .to_string()
        .contains("5"));
        assert!(CoreError::IndexGraphMismatch {
            graph_vertices: 10,
            index_vertices: 20
        }
        .to_string()
        .contains("20"));
    }
}
