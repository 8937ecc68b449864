//! Error types for graph construction and I/O.

use crate::types::VertexId;
use std::fmt;

/// Errors produced while building, mutating or (de)serialising a
/// [`crate::SocialNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A vertex id referenced by an edge or query does not exist.
    UnknownVertex(VertexId),
    /// An edge `(u, v)` was added twice.
    DuplicateEdge(VertexId, VertexId),
    /// Self-loops are not allowed in the social-network model.
    SelfLoop(VertexId),
    /// An edge weight was outside the valid probability range `[0, 1]`.
    InvalidWeight {
        u: VertexId,
        v: VertexId,
        weight: f64,
    },
    /// The edge `(u, v)` does not exist.
    MissingEdge(VertexId, VertexId),
    /// An edge-list input could not be parsed.
    Parse { line: usize, message: String },
    /// Underlying I/O failure, carried as a message so the error stays `Clone`.
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not allowed"),
            GraphError::InvalidWeight { u, v, weight } => {
                write!(
                    f,
                    "invalid weight {weight} on edge ({u}, {v}); must be in [0, 1]"
                )
            }
            GraphError::MissingEdge(u, v) => write!(f, "edge ({u}, {v}) does not exist"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Convenient result alias used throughout the graph crate.
pub type GraphResult<T> = Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offenders() {
        let e = GraphError::UnknownVertex(VertexId(3));
        assert!(e.to_string().contains("v3"));
        let e = GraphError::DuplicateEdge(VertexId(1), VertexId(2));
        assert!(e.to_string().contains("v1") && e.to_string().contains("v2"));
        let e = GraphError::InvalidWeight {
            u: VertexId(0),
            v: VertexId(1),
            weight: 1.5,
        };
        assert!(e.to_string().contains("1.5"));
        let e = GraphError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 12"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let g: GraphError = io.into();
        assert!(matches!(g, GraphError::Io(_)));
        assert!(g.to_string().contains("nope"));
    }
}
