//! Typed errors for the online serving stack.
//!
//! The serving crate is the hot path: zoomer-lint rule L001 forbids
//! `unwrap`/`expect`/`panic!` in its non-test code, so every fallible
//! request-path operation reports a [`ServingError`] instead of aborting the
//! process. A malformed request must cost its caller an error response, not
//! the whole server.

use zoomer_graph::{GraphError, NodeId};

/// Why a serving operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServingError {
    /// A request referenced a node id outside the loaded graph.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
    /// A request asked for more results than the server will rank for one
    /// query ([`crate::server::MAX_TOP_K`]).
    TopKOutOfRange { top_k: u32, max: u32 },
    /// A query vector's width does not match the index dimension.
    DimensionMismatch { expected: usize, got: usize },
    /// A build- or load-time parameter was unusable.
    InvalidConfig(&'static str),
    /// The request's latency budget was already spent at the named stage.
    /// Only raised at admission — once a batch is admitted the server
    /// degrades (caps the probe, falls back to the inverted index) rather
    /// than wasting the work it has already done.
    DeadlineExceeded { stage: &'static str },
    /// A load-harness worker thread panicked.
    WorkerPanicked(&'static str),
    /// An internal invariant broke; the message names it.
    Internal(&'static str),
    /// The underlying graph engine reported an error.
    Graph(GraphError),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            ServingError::TopKOutOfRange { top_k, max } => {
                write!(f, "top_k {top_k} out of range (at most {max} per query)")
            }
            ServingError::DimensionMismatch { expected, got } => {
                write!(f, "query width mismatch: index dim {expected}, got {got}")
            }
            ServingError::InvalidConfig(msg) => write!(f, "invalid serving config: {msg}"),
            ServingError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at {stage}")
            }
            ServingError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            ServingError::Internal(msg) => write!(f, "internal serving invariant broken: {msg}"),
            ServingError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ServingError {
    fn from(e: GraphError) -> Self {
        ServingError::Graph(e)
    }
}
