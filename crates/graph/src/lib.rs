//! Graph substrate for the GraphZeppelin reproduction.
//!
//! This crate holds everything the streaming system and its evaluation need
//! to talk about *graphs themselves*:
//!
//! - [`edge`] — vertex/edge types and the triangular codec that maps an
//!   undirected edge to its index in a node's characteristic vector
//!   (paper §2.2: vectors of length `C(V,2)`).
//! - [`adjacency_matrix`] — the bit-packed adjacency matrix the paper uses as
//!   its ground-truth mirror in the §6.3 reliability experiment.
//! - [`adjacency_list`] — a plain adjacency list, the "explicit
//!   representation" whose size streaming sketches undercut.
//! - [`connectivity`] — deterministic connected-components algorithms (DSU
//!   scan and BFS) used as oracles by tests and experiments.
//! - [`digest`] — the graph digest, an XOR-linear fingerprint of a stream's
//!   update multiset that every deployment fed the stream reads alike.
//! - [`stats`] — degree/density summaries used by the dataset catalog and
//!   Figure 1.
//! - [`interner`] — string→vertex-id mapping for streams with non-integer
//!   node names (paper §2.2).

pub mod adjacency_list;
pub mod adjacency_matrix;
pub mod bridges;
pub mod connectivity;
pub mod digest;
pub mod edge;
pub mod interner;
pub mod stats;

pub use adjacency_list::AdjacencyList;
pub use adjacency_matrix::AdjacencyMatrix;
pub use connectivity::{connected_components_bfs, connected_components_dsu, spanning_forest};
pub use digest::{GraphDigest, GRAPH_DIGEST_BITS, GRAPH_DIGEST_BYTES};
pub use edge::{edge_index, edge_index_count, index_to_edge, Edge, VertexId};
pub use interner::VertexInterner;
