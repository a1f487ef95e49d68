//! **GraphZeppelin**: storage-friendly sketching for connected components on
//! dynamic graph streams — a from-scratch Rust reproduction of the SIGMOD '22
//! system (Tench, West, Zhang et al.).
//!
//! GraphZeppelin maintains, for every vertex, `O(log V)` CubeSketches of its
//! characteristic edge-vector — `O(V log^3 V)` bits in total, asymptotically
//! less than any lossless representation of a dense graph — and answers
//! connectivity queries by emulating Boruvka's algorithm over those sketches.
//! Stream ingestion is batched through node-based gutters and applied by a
//! pool of Graph Workers, which is what makes the structure fast in RAM and
//! viable on SSD (the paper's *hybrid streaming model*).
//!
//! # Quick start
//!
//! ```
//! use graph_zeppelin::{GraphZeppelin, GzConfig};
//!
//! // A 64-vertex graph stream, all defaults (in-RAM sketches).
//! let mut gz = GraphZeppelin::new(GzConfig::in_ram(64)).unwrap();
//!
//! // Insert a triangle and a separate edge, then delete one triangle edge.
//! gz.edge_update(0, 1);
//! gz.edge_update(1, 2);
//! gz.edge_update(2, 0);
//! gz.edge_update(10, 11);
//! gz.edge_update(2, 0); // second toggle = deletion
//!
//! let cc = gz.connected_components().unwrap();
//! assert_eq!(cc.label(0), cc.label(1));
//! assert_eq!(cc.label(1), cc.label(2));
//! assert_eq!(cc.label(10), cc.label(11));
//! assert_ne!(cc.label(0), cc.label(10));
//! ```
//!
//! # Modules
//!
//! - [`config`] — system configuration (workers, buffering, sketch store).
//! - [`node_sketch`] — per-vertex stacks of ℓ0-sketches (one per Boruvka
//!   round).
//! - [`store`] — sketch stores: in-RAM and file-backed (the SSD model).
//! - [`sparse`] — exact small-set vertex representation for the hybrid
//!   sparse/dense store (promotion-by-replay below `sketch_threshold`).
//! - [`ingest`] — the Graph Workers of the ingestion pipeline (Figure 7).
//! - [`boruvka`] — sketch-space Boruvka query processing (Figure 9).
//! - [`system`] — the [`GraphZeppelin`] facade: the system over one
//!   in-process shard.
//! - [`size_model`] — closed-form memory model (Figure 11).
//! - [`bipartiteness`] — streaming bipartiteness on one system over the
//!   double cover (a further CubeSketch application the paper names in
//!   §3.1).
//! - [`edge_connectivity`] — k-edge-connectivity certificates peeled from
//!   `k` systems (another §3.1 application, after Ahn–Guha–McGregor).
//! - [`checkpoint`] — persist and restore the whole sketch state.
//! - [`sharding`] — the system itself, sharded (the §8 outlook): the
//!   batching router that is the buffering layer, per-shard pipelines, and
//!   in-process / socket transports speaking the `gz_stream::wire`
//!   protocol.

#![forbid(unsafe_code)]

pub mod bipartiteness;
pub mod boruvka;
pub mod checkpoint;
pub mod config;
pub mod edge_connectivity;
pub mod error;
pub mod ingest;
pub mod node_sketch;
pub mod sharding;
pub mod size_model;
pub mod sparse;
pub mod store;
pub mod system;

pub use bipartiteness::{BipartitenessAnswer, BipartitenessTester};
pub use boruvka::{boruvka_rounds, boruvka_spanning_forest, BoruvkaOutcome, RoundSink};
pub use checkpoint::{CheckpointHeader, ServeManifest, UpdateWal};
pub use config::{BufferStrategy, GutterCapacity, GzConfig, LockingStrategy, StoreBackend};
pub use edge_connectivity::{ForestCertificate, KForestSketcher};
pub use error::{GzError, LinkError, TransportError, TransportErrorKind};
pub use gz_graph::GraphDigest;
pub use node_sketch::{CubeNodeSketch, NodeSketch};
pub use sharding::{
    connect_shard_tcp, new_pipeline_resuming, serve_shard_connection, shard_checkpoint_file_name,
    InProcessTransport, Link, Recovery, ReplayLog, RetryPolicy, ShardConfig, ShardLink,
    ShardPipeline, ShardRouter, ShardServeStats, ShardTransport, ShardView, ShardedEpoch,
    ShardedGraphZeppelin, SocketTransport, Stream, TransportTimeouts,
};
pub use sparse::SparseSet;
pub use store::{
    EpochOverlay, IoBackendConfig, MaterializedSource, NodeSet, RepStats, SketchSource,
    SliceSource, StoreCensus, StoreRoundSource,
};
pub use system::{ConnectedComponents, GraphZeppelin};
