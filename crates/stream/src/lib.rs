//! Graph-stream substrate for the GraphZeppelin reproduction.
//!
//! The paper's evaluation (§6.1, Figure 10) runs on streams synthesized from
//! Graph500-style Kronecker graphs plus four real-world graphs. This crate
//! builds all of that from scratch:
//!
//! - [`update`] — the stream update model (`((u,v), Δ)`, paper §2.1).
//! - [`kronecker`] — dense stochastic-Kronecker generator (the `kronNN`
//!   datasets: ~half of all possible edges present) and a classic R-MAT
//!   sampler for sparse skewed graphs.
//! - [`gnp`] — Erdős–Rényi `G(n, m)` (stand-in for sparse SNAP graphs).
//! - [`preferential`] — preferential attachment (stand-in for the dense
//!   power-law google-plus / web-uk graphs).
//! - [`mod@streamify`] — turns a target graph into a random insert/delete stream
//!   with the paper's four guarantees (§6.1).
//! - [`mod@format`] — binary on-disk stream format with buffered readers/writers.
//! - [`catalog`] — the named datasets of Figure 10 (plus scaled-down
//!   variants used by tests and the default benchmark scale).
//! - [`wire`] — the framed, versioned coordinator ↔ shard-worker protocol
//!   (the §8 cluster outlook made concrete).

pub mod catalog;
pub mod format;
pub mod gnp;
pub mod kronecker;
pub mod preferential;
pub mod streamify;
pub mod update;
pub mod wire;

pub use catalog::{Dataset, GeneratorSpec};
pub use streamify::{streamify, StreamifyConfig};
pub use update::{EdgeUpdate, UpdateKind};
pub use wire::{SketchEntry, WireMessage, PROTOCOL_VERSION};
