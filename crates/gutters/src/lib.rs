//! Buffering substrate (paper §4–5, Figures 7–8).
//!
//! Fine-grained stream updates have no locality: applying each one to its two
//! node sketches immediately costs a cache miss per subsketch in RAM and
//! `Ω(1)` I/Os on disk (paper Observation 1). GraphZeppelin instead routes
//! every update through a *buffering system* that emits large per-node
//! batches:
//!
//! - [`work_queue`] — the bounded producer/consumer queue between the
//!   buffering system and the Graph Workers (capacity 8·g, paper §5.1).
//! - [`leaf`] — leaf-only gutters: one in-RAM buffer per graph node, used
//!   when memory allows (`M > V·B`); [`GutterSet`] hands batches to its
//!   caller, [`LeafGutters`] pushes them onto the work queue.
//! - [`tree`] — the on-disk gutter tree (a simplified buffer tree, paper
//!   §4.1): internal nodes with fixed-size disk buffers, recursive flushes,
//!   leaf gutters sized to the node sketch; [`BufferTree`] hands batches to
//!   its caller, [`GutterTree`] pushes them onto the work queue.
//! - [`stats`] — the counter core: I/O accounting (the measurable analogue
//!   of the paper's hybrid-model I/O complexity claims) and every other
//!   counter set the system keeps, declared through one form.
//! - [`worker_pool`] — a persistent fork-join pool for data-parallel phases
//!   (the streaming Borůvka query engine's per-round fold/sample/read
//!   dispatch, and the in-place flush of either buffering system).

pub mod leaf;
pub mod stats;
pub mod tree;
pub mod work_queue;
pub mod worker_pool;

pub use leaf::{GutterPoolStats, GutterSet, LeafGutters};
pub use stats::{
    Counter, CounterSet, Fold, IngestCounters, IoStats, LinkStats, RecoveryStats, ServeStats,
    ShardServeStats,
};
pub use tree::{BufferTree, GutterTree, GutterTreeConfig};
pub use work_queue::{Batch, WorkQueue};
pub use worker_pool::WorkerPool;

/// A buffering system: ingests `(destination node, other endpoint)` records
/// and emits per-node batches into a [`WorkQueue`].
///
/// The two implementations mirror the paper's §5.1: [`LeafGutters`] when the
/// gutters fit in RAM, [`GutterTree`] when they must live on disk.
pub trait BufferingSystem {
    /// Buffer one update bound for `dst` (the paper's
    /// `buffer_insert({dst, other})`).
    fn insert(&mut self, dst: u32, other: u32);

    /// Flush every buffered update out to the work queue (the start of
    /// query processing, paper Figure 9 `force_flush`).
    fn force_flush(&mut self);

    /// Total updates currently buffered (not yet emitted).
    fn buffered_len(&self) -> usize;
}
