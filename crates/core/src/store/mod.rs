//! The sketch store: where the `V × O(log V)` CubeSketches live.
//!
//! One [`SketchStore`] serves the paper's two deployments. What a vertex's
//! sketch is — an exact sparse set below τ, a dense stack above — is the
//! hybrid layer's (`hybrid`, DESIGN.md §12); where a dense stack lives is
//! its node group's (`disk`, §13): resident in RAM (one node a group, no
//! file), or paged through a bounded LRU cache from a pre-allocated file
//! (`max(1, B/sketch_size)` nodes a group, paper §4.1), every block access
//! counted so experiments can verify the hybrid-model I/O claims.
//!
//! The store accepts whole batches of updates bound for one node — the unit
//! of work a Graph Worker pops from the queue — and keeps critical sections
//! short the paper's way (§5.1): the batch kernel runs into a pooled
//! scratch sketch with no lock held, and the lock that guards the target
//! is taken only to XOR the delta in.

pub mod disk;
pub mod epoch;
pub(crate) mod hybrid;
pub mod ram;

pub use disk::{IoBackendConfig, SketchStore};
pub use epoch::EpochOverlay;

use crate::boruvka::RoundSink;
use crate::error::GzError;
use crate::node_sketch::{CubeNodeSketch, NodeSketch, SketchParams, StackMut};
use crate::sparse::edge_indices;
use gz_graph::GraphDigest;
use gz_gutters::{CounterSet, IoStats, WorkerPool};
use gz_sketch::cube::{with_premixed, CubeRound, LaneAccumulators};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Census of the hybrid representation (DESIGN.md §12): how many owned
/// vertices are promoted (dense sketch stacks) vs still sparse (exact
/// toggle sets), and the total live entries across the sparse sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepStats {
    /// Vertices holding a dense sketch stack.
    pub promoted: usize,
    /// Vertices still represented by an exact toggle set.
    pub sparse: usize,
    /// Live neighbor entries summed across all sparse sets.
    pub sparse_entries: usize,
}

impl RepStats {
    /// Resident bytes of the sparse side (4 bytes per live entry).
    pub fn sparse_bytes(&self) -> usize {
        self.sparse_entries * 4
    }
}

/// What one or more stores hold and moved, summed: a fleet's in-process
/// shards, or one shard worker's store. `--stats` and a worker's exit line
/// print it.
#[derive(Debug, Default)]
pub struct StoreCensus {
    /// Promoted and sparse vertices, and the sparse sets' entries.
    pub rep: RepStats,
    /// Sketch bytes as the memory accounting counts them
    /// ([`SketchStore::sketch_bytes`]).
    pub sketch_bytes: usize,
    /// Disk-store I/O, merged over the stores that touch disk (`None` when
    /// none does).
    pub io: Option<IoStats>,
}

impl StoreCensus {
    /// The census of `stores`, summed.
    pub fn of<'a>(stores: impl IntoIterator<Item = &'a SketchStore>) -> StoreCensus {
        let mut census = StoreCensus::default();
        for store in stores {
            let rep = store.rep_stats();
            census.rep.promoted += rep.promoted;
            census.rep.sparse += rep.sparse;
            census.rep.sparse_entries += rep.sparse_entries;
            census.sketch_bytes += store.sketch_bytes();
            if let Some(io) = store.io_stats() {
                census.io.get_or_insert_with(IoStats::default).merge_from(&io);
            }
        }
        census
    }
}

/// The set of vertices a store holds sketches for, with a dense slot
/// numbering.
///
/// A single-node system stores every vertex ([`NodeSet::all`]); a shard
/// stores only its residue class (`owner(v) = v % num_shards`,
/// [`NodeSet::strided`]). Slots are dense — slot `i` holds node
/// `offset + i·stride` — so a shard's sketch footprint scales with the
/// number of *owned* vertices, not the universe size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSet {
    /// First owned node (a shard's index).
    offset: u32,
    /// Distance between consecutive owned nodes (the shard count; 1 = all).
    stride: u32,
    /// Vertex universe size.
    num_nodes: u64,
}

impl NodeSet {
    /// Every vertex of a `num_nodes` universe.
    pub fn all(num_nodes: u64) -> Self {
        NodeSet { offset: 0, stride: 1, num_nodes }
    }

    /// The residue class `{v : v ≡ offset (mod stride)}` of a `num_nodes`
    /// universe — shard `offset` of `stride` shards.
    pub fn strided(num_nodes: u64, offset: u32, stride: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset must be a residue modulo stride");
        NodeSet { offset, stride, num_nodes }
    }

    /// Number of owned nodes (= store slots).
    pub fn len(&self) -> usize {
        let above = self.num_nodes.saturating_sub(self.offset as u64);
        above.div_ceil(self.stride as u64) as usize
    }

    /// True if the set owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this set owns `node`.
    #[inline]
    pub fn contains(&self, node: u32) -> bool {
        (node as u64) < self.num_nodes && node % self.stride == self.offset
    }

    /// Dense slot of an owned `node`. A whole universe (stride 1, one
    /// shard's) skips the division: this is on every record's path.
    #[inline]
    pub fn slot(&self, node: u32) -> usize {
        debug_assert!(self.contains(node), "node {node} not owned by {self:?}");
        match self.stride {
            1 => node as usize,
            stride => ((node - self.offset) / stride) as usize,
        }
    }

    /// Node stored in `slot`.
    #[inline]
    pub fn node(&self, slot: usize) -> u32 {
        self.offset + slot as u32 * self.stride
    }

    /// Owned nodes in slot order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|s| self.node(s))
    }
}

/// Build something backed by a file of its own in `dir` — a disk store, a
/// shard's disk store, a gutter tree — by handing `open` a fresh path. The
/// name is `{stem}_{pid}_{n}.bin`, `n` from a process-wide counter, and the
/// file is claimed with `create_new` before `open` sees it, so two systems
/// sharing a directory never share a file, whatever their seeds; a name
/// left behind by an earlier process with this pid is skipped, never
/// truncated. If `open` fails the claimed file is removed; once it
/// succeeds, what it built owns the file.
pub(crate) fn with_backing_file<T>(
    dir: &Path,
    stem: &str,
    open: impl FnOnce(PathBuf) -> std::io::Result<T>,
) -> std::io::Result<T> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{stem}_{}_{n}.bin", std::process::id()));
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => {
                return open(path.clone()).inspect_err(|_| {
                    let _ = std::fs::remove_file(&path);
                })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

impl SketchStore {
    /// An 8-byte fingerprint of the owned sketch state: the XOR over owned
    /// nodes of `xxh64(serialized stack, node id)`. Serialization is a pure
    /// function of the update multiset, so two deployments fed the same
    /// stream agree whatever their buffering, store, worker count or
    /// sharding — and the XOR of disjoint stores' digests is the digest of
    /// their union, so shards' digests XOR to a single-node system's.
    pub fn state_digest(&self) -> Result<u64, GzError> {
        let mut digest = 0u64;
        self.for_each_serialized(&mut |node, bytes| {
            digest ^= gz_hash::xxh64(bytes, u64::from(node));
            Ok(())
        })?;
        Ok(digest)
    }

    /// The graph digest of every record applied to this store through
    /// [`crate::ingest`] (`gz_graph::digest`), on top of the base a restore
    /// set ([`Self::restore_graph_digest`]). Read after a flush, it covers
    /// every update the store was handed.
    pub fn graph_digest(&self) -> GraphDigest {
        self.graph().read()
    }

    /// Make `base` this store's graph digest: a restored store's sketches
    /// carry no digest, so whoever restores them hands the one recorded
    /// beside them.
    pub fn restore_graph_digest(&self, base: GraphDigest) {
        self.graph().reset_to(base);
    }

    /// Stream the round-`round` slice of every owned, still-`live` node
    /// into `sink`, one vertex at a time, on the calling thread. A sparse
    /// vertex (hybrid representation) holds no slice, so its exact set is
    /// replayed into a scratch slice for the call — bit-identical to dense
    /// state. Queries do not come this way: [`Self::stream_round_parallel`]
    /// folds sparse vertices in place, without building slices.
    pub fn stream_round(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        sink: &mut dyn FnMut(u32, CubeRound<'_>),
    ) -> Result<(), GzError> {
        let params = self.params();
        let mut slice = params.families[round].new_sketch();
        let mut indices = Vec::new();
        let mut acc = LaneAccumulators::new();
        self.for_each_sparse(live, None, &mut |node, set| {
            indices.clear();
            indices.extend(edge_indices(node, set.neighbors().iter().copied(), params.num_nodes));
            slice.clear();
            with_premixed(&indices, |batch| slice.update_batch_premixed(batch, &mut acc));
            sink(node, slice.view());
        });
        self.stream_round_dense(round, live, None, sink)
    }
}

// ---------------------------------------------------------------------------
// Round-slice sketch sources (the streaming query abstraction)
// ---------------------------------------------------------------------------

/// A provider of per-round node-sketch slices for the round-driven Borůvka
/// engine (paper §4.2, Figure 9).
///
/// Round `r` of the query needs only round `r`'s column of each live
/// vertex's sketch stack, so a source serves one round at a time instead of
/// materializing `V` full sketches: peak query memory becomes
/// `O(live components × one round sketch)` plus whatever the source
/// buffers, which is what preserves the disk store's RAM budget `M` at
/// query time.
pub trait SketchSource {
    /// Rounds available per node sketch stack.
    fn num_rounds(&self) -> usize;

    /// Sketch bytes the source held resident while serving the most recent
    /// round (in-flight read buffers, gathered frames, or a full
    /// materialization); the engine adds its accumulators to this for
    /// peak-memory accounting.
    fn resident_bytes(&self) -> usize;

    /// Fold round `round` of every node whose supernode is still `live`
    /// into the engine's accumulators, with the delivery partitioned across
    /// `pool`'s workers, each folding into its own sink
    /// (`sinks.len() == pool.threads()`). Each node must be folded exactly
    /// once, into *any* sink and in any order — the engine XOR-merges the
    /// sinks, so neither partitioning nor order can change results. Sources
    /// may use `live` to skip I/O for fully retired node groups.
    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_>>],
    ) -> Result<(), GzError>;
}

/// The snapshot-mode source: a fully materialized `V`-sized sketch vector
/// (what [`SketchStore::snapshot`] produces). Resident bytes are the whole
/// materialization — the quantity the streaming sources exist to avoid.
pub struct MaterializedSource {
    sketches: Vec<Option<NodeSketch>>,
    rounds: usize,
    resident: usize,
}

impl MaterializedSource {
    /// Wrap a per-vertex sketch vector (index = vertex id).
    pub fn new(sketches: Vec<Option<NodeSketch>>) -> Self {
        let rounds = sketches.iter().flatten().map(|s| s.num_rounds()).max().unwrap_or(0);
        let resident = sketches.iter().flatten().map(|s| s.payload_bytes()).sum();
        MaterializedSource { sketches, rounds, resident }
    }
}

impl SketchSource for MaterializedSource {
    fn num_rounds(&self) -> usize {
        self.rounds
    }

    fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_>>],
    ) -> Result<(), GzError> {
        let sketches = &self.sketches;
        stream_stacks_into(sketches.len(), &|v| sketches[v].as_ref(), round, live, pool, sinks);
        Ok(())
    }
}

/// The partition-and-fold loop shared by the materialized and
/// borrowed-slice sources: worker `w` folds the live round slices of its
/// contiguous range of per-vertex stacks (absent stacks are skipped) into
/// its own sink.
fn stream_stacks_into<'a>(
    len: usize,
    stack_at: &(dyn Fn(usize) -> Option<&'a NodeSketch> + Sync),
    round: usize,
    live: &(dyn Fn(u32) -> bool + Sync),
    pool: &WorkerPool,
    sinks: &[Mutex<RoundSink<'_>>],
) {
    pool.run(&|w| {
        let range = pool.partition(len, w);
        if range.is_empty() {
            return;
        }
        let mut sink = sinks[w].lock();
        for v in range {
            let Some(stack) = stack_at(v) else { continue };
            let v = v as u32;
            if round < stack.num_rounds() && live(v) {
                sink.fold(v, stack.round(round));
            }
        }
    });
}

/// A borrowing source over a caller-owned sketch slice (index = vertex id):
/// queries fold straight from the resident stacks without cloning them (the
/// engine's tests query hand-built stacks through it).
pub struct SliceSource<'a> {
    sketches: &'a [NodeSketch],
    rounds: usize,
}

impl<'a> SliceSource<'a> {
    /// Wrap a borrowed per-vertex sketch slice.
    pub fn new(sketches: &'a [NodeSketch]) -> Self {
        let rounds = sketches.iter().map(|s| s.num_rounds()).max().unwrap_or(0);
        SliceSource { sketches, rounds }
    }
}

impl SketchSource for SliceSource<'_> {
    fn num_rounds(&self) -> usize {
        self.rounds
    }

    fn resident_bytes(&self) -> usize {
        // The stacks belong to the caller and stay resident regardless of
        // the query; the query itself holds only borrows.
        0
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_>>],
    ) -> Result<(), GzError> {
        let sketches = self.sketches;
        stream_stacks_into(sketches.len(), &|v| Some(&sketches[v]), round, live, pool, sinks);
        Ok(())
    }
}

/// The store-aware streaming source: rounds are folded straight out of a
/// [`SketchStore`] (windows of positioned group reads when the store is
/// disk-backed; borrowed in-place slices when it is in RAM; exact sets
/// XORed in place for sparse vertices).
pub struct StoreRoundSource<'a> {
    store: &'a SketchStore,
    resident: usize,
}

impl<'a> StoreRoundSource<'a> {
    /// Wrap a store's live state. The caller must have quiesced ingestion
    /// (flushed the buffering system and drained the work queue) first.
    pub fn new(store: &'a SketchStore) -> Self {
        StoreRoundSource { store, resident: 0 }
    }
}

impl SketchSource for StoreRoundSource<'_> {
    fn num_rounds(&self) -> usize {
        self.store.params().rounds()
    }

    fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_>>],
    ) -> Result<(), GzError> {
        self.resident = self.store.round_stream_resident_bytes(round, sinks.len());
        self.store.stream_round_parallel(round, live, None, pool, sinks)
    }
}

/// Reusable scratch node sketches for the delta-sketch discipline (paper
/// §5.1), one pool per store: a Graph Worker checks a zeroed sketch out,
/// builds a batch's delta in it with no store lock held, merges the delta
/// under the lock that guards the target, and recycles the scratch — so no
/// node-sized allocation happens on the hot path once the pool is as deep
/// as the worker count.
pub(crate) struct ScratchPool {
    params: Arc<SketchParams>,
    pool: Mutex<Vec<CubeNodeSketch>>,
}

impl ScratchPool {
    pub(crate) fn new(params: Arc<SketchParams>) -> Self {
        ScratchPool { params, pool: Mutex::new(Vec::new()) }
    }

    /// Check out an all-zero scratch sketch; return it with
    /// [`Self::recycle`].
    pub(crate) fn checkout(&self) -> CubeNodeSketch {
        self.pool.lock().pop().unwrap_or_else(|| self.params.new_node_sketch())
    }

    /// Zero a scratch sketch — one fill of its words — and park it for the
    /// next batch.
    pub(crate) fn recycle(&self, mut scratch: CubeNodeSketch) {
        scratch.clear_all();
        self.pool.lock().push(scratch);
    }

    /// Build the delta sketch of `records` (bound for `node`) through the
    /// batch kernel, then hand it to `merge`, which takes whatever lock
    /// guards the target for the XOR only.
    pub(crate) fn with_delta<R>(
        &self,
        node: u32,
        records: &[u32],
        merge: impl FnOnce(&CubeNodeSketch) -> R,
    ) -> R {
        let mut scratch = self.checkout();
        apply_records(scratch.view_mut(), node, records, self.params.num_nodes);
        let merged = merge(&scratch);
        self.recycle(scratch);
        merged
    }

    /// Scratch sketches currently parked (test instrumentation for the
    /// reuse discipline).
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.pool.lock().len()
    }
}

/// Stripes of a store's graph digest: more than the workers that apply
/// batches at once on the hosts this runs on, so two rarely share one.
const DIGEST_STRIPES: usize = 8;

/// One stripe, alone on its cache lines.
#[repr(align(64))]
struct DigestStripe(Mutex<GraphDigest>);

/// A store's graph digest, one stripe per applying thread (by
/// [`thread_stripe`]) and XOR-merged on read: a record costs one hash and a
/// bit flip in the thread's own stripe, and a batch one uncontended lock —
/// no atomic operation and no shared cache line written per record.
pub(crate) struct GraphDigestStripes {
    stripes: [DigestStripe; DIGEST_STRIPES],
}

impl GraphDigestStripes {
    pub(crate) fn new() -> Self {
        GraphDigestStripes {
            stripes: std::array::from_fn(|_| DigestStripe(Mutex::new(GraphDigest::ZERO))),
        }
    }

    /// Flip the bit of every record of `records` bound for `node` that the
    /// store applies (self-loops are dropped, as [`decode_records_into`]
    /// drops them).
    pub(crate) fn record(&self, node: u32, records: &[u32], num_nodes: u64) {
        let mut digest = self.stripes[thread_stripe()].0.lock();
        for &other in records {
            if other != node {
                digest.flip(node, crate::node_sketch::update_index(node, other, num_nodes));
            }
        }
    }

    /// The XOR of the stripes.
    pub(crate) fn read(&self) -> GraphDigest {
        let mut digest = GraphDigest::ZERO;
        for stripe in &self.stripes {
            digest.merge(&stripe.0.lock());
        }
        digest
    }

    /// Make `base` the digest: the first stripe holds it, the rest nothing.
    pub(crate) fn reset_to(&self, base: GraphDigest) {
        for (i, stripe) in self.stripes.iter().enumerate() {
            *stripe.0.lock() = if i == 0 { base } else { GraphDigest::ZERO };
        }
    }
}

/// This thread's digest stripe, dealt round-robin on first use.
fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % DIGEST_STRIPES;
    }
    STRIPE.with(|s| *s)
}

std::thread_local! {
    /// Per-thread index scratch for batch decoding: one buffer per Graph
    /// Worker, reused across batches so the hot path allocates nothing.
    /// Holds plain `u64` indices, so it is safe to share across stores
    /// with different sketch parameters.
    static INDEX_SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's cleared index-scratch buffer (the decode
/// workspace of [`apply_records`] and the grouped ingestion path).
pub(crate) fn with_index_scratch<R>(f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    INDEX_SCRATCH.with(|cell| {
        let mut indices = cell.borrow_mut();
        indices.clear();
        f(&mut indices)
    })
}

/// Decode a batch of records bound for `node` into characteristic-vector
/// indices, appending to `out`. A record is the other endpoint
/// ([`crate::node_sketch::encode_other`]); self-loops are dropped
/// (defensive: invalid stream updates).
#[inline]
pub(crate) fn decode_records_into(node: u32, records: &[u32], num_nodes: u64, out: &mut Vec<u64>) {
    out.reserve(records.len());
    for &other in records {
        if other != node {
            out.push(crate::node_sketch::update_index(node, other, num_nodes));
        }
    }
}

/// Apply a batch of records to a node sketch through the batch kernel:
/// decode to indices **once per batch** (not once per round), then hand them
/// to the stack, which premixes them once and drives each round's kernel.
/// Bit-identical to per-record singles.
#[inline]
pub(crate) fn apply_records(mut sketch: StackMut<'_>, node: u32, records: &[u32], num_nodes: u64) {
    with_index_scratch(|indices| {
        decode_records_into(node, records, num_nodes, indices);
        sketch.update_batch(indices);
    });
}

#[cfg(test)]
mod node_set_tests {
    use super::NodeSet;

    #[test]
    fn all_covers_every_node_densely() {
        let s = NodeSet::all(10);
        assert_eq!(s.len(), 10);
        for v in 0..10u32 {
            assert!(s.contains(v));
            assert_eq!(s.slot(v), v as usize);
            assert_eq!(s.node(v as usize), v);
        }
        assert!(!s.contains(10));
    }

    #[test]
    fn strided_is_the_residue_class() {
        // 10 nodes, 3 shards: shard 1 owns {1, 4, 7}.
        let s = NodeSet::strided(10, 1, 3);
        assert_eq!(s.iter().collect::<Vec<u32>>(), vec![1, 4, 7]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(4) && !s.contains(5) && !s.contains(10));
        assert_eq!(s.slot(7), 2);
        assert_eq!(s.node(2), 7);
    }

    #[test]
    fn strided_lengths_partition_the_universe() {
        for n in [1u64, 2, 7, 64, 100] {
            for k in [1u32, 2, 3, 7, 16] {
                let total: usize = (0..k).map(|i| NodeSet::strided(n, i, k).len()).sum();
                assert_eq!(total as u64, n, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_sets() {
        let s = NodeSet::strided(2, 3, 5);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
