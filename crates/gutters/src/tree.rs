//! The on-disk gutter tree (paper §4.1, §5.1).
//!
//! A simplified buffer tree: an in-RAM root buffer, internal tree nodes with
//! fixed-size pre-allocated disk buffers, and one leaf gutter per graph node.
//! Inserts go to the root; a full buffer is partitioned among its children
//! in one stable counting pass — bucketed by child index, never compared, so
//! each child gets its records in arrival order — recursively flushing any
//! child that would overflow; a full **leaf gutter** is emitted as a batch
//! for its graph node. Because leaf data never persists across emits, no
//! rebalancing is ever needed (paper §4.1), and the total I/O for a stream
//! of length `N` is `sort(N)` (Lemma 4).
//!
//! The depth is the least that reaches every leaf at the fan-out, except
//! that a top internal level of at most two nodes folds into the root,
//! which then partitions straight into the level below (at most twice the
//! fan-out children, so each root write is still at least half a block).
//! In the block model the root's writes then cost `n₁·N/B` blocks against
//! the `3·N/B` of the folded level's write, read and re-write, so the fold
//! pays exactly when its node count `n₁ ≤ 2`: 8192 leaves at fan-out 64
//! are two levels deep, 16384 three.
//!
//! [`BufferTree`] is the tree alone, as [`crate::GutterSet`] is the leaf
//! gutters alone: a full leaf goes to a sink its caller passes, the moment
//! it fills, while the cascade that filled it is still running — so a sink
//! that blocks (a bounded queue's push) holds the cascade back with it. A
//! flush whose store is in this process ([`BufferTree::drain_in_place`])
//! applies the last internal level where it lies, on a fork-join pool: each
//! node is read once and every leaf handed its stored records, then those in
//! transit. Lemma 4's I/O is unchanged except the final leaf round trip,
//! which is never written. [`GutterTree`] is the [`BufferingSystem`] whose
//! sink is the push onto the Graph Workers' [`WorkQueue`].
//!
//! Paper defaults: 8 MB internal buffers written in 16 KB blocks, giving a
//! fan-out of 512; each leaf gutter is twice the node-sketch size.

use crate::leaf::{push_to, CLAIM};
use crate::stats::IoStats;
use crate::work_queue::{Batch, WorkQueue};
use crate::worker_pool::WorkerPool;
use crate::BufferingSystem;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Configuration of a gutter tree ([`BufferTree`], [`GutterTree`]).
#[derive(Debug, Clone)]
pub struct GutterTreeConfig {
    /// Number of graph nodes (= leaf gutters).
    pub num_nodes: u32,
    /// Records a leaf gutter holds before emitting a batch
    /// (paper: 2× node-sketch size worth).
    pub leaf_capacity_updates: usize,
    /// Internal node buffer size in bytes (paper: 8 MB).
    pub buffer_bytes: usize,
    /// Fan-out of internal nodes (paper: buffer/block = 512).
    pub fanout: usize,
    /// Backing file path (pre-allocated at construction).
    pub path: PathBuf,
}

impl GutterTreeConfig {
    /// Small parameters for tests: exercises multi-level trees on tiny
    /// inputs.
    pub fn small_for_tests(num_nodes: u32, path: PathBuf) -> Self {
        GutterTreeConfig {
            num_nodes,
            leaf_capacity_updates: 8,
            buffer_bytes: 16 * RECORD_BYTES, // 16-record buffers
            fanout: 4,
            path,
        }
    }
}

/// A buffered update: (destination node, other endpoint).
type Record = (u32, u32);

const RECORD_BYTES: usize = 8; // (dst: u32, other: u32)
const LEAF_RECORD_BYTES: usize = 4; // leaf gutters store only `other`

/// The on-disk gutter tree, handing each full leaf to the caller's sink.
/// An error — the sink's, or the backing file's — returns at once; the
/// records the interrupted cascade was carrying go with it, so a caller
/// that sees one must treat the tree as failed.
pub struct BufferTree {
    config: GutterTreeConfig,
    file: File,
    stats: Arc<IoStats>,
    /// Root buffer (RAM) of (dst, other) records.
    root: Vec<Record>,
    root_capacity: usize,
    /// Depth: number of hops root→leaf (≥ 1). Internal levels are 1..depth.
    depth: u32,
    /// Per-level leaf span of one node at that level: every leaf at the
    /// root (level 0), `fanout^(depth-k)` below it.
    level_span: Vec<u64>,
    /// Flattened internal-node fill counts (levels 1..depth).
    internal_fill: Vec<usize>,
    /// Start of each internal level in `internal_fill` / file regions.
    level_base: Vec<usize>,
    /// Per-leaf fill counts.
    leaf_fill: Vec<usize>,
    /// File offset where leaf regions begin.
    leaf_region_start: u64,
    buffered: usize,
}

impl BufferTree {
    /// Build the tree, pre-allocating its backing file; its I/O is counted
    /// in `stats`, which trees may share.
    pub fn new(config: GutterTreeConfig, stats: Arc<IoStats>) -> io::Result<Self> {
        assert!(config.fanout >= 2, "fan-out must be at least 2");
        let leaves = config.num_nodes as u64;
        let fanout = config.fanout as u64;

        // depth = smallest d ≥ 1 with fanout^d ≥ leaves, less a top level of
        // at most two nodes (`leaves ≤ 2·fanout^(d-1)`), folded into the root
        // (see the module docs).
        let mut depth = 1u32;
        let mut below_top = 1u64; // fanout^(depth-1)
        while below_top.saturating_mul(fanout) < leaves {
            below_top = below_top.saturating_mul(fanout);
            depth += 1;
        }
        if depth > 1 && leaves <= below_top.saturating_mul(2) {
            depth -= 1;
        }

        // level_span[k] = leaves covered by one node at level k; the root
        // covers them all.
        let mut level_span = vec![0u64; depth as usize + 1];
        level_span[depth as usize] = 1;
        for k in (1..depth as usize).rev() {
            level_span[k] = level_span[k + 1].saturating_mul(fanout);
        }
        level_span[0] = leaves;

        // Internal levels 1..depth: node counts and bases.
        let mut level_base = Vec::new();
        let mut total_internal = 0usize;
        #[allow(clippy::needless_range_loop)]
        for k in 1..depth as usize {
            level_base.push(total_internal);
            total_internal += leaves.div_ceil(level_span[k]) as usize;
        }
        level_base.push(total_internal); // sentinel

        let leaf_region_start = (total_internal * config.buffer_bytes) as u64;
        let file_len =
            leaf_region_start + leaves * (config.leaf_capacity_updates * LEAF_RECORD_BYTES) as u64;

        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&config.path)?;
        file.set_len(file_len)?;

        let root_capacity = (config.buffer_bytes / RECORD_BYTES).max(1);
        Ok(BufferTree {
            root: Vec::with_capacity(root_capacity),
            root_capacity,
            depth,
            level_span,
            internal_fill: vec![0; total_internal],
            level_base,
            leaf_fill: vec![0; leaves as usize],
            leaf_region_start,
            stats,
            file,
            buffered: 0,
            config,
        })
    }

    /// Records buffered and not yet emitted.
    pub fn buffered_len(&self) -> usize {
        self.buffered
    }

    /// Buffer `other` for `dst` (the paper's `buffer_insert`); a full root
    /// cascades down, and every leaf that fills on the way leaves through
    /// `sink` there and then.
    #[inline]
    pub fn insert<E: From<io::Error>>(
        &mut self,
        dst: u32,
        other: u32,
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert!(dst < self.config.num_nodes);
        self.root.push((dst, other));
        self.buffered += 1;
        if self.root.len() >= self.root_capacity {
            self.flush_root(sink)?;
        }
        Ok(())
    }

    /// Emit every buffered record through `sink`, each nonempty leaf as one
    /// batch (paper Figure 9's `force_flush`).
    pub fn force_flush<E: From<io::Error>>(
        &mut self,
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        self.cascade(self.depth as usize, sink)?;
        for leaf in 0..self.config.num_nodes {
            if self.leaf_fill[leaf as usize] == 0 {
                continue;
            }
            let mut others = Vec::new();
            self.read_leaf(leaf, &mut others)?;
            self.leaf_fill[leaf as usize] = 0;
            self.buffered -= others.len();
            sink(Batch { node: leaf, others })?;
        }
        Ok(())
    }

    /// I/O counters for this tree.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Tree depth (root→leaf hops).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    fn internal_capacity(&self) -> usize {
        self.config.buffer_bytes / RECORD_BYTES
    }

    /// Index of the level-`k` internal node covering leaf `t` (k ≥ 1).
    fn node_at(&self, k: usize, leaf: u64) -> usize {
        self.level_base[k - 1] + (leaf / self.level_span[k]) as usize
    }

    fn internal_offset(&self, node_index: usize) -> u64 {
        (node_index * self.config.buffer_bytes) as u64
    }

    fn leaf_offset(&self, leaf: u32) -> u64 {
        self.leaf_region_start
            + leaf as u64 * (self.config.leaf_capacity_updates * LEAF_RECORD_BYTES) as u64
    }

    fn write_internal(&mut self, node_index: usize, records: &[Record]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES);
        for &(d, o) in records {
            bytes.extend_from_slice(&d.to_le_bytes());
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        let off = self.internal_offset(node_index)
            + (self.internal_fill[node_index] * RECORD_BYTES) as u64;
        self.file.write_all_at(&bytes, off)?;
        self.stats.record_write(bytes.len() as u64);
        self.internal_fill[node_index] += records.len();
        Ok(())
    }

    /// Append the records stored in internal node `node_index` to `out`.
    fn read_internal(&self, node_index: usize, out: &mut Vec<Record>) -> io::Result<()> {
        let n = self.internal_fill[node_index];
        if n == 0 {
            return Ok(());
        }
        let mut bytes = vec![0u8; n * RECORD_BYTES];
        self.file.read_exact_at(&mut bytes, self.internal_offset(node_index))?;
        self.stats.record_read(bytes.len() as u64);
        out.extend(bytes.chunks_exact(RECORD_BYTES).map(|c| (le_u32(&c[..4]), le_u32(&c[4..]))));
        Ok(())
    }

    /// Append the records stored in leaf gutter `leaf` to `out`.
    fn read_leaf(&self, leaf: u32, out: &mut Vec<u32>) -> io::Result<()> {
        let fill = self.leaf_fill[leaf as usize];
        if fill == 0 {
            return Ok(());
        }
        let mut bytes = vec![0u8; fill * LEAF_RECORD_BYTES];
        self.file.read_exact_at(&mut bytes, self.leaf_offset(leaf))?;
        self.stats.record_read(bytes.len() as u64);
        out.extend(bytes.chunks_exact(LEAF_RECORD_BYTES).map(le_u32));
        Ok(())
    }

    /// Push records into the level-`k` node whose leaves start at
    /// `first_leaf`; flush it first if it would overflow.
    fn push_to_internal<E: From<io::Error>>(
        &mut self,
        k: usize,
        first_leaf: u64,
        records: &[Record],
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let node_index = self.node_at(k, first_leaf);
        if self.internal_fill[node_index] + records.len() > self.internal_capacity() {
            self.flush_internal(k, first_leaf, records, sink)
        } else {
            Ok(self.write_internal(node_index, records)?)
        }
    }

    /// Flush the level-`k` node whose leaves start at `first_leaf`: stored
    /// records, then `incoming`, are partitioned among its children.
    fn flush_internal<E: From<io::Error>>(
        &mut self,
        k: usize,
        first_leaf: u64,
        incoming: &[Record],
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let node_index = self.node_at(k, first_leaf);
        let mut all = Vec::with_capacity(self.internal_fill[node_index] + incoming.len());
        self.read_internal(node_index, &mut all)?;
        self.internal_fill[node_index] = 0;
        all.extend_from_slice(incoming);
        self.partition_down(k, first_leaf, &all, sink)
    }

    /// Route the records of the level-`k` node whose leaves start at
    /// `first_leaf` to its children (level k+1 or leaves).
    fn partition_down<E: From<io::Error>>(
        &mut self,
        k: usize,
        first_leaf: u64,
        records: &[Record],
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let child_span = self.level_span[k + 1];
        let first_child = first_leaf / child_span;
        let end = first_leaf.saturating_add(self.level_span[k]).min(self.config.num_nodes as u64);
        let children = (end - first_leaf).div_ceil(child_span) as usize;
        let mut parts = Partition::default();
        parts.fill(records, child_span, first_child, children);
        for (child, part) in (first_child..).zip(parts.buckets(0, children)) {
            if part.is_empty() {
                continue;
            }
            if k + 1 == self.depth as usize {
                self.push_to_leaf(child as u32, part, sink)?;
            } else {
                self.push_to_internal(k + 1, child * child_span, part, sink)?;
            }
        }
        Ok(())
    }

    /// Append records to a leaf gutter, emitting a batch when it fills.
    fn push_to_leaf<E: From<io::Error>>(
        &mut self,
        leaf: u32,
        records: &[Record],
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let cap = self.config.leaf_capacity_updates;
        let fill = self.leaf_fill[leaf as usize];
        if fill + records.len() >= cap {
            // Stored records, then the in-transit ones: one batch, in arrival
            // order, and both leave the buffering system here.
            let mut others = Vec::with_capacity(fill + records.len());
            self.read_leaf(leaf, &mut others)?;
            others.extend(records.iter().map(|&(_, o)| o));
            self.leaf_fill[leaf as usize] = 0;
            self.buffered -= others.len();
            sink(Batch { node: leaf, others })?;
        } else {
            let mut bytes = Vec::with_capacity(records.len() * LEAF_RECORD_BYTES);
            for &(_, o) in records {
                bytes.extend_from_slice(&o.to_le_bytes());
            }
            let off = self.leaf_offset(leaf) + (fill * LEAF_RECORD_BYTES) as u64;
            self.file.write_all_at(&bytes, off)?;
            self.stats.record_write(bytes.len() as u64);
            self.leaf_fill[leaf as usize] += records.len();
        }
        Ok(())
    }

    fn flush_root<E: From<io::Error>>(
        &mut self,
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        // Root records are not yet on disk; they are "buffered" only in the
        // accounting sense handled by insert/buffered_len.
        let records = std::mem::take(&mut self.root);
        self.partition_down(0, 0, &records, sink)
    }

    /// Flush the root, then internal levels `1..until` top-down: afterwards
    /// every buffered record sits in a level-`until` node or a leaf.
    fn cascade<E: From<io::Error>>(
        &mut self,
        until: usize,
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        self.flush_root(sink)?;
        for k in 1..until {
            let span = self.level_span[k];
            let nodes = (self.config.num_nodes as u64).div_ceil(span);
            for j in 0..nodes {
                if self.internal_fill[self.level_base[k - 1] + j as usize] > 0 {
                    self.flush_internal(k, j * span, &[], sink)?;
                }
            }
        }
        Ok(())
    }

    /// The flush of a caller whose store is in this process: hand every
    /// buffered record to `apply(node, records)` — once per nonempty leaf,
    /// its stored records then those in transit, on all of `pool`'s workers
    /// with the caller as worker 0 — and return the batches that stood for.
    /// The root and the internal levels above the last cascade down on this
    /// thread first, and a leaf that fills on the way leaves through `sink`,
    /// as any overflow does. Then `pool` claims the last level node by node,
    /// or a depth-1 tree's root — bucketed by leaf here, in RAM — in runs of
    /// leaves. The fills are zeroed once every leaf has been applied: a
    /// panic in `apply` or a failed read is rethrown here with the tree as
    /// the cascade left it. With nothing buffered `apply` is never called.
    pub fn drain_in_place<E: From<io::Error>>(
        &mut self,
        pool: &WorkerPool,
        sink: &mut impl FnMut(Batch) -> Result<(), E>,
        apply: &(dyn Fn(u32, &[u32]) + Sync),
    ) -> Result<usize, E> {
        let last = self.depth as usize - 1;
        if last > 0 {
            self.cascade(last, sink)?;
        }
        if self.buffered == 0 {
            return Ok(0);
        }
        let leaves = self.config.num_nodes as usize;
        let mut root = Partition::default();
        let claim = if last == 0 {
            root.fill(&self.root, 1, 0, leaves);
            CLAIM
        } else {
            self.level_span[last] as usize
        };
        let this = &*self;
        // The cursor publishes nothing: the tree is read-only for the whole
        // dispatch, and `run` orders it against this thread.
        let (cursor, applied) = (AtomicUsize::new(0), AtomicUsize::new(0));
        pool.run(&|_| {
            let (mut records, mut node, mut batch) = (Vec::new(), Partition::default(), Vec::new());
            let mut calls = 0;
            loop {
                let first = cursor.fetch_add(claim, Ordering::Relaxed);
                if first >= leaves {
                    break;
                }
                let end = leaves.min(first + claim);
                // The claimed leaves' records in transit, bucketed from `base`.
                let (transit, base) = if last == 0 {
                    (&root, 0)
                } else {
                    records.clear();
                    this.read_internal(this.node_at(last, first as u64), &mut records)
                        .expect("gutter tree flush failed");
                    node.fill(&records, 1, first as u64, end - first);
                    (&node, first)
                };
                let buckets = transit.buckets(first - base, end - base);
                for (leaf, in_transit) in (first as u32..).zip(buckets) {
                    if in_transit.is_empty() && this.leaf_fill[leaf as usize] == 0 {
                        continue;
                    }
                    batch.clear();
                    this.read_leaf(leaf, &mut batch).expect("gutter tree flush failed");
                    batch.extend(in_transit.iter().map(|&(_, o)| o));
                    apply(leaf, &batch);
                    calls += 1;
                }
            }
            applied.fetch_add(calls, Ordering::Relaxed);
        });
        self.root.clear();
        if last > 0 {
            // The last internal level is the tail of `internal_fill`; the
            // cascade emptied the levels above it.
            self.internal_fill[self.level_base[last - 1]..].fill(0);
        }
        self.leaf_fill.fill(0);
        self.buffered = 0;
        Ok(applied.into_inner())
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("four bytes"))
}

/// Records bucketed by child in one stable counting pass, no comparisons:
/// child `c`'s records are `records[ends[c]..ends[c + 1]]`, in arrival order.
#[derive(Default)]
struct Partition {
    records: Vec<Record>,
    ends: Vec<usize>,
}

impl Partition {
    /// Bucket `records` among `children` children by child index
    /// `dst / span − first` (a child spans fewer leaves than the tree has, so
    /// the division is a u32 one).
    fn fill(&mut self, records: &[Record], span: u64, first: u64, children: usize) {
        let child = |dst: u32| (dst / span as u32 - first as u32) as usize;
        self.ends.clear();
        self.ends.resize(children + 1, 0);
        for &(dst, _) in records {
            self.ends[child(dst)] += 1;
        }
        // Exclusive prefix sums: ends[c] becomes where child c's records start.
        let mut start = 0;
        for end in self.ends.iter_mut() {
            start += std::mem::replace(end, start);
        }
        self.records.clear();
        self.records.resize(records.len(), (0, 0));
        // Scattering advances ends[c] to where child c + 1's records start;
        // one shift right then leaves the bucket bounds.
        for &record in records {
            let slot = &mut self.ends[child(record.0)];
            self.records[*slot] = record;
            *slot += 1;
        }
        self.ends.rotate_right(1);
        self.ends[0] = 0;
    }

    /// The records of children `from..to`, child by child.
    fn buckets(&self, from: usize, to: usize) -> impl Iterator<Item = &[Record]> {
        self.ends[from..=to].windows(2).map(|w| &self.records[w[0]..w[1]])
    }
}

impl Drop for BufferTree {
    fn drop(&mut self) {
        // Best-effort cleanup of the backing file (buffered updates are
        // gone with the process either way); mirrors `DiskStore`'s drop so
        // a `--disk` run leaves nothing behind. Failures are ignored.
        let _ = std::fs::remove_file(&self.config.path);
    }
}

/// [`BufferTree`] in front of a [`WorkQueue`]: the gutter tree as a
/// [`BufferingSystem`], a full leaf pushed onto the queue while the cascade
/// that filled it waits.
pub struct GutterTree {
    tree: BufferTree,
    queue: Arc<WorkQueue>,
}

impl GutterTree {
    /// Build the tree, pre-allocating its backing file.
    pub fn new(config: GutterTreeConfig, queue: Arc<WorkQueue>) -> io::Result<Self> {
        Ok(GutterTree { tree: BufferTree::new(config, Arc::new(IoStats::new()))?, queue })
    }

    /// I/O counters for this tree.
    pub fn stats(&self) -> Arc<IoStats> {
        self.tree.stats()
    }

    /// Tree depth (root→leaf hops).
    pub fn depth(&self) -> u32 {
        self.tree.depth()
    }
}

impl BufferingSystem for GutterTree {
    fn insert(&mut self, dst: u32, other: u32) {
        self.tree
            .insert(dst, other, &mut push_to::<io::Error>(&self.queue))
            .expect("gutter tree flush failed");
    }

    fn force_flush(&mut self) {
        self.tree
            .force_flush(&mut push_to::<io::Error>(&self.queue))
            .expect("gutter tree force_flush failed");
    }

    fn buffered_len(&self) -> usize {
        self.tree.buffered_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tmp(name: &str) -> gz_testutil::TempPath {
        gz_testutil::TempPath::new(&format!("gz-gutter-tree-{name}"), ".bin")
    }

    /// Drain the queue and group everything by node, in queue order.
    fn drain(queue: &WorkQueue) -> HashMap<u32, Vec<u32>> {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        while let Some(b) = queue.try_pop() {
            map.entry(b.node).or_default().extend(b.others);
        }
        map
    }

    /// The in-place flush of `tree`, a leaf that fills on the way pushed
    /// onto its queue.
    pub(super) fn in_place(
        tree: &mut GutterTree,
        pool: &WorkerPool,
        apply: &(dyn Fn(u32, &[u32]) + Sync),
    ) -> usize {
        tree.tree.drain_in_place(pool, &mut push_to::<io::Error>(&tree.queue), apply).unwrap()
    }

    #[test]
    fn single_level_tree_routes_to_leaves() {
        let path = tmp("single");
        let queue = Arc::new(WorkQueue::with_capacity(4096));
        let config = GutterTreeConfig::small_for_tests(4, path.to_path_buf());
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        assert_eq!(tree.depth(), 1);
        for i in 0..20u32 {
            tree.insert(i % 4, 100 + i);
        }
        tree.force_flush();
        let got = drain(&queue);
        let mut all: Vec<(u32, u32)> =
            got.into_iter().flat_map(|(n, os)| os.into_iter().map(move |o| (n, o))).collect();
        all.sort_unstable();
        let mut expected: Vec<(u32, u32)> = (0..20u32).map(|i| (i % 4, 100 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn multi_level_tree_delivers_every_record() {
        let path = tmp("multi");
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        // 64 leaves, fan-out 4 -> depth 3.
        let config = GutterTreeConfig::small_for_tests(64, path.to_path_buf());
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        assert_eq!(tree.depth(), 3);

        let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
        for i in 0..5000u32 {
            let dst = (i * 37) % 64;
            let other = i;
            tree.insert(dst, other);
            expected.entry(dst).or_default().push(other);
        }
        tree.force_flush();
        assert_eq!(tree.buffered_len(), 0);
        assert_eq!(drain(&queue), expected);
    }

    #[test]
    fn preserves_per_destination_order() {
        // Batches for a node must contain its updates in arrival order —
        // order matters for Z_2 toggles only in multiplicity, but the tree
        // should still be order-preserving per destination within a batch
        // cascade. We check multiset equality and, within each batch,
        // monotone arrival order for a single hot destination.
        let path = tmp("order");
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        let config = GutterTreeConfig::small_for_tests(16, path.to_path_buf());
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        for i in 0..200u32 {
            tree.insert(3, i);
        }
        tree.force_flush();
        let mut all = Vec::new();
        while let Some(b) = queue.try_pop() {
            assert_eq!(b.node, 3);
            all.extend(b.others);
        }
        assert_eq!(all, (0..200u32).collect::<Vec<_>>());
    }

    #[test]
    fn emits_batches_near_leaf_capacity() {
        let path = tmp("cap");
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        let mut config = GutterTreeConfig::small_for_tests(2, path.to_path_buf());
        config.leaf_capacity_updates = 10;
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        for i in 0..100u32 {
            tree.insert(0, i);
        }
        tree.force_flush();
        let mut sizes = Vec::new();
        while let Some(b) = queue.try_pop() {
            sizes.push(b.others.len());
        }
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 100);
        // All but the final force-flush batch should be ≥ leaf capacity.
        for &s in &sizes[..sizes.len().saturating_sub(1)] {
            assert!(s >= 10, "undersized batch {s} in {sizes:?}");
        }
    }

    #[test]
    fn io_is_counted() {
        let path = tmp("io");
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        let config = GutterTreeConfig::small_for_tests(64, path.to_path_buf());
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        let stats = tree.stats();
        for i in 0..2000u32 {
            tree.insert(i % 64, i);
        }
        tree.force_flush();
        assert!(stats.total_ops() > 0, "disk traffic must be recorded");
        assert!(stats.bytes_written() > 0);
        while queue.try_pop().is_some() {}
    }

    #[test]
    fn amortization_beats_per_update_io() {
        // The whole point of the tree (Lemma 4): far fewer I/O ops than
        // updates. With per-update I/O this would be ≥ N ops.
        let path = tmp("amortized");
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        let mut config = GutterTreeConfig::small_for_tests(256, path.to_path_buf());
        config.buffer_bytes = 512 * RECORD_BYTES;
        config.fanout = 16;
        config.leaf_capacity_updates = 64;
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        let stats = tree.stats();
        let n = 50_000u32;
        for i in 0..n {
            tree.insert(i % 256, i);
        }
        tree.force_flush();
        let ops = stats.total_ops();
        assert!(ops < (n as u64) / 4, "expected amortized I/O, got {ops} ops for {n} updates");
        while queue.try_pop().is_some() {}
    }

    #[test]
    fn partition_is_a_stable_count_by_child() {
        // Children 2..5 of a span-3 level: records land in their child's
        // bucket in arrival order, empty children get empty buckets.
        let records = [(13, 0), (6, 1), (14, 2), (8, 3), (12, 4), (7, 5), (13, 6)];
        let mut parts = Partition::default();
        parts.fill(&records, 3, 2, 3);
        let buckets: Vec<&[Record]> = parts.buckets(0, 3).collect();
        assert_eq!(
            buckets,
            [&[(6, 1), (8, 3), (7, 5)][..], &[], &[(13, 0), (14, 2), (12, 4), (13, 6)]]
        );
        assert_eq!(parts.buckets(2, 3).next(), Some(buckets[2]));
        parts.fill(&[], 3, 2, 3);
        assert!(parts.buckets(0, 3).all(|b| b.is_empty()));
    }

    /// A tree over `nodes` leaves whose leaf gutters never fill, fed `n`
    /// records: record `i` goes to leaf `37 i mod nodes` with `other` = `i`.
    fn unfilled(path: &gz_testutil::TempPath, nodes: u32, n: u32) -> (GutterTree, Arc<WorkQueue>) {
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        let mut config = GutterTreeConfig::small_for_tests(nodes, path.to_path_buf());
        config.leaf_capacity_updates = 1 << 20;
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        for i in 0..n {
            tree.insert((i * 37) % nodes, i);
        }
        (tree, queue)
    }

    /// What [`unfilled`] must deliver: each leaf's records in arrival order.
    fn arrivals(nodes: u32, n: u32) -> Vec<(u32, Vec<u32>)> {
        let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
        for i in 0..n {
            expected.entry((i * 37) % nodes).or_default().push(i);
        }
        let mut expected: Vec<_> = expected.into_iter().collect();
        expected.sort();
        expected
    }

    #[test]
    fn drain_in_place_applies_each_leaf_once_stored_records_first() {
        let pool = WorkerPool::new(4);
        // 2005 records: 16-record roots flush 125 times and keep 5 back.
        let n = 2005;
        for (nodes, depth) in [(4u32, 1u32), (16, 2), (64, 3)] {
            let path = tmp("in-place");
            let (mut tree, queue) = unfilled(&path, nodes, n);
            assert_eq!(tree.depth(), depth);
            assert!(
                tree.tree.leaf_fill.iter().any(|&f| f > 0) && !tree.tree.root.is_empty(),
                "depth {depth}: leaves hold records and more are in transit"
            );
            let writes = tree.stats().writes();
            let seen = parking_lot::Mutex::new(Vec::new());
            let apply = |leaf: u32, records: &[u32]| seen.lock().push((leaf, records.to_vec()));
            let expected = arrivals(nodes, n);
            assert_eq!(in_place(&mut tree, &pool, &apply), expected.len(), "depth {depth}");
            let mut seen = seen.into_inner();
            seen.sort();
            assert_eq!(seen, expected, "depth {depth}: once per leaf, in arrival order");
            assert_eq!(tree.buffered_len(), 0);
            assert!(tree.tree.root.is_empty());
            assert!(tree.tree.internal_fill.iter().chain(&tree.tree.leaf_fill).all(|&f| f == 0));
            assert!(queue.is_empty(), "depth {depth}: the work queue is not touched");
            if depth == 1 {
                assert_eq!(tree.stats().writes(), writes, "a depth-1 drain writes nothing");
            }

            // With nothing buffered the pool is not dispatched at all.
            assert_eq!(in_place(&mut tree, &pool, &|_, _| unreachable!("nothing is buffered")), 0);
            // And the tree keeps working.
            tree.insert(nodes - 1, 7);
            tree.force_flush();
            assert_eq!(drain(&queue), HashMap::from([(nodes - 1, vec![7])]));
        }
    }

    #[test]
    fn a_top_level_of_at_most_two_nodes_folds_into_the_root() {
        let shape = |leaves: u32, path: &gz_testutil::TempPath| GutterTreeConfig {
            num_nodes: leaves,
            leaf_capacity_updates: 64,
            buffer_bytes: 512 * RECORD_BYTES,
            fanout: 64,
            path: path.to_path_buf(),
        };
        // Up to 2·fan-out leaves the root partitions straight into them; one
        // more and a level returns.
        for (leaves, depth) in
            [(64, 1), (128, 1), (129, 2), (4096, 2), (8192, 2), (8193, 3), (16384, 3)]
        {
            let path = tmp("fold");
            let tree = BufferTree::new(shape(leaves, &path), Arc::new(IoStats::new())).unwrap();
            assert_eq!(tree.depth(), depth, "{leaves} leaves");
        }

        // 4096 records, eight root flushes, over distinct leaves: no leaf
        // fills and, at 8192 leaves, no last-level node overflows, so every
        // record is written once, 8 bytes, into the last level — not a
        // second time after crossing a two-node level above it.
        let n = 4096u32;
        let pool = WorkerPool::new(4);
        for leaves in [128u32, 8192, 16384] {
            let expected: HashMap<u32, Vec<u32>> =
                (0..n).map(|i| ((i * 37) % leaves, i)).fold(HashMap::new(), |mut m, (dst, o)| {
                    m.entry(dst).or_default().push(o);
                    m
                });
            let fed = |path: &gz_testutil::TempPath| {
                let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
                let mut tree = GutterTree::new(shape(leaves, path), Arc::clone(&queue)).unwrap();
                for i in 0..n {
                    tree.insert((i * 37) % leaves, i);
                }
                (tree, queue)
            };
            let path = tmp("fold-flush");
            let (mut tree, queue) = fed(&path);
            if leaves == 8192 {
                assert_eq!(tree.stats().bytes_written(), 8 * n as u64, "written once, 8 bytes");
            }
            tree.force_flush();
            assert_eq!(drain(&queue), expected, "{leaves} leaves: force_flush");

            let path = tmp("fold-in-place");
            let (mut tree, queue) = fed(&path);
            let applied = parking_lot::Mutex::new(HashMap::new());
            let apply = |leaf: u32, records: &[u32]| {
                assert!(applied.lock().insert(leaf, records.to_vec()).is_none(), "leaf {leaf}");
            };
            in_place(&mut tree, &pool, &apply);
            assert!(queue.is_empty());
            assert_eq!(applied.into_inner(), expected, "{leaves} leaves: drain_in_place");
        }
    }

    #[test]
    fn a_panicking_apply_propagates_to_the_flushing_thread() {
        let pool = WorkerPool::new(4);
        let path = tmp("in-place-panic");
        let (mut tree, _queue) = unfilled(&path, 16, 2005);
        let buffered = tree.buffered_len();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_place(&mut tree, &pool, &|leaf, _| assert_ne!(leaf, 9, "apply failed"))
        }));
        assert!(died.is_err(), "the panic reaches the caller; the flush does not hang");
        assert_eq!(tree.buffered_len(), buffered, "nothing was let go of");
        // Pool and tree both still work, and still hold every record.
        let seen = parking_lot::Mutex::new(Vec::new());
        let apply = |leaf: u32, records: &[u32]| seen.lock().push((leaf, records.to_vec()));
        assert_eq!(in_place(&mut tree, &pool, &apply), 16);
        let mut seen = seen.into_inner();
        seen.sort();
        assert_eq!(seen, arrivals(16, 2005));
    }

    #[test]
    fn a_failed_read_propagates_to_the_flushing_thread() {
        let pool = WorkerPool::new(4);
        for nodes in [4u32, 64] {
            let path = tmp("in-place-truncated");
            let (mut tree, _queue) = unfilled(&path, nodes, 2005);
            let last_leaf = tree.tree.leaf_fill.len() - 1;
            assert!(
                tree.tree.leaf_fill[last_leaf] > 0,
                "the leaf at the end of the file holds records"
            );
            std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                in_place(&mut tree, &pool, &|_, _| {})
            }));
            assert!(died.is_err(), "{nodes} leaves: a short read is a panic, not a hang");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::in_place;
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A tree of the given shape fed `inserts`, with what each node must
    /// receive, in arrival order.
    fn fed(
        path: &gz_testutil::TempPath,
        (num_nodes, fanout, buffer_records, leaf_cap): (u32, usize, usize, usize),
        inserts: Vec<(u32, u32)>,
    ) -> (GutterTree, Arc<WorkQueue>, HashMap<u32, Vec<u32>>) {
        let config = GutterTreeConfig {
            num_nodes,
            leaf_capacity_updates: leaf_cap,
            buffer_bytes: buffer_records * 8,
            fanout,
            path: path.to_path_buf(),
        };
        let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
        let mut tree = GutterTree::new(config, Arc::clone(&queue)).unwrap();
        let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
        for (dst, other) in inserts {
            let dst = dst % num_nodes;
            tree.insert(dst, other);
            expected.entry(dst).or_default().push(other);
        }
        (tree, queue, expected)
    }

    /// Everything on the queue, grouped by node in queue order.
    fn queued(queue: &WorkQueue) -> HashMap<u32, Vec<u32>> {
        let mut got: HashMap<u32, Vec<u32>> = HashMap::new();
        while let Some(b) = queue.try_pop() {
            got.entry(b.node).or_default().extend(b.others);
        }
        got
    }

    fn shape() -> impl Strategy<Value = (u32, usize, usize, usize)> {
        (1u32..40, 2usize..6, 4usize..32, 1usize..16)
    }

    fn inserts() -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..400)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever the configuration and insert sequence, force_flush
        /// delivers exactly the inserted records, per node in arrival order.
        #[test]
        fn delivers_exact_multiset(shape in shape(), inserts in inserts()) {
            let path = gz_testutil::TempPath::new("gz-tree-prop", ".bin");
            let (mut tree, queue, expected) = fed(&path, shape, inserts);
            tree.force_flush();
            prop_assert_eq!(tree.buffered_len(), 0);
            prop_assert_eq!(queued(&queue), expected);
        }

        /// The in-place twin: what overflowed onto the queue, then the one
        /// `apply` call a leaf gets, is every node's records in arrival order.
        #[test]
        fn delivers_exact_multiset_in_place(shape in shape(), inserts in inserts()) {
            let path = gz_testutil::TempPath::new("gz-tree-prop-in-place", ".bin");
            let (mut tree, queue, expected) = fed(&path, shape, inserts);
            let pool = WorkerPool::new(4);
            let applied = parking_lot::Mutex::new(Vec::new());
            let apply = |leaf: u32, records: &[u32]| applied.lock().push((leaf, records.to_vec()));
            let calls = in_place(&mut tree, &pool, &apply);
            prop_assert_eq!(tree.buffered_len(), 0);
            let applied = applied.into_inner();
            prop_assert_eq!(calls, applied.len());
            let mut leaves: Vec<u32> = applied.iter().map(|&(leaf, _)| leaf).collect();
            leaves.sort_unstable();
            leaves.dedup();
            prop_assert_eq!(leaves.len(), calls, "a leaf reached `apply` twice");
            let mut got = queued(&queue);
            for (leaf, records) in applied {
                prop_assert!(!records.is_empty());
                got.entry(leaf).or_default().extend(records);
            }
            prop_assert_eq!(got, expected);
        }
    }
}
