//! Leaf-only gutters (paper §5.1).
//!
//! One in-RAM buffer ("gutter") per graph node, used when memory allows
//! (`M > V·B`): `buffer_insert((u, v))` appends `v` to `u`'s gutter, and a
//! full gutter is emitted as one batch. The gutter capacity is a
//! configurable fraction `f` of the node-sketch size — the knob swept by the
//! paper's Figure 15; callers resolve it to a record count. That capacity is
//! the emit threshold and the paper's `M > V·B` accounting bound, not the
//! bytes a gutter holds: a gutter is a chain of 16-record chunks (one cache
//! line each) drawn from one pool, so it holds its records plus less than
//! one chunk, and a vertex that sees a handful of records costs a cache
//! line, not a page. An emptied gutter's chunks go back to the pool for the
//! next gutter that grows; the pool grows by whole slabs that never move.
//!
//! Over a store that keeps `g` nodes' sketches in one node group (paper
//! §4.1), the emit unit is the group, not the node: a group's gutters
//! count their fill together and leave together once it reaches `g` × the
//! per-node capacity, in node order, so the store faults the group once
//! for all of them. Without a file `g` is 1 and a gutter is its own group.
//!
//! [`GutterSet`] is the gutters alone: whatever it emits goes to a sink its
//! caller passes, so a single-threaded consumer (the shard router) forwards
//! a batch the moment its gutter fills, with no queue in between — and a
//! flush whose store is in this process emits nothing at all:
//! [`GutterSet::drain_in_place`] hands the records to the store where they
//! lie. [`LeafGutters`] is the [`BufferingSystem`] whose sink is the push
//! onto the Graph Workers' [`WorkQueue`].

use crate::work_queue::{Batch, WorkQueue};
use crate::worker_pool::WorkerPool;
use crate::BufferingSystem;
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Gutter indices a flush worker claims at a time: enough that the shared
/// cursor is touched once per several batches, few enough that uneven
/// gutters still balance across workers.
pub(crate) const CLAIM: usize = 16;

/// Records a chunk holds: one 64-byte cache line.
const CHUNK: usize = 16;

/// Chunks a slab holds: the pool grows 64 KiB of records at a time.
const SLAB: usize = 1024;

/// Bytes the pool spends on a chunk: its records and its link.
const CHUNK_BYTES: usize = std::mem::size_of::<Chunk>() + std::mem::size_of::<u32>();

/// One cache line of a gutter's records.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Chunk([u32; CHUNK]);

/// `SLAB` chunks and their links. The links live apart from the records,
/// so walking a chain reads no record line.
struct Slab {
    chunks: Box<[Chunk]>,
    next: Box<[u32]>,
}

/// The chunks every gutter of a [`GutterSet`] draws from. A chunk is on
/// the free list or in exactly one gutter's chain; a chain's links are
/// followed only as far as its gutter's length reaches, so neither list
/// needs a terminator.
#[derive(Default)]
struct ChunkPool {
    slabs: Vec<Slab>,
    /// First chunk of the free list; meaningless when `free_len` is 0.
    free: u32,
    free_len: usize,
}

impl ChunkPool {
    fn chunk(&self, id: u32) -> &[u32; CHUNK] {
        &self.slabs[id as usize / SLAB].chunks[id as usize % SLAB].0
    }

    fn chunk_mut(&mut self, id: u32) -> &mut [u32; CHUNK] {
        &mut self.slabs[id as usize / SLAB].chunks[id as usize % SLAB].0
    }

    fn next(&self, id: u32) -> u32 {
        self.slabs[id as usize / SLAB].next[id as usize % SLAB]
    }

    fn set_next(&mut self, id: u32, next: u32) {
        self.slabs[id as usize / SLAB].next[id as usize % SLAB] = next;
    }

    /// Chunks the pool has allocated: the most its gutters ever held at
    /// once.
    fn chunks(&self) -> usize {
        self.slabs.len() * SLAB
    }

    /// Link a fresh tail chunk onto `gutter`, whose tail is full (or which
    /// holds nothing). Out of line: it runs once every 16 records.
    #[cold]
    #[inline(never)]
    fn extend(&mut self, gutter: &mut Gutter) {
        if self.free_len == 0 {
            let first = u32::try_from(self.chunks()).expect("a gutter pool of 2^32 chunks");
            self.slabs.push(Slab {
                chunks: vec![Chunk([0; CHUNK]); SLAB].into_boxed_slice(),
                next: (first + 1..).take(SLAB).collect(),
            });
            (self.free, self.free_len) = (first, SLAB);
        }
        let chunk = self.free;
        self.free = self.next(chunk);
        self.free_len -= 1;
        match gutter.len {
            0 => gutter.head = chunk,
            _ => self.set_next(gutter.tail, chunk),
        }
        gutter.tail = chunk;
    }

    /// Put every chunk back on the free list, in address order: the next
    /// fill then draws neighbouring chunks, as a fresh pool's does. Only
    /// once every gutter is empty.
    fn free_all(&mut self) {
        for (slab, first) in self.slabs.iter_mut().zip((0u32..).step_by(SLAB)) {
            slab.next.iter_mut().zip(first + 1..).for_each(|(next, id)| *next = id);
        }
        (self.free, self.free_len) = (0, self.chunks());
    }

    /// Put `gutter`'s chunks back on the free list, leaving it empty.
    fn release(&mut self, gutter: &mut Gutter) {
        if gutter.len > 0 {
            self.set_next(gutter.tail, self.free);
            self.free = gutter.head;
            self.free_len += gutter.len.div_ceil(CHUNK);
            gutter.len = 0;
        }
    }

    /// Append the records of the chunks `ids`, which hold `len` records in
    /// all, to `out`.
    fn gather(&self, ids: &[u32], len: usize, out: &mut Vec<u32>) {
        out.reserve(len);
        for (i, &id) in ids.iter().enumerate() {
            out.extend_from_slice(&self.chunk(id)[..(len - i * CHUNK).min(CHUNK)]);
        }
    }

    /// Replace `ids` with the chunks of `gutters`' chains, chain after
    /// chain. The chains are walked side by side, so their link loads
    /// overlap instead of each waiting on the one before.
    fn chains(&self, gutters: &[Gutter], ids: &mut Vec<u32>) {
        let mut walks: Vec<(u32, usize, usize)> = Vec::with_capacity(gutters.len());
        let mut end = 0;
        for gutter in gutters.iter().filter(|g| g.len > 0) {
            walks.push((gutter.head, end, end + gutter.len.div_ceil(CHUNK)));
            end += gutter.len.div_ceil(CHUNK);
        }
        ids.clear();
        ids.resize(end, 0);
        while !walks.is_empty() {
            walks.retain_mut(|(chunk, at, end)| {
                ids[*at] = *chunk;
                *at += 1;
                if *at < *end {
                    *chunk = self.next(*chunk);
                }
                *at < *end
            });
        }
    }
}

/// One node's gutter: its chain of chunks and the records in it.
#[derive(Clone, Copy, Default)]
struct Gutter {
    head: u32,
    tail: u32,
    len: usize,
}

/// What a [`GutterSet`]'s buffered records cost: the records, the bytes of
/// the chunks holding them, and the bytes of every chunk the pool has
/// allocated (its high-water mark; a pool never shrinks). Chunk bytes
/// count each chunk's link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GutterPoolStats {
    /// Records buffered.
    pub records: u64,
    /// Bytes of the chunks holding them.
    pub pool_bytes: u64,
    /// Bytes of every chunk the pool has allocated.
    pub pool_peak_bytes: u64,
}

impl std::iter::Sum for GutterPoolStats {
    fn sum<I: Iterator<Item = Self>>(sets: I) -> Self {
        sets.fold(Self::default(), |a, b| GutterPoolStats {
            records: a.records + b.records,
            pool_bytes: a.pool_bytes + b.pool_bytes,
            pool_peak_bytes: a.pool_peak_bytes + b.pool_peak_bytes,
        })
    }
}

impl fmt::Display for GutterPoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "records={} pool_bytes={} pool_peak_bytes={}",
            self.records, self.pool_bytes, self.pool_peak_bytes
        )
    }
}

/// Per-node in-RAM gutters that hand each emitted [`Batch`] to the caller's
/// sink, emitted a node group at a time. A sink that fails owns the batch
/// it was handed: the error returns at once and every record still
/// buffered stays buffered.
///
/// ```
/// use gz_gutters::{Batch, GutterSet};
/// let mut gutters = GutterSet::new(4, 2);
/// let mut out = Vec::new();
/// let mut sink = |batch: Batch| {
///     out.push(batch);
///     Ok::<(), std::convert::Infallible>(())
/// };
/// gutters.insert(3, 10, &mut sink).unwrap(); // buffered
/// gutters.insert(3, 11, &mut sink).unwrap(); // fills gutter 3: emitted here
/// gutters.insert(1, 12, &mut sink).unwrap();
/// gutters.force_flush(&mut sink).unwrap(); // the partial gutter 1
/// assert_eq!(out[0], Batch { node: 3, others: vec![10, 11] });
/// assert_eq!(out[1], Batch { node: 1, others: vec![12] });
/// ```
pub struct GutterSet {
    gutters: Vec<Gutter>,
    pool: ChunkPool,
    /// Records a group holds before it is emitted: `g` × the per-node
    /// capacity.
    threshold: usize,
    /// Nodes a group, `g`.
    group: usize,
    /// Records buffered in each group; empty when `g` = 1, where a
    /// gutter's length is its group's fill.
    fill: Vec<usize>,
    buffered: usize,
}

impl GutterSet {
    /// Gutters for `num_nodes` nodes, each holding up to `capacity_updates`
    /// records (at least one) before it is emitted.
    pub fn new(num_nodes: usize, capacity_updates: usize) -> Self {
        Self::in_groups(num_nodes, capacity_updates, 1)
    }

    /// Gutters for `num_nodes` nodes in groups of `group_nodes` consecutive
    /// nodes (at least one): a group is emitted whole once it holds
    /// `group_nodes` × `capacity_updates` records.
    pub fn in_groups(num_nodes: usize, capacity_updates: usize, group_nodes: usize) -> Self {
        let (capacity, group) = (capacity_updates.max(1), group_nodes.max(1));
        let groups = if group == 1 { 0 } else { num_nodes.div_ceil(group) };
        GutterSet {
            gutters: vec![Gutter::default(); num_nodes],
            pool: ChunkPool::default(),
            threshold: capacity * group,
            group,
            fill: vec![0; groups],
            buffered: 0,
        }
    }

    /// Records buffered and not yet emitted.
    pub fn buffered_len(&self) -> usize {
        self.buffered
    }

    /// The records buffered and the bytes of the pool holding them.
    pub fn pool_stats(&self) -> GutterPoolStats {
        let in_use = self.pool.chunks() - self.pool.free_len;
        GutterPoolStats {
            records: self.buffered as u64,
            pool_bytes: (in_use * CHUNK_BYTES) as u64,
            pool_peak_bytes: (self.pool.chunks() * CHUNK_BYTES) as u64,
        }
    }

    /// Buffer `other` for `dst`; the record that fills `dst`'s group emits
    /// the group's nonempty gutters through `sink`, in node order. A gutter
    /// whose tail chunk is full takes the next chunk off the pool. Always
    /// inlined: it is on every record's path, and out of line it costs the
    /// router a call a record.
    #[inline(always)]
    pub fn insert<E>(
        &mut self,
        dst: u32,
        other: u32,
        sink: impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let threshold = self.threshold;
        let gutter = &mut self.gutters[dst as usize];
        let at = gutter.len % CHUNK;
        if at == 0 {
            self.pool.extend(gutter);
        }
        self.pool.chunk_mut(gutter.tail)[at] = other;
        gutter.len += 1;
        self.buffered += 1;
        let group = if self.fill.is_empty() {
            if gutter.len < threshold {
                return Ok(());
            }
            dst as usize
        } else {
            let group = (dst / self.group as u32) as usize;
            self.fill[group] += 1;
            if self.fill[group] < threshold {
                return Ok(());
            }
            group
        };
        self.emit_group(group, sink)
    }

    /// Hand `group`'s nonempty gutters to `sink` in node order. Out of
    /// line, as [`ChunkPool::extend`] is: `insert` is inlined into every
    /// record's path, and this runs once a fill.
    #[cold]
    #[inline(never)]
    fn emit_group<E>(
        &mut self,
        group: usize,
        mut sink: impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = (group * self.group) as u32;
        let end = self.gutters.len().min(group * self.group + self.group) as u32;
        (start..end).try_for_each(|node| self.emit(node, &mut sink))
    }

    /// Emit every nonempty gutter, in node order, regardless of fill level.
    pub fn force_flush<E>(
        &mut self,
        mut sink: impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        (0..self.gutters.len() as u32).try_for_each(|node| self.emit(node, &mut sink))
    }

    /// Flush without emitting: hand every nonempty gutter's records to
    /// `apply(node, records)`, on all of `pool`'s workers at once (the
    /// caller is worker 0), and return how many gutters were nonempty —
    /// the batches [`Self::force_flush`] would have emitted. Workers claim
    /// runs of gutter indices off one cursor, so each gutter reaches
    /// `apply` exactly once, its records in insertion order: a gutter of
    /// one chunk where it lies, a longer one gathered into its worker's
    /// buffer. No [`Batch`] is built, and every chunk goes back to the
    /// pool for the next insert. With nothing buffered the pool is not
    /// woken. A panic in `apply` is rethrown here with the gutters as they
    /// were.
    pub fn drain_in_place(
        &mut self,
        pool: &WorkerPool,
        apply: &(dyn Fn(u32, &[u32]) + Sync),
    ) -> usize {
        if self.buffered == 0 {
            return 0;
        }
        let (gutters, chunks) = (&self.gutters, &self.pool);
        // The cursor publishes nothing: the gutters are read-only for the
        // whole dispatch, and `run` orders it against this thread.
        let cursor = AtomicUsize::new(0);
        pool.run(&|_| {
            let (mut ids, mut gathered) = (Vec::new(), Vec::new());
            loop {
                let start = cursor.fetch_add(CLAIM, Ordering::Relaxed);
                if start >= gutters.len() {
                    break;
                }
                let claimed = &gutters[start..gutters.len().min(start + CLAIM)];
                chunks.chains(claimed, &mut ids);
                let mut ids = &ids[..];
                for (node, &gutter) in (start as u32..).zip(claimed).filter(|(_, g)| g.len > 0) {
                    let (mine, rest) = ids.split_at(gutter.len.div_ceil(CHUNK));
                    ids = rest;
                    if let [only] = mine {
                        apply(node, &chunks.chunk(*only)[..gutter.len]);
                    } else {
                        gathered.clear();
                        chunks.gather(mine, gutter.len, &mut gathered);
                        apply(node, &gathered);
                    }
                }
            }
        });
        let mut nonempty = 0;
        for gutter in &mut self.gutters {
            nonempty += usize::from(gutter.len > 0);
            gutter.len = 0;
        }
        self.pool.free_all();
        self.fill.fill(0);
        self.buffered = 0;
        nonempty
    }

    /// Hand `node`'s records to `sink`, leaving the gutter empty and its
    /// chunks on the free list.
    fn emit<E>(&mut self, node: u32, sink: impl FnOnce(Batch) -> Result<(), E>) -> Result<(), E> {
        let gutter = &mut self.gutters[node as usize];
        if gutter.len == 0 {
            return Ok(());
        }
        let (mut ids, mut others) = (Vec::new(), Vec::new());
        self.pool.chains(std::slice::from_ref(gutter), &mut ids);
        self.pool.gather(&ids, gutter.len, &mut others);
        self.pool.release(gutter);
        self.buffered -= others.len();
        if let Some(fill) = self.fill.get_mut(node as usize / self.group) {
            *fill -= others.len();
        }
        sink(Batch { node, others })
    }
}

/// [`GutterSet`] in front of a [`WorkQueue`]: leaf gutters as a
/// [`BufferingSystem`].
pub struct LeafGutters {
    gutters: GutterSet,
    queue: Arc<WorkQueue>,
}

impl LeafGutters {
    /// Create gutters for `num_nodes` nodes, each holding up to
    /// `capacity_updates` records before flushing to `queue`.
    pub fn new(num_nodes: usize, capacity_updates: usize, queue: Arc<WorkQueue>) -> Self {
        LeafGutters { gutters: GutterSet::new(num_nodes, capacity_updates), queue }
    }
}

/// The queue adapters' sink: a batch pushed onto a closed queue is dropped,
/// as the queue documents.
pub(crate) fn push_to<E>(queue: &WorkQueue) -> impl FnMut(Batch) -> Result<(), E> + '_ {
    |batch| {
        queue.push(batch);
        Ok(())
    }
}

impl BufferingSystem for LeafGutters {
    fn insert(&mut self, dst: u32, other: u32) {
        let Ok(()) = self.gutters.insert(dst, other, push_to::<Infallible>(&self.queue));
    }

    fn force_flush(&mut self) {
        let Ok(()) = self.gutters.force_flush(push_to::<Infallible>(&self.queue));
    }

    fn buffered_len(&self) -> usize {
        self.gutters.buffered_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nodes: usize, cap: usize) -> (LeafGutters, Arc<WorkQueue>) {
        let queue = Arc::new(WorkQueue::with_capacity(1024));
        (LeafGutters::new(nodes, cap, Arc::clone(&queue)), queue)
    }

    /// The records `node`'s gutter holds, in insertion order.
    fn held(g: &GutterSet, node: u32) -> Vec<u32> {
        let (mut ids, mut records) = (Vec::new(), Vec::new());
        let gutter = &g.gutters[node as usize..=node as usize];
        g.pool.chains(gutter, &mut ids);
        g.pool.gather(&ids, gutter[0].len, &mut records);
        records
    }

    /// Chunks off the free list, holding records.
    fn chunks_in_use(g: &GutterSet) -> usize {
        g.pool.chunks() - g.pool.free_len
    }

    #[test]
    fn emits_exactly_at_capacity() {
        let (mut g, q) = setup(4, 3);
        g.insert(1, 10);
        g.insert(1, 11);
        assert!(q.is_empty());
        assert_eq!(g.buffered_len(), 2);
        g.insert(1, 12); // third record fills the gutter
        let batch = q.try_pop().unwrap();
        assert_eq!(batch.node, 1);
        assert_eq!(batch.others, vec![10, 11, 12]);
        assert_eq!(g.buffered_len(), 0);
    }

    #[test]
    fn gutters_are_independent() {
        let (mut g, q) = setup(4, 2);
        g.insert(0, 1);
        g.insert(1, 0);
        g.insert(2, 3);
        assert!(q.is_empty(), "no gutter full yet");
        g.insert(0, 2);
        assert_eq!(q.try_pop().unwrap().node, 0);
    }

    #[test]
    fn force_flush_emits_all_nonempty() {
        let (mut g, q) = setup(5, 100);
        g.insert(0, 1);
        g.insert(3, 4);
        g.insert(3, 2);
        g.force_flush();
        let mut nodes = Vec::new();
        while let Some(b) = q.try_pop() {
            nodes.push((b.node, b.others.len()));
        }
        assert_eq!(nodes, vec![(0, 1), (3, 2)]);
        assert_eq!(g.buffered_len(), 0);
        // Second flush is a no-op.
        g.force_flush();
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn a_failing_sink_returns_at_once_and_keeps_the_rest_buffered() {
        let mut g = GutterSet::new(4, 2);
        let ok = |_: Batch| Ok::<(), &str>(());
        g.insert(0, 1, ok).unwrap();
        g.insert(2, 7, ok).unwrap();
        g.insert(3, 9, ok).unwrap();
        // The insert that fills gutter 2 hands its batch to a sink that fails.
        let mut failed = None;
        let err = g.insert(2, 8, |b| {
            failed = Some(b);
            Err("link down")
        });
        assert_eq!(err, Err("link down"));
        assert_eq!(failed, Some(Batch { node: 2, others: vec![7, 8] }));
        assert_eq!(g.buffered_len(), 2, "the failed batch left; nothing else moved");
        // A flush stops at the first failure: node 0 goes, node 3 stays.
        let mut seen = Vec::new();
        let err = g.force_flush(|b| {
            seen.push(b.node);
            Err::<(), _>("still down")
        });
        assert_eq!((err, seen), (Err("still down"), vec![0]));
        assert_eq!(g.buffered_len(), 1);
    }

    /// Gutter `n` of 100 holds `n % 7` records (so some are empty), gutter
    /// 50 all but one of its 64: what four claiming workers must split.
    fn uneven() -> (GutterSet, Vec<(u32, Vec<u32>)>) {
        let mut g = GutterSet::new(100, 64);
        let mut expected = Vec::new();
        for node in 0..100u32 {
            let len = if node == 50 { 63 } else { node % 7 };
            let records: Vec<u32> = (0..len).map(|i| node * 1000 + i).collect();
            for &r in &records {
                g.insert(node, r, |_| -> Result<(), Infallible> {
                    unreachable!("no gutter fills")
                })
                .unwrap();
            }
            if len > 0 {
                expected.push((node, records));
            }
        }
        (g, expected)
    }

    #[test]
    fn drain_in_place_applies_each_gutter_once_and_returns_its_chunks() {
        let pool = WorkerPool::new(4);
        let (mut g, expected) = uneven();
        let chunks = g.pool.chunks();
        let seen = parking_lot::Mutex::new(Vec::new());
        let apply = |node: u32, records: &[u32]| seen.lock().push((node, records.to_vec()));
        assert_eq!(g.drain_in_place(&pool, &apply), expected.len());
        let mut seen = seen.into_inner();
        seen.sort();
        assert_eq!(seen, expected, "each nonempty gutter once, its records in insertion order");
        assert_eq!(g.buffered_len(), 0);
        assert!(g.gutters.iter().all(|gutter| gutter.len == 0));

        // Every chunk is back on the free list, and the next insert draws
        // from it: the pool does not grow.
        assert_eq!(chunks_in_use(&g), 0);
        g.insert(50, 7, |_| -> Result<(), Infallible> { unreachable!() }).unwrap();
        assert_eq!((g.pool.chunks(), chunks_in_use(&g)), (chunks, 1));
        assert_eq!((held(&g, 50), g.buffered_len()), (vec![7], 1));

        // With nothing buffered the pool is not dispatched at all.
        assert_eq!(g.drain_in_place(&pool, &|_, _| {}), 1);
        assert_eq!(g.drain_in_place(&pool, &|_, _| unreachable!("nothing is buffered")), 0);
    }

    #[test]
    fn a_panicking_apply_propagates_to_the_flushing_thread() {
        let pool = WorkerPool::new(4);
        let (mut g, expected) = uneven();
        let buffered = g.buffered_len();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.drain_in_place(&pool, &|node, _| assert_ne!(node, 50, "apply failed"))
        }));
        assert!(died.is_err(), "the panic reaches the caller; the flush does not hang");
        assert_eq!(g.buffered_len(), buffered, "gutters are as they were");
        // Pool and gutters both still work.
        assert_eq!(g.drain_in_place(&pool, &|_, _| {}), expected.len());
    }

    fn never_fills<E>(_: Batch) -> Result<(), E> {
        unreachable!("no gutter fills")
    }

    /// A seeded stream of `len` records over `nodes` nodes, skewed so that
    /// low nodes see most of it.
    fn skewed(nodes: u32, len: u32, seed: u32) -> Vec<(u32, u32)> {
        let mut state = seed;
        (0..len)
            .map(|record| {
                state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                let draw = (state >> 8) % (nodes * nodes);
                (nodes - 1 - draw.isqrt(), record)
            })
            .collect()
    }

    #[test]
    fn a_gutter_never_holds_more_than_one_partly_filled_chunk() {
        for (capacity, group) in [(1, 1), (5, 1), (16, 1), (17, 1), (100, 1), (40, 3)] {
            let mut g = GutterSet::in_groups(12, capacity, group);
            let ok = |_: Batch| Ok::<(), Infallible>(());
            for (dst, record) in skewed(11, 3_000, 5) {
                g.insert(dst, record, ok).unwrap();
                let whole: usize = g.gutters.iter().map(|gutter| gutter.len.div_ceil(CHUNK)).sum();
                assert_eq!(chunks_in_use(&g), whole, "capacity {capacity}, record {record}");
                let stats = g.pool_stats();
                assert_eq!(stats.records, g.buffered_len() as u64);
                assert_eq!(stats.pool_bytes, (whole * CHUNK_BYTES) as u64);
            }
            assert_eq!(g.gutters[11].len, 0, "an untouched gutter");
        }
        assert_eq!(GutterSet::new(3, 1000).pool_stats(), GutterPoolStats::default());
    }

    #[test]
    fn a_drain_then_refill_of_the_same_stream_does_not_grow_the_pool() {
        let pool = WorkerPool::new(2);
        let stream = skewed(64, 20_000, 9);
        for capacity in [40, 1_000] {
            let mut g = GutterSet::new(64, capacity);
            let fill = |g: &mut GutterSet| {
                for &(dst, record) in &stream {
                    g.insert(dst, record, |_| Ok::<(), Infallible>(())).unwrap();
                }
            };
            fill(&mut g);
            let peak = g.pool_stats().pool_peak_bytes;
            for pass in 0..3 {
                g.drain_in_place(&pool, &|_, _| {});
                assert_eq!(g.pool_stats().pool_bytes, 0, "every chunk is free again");
                fill(&mut g);
                assert_eq!(
                    g.pool_stats().pool_peak_bytes,
                    peak,
                    "capacity {capacity}, pass {pass}"
                );
                let Ok(()) = g.force_flush(|_| Ok::<(), Infallible>(()));
                fill(&mut g);
                assert_eq!(
                    g.pool_stats().pool_peak_bytes,
                    peak,
                    "capacity {capacity}, pass {pass}"
                );
            }
        }
    }

    #[test]
    fn every_record_is_delivered_once_in_insertion_order_by_every_route() {
        let pool = WorkerPool::new(3);
        for (capacity, group) in [(3, 1), (37, 1), (500, 1), (20, 4)] {
            let nodes = 30;
            let mut g = GutterSet::in_groups(nodes as usize, capacity, group);
            let (inserted, delivered) = (
                parking_lot::Mutex::new(vec![Vec::new(); nodes as usize]),
                parking_lot::Mutex::new(vec![Vec::new(); nodes as usize]),
            );
            let apply = |node: u32, records: &[u32]| {
                delivered.lock()[node as usize].extend_from_slice(records);
            };
            let emitted = |b: Batch| {
                assert!(b.others.len() <= capacity * group);
                apply(b.node, &b.others);
                Ok::<(), Infallible>(())
            };
            for (i, (dst, record)) in skewed(nodes, 6_000, 3).into_iter().enumerate() {
                inserted.lock()[dst as usize].push(record);
                let Ok(()) = g.insert(dst, record, emitted);
                match i % 2_000 {
                    999 => assert!(g.drain_in_place(&pool, &apply) > 0),
                    1_999 => g.force_flush(emitted).unwrap(),
                    _ => {}
                }
            }
            let Ok(()) = g.force_flush(emitted);
            assert_eq!(g.buffered_len(), 0);
            assert_eq!(delivered.into_inner(), inserted.into_inner(), "capacity {capacity}");
        }
    }

    #[test]
    fn a_failing_sink_owns_a_grown_gutters_batch_and_the_rest_stay_buffered() {
        let mut g = GutterSet::new(4, 50);
        for r in 0..49 {
            g.insert(1, r, never_fills::<&str>).unwrap();
        }
        g.insert(0, 7, never_fills::<&str>).unwrap();
        g.insert(3, 8, never_fills::<&str>).unwrap();
        let mut failed = None;
        let err = g.insert(1, 49, |b| {
            failed = Some(b);
            Err("link down")
        });
        assert_eq!(err, Err("link down"));
        assert_eq!(failed, Some(Batch { node: 1, others: (0..50).collect() }));
        assert_eq!(g.buffered_len(), 2);
        assert_eq!((held(&g, 0), held(&g, 3)), (vec![7], vec![8]));
        // Gutter 1's four chunks are back on the free list.
        assert_eq!((g.gutters[1].len, chunks_in_use(&g)), (0, 2));
    }

    #[test]
    fn a_groups_gutters_leave_together_in_node_order_each_record_once() {
        // Ten nodes in groups of four (the last group holds two), three
        // records a node: a group is emitted once it holds twelve records.
        let (nodes, capacity, group) = (10u32, 3, 4);
        let mut g = GutterSet::in_groups(nodes as usize, capacity, group);
        let (mut out, mut inserted) = (Vec::new(), vec![Vec::new(); nodes as usize]);
        let mut state = 7u32;
        for record in 0..2_000u32 {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let dst = (state >> 16) % nodes;
            inserted[dst as usize].push(record);
            let before = out.len();
            let sink = |b: Batch| {
                out.push(b);
                Ok::<(), Infallible>(())
            };
            g.insert(dst, record, sink).unwrap();
            let held = |grp: usize| -> usize {
                g.gutters.chunks(group).nth(grp).unwrap().iter().map(|g| g.len).sum()
            };
            for grp in 0..(nodes as usize).div_ceil(group) {
                assert!(held(grp) < group * capacity, "group {grp} holds {}", held(grp));
            }
            let emitted = &out[before..];
            if emitted.is_empty() {
                continue;
            }
            let grp = dst as usize / group;
            assert_eq!(held(grp), 0, "record {record}: the whole group left");
            assert!(emitted.iter().all(|b| b.node as usize / group == grp && !b.others.is_empty()));
            assert!(emitted.windows(2).all(|w| w[0].node < w[1].node), "node order");
            let records: usize = emitted.iter().map(|b| b.others.len()).sum();
            assert_eq!(records, group * capacity, "record {record}: a group leaves full");
        }
        let Ok(()) = g.force_flush(|b| {
            out.push(b);
            Ok::<(), Infallible>(())
        });
        assert_eq!(g.buffered_len(), 0);
        let mut delivered = vec![Vec::new(); nodes as usize];
        for b in out {
            delivered[b.node as usize].extend(b.others);
        }
        assert_eq!(delivered, inserted, "each record exactly once, in insertion order");
    }

    #[test]
    fn capacity_of_zero_clamped_to_one() {
        let (mut g, q) = setup(2, 0);
        g.insert(0, 1); // immediately emitted
        assert_eq!(q.try_pop().unwrap().others, vec![1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Leaf gutters deliver the exact inserted multiset per node, in
        /// arrival order, in batches no larger than capacity (except the
        /// force-flush tail which may be smaller).
        #[test]
        fn delivers_in_order_batches(
            num_nodes in 1u32..30,
            capacity in 1usize..20,
            inserts in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300)
        ) {
            let queue = Arc::new(WorkQueue::with_capacity(1 << 16));
            let mut gutters = LeafGutters::new(num_nodes as usize, capacity, Arc::clone(&queue));
            // The same stream into bare gutters: the adapter adds the queue
            // and nothing else, so both emit the same batches in the same order.
            let mut bare = GutterSet::new(num_nodes as usize, capacity);
            let mut handed = Vec::new();
            let mut sink = |b: Batch| {
                handed.push(b);
                Ok::<(), Infallible>(())
            };
            let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
            for (dst, other) in inserts {
                let dst = dst % num_nodes;
                gutters.insert(dst, other);
                let Ok(()) = bare.insert(dst, other, &mut sink);
                expected.entry(dst).or_default().push(other);
            }
            gutters.force_flush();
            let Ok(()) = bare.force_flush(&mut sink);
            prop_assert_eq!((gutters.buffered_len(), bare.buffered_len()), (0, 0));

            let mut got: HashMap<u32, Vec<u32>> = HashMap::new();
            let mut queued = Vec::new();
            while let Some(b) = queue.try_pop() {
                prop_assert!(b.others.len() <= capacity.max(1));
                got.entry(b.node).or_default().extend(b.others.iter().copied());
                queued.push(b);
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(queued, handed);
        }
    }
}
