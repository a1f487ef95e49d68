//! Leaf-only gutters (paper §5.1).
//!
//! One in-RAM buffer ("gutter") per graph node, used when memory allows
//! (`M > V·B`): `buffer_insert((u, v))` appends `v` to `u`'s gutter, and a
//! full gutter is emitted as one batch. The gutter capacity is a
//! configurable fraction `f` of the node-sketch size — the knob swept by the
//! paper's Figure 15; callers resolve it to a record count. That capacity is
//! the emit threshold and the paper's `M > V·B` accounting bound, not the
//! bytes a gutter holds: a gutter reserves as it fills, doubling from 16
//! records (one cache line) and never past the threshold, so a vertex that
//! sees a handful of records costs a cache line, not a page.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Gutter indices a flush worker claims at a time: enough that the shared
/// cursor is touched once per several batches, few enough that uneven
/// gutters still balance across workers.
pub(crate) const CLAIM: usize = 16;

/// Records a gutter reserves on its first insert: one cache line. A full
/// gutter doubles from here up to its emit threshold.
const FIRST_RESERVE: usize = 16;

/// Make room in a full `gutter`: double it up to the per-node `capacity`,
/// then grow it one capacity at a time, never past the group's
/// `threshold`. Out of line, as `GutterSet::emit_group` is.
#[cold]
#[inline(never)]
fn grow(gutter: &mut Vec<u32>, capacity: usize, threshold: usize) {
    let grown = match gutter.len() < capacity {
        true => (2 * gutter.len()).clamp(FIRST_RESERVE.min(capacity), capacity),
        false => (gutter.len() + capacity).min(threshold),
    };
    gutter.reserve_exact(grown - gutter.len());
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
    gutters: Vec<Vec<u32>>,
    capacity: usize,
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
            gutters: vec![Vec::new(); num_nodes],
            capacity,
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

    /// Buffer `other` for `dst`; the record that fills `dst`'s group emits
    /// the group's nonempty gutters through `sink`, in node order. A gutter
    /// short of room doubles its reservation, from 16 records up to the
    /// per-node capacity; past it — a vertex holding more than its share of
    /// a group — it grows a capacity at a time, never past the group's
    /// threshold. Always inlined: it is on every record's path, and out of
    /// line it costs the router a call a record.
    #[inline(always)]
    pub fn insert<E>(
        &mut self,
        dst: u32,
        other: u32,
        sink: impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let threshold = self.threshold;
        let gutter = &mut self.gutters[dst as usize];
        if gutter.len() == gutter.capacity() {
            grow(gutter, self.capacity, threshold);
        }
        gutter.push(other);
        self.buffered += 1;
        let group = if self.fill.is_empty() {
            if gutter.len() < threshold {
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
        self.emit_group(group, dst, sink)
    }

    /// Hand `group`'s nonempty gutters to `sink` in node order. Each
    /// restarts empty; the one whose record `filled` the group keeps the
    /// per-node capacity reserved, since a vertex that filled it once is
    /// likely to again, and the rest reserve nothing, as after a force
    /// flush — their vertices' shares of the next fill are unknown. Out of
    /// line, as [`grow`] is: `insert` is inlined into every record's path,
    /// and these run once a fill.
    #[cold]
    #[inline(never)]
    fn emit_group<E>(
        &mut self,
        group: usize,
        filled: u32,
        mut sink: impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = (group * self.group) as u32;
        let end = self.gutters.len().min(group * self.group + self.group) as u32;
        (start..end).try_for_each(|node| {
            let reserve = if node == filled { self.capacity } else { 0 };
            self.emit(node, reserve, &mut sink)
        })
    }

    /// Emit every nonempty gutter, in node order, regardless of fill level.
    /// An emitted gutter restarts empty, with nothing reserved.
    pub fn force_flush<E>(
        &mut self,
        mut sink: impl FnMut(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        (0..self.gutters.len() as u32).try_for_each(|node| self.emit(node, 0, &mut sink))
    }

    /// Flush without emitting: hand every nonempty gutter's records to
    /// `apply(node, records)` where they lie, on all of `pool`'s workers at
    /// once (the caller is worker 0), and return how many gutters were
    /// nonempty — the batches [`Self::force_flush`] would have emitted.
    /// Workers claim runs of gutter indices off one cursor, so each gutter
    /// reaches `apply` exactly once, its records in insertion order; no
    /// [`Batch`] is built and every gutter keeps its buffer, at the capacity
    /// it grew to, for the next insert. With nothing buffered the pool is
    /// not woken. A panic in `apply` is rethrown here with the gutters as
    /// they were.
    pub fn drain_in_place(
        &mut self,
        pool: &WorkerPool,
        apply: &(dyn Fn(u32, &[u32]) + Sync),
    ) -> usize {
        if self.buffered == 0 {
            return 0;
        }
        let gutters = &self.gutters;
        // The cursor publishes nothing: the gutters are read-only for the
        // whole dispatch, and `run` orders it against this thread.
        let cursor = AtomicUsize::new(0);
        pool.run(&|_| loop {
            let start = cursor.fetch_add(CLAIM, Ordering::Relaxed);
            if start >= gutters.len() {
                break;
            }
            let claimed = &gutters[start..gutters.len().min(start + CLAIM)];
            for (node, records) in (start as u32..).zip(claimed).filter(|(_, g)| !g.is_empty()) {
                apply(node, records);
            }
        });
        let mut nonempty = 0;
        for gutter in &mut self.gutters {
            nonempty += usize::from(!gutter.is_empty());
            gutter.clear();
        }
        self.fill.fill(0);
        self.buffered = 0;
        nonempty
    }

    /// Hand `node`'s records to `sink`, leaving the gutter empty with
    /// `reserve` records reserved.
    fn emit<E>(
        &mut self,
        node: u32,
        reserve: usize,
        sink: impl FnOnce(Batch) -> Result<(), E>,
    ) -> Result<(), E> {
        let gutter = &mut self.gutters[node as usize];
        if gutter.is_empty() {
            return Ok(());
        }
        let others = std::mem::replace(gutter, Vec::with_capacity(reserve));
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
    fn drain_in_place_applies_each_gutter_once_and_keeps_its_buffer() {
        let pool = WorkerPool::new(4);
        let (mut g, expected) = uneven();
        let buffers: Vec<(*const u32, usize)> =
            g.gutters.iter().map(|v| (v.as_ptr(), v.capacity())).collect();
        let seen = parking_lot::Mutex::new(Vec::new());
        let apply = |node: u32, records: &[u32]| seen.lock().push((node, records.to_vec()));
        assert_eq!(g.drain_in_place(&pool, &apply), expected.len());
        let mut seen = seen.into_inner();
        seen.sort();
        assert_eq!(seen, expected, "each nonempty gutter once, its records in insertion order");
        assert_eq!(g.buffered_len(), 0);
        assert!(g.gutters.iter().all(Vec::is_empty));

        // Nothing was taken: every gutter still owns the buffer it had, and
        // the next insert lands in it.
        g.insert(50, 7, |_| -> Result<(), Infallible> { unreachable!() }).unwrap();
        let after: Vec<(*const u32, usize)> =
            g.gutters.iter().map(|v| (v.as_ptr(), v.capacity())).collect();
        assert_eq!(after, buffers);
        assert_eq!((g.gutters[50].as_slice(), g.buffered_len()), (&[7u32][..], 1));

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

    #[test]
    fn a_gutter_reserves_as_it_fills_and_never_past_its_threshold() {
        for threshold in [1, 5, 16, 17, 100, 1000] {
            let mut g = GutterSet::new(2, threshold);
            for k in 1..threshold {
                g.insert(1, k as u32, never_fills::<Infallible>).unwrap();
                let reserved = g.gutters[1].capacity();
                assert!(reserved >= k, "holds what it buffers");
                assert!(reserved <= (2 * k).max(FIRST_RESERVE), "k={k}: {reserved} reserved");
                assert!(reserved <= threshold, "k={k}: {reserved} past threshold {threshold}");
            }
            assert_eq!(g.gutters[0].capacity(), 0, "an untouched gutter reserves nothing");
        }
    }

    #[test]
    fn a_fill_emit_leaves_the_gutter_empty_with_its_threshold_reserved() {
        let mut g = GutterSet::new(3, 40);
        let mut out = Vec::new();
        for r in 0..40 {
            g.insert(2, r, |b| {
                out.push(b);
                Ok::<(), Infallible>(())
            })
            .unwrap();
        }
        assert_eq!(out, vec![Batch { node: 2, others: (0..40).collect() }]);
        assert_eq!((g.gutters[2].len(), g.gutters[2].capacity()), (0, 40));
        // The next record lands in that reservation; no regrowth.
        let reserved = g.gutters[2].as_ptr();
        g.insert(2, 99, never_fills::<Infallible>).unwrap();
        assert_eq!((g.gutters[2].as_ptr(), g.gutters[2].capacity()), (reserved, 40));
        // A force-flushed gutter restarts empty, with nothing reserved.
        let Ok(()) = g.force_flush(|_| Ok::<(), Infallible>(()));
        assert_eq!((g.gutters[2].len(), g.gutters[2].capacity()), (0, 0));
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
        assert_eq!((g.gutters[0].as_slice(), g.gutters[3].as_slice()), (&[7u32][..], &[8u32][..]));
        assert_eq!((g.gutters[1].len(), g.gutters[1].capacity()), (0, 50));
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
                g.gutters.chunks(group).nth(grp).unwrap().iter().map(Vec::len).sum()
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
