//! The shard router: inter-shard batching at the coordinator.
//!
//! A message per stream update costs more than the sketch work it carries
//! (*Exploring the Landscape of Distributed Graph Sketching*), so the router
//! batches before anything crosses to a shard. It is the system's buffering
//! layer (paper §5.1), one lane per destination shard over either of
//! `gz_gutters`' buffers, as [`BufferStrategy`] selects: in-RAM leaf gutters
//! ([`GutterSet`]) or an on-disk gutter tree ([`BufferTree`]). Either
//! accumulates records per graph node, and the record that fills a gutter
//! or a tree leaf hands its node-keyed [`Batch`] straight to the caller's
//! `send` — a tree's while the cascade that filled it is still running —
//! which the transport ships as a single `Batch{node, records}` frame.
//! Nothing sits between buffer and `send`, so a transport that blocks (an
//! in-process shard's bounded work queue) holds ingestion back with it. A
//! flush over shards in this process sends nothing but a tree's cascade
//! overflow: [`ShardRouter::drain_in_place`] hands each gutter's records to
//! the owning shard's store where they lie.
//!
//! Each shard's lane indexes its buffer by *local* node index
//! (`node / num_shards`, dense within the shard's residue class) so the
//! router's memory is one gutter per graph node **total**, not per shard —
//! the same owned-nodes-only discipline the shard stores follow.

use crate::config::BufferStrategy;
use crate::error::GzError;
use crate::node_sketch::SketchParams;
use crate::sharding::ShardConfig;
use crate::store::{with_backing_file, NodeSet};
use gz_gutters::{
    Batch, BufferTree, GutterPoolStats, GutterSet, GutterTreeConfig, IngestCounters, IoStats,
    WorkerPool,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// The coordinator's per-shard recovery buffer (DESIGN.md §14): every batch
/// shipped to a shard since its last durable checkpoint, indexed by the
/// shard's batch sequence number. Because XOR updates commute and the link
/// is ordered, replaying `log.iter_from(seq)` into a worker restored at
/// `seq` reproduces the dead worker's state exactly; entries at or before
/// `seq` must never be replayed (the restored state already absorbed them —
/// XOR-ing them again would cancel them out).
pub struct ReplayLog {
    /// Batches `first_seq..first_seq + entries.len()`, in ship order.
    entries: VecDeque<Batch>,
    /// Sequence number of the first retained entry (= batches already
    /// covered by the shard's last acknowledged checkpoint).
    first_seq: u64,
}

impl ReplayLog {
    /// An empty log starting at sequence `seq`: a worker whose restored
    /// checkpoint covers its first `seq` batches (0 for a fresh one).
    pub fn starting_at(seq: u64) -> Self {
        ReplayLog { entries: VecDeque::new(), first_seq: seq }
    }

    /// Record a shipped batch; returns its sequence number (the count of
    /// batches shipped *after* this one is appended).
    pub fn append(&mut self, batch: Batch) -> u64 {
        self.entries.push_back(batch);
        self.first_seq + self.entries.len() as u64
    }

    /// Sequence number the next appended batch will complete.
    pub fn next_seq(&self) -> u64 {
        self.first_seq + self.entries.len() as u64
    }

    /// Drop every entry covered by a checkpoint at `seq` (from a
    /// `CheckpointAck`). A stale ack — below the current floor — is a
    /// no-op; an ack beyond what was shipped is a protocol violation the
    /// caller detects via [`Self::covers`].
    pub fn prune_through(&mut self, seq: u64) {
        while self.first_seq < seq {
            if self.entries.pop_front().is_none() {
                break;
            }
            self.first_seq += 1;
        }
    }

    /// Whether a worker restored at `seq` can be caught up from this log:
    /// the log must retain every batch after `seq`, and `seq` must not
    /// exceed what was ever shipped.
    pub fn covers(&self, seq: u64) -> bool {
        seq >= self.first_seq && seq <= self.next_seq()
    }

    /// The batches a worker restored at `seq` is missing, in ship order.
    /// Call only when [`Self::covers`] holds.
    pub fn iter_from(&self, seq: u64) -> impl Iterator<Item = &Batch> {
        debug_assert!(self.covers(seq));
        self.entries.iter().skip((seq - self.first_seq) as usize)
    }

    /// Retained entries (bounded by the checkpoint cadence).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What a lane buffers its records in.
enum Buffer {
    Leaf(GutterSet),
    Tree(BufferTree),
}

/// Records `buffer` holds.
fn buffer_len(buffer: &Buffer) -> usize {
    match buffer {
        Buffer::Leaf(gutters) => gutters.buffered_len(),
        Buffer::Tree(tree) => tree.buffered_len(),
    }
}

/// Per-destination-shard buffering lane: a buffer indexed by the shard's
/// local node index, and the set that maps those back to graph node ids.
struct Lane {
    buffer: Buffer,
    owned: NodeSet,
}

/// The sink a lane's buffer emits into: count the batch, put its graph node
/// id back, and hand it to `send`.
fn forward<'a>(
    owned: &'a NodeSet,
    shard: u32,
    counters: &'a IngestCounters,
    send: &'a mut impl FnMut(u32, Batch) -> Result<(), GzError>,
) -> impl FnMut(Batch) -> Result<(), GzError> + 'a {
    move |batch| {
        counters.record_batches(1, batch.others.len() as u64);
        send(shard, Batch { node: owned.node(batch.node as usize), others: batch.others })
    }
}

/// Routes stream updates to destination shards in node-keyed batches.
pub struct ShardRouter {
    lanes: Vec<Lane>,
    num_shards: u32,
    /// Batches and records that left the buffers, by either route; the
    /// system above records its flushes here too.
    counters: IngestCounters,
    /// I/O of the lanes' gutter trees, one set for all of them (`None` for
    /// leaf gutters).
    tree_io: Option<Arc<IoStats>>,
}

impl ShardRouter {
    /// A router for `config`'s shards, buffering as `config.buffering`
    /// says, its capacities resolved against `params`' node-sketch size
    /// (the paper's gutter-sizing rule). Shard `i`'s leaf gutters emit in
    /// its store's node groups, `group_nodes[i]` nodes each
    /// ([`crate::sharding::ShardTransport::group_nodes`]). A gutter tree is
    /// one per lane, each over the lane's owned nodes, in a backing file of
    /// its own in the strategy's directory.
    pub fn new(
        config: &ShardConfig,
        params: &SketchParams,
        group_nodes: &[u32],
    ) -> Result<Self, GzError> {
        let num_shards = config.num_shards;
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(group_nodes.len(), num_shards as usize, "one group size a shard");
        let node_sketch_bytes = params.node_sketch_bytes();
        let io = Arc::new(IoStats::new());
        let lanes = (0..num_shards)
            .map(|s| {
                let owned = NodeSet::strided(config.num_nodes, s, num_shards);
                let buffer = match &config.buffering {
                    BufferStrategy::LeafOnly { capacity } => Buffer::Leaf(GutterSet::in_groups(
                        owned.len(),
                        capacity.resolve(node_sketch_bytes),
                        group_nodes[s as usize] as usize,
                    )),
                    BufferStrategy::GutterTree { buffer_bytes, fanout, leaf_capacity, dir } => {
                        let tree = with_backing_file(dir, "gz_gutter_tree", |path| {
                            let config = GutterTreeConfig {
                                num_nodes: owned.len() as u32,
                                leaf_capacity_updates: leaf_capacity.resolve(node_sketch_bytes),
                                buffer_bytes: *buffer_bytes,
                                fanout: *fanout,
                                path,
                            };
                            BufferTree::new(config, Arc::clone(&io))
                        })?;
                        Buffer::Tree(tree)
                    }
                };
                Ok(Lane { buffer, owned })
            })
            .collect::<Result<_, GzError>>()?;
        let tree_io = matches!(config.buffering, BufferStrategy::GutterTree { .. }).then_some(io);
        Ok(ShardRouter { lanes, num_shards, counters: IngestCounters::new(), tree_io })
    }

    /// The shard owning vertex `v` (no division for one shard).
    #[inline]
    pub fn shard_of(&self, v: u32) -> u32 {
        match self.num_shards {
            1 => 0,
            k => v % k,
        }
    }

    /// Number of shards routed to.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Buffer one encoded record bound for `dst`; the record that fills a
    /// gutter emits it through `send(shard, batch)`, whose error returns at
    /// once.
    #[inline(always)]
    pub fn insert(
        &mut self,
        dst: u32,
        record: u32,
        send: &mut impl FnMut(u32, Batch) -> Result<(), GzError>,
    ) -> Result<(), GzError> {
        let shard = self.shard_of(dst);
        let Lane { buffer, owned } = &mut self.lanes[shard as usize];
        let mut sink = forward(owned, shard, &self.counters, send);
        let local = owned.slot(dst) as u32;
        match buffer {
            Buffer::Leaf(gutters) => gutters.insert(local, record, sink),
            Buffer::Tree(tree) => tree.insert(local, record, &mut sink),
        }
    }

    /// Route one stream update `(u, v, is_delete)`: both endpoint records
    /// are buffered toward their owners (at most two shards involved).
    #[inline(always)]
    pub fn route_update(
        &mut self,
        u: u32,
        v: u32,
        is_delete: bool,
        send: &mut impl FnMut(u32, Batch) -> Result<(), GzError>,
    ) -> Result<(), GzError> {
        self.insert(u, crate::node_sketch::encode_other(v, is_delete), send)?;
        self.insert(v, crate::node_sketch::encode_other(u, is_delete), send)
    }

    /// Emit every buffered record (the start of query processing), shard by
    /// shard in node order, stopping at the first `send` error.
    pub fn flush(
        &mut self,
        send: &mut impl FnMut(u32, Batch) -> Result<(), GzError>,
    ) -> Result<(), GzError> {
        for (shard, Lane { buffer, owned }) in (0..).zip(&mut self.lanes) {
            let mut sink = forward(owned, shard, &self.counters, send);
            match buffer {
                Buffer::Leaf(gutters) => gutters.force_flush(sink)?,
                Buffer::Tree(tree) => tree.force_flush(&mut sink)?,
            }
        }
        Ok(())
    }

    /// The flush of a coordinator whose shards are in this process: apply
    /// every buffered record where it lies ([`GutterSet::drain_in_place`],
    /// [`BufferTree::drain_in_place`], lane by lane) through
    /// `apply(shard, node, records)`, `node` a graph node id. A tree leaf
    /// that fills while the tree cascades leaves through `send`. Each
    /// nonempty gutter counts as the batch [`Self::flush`] would have sent.
    pub fn drain_in_place(
        &mut self,
        pool: &WorkerPool,
        send: &mut impl FnMut(u32, Batch) -> Result<(), GzError>,
        apply: &(dyn Fn(u32, u32, &[u32]) + Sync),
    ) -> Result<(), GzError> {
        for (shard, Lane { buffer, owned }) in (0..).zip(&mut self.lanes) {
            let owned = &*owned;
            let apply =
                |local: u32, records: &[u32]| apply(shard, owned.node(local as usize), records);
            // What the cascade sends, `forward` counts; the rest is applied.
            let (buffered, sent) = (buffer_len(buffer), self.counters.records());
            let batches = match buffer {
                Buffer::Leaf(gutters) => gutters.drain_in_place(pool, &apply),
                Buffer::Tree(tree) => {
                    let mut sink = forward(owned, shard, &self.counters, send);
                    tree.drain_in_place(pool, &mut sink, &apply)?
                }
            };
            let applied = buffered as u64 - (self.counters.records() - sent);
            self.counters.record_batches(batches as u64, applied);
        }
        Ok(())
    }

    /// Records buffered and not yet emitted.
    pub fn buffered_len(&self) -> usize {
        self.lanes.iter().map(|lane| buffer_len(&lane.buffer)).sum()
    }

    /// Batches that left the buffers so far, sent or applied in place.
    pub fn batches_emitted(&self) -> u64 {
        self.counters.batches()
    }

    /// Batches and records that left the buffers, and the flushes the
    /// system above recorded.
    pub fn counters(&self) -> &IngestCounters {
        &self.counters
    }

    /// I/O counters of the lanes' gutter trees (gutter-tree buffering only).
    pub fn gutter_io(&self) -> Option<Arc<IoStats>> {
        self.tree_io.clone()
    }

    /// The lanes' leaf gutters' records and chunk pools, summed (leaf
    /// gutters only).
    pub fn gutter_pool(&self) -> Option<GutterPoolStats> {
        let leaf = |lane: &Lane| match &lane.buffer {
            Buffer::Leaf(gutters) => Some(gutters.pool_stats()),
            Buffer::Tree(_) => None,
        };
        self.lanes.iter().map(leaf).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GutterCapacity;
    use crate::node_sketch::encode_other;
    use std::collections::HashMap;

    /// A router over leaf gutters of `cap` records.
    pub(super) fn leaf_router(num_nodes: u64, num_shards: u32, cap: usize) -> ShardRouter {
        let mut config = ShardConfig::in_ram(num_nodes, num_shards);
        config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(cap) };
        ShardRouter::new(&config, &config.params(), &vec![1; num_shards as usize]).unwrap()
    }

    /// Collects emitted batches per shard, checking the routing contract.
    fn collect(
        num_nodes: u64,
        num_shards: u32,
        cap: usize,
        updates: &[(u32, u32, bool)],
    ) -> HashMap<u32, Vec<Batch>> {
        let mut router = leaf_router(num_nodes, num_shards, cap);
        let mut out: HashMap<u32, Vec<Batch>> = HashMap::new();
        let mut send = |shard: u32, batch: Batch| {
            out.entry(shard).or_default().push(batch);
            Ok(())
        };
        for &(u, v, d) in updates {
            router.route_update(u, v, d, &mut send).unwrap();
        }
        router.flush(&mut send).unwrap();
        assert_eq!(router.buffered_len(), 0);
        out
    }

    #[test]
    fn batching_reduces_messages() {
        let updates: Vec<(u32, u32, bool)> =
            (0..300u32).map(|i| (i % 8, (i + 1) % 8, false)).filter(|&(a, b, _)| a != b).collect();
        let batched = collect(8, 2, 50, &updates);
        let unbatched = collect(8, 2, 1, &updates);
        let count = |m: &HashMap<u32, Vec<Batch>>| m.values().map(Vec::len).sum::<usize>();
        assert!(
            count(&batched) * 10 <= count(&unbatched),
            "batched {} vs unbatched {}",
            count(&batched),
            count(&unbatched)
        );
    }

    /// A link that refuses its `fail_at`-th batch and accepts every other.
    struct FlakyLink {
        fail_at: usize,
        calls: usize,
        delivered: usize,
        refused: usize,
    }

    impl FlakyLink {
        fn send(&mut self, batch: Batch) -> Result<(), GzError> {
            self.calls += 1;
            if self.calls - 1 == self.fail_at {
                self.refused += batch.others.len();
                return Err(GzError::Protocol("link down".into()));
            }
            self.delivered += batch.others.len();
            Ok(())
        }
    }

    #[test]
    fn a_refused_batch_returns_at_once_and_nothing_else_is_lost() {
        // Five records for each of 12 vertices into capacity-2 gutters:
        // `insert` emits batches 0..24 (two records each), the flush of the
        // 12 leftovers emits batches 24..36. Refuse one of either kind.
        for fail_at in [0usize, 7, 23, 24, 30] {
            let mut router = leaf_router(12, 3, 2);
            let mut link = FlakyLink { fail_at, calls: 0, delivered: 0, refused: 0 };
            let mut errors = 0;
            for i in 0..60u32 {
                let sent = router.insert(i % 12, encode_other(i, false), &mut |_, b| link.send(b));
                if sent.is_err() {
                    errors += 1;
                    assert_eq!(link.calls, fail_at + 1, "the error comes from the insert it hit");
                }
                let inserted = i as usize + 1;
                assert_eq!(link.delivered + link.refused + router.buffered_len(), inserted);
            }
            if router.flush(&mut |_, b| link.send(b)).is_err() {
                errors += 1;
                assert_eq!(link.calls, fail_at + 1, "a failed flush sends nothing further");
                assert_eq!(link.delivered + link.refused + router.buffered_len(), 60);
                router.flush(&mut |_, b| link.send(b)).unwrap();
            }
            assert_eq!(errors, 1);
            assert_eq!(link.refused, if fail_at < 24 { 2 } else { 1 });
            assert_eq!((link.delivered + link.refused, router.buffered_len()), (60, 0));
            assert_eq!(router.batches_emitted(), 36);
        }
    }

    #[test]
    fn route_update_stops_at_the_first_refused_half() {
        let mut router = leaf_router(8, 2, 1);
        let mut link = FlakyLink { fail_at: 0, calls: 0, delivered: 0, refused: 0 };
        let err = router.route_update(3, 4, false, &mut |_, b| link.send(b));
        assert!(matches!(err, Err(GzError::Protocol(_))));
        // The record for vertex 4 was never buffered, let alone sent.
        assert_eq!((link.calls, link.refused, router.buffered_len()), (1, 1, 0));
    }

    #[test]
    fn single_shard_router_degenerates_to_leaf_gutters() {
        let updates: Vec<(u32, u32, bool)> = vec![(0, 1, false), (1, 2, false), (2, 0, false)];
        let per_shard = collect(4, 1, 100, &updates);
        assert_eq!(per_shard.len(), 1);
        assert!(per_shard.contains_key(&0));
    }

    fn batch(node: u32, rec: u32) -> Batch {
        Batch { node, others: vec![rec] }
    }

    #[test]
    fn replay_log_appends_prunes_and_replays_the_exact_tail() {
        let mut log = ReplayLog::starting_at(0);
        assert!(log.is_empty());
        assert_eq!(log.append(batch(0, 10)), 1);
        assert_eq!(log.append(batch(2, 20)), 2);
        assert_eq!(log.append(batch(4, 30)), 3);
        assert_eq!(log.next_seq(), 3);

        // A worker restored from a checkpoint at seq 1 needs batches 2..3.
        assert!(log.covers(1));
        let tail: Vec<u32> = log.iter_from(1).map(|b| b.node).collect();
        assert_eq!(tail, vec![2, 4]);
        // A live worker that absorbed everything needs nothing.
        assert!(log.iter_from(3).next().is_none());

        // CheckpointAck at 2 prunes entries 1..=2 and keeps 3.
        log.prune_through(2);
        assert_eq!(log.len(), 1);
        assert!(log.covers(2) && log.covers(3));
        assert!(!log.covers(1), "pruned history is unrecoverable");
        let tail: Vec<u32> = log.iter_from(2).map(|b| b.node).collect();
        assert_eq!(tail, vec![4]);

        // Stale and over-eager acks are tolerated without panicking.
        log.prune_through(1);
        assert_eq!(log.len(), 1);
        log.prune_through(100);
        assert!(log.is_empty());
        assert_eq!(log.next_seq(), 3, "pruning never rewinds the sequence");
        assert!(!log.covers(100), "an ack beyond shipped batches is detectable");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::leaf_router;
    use super::*;
    use crate::config::GutterCapacity;
    use crate::node_sketch::encode_other;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever the gutter capacity and shard count, each vertex's
        /// owner receives exactly the records bound for it, in arrival
        /// order, in batches no longer than the capacity.
        #[test]
        fn every_record_arrives_once_in_order_in_bounded_batches(
            num_nodes in 2u32..48,
            raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..300)
        ) {
            let updates: Vec<(u32, u32, bool)> = raw
                .into_iter()
                .map(|(u, v, d)| (u % num_nodes, v % num_nodes, d))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
            for &(u, v, d) in &updates {
                expected.entry(u).or_default().push(encode_other(v, d));
                expected.entry(v).or_default().push(encode_other(u, d));
            }
            for capacity in [1usize, 3, 64] {
                for num_shards in [1u32, 3, 7] {
                    let mut router = leaf_router(num_nodes as u64, num_shards, capacity);
                    let mut got: HashMap<u32, Vec<u32>> = HashMap::new();
                    let mut send = |shard: u32, batch: Batch| {
                        assert_eq!(batch.node % num_shards, shard, "sent to the owner");
                        assert!((1..=capacity).contains(&batch.others.len()));
                        got.entry(batch.node).or_default().extend(batch.others);
                        Ok(())
                    };
                    for &(u, v, d) in &updates {
                        router.route_update(u, v, d, &mut send).unwrap();
                    }
                    router.flush(&mut send).unwrap();
                    prop_assert_eq!(router.buffered_len(), 0);
                    prop_assert_eq!(&got, &expected);
                }
            }
        }

        /// The same over gutter-tree lanes, by either flush: the owner
        /// receives each of its records once, in arrival order — what the
        /// cascades sent, then what the in-place flush applied.
        #[test]
        fn tree_lanes_deliver_every_record_once_in_order(
            num_nodes in 2u32..48,
            raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..300)
        ) {
            let updates: Vec<(u32, u32, bool)> = raw
                .into_iter()
                .map(|(u, v, d)| (u % num_nodes, v % num_nodes, d))
                .filter(|&(u, v, _)| u != v)
                .collect();
            let mut expected: HashMap<u32, Vec<u32>> = HashMap::new();
            for &(u, v, d) in &updates {
                expected.entry(u).or_default().push(encode_other(v, d));
                expected.entry(v).or_default().push(encode_other(u, d));
            }
            let dir = gz_testutil::TempDir::new("gz-router-tree-lanes");
            let pool = WorkerPool::new(2);
            for (num_shards, in_place) in [(1u32, false), (3, false), (1, true), (3, true)] {
                let mut config = ShardConfig::in_ram(num_nodes as u64, num_shards);
                config.buffering = BufferStrategy::GutterTree {
                    buffer_bytes: 8 * 8,
                    fanout: 2,
                    leaf_capacity: GutterCapacity::Updates(3),
                    dir: dir.path().to_path_buf(),
                };
                let groups = vec![1; num_shards as usize];
                let mut router = ShardRouter::new(&config, &config.params(), &groups).unwrap();
                let got = parking_lot::Mutex::new(HashMap::<u32, Vec<u32>>::new());
                let mut send = |shard: u32, batch: Batch| {
                    assert_eq!(batch.node % num_shards, shard, "sent to the owner");
                    got.lock().entry(batch.node).or_default().extend(batch.others);
                    Ok(())
                };
                for &(u, v, d) in &updates {
                    router.route_update(u, v, d, &mut send).unwrap();
                }
                if in_place {
                    let apply = |shard: u32, node: u32, records: &[u32]| {
                        assert_eq!(node % num_shards, shard, "applied to the owner");
                        got.lock().entry(node).or_default().extend_from_slice(records);
                    };
                    router.drain_in_place(&pool, &mut send, &apply).unwrap();
                } else {
                    router.flush(&mut send).unwrap();
                }
                prop_assert_eq!(router.buffered_len(), 0);
                prop_assert_eq!(&got.into_inner(), &expected);
                let records = router.counters().records();
                prop_assert_eq!(records, 2 * updates.len() as u64);
            }
        }
    }
}
