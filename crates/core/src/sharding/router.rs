//! The shard router: inter-shard batching at the coordinator.
//!
//! A message per stream update costs more than the sketch work it carries
//! (*Exploring the Landscape of Distributed Graph Sketching*), so the router
//! batches before anything crosses to a shard. It reuses the gutters from
//! `gz_gutters`: one [`GutterSet`] per destination shard accumulates records
//! per graph node,
//! and the record that fills a gutter hands its node-keyed [`Batch`]
//! straight to the caller's `send`, which the transport ships as a single
//! `Batch{node, records}` frame. Nothing sits between gutter and `send`.
//! A flush over shards in this process sends nothing: [`ShardRouter::drain_in_place`]
//! hands each gutter's records to the owning shard's store where they lie.
//!
//! Each shard's lane indexes its gutters by *local* node index
//! (`node / num_shards`, dense within the shard's residue class) so the
//! router's memory is one gutter per graph node **total**, not per shard —
//! the same owned-nodes-only discipline the shard stores follow.

use crate::config::GutterCapacity;
use crate::error::GzError;
use crate::store::NodeSet;
use gz_gutters::{Batch, GutterSet, IngestCounters, WorkerPool};
use std::collections::VecDeque;

/// The coordinator's per-shard recovery buffer (DESIGN.md §14): every batch
/// shipped to a shard since its last durable checkpoint, indexed by the
/// shard's batch sequence number. Because XOR updates commute and the link
/// is ordered, replaying `log.iter_from(seq)` into a worker restored at
/// `seq` reproduces the dead worker's state exactly; entries at or before
/// `seq` must never be replayed (the restored state already absorbed them —
/// XOR-ing them again would cancel them out).
#[derive(Default)]
pub struct ReplayLog {
    /// Batches `first_seq..first_seq + entries.len()`, in ship order.
    entries: VecDeque<Batch>,
    /// Sequence number of the first retained entry (= batches already
    /// covered by the shard's last acknowledged checkpoint).
    first_seq: u64,
}

impl ReplayLog {
    /// An empty log starting at sequence 0 (a fresh worker).
    pub fn new() -> Self {
        ReplayLog::default()
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

/// Per-destination-shard buffering lane: gutters indexed by the shard's
/// local node index, and the set that maps those back to graph node ids.
struct Lane {
    gutters: GutterSet,
    owned: NodeSet,
}

/// The sink a lane's gutters emit into: count the batch, put its graph node
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
    /// Batches and records that left the gutters, by either route; the
    /// system above records its flushes here too.
    counters: IngestCounters,
}

impl ShardRouter {
    /// A router for `num_shards` shards over a `num_nodes` universe, with
    /// per-node gutters holding `capacity` records (resolved against
    /// `node_sketch_bytes`, the paper's gutter-sizing rule).
    pub fn new(
        num_nodes: u64,
        num_shards: u32,
        capacity: GutterCapacity,
        node_sketch_bytes: usize,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let cap = capacity.resolve(node_sketch_bytes);
        let lanes = (0..num_shards)
            .map(|s| {
                let owned = NodeSet::strided(num_nodes, s, num_shards);
                Lane { gutters: GutterSet::new(owned.len(), cap), owned }
            })
            .collect();
        ShardRouter { lanes, num_shards, counters: IngestCounters::new() }
    }

    /// The shard owning vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: u32) -> u32 {
        v % self.num_shards
    }

    /// Number of shards routed to.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Buffer one encoded record bound for `dst`; the record that fills a
    /// gutter emits it through `send(shard, batch)`, whose error returns at
    /// once.
    #[inline]
    pub fn insert(
        &mut self,
        dst: u32,
        record: u32,
        send: &mut impl FnMut(u32, Batch) -> Result<(), GzError>,
    ) -> Result<(), GzError> {
        let shard = self.shard_of(dst);
        let Lane { gutters, owned } = &mut self.lanes[shard as usize];
        let sink = forward(owned, shard, &self.counters, send);
        gutters.insert(owned.slot(dst) as u32, record, sink)
    }

    /// Route one stream update `(u, v, is_delete)`: both endpoint records
    /// are buffered toward their owners (at most two shards involved).
    #[inline]
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
        for (shard, Lane { gutters, owned }) in (0..).zip(&mut self.lanes) {
            gutters.force_flush(forward(owned, shard, &self.counters, send))?;
        }
        Ok(())
    }

    /// The flush of a coordinator whose shards are in this process: apply
    /// every buffered record where it lies ([`GutterSet::drain_in_place`],
    /// lane by lane) through `apply(shard, node, records)`, `node` a graph
    /// node id. Each nonempty gutter counts as the batch [`Self::flush`]
    /// would have sent.
    pub fn drain_in_place(&mut self, pool: &WorkerPool, apply: &(dyn Fn(u32, u32, &[u32]) + Sync)) {
        for (shard, Lane { gutters, owned }) in (0..).zip(&mut self.lanes) {
            let records = gutters.buffered_len() as u64;
            let batches = gutters.drain_in_place(pool, &|local, records| {
                apply(shard, owned.node(local as usize), records)
            });
            self.counters.record_batches(batches as u64, records);
        }
    }

    /// Records buffered and not yet emitted.
    pub fn buffered_len(&self) -> usize {
        self.lanes.iter().map(|l| l.gutters.buffered_len()).sum()
    }

    /// Batches that left the gutters so far, sent or applied in place.
    pub fn batches_emitted(&self) -> u64 {
        self.counters.batches()
    }

    /// Batches and records that left the gutters, and the flushes the
    /// system above recorded.
    pub fn counters(&self) -> &IngestCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_sketch::encode_other;
    use std::collections::HashMap;

    /// Collects emitted batches per shard, checking the routing contract.
    fn collect(
        num_nodes: u64,
        num_shards: u32,
        cap: usize,
        updates: &[(u32, u32, bool)],
    ) -> HashMap<u32, Vec<Batch>> {
        let mut router = ShardRouter::new(num_nodes, num_shards, GutterCapacity::Updates(cap), 0);
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
            let mut router = ShardRouter::new(12, 3, GutterCapacity::Updates(2), 0);
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
        let mut router = ShardRouter::new(8, 2, GutterCapacity::Updates(1), 0);
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
        let mut log = ReplayLog::new();
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
    use super::*;
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
                    let mut router = ShardRouter::new(
                        num_nodes as u64,
                        num_shards,
                        GutterCapacity::Updates(capacity),
                        0,
                    );
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
    }
}
