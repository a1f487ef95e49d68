//! In-RAM sketch store with per-node locking.
//!
//! Paper §5.1: "locking is necessary at the batch level because consecutive
//! batch updates may be requested to the same node sketch […] We minimize
//! the size of this critical section by exploiting linearity of ℓ0-samplers.
//! Rather than locking a node sketch S(x) for the entire batch operation, we
//! apply the updates to an empty sketch S(x0) and lock only to add
//! S(x) = S(x) + S(x0)." Both disciplines are implemented; the choice is an
//! ablation benchmark.

use crate::boruvka::RoundSink;
use crate::config::LockingStrategy;
use crate::node_sketch::{CubeNodeSketch, CubeRoundSketch, SketchParams};
use crate::store::epoch::EpochOverlay;
use crate::store::hybrid::{Home, Hybrid, Rep, Sealed};
use crate::store::{NodeSet, ScratchPool};
use parking_lot::Mutex;
use std::sync::Arc;

/// Node sketches in memory, one lock per owned node.
///
/// The store may cover the whole vertex set (a single-node system) or just
/// one residue class (a shard): slots are dense over the [`NodeSet`], so a
/// shard allocates sketches only for the vertices it owns. A slot holds a
/// vertex's exact set or its dense stack (`store::hybrid`, DESIGN.md §12).
pub struct RamStore {
    params: Arc<SketchParams>,
    node_set: NodeSet,
    /// One lock per slot, holding the set or the stack. A RAM store's
    /// copy-on-write "group" is a single slot: dense captures happen under
    /// the slot's lock, right before its first post-seal mutation.
    pub(crate) reps: Hybrid<CubeNodeSketch>,
    locking: LockingStrategy,
    /// Delta sketches for [`LockingStrategy::DeltaSketch`].
    scratch: ScratchPool,
    /// The graph digest of the records applied here
    /// ([`super::SketchStore::graph_digest`]).
    graph: super::GraphDigestStripes,
}

/// Every dense stack of a RAM store is in its slot.
const IN_SLOTS: &Home<'static> = &|_, f| {
    f(&[]);
    Ok(())
};

impl RamStore {
    /// Allocate fresh (all-zero) sketches for every node (always-dense).
    pub fn new(params: Arc<SketchParams>, locking: LockingStrategy) -> Self {
        let node_set = NodeSet::all(params.num_nodes);
        Self::for_nodes(params, locking, node_set)
    }

    /// Allocate fresh sketches for the nodes of `node_set` only (a shard's
    /// residue class), always-dense. Sketches still hash over the *full*
    /// characteristic vector — ownership restricts which vertices live
    /// here, not the edge universe.
    pub fn for_nodes(
        params: Arc<SketchParams>,
        locking: LockingStrategy,
        node_set: NodeSet,
    ) -> Self {
        Self::for_nodes_with_threshold(params, locking, node_set, 0)
    }

    /// Hybrid store over `node_set`: with `threshold > 0` every vertex
    /// starts as an exact sparse toggle set and densifies past `threshold`
    /// live neighbors; `0` allocates dense sketches up front (the exact
    /// pre-hybrid behavior).
    pub fn for_nodes_with_threshold(
        params: Arc<SketchParams>,
        locking: LockingStrategy,
        node_set: NodeSet,
        threshold: u32,
    ) -> Self {
        RamStore {
            reps: Hybrid::new(
                Arc::clone(&params),
                node_set,
                threshold,
                Some(SketchParams::new_node_sketch),
            ),
            scratch: ScratchPool::new(Arc::clone(&params)),
            graph: super::GraphDigestStripes::new(),
            params,
            node_set,
            locking,
        }
    }

    /// Lock `slot`'s dense stack for mutation, capturing its pre-image into
    /// any live epoch that has not seen this slot dirtied yet. Every write
    /// to a dense stack goes through here — that is what makes the overlay
    /// a faithful sealed generation.
    fn with_dense<R>(&self, slot: usize, f: impl FnOnce(&mut CubeNodeSketch) -> R) -> R {
        let mut rep = self.reps.lock(slot);
        let Rep::Dense(stack) = &mut *rep else { unreachable!("a promoted vertex never demotes") };
        self.reps.epochs.capture_group(slot as u32, &mut || vec![stack.clone()]);
        f(stack)
    }

    /// Shared sketch parameters.
    pub fn params(&self) -> &Arc<SketchParams> {
        &self.params
    }

    /// The vertex set this store holds sketches for.
    pub fn node_set(&self) -> NodeSet {
        self.node_set
    }

    /// The graph digest's per-worker stripes.
    pub(crate) fn graph(&self) -> &super::GraphDigestStripes {
        &self.graph
    }

    /// Apply a batch of encoded records to `node` (which must be owned): a
    /// sparse vertex's set is toggled (`Hybrid::apply_sparse`), a dense
    /// stack gets the batch under its slot lock.
    pub fn apply_batch(&self, node: u32, records: &[u32]) {
        let slot = self.node_set.slot(node);
        if self.reps.apply_sparse(slot, node, records, |stack| stack) {
            return;
        }
        match self.locking {
            LockingStrategy::Direct => {
                self.with_dense(slot, |sketch| {
                    super::apply_records(sketch, node, records, self.params.num_nodes);
                });
            }
            // Build the delta without holding the node's lock; lock only
            // for the XOR-merge.
            LockingStrategy::DeltaSketch => self.scratch.with_delta(node, records, |delta| {
                self.with_dense(slot, |sketch| sketch.merge(delta))
            }),
        }
    }

    /// The dense half of the sealed read order: `slot`'s captured pre-image
    /// in `overlay`, else `live`, its live stack.
    fn with_sealed<R>(
        slot: usize,
        overlay: Option<&EpochOverlay>,
        live: &CubeNodeSketch,
        f: impl FnOnce(&CubeNodeSketch) -> R,
    ) -> R {
        match overlay.and_then(|o| o.get(slot as u32)) {
            Some(pre) => f(&pre[0]),
            None => f(live),
        }
    }

    /// Stream the round-`round` slice of every owned, still-`live` **dense**
    /// node into `sink` in slot order, as sealed by `overlay` (`None` = the
    /// live state). Each node's lock is held only for its own sink call, and
    /// nothing is cloned. Sparse vertices are skipped — they have no slice.
    pub fn stream_round_dense(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        sink: &mut dyn FnMut(u32, &CubeRoundSketch),
    ) {
        for slot in 0..self.node_set.len() {
            let node = self.node_set.node(slot);
            if live(node) {
                self.reps.read(slot, overlay, |rep| {
                    if let Sealed::Dense(stack) = rep {
                        Self::with_sealed(slot, overlay, stack, |s| sink(node, s.round(round)));
                    }
                });
            }
        }
    }

    /// Fold round `round` of every owned, still-`live` node, as sealed by
    /// `overlay` (`None` = the live state), through `Hybrid::fold_round`:
    /// a dense node's borrowed slice is merged in under its lock. Per-node
    /// locks make this safe against concurrent ingestion.
    pub fn stream_round_parallel(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &gz_gutters::WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) {
        self.reps.fold_round(round, live, overlay, pool, sinks, |sink, slot, stack| {
            let node = self.node_set.node(slot);
            Self::with_sealed(slot, overlay, stack, |s| sink.fold(node, s.round(round)));
        });
    }

    /// Clone out every owned node sketch, indexed by slot. Sparse vertices
    /// are densified by replay — the snapshot is bit-identical to an
    /// always-dense store's (the serialized-state equivalence oracle).
    pub fn snapshot(&self) -> Vec<Option<CubeNodeSketch>> {
        self.reps.snapshot(1, IN_SLOTS)
    }

    /// Hand `f` every owned node's encoded sketch stack in slot order, one
    /// node at a time: encoded under the node's own lock — a sparse vertex
    /// densified by replay and dropped — and handed over once the lock is
    /// gone. Holds one node's encoding, never a copy of the store.
    pub fn for_each_serialized(
        &self,
        f: &mut dyn FnMut(u32, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        self.reps.for_each_serialized(1, IN_SLOTS, f)
    }

    /// Replace every node sketch (checkpoint restore), in slot order.
    /// Restored vertices are dense regardless of the threshold.
    pub fn load_all(&self, sketches: Vec<CubeNodeSketch>) {
        let Ok(()) = self.reps.load_all(sketches, |slot, old, stack| {
            if let Some(old) = old {
                self.reps.epochs.capture_group(slot as u32, &mut || vec![old.clone()]);
            }
            Ok::<_, std::convert::Infallible>(stack)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_sketch::{encode_other, update_index};
    use gz_sketch::SampleResult;

    fn store(locking: LockingStrategy) -> RamStore {
        let params = Arc::new(SketchParams::new(32, 4, 7, 99));
        RamStore::new(params, locking)
    }

    #[test]
    fn batch_application_direct_vs_delta_identical() {
        // Four threads share 64 batches for eight nodes — deletes and
        // repeats included — applied to one store per discipline: the lock
        // scope decides who waits, never what is merged, so the stacks end
        // bit-identical.
        let (a, b) = (store(LockingStrategy::Direct), store(LockingStrategy::DeltaSketch));
        let batches: Vec<(u32, Vec<u32>)> = (0..64u32)
            .map(|i| {
                let node = i % 8;
                let others = (0..5).map(|j| (node + 1 + (i + j) % 31) % 32);
                (
                    node,
                    others
                        .zip([false, true].into_iter().cycle())
                        .map(|(o, d)| encode_other(o, d))
                        .collect(),
                )
            })
            .collect();
        std::thread::scope(|scope| {
            for first in 0..4 {
                let (a, b, batches) = (&a, &b, &batches);
                scope.spawn(move || {
                    for (node, records) in batches.iter().skip(first).step_by(4) {
                        a.apply_batch(*node, records);
                        b.apply_batch(*node, records);
                    }
                });
            }
        });
        for (node, (x, y)) in a.snapshot().iter().zip(b.snapshot().iter()).enumerate() {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            crate::node_sketch::assert_rounds_bitwise_equal(x, y, &format!("node {node}"));
        }
    }

    #[test]
    fn toggle_semantics() {
        let s = store(LockingStrategy::DeltaSketch);
        // (0,5) toggled twice cancels; (0,9) stays.
        s.apply_batch(0, &[encode_other(5, false), encode_other(9, false)]);
        s.apply_batch(0, &[encode_other(5, true)]);
        let snap = s.snapshot();
        let sketch = snap[0].as_ref().unwrap();
        assert_eq!(sketch.sample_round(0), SampleResult::Index(update_index(0, 9, 32)));
    }

    #[test]
    fn self_loops_ignored() {
        let s = store(LockingStrategy::Direct);
        s.apply_batch(3, &[encode_other(3, false)]);
        let snap = s.snapshot();
        assert_eq!(snap[3].as_ref().unwrap().sample_round(0), SampleResult::Zero);
    }

    #[test]
    fn concurrent_batches_linearize() {
        let s = Arc::new(store(LockingStrategy::DeltaSketch));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    // Each thread toggles a disjoint set of edges at node 0.
                    let records: Vec<u32> =
                        (0..3).map(|i| encode_other(1 + t * 3 + i, false)).collect();
                    s.apply_batch(0, &records);
                });
            }
        });
        // All 24 edges present: query returns some (0, x) edge.
        let snap = s.snapshot();
        match snap[0].as_ref().unwrap().sample_round(0) {
            SampleResult::Index(idx) => {
                let e = gz_graph::index_to_edge(idx, 32);
                assert_eq!(e.u(), 0);
                assert!((1..25).contains(&e.v()));
            }
            other => panic!("expected a sample, got {other:?}"),
        }
    }

    #[test]
    fn scratch_pool_recycles() {
        let s = store(LockingStrategy::DeltaSketch);
        for i in 0..10 {
            s.apply_batch(i % 4, &[encode_other(20 + i, false)]);
        }
        // Single-threaded: the pool should hold exactly one scratch.
        assert_eq!(s.scratch.parked(), 1);
    }

    #[test]
    fn recycled_scratch_carries_no_state_across_batches() {
        // The reuse discipline's core invariant: a batch applied through a
        // recycled scratch yields bytes identical to a store whose scratch
        // was fresh — nothing from earlier batches bleeds through.
        let reused = store(LockingStrategy::DeltaSketch);
        let fresh = store(LockingStrategy::DeltaSketch);
        // Warm the pool on `reused` with unrelated traffic to other nodes.
        for i in 0..6 {
            reused.apply_batch(i % 3, &[encode_other(10 + i, false)]);
            fresh.apply_batch(i % 3, &[encode_other(10 + i, false)]);
        }
        assert_eq!(reused.scratch.parked(), 1, "pool warmed");
        let records: Vec<u32> = (1..8).map(|o| encode_other(o + 20, false)).collect();
        reused.apply_batch(5, &records);
        fresh.apply_batch(5, &records);
        let (a, b) = (reused.snapshot(), fresh.snapshot());
        for (node, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            crate::node_sketch::assert_rounds_bitwise_equal(
                x.as_ref().unwrap(),
                y.as_ref().unwrap(),
                &format!("node {node}"),
            );
        }
    }

    #[test]
    fn dup_heavy_batch_matches_singles_bitwise() {
        // Gutter regime: insert/delete pairs for the same edge inside one
        // batch must leave state bit-identical to per-record application.
        let batched = store(LockingStrategy::DeltaSketch);
        let singles = store(LockingStrategy::Direct);
        let mut records = Vec::new();
        for o in 1..10u32 {
            records.push(encode_other(o, false)); // insert
            records.push(encode_other(o, true)); // delete: cancels pre-hash
        }
        records.push(encode_other(17, false));
        batched.apply_batch(0, &records);
        for &r in &records {
            singles.apply_batch(0, &[r]);
        }
        let (a, b) = (batched.snapshot(), singles.snapshot());
        crate::node_sketch::assert_rounds_bitwise_equal(
            a[0].as_ref().unwrap(),
            b[0].as_ref().unwrap(),
            "node 0",
        );
    }

    #[test]
    fn sketch_bytes_scales_with_nodes() {
        let params = Arc::new(SketchParams::new(32, 4, 7, 1));
        let per_node = params.node_sketch_resident_bytes();
        let s = RamStore::new(params, LockingStrategy::Direct);
        assert_eq!(s.reps.sketch_bytes(), per_node * 32);
    }

    #[test]
    fn strided_store_matches_full_store_on_owned_nodes() {
        let params = Arc::new(SketchParams::new(32, 4, 7, 99));
        let full = RamStore::new(Arc::clone(&params), LockingStrategy::DeltaSketch);
        let shard = RamStore::for_nodes(
            Arc::clone(&params),
            LockingStrategy::DeltaSketch,
            NodeSet::strided(32, 1, 4),
        );
        // Apply the same owned-node batches to both.
        for node in [1u32, 5, 9, 29] {
            let records = [encode_other((node + 2) % 32, false), encode_other(0, false)];
            full.apply_batch(node, &records);
            shard.apply_batch(node, &records);
        }
        let full_snap = full.snapshot();
        for (node, sketch) in shard.node_set().iter().zip(shard.snapshot()) {
            let sketch = sketch.unwrap();
            let reference = full_snap[node as usize].as_ref().unwrap();
            for r in 0..sketch.num_rounds() {
                assert_eq!(sketch.sample_round(r), reference.sample_round(r), "node {node}");
            }
        }
    }

    #[test]
    fn strided_store_allocates_owned_nodes_only() {
        let params = Arc::new(SketchParams::new(64, 4, 7, 1));
        let per_node = params.node_sketch_resident_bytes();
        let shard = RamStore::for_nodes(
            Arc::clone(&params),
            LockingStrategy::Direct,
            NodeSet::strided(64, 3, 4),
        );
        assert_eq!(shard.reps.sketch_bytes(), per_node * 16, "16 of 64 nodes owned");
    }
}
