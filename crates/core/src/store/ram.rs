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
use crate::sparse::{SparseRoundBatch, SparseSet};
use crate::store::epoch::{EpochOverlay, EpochRegistry};
use crate::store::{NodeSet, RepStats, ScratchPool};
use parking_lot::Mutex;
use std::sync::Arc;

/// One vertex's current representation (DESIGN.md §12).
///
/// Every vertex starts [`NodeRep::Sparse`] when the store's threshold `τ`
/// is non-zero and is promoted to [`NodeRep::Dense`] — by replaying its
/// exact toggle set through the batch kernel, bit-identical to an
/// always-dense run — once its live-set size exceeds `τ`. Promotion is
/// monotone: a vertex never demotes, which is what makes lock-free peeks
/// of "is this vertex dense?" race-safe.
enum NodeRep {
    Sparse(SparseSet),
    Dense(CubeNodeSketch),
}

/// A vertex's representation as a query reads it: live, or an epoch's
/// sealed pre-image (see [`RamStore::read_slot`]).
enum RepRef<'a> {
    Sparse(&'a SparseSet),
    Dense(&'a CubeNodeSketch),
}

/// Node sketches in memory, one lock per owned node.
///
/// The store may cover the whole vertex set (a single-node system) or just
/// one residue class (a shard): slots are dense over the [`NodeSet`], so a
/// shard allocates sketches only for the vertices it owns.
pub struct RamStore {
    params: Arc<SketchParams>,
    node_set: NodeSet,
    nodes: Vec<Mutex<NodeRep>>,
    locking: LockingStrategy,
    /// Hybrid sparse/dense threshold `τ`; `0` = always dense.
    threshold: u32,
    /// Delta sketches for [`LockingStrategy::DeltaSketch`] and the grouped
    /// ingestion path.
    scratch: ScratchPool,
    /// The graph digest of the records applied here
    /// ([`super::SketchStore::graph_digest`]).
    graph: super::GraphDigestStripes,
    /// Live sealed epochs. A RAM store's copy-on-write "group" is a single
    /// slot: captures happen under the node's lock, right before the first
    /// post-seal mutation of that node.
    epochs: EpochRegistry,
}

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
        let nodes = (0..node_set.len())
            .map(|_| {
                Mutex::new(if threshold == 0 {
                    NodeRep::Dense(params.new_node_sketch())
                } else {
                    NodeRep::Sparse(SparseSet::new())
                })
            })
            .collect();
        RamStore {
            scratch: ScratchPool::new(Arc::clone(&params)),
            graph: super::GraphDigestStripes::new(),
            params,
            node_set,
            nodes,
            locking,
            threshold,
            epochs: EpochRegistry::new(),
        }
    }

    /// Seal the current generation (see [`crate::store::SketchStore::begin_epoch`]).
    pub fn begin_epoch(&self) -> (u64, Arc<EpochOverlay>) {
        self.epochs.register()
    }

    /// Pre-images cloned for epochs so far
    /// (see [`crate::store::SketchStore::epoch_captures`]).
    pub fn epoch_captures(&self) -> u64 {
        self.epochs.captures()
    }

    /// Lock `slot`'s sketch for mutation, capturing its pre-image into any
    /// live epoch that has not seen this slot dirtied yet. Every write to a
    /// node sketch goes through here — that is what makes the overlay a
    /// faithful sealed generation. A still-sparse vertex is promoted first
    /// (capture its sparse pre-image, replay the set into a dense sketch,
    /// then mutate) — bit-identical because the set is authoritative.
    fn with_node<R>(&self, slot: usize, f: impl FnOnce(&mut CubeNodeSketch) -> R) -> R {
        let mut rep = self.nodes[slot].lock();
        match &mut *rep {
            NodeRep::Dense(sketch) => {
                self.epochs.capture_group(slot as u32, &mut || vec![sketch.clone()]);
                f(sketch)
            }
            NodeRep::Sparse(set) => {
                self.epochs.capture_sparse(slot as u32, &mut || set.clone());
                let mut dense = set.densify(self.node_set.node(slot), &self.params);
                let out = f(&mut dense);
                *rep = NodeRep::Dense(dense);
                out
            }
        }
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

    /// Apply a batch of encoded records to `node` (which must be owned).
    pub fn apply_batch(&self, node: u32, records: &[u32]) {
        let slot = self.node_set.slot(node);
        // Sparse fast path: toggle the exact set under the slot lock —
        // no hashing, no scratch, no delta. Promote (replay through the
        // batch kernel) once the live set outgrows `τ`. A vertex observed
        // dense here stays dense (promotion is monotone), so falling
        // through to the dense disciplines below is race-free.
        {
            let mut rep = self.nodes[slot].lock();
            if let NodeRep::Sparse(set) = &mut *rep {
                self.epochs.capture_sparse(slot as u32, &mut || set.clone());
                if set.toggle_batch(node, records) > self.threshold as usize {
                    let dense = set.densify(node, &self.params);
                    *rep = NodeRep::Dense(dense);
                }
                return;
            }
        }
        match self.locking {
            LockingStrategy::Direct => {
                self.with_node(slot, |sketch| {
                    super::apply_records(sketch, node, records, self.params.num_nodes);
                });
            }
            // Build the delta without holding the node's lock; lock only
            // for the XOR-merge.
            LockingStrategy::DeltaSketch => self.scratch.with_delta(node, records, |delta| {
                self.with_node(slot, |sketch| sketch.merge(delta))
            }),
        }
    }

    /// Run `f` on `slot`'s representation as `overlay`'s epoch sealed it
    /// (`None` = as it is now), under the slot's lock. A captured pre-image
    /// wins — sparse before dense, since a vertex captured sparse had no
    /// dense state at the seal; an uncaptured slot's live value *is* its
    /// sealed value, and the lock makes that check-then-read atomic against
    /// the capture-then-mutate writer, which takes the same lock first.
    fn read_slot<R>(
        &self,
        slot: usize,
        overlay: Option<&EpochOverlay>,
        f: impl FnOnce(RepRef<'_>) -> R,
    ) -> R {
        let rep = self.nodes[slot].lock();
        if let Some(overlay) = overlay {
            if let Some(pre) = overlay.get_sparse(slot as u32) {
                return f(RepRef::Sparse(&pre));
            }
            if let Some(pre) = overlay.get(slot as u32) {
                return f(RepRef::Dense(&pre[0]));
            }
        }
        match &*rep {
            NodeRep::Sparse(set) => f(RepRef::Sparse(set)),
            NodeRep::Dense(sketch) => f(RepRef::Dense(sketch)),
        }
    }

    /// Stream the round-`round` slice of every owned, still-`live` **dense**
    /// node into `sink` in slot order, as sealed by `overlay` (`None` = the
    /// live state). Each node's lock is held only for its own sink call, and
    /// nothing is cloned. Sparse vertices are skipped — they have no slice;
    /// see [`Self::for_each_sparse`].
    pub fn stream_round_dense(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        sink: &mut dyn FnMut(u32, &CubeRoundSketch),
    ) {
        for slot in 0..self.nodes.len() {
            let node = self.node_set.node(slot);
            if !live(node) {
                continue;
            }
            self.read_slot(slot, overlay, |rep| {
                if let RepRef::Dense(sketch) = rep {
                    sink(node, sketch.round(round));
                }
            });
        }
    }

    /// Visit the exact set of every owned, still-`live` **sparse** node in
    /// slot order, as sealed by `overlay` (`None` = the live state),
    /// borrowed under the node's lock.
    pub fn for_each_sparse(
        &self,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        f: &mut dyn FnMut(u32, &SparseSet),
    ) {
        if self.threshold == 0 {
            return;
        }
        for slot in 0..self.nodes.len() {
            let node = self.node_set.node(slot);
            if !live(node) {
                continue;
            }
            self.read_slot(slot, overlay, |rep| {
                if let RepRef::Sparse(set) = rep {
                    f(node, set);
                }
            });
        }
    }

    /// Fold round `round` of every owned, still-`live` node, as sealed by
    /// `overlay` (`None` = the live state), with the slots partitioned into
    /// contiguous ranges, one per pool worker, each folding into its own
    /// sink. A dense node's borrowed slice is merged in; a sparse node's
    /// neighbors are queued under its lock and XORed into the supernode
    /// accumulators in place once the range is done — no slice is ever
    /// built for them. Per-node locks make this safe against concurrent
    /// ingestion.
    pub fn stream_round_parallel(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &gz_gutters::WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) {
        pool.run(&|w| {
            let range = pool.partition(self.nodes.len(), w);
            if range.is_empty() {
                return;
            }
            let mut sink = sinks[w].lock();
            let mut sparse = SparseRoundBatch::default();
            for slot in range {
                let node = self.node_set.node(slot);
                if !live(node) {
                    continue;
                }
                self.read_slot(slot, overlay, |rep| match rep {
                    RepRef::Dense(sketch) => sink.fold(node, sketch.round(round)),
                    RepRef::Sparse(set) => sparse.push(
                        &mut sink,
                        node,
                        set.neighbors().iter().copied(),
                        self.params.num_nodes,
                    ),
                });
            }
            sparse.fold_into(&mut sink, &self.params, round);
        });
    }

    /// Clone out every owned node sketch, indexed by slot. Sparse vertices
    /// are densified by replay — the snapshot is bit-identical to an
    /// always-dense store's (the serialized-state equivalence oracle).
    pub fn snapshot(&self) -> Vec<Option<CubeNodeSketch>> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(slot, m)| {
                let rep = m.lock();
                Some(match &*rep {
                    NodeRep::Dense(sketch) => sketch.clone(),
                    NodeRep::Sparse(set) => set.densify(self.node_set.node(slot), &self.params),
                })
            })
            .collect()
    }

    /// Hand `f` every owned node's encoded sketch stack in slot order, one
    /// node at a time: encoded under the node's own lock — a sparse vertex
    /// densified by replay and dropped — and handed over once the lock is
    /// gone. Holds one node's encoding, never a copy of the store.
    pub fn for_each_serialized(
        &self,
        f: &mut dyn FnMut(u32, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(self.params.node_sketch_resident_bytes());
        for (slot, m) in self.nodes.iter().enumerate() {
            let node = self.node_set.node(slot);
            bytes.clear();
            match &*m.lock() {
                NodeRep::Dense(sketch) => self.params.serialize_node_sketch(sketch, &mut bytes),
                NodeRep::Sparse(set) => {
                    self.params.serialize_node_sketch(&set.densify(node, &self.params), &mut bytes)
                }
            }
            f(node, &bytes)?;
        }
        Ok(())
    }

    /// Replace every node sketch (checkpoint restore), in slot order.
    /// Restored vertices are dense regardless of the threshold.
    pub fn load_all(&self, sketches: Vec<CubeNodeSketch>) {
        assert_eq!(sketches.len(), self.nodes.len());
        for (slot, sketch) in sketches.into_iter().enumerate() {
            self.with_node(slot, |dst| *dst = sketch);
        }
    }

    /// Resident sketch payload bytes (owned nodes only): dense vertices at
    /// the paper's per-sketch accounting, sparse vertices at 4 bytes per
    /// live neighbor. With `τ = 0` this is exactly the dense formula.
    pub fn sketch_bytes(&self) -> usize {
        let stats = self.rep_stats();
        self.params.node_sketch_bytes() * stats.promoted + stats.sparse_entries * 4
    }

    /// Representation census: how many vertices are promoted vs still
    /// sparse, and the total live entries across sparse sets.
    pub fn rep_stats(&self) -> RepStats {
        let mut stats = RepStats::default();
        for m in &self.nodes {
            match &*m.lock() {
                NodeRep::Dense(_) => stats.promoted += 1,
                NodeRep::Sparse(set) => {
                    stats.sparse += 1;
                    stats.sparse_entries += set.len();
                }
            }
        }
        stats
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
        let per_node = params.node_sketch_bytes();
        let s = RamStore::new(params, LockingStrategy::Direct);
        assert_eq!(s.sketch_bytes(), per_node * 32);
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
        let per_node = params.node_sketch_bytes();
        let shard = RamStore::for_nodes(
            Arc::clone(&params),
            LockingStrategy::Direct,
            NodeSet::strided(64, 3, 4),
        );
        assert_eq!(shard.sketch_bytes(), per_node * 16, "16 of 64 nodes owned");
    }
}
