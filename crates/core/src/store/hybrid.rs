//! The hybrid per-vertex representation (DESIGN.md §12), written once: a
//! vertex is an exact [`SparseSet`] until its live set outgrows τ, then a
//! dense stack for good, which lives in the store's node group (§13). This
//! layer keeps only the sparse side: the sparse fast path, promotion by
//! replay, sparse epoch captures, the sealed read order, the sparse half of
//! a round fold, retirement of sparse slots on restore, and the census.
//!
//! A slot is one lock holding the vertex's set, or nothing once it has
//! promoted, and it is taken before anything the store locks for the dense
//! side (lock order slot → cache → group). Promotion is monotone: a slot
//! read dense stays dense, so the store may release the slot lock and merge
//! into the vertex's stack in its group.

use crate::boruvka::RoundSink;
use crate::node_sketch::{CubeNodeSketch, SketchParams};
use crate::sparse::{SparseRoundBatch, SparseSet};
use crate::store::epoch::{EpochOverlay, EpochRegistry};
use crate::store::{NodeSet, RepStats};
use gz_gutters::WorkerPool;
use parking_lot::{Mutex, MutexGuard};
use std::ops::Range;
use std::sync::Arc;

/// The per-slot table of one store, with its epochs.
pub(crate) struct Hybrid {
    params: Arc<SketchParams>,
    node_set: NodeSet,
    /// Promotion threshold τ; 0 = always dense.
    threshold: u32,
    /// One lock per owned slot, holding its set, or `None` once it has
    /// promoted — and no table at all at τ = 0, where every slot is dense.
    slots: Vec<Mutex<Option<SparseSet>>>,
    /// Live sealed epochs: sparse captures here, dense ones by the store.
    pub(crate) epochs: EpochRegistry,
}

impl Hybrid {
    /// Every slot of `node_set` sparse when `threshold > 0`; no table
    /// otherwise.
    pub(crate) fn new(params: Arc<SketchParams>, node_set: NodeSet, threshold: u32) -> Self {
        let slots = match threshold {
            0 => Vec::new(),
            _ => (0..node_set.len()).map(|_| Mutex::new(Some(SparseSet::new()))).collect(),
        };
        Hybrid { params, node_set, threshold, slots, epochs: EpochRegistry::new() }
    }

    /// The sparse fast path: if `slot` is sparse, toggle `records` into its
    /// set under the slot lock — its pre-image captured for live epochs
    /// first — and promote it once the set outgrows τ: the set is replayed
    /// through the batch kernel (bit-identical to having been dense all
    /// along) and `promote` installs the stack in its group, the slot lock
    /// still held. Returns false, touching nothing, when the slot is dense.
    pub(crate) fn apply_sparse(
        &self,
        slot: usize,
        node: u32,
        records: &[u32],
        promote: impl FnOnce(CubeNodeSketch),
    ) -> bool {
        let Some(cell) = self.slots.get(slot) else { return false };
        let mut rep = cell.lock();
        let Some(set) = &mut *rep else { return false };
        self.epochs.capture_sparse(slot as u32, &mut || set.clone());
        if set.toggle_batch(node, records) > self.threshold as usize {
            promote(set.densify(node, &self.params));
            *rep = None;
        }
        true
    }

    /// Run `f` on `slot`'s set as `overlay`'s epoch sealed it (`None` = as
    /// it is now), under the slot lock — `None` if the slot was dense: a
    /// captured sparse pre-image, else the live set. The capture-then-mutate
    /// writer takes the same lock, so the check-then-read is atomic against
    /// it; a live sparse slot was never promoted, so no dense pre-image can
    /// outrank it.
    pub(crate) fn read<R>(
        &self,
        slot: usize,
        overlay: Option<&EpochOverlay>,
        f: impl FnOnce(Option<&SparseSet>) -> R,
    ) -> R {
        let rep = self.slots[slot].lock();
        match overlay.and_then(|o| o.get_sparse(slot as u32)) {
            Some(pre) => f(Some(&pre)),
            None => f(rep.as_ref()),
        }
    }

    /// True if `slot` was sparse when `overlay` sealed (`None` = now). A
    /// stable answer for a live epoch: promotion is monotone and captures
    /// the set first.
    pub(crate) fn is_sparse(&self, slot: usize, overlay: Option<&EpochOverlay>) -> bool {
        self.threshold > 0 && self.read(slot, overlay, |set| set.is_some())
    }

    /// Visit the sealed set of every owned, still-`live` sparse slot in
    /// slot order, borrowed under its lock. Visits nothing at τ = 0.
    pub(crate) fn for_each_sparse(
        &self,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        f: &mut dyn FnMut(u32, &SparseSet),
    ) {
        for slot in 0..self.slots.len() {
            let node = self.node_set.node(slot);
            if live(node) {
                self.read(slot, overlay, |set| set.map(|set| f(node, set)));
            }
        }
    }

    /// Fold round `round` of every owned, still-`live` slot that was sparse
    /// when `overlay` sealed, with the slots partitioned into contiguous
    /// ranges, one per pool worker, each folding into its own sink: a
    /// slot's neighbors are queued and XORed into the supernode
    /// accumulators in place once the range is done — no slice is built.
    /// Nothing at all without a table.
    pub(crate) fn fold_round(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_>>],
    ) {
        if self.slots.is_empty() {
            return;
        }
        pool.run(&|w| {
            let range = pool.partition(self.slots.len(), w);
            if range.is_empty() {
                return;
            }
            let mut sink = sinks[w].lock();
            let mut sparse = SparseRoundBatch::default();
            for slot in range {
                let node = self.node_set.node(slot);
                if live(node) {
                    self.read(slot, overlay, |set| {
                        if let Some(set) = set {
                            let neighbors = set.neighbors().iter().copied();
                            sparse.push(&mut sink, node, neighbors, self.params.num_nodes);
                        }
                    });
                }
            }
            sparse.fold_into(&mut sink, &self.params, round);
        });
    }

    /// Lock the table entries of `slots`, in slot order — none without a
    /// table. What the store's encoders hold across a group's read.
    pub(crate) fn lock_range(&self, slots: Range<usize>) -> Vec<MutexGuard<'_, Option<SparseSet>>> {
        self.slots.get(slots).map_or(Vec::new(), |cells| cells.iter().map(Mutex::lock).collect())
    }

    /// Replace every slot's state by `stacks` (checkpoint restore), in slot
    /// order: restored vertices are dense whatever τ. A sparse slot's set is
    /// captured for live epochs and retired; `install(slot, stack)` puts the
    /// stack in its group, under the slot lock. The first failed install
    /// ends the restore with its error.
    pub(crate) fn load_all<E>(
        &self,
        stacks: Vec<CubeNodeSketch>,
        install: impl Fn(usize, CubeNodeSketch) -> Result<(), E>,
    ) -> Result<(), E> {
        assert_eq!(stacks.len(), self.node_set.len());
        for (slot, stack) in stacks.into_iter().enumerate() {
            let Some(cell) = self.slots.get(slot) else {
                install(slot, stack)?;
                continue;
            };
            let mut rep = cell.lock();
            if let Some(set) = &*rep {
                self.epochs.capture_sparse(slot as u32, &mut || set.clone());
            }
            install(slot, stack)?;
            *rep = None;
        }
        Ok(())
    }

    /// The census: promoted vs sparse slots and the sets' live entries.
    pub(crate) fn rep_stats(&self) -> RepStats {
        let mut stats = RepStats { promoted: self.node_set.len(), ..RepStats::default() };
        for cell in &self.slots {
            if let Some(set) = &*cell.lock() {
                stats.promoted -= 1;
                stats.sparse += 1;
                stats.sparse_entries += set.len();
            }
        }
        stats
    }

    /// Resident sketch bytes of the owned slots: a promoted vertex's stack
    /// at its resident words, a sparse one at 4 bytes a live neighbor.
    pub(crate) fn sketch_bytes(&self) -> usize {
        let stats = self.rep_stats();
        stats.promoted * self.params.node_sketch_resident_bytes() + stats.sparse_bytes()
    }
}
