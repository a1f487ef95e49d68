//! The hybrid per-vertex representation (DESIGN.md §12), written once for
//! both stores: a vertex is an exact [`SparseSet`] until its live set
//! outgrows τ, then a dense stack for good. Where that stack lives is the
//! store's business — in the slot itself for the RAM store
//! (`D = CubeNodeSketch`), in the slot's node group for the disk store
//! (`D = ()`). Everything else about a vertex's representation is here: the
//! sparse fast path, promotion by replay, sparse epoch captures, the sealed
//! read order, the sparse half of a round fold, densify-on-encode,
//! retirement of sparse slots on restore, and the census.
//!
//! A slot is one lock holding either a set or the store's dense value, and
//! it is taken before anything the store locks for the dense side (lock
//! order slot → cache → group on disk). Promotion is monotone: a slot read
//! dense stays dense, so a store may release the slot lock and merge into
//! its dense stack elsewhere.

use crate::boruvka::RoundSink;
use crate::node_sketch::{CubeNodeSketch, CubeRoundSketch, SketchParams};
use crate::sparse::{SparseRoundBatch, SparseSet};
use crate::store::epoch::{EpochOverlay, EpochRegistry};
use crate::store::{NodeSet, RepStats};
use gz_gutters::WorkerPool;
use parking_lot::{Mutex, MutexGuard};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// One vertex's representation: its exact set, or the store's dense value.
pub(crate) enum Rep<D> {
    Sparse(SparseSet),
    Dense(D),
}

/// A slot as a sealed epoch (or the live state) reads it: the set it held
/// at the seal, or its live dense value — which the store resolves against
/// its own dense pre-images.
pub(crate) enum Sealed<'a, D> {
    Sparse(&'a SparseSet),
    Dense(&'a D),
}

/// A store's dense slot value: the stack itself, or nothing when the stack
/// lives elsewhere.
pub(crate) trait DenseSlot: Send {
    fn stack(&self) -> Option<&CubeNodeSketch>;
}

impl DenseSlot for CubeNodeSketch {
    fn stack(&self) -> Option<&CubeNodeSketch> {
        Some(self)
    }
}

impl DenseSlot for () {
    fn stack(&self) -> Option<&CubeNodeSketch> {
        None
    }
}

/// Reads a chunk's dense stacks where the store keeps them outside the
/// slots: `home(slots, f)` calls `f` once with the stacks of `slots`, in
/// slot order (the disk store's node group), or with none when every dense
/// stack is in its slot (the RAM store).
pub(crate) type Home<'a> =
    dyn Fn(Range<usize>, &mut dyn FnMut(&[CubeNodeSketch])) -> std::io::Result<()> + 'a;

/// The per-slot table of one store, with its epochs.
pub(crate) struct Hybrid<D> {
    params: Arc<SketchParams>,
    node_set: NodeSet,
    /// Promotion threshold τ; 0 = always dense.
    threshold: u32,
    /// One lock per owned slot — or none at all when every slot is dense
    /// and its stack lives elsewhere (the disk store at τ = 0).
    slots: Vec<Mutex<Rep<D>>>,
    /// Live sealed epochs: sparse captures here, dense ones by the store.
    pub(crate) epochs: EpochRegistry,
}

impl<D: DenseSlot> Hybrid<D> {
    /// Every slot of `node_set` sparse when `threshold > 0`; otherwise
    /// dense from `dense`, for a store that keeps its stacks in the slots,
    /// or no table, for one that keeps them elsewhere (`dense = None`).
    pub(crate) fn new(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        threshold: u32,
        dense: Option<fn(&SketchParams) -> D>,
    ) -> Self {
        let slots = match (threshold, dense) {
            (0, None) => Vec::new(),
            (0, Some(fresh)) => {
                (0..node_set.len()).map(|_| Mutex::new(Rep::Dense(fresh(&params)))).collect()
            }
            _ => (0..node_set.len()).map(|_| Mutex::new(Rep::Sparse(SparseSet::new()))).collect(),
        };
        Hybrid { params, node_set, threshold, slots, epochs: EpochRegistry::new() }
    }

    /// Lock `slot` (which must have a table entry).
    pub(crate) fn lock(&self, slot: usize) -> MutexGuard<'_, Rep<D>> {
        self.slots[slot].lock()
    }

    /// The sparse fast path: if `slot` is sparse, toggle `records` into its
    /// set under the slot lock — its pre-image captured for live epochs
    /// first — and promote it once the set outgrows τ: the set is replayed
    /// through the batch kernel (bit-identical to having been dense all
    /// along) and `promote` installs the stack where the store keeps it,
    /// the slot lock still held. Returns false, touching nothing, when the
    /// slot is dense.
    pub(crate) fn apply_sparse(
        &self,
        slot: usize,
        node: u32,
        records: &[u32],
        promote: impl FnOnce(CubeNodeSketch) -> D,
    ) -> bool {
        let Some(cell) = self.slots.get(slot) else { return false };
        let mut rep = cell.lock();
        let Rep::Sparse(set) = &mut *rep else { return false };
        self.epochs.capture_sparse(slot as u32, &mut || set.clone());
        if set.toggle_batch(node, records) > self.threshold as usize {
            let stack = set.densify(node, &self.params);
            *rep = Rep::Dense(promote(stack));
        }
        true
    }

    /// Run `f` on `slot` as `overlay`'s epoch sealed it (`None` = as it is
    /// now), under the slot lock: a captured sparse pre-image, else the live
    /// set, else the live dense value. The capture-then-mutate writer takes
    /// the same lock, so the check-then-read is atomic against it; a live
    /// sparse slot was never promoted, so no dense pre-image can outrank it.
    pub(crate) fn read<R>(
        &self,
        slot: usize,
        overlay: Option<&EpochOverlay>,
        f: impl FnOnce(Sealed<'_, D>) -> R,
    ) -> R {
        let rep = self.slots[slot].lock();
        if let Some(pre) = overlay.and_then(|o| o.get_sparse(slot as u32)) {
            return f(Sealed::Sparse(&pre));
        }
        match &*rep {
            Rep::Sparse(set) => f(Sealed::Sparse(set)),
            Rep::Dense(dense) => f(Sealed::Dense(dense)),
        }
    }

    /// True if `slot` was sparse when `overlay` sealed (`None` = now). A
    /// stable answer for a live epoch: promotion is monotone and captures
    /// the set first.
    pub(crate) fn is_sparse(&self, slot: usize, overlay: Option<&EpochOverlay>) -> bool {
        self.threshold > 0 && self.read(slot, overlay, |rep| matches!(rep, Sealed::Sparse(_)))
    }

    /// Visit the sealed set of every owned, still-`live` sparse slot in
    /// slot order, borrowed under its lock. Visits nothing at τ = 0.
    pub(crate) fn for_each_sparse(
        &self,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        f: &mut dyn FnMut(u32, &SparseSet),
    ) {
        if self.threshold == 0 {
            return;
        }
        for slot in 0..self.slots.len() {
            let node = self.node_set.node(slot);
            if live(node) {
                self.read(slot, overlay, |rep| {
                    if let Sealed::Sparse(set) = rep {
                        f(node, set)
                    }
                });
            }
        }
    }

    /// Fold round `round` of every owned, still-`live` slot, as `overlay`
    /// sealed it, with the slots partitioned into contiguous ranges, one
    /// per pool worker, each folding into its own sink: a dense slot is
    /// handed to `dense` under its lock, a sparse one's neighbors are queued
    /// and XORed into the supernode accumulators in place once the range is
    /// done — no slice is built for them. Nothing at all without a table.
    pub(crate) fn fold_round(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
        dense: impl Fn(&mut RoundSink<'_, CubeRoundSketch>, usize, &D) + Sync,
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
                if !live(node) {
                    continue;
                }
                self.read(slot, overlay, |rep| match rep {
                    Sealed::Dense(value) => dense(&mut sink, slot, value),
                    Sealed::Sparse(set) => sparse.push(
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

    /// Hand `visit` every owned slot's dense stack in slot order, `chunk`
    /// slots at a time, and call `done` after each chunk once its locks are
    /// released. A chunk's slot locks are taken first, in slot order, then
    /// `home` reads the stacks kept outside the slots; a sparse slot is
    /// densified by replay, held only for its visit.
    fn visit_stacks(
        &self,
        chunk: usize,
        home: &Home<'_>,
        visit: &mut dyn FnMut(usize, &CubeNodeSketch),
        done: &mut dyn FnMut() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let len = self.node_set.len();
        for start in (0..len).step_by(chunk) {
            let range = start..(start + chunk).min(len);
            {
                let reps: Vec<_> = self
                    .slots
                    .get(range.clone())
                    .map_or(Vec::new(), |cells| cells.iter().map(Mutex::lock).collect());
                home(range.clone(), &mut |homed| {
                    for slot in range.clone() {
                        let i = slot - start;
                        let stack = match reps.get(i).map(|rep| &**rep) {
                            Some(Rep::Sparse(set)) => {
                                Cow::Owned(set.densify(self.node_set.node(slot), &self.params))
                            }
                            Some(Rep::Dense(value)) => {
                                Cow::Borrowed(value.stack().unwrap_or_else(|| &homed[i]))
                            }
                            None => Cow::Borrowed(&homed[i]),
                        };
                        visit(slot, &stack);
                    }
                })?;
            }
            done()?;
        }
        Ok(())
    }

    /// Clone out every owned slot's dense stack (sparse ones densified by
    /// replay — bit-identical to an always-dense store's), indexed by slot.
    pub(crate) fn snapshot(&self, chunk: usize, home: &Home<'_>) -> Vec<Option<CubeNodeSketch>> {
        let mut out = Vec::with_capacity(self.node_set.len());
        self.visit_stacks(chunk, home, &mut |_, stack| out.push(Some(stack.clone())), &mut || {
            Ok(())
        })
        .expect("sketch store snapshot read failed");
        out
    }

    /// Hand `f` every owned node's encoded stack in slot order: a chunk is
    /// encoded under its locks and handed over once they are gone, so this
    /// holds one chunk's encoding, never a copy of the store. Stops at
    /// `f`'s first error.
    pub(crate) fn for_each_serialized(
        &self,
        chunk: usize,
        home: &Home<'_>,
        f: &mut dyn FnMut(u32, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let node_bytes = self.params.node_sketch_resident_bytes();
        let bytes = RefCell::new(Vec::with_capacity(chunk * node_bytes));
        let mut next = 0;
        self.visit_stacks(
            chunk,
            home,
            &mut |_, stack| self.params.serialize_node_sketch(stack, &mut bytes.borrow_mut()),
            &mut || {
                let mut bytes = bytes.borrow_mut();
                for encoded in bytes.chunks_exact(node_bytes) {
                    f(self.node_set.node(next), encoded)?;
                    next += 1;
                }
                bytes.clear();
                Ok(())
            },
        )
    }

    /// Replace every slot's state by `stacks` (checkpoint restore), in slot
    /// order: restored vertices are dense whatever τ. A sparse slot's set is
    /// captured for live epochs and retired; `install(slot, old, stack)`
    /// puts the stack where the store keeps it, under the slot lock, and
    /// gets the slot's old dense value, if it had one, to capture. The first
    /// failed install ends the restore with its error.
    pub(crate) fn load_all<E>(
        &self,
        stacks: Vec<CubeNodeSketch>,
        install: impl Fn(usize, Option<&D>, CubeNodeSketch) -> Result<D, E>,
    ) -> Result<(), E> {
        assert_eq!(stacks.len(), self.node_set.len());
        for (slot, stack) in stacks.into_iter().enumerate() {
            let Some(cell) = self.slots.get(slot) else {
                install(slot, None, stack)?;
                continue;
            };
            let mut rep = cell.lock();
            let old = match &*rep {
                Rep::Sparse(set) => {
                    self.epochs.capture_sparse(slot as u32, &mut || set.clone());
                    None
                }
                Rep::Dense(value) => Some(value),
            };
            *rep = Rep::Dense(install(slot, old, stack)?);
        }
        Ok(())
    }

    /// The census: promoted vs sparse slots and the sets' live entries.
    pub(crate) fn rep_stats(&self) -> RepStats {
        let mut stats = RepStats { promoted: self.node_set.len(), ..RepStats::default() };
        for cell in &self.slots {
            if let Rep::Sparse(set) = &*cell.lock() {
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
