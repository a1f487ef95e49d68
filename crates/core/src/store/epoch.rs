//! Epoch-versioned reads: sealed generations with copy-on-write overlays.
//!
//! A query that wants a consistent cut of the sketch state does not stop the
//! world. [`super::SketchStore::begin_epoch`] *seals* the current
//! generation — every sketch value as of the seal — and hands back an
//! [`EpochOverlay`]. Ingestion keeps writing into the open generation; the
//! first time a node group is dirtied after a seal, its pre-image is
//! captured into every live overlay that does not have one yet
//! (copy-on-write at node-group granularity, so an epoch's memory cost is
//! proportional to how much the stream touched while the query ran, not to
//! `V`). A reader pinned to an epoch sees the sealed value for captured
//! groups and the live value for untouched ones — which *is* the sealed
//! value, by construction. Overlays are reference-counted; when the last
//! reader drops its handle ([`crate::ShardedEpoch`]), the captured groups
//! are freed.
//!
//! Determinism: folding is XOR over the sealed values, and the sealed
//! values are exactly the store contents after the seal's flush — so a
//! query at epoch E is bit-identical to a stop-the-world query issued at
//! the moment E was sealed, regardless of how many batches land while the
//! query runs. The lattice lane (`tests/lattice.rs`) pins this.

use crate::node_sketch::CubeNodeSketch;
use crate::sparse::SparseSet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The copy-on-write side table of one sealed generation: node groups
/// dirtied after the seal, keyed by group id, each holding the group's
/// sealed sketches. Entries are only ever added (a group is captured at
/// most once per epoch); the whole overlay is freed when the last handle
/// holding it drops.
pub struct EpochOverlay {
    map: Mutex<HashMap<u32, Arc<Vec<CubeNodeSketch>>>>,
    /// Sealed pre-images of vertices that were *sparse* (exact toggle sets,
    /// DESIGN.md §12) at mutation time, keyed by **slot**. A slot captured
    /// here outranks any dense group pre-image covering the same slot: a
    /// sparse vertex has no meaningful dense bytes (its file/slot region is
    /// all-zero by construction), so the dense capture can only hold
    /// placeholder zeros or post-promotion state.
    sparse: Mutex<HashMap<u32, Arc<SparseSet>>>,
}

impl EpochOverlay {
    fn new() -> Self {
        EpochOverlay { map: Mutex::new(HashMap::new()), sparse: Mutex::new(HashMap::new()) }
    }

    /// The sealed pre-image of `group`, if ingestion dirtied it after the
    /// seal.
    pub(crate) fn get(&self, group: u32) -> Option<Arc<Vec<CubeNodeSketch>>> {
        self.map.lock().get(&group).cloned()
    }

    /// The sealed sparse pre-image of `slot`, if the vertex was sparse at
    /// seal and mutated (or promoted) afterwards.
    pub(crate) fn get_sparse(&self, slot: u32) -> Option<Arc<SparseSet>> {
        self.sparse.lock().get(&slot).cloned()
    }

    /// Node groups captured so far (dense captures only).
    pub fn captured_groups(&self) -> usize {
        self.map.lock().len()
    }

    /// Node sketches captured so far (groups × nodes per group).
    pub(crate) fn captured_sketches(&self) -> usize {
        self.map.lock().values().map(|g| g.len()).sum()
    }

    /// Resident bytes of the captured sparse pre-images.
    pub(crate) fn captured_sparse_bytes(&self) -> usize {
        self.sparse.lock().values().map(|s| s.resident_bytes()).sum()
    }
}

/// Per-store bookkeeping of live epochs. Ingestion consults it immediately
/// before mutating a group's sealed value; when no epoch is live — which
/// `gz serve`'s staleness cache guarantees for the flush of a reseal, by
/// letting go of the epoch it can no longer serve first — that consultation
/// is a single atomic load.
pub(crate) struct EpochRegistry {
    inner: Mutex<RegistryInner>,
    /// Fast-path flag: false ⇒ `inner.live` is empty and capture can be
    /// skipped without locking. Set on registration; cleared when a prune
    /// finds every overlay dead.
    maybe_live: AtomicBool,
    /// Pre-images cloned so far (groups and sparse sets), a statistic: the
    /// copy-on-write work this store has ever done for its epochs.
    captures: AtomicU64,
}

struct RegistryInner {
    next_id: u64,
    live: Vec<(u64, Weak<EpochOverlay>)>,
}

impl EpochRegistry {
    pub(crate) fn new() -> Self {
        EpochRegistry {
            inner: Mutex::new(RegistryInner { next_id: 0, live: Vec::new() }),
            maybe_live: AtomicBool::new(false),
            captures: AtomicU64::new(0),
        }
    }

    /// Pre-images cloned so far, over every epoch this registry has seen.
    pub(crate) fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Seal the current generation: register a fresh overlay and return its
    /// epoch id. The caller must have quiesced ingestion (and, for disk
    /// stores, flushed) so "the current generation" is well defined.
    pub(crate) fn register(&self) -> (u64, Arc<EpochOverlay>) {
        let mut inner = self.inner.lock();
        inner.live.retain(|(_, weak)| weak.strong_count() > 0);
        let id = inner.next_id;
        inner.next_id += 1;
        let overlay = Arc::new(EpochOverlay::new());
        inner.live.push((id, Arc::downgrade(&overlay)));
        self.maybe_live.store(true, Ordering::Release);
        (id, overlay)
    }

    /// Called by ingestion right before the first mutation of `group` since
    /// the store's sealed values last changed hands: insert `group`'s
    /// pre-image (produced by `make`, invoked at most once) into every live
    /// overlay that lacks it. An overlay that already holds `group` keeps
    /// its own, older pre-image — the current value is exactly what epochs
    /// sealed *after* that earlier capture need.
    pub(crate) fn capture_group(&self, group: u32, make: &mut dyn FnMut() -> Vec<CubeNodeSketch>) {
        if !self.maybe_live.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.live.retain(|(_, weak)| weak.strong_count() > 0);
        if inner.live.is_empty() {
            self.maybe_live.store(false, Ordering::Release);
            return;
        }
        let mut pre_image: Option<Arc<Vec<CubeNodeSketch>>> = None;
        for (_, weak) in &inner.live {
            let Some(overlay) = weak.upgrade() else { continue };
            let mut map = overlay.map.lock();
            if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(group) {
                slot.insert(Arc::clone(pre_image.get_or_insert_with(|| {
                    self.captures.fetch_add(1, Ordering::Relaxed);
                    Arc::new(make())
                })));
            }
        }
    }

    /// Sparse twin of [`Self::capture_group`]: called right before the
    /// first mutation (toggle or promotion) of a *sparse* vertex at `slot`
    /// since the seal. The caller must hold the lock that guards the
    /// vertex's sparse state, so readers checking overlay-then-live under
    /// the same lock see either the pre-image or the unmutated live set.
    pub(crate) fn capture_sparse(&self, slot: u32, make: &mut dyn FnMut() -> SparseSet) {
        if !self.maybe_live.load(Ordering::Acquire) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.live.retain(|(_, weak)| weak.strong_count() > 0);
        if inner.live.is_empty() {
            self.maybe_live.store(false, Ordering::Release);
            return;
        }
        let mut pre_image: Option<Arc<SparseSet>> = None;
        for (_, weak) in &inner.live {
            let Some(overlay) = weak.upgrade() else { continue };
            let mut map = overlay.sparse.lock();
            if let std::collections::hash_map::Entry::Vacant(entry) = map.entry(slot) {
                entry.insert(Arc::clone(pre_image.get_or_insert_with(|| {
                    self.captures.fetch_add(1, Ordering::Relaxed);
                    Arc::new(make())
                })));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GzConfig;
    use crate::system::GraphZeppelin;

    /// The tentpole invariant at its smallest: seal, record the
    /// stop-the-world answer, mutate the stream heavily, and the epoch
    /// still answers bit-for-bit as of its seal.
    #[test]
    fn epoch_pins_the_sealed_answer_under_further_ingest() {
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(24)).unwrap();
        for &(u, v) in &[(0u32, 1u32), (1, 2), (5, 6), (8, 9)] {
            gz.edge_update(u, v);
        }
        let epoch = gz.begin_epoch().unwrap();
        let reference = gz.spanning_forest().unwrap();
        assert_eq!(epoch.overlay_resident_bytes(), 0, "nothing dirtied yet");

        // Rewrite a large part of the graph after the seal.
        for &(u, v) in &[(0u32, 1u32), (2, 3), (3, 4), (8, 9), (10, 11), (11, 12)] {
            gz.edge_update(u, v);
        }
        gz.flush();

        let at_epoch = epoch.spanning_forest().unwrap();
        assert_eq!(at_epoch.labels, reference.labels);
        assert_eq!(at_epoch.forest, reference.forest);
        assert_eq!(at_epoch.rounds_used, reference.rounds_used);
        assert_eq!(at_epoch.sketch_failures, reference.sketch_failures);
        assert!(epoch.captured_groups() > 0, "post-seal writes must capture");
        assert!(epoch.overlay_resident_bytes() > 0);

        // And the live system sees the new graph.
        let live = gz.spanning_forest().unwrap();
        assert_ne!(live.labels, reference.labels, "stream moved on");
    }
}
