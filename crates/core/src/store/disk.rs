//! The sketch store: every owned vertex's dense stack lives in a *node
//! group* of consecutive slots (paper §4.1), and a group is resident or
//! paged — the one thing the paper's two deployments differ in.
//!
//! - Without a file (`StoreBackend::Ram`) a group is one node, resident
//!   under its own lock — exactly a slot of the paper's in-RAM store, so
//!   the §5.1 lock granularity is a node's — and nothing is ever written
//!   back. A group is allocated when its first slot turns dense: at
//!   construction at τ = 0, at the slot's promotion otherwise — as a paged
//!   group faults in from a zero-filled file.
//! - With a file (the SSD model) a group is `max(1, B/sketch_size)` nodes
//!   at a fixed offset in a pre-allocated scratch file. The file holds each
//!   group's image in its one encoding, 8 bytes a bucket below `2^32` and
//!   12 above: [`SketchParams`] sizes, slices, encodes and decodes it
//!   (`crate::node_sketch`), so a fault and a write-back are one call to
//!   it each. Nothing else reads the file, and it is deleted on drop. A
//!   bounded LRU cache of loaded groups stands in for the paper's RAM
//!   budget `M`; evictions write dirty groups back. Every file access
//!   is recorded in [`IoStats`], which is how the experiment suite measures
//!   the hybrid-model I/O claims instead of relying on cgroup-forced swap.
//!
//! Graph Workers apply batches in parallel (DESIGN.md §13, "Concurrency
//! model"). The batch kernel runs into a pooled scratch sketch with no lock
//! held (`LockingStrategy::Direct`, the §5.1 ablation, runs it under the
//! group's lock instead). A paged store's one global lock (`CacheState`'s)
//! covers bookkeeping only — map lookup, LRU touch, victim choice; and
//! everything that costs time — the faulted group's read and copy-in, a
//! victim's copy-out and write, the XOR-merge of a delta — happens under
//! the lock of the one group it concerns. A resident store takes no
//! store-wide lock at all. Lock order: a vertex's slot (the hybrid table,
//! τ > 0) → cache map → group entry.
//!
//! Within a group the layout is *round-major*: all nodes' round-0 slices,
//! then all round-1 slices, and so on. Ingestion always faults whole groups
//! through the cache, so it is indifferent to the internal order — but the
//! streaming query path (paper §4.2, Figure 9) needs only round `r`'s
//! column data in Borůvka round `r`, and the round-major order makes that
//! slice one contiguous read of `nodes_in_group × round_bytes` instead of
//! `nodes_in_group` strided seeks. Every query reads round slices through
//! one claim loop (`SketchStore::claim_groups`), run by however many query
//! workers there are — one included: a resident group's slices are
//! borrowed where they lie, a paged group's read from the file.
//!
//! Every file access is one positioned syscall on the shared handle
//! (`read_at`, `write_at`): a group fault, one round slice, or one
//! coalesced run of write-back. There is no seek cursor, so any number of
//! workers can have accesses to different regions in flight at once.

use crate::boruvka::RoundSink;
use crate::config::LockingStrategy;
use crate::error::GzError;
use crate::node_sketch::{CubeNodeSketch, SketchParams, Stack, StackMut};
use crate::sparse::SparseSet;
use crate::store::epoch::EpochOverlay;
use crate::store::hybrid::Hybrid;
use crate::store::{GraphDigestStripes, NodeSet, RepStats, ScratchPool};
use gz_gutters::{CounterSet, IoStats, WorkerPool};
use gz_sketch::cube::CubeRound;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Empty: the store has one I/O path and nothing to tune. A benchmark
/// pin — the repository benchmark's store probe still names this type and
/// passes it to [`SketchStore::for_nodes_with_options`].
#[derive(Debug, Default)]
pub struct IoBackendConfig {}

/// The one store under the name the repository benchmark's store probe
/// imports for its file-backed lane.
pub use self::SketchStore as DiskStore;

/// The node groups `slots` stacks of `params` are cut into at block size
/// `block_bytes` (paper §4.1): `(nodes a group, groups)`, a group holding
/// `max(1, B / node bytes)` nodes — a node's encoded bytes, what the file
/// holds — and no more than `slots`.
pub(crate) fn node_groups(params: &SketchParams, block_bytes: usize, slots: u64) -> (u64, u64) {
    let group = ((block_bytes / params.image_bytes(1).max(1)).max(1) as u64).min(slots.max(1));
    (group, slots.div_ceil(group))
}

/// Fill `buf` from `offset`: one positioned read, counted in `io` as one
/// read of exactly `buf.len()` bytes. A read that runs past the end of the
/// file fails with `UnexpectedEof` and counts nothing.
fn read_at(file: &File, offset: u64, buf: &mut [u8], io: &IoStats) -> std::io::Result<()> {
    file.read_exact_at(buf, offset)?;
    io.record_read(buf.len() as u64);
    Ok(())
}

/// Write all of `bytes` at `offset`, counted in `io` as one write of
/// exactly `bytes.len()` bytes.
fn write_at(file: &File, offset: u64, bytes: &[u8], io: &IoStats) -> std::io::Result<()> {
    file.write_all_at(bytes, offset)?;
    io.record_write(bytes.len() as u64);
    Ok(())
}

/// One node group. Whoever holds the lock owns the group's loaded
/// stacks: the worker faulting it in, a worker merging a delta, the
/// worker evicting it, or a flush writing it back.
type GroupEntry = Mutex<GroupState>;

struct GroupState {
    /// The group's stacks once `loaded`, in one allocation: its round-major
    /// image ([`SketchParams::stack_at`]), whose encoding is the group's
    /// file region. Before that, nothing in a resident group, and in a
    /// paged one whatever the evicted group that donated the allocation
    /// left behind.
    image: Vec<u64>,
    /// False until the group's first dense touch has allocated it
    /// (resident) or until the first holder of the lock has read it in
    /// (paged) — so two workers wanting the same absent group cause one
    /// read: the second finds it loaded.
    loaded: bool,
    /// Mutated since the file last held it (paged groups only).
    dirty: bool,
}

struct CacheSlot {
    /// Workers clone this out *under the cache lock* and keep the clone for
    /// as long as they use the group, so a strong count of 1, read under
    /// that lock, means nobody uses — or can come to use — the group: the
    /// eviction test. (Dropping a clone needs no lock and only ever makes
    /// a group look evictable later than it was.)
    entry: Arc<GroupEntry>,
    /// The slot's key in `CacheState::lru`.
    tick: u64,
}

/// Everything the global cache lock guards — bookkeeping only, never a
/// group's contents.
#[derive(Default)]
struct CacheState {
    groups: HashMap<u32, CacheSlot>,
    /// Use order, oldest first: `tick → group`, one entry per cached group
    /// (ticks are unique), so touching a group and finding the
    /// least-recently-used one are both `O(log cache_groups)`.
    lru: BTreeMap<u64, u32>,
    clock: u64,
    /// Evicted groups whose write-back has not landed yet. They are out of
    /// `groups`, so nothing merges into them; a worker that wants one back
    /// waits for it to leave this set before reading the file.
    writing_back: HashSet<u32>,
}

impl CacheState {
    /// Remove and return the least-recently-used group nobody is using.
    fn pop_unused_lru(&mut self) -> Option<(u32, Arc<GroupEntry>)> {
        let (&tick, &group) =
            self.lru.iter().find(|(_, g)| Arc::strong_count(&self.groups[*g].entry) == 1)?;
        self.lru.remove(&tick);
        let slot = self.groups.remove(&group).expect("every LRU entry is cached");
        Some((group, slot.entry))
    }
}

/// A paged store's file, and the cache its groups are loaded through.
struct Pager {
    file: File,
    path: PathBuf,
    /// Maximum groups held in RAM.
    cache_capacity: usize,
    cache: Mutex<CacheState>,
    /// Signalled (with the cache lock) whenever a group leaves
    /// `CacheState::writing_back`.
    writeback_landed: Condvar,
    io: Arc<IoStats>,
}

impl Drop for Pager {
    fn drop(&mut self) {
        // Best-effort cleanup of the backing file; ignore failures.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Most bytes one coalesced write-back run holds before it is written
/// (`writeback_dirty`); a group larger than this is a run of its own.
const WRITEBACK_RUN_BYTES: usize = 1 << 20;

/// Groups a claimant of a resident store takes off the cursor at once: a
/// resident group is one node, and one atomic add a node would cost more
/// than its fold. A paged group is claimed alone.
const RESIDENT_CLAIM: usize = 64;

/// One round stream in progress (see `SketchStore::claim_groups`): what to
/// read, and the cursor and error slot its claimants share.
struct RoundClaims<'a> {
    round: usize,
    /// The sealed epoch being read; `None` = the live state.
    overlay: Option<&'a EpochOverlay>,
    /// Per slot: live, and dense at the seal — the slots whose slices the
    /// stream emits.
    emits: Vec<bool>,
    /// The groups to visit, in slot order.
    wanted: Vec<u32>,
    /// Groups a claim takes.
    window: usize,
    /// Index into `wanted` of the next unclaimed group.
    next: AtomicUsize,
    first_error: Mutex<Option<std::io::Error>>,
}

impl RoundClaims<'_> {
    /// The next window of unclaimed groups; empty once they have run out.
    fn claim(&self) -> &[u32] {
        let start = self.next.fetch_add(self.window, Ordering::Relaxed).min(self.wanted.len());
        let rest = &self.wanted[start..];
        &rest[..rest.len().min(self.window)]
    }

    /// The stream's outcome, once every claimant has returned.
    fn finish(self) -> Result<(), GzError> {
        self.first_error.into_inner().map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Test-only view into the cache protocol.
#[cfg(test)]
#[derive(Default)]
struct CacheProbe {
    /// Most loaded groups ever held at once (cached + being written back).
    resident_peak: std::sync::atomic::AtomicUsize,
    /// Misses (entries inserted into the map); each must cost one read.
    faults: std::sync::atomic::AtomicU64,
    /// Times a worker found the group it wanted mid-write-back.
    refault_waits: std::sync::atomic::AtomicU64,
    /// Called with the victim's group id before each eviction write.
    before_writeback: Mutex<Option<WritebackHook>>,
}

#[cfg(test)]
type WritebackHook = Box<dyn Fn(&SketchStore, u32) + Send + Sync>;

/// A store of per-vertex node sketches, shared across Graph Workers: a
/// hybrid table of sparse slots over node groups of dense stacks, resident
/// or paged.
///
/// The store may hold the whole vertex set or only a shard's residue
/// class: slots are dense over the [`NodeSet`], so a shard's groups (and
/// file) are sized to its owned nodes.
pub struct SketchStore {
    params: Arc<SketchParams>,
    node_set: NodeSet,
    /// Nodes per group.
    group_size: u32,
    locking: LockingStrategy,
    /// The groups of a store without a file, one lock each, allocated at
    /// a group's first dense touch (all of them up front at τ = 0): a slot
    /// that stays sparse costs one empty cell. Empty when paged.
    resident: Vec<OnceLock<Box<GroupEntry>>>,
    /// The file a paged store's groups live in; `None` when resident.
    pager: Option<Pager>,
    /// Delta sketches batches are built in before they touch a group.
    scratch: ScratchPool,
    /// The graph digest of the records applied here
    /// ([`SketchStore::graph_digest`]).
    graph: GraphDigestStripes,
    /// The first I/O failure of a group fault or write-back. A batch hit by
    /// one is lost, so the store is unusable from then on: every later
    /// access, [`Self::flush`] and [`Self::begin_epoch`] return this error
    /// (rebuilt from its kind and message) instead of touching the file.
    first_error: Mutex<Option<(std::io::ErrorKind, String)>>,
    /// Each slot's sparse set (`store::hybrid`, DESIGN.md §12); no table at
    /// τ = 0. A sparse slot's group bytes stay all-zero and are never
    /// authoritative — readers skip them. Its epochs' dense copy-on-write
    /// unit is the node group: captures happen under the group's lock,
    /// before its first mutation since the seal (for a paged group, on the
    /// clean→dirty transition: a clean group's value equals the file's,
    /// which is the sealed value for every epoch still lacking the group).
    pub(crate) reps: Hybrid,
    #[cfg(test)]
    probe: CacheProbe,
}

impl SketchStore {
    /// A store of `node_set` without a file: one node a group, every group
    /// resident, batches applied under `locking`. With `threshold > 0`
    /// every vertex starts as an exact sparse toggle set, densifies past
    /// `threshold` live neighbors and gets its group then; `0` allocates
    /// every stack up front. Sketches still hash over the *full*
    /// characteristic vector — ownership restricts which vertices live
    /// here, not the edge universe. (A benchmark pin, under its old name
    /// `RamStore::for_nodes_with_threshold`.)
    pub fn for_nodes_with_threshold(
        params: Arc<SketchParams>,
        locking: LockingStrategy,
        node_set: NodeSet,
        threshold: u32,
    ) -> Self {
        // Born dense at τ = 0: every group allocated up front.
        let resident = (0..node_set.len())
            .map(|_| match threshold {
                0 => OnceLock::from(Box::new(Mutex::new(GroupState {
                    image: vec![0; params.image_words(1)],
                    loaded: true,
                    dirty: false,
                }))),
                _ => OnceLock::new(),
            })
            .collect();
        Self::build(params, node_set, threshold, locking, 1, resident, None)
    }

    /// [`Self::for_nodes_with_threshold`] at τ = 0 (a benchmark pin, as
    /// `RamStore::for_nodes`).
    pub fn for_nodes(
        params: Arc<SketchParams>,
        locking: LockingStrategy,
        node_set: NodeSet,
    ) -> Self {
        Self::for_nodes_with_threshold(params, locking, node_set, 0)
    }

    /// A store of `node_set` paged through the file at `path`, created
    /// all-zero (a fresh CubeSketch's words are all zero, so a zero-filled
    /// file *is* the empty store): groups of `max(1, block_bytes / node
    /// bytes)` nodes, at most `cache_groups` of them loaded, batches applied
    /// as delta sketches, every slot sparse below τ = `threshold` (0 =
    /// always dense).
    pub fn with_file(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        path: PathBuf,
        block_bytes: usize,
        cache_groups: usize,
        threshold: u32,
    ) -> std::io::Result<Self> {
        let (group_size, num_groups) = node_groups(&params, block_bytes, node_set.len() as u64);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(num_groups * params.image_bytes(group_size as usize) as u64)?;
        let pager = Pager {
            file,
            path,
            cache_capacity: cache_groups.max(1),
            cache: Mutex::new(CacheState::default()),
            writeback_landed: Condvar::new(),
            io: Arc::new(IoStats::new()),
        };
        let locking = LockingStrategy::DeltaSketch;
        Ok(Self::build(
            params,
            node_set,
            threshold,
            locking,
            group_size as u32,
            vec![],
            Some(pager),
        ))
    }

    /// [`Self::with_file`]; `_io` is ignored. A benchmark pin — the
    /// repository benchmark's store probe calls this signature, as
    /// `DiskStore::for_nodes_with_options`.
    pub fn for_nodes_with_options(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        path: PathBuf,
        block_bytes: usize,
        cache_groups: usize,
        threshold: u32,
        _io: IoBackendConfig,
    ) -> std::io::Result<Self> {
        Self::with_file(params, node_set, path, block_bytes, cache_groups, threshold)
    }

    fn build(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        threshold: u32,
        locking: LockingStrategy,
        group_size: u32,
        resident: Vec<OnceLock<Box<GroupEntry>>>,
        pager: Option<Pager>,
    ) -> Self {
        SketchStore {
            reps: Hybrid::new(Arc::clone(&params), node_set, threshold),
            scratch: ScratchPool::new(Arc::clone(&params)),
            graph: GraphDigestStripes::new(),
            params,
            node_set,
            group_size,
            locking,
            resident,
            pager,
            first_error: Mutex::new(None),
            #[cfg(test)]
            probe: CacheProbe::default(),
        }
    }

    /// Seal the current generation and return its epoch id and
    /// copy-on-write overlay. The caller must have quiesced ingestion (a
    /// flushed buffering system and a drained work queue) so the sealed
    /// values are well defined. A paged store first writes back every dirty
    /// cached group, atomically with the registration — the cache lock and
    /// every cached group's lock held across both, so no batch can dirty a
    /// group in between — and the file is authoritative for the sealed
    /// generation. Fails with the store's first batch-application error,
    /// if there was one.
    pub fn begin_epoch(&self) -> Result<(u64, Arc<EpochOverlay>), GzError> {
        Ok(self.writeback_dirty(|| self.reps.epochs.register())?)
    }

    /// Write every dirty cached group back to the file, coalescing runs of
    /// *adjacent* dirty group ids into single contiguous writes (their file
    /// regions abut, so one larger write is equivalent) of at most
    /// [`WRITEBACK_RUN_BYTES`] each — or one group, when a group is larger.
    /// A run of one group is written straight from its image; a longer run
    /// copies its groups' whole images into one buffer, so a write-back
    /// holds one run, never the whole dirty cache. Then run `sealed` while
    /// still holding the cache lock and the lock of every cached group,
    /// i.e. with all merges shut out. A resident store has nothing to
    /// write: it runs `sealed` at once. Shared by [`Self::flush`] and
    /// [`Self::begin_epoch`].
    fn writeback_dirty<R>(&self, sealed: impl FnOnce() -> R) -> std::io::Result<R> {
        let Some(pager) = &self.pager else { return Ok(sealed()) };
        self.check_failed()?;
        let mut cache = pager.cache.lock();
        // Evictions in flight hold groups this scan cannot see; the file is
        // not authoritative until their writes have landed.
        while !cache.writing_back.is_empty() {
            pager.writeback_landed.wait(&mut cache);
        }
        let mut held: Vec<(u32, MutexGuard<'_, GroupState>)> =
            cache.groups.iter().map(|(&group, slot)| (group, slot.entry.lock())).collect();
        held.sort_unstable_by_key(|(group, _)| *group);
        let dirty = held.iter().filter(|(_, state)| state.dirty).map(|(g, s)| (*g, &s.image[..]));
        self.record_failure(self.write_runs(pager, &dirty.collect::<Vec<_>>()))?;
        for (_, state) in &mut held {
            state.dirty = false;
        }
        Ok(sealed())
    }

    /// Write `dirty` — `(group, image)` in group order: an evicted group, or
    /// every dirty cached group of a write-back — in runs of groups
    /// adjacent in the file (every non-final group fills its full region)
    /// of at most [`WRITEBACK_RUN_BYTES`]: a one-group run encoded from its
    /// image, a longer one from its images copied into one buffer.
    fn write_runs(&self, pager: &Pager, dirty: &[(u32, &[u64])]) -> std::io::Result<()> {
        let region = |group| self.params.image_bytes(self.nodes_in_group(group) as usize);
        let (mut words, mut buf) = (Vec::new(), Vec::new());
        let mut rest = dirty;
        while let Some(&(first, image)) = rest.first() {
            let mut len = region(first);
            let mut run = 1;
            while let Some(&(group, _)) = rest.get(run) {
                let adjacent = group == first + run as u32;
                if !(adjacent && len + region(group) <= WRITEBACK_RUN_BYTES) {
                    break;
                }
                len += region(group);
                run += 1;
            }
            let bytes = match run {
                1 => self.params.encode(image, &mut buf),
                _ => {
                    words.clear();
                    rest[..run].iter().for_each(|(_, image)| words.extend_from_slice(image));
                    self.params.encode(&words, &mut buf)
                }
            };
            write_at(&pager.file, self.group_offset(first), bytes, &pager.io)?;
            rest = &rest[run..];
        }
        Ok(())
    }

    /// Fail with the store's first batch-application error, if any.
    fn check_failed(&self) -> std::io::Result<()> {
        match &*self.first_error.lock() {
            Some((kind, message)) => Err(std::io::Error::new(*kind, message.clone())),
            None => Ok(()),
        }
    }

    /// Pass `result` through, remembering its error if it is the store's
    /// first.
    fn record_failure<T>(&self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(e) = &result {
            self.first_error
                .lock()
                .get_or_insert_with(|| (e.kind(), format!("disk sketch store failed: {e}")));
        }
        result
    }

    /// Shared sketch parameters.
    pub fn params(&self) -> &Arc<SketchParams> {
        &self.params
    }

    /// The vertex set this store holds sketches for.
    pub fn node_set(&self) -> NodeSet {
        self.node_set
    }

    /// The store's per-worker graph digests.
    pub(crate) fn graph(&self) -> &GraphDigestStripes {
        &self.graph
    }

    /// File I/O counters, if this store has a file.
    pub fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.pager.as_ref().map(|pager| Arc::clone(&pager.io))
    }

    /// Bytes of this store's file, if it has one: every group at its
    /// resident words.
    pub fn file_bytes(&self) -> Option<u64> {
        self.pager.as_ref().map(|_| self.group_offset(self.num_groups()))
    }

    /// Nodes per group: `max(1, B/sketch)` with a file (paper §4.1), one
    /// without.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Number of node groups.
    pub fn num_groups(&self) -> u32 {
        (self.node_set.len() as u32).div_ceil(self.group_size)
    }

    /// Representation census (promoted vs sparse vertices).
    pub fn rep_stats(&self) -> RepStats {
        self.reps.rep_stats()
    }

    /// Resident sketch bytes of the owned nodes, wherever they live: a
    /// promoted vertex's stack at its resident words, a sparse one at 4
    /// bytes a live neighbor (the census's `sketch memory`).
    pub fn sketch_bytes(&self) -> usize {
        self.reps.sketch_bytes()
    }

    /// The sketch bytes this store keeps in RAM outside a cache: all of
    /// them without a file; with one, the sparse sets only (the file holds
    /// the stacks, and the cache is budgeted in groups).
    pub fn ram_bytes(&self) -> usize {
        match self.pager {
            None => self.sketch_bytes(),
            Some(_) => self.rep_stats().sparse_bytes(),
        }
    }

    /// Pre-images this store has cloned for its epochs so far (node groups
    /// and sparse sets, each counted once however many overlays share it) —
    /// the copy-on-write cost of every seal to date. It stands still while
    /// no epoch is live, which is how the tests pin that a reseal whose old
    /// epoch was let go first clones nothing in its flush.
    pub fn epoch_captures(&self) -> u64 {
        self.reps.epochs.captures()
    }

    fn group_of_slot(&self, slot: usize) -> u32 {
        slot as u32 / self.group_size
    }

    fn group_offset(&self, group: u32) -> u64 {
        group as u64 * self.params.image_bytes(self.group_size as usize) as u64
    }

    /// The slots of `group`.
    fn slots_of(&self, group: u32) -> std::ops::Range<usize> {
        let start = (group * self.group_size) as usize;
        start..(start + self.group_size as usize).min(self.node_set.len())
    }

    fn nodes_in_group(&self, group: u32) -> u32 {
        self.slots_of(group).len() as u32
    }

    /// Run `f` with mutable access to a group, loaded first: a resident
    /// group allocated at its first dense touch, a paged one faulted in
    /// (possibly evicting least-recently-used groups). Only `group`'s own
    /// lock is held while the group is loaded and handed to `f`; workers on
    /// different groups do all of that side by side.
    fn with_group<R>(&self, group: u32, f: impl FnOnce(&mut [u64]) -> R) -> std::io::Result<R> {
        self.with_loaded_group(group, |state| {
            if !state.dirty {
                // Clean→dirty transition: this clean value equals the
                // file's, which is the sealed value of every live epoch not
                // yet holding this group (any earlier post-seal mutation
                // would have passed through here and captured it) —
                // snapshot it before `f` can mutate. Every write-back of
                // the group takes this same lock, so the capture is ordered
                // before any write-back of the mutated group, which is what
                // lets epoch readers trust the file for non-captured groups.
                // A resident group has no file to be clean against: it
                // offers its pre-image before every mutation, and each
                // epoch keeps the first.
                let image = &state.image;
                self.reps.epochs.capture_group(group, &mut || Arc::from(&image[..]));
                state.dirty = self.pager.is_some();
            }
            f(&mut state.image)
        })
    }

    /// Run `f` on `group`'s image without dirtying it — nothing to
    /// capture, and nothing to write back on its account: a paged group is
    /// faulted in through the cache; a resident group never allocated reads
    /// as an empty image (every slot of it is sparse).
    fn read_group<R>(&self, group: u32, f: impl FnOnce(&[u64]) -> R) -> std::io::Result<R> {
        match self.pager {
            None => match self.resident[group as usize].get() {
                Some(entry) => Ok(f(&entry.lock().image)),
                None => Ok(f(&[])),
            },
            Some(_) => self.with_loaded_group(group, |state| f(&state.image)),
        }
    }

    /// Run `f` on `group`'s state under its lock, loaded first.
    fn with_loaded_group<R>(
        &self,
        group: u32,
        f: impl FnOnce(&mut GroupState) -> R,
    ) -> std::io::Result<R> {
        let Some(pager) = &self.pager else {
            let entry = self.resident[group as usize].get_or_init(|| {
                let state = GroupState { image: Vec::new(), loaded: false, dirty: false };
                Box::new(Mutex::new(state))
            });
            let mut state = entry.lock();
            if !state.loaded {
                let nodes = self.nodes_in_group(group) as usize;
                state.image = vec![0; self.params.image_words(nodes)];
                state.loaded = true;
            }
            return Ok(f(&mut state));
        };
        self.check_failed()?;
        let entry = self.record_failure(self.checkout_group(pager, group))?;
        let mut state = entry.lock();
        if !state.loaded {
            let len = self.params.image_bytes(self.nodes_in_group(group) as usize);
            let offset = self.group_offset(group);
            let read = |bytes: &mut [u8]| read_at(&pager.file, offset, bytes, &pager.io);
            self.record_failure(self.params.decode(&mut state.image, len, read))?;
            state.loaded = true;
        }
        Ok(f(&mut state))
    }

    /// The bookkeeping half of a paged group access, and the only part
    /// under the global cache lock: find `group`'s entry, or make room and
    /// insert an unloaded one, and mark it most recently used. The returned
    /// clone keeps the entry from being evicted until it is dropped.
    ///
    /// Making room evicts least-recently-used groups nobody is using, one
    /// at a time, until the cache is under capacity (or every cached group
    /// is in use, in which case the new group goes in over budget and a
    /// later miss evicts for it). Each victim is written back with the
    /// cache lock released and this worker holding nothing else, so the
    /// loaded groups in existence never exceed `cache_groups` plus one per
    /// worker: every group is cached-and-idle (at most `cache_groups` of
    /// those once any miss completes), in use by a worker, or a victim in a
    /// worker's hands — and a worker holds one or the other, never both.
    fn checkout_group(&self, pager: &Pager, group: u32) -> std::io::Result<Arc<GroupEntry>> {
        // The last victim's allocation, recycled as the new group's.
        let mut spare = Vec::new();
        let mut cache = pager.cache.lock();
        loop {
            cache.clock += 1;
            let tick = cache.clock;
            let CacheState { groups, lru, writing_back, .. } = &mut *cache;
            if let Some(slot) = groups.get_mut(&group) {
                lru.remove(&slot.tick);
                lru.insert(tick, group);
                slot.tick = tick;
                return Ok(Arc::clone(&slot.entry));
            }
            if writing_back.contains(&group) {
                // Another worker evicted `group` and its bytes are still on
                // their way to the file: reading now could fault in the
                // stale image and lose every update since the last write.
                #[cfg(test)]
                self.probe.refault_waits.fetch_add(1, Ordering::Relaxed);
                pager.writeback_landed.wait(&mut cache);
                continue;
            }
            let victim =
                if groups.len() >= pager.cache_capacity { cache.pop_unused_lru() } else { None };
            let Some((victim_group, victim)) = victim else {
                let state = GroupState { image: spare, loaded: false, dirty: false };
                let entry = Arc::new(Mutex::new(state));
                cache.lru.insert(tick, group);
                cache.groups.insert(group, CacheSlot { entry: Arc::clone(&entry), tick });
                #[cfg(test)]
                {
                    self.probe.faults.fetch_add(1, Ordering::Relaxed);
                    self.probe_resident(&cache);
                }
                return Ok(entry);
            };
            cache.writing_back.insert(victim_group);
            #[cfg(test)]
            self.probe_resident(&cache);
            drop(cache);

            #[cfg(test)]
            if let Some(hook) = self.probe.before_writeback.lock().as_ref() {
                hook(self, victim_group);
            }
            // Out of the map and unused: this lock is uncontended.
            let mut state = victim.lock();
            let written = match state.dirty {
                true => self.write_runs(pager, &[(victim_group, &state.image)]),
                false => Ok(()),
            };
            spare = std::mem::take(&mut state.image);
            drop(state);

            cache = pager.cache.lock();
            cache.writing_back.remove(&victim_group);
            pager.writeback_landed.notify_all();
            written?;
        }
    }

    #[cfg(test)]
    fn probe_resident(&self, cache: &CacheState) {
        let resident = cache.groups.len() + cache.writing_back.len();
        self.probe.resident_peak.fetch_max(resident, Ordering::Relaxed);
    }

    /// Apply a batch of encoded update records to `node`'s sketch stack
    /// (`node` must be owned). Thread-safe; called concurrently by Graph
    /// Workers.
    ///
    /// While the node is sparse the batch only toggles its exact
    /// neighbor-set (`Hybrid::apply_sparse`) — no group touched, no file
    /// traffic. Crossing τ promotes: the replayed stack is written into the
    /// node's place in its group, under the slot lock.
    ///
    /// A dense node's batch goes through the batch kernel into a scratch
    /// sketch first, with no lock held, and only the XOR of that delta into
    /// the node's stack happens under its group's lock — the paper's §5.1
    /// critical-section minimisation, which is what lets Graph Workers
    /// overlap. [`LockingStrategy::Direct`] runs the kernel under the
    /// group's lock instead.
    ///
    /// An I/O failure loses the batch; the store remembers it and fails
    /// every later [`Self::flush`] and [`Self::begin_epoch`].
    pub fn apply_batch(&self, node: u32, records: &[u32]) {
        let slot = self.node_set.slot(node);
        // A failure is on record in the store, here and below.
        let promoted = |stack: CubeNodeSketch| {
            drop(self.with_stack(slot, |mut dst| dst.copy_from(stack.view())))
        };
        if self.reps.apply_sparse(slot, node, records, promoted) {
            return;
        }
        let num_nodes = self.params.num_nodes;
        drop(match self.locking {
            LockingStrategy::Direct => self.with_stack(slot, |dst| {
                super::apply_records(dst, node, records, num_nodes);
            }),
            LockingStrategy::DeltaSketch => self.scratch.with_delta(node, records, |delta| {
                self.with_stack(slot, |mut dst| dst.merge(delta.view()))
            }),
        });
    }

    /// Dense stacks allocated in resident groups (test instrumentation for
    /// allocation at the first dense touch).
    #[cfg(test)]
    pub(crate) fn resident_stacks(&self) -> usize {
        let words = self.params.image_words(1);
        self.resident
            .iter()
            .flat_map(OnceLock::get)
            .map(|group| group.lock().image.len() / words)
            .sum()
    }

    /// Scratch sketches parked in the store's pool (test instrumentation
    /// for the reuse discipline).
    #[cfg(test)]
    pub(crate) fn parked_scratch(&self) -> usize {
        self.scratch.parked()
    }

    /// Run `f` on the dense stack at `slot`, in its group, under the
    /// group's lock ([`Self::with_group`]).
    fn with_stack(&self, slot: usize, f: impl FnOnce(StackMut<'_>)) -> std::io::Result<()> {
        let (group, local) = (self.group_of_slot(slot), slot % self.group_size as usize);
        self.with_group(group, |image| f(self.params.stack_at_mut(image, local)))
    }

    /// Flush every dirty cached group back to the file (adjacent dirty
    /// groups coalesce into single contiguous writes; see
    /// `writeback_dirty`); nothing to do without a file. Fails with the
    /// store's first batch-application error, if there was one: the file
    /// would be missing that batch.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writeback_dirty(|| ())
    }

    /// Set up a stream of the round-`round` slice of every owned dense
    /// node whose component is still `live`, as sealed by `overlay`. A live
    /// stream (`None`; the caller must have quiesced ingestion) writes the
    /// dirty cached groups back first so the file is authoritative. An
    /// epoch stream does not: ingestion keeps writing while it runs, and
    /// the file holds the sealed value of every group the overlay lacks,
    /// because the seal flushed and nothing has dirtied them since.
    ///
    /// Which slots are live and were dense at the seal is recorded here,
    /// once a round, in one pass over the slots before any group lock (the
    /// slot lock comes first): a slot sparse at the seal has zeros or
    /// post-promotion state in its group, never its sealed value, and the
    /// sparse pass serves it. The record is stable for the whole stream —
    /// for an epoch because promotion is monotone and captures the set
    /// first, for a live read because ingestion is quiesced.
    fn begin_round<'a>(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&'a EpochOverlay>,
    ) -> std::io::Result<RoundClaims<'a>> {
        if overlay.is_none() {
            self.flush()?;
        }
        let emits: Vec<bool> = (0..self.node_set.len())
            .map(|slot| live(self.node_set.node(slot)) && !self.reps.is_sparse(slot, overlay))
            .collect();
        // Visit the groups with a slot to emit, in slot order: an
        // all-sparse group holds zeros.
        let wanted =
            (0..self.num_groups()).filter(|&g| self.slots_of(g).any(|slot| emits[slot])).collect();
        Ok(RoundClaims {
            round,
            overlay,
            emits,
            wanted,
            window: if self.pager.is_some() { 1 } else { RESIDENT_CLAIM },
            next: AtomicUsize::new(0),
            first_error: Mutex::new(None),
        })
    }

    /// The store's one round-read path (paper §4.2, Figure 9), run by each
    /// claimant of `claims` until the wanted groups run out: claim the next
    /// groups from the shared cursor and hand every live dense node's slice
    /// of each to `emit` — borrowed from the epoch's pre-image of the group
    /// if the overlay captured one, else borrowed from a resident group
    /// under its lock, else copied from a paged group's round slice as read
    /// from the file. Which claimant gets which group is
    /// scheduling-dependent; consumers fold by XOR, so it never shows in a
    /// result.
    ///
    /// The overlay is checked under a resident group's lock, which its
    /// captures take too, and again after each file read: a capture landing
    /// mid-read means the read may have raced a write-back of post-seal
    /// state, and the capture happens-before that write-back, so a torn or
    /// stale read is always masked.
    ///
    /// File reads are counted in a local [`IoStats`] merged into the
    /// store's once, so a stream records exactly one read of exactly the
    /// slice's bytes per group read, however many claimants shared it. An
    /// I/O error ends the stream for every claimant at its next claim; the
    /// first one is what [`RoundClaims::finish`] returns.
    fn claim_groups(&self, claims: &RoundClaims<'_>, emit: &mut dyn FnMut(u32, CubeRound<'_>)) {
        let round = claims.round;
        let sealed = |group| claims.overlay.and_then(|overlay| overlay.get(group));
        let local_io = IoStats::new();
        let (mut words, mut dense) = (Vec::new(), Vec::new());
        'claims: loop {
            let claimed = claims.claim();
            if claimed.is_empty() {
                break;
            }
            for &group in claimed {
                // The group's nodes to emit, as `begin_round` recorded them.
                let slots = self.slots_of(group);
                dense.clear();
                dense.extend(slots.clone().filter(|&slot| claims.emits[slot]));
                let borrowed = |image: &[u64], emit: &mut dyn FnMut(u32, CubeRound<'_>)| {
                    for &slot in &dense {
                        let stack = self.params.stack_at(image, slot - slots.start);
                        emit(self.node_set.node(slot), stack.round(round));
                    }
                };
                let Some(pager) = &self.pager else {
                    let state = self.resident[group as usize].get().map(|entry| entry.lock());
                    match sealed(group) {
                        Some(pre) => borrowed(&pre, emit),
                        None => borrowed(state.as_ref().map_or(&[], |s| &s.image[..]), emit),
                    }
                    continue;
                };
                if let Some(pre) = sealed(group) {
                    borrowed(&pre, emit);
                    continue;
                }
                let span = self.params.round_span(slots.len(), round);
                let offset = self.group_offset(group) + span.start as u64;
                let read = self.params.decode(&mut words, span.len(), |bytes| {
                    read_at(&pager.file, offset, bytes, &local_io)
                });
                if let Err(e) = read {
                    claims.next.store(claims.wanted.len(), Ordering::Relaxed);
                    claims.first_error.lock().get_or_insert(e);
                    break 'claims;
                }
                if let Some(pre) = sealed(group) {
                    borrowed(&pre, emit);
                    continue;
                }
                for &slot in &dense {
                    let slice = self.params.round_at(&words, slot - slots.start, round);
                    emit(self.node_set.node(slot), slice);
                }
            }
        }
        if let Some(pager) = &self.pager {
            pager.io.merge_from(&local_io);
        }
    }

    /// The dense half of [`Self::stream_round`], as sealed by `overlay`
    /// (`None` = the live state, which the caller must have quiesced):
    /// every owned dense node whose component is still `live`, sparse
    /// vertices skipped — the claim loop run by the calling thread as its
    /// only claimant. An epoch read does not quiesce ingestion. Groups
    /// whose nodes are all retired or sparse are never read. Used by the
    /// sharded gather path, which ships sparse sets in their exact form
    /// (wire tag 1).
    pub fn stream_round_dense(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        sink: &mut dyn FnMut(u32, CubeRound<'_>),
    ) -> Result<(), GzError> {
        let claims = self.begin_round(round, live, overlay)?;
        self.claim_groups(&claims, sink);
        claims.finish()
    }

    /// Fold round `round` of every owned, still-`live` node into the pool's
    /// per-worker sinks — the storage-friendly query path (paper §4.2),
    /// live (`overlay = None`, ingestion quiesced by the caller) or pinned
    /// to a sealed epoch: the sparse vertices by slot range, XORing their
    /// edge indices straight into their supernode's accumulator
    /// (`sparse::SparseRoundBatch`), then the dense ones with every worker
    /// a claimant of the same claim loop, so up to `sinks.len()` positioned
    /// reads are in flight on a file at once. Which worker folds what
    /// cannot change results — folding is XOR.
    pub fn stream_round_parallel(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &WorkerPool,
        sinks: &[Mutex<RoundSink<'_>>],
    ) -> Result<(), GzError> {
        self.reps.fold_round(round, live, overlay, pool, sinks);
        let claims = self.begin_round(round, live, overlay)?;
        pool.run(&|w| {
            let mut sink = sinks[w].lock();
            self.claim_groups(&claims, &mut |node, slice| sink.fold(node, slice));
        });
        claims.finish()
    }

    /// Sketch bytes the streaming round path holds resident at once when
    /// read by `threads` query workers: one paged group's slice each, and
    /// none without a file, whose slices are borrowed.
    pub fn round_stream_resident_bytes(&self, round: usize, threads: usize) -> usize {
        match self.pager {
            None => 0,
            Some(_) => threads * self.params.round_span(self.group_size as usize, round).len(),
        }
    }

    /// Visit the exact set of every owned, still-`live` sparse vertex, as
    /// sealed by `overlay` (`None` = the live state): an overlay pre-image
    /// if the vertex was mutated or promoted after the seal, its live set
    /// otherwise. Sets are borrowed under their slot locks, not cloned;
    /// always-dense stores visit nothing.
    pub fn for_each_sparse(
        &self,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        f: &mut dyn FnMut(u32, &SparseSet),
    ) {
        self.reps.for_each_sparse(live, overlay, f)
    }

    /// Hand `visit` every owned slot's dense stack in slot order, a node
    /// group at a time, and call `done` after each group once its locks
    /// are released: the group's slots locked first, in slot order, then
    /// the group read without dirtying it; a sparse slot densified by
    /// replay, held only for its visit.
    fn visit_stacks(
        &self,
        visit: &mut dyn FnMut(Stack<'_>),
        done: &mut dyn FnMut() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        for group in 0..self.num_groups() {
            let slots = self.slots_of(group);
            {
                let sets = self.reps.lock_range(slots.clone());
                self.read_group(group, |image| {
                    for slot in slots.clone() {
                        let i = slot - slots.start;
                        match sets.get(i).and_then(|set| set.as_ref()) {
                            Some(set) => {
                                visit(set.densify(self.node_set.node(slot), &self.params).view())
                            }
                            None => visit(self.params.stack_at(image, i)),
                        }
                    }
                })?;
            }
            done()?;
        }
        Ok(())
    }

    /// Clone out every owned node sketch, indexed by slot (a full scan,
    /// counting a paged store's reads — the paper's "single scan" query
    /// prologue, Lemma 5); sparse slots densified by replay, so the
    /// snapshot is bit-identical to an always-dense store's. Boruvka's
    /// oracle consumes its input; ingestion continues with the originals.
    pub fn snapshot(&self) -> Vec<Option<CubeNodeSketch>> {
        let mut out = Vec::with_capacity(self.node_set.len());
        self.visit_stacks(&mut |stack| out.push(Some(stack.to_node_sketch())), &mut || Ok(()))
            .expect("sketch store snapshot read failed");
        out
    }

    /// Hand `f` every owned node's serialized sketch stack, `(node, bytes)`
    /// in slot order, one node group at a time: the group encoded under its
    /// locks — a sparse slot densified by replay — and `f` called for each
    /// node once the locks are gone. What checkpoints and
    /// [`Self::state_digest`] stream from: holds one group's encoding, never
    /// a copy of the store. Stops at `f`'s first error.
    pub fn for_each_serialized(
        &self,
        f: &mut dyn FnMut(u32, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let (node_bytes, bytes) = (self.params.image_bytes(1), std::cell::RefCell::new(Vec::new()));
        let mut next = 0;
        self.visit_stacks(&mut |stack| stack.append_words(&mut bytes.borrow_mut()), &mut || {
            let mut bytes = bytes.borrow_mut();
            for encoded in bytes.chunks_exact(node_bytes) {
                f(self.node_set.node(next), encoded)?;
                next += 1;
            }
            bytes.clear();
            Ok(())
        })
    }

    /// Replace every node sketch (checkpoint restore), in slot order.
    /// Restored vertices are dense whatever τ: sparse slots are retired
    /// first (checkpoints store dense state), their pre-images captured for
    /// any sealed epoch. Fails with a paged store's first group fault's I/O
    /// error.
    pub fn load_all(&self, sketches: Vec<CubeNodeSketch>) -> Result<(), GzError> {
        let install = |slot, stack: CubeNodeSketch| {
            self.with_stack(slot, |mut dst| dst.copy_from(stack.view()))
        };
        Ok(self.reps.load_all(sketches, install)?)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_sketch::{encode_other, update_index};
    use gz_sketch::SampleResult;
    use std::sync::atomic::AtomicBool;

    impl SketchStore {
        /// The file counters of a store built with one.
        fn io(&self) -> Arc<IoStats> {
            self.io_stats().expect("a store with a file")
        }

        /// The file of a store built with one.
        fn file(&self) -> &File {
            &self.pager.as_ref().expect("a store with a file").file
        }
    }

    /// A store of every node of `params` without a file.
    fn ram(params: &Arc<SketchParams>, locking: LockingStrategy) -> SketchStore {
        SketchStore::for_nodes(Arc::clone(params), locking, NodeSet::all(params.num_nodes))
    }

    fn tmp(name: &str) -> gz_testutil::TempPath {
        gz_testutil::TempPath::new(&format!("gz-disk-store-{name}"), ".bin")
    }

    /// Build a store on a unique temp file; keep the returned guard alive for
    /// the store's lifetime (dropping it deletes the backing file).
    fn make(
        name: &str,
        num_nodes: u64,
        block_bytes: usize,
        cache: usize,
    ) -> (SketchStore, gz_testutil::TempPath) {
        make_hybrid(name, num_nodes, block_bytes, cache, 0)
    }

    #[test]
    fn group_size_rule() {
        // Tiny block: one node per group.
        let (s, _t1) = make("g1", 16, 64, 4);
        assert_eq!(s.group_size(), 1);
        // Huge block: many nodes per group (capped at V).
        let (s2, _t2) = make("g2", 16, 1 << 22, 4);
        assert_eq!(s2.group_size(), 16);
    }

    #[test]
    fn a_live_fold_reads_each_wanted_group_once_a_round() {
        // `GzConfig::on_disk`'s store at V = 4096: 21 nodes a group. A live
        // fold's round is one positioned read per group holding a live
        // node, of exactly that group's round slice, and no other read.
        let config = crate::config::GzConfig::on_disk(4096, std::env::temp_dir());
        let crate::config::StoreBackend::Disk { block_bytes, cache_groups, .. } = config.store
        else {
            panic!("on_disk stores on disk")
        };
        let params = Arc::new(SketchParams::new(
            config.num_nodes,
            config.rounds(),
            config.num_columns,
            config.seed,
        ));
        let path = tmp("fold-reads");
        let all = NodeSet::all(4096);
        let s = SketchStore::with_file(
            Arc::clone(&params),
            all,
            path.to_path_buf(),
            block_bytes,
            cache_groups,
            0,
        )
        .unwrap();
        assert_eq!((s.group_size(), s.num_groups()), (21, 196));
        for node in (0..4096u32).step_by(97) {
            s.apply_batch(node, &[encode_other((node + 1) % 4096, false)]);
        }
        let live = |v: u32| v < 1000 || v.is_multiple_of(300);
        let wanted: Vec<u32> = (0..s.num_groups())
            .filter(|&g| (g * 21..g * 21 + s.nodes_in_group(g)).any(live))
            .collect();
        assert_eq!(wanted.len(), 48 + 10);
        for round in 0..params.rounds() {
            let (reads, _, bytes, _) = s.io().snapshot();
            let mut emitted = 0;
            s.stream_round_dense(round, &live, None, &mut |_, _| emitted += 1).unwrap();
            let (reads_after, _, bytes_after, _) = s.io().snapshot();
            assert_eq!(reads_after - reads, wanted.len() as u64, "round {round}");
            let slices: u32 = wanted.iter().map(|&g| s.nodes_in_group(g)).sum();
            let slice_bytes = slices as u64 * params.round_resident_bytes() as u64;
            assert_eq!(bytes_after - bytes, slice_bytes, "round {round}");
            assert_eq!(emitted, (0..4096).filter(|&v| live(v)).count(), "round {round}");
        }
    }

    #[test]
    fn fresh_store_is_all_zero_sketches() {
        let (s, _t) = make("zero", 8, 4096, 2);
        for snap in s.snapshot() {
            assert_eq!(snap.unwrap().sample_round(0), SampleResult::Zero);
        }
    }

    #[test]
    fn updates_survive_eviction() {
        // Cache of 1 group, several groups: every new group faults the old
        // one out, exercising write-back.
        let (s, _t) = make("evict", 16, 64, 1);
        assert_eq!(s.group_size(), 1, "want many groups");
        for node in 0..16u32 {
            let other = (node + 1) % 16;
            if other != node {
                s.apply_batch(node, &[encode_other(other, false)]);
            }
        }
        let io_before = s.io().total_ops();
        assert!(io_before > 16, "evictions must generate traffic");
        let snap = s.snapshot();
        for node in 0..16u32 {
            let other = (node + 1) % 16;
            let got = snap[node as usize].as_ref().unwrap().sample_round(0);
            assert_eq!(got, SampleResult::Index(update_index(node, other, 16)), "node {node}");
        }
    }

    #[test]
    fn toggle_cancels_across_evictions() {
        let (s, _t) = make("toggle", 8, 64, 1);
        s.apply_batch(0, &[encode_other(5, false)]);
        // Touch other groups to force eviction of group 0.
        for node in 1..8u32 {
            s.apply_batch(node, &[encode_other(0, false)]);
        }
        s.apply_batch(0, &[encode_other(5, true)]);
        // Edge (0,5) toggled twice -> gone; but (other,0) edges remain in 0's
        // vector? No: batches only update the *destination* node's sketch.
        let snap = s.snapshot();
        assert_eq!(snap[0].as_ref().unwrap().sample_round(0), SampleResult::Zero);
    }

    #[test]
    fn warm_cache_avoids_io() {
        let (s, _t) = make("warm", 8, 1 << 20, 8); // everything fits in one group + cache
        s.apply_batch(0, &[encode_other(1, false)]);
        let ops_after_first = s.io().total_ops();
        for _ in 0..50 {
            s.apply_batch(0, &[encode_other(2, false), encode_other(2, true)]);
        }
        assert_eq!(s.io().total_ops(), ops_after_first, "warm-cache batches must not touch disk");
    }

    #[test]
    fn strided_store_covers_owned_slots_only() {
        let params = Arc::new(SketchParams::new(20, 3, 7, 7));
        let per_node = params.node_sketch_resident_bytes();
        let path = tmp("strided");
        let shard = SketchStore::with_file(
            Arc::clone(&params),
            NodeSet::strided(20, 2, 4),
            path.to_path_buf(),
            256,
            2,
            0,
        )
        .unwrap();
        // Shard 2 of 4 over 20 nodes owns {2, 6, 10, 14, 18}.
        assert_eq!(shard.reps.sketch_bytes(), per_node * 5);
        shard.apply_batch(6, &[encode_other(1, false)]);
        let mut owned = Vec::new();
        shard
            .for_each_serialized(&mut |node, bytes| {
                owned.push((node, params.deserialize_node_sketch(bytes)));
                Ok(())
            })
            .unwrap();
        assert_eq!(owned.iter().map(|(n, _)| *n).collect::<Vec<u32>>(), vec![2, 6, 10, 14, 18]);
        let (_, sketch) = owned.into_iter().find(|(n, _)| *n == 6).unwrap();
        assert_eq!(sketch.sample_round(0), SampleResult::Index(update_index(6, 1, 20)));
    }

    #[test]
    fn round_slice_is_the_contiguous_column_of_the_group() {
        // Raw-file check of the round-major layout: the bytes in the region
        // a round stream asks for must be exactly the round-r resident words
        // of each node in the group, in slot order.
        let (s, _t) = make("layout", 12, 1 << 20, 4); // one group of 12
        assert_eq!(s.num_groups(), 1);
        for node in 0..12u32 {
            s.apply_batch(node, &[encode_other((node + 3) % 12, false)]);
        }
        s.flush().unwrap();
        let snap = s.snapshot();
        for round in 0..s.params().rounds() {
            let span = s.params().round_span(12, round);
            let mut slice = vec![0u8; span.len()];
            s.file().read_exact_at(&mut slice, span.start as u64).unwrap();
            let rb = s.params().round_resident_bytes();
            let mut expected = Vec::new();
            for sk in snap.iter() {
                sk.as_ref().unwrap().round(round).append_words(&mut expected);
            }
            assert_eq!(slice.len(), 12 * rb);
            assert_eq!(slice, expected, "round {round}");
        }
    }

    #[test]
    fn stream_round_matches_snapshot_and_counts_reads() {
        let (s, _t) = make("stream", 16, 64, 2); // one node per group, tiny cache
        assert_eq!(s.num_groups(), 16);
        for node in 0..16u32 {
            s.apply_batch(node, &[encode_other((node + 1) % 16, false)]);
        }
        let snap = s.snapshot();
        for round in 0..s.params().rounds() {
            let before = s.io().reads();
            let mut seen = Vec::new();
            s.stream_round_dense(round, &|_| true, None, &mut |node, sketch| {
                let reference = snap[node as usize].as_ref().unwrap().round(round);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sketch.append_words(&mut a);
                reference.append_words(&mut b);
                assert_eq!(a, b, "node {node} round {round}");
                seen.push(node);
            })
            .unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..16u32).collect::<Vec<_>>());
            // One slice read per group, at most (flush writes are separate).
            assert!(s.io().reads() - before <= 16, "round {round}");
        }
    }

    #[test]
    fn parallel_stream_matches_serial_and_counts_reads_exactly() {
        use crate::boruvka::{live_members, Folded, RoundSink, SparseMap};
        use gz_gutters::WorkerPool;
        use parking_lot::Mutex;

        // The reference is a RAM store fed the same batches: at one thread
        // the claim loop is also what the closure-sink stream runs, so a
        // disk-against-disk comparison would compare the code with itself.
        let (s, _t) = make("par", 16, 64, 2); // one node per group
        assert_eq!(s.num_groups(), 16);
        let reference = ram(s.params(), LockingStrategy::Direct);
        for node in 0..16u32 {
            let batch = [encode_other((node + 5) % 16, false)];
            s.apply_batch(node, &batch);
            reference.apply_batch(node, &batch);
        }
        s.flush().unwrap();
        let snap = reference.snapshot();
        // Supernodes are the pairs {2k, 2k + 1}, so every one accumulates.
        let root_of: Vec<u32> = (0..16).map(|node| node & !1).collect();
        let retired = vec![false; 16];
        let members = live_members(&root_of, &retired);
        // Node 7's group is fully retired: 15 groups are visited.
        let live = |node: u32| node != 7;

        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for round in 0..s.params().rounds() {
                let sinks: Vec<Mutex<RoundSink<'_>>> = (0..threads)
                    .map(|_| {
                        Mutex::new(RoundSink::new(
                            &root_of,
                            &retired,
                            &members,
                            SparseMap::Learning,
                        ))
                    })
                    .collect();
                let (reads_before, _, bytes_before, _) = s.io().snapshot();
                s.stream_round_parallel(round, &live, None, &pool, &sinks).unwrap();
                let (reads, _, bytes_read, _) = s.io().snapshot();

                // Exactly one read of exactly the slice's bytes per visited
                // group — the per-claimant local IoStats merge must neither
                // drop nor double-count, with one claimant or several.
                assert_eq!(reads - reads_before, 15, "{threads} threads, round {round}");
                assert_eq!(
                    bytes_read - bytes_before,
                    15 * s.params().round_resident_bytes() as u64,
                    "{threads} threads, round {round}"
                );

                // Each pair's accumulator, XORed across the sinks that
                // folded its members, must be bit-identical to the XOR of
                // the reference's round slices of its live members.
                let mut acc: Vec<Option<crate::node_sketch::CubeRoundSketch>> =
                    (0..16).map(|_| None).collect();
                for sink in sinks {
                    for (root, folded) in sink.into_inner().into_folded().into_iter().enumerate() {
                        match (folded, &mut acc[root]) {
                            (None, _) => {}
                            (Some(Folded::Acc(part)), Some(acc)) => acc.merge(&part),
                            (Some(Folded::Acc(part)), slot) => *slot = Some(part),
                            (Some(Folded::Sampled(_)), _) => panic!("pair {root} was sampled"),
                        }
                    }
                }
                for root in (0..16usize).step_by(2) {
                    let mut want_slice = snap[root].as_ref().unwrap().round(round).to_sketch();
                    if root + 1 != 7 {
                        want_slice.merge(snap[root + 1].as_ref().unwrap().round(round));
                    }
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    acc[root].as_ref().expect("every live pair folded").append_words(&mut got);
                    want_slice.append_words(&mut want);
                    assert_eq!(got, want, "{threads} threads, pair {root} round {round}");
                    assert!(acc[root + 1].is_none(), "{root} + 1 is no root");
                }
            }
        }
    }

    #[test]
    fn parallel_stream_skips_fully_retired_groups() {
        use crate::boruvka::{live_members, RoundSink, SparseMap};
        use gz_gutters::WorkerPool;
        use parking_lot::Mutex;

        let (s, _t) = make("par-skip", 16, 64, 2); // one node per group
        s.flush().unwrap();
        let pool = WorkerPool::new(3);
        let root_of: Vec<u32> = (0..16).collect();
        let retired = vec![false; 16];
        let members = live_members(&root_of, &retired);
        let sink = || RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        let sinks: Vec<Mutex<RoundSink<'_>>> = (0..3).map(|_| Mutex::new(sink())).collect();
        let before = s.io().reads();
        s.stream_round_parallel(0, &|n| n == 3 || n == 9, None, &pool, &sinks).unwrap();
        assert_eq!(s.io().reads() - before, 2, "only live groups may be read");
    }

    #[test]
    fn stream_round_skips_fully_retired_groups() {
        let (s, _t) = make("skip", 16, 64, 2); // one node per group
        s.flush().unwrap();
        let before = s.io().reads();
        let mut seen = Vec::new();
        // Only nodes 3 and 9 are live: exactly two group reads may happen.
        s.stream_round_dense(0, &|n| n == 3 || n == 9, None, &mut |node, _| seen.push(node))
            .unwrap();
        assert_eq!(seen, vec![3, 9]);
        assert_eq!(s.io().reads() - before, 2);
    }

    #[test]
    fn matches_ram_store_results() {
        let params = Arc::new(SketchParams::new(24, 3, 7, 123));
        let ram = ram(&params, LockingStrategy::Direct);
        let vs_ram = tmp("vs_ram");
        let all = NodeSet::all(24);
        let disk =
            SketchStore::with_file(Arc::clone(&params), all, vs_ram.to_path_buf(), 256, 2, 0)
                .unwrap();
        let updates: Vec<(u32, u32)> = (0..60).map(|i| (i % 24, (i * 7 + 1) % 24)).collect();
        for &(a, b) in &updates {
            if a == b {
                continue;
            }
            ram.apply_batch(a, &[encode_other(b, false)]);
            disk.apply_batch(a, &[encode_other(b, false)]);
        }
        let (sr, sd) = (ram.snapshot(), disk.snapshot());
        for (node, (r, d)) in sr.iter().zip(sd.iter()).enumerate() {
            let (r, d) = (r.as_ref().unwrap(), d.as_ref().unwrap());
            for round in 0..r.num_rounds() {
                assert_eq!(
                    r.sample_round(round),
                    d.sample_round(round),
                    "node {node} round {round}"
                );
            }
        }
    }

    fn make_hybrid(
        name: &str,
        num_nodes: u64,
        block_bytes: usize,
        cache: usize,
        threshold: u32,
    ) -> (SketchStore, gz_testutil::TempPath) {
        let params = Arc::new(SketchParams::new(num_nodes, 3, 7, 7));
        let path = tmp(name);
        let store = SketchStore::with_file(
            params,
            NodeSet::all(num_nodes),
            path.to_path_buf(),
            block_bytes,
            cache,
            threshold,
        )
        .unwrap();
        (store, path)
    }

    #[test]
    fn sparse_nodes_generate_no_io() {
        // Below τ every batch is a pure toggle-set mutation: no group ever
        // faults, the file is never touched.
        let (s, _t) = make_hybrid("sparse-noio", 16, 64, 1, 8);
        for node in 0..16u32 {
            s.apply_batch(node, &[encode_other((node + 1) % 16, false)]);
            s.apply_batch(node, &[encode_other((node + 2) % 16, false)]);
        }
        assert_eq!(s.io().total_ops(), 0, "sparse ingestion must be I/O-free");
        let stats = s.reps.rep_stats();
        assert_eq!(stats.sparse, 16);
        assert_eq!(stats.promoted, 0);
        assert_eq!(stats.sparse_entries, 32);
    }

    #[test]
    fn hybrid_snapshot_matches_dense_bitwise_with_promotion() {
        // Same toggle stream into a τ=3 hybrid store and a τ=0 dense store,
        // with a cache of 1 forcing evictions; node 0 crosses τ mid-stream
        // (insert/delete churn included), the rest stay sparse. Snapshots
        // must be bit-identical.
        let (hybrid, _t1) = make_hybrid("hyb-vs-dense", 12, 64, 1, 3);
        let (dense, _t2) = make("hyb-oracle", 12, 64, 1);
        let stream: Vec<(u32, u32, bool)> = vec![
            (0, 3, false),
            (0, 5, false),
            (1, 2, false),
            (0, 5, true),
            (0, 7, false),
            (0, 5, false),
            (0, 9, false), // node 0 now has 4 live neighbors > τ=3: promoted
            (0, 11, false),
            (2, 6, false),
            (0, 3, true),
        ];
        for &(a, b, del) in &stream {
            hybrid.apply_batch(a, &[encode_other(b, del)]);
            dense.apply_batch(a, &[encode_other(b, del)]);
        }
        let stats = hybrid.reps.rep_stats();
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.sparse, 11);
        let (sh, sd) = (hybrid.snapshot(), dense.snapshot());
        for (slot, (h, d)) in sh.iter().zip(sd.iter()).enumerate() {
            crate::node_sketch::assert_rounds_bitwise_equal(
                h.as_ref().unwrap(),
                d.as_ref().unwrap(),
                &format!("slot {slot}"),
            );
        }
    }

    #[test]
    fn stream_round_reads_only_promoted_groups() {
        // One node per group; only node 4 crosses τ. The dense round stream
        // must emit node 4 alone and read exactly its group.
        let (s, _t) = make_hybrid("stream-promoted", 16, 64, 2, 2);
        for other in [1u32, 2, 3] {
            s.apply_batch(4, &[encode_other(other, false)]);
        }
        s.apply_batch(7, &[encode_other(1, false)]); // stays sparse
        assert_eq!(s.reps.rep_stats().promoted, 1);
        let before = s.io().reads();
        let mut seen = Vec::new();
        s.stream_round_dense(0, &|_| true, None, &mut |node, _| seen.push(node)).unwrap();
        assert_eq!(seen, vec![4], "sparse slots must not be emitted by the dense stream");
        assert_eq!(s.io().reads() - before, 1, "all-sparse groups must not be read");
        // Sparse nodes are served from their sets; check the raw sets here.
        let mut sets = Vec::new();
        s.reps.for_each_sparse(&|_| true, None, &mut |n, set| sets.push((n, set.clone())));
        assert!(sets.iter().any(|(n, set)| *n == 7 && set.neighbors() == [1]));
        assert!(!sets.iter().any(|(n, _)| *n == 4), "promoted node must leave the table");
    }

    /// A file of `len` patterned bytes, opened read-write.
    fn data_file(name: &str, len: usize) -> (File, gz_testutil::TempPath, Vec<u8>) {
        let path = tmp(name);
        let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        std::fs::write(path.path(), &data).unwrap();
        let file = std::fs::OpenOptions::new().read(true).write(true).open(path.path()).unwrap();
        (file, path, data)
    }

    #[test]
    fn read_at_reads_exactly_its_span_and_counts_it() {
        let (file, _t, data) = data_file("read-at", 1 << 14);
        let io = IoStats::new();
        let mut buf = vec![0u8; 1000];
        read_at(&file, 513, &mut buf, &io).unwrap();
        assert_eq!(buf, &data[513..1513]);
        read_at(&file, 13, &mut buf[..997], &io).unwrap();
        assert_eq!(&buf[..997], &data[13..1010]);
        assert_eq!(io.snapshot(), (2, 0, 1997, 0), "one read per call, of exactly its bytes");
    }

    #[test]
    fn a_short_read_at_eof_is_unexpected_eof_and_counts_nothing() {
        let (file, _t, _) = data_file("read-at-eof", 4096);
        let io = IoStats::new();
        let mut buf = vec![0u8; 1024];
        let err = read_at(&file, 4096 - 100, &mut buf, &io).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(io.total_ops(), 0, "a failed read is not a read");
    }

    #[test]
    fn write_at_round_trips_and_counts_per_write() {
        let (file, _t, _) = data_file("write-at", 1 << 16);
        let io = IoStats::new();
        let regions: Vec<(u64, Vec<u8>)> =
            (0..9).map(|i| (i as u64 * 3000, vec![i as u8 + 1; 3000])).collect();
        for (offset, bytes) in &regions {
            write_at(&file, *offset, bytes, &io).unwrap();
        }
        assert_eq!(io.snapshot(), (0, 9, 0, 9 * 3000));
        for (offset, bytes) in &regions {
            let mut got = vec![0u8; bytes.len()];
            file.read_exact_at(&mut got, *offset).unwrap();
            assert_eq!(&got, bytes);
        }
    }

    #[test]
    fn flush_coalesces_adjacent_dirty_groups() {
        // One node per group, cache big enough that nothing evicts: after
        // touching nodes 0..8, eight adjacent groups are dirty and flush
        // must write them back as ONE contiguous write — strictly fewer
        // write ops than the eight per-group writes of the uncoalesced
        // path.
        let (s, _t) = make("coalesce", 16, 64, 16);
        assert_eq!(s.group_size(), 1);
        for node in 0..8u32 {
            s.apply_batch(node, &[encode_other(node + 8, false)]);
        }
        let node_bytes = s.params().node_sketch_resident_bytes() as u64;
        let (_, writes_before, _, bytes_before) = s.io().snapshot();
        s.flush().unwrap();
        let (_, writes, _, bytes_written) = s.io().snapshot();
        assert_eq!(writes - writes_before, 1, "8 adjacent dirty groups must coalesce to 1 write");
        assert!(writes - writes_before < 8, "coalescing must reduce the write count");
        assert_eq!(bytes_written - bytes_before, 8 * node_bytes, "payload is exact");

        // Non-adjacent dirty groups (0, 2, 4) cannot coalesce: three runs.
        for node in [0u32, 2, 4] {
            s.apply_batch(node, &[encode_other(node + 1, false)]);
        }
        let (_, writes_before, _, _) = s.io().snapshot();
        s.flush().unwrap();
        let (_, writes, _, _) = s.io().snapshot();
        assert_eq!(writes - writes_before, 3, "gaps break runs");

        // Nothing dirty: flush must be free.
        let (_, writes_before, _, _) = s.io().snapshot();
        s.flush().unwrap();
        assert_eq!(s.io().writes(), writes_before);
    }

    #[test]
    fn writeback_runs_stop_at_the_run_cap() {
        // Eight-node groups of ≈ 53 KiB of words, all 32 dirty and
        // adjacent: one run holds `WRITEBACK_RUN_BYTES / group_bytes` (19)
        // of them, so the flush is exactly `ceil(32 / groups_per_run)`
        // writes of exactly the dirty bytes — never one write of the whole
        // dirty cache.
        let params = Arc::new(SketchParams::new(256, 8, 7, 7));
        let block = 8 * params.node_sketch_resident_bytes();
        let path = tmp("run-cap");
        let all = NodeSet::all(256);
        let s = SketchStore::with_file(Arc::clone(&params), all, path.to_path_buf(), block, 32, 0)
            .unwrap();
        assert_eq!((s.group_size(), s.num_groups()), (8, 32));
        let reference = ram(&params, LockingStrategy::Direct);
        for node in 0..256u32 {
            let batch = [encode_other((node + 1) % 256, false), encode_other(node / 2, false)];
            s.apply_batch(node, &batch);
            reference.apply_batch(node, &batch);
        }
        let group_bytes = 8 * params.node_sketch_resident_bytes() as u64;
        assert_eq!(group_bytes, block as u64);
        let paper_group_bytes = 8 * params.node_sketch_bytes() as u64;
        assert_eq!(3 * group_bytes, 2 * paper_group_bytes, "a bucket is 8 bytes, not 12");
        let groups_per_run = (WRITEBACK_RUN_BYTES as u64 / group_bytes).max(1);
        assert!(groups_per_run < 32, "the dirty groups must outgrow one run");
        let (_, writes_before, _, bytes_before) = s.io().snapshot();
        s.flush().unwrap();
        let (_, writes, _, bytes_written) = s.io().snapshot();
        assert_eq!(writes - writes_before, 32u64.div_ceil(groups_per_run));
        assert_eq!(bytes_written - bytes_before, 32 * group_bytes, "payload is exact");

        // The runs landed where they belong: every round streams back from
        // the file as the reference holds it.
        let snap = reference.snapshot();
        for round in 0..params.rounds() {
            s.stream_round_dense(round, &|_| true, None, &mut |node, slice| {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                slice.append_words(&mut got);
                snap[node as usize].as_ref().unwrap().round(round).append_words(&mut want);
                assert_eq!(got, want, "node {node} round {round}");
            })
            .unwrap();
        }
    }

    #[test]
    fn epoch_seal_writeback_coalesces_too() {
        let (s, _t) = make("epoch-coalesce", 12, 64, 16);
        assert_eq!(s.group_size(), 1);
        for node in 4..9u32 {
            s.apply_batch(node, &[encode_other(1, false)]);
        }
        let (_, writes_before, _, _) = s.io().snapshot();
        let _epoch = s.begin_epoch().unwrap();
        let (_, writes, _, _) = s.io().snapshot();
        assert_eq!(writes - writes_before, 1, "seal write-back of groups 4..9 is one run");
    }

    #[test]
    fn a_wide_family_survives_eviction_and_refault() {
        // Past 2^32 a bucket keeps its α-high word too: 12 bytes, on file as
        // well. At V = 100 000 a round's 99 buckets (33 rows × 3) end the
        // plane in a padding half-word, so images are encoded slice by slice;
        // at V = 150 000 (102 buckets) the words are their encoding. Two
        // nodes a group, one group cached (batches evict and refault) or all
        // (the seal writes one run): each store must hold what a RAM store
        // holds, snapshot, digest and round stream alike.
        for (v, padded) in [(100_000u64, true), (150_000, false)] {
            let params = Arc::new(SketchParams::new(v, 3, 3, 7));
            let family = &params.families[0];
            assert_eq!(family.encodes_in_place(), !padded, "V = {v}");
            assert_eq!(params.node_sketch_resident_bytes(), params.node_sketch_bytes(), "wide");
            let owned = NodeSet::strided(v, 3, 20_000);
            let block = 2 * params.node_sketch_resident_bytes();
            let paths = [1, 8].map(|cache| (tmp(&format!("wide-{v}-{cache}")), cache));
            let [evicting, cached] = paths.each_ref().map(|(path, cache)| {
                let path = path.to_path_buf();
                SketchStore::with_file(Arc::clone(&params), owned, path, block, *cache, 0).unwrap()
            });
            let groups = owned.len().div_ceil(2) as u32;
            assert_eq!((evicting.group_size(), evicting.num_groups()), (2, groups), "V = {v}");
            let ram = SketchStore::for_nodes(Arc::clone(&params), LockingStrategy::Direct, owned);
            for i in 0..40u32 {
                let node = owned.node(i as usize % owned.len());
                // Neighbours above 70 000 give the nodes above it edge
                // indices past 2^32.
                let batch: Vec<u32> = (0..6u32)
                    .map(|j| 70_000 + (i * 7_919 + j * 10_477) % 30_000)
                    .chain([(i * 2_003) % 70_000])
                    .filter(|&other| other != node)
                    .map(|other| encode_other(other, false))
                    .collect();
                for store in [&evicting, &cached, &ram] {
                    store.apply_batch(node, &batch);
                }
            }
            assert!(evicting.io().reads() > groups as u64, "V = {v}: groups were refaulted");
            let (_, writes_before, _, bytes_before) = cached.io().snapshot();
            let _epoch = cached.begin_epoch().unwrap();
            let (_, writes, _, bytes_written) = cached.io().snapshot();
            assert_eq!(writes - writes_before, 1, "V = {v}: the seal writes one run");
            let stacks = (owned.len() * params.node_sketch_resident_bytes()) as u64;
            assert_eq!(bytes_written - bytes_before, stacks, "V = {v}: every stack once");

            let reference = ram.snapshot();
            let want = serialized(&params, reference.clone());
            let buckets = family.geometry().num_buckets();
            let high_word =
                |stack: &Vec<u8>| stack[..buckets * 8].chunks(8).any(|a| a[4..] != [0; 4]);
            assert!(want.iter().any(high_word), "V = {v}: some α uses its high word");
            for disk in [&evicting, &cached] {
                assert_eq!(serialized(&params, disk.snapshot()), want, "V = {v}: snapshot");
                assert_eq!(disk.state_digest().unwrap(), ram.state_digest().unwrap(), "V = {v}");
                for round in 0..params.rounds() {
                    let mut seen = 0;
                    disk.stream_round_dense(round, &|_| true, None, &mut |node, slice| {
                        let want = reference[owned.slot(node)].as_ref().unwrap().round(round);
                        assert_eq!(slice.words(), want.words(), "V = {v}: {node}, round {round}");
                        seen += 1;
                    })
                    .unwrap();
                    assert_eq!(seen, owned.len(), "V = {v}: round {round}");
                }
            }
        }
    }

    /// `store`'s full state, one serialized node sketch per slot.
    fn serialized(params: &SketchParams, sketches: Vec<Option<CubeNodeSketch>>) -> Vec<Vec<u8>> {
        sketches
            .iter()
            .map(|sketch| {
                let mut bytes = Vec::new();
                params.serialize_node_sketch(sketch.as_ref().unwrap(), &mut bytes);
                bytes
            })
            .collect()
    }

    const STRESS_THREADS: u32 = 4;
    const STRESS_NODES: u32 = 32;
    const STRESS_BATCHES: u32 = 120;

    /// The stress stream: thread `t`'s `i`-th batch. Nodes stride through
    /// the slots so the four threads keep colliding on the same groups.
    /// Until the seal (the first half), a node of the upper half gets one
    /// record a batch toward one of three neighbors, so at τ = 4 it is still
    /// sparse when the seal lands and promotes after it; the lower half's
    /// five-record batches promote it before.
    fn stress_batch(t: u32, i: u32) -> (u32, Vec<u32>) {
        let n = STRESS_NODES;
        let node = (i * 7 + t * 3) % n;
        if i < STRESS_BATCHES / 2 && node >= n / 2 {
            return (node, vec![encode_other((node + 1 + i % 3) % n, false)]);
        }
        let records = (0..5)
            .map(|j| encode_other((node + 1 + (t * 31 + i * 11 + j * 5) % (n - 1)) % n, false))
            .collect();
        (node, records)
    }

    /// One lane of the stress test: `STRESS_THREADS` workers apply
    /// interleaved batches to `store` (over overlapping groups, on disk), an
    /// epoch is sealed midway (at a barrier — sealing needs quiesced
    /// ingestion) and read by a fifth thread while the second half lands —
    /// sparse-at-seal vertices through their sets, the rest through the
    /// dense round stream — and the final state must be a serial
    /// always-dense file-less store's, bit for bit. At τ = 4 vertices promote
    /// both before and after the seal.
    fn stress_lane(store: SketchStore, tau: u32, lane: &str) {
        let params = Arc::clone(store.params());

        // The serial reference, and its state at the seal.
        let reference = ram(&params, LockingStrategy::Direct);
        let apply_half = |half: u32| {
            for t in 0..STRESS_THREADS {
                for i in half * STRESS_BATCHES / 2..(half + 1) * STRESS_BATCHES / 2 {
                    let (node, records) = stress_batch(t, i);
                    reference.apply_batch(node, &records);
                }
            }
        };
        apply_half(0);
        let sealed = reference.snapshot();
        apply_half(1);

        // Every node's slice of every round, as the epoch reads it, must be
        // the serial reference's at the seal.
        let assert_reads_sealed_bytes = |overlay: &EpochOverlay, when: &str| {
            for round in 0..params.rounds() {
                let mut seen = 0;
                let mut check = |node: u32, slice: CubeRound<'_>| {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    slice.append_words(&mut got);
                    sealed[node as usize].as_ref().unwrap().round(round).append_words(&mut want);
                    assert_eq!(got, want, "{lane}: node {node} round {round} {when}");
                    seen += 1;
                };
                store.for_each_sparse(&|_| true, Some(overlay), &mut |node, set| {
                    check(node, set.synthesize_round(node, &params, round).view())
                });
                store
                    .stream_round_dense(round, &|_| true, Some(overlay), &mut |node, slice| {
                        check(node, slice)
                    })
                    .unwrap();
                assert_eq!(seen, STRESS_NODES, "{lane}: round {round} {when}");
            }
        };

        let barrier = std::sync::Barrier::new(STRESS_THREADS as usize + 1);
        let ingesting = AtomicBool::new(true);
        let overlay_cell = std::sync::OnceLock::new();
        let promoted_at_seal = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..STRESS_THREADS)
                .map(|t| {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        barrier.wait(); // start together
                        for i in 0..STRESS_BATCHES {
                            if i == STRESS_BATCHES / 2 {
                                barrier.wait(); // first half applied everywhere
                                barrier.wait(); // epoch sealed
                            }
                            let (node, records) = stress_batch(t, i);
                            store.apply_batch(node, &records);
                        }
                    })
                })
                .collect();

            barrier.wait();
            barrier.wait();
            // Every group fault so far was one read: no group was read
            // twice by two workers that wanted it at once, none skipped.
            if store.pager.is_some() {
                let faults = store.probe.faults.load(Ordering::Relaxed);
                assert_eq!(store.io().reads(), faults, "{lane}");
            }
            let (_, overlay) = store.begin_epoch().unwrap();
            let overlay = overlay_cell.get_or_init(|| overlay);
            let promoted_at_seal = store.rep_stats().promoted;
            barrier.wait();

            let reader = scope.spawn(|| {
                while ingesting.load(Ordering::Relaxed) {
                    assert_reads_sealed_bytes(overlay, "under ingestion");
                }
            });
            for worker in workers {
                worker.join().expect("stress worker");
            }
            ingesting.store(false, Ordering::Relaxed);
            reader.join().expect("epoch reader");
            assert_reads_sealed_bytes(overlay, "after ingestion");
            promoted_at_seal
        });

        let promoted = store.rep_stats().promoted;
        if tau == 0 {
            assert_eq!((promoted_at_seal, promoted), (32, 32), "{lane}");
        } else {
            assert_eq!(promoted_at_seal, 16, "{lane}: the lower half promoted before the seal");
            assert_eq!(promoted, 32, "{lane}: the upper half promoted after it");
        }
        assert_eq!(
            serialized(&params, store.snapshot()),
            serialized(&params, reference.snapshot()),
            "{lane}: final state"
        );
        if let Some(pager) = &store.pager {
            let peak = store.probe.resident_peak.load(Ordering::Relaxed);
            eprintln!(
                "{lane}: {} faults, {} refault waits, peak {peak} groups resident",
                store.probe.faults.load(Ordering::Relaxed),
                store.probe.refault_waits.load(Ordering::Relaxed),
            );
            // The snapshot above ran on this thread: one more faulting worker.
            let bound = pager.cache_capacity + STRESS_THREADS as usize + 1;
            assert!(peak <= bound, "{lane}: {peak} groups resident");
            store.flush().unwrap();
        }
    }

    #[test]
    fn concurrent_batches_match_serial_ram_store_bitwise() {
        let params = Arc::new(SketchParams::new(STRESS_NODES as u64, 3, 7, 7));
        let all = NodeSet::all(STRESS_NODES as u64);
        for tau in [0, 4] {
            for cache in [1, 2, 8] {
                for group_size in [1, 4] {
                    let block = group_size * params.node_sketch_resident_bytes();
                    let path = tmp("stress");
                    let disk = SketchStore::with_file(
                        Arc::clone(&params),
                        all,
                        path.to_path_buf(),
                        block,
                        cache,
                        tau,
                    )
                    .unwrap();
                    assert_eq!(disk.group_size() as usize, group_size);
                    stress_lane(
                        disk,
                        tau,
                        &format!("disk, cache {cache} group {group_size}, τ {tau}"),
                    );
                }
            }
            let ram = SketchStore::for_nodes_with_threshold(
                Arc::clone(&params),
                LockingStrategy::DeltaSketch,
                all,
                tau,
            );
            stress_lane(ram, tau, &format!("ram, τ {tau}"));
        }
    }

    #[test]
    fn refault_waits_for_the_write_back_in_flight() {
        // The evict-then-refault race, forced: worker A evicts dirty group 0
        // and is held between taking it out of the cache and writing it;
        // worker B then asks for group 0. B must wait for A's write to land
        // and read what A wrote — faulting in the stale file image would
        // lose A's earlier update.
        let (s, _t) = make("refault", 8, 64, 1);
        assert_eq!(s.group_size(), 1);
        s.apply_batch(0, &[encode_other(5, false)]); // group 0 cached, dirty

        let (evicting, b_may_start) = std::sync::mpsc::channel();
        let evicting = Mutex::new(evicting);
        std::thread::scope(|scope| {
            *s.probe.before_writeback.lock() = Some(Box::new(move |store, victim| {
                if victim == 0 {
                    evicting.lock().send(()).unwrap();
                    // Hold the write until B is parked behind it.
                    while store.probe.refault_waits.load(Ordering::Relaxed) == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
            scope.spawn(|| s.apply_batch(1, &[encode_other(6, false)])); // A: evicts group 0
            b_may_start.recv().unwrap();
            s.apply_batch(0, &[encode_other(7, false)]); // B: refaults group 0
        });
        *s.probe.before_writeback.lock() = None;

        assert_eq!(s.probe.refault_waits.load(Ordering::Relaxed), 1);
        // Group 0, group 1, group 0 again — the refault really did go to
        // the file, after the one write that had to precede it.
        assert_eq!(s.io().reads(), 3);
        assert!(s.io().writes() >= 1);
        let oracle = {
            let (o, _t) = make("refault-oracle", 8, 1 << 20, 8);
            o.apply_batch(0, &[encode_other(5, false), encode_other(7, false)]);
            o.apply_batch(1, &[encode_other(6, false)]);
            serialized(o.params(), o.snapshot())
        };
        assert_eq!(serialized(s.params(), s.snapshot()), oracle, "no update lost");
    }

    #[test]
    fn a_failed_fault_is_remembered_not_fatal() {
        // Truncate the file behind the store: the next group fault reads
        // past EOF. The batch is lost, the worker survives, and the store
        // says so from then on.
        let (s, _t) = make("failed-fault", 8, 64, 2);
        s.apply_batch(0, &[encode_other(1, false)]);
        s.flush().unwrap();
        s.file().set_len(0).unwrap();
        s.apply_batch(7, &[encode_other(2, false)]);
        let err = s.flush().expect_err("the lost batch must surface");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("disk sketch store failed"), "{err}");
        // Fail-stop: later batches are refused without touching the file,
        // and every flush and seal keeps reporting the first error.
        let ops = s.io().total_ops();
        s.apply_batch(0, &[encode_other(3, false)]);
        assert_eq!(s.io().total_ops(), ops);
        assert!(matches!(s.begin_epoch(), Err(GzError::Io(e)) if e.kind() == err.kind()));
        assert!(s.flush().is_err());
    }

    #[test]
    fn load_all_retires_sparse_slots() {
        let (s, _t) = make_hybrid("load-retire", 8, 1 << 20, 4, 4);
        s.apply_batch(0, &[encode_other(3, false)]);
        let replacement = s.snapshot().into_iter().map(Option::unwrap).collect::<Vec<_>>();
        s.load_all(replacement).unwrap();
        let stats = s.reps.rep_stats();
        assert_eq!(stats.sparse, 0, "restore must leave every slot dense");
        assert_eq!(
            s.snapshot()[0].as_ref().unwrap().sample_round(0),
            SampleResult::Index(update_index(0, 3, 8))
        );
    }
}
