//! File-backed sketch store: the paper's "sketches on SSD" deployment.
//!
//! Node sketches are serialized at fixed offsets in a pre-allocated file,
//! grouped into *node groups* of `max(1, B/sketch_size)` nodes stored
//! contiguously (paper §4.1) so one block access moves a whole group. A
//! bounded LRU cache of deserialized groups stands in for the paper's RAM
//! budget `M`; evictions write dirty groups back. Every file access is
//! recorded in [`IoStats`], which is how the experiment suite measures the
//! hybrid-model I/O claims instead of relying on cgroup-forced swap.
//!
//! Graph Workers apply batches in parallel (DESIGN.md §13, "Concurrency
//! model"). The batch kernel runs into a pooled scratch sketch with no lock
//! held; the one global lock (`CacheState`'s) covers bookkeeping only —
//! map lookup, LRU touch, victim choice; and everything that costs time —
//! the faulted group's read and decode, a victim's encode and write, the
//! XOR-merge of a delta — happens under the lock of the one group it
//! concerns. Lock order: sparse table → cache map → group entry.
//!
//! Within a group the layout is *round-major*: all nodes' round-0 slices,
//! then all round-1 slices, and so on. Ingestion always faults whole groups
//! through the cache, so it is indifferent to the internal order — but the
//! streaming query path (paper §4.2, Figure 9) needs only round `r`'s
//! column data in Borůvka round `r`, and the round-major order makes that
//! slice one contiguous read of `nodes_in_group × round_bytes` instead of
//! `nodes_in_group` strided seeks. Every query reads those slices through
//! one claim loop (`DiskStore::claim_groups`), run by however many query
//! workers there are — one included.
//!
//! Every file access is one positioned syscall on the shared handle
//! (`read_at`, `write_at`): a group fault, one round slice, or one
//! coalesced run of write-back. There is no seek cursor, so any number of
//! workers can have accesses to different regions in flight at once.

use crate::boruvka::RoundSink;
use crate::node_sketch::{CubeNodeSketch, CubeRoundSketch, SketchParams};
use crate::sparse::{SparseRoundBatch, SparseSet};
use crate::store::epoch::{EpochOverlay, EpochRegistry};
use crate::store::{NodeSet, RepStats, ScratchPool};
use gz_gutters::{CounterSet, IoStats};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Empty: the disk store has one I/O path and nothing to tune. A benchmark
/// pin — the repository benchmark's store probe still names this type and
/// passes it to [`DiskStore::for_nodes_with_options`].
#[derive(Debug, Default)]
pub struct IoBackendConfig {}

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

/// One cached node group. Whoever holds the lock owns the group's decoded
/// sketches: the worker faulting it in, a worker merging a delta, the
/// worker evicting it, or a flush writing it back.
type GroupEntry = Mutex<GroupState>;

struct GroupState {
    /// The group's decoded sketches once `loaded`; before that, whatever
    /// the evicted group that donated the allocation left behind.
    sketches: Vec<CubeNodeSketch>,
    /// False from insertion into the map until the first holder of the
    /// lock has read and decoded the group — so two workers wanting the
    /// same absent group cause one read: the second finds it loaded.
    loaded: bool,
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

std::thread_local! {
    /// Per-thread byte buffer one group's file image passes through on its
    /// way to or from the file, reused across faults and write-backs.
    static GROUP_IO_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One round stream in progress (see `DiskStore::claim_groups`): what to
/// read, and the cursor and error slot its claimants share.
struct RoundClaims<'a> {
    round: usize,
    live: &'a (dyn Fn(u32) -> bool + Sync),
    /// The sealed epoch being read; `None` = the live state.
    overlay: Option<&'a EpochOverlay>,
    /// Slots that are sparse at the streamed instant.
    skip: HashSet<usize>,
    /// The groups to visit, in slot order.
    wanted: Vec<u32>,
    /// Index into `wanted` of the next unclaimed group.
    next: AtomicUsize,
    first_error: Mutex<Option<std::io::Error>>,
}

impl RoundClaims<'_> {
    /// The stream's outcome, once every claimant has returned.
    fn finish(self) -> std::io::Result<()> {
        self.first_error.into_inner().map_or(Ok(()), Err)
    }
}

/// Test-only view into the cache protocol.
#[cfg(test)]
#[derive(Default)]
struct CacheProbe {
    /// Most decoded groups ever held at once (cached + being written back).
    resident_peak: std::sync::atomic::AtomicUsize,
    /// Misses (entries inserted into the map); each must cost one read.
    faults: std::sync::atomic::AtomicU64,
    /// Times a worker found the group it wanted mid-write-back.
    refault_waits: std::sync::atomic::AtomicU64,
    /// Called with the victim's group id before each eviction write.
    before_writeback: Mutex<Option<WritebackHook>>,
}

#[cfg(test)]
type WritebackHook = Box<dyn Fn(&DiskStore, u32) + Send + Sync>;

/// Sketches in a file, node-group layout, bounded LRU cache.
///
/// Like [`super::ram::RamStore`], the store may hold the whole vertex set or
/// only a shard's residue class; the file is laid out over dense *slots* of
/// the [`NodeSet`], so a shard's file is sized to its owned nodes.
pub struct DiskStore {
    params: Arc<SketchParams>,
    node_set: NodeSet,
    file: File,
    path: PathBuf,
    /// Nodes per group.
    group_size: u32,
    /// Serialized bytes per node sketch.
    node_bytes: usize,
    /// Maximum groups held in RAM.
    cache_capacity: usize,
    cache: Mutex<CacheState>,
    /// Signalled (with the cache lock) whenever a group leaves
    /// `CacheState::writing_back`.
    writeback_landed: Condvar,
    /// Delta sketches batches are built in before they touch a group.
    scratch: ScratchPool,
    /// The first I/O failure of a group fault or write-back. A batch hit by
    /// one is lost, so the store is unusable from then on: every later
    /// access, [`Self::flush`] and [`Self::begin_epoch`] return this error
    /// (rebuilt from its kind and message) instead of touching the file.
    first_error: Mutex<Option<(std::io::ErrorKind, String)>>,
    io: Arc<IoStats>,
    /// Live sealed epochs. The copy-on-write "group" is the node group:
    /// captures happen under the group's lock, on the clean→dirty
    /// transition of a cached group (a clean group's value equals the
    /// file's, which is the sealed value for every epoch still lacking the
    /// group).
    epochs: EpochRegistry,
    /// Promotion threshold τ: a node's exact toggle-set is replayed into a
    /// dense sketch once it exceeds τ live neighbors. 0 = always dense.
    threshold: u32,
    /// Per-slot sparse representation; `None` means the slot is dense
    /// (promoted, or τ = 0). Sparse slots' file bytes stay all-zero and are
    /// never authoritative — readers must skip them. Lock order: this table
    /// before the cache lock (promotion holds both).
    sparse: Mutex<Vec<Option<SparseSet>>>,
    #[cfg(test)]
    probe: CacheProbe,
}

impl DiskStore {
    /// Create the store, pre-allocating the backing file with all-zero
    /// sketches (a fresh CubeSketch serializes to all zero bytes, so a
    /// zero-filled file *is* the empty store).
    pub fn new(
        params: Arc<SketchParams>,
        path: PathBuf,
        block_bytes: usize,
        cache_groups: usize,
    ) -> std::io::Result<Self> {
        let node_set = NodeSet::all(params.num_nodes);
        Self::for_nodes(params, node_set, path, block_bytes, cache_groups)
    }

    /// Create a store over the nodes of `node_set` only (a shard's residue
    /// class); the backing file holds one slot per owned node.
    pub fn for_nodes(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        path: PathBuf,
        block_bytes: usize,
        cache_groups: usize,
    ) -> std::io::Result<Self> {
        Self::for_nodes_with_threshold(params, node_set, path, block_bytes, cache_groups, 0)
    }

    /// [`Self::for_nodes`] with a promotion threshold τ: every slot starts
    /// as a compact exact toggle-set and is replayed into a dense sketch in
    /// the file once it exceeds τ live neighbors. τ = 0 keeps the store
    /// always-dense (bit-identical behavior and I/O counts to before the
    /// hybrid representation existed).
    pub fn for_nodes_with_threshold(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        path: PathBuf,
        block_bytes: usize,
        cache_groups: usize,
        threshold: u32,
    ) -> std::io::Result<Self> {
        let node_bytes = params.node_sketch_serialized_bytes();
        let num_slots = node_set.len() as u64;
        let group_size =
            ((block_bytes / node_bytes.max(1)).max(1) as u64).min(num_slots.max(1)).max(1) as u32;
        let num_groups = (num_slots as u32).div_ceil(group_size);

        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(num_groups as u64 * group_size as u64 * node_bytes as u64)?;

        let sparse = if threshold == 0 {
            vec![None; num_slots as usize]
        } else {
            (0..num_slots).map(|_| Some(SparseSet::new())).collect()
        };
        Ok(DiskStore {
            scratch: ScratchPool::new(Arc::clone(&params)),
            params,
            node_set,
            file,
            path,
            group_size,
            node_bytes,
            cache_capacity: cache_groups.max(1),
            cache: Mutex::new(CacheState {
                groups: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
                writing_back: HashSet::new(),
            }),
            writeback_landed: Condvar::new(),
            first_error: Mutex::new(None),
            io: Arc::new(IoStats::new()),
            epochs: EpochRegistry::new(),
            threshold,
            sparse: Mutex::new(sparse),
            #[cfg(test)]
            probe: CacheProbe::default(),
        })
    }

    /// [`Self::for_nodes_with_threshold`]; `_io` is ignored. A benchmark
    /// pin — the repository benchmark's store probe calls this signature.
    pub fn for_nodes_with_options(
        params: Arc<SketchParams>,
        node_set: NodeSet,
        path: PathBuf,
        block_bytes: usize,
        cache_groups: usize,
        threshold: u32,
        _io: IoBackendConfig,
    ) -> std::io::Result<Self> {
        Self::for_nodes_with_threshold(params, node_set, path, block_bytes, cache_groups, threshold)
    }

    /// Seal the current generation: write back every dirty cached group
    /// (so the file is authoritative for the sealed values), then register
    /// the epoch — atomically, with the cache lock and every cached group's
    /// lock held across both, so no batch can dirty a group between the
    /// write-back and the registration. The caller must have quiesced
    /// ingestion first. Fails with the store's first batch-application
    /// error, if there was one.
    pub fn begin_epoch(&self) -> std::io::Result<(u64, Arc<EpochOverlay>)> {
        self.writeback_dirty(|| self.epochs.register())
    }

    /// Pre-images cloned for epochs so far
    /// (see [`crate::store::SketchStore::epoch_captures`]).
    pub fn epoch_captures(&self) -> u64 {
        self.epochs.captures()
    }

    /// Write every dirty cached group back to the file, coalescing runs of
    /// *adjacent* dirty group ids into single contiguous writes (their file
    /// regions abut, so one larger write is equivalent); then run `sealed`
    /// while still holding the cache lock and the lock of every cached
    /// group, i.e. with all merges shut out. Shared by [`Self::flush`] and
    /// [`Self::begin_epoch`].
    fn writeback_dirty<R>(&self, sealed: impl FnOnce() -> R) -> std::io::Result<R> {
        self.check_failed()?;
        let mut cache = self.cache.lock();
        // Evictions in flight hold groups this scan cannot see; the file is
        // not authoritative until their writes have landed.
        while !cache.writing_back.is_empty() {
            self.writeback_landed.wait(&mut cache);
        }
        let mut held: Vec<(u32, MutexGuard<'_, GroupState>)> =
            cache.groups.iter().map(|(&group, slot)| (group, slot.entry.lock())).collect();
        held.sort_unstable_by_key(|(group, _)| *group);
        let mut regions: Vec<(u64, Vec<u8>)> = Vec::new();
        for (group, state) in held.iter().filter(|(_, state)| state.dirty) {
            let offset = self.group_offset(*group);
            match regions.last_mut() {
                // Adjacent in the file iff the previous run ends exactly at
                // this group's offset (every non-final group encodes to the
                // full `group_size × node_bytes` region).
                Some((start, run)) if *start + run.len() as u64 == offset => {
                    self.encode_group_into(&state.sketches, run);
                }
                _ => {
                    let mut run = Vec::with_capacity(state.sketches.len() * self.node_bytes);
                    self.encode_group_into(&state.sketches, &mut run);
                    regions.push((offset, run));
                }
            }
        }
        let written = regions
            .iter()
            .try_for_each(|(offset, run)| write_at(&self.file, *offset, run, &self.io));
        self.record_failure(written)?;
        for (_, state) in &mut held {
            state.dirty = false;
        }
        Ok(sealed())
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

    /// I/O counters.
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.io)
    }

    /// Nodes per group (`max(1, B/sketch)`; paper §4.1).
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// The vertex set this store holds sketches for.
    pub fn node_set(&self) -> NodeSet {
        self.node_set
    }

    /// Number of node groups in the backing file.
    pub fn num_groups(&self) -> u32 {
        (self.node_set.len() as u32).div_ceil(self.group_size)
    }

    fn group_of_slot(&self, slot: usize) -> u32 {
        slot as u32 / self.group_size
    }

    fn group_offset(&self, group: u32) -> u64 {
        group as u64 * self.group_size as u64 * self.node_bytes as u64
    }

    fn nodes_in_group(&self, group: u32) -> u32 {
        let start = group * self.group_size;
        (self.node_set.len() as u32 - start).min(self.group_size)
    }

    /// Append a group block to `out`: round-major over the group's `k`
    /// nodes (see the module docs — this is what makes a round slice
    /// contiguous).
    fn encode_group_into(&self, sketches: &[CubeNodeSketch], out: &mut Vec<u8>) {
        for r in 0..self.params.rounds() {
            for s in sketches {
                self.params.serialize_round(s, r, out);
            }
        }
    }

    /// Decode a round-major group block of `k` nodes over `sketches`,
    /// reusing whatever node sketches the vector already holds.
    fn decode_group_into(&self, bytes: &[u8], k: usize, sketches: &mut Vec<CubeNodeSketch>) {
        sketches.resize_with(k, || self.params.new_node_sketch());
        let mut base = 0;
        for r in 0..self.params.rounds() {
            let rb = self.params.round_serialized_bytes(r);
            for sketch in sketches.iter_mut() {
                sketch.rounds_mut()[r].overwrite_from(&bytes[base..base + rb]);
                base += rb;
            }
        }
    }

    /// Read `group` from the file and decode it over `sketches`.
    fn load_group(&self, group: u32, sketches: &mut Vec<CubeNodeSketch>) -> std::io::Result<()> {
        let k = self.nodes_in_group(group) as usize;
        GROUP_IO_BUF.with(|buf| {
            let mut bytes = buf.borrow_mut();
            bytes.resize(k * self.node_bytes, 0);
            read_at(&self.file, self.group_offset(group), &mut bytes, &self.io)?;
            self.decode_group_into(&bytes, k, sketches);
            Ok(())
        })
    }

    fn write_group(&self, group: u32, sketches: &[CubeNodeSketch]) -> std::io::Result<()> {
        GROUP_IO_BUF.with(|buf| {
            let mut bytes = buf.borrow_mut();
            bytes.clear();
            self.encode_group_into(sketches, &mut bytes);
            write_at(&self.file, self.group_offset(group), &bytes, &self.io)
        })
    }

    /// The file region `(offset, len)` holding `group`'s round-`round`
    /// slice: one contiguous span of the group's `k × round_bytes` column
    /// data (round-major layout).
    fn round_slice(&self, group: u32, round: usize) -> (u64, usize) {
        let k = self.nodes_in_group(group) as usize;
        let offset =
            self.group_offset(group) + (k * self.params.round_serialized_offset(round)) as u64;
        (offset, k * self.params.round_serialized_bytes(round))
    }

    /// Hand `claims`' consumer the round slice of each of `group`'s live
    /// nodes: borrowed from `sealed`, an epoch's captured pre-image of the
    /// group, when there is one, and otherwise deserialized from `bytes`,
    /// the group's round slice as read from the file. Slots in
    /// `claims.skip` are never emitted: their file bytes and pre-image
    /// entries are all-zero padding, not their state, which the sparse
    /// pass serves instead.
    fn emit_group(
        &self,
        claims: &RoundClaims<'_>,
        group: u32,
        sealed: Option<&[CubeNodeSketch]>,
        bytes: &[u8],
        emit: &mut dyn FnMut(u32, Cow<'_, CubeRoundSketch>),
    ) {
        let round = claims.round;
        let round_bytes = self.params.round_serialized_bytes(round);
        let start = (group * self.group_size) as usize;
        for i in 0..self.nodes_in_group(group) as usize {
            let node = self.node_set.node(start + i);
            if !(claims.live)(node) || claims.skip.contains(&(start + i)) {
                continue;
            }
            emit(
                node,
                match sealed {
                    Some(pre) => Cow::Borrowed(pre[i].round(round)),
                    None => Cow::Owned(
                        self.params
                            .deserialize_round(round, &bytes[i * round_bytes..][..round_bytes]),
                    ),
                },
            );
        }
    }

    /// Slots holding a sparse representation at the instant `overlay`
    /// sealed (`None` = now, under quiesced ingestion): the still-live
    /// sparse slots plus the overlay's captured sparse pre-images.
    /// Promotion is monotone and every post-seal sparse mutation captures
    /// its pre-image *under the table lock* before touching the set, so
    /// taking that same lock here makes the union exactly "sparse at seal"
    /// — a stable set, safe to snapshot once per round stream even while
    /// ingestion keeps promoting. Empty, and cheap, at τ = 0.
    fn sparse_slots(&self, overlay: Option<&EpochOverlay>) -> HashSet<usize> {
        if self.threshold == 0 {
            return HashSet::new();
        }
        let table = self.sparse.lock();
        (0..table.len())
            .filter(|&slot| {
                table[slot].is_some()
                    || overlay.is_some_and(|o| o.get_sparse(slot as u32).is_some())
            })
            .collect()
    }

    /// Run `f` with mutable access to a cached group, faulting it in (and
    /// possibly evicting least-recently-used groups) first. Only `group`'s
    /// own lock is held while the group is read, decoded and handed to `f`;
    /// workers on different groups do all of that side by side.
    fn with_group<R>(
        &self,
        group: u32,
        f: impl FnOnce(&mut Vec<CubeNodeSketch>) -> R,
    ) -> std::io::Result<R> {
        self.check_failed()?;
        let entry = self.record_failure(self.checkout_group(group))?;
        let mut state = entry.lock();
        if !state.loaded {
            let loaded = self.load_group(group, &mut state.sketches);
            self.record_failure(loaded)?;
            state.loaded = true;
        }
        if !state.dirty {
            // Clean→dirty transition: this clean value equals the file's,
            // which is the sealed value of every live epoch not yet holding
            // this group (any earlier post-seal mutation would have passed
            // through here and captured it) — snapshot it before `f` can
            // mutate. Every write-back of the group takes this same lock,
            // so the capture is ordered before any write-back of the
            // mutated group, which is what lets epoch readers trust the
            // file for non-captured groups.
            let sketches = &state.sketches;
            self.epochs.capture_group(group, &mut || sketches.clone());
            state.dirty = true;
        }
        Ok(f(&mut state.sketches))
    }

    /// The bookkeeping half of a group access, and the only part under the
    /// global cache lock: find `group`'s entry, or make room and insert an
    /// unloaded one, and mark it most recently used. The returned clone
    /// keeps the entry from being evicted until it is dropped.
    ///
    /// Making room evicts least-recently-used groups nobody is using, one
    /// at a time, until the cache is under capacity (or every cached group
    /// is in use, in which case the new group goes in over budget and a
    /// later miss evicts for it). Each victim is written back with the
    /// cache lock released and this worker holding nothing else, so the
    /// decoded groups in existence never exceed `cache_groups` plus one per
    /// worker: every group is cached-and-idle (at most `cache_groups` of
    /// those once any miss completes), in use by a worker, or a victim in a
    /// worker's hands — and a worker holds one or the other, never both.
    fn checkout_group(&self, group: u32) -> std::io::Result<Arc<GroupEntry>> {
        // The last victim's allocation, recycled as the new group's.
        let mut spare = Vec::new();
        let mut cache = self.cache.lock();
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
                self.probe.refault_waits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.writeback_landed.wait(&mut cache);
                continue;
            }
            let victim =
                if groups.len() >= self.cache_capacity { cache.pop_unused_lru() } else { None };
            let Some((victim_group, victim)) = victim else {
                let state = GroupState { sketches: spare, loaded: false, dirty: false };
                let entry = Arc::new(Mutex::new(state));
                cache.lru.insert(tick, group);
                cache.groups.insert(group, CacheSlot { entry: Arc::clone(&entry), tick });
                #[cfg(test)]
                {
                    self.probe.faults.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
            let written =
                if state.dirty { self.write_group(victim_group, &state.sketches) } else { Ok(()) };
            spare = std::mem::take(&mut state.sketches);
            drop(state);

            cache = self.cache.lock();
            cache.writing_back.remove(&victim_group);
            self.writeback_landed.notify_all();
            written?;
        }
    }

    #[cfg(test)]
    fn probe_resident(&self, cache: &CacheState) {
        let resident = cache.groups.len() + cache.writing_back.len();
        self.probe.resident_peak.fetch_max(resident, std::sync::atomic::Ordering::Relaxed);
    }

    /// Apply a batch of encoded records to `node` (which must be owned).
    ///
    /// While the node is sparse the batch only toggles its exact
    /// neighbor-set — no group fault, no file traffic. Crossing τ promotes:
    /// the set is replayed through the batch kernel into a dense sketch
    /// (bit-identical to having been dense all along, because sketch state
    /// is XOR-linear in the toggled indices) and written into the node's
    /// group slot. The epoch pre-image is captured under the table lock
    /// *before* the first toggle, so sealed readers see the pre-batch set.
    ///
    /// A dense node's batch goes through the batch kernel into a scratch
    /// sketch first, with no lock held, and only the XOR of that delta into
    /// the node's slot happens under its group's lock — the paper's §5.1
    /// critical-section minimisation, which is what lets Graph Workers
    /// overlap on this store.
    ///
    /// An I/O failure loses the batch; the store remembers it and fails
    /// every later [`Self::flush`] and [`Self::begin_epoch`].
    pub fn apply_batch(&self, node: u32, records: &[u32]) {
        let slot = self.node_set.slot(node);
        if self.threshold > 0 {
            let mut table = self.sparse.lock();
            if let Some(set) = table[slot].as_mut() {
                self.epochs.capture_sparse(slot as u32, &mut || set.clone());
                let mut len = set.len();
                for &rec in records {
                    let (other, _) = crate::node_sketch::decode_other(rec);
                    if other != node {
                        len = set.toggle(other);
                    }
                }
                if len > self.threshold as usize {
                    let dense = set.densify(node, &self.params);
                    table[slot] = None;
                    self.promote(slot, dense);
                }
                return;
            }
        }
        self.scratch.with_delta(node, records, |delta| self.merge_dense(slot, delta));
    }

    /// Install a just-promoted vertex's dense sketch in its group slot. The
    /// caller holds the table lock across the group write: readers that
    /// saw the slot leave the table are ordered after its sparse capture,
    /// so the epoch protocol stays airtight.
    fn promote(&self, slot: usize, dense: CubeNodeSketch) {
        self.io.sparse_promotions.add(1);
        let local = slot % self.group_size as usize;
        // A failure is on record in the store; see `apply_batch`.
        let _ = self.with_group(self.group_of_slot(slot), |sketches| sketches[local] = dense);
    }

    /// XOR `delta` into the dense sketch at `slot`.
    fn merge_dense(&self, slot: usize, delta: &CubeNodeSketch) {
        let local = slot % self.group_size as usize;
        // A failure is on record in the store; see `apply_batch`.
        let _ = self.with_group(self.group_of_slot(slot), |sketches| sketches[local].merge(delta));
    }

    /// Merge a pre-built delta sketch into `node` (see
    /// [`crate::store::SketchStore::merge_delta`]). A still-sparse vertex
    /// is promoted first, as in the RAM store: its set replayed into a
    /// dense sketch, the delta merged in, the result installed.
    pub(crate) fn merge_delta(&self, node: u32, delta: &CubeNodeSketch) {
        let slot = self.node_set.slot(node);
        if self.threshold > 0 {
            let mut table = self.sparse.lock();
            if let Some(set) = table[slot].as_mut() {
                self.epochs.capture_sparse(slot as u32, &mut || set.clone());
                let mut dense = set.densify(node, &self.params);
                dense.merge(delta);
                table[slot] = None;
                self.promote(slot, dense);
                return;
            }
        }
        self.merge_dense(slot, delta);
    }

    /// The pool of reusable delta sketches.
    pub(crate) fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Flush every dirty cached group back to the file (adjacent dirty
    /// groups coalesce into single contiguous writes; see
    /// `writeback_dirty`). Fails with the store's first batch-application
    /// error, if there was one: the file would be missing that batch.
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
    fn begin_round<'a>(
        &self,
        round: usize,
        live: &'a (dyn Fn(u32) -> bool + Sync),
        overlay: Option<&'a EpochOverlay>,
    ) -> std::io::Result<RoundClaims<'a>> {
        if overlay.is_none() {
            self.flush()?;
        }
        let skip = self.sparse_slots(overlay);
        // Visit the groups with at least one live node outside `skip`, in
        // slot order: an all-sparse group's file bytes are untouched zeros.
        let wanted = (0..self.num_groups())
            .filter(|&g| {
                let start = (g * self.group_size) as usize;
                (0..self.nodes_in_group(g) as usize)
                    .any(|i| !skip.contains(&(start + i)) && live(self.node_set.node(start + i)))
            })
            .collect();
        Ok(RoundClaims {
            round,
            live,
            overlay,
            skip,
            wanted,
            next: AtomicUsize::new(0),
            first_error: Mutex::new(None),
        })
    }

    /// The disk store's one round-read path (paper §4.2, Figure 9), run by
    /// each claimant of `claims` until the wanted groups run out: claim the
    /// next group from the shared cursor, serve it from its sealed
    /// pre-image if the overlay captured one, read its round slice
    /// otherwise, and hand every live dense node's slice to `emit` —
    /// borrowed from a pre-image, owned when deserialized from the file.
    /// Which claimant gets which group is scheduling-dependent; consumers
    /// fold by XOR, so it never shows in a result.
    ///
    /// The overlay is checked again after each read and always wins: a
    /// capture landing mid-read means the read may have raced a write-back
    /// of post-seal state, and the capture happens-before that write-back,
    /// so a torn or stale read is always masked.
    ///
    /// Reads are counted in a local [`IoStats`] merged into the store's
    /// once, so a stream records exactly one read of exactly the slice's
    /// bytes per group read, however many claimants shared it. An I/O
    /// error ends the stream for every claimant at its next claim; the
    /// first one is what [`RoundClaims::finish`] returns.
    fn claim_groups(
        &self,
        claims: &RoundClaims<'_>,
        emit: &mut dyn FnMut(u32, Cow<'_, CubeRoundSketch>),
    ) {
        let sealed = |group| claims.overlay.and_then(|overlay| overlay.get(group));
        let local_io = IoStats::new();
        let mut bytes = Vec::new();
        while let Some(&group) = claims.wanted.get(claims.next.fetch_add(1, Ordering::Relaxed)) {
            if let Some(pre) = sealed(group) {
                self.emit_group(claims, group, Some(&pre), &[], emit);
                continue;
            }
            let (offset, len) = self.round_slice(group, claims.round);
            bytes.resize(len, 0);
            if let Err(e) = read_at(&self.file, offset, &mut bytes, &local_io) {
                claims.next.store(claims.wanted.len(), Ordering::Relaxed);
                claims.first_error.lock().get_or_insert(e);
                break;
            }
            let pre = sealed(group);
            self.emit_group(claims, group, pre.as_ref().map(|p| &p[..]), &bytes, emit);
        }
        self.io.merge_from(&local_io);
    }

    /// Stream the round-`round` slice of every owned dense node whose
    /// component is still `live` into `sink`, as sealed by `overlay`
    /// (`None` = the live state): the claim loop run by the calling thread
    /// as its only claimant. Groups whose nodes are all retired or sparse
    /// are never read.
    pub fn stream_round_dense(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        sink: &mut dyn FnMut(u32, &CubeRoundSketch),
    ) -> std::io::Result<()> {
        let claims = self.begin_round(round, live, overlay)?;
        self.claim_groups(&claims, &mut |node, slice| sink(node, &slice));
        claims.finish()
    }

    /// Fold round `round` of every owned, still-`live` node into the pool's
    /// per-worker sinks, as sealed by `overlay` (`None` = the live state):
    /// the sparse vertices by slot range, then the dense ones with every
    /// worker a claimant of the same claim loop, so up to `sinks.len()`
    /// positioned reads are in flight on the shared file handle at once.
    pub fn stream_round_parallel(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &gz_gutters::WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> std::io::Result<()> {
        self.fold_sparse_round(round, live, overlay, pool, sinks);
        let claims = self.begin_round(round, live, overlay)?;
        pool.run(&|w| {
            let mut sink = sinks[w].lock();
            self.claim_groups(&claims, &mut |node, slice| match slice {
                Cow::Borrowed(slice) => sink.fold(node, slice),
                Cow::Owned(slice) => sink.fold_owned(node, slice),
            });
        });
        claims.finish()
    }

    /// Upper bound on sketch bytes the round stream holds resident at once
    /// when read by `threads` query workers: each holds one group's slice.
    pub fn round_stream_resident_bytes(&self, round: usize, threads: usize) -> usize {
        threads * self.group_size as usize * self.params.round_serialized_bytes(round)
    }

    /// Clone out every owned node sketch, indexed by slot (a full scan
    /// through the cache, counting the reads — the paper's "single scan"
    /// query prologue, Lemma 5).
    pub fn snapshot(&self) -> Vec<Option<CubeNodeSketch>> {
        let num_groups = self.num_groups();
        let mut out = Vec::with_capacity(self.node_set.len());
        for group in 0..num_groups {
            let sketches =
                self.with_group(group, |s| s.clone()).expect("disk store snapshot read failed");
            for s in sketches {
                out.push(Some(s));
            }
        }
        // Sparse slots' file/cached bytes are zeros; their true state is the
        // toggle-set, densified by replay (bit-identical to always-dense).
        if self.threshold > 0 {
            let table = self.sparse.lock();
            for (slot, set) in table.iter().enumerate() {
                if let Some(set) = set {
                    out[slot] = Some(set.densify(self.node_set.node(slot), &self.params));
                }
            }
        }
        out
    }

    /// Clone out every owned node sketch as `(node, sketch)` pairs.
    pub fn snapshot_owned(&self) -> Vec<(u32, CubeNodeSketch)> {
        self.snapshot()
            .into_iter()
            .enumerate()
            .map(|(slot, s)| (self.node_set.node(slot), s.expect("snapshot holds every slot")))
            .collect()
    }

    /// Replace every node sketch (checkpoint restore), in slot order.
    /// Sparse slots are retired to dense first (checkpoints store dense
    /// state); their pre-images are captured for any sealed epoch.
    pub fn load_all(&self, sketches: Vec<CubeNodeSketch>) {
        assert_eq!(sketches.len(), self.node_set.len());
        if self.threshold > 0 {
            let mut table = self.sparse.lock();
            for slot in 0..table.len() {
                if let Some(set) = table[slot].as_mut() {
                    self.epochs.capture_sparse(slot as u32, &mut || set.clone());
                    table[slot] = None;
                }
            }
        }
        for (slot, sketch) in sketches.into_iter().enumerate() {
            let group = self.group_of_slot(slot);
            let local = slot % self.group_size as usize;
            self.with_group(group, |group_sketches| {
                group_sketches[local] = sketch;
            })
            .expect("disk store load failed");
        }
    }

    /// Total sketch payload bytes (the on-disk footprint, owned nodes only).
    pub fn sketch_bytes(&self) -> usize {
        self.params.node_sketch_bytes() * self.node_set.len()
    }

    /// Visit the exact set of every owned, still-`live` sparse slot in
    /// `slots`, as sealed by `overlay` (`None` = the live state): an overlay
    /// pre-image outranks the live set (the slot toggled or promoted after
    /// the seal); a live sparse slot with no capture is unchanged since the
    /// seal. The whole visit runs under the table lock, so a concurrent
    /// promotion is seen either as still-live or as its (mandatory) capture
    /// — never neither. Visits nothing at τ = 0, without touching the table.
    fn visit_sparse(
        &self,
        slots: std::ops::Range<usize>,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        f: &mut dyn FnMut(u32, &SparseSet),
    ) {
        if self.threshold == 0 {
            return;
        }
        let table = self.sparse.lock();
        for slot in slots {
            let node = self.node_set.node(slot);
            if !live(node) {
                continue;
            }
            match overlay.and_then(|o| o.get_sparse(slot as u32)) {
                Some(pre) => f(node, &pre),
                None => {
                    if let Some(set) = &table[slot] {
                        f(node, set);
                    }
                }
            }
        }
    }

    /// Visit every owned, still-`live` sparse vertex's exact set in slot
    /// order (see [`crate::store::SketchStore::for_each_sparse`]).
    pub fn for_each_sparse(
        &self,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        f: &mut dyn FnMut(u32, &SparseSet),
    ) {
        self.visit_sparse(0..self.node_set.len(), live, overlay, f);
    }

    /// The sparse half of a round fold: slots are partitioned into
    /// contiguous ranges, one per pool worker; each worker queues its live
    /// sparse vertices' neighbors under the table lock, releases it, and
    /// XORs them into its own sink's supernode accumulators in place. No
    /// file traffic, and no slice is built.
    fn fold_sparse_round(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        overlay: Option<&EpochOverlay>,
        pool: &gz_gutters::WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) {
        if self.threshold == 0 {
            return;
        }
        pool.run(&|w| {
            let mut sink = sinks[w].lock();
            let mut sparse = SparseRoundBatch::default();
            self.visit_sparse(
                pool.partition(self.node_set.len(), w),
                live,
                overlay,
                &mut |node, set| {
                    sparse.push(&sink, node, set.neighbors().iter().copied(), self.params.num_nodes)
                },
            );
            sparse.fold_into(&mut sink, &self.params, round);
        });
    }

    /// Representation census: promoted vs sparse slot counts and total
    /// sparse entries (for memory accounting and `--stats` reporting).
    pub fn rep_stats(&self) -> RepStats {
        let table = self.sparse.lock();
        let mut stats = RepStats { promoted: 0, sparse: 0, sparse_entries: 0 };
        for set in table.iter() {
            match set {
                Some(set) => {
                    stats.sparse += 1;
                    stats.sparse_entries += set.len();
                }
                None => stats.promoted += 1,
            }
        }
        stats
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Best-effort cleanup of the backing file; ignore failures.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_sketch::{encode_other, update_index};
    use gz_sketch::SampleResult;
    use std::sync::atomic::{AtomicBool, Ordering};

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
    ) -> (DiskStore, gz_testutil::TempPath) {
        let params = Arc::new(SketchParams::new(num_nodes, 3, 7, 7));
        let path = tmp(name);
        let store = DiskStore::new(params, path.to_path_buf(), block_bytes, cache).unwrap();
        (store, path)
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
        let io_before = s.io_stats().total_ops();
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
        let ops_after_first = s.io_stats().total_ops();
        for _ in 0..50 {
            s.apply_batch(0, &[encode_other(2, false), encode_other(2, true)]);
        }
        assert_eq!(
            s.io_stats().total_ops(),
            ops_after_first,
            "warm-cache batches must not touch disk"
        );
    }

    #[test]
    fn strided_store_covers_owned_slots_only() {
        let params = Arc::new(SketchParams::new(20, 3, 7, 7));
        let per_node = params.node_sketch_bytes();
        let path = tmp("strided");
        let shard = DiskStore::for_nodes(
            Arc::clone(&params),
            NodeSet::strided(20, 2, 4),
            path.to_path_buf(),
            256,
            2,
        )
        .unwrap();
        // Shard 2 of 4 over 20 nodes owns {2, 6, 10, 14, 18}.
        assert_eq!(shard.sketch_bytes(), per_node * 5);
        shard.apply_batch(6, &[encode_other(1, false)]);
        let owned = shard.snapshot_owned();
        assert_eq!(owned.iter().map(|(n, _)| *n).collect::<Vec<u32>>(), vec![2, 6, 10, 14, 18]);
        let (_, sketch) = owned.into_iter().find(|(n, _)| *n == 6).unwrap();
        assert_eq!(sketch.sample_round(0), SampleResult::Index(update_index(6, 1, 20)));
    }

    #[test]
    fn round_slice_is_the_contiguous_column_of_the_group() {
        // Raw-file check of the round-major layout: the bytes in the region
        // a round stream asks for must be exactly the round-r serialization
        // of each node in the group, in slot order.
        let (s, _t) = make("layout", 12, 1 << 20, 4); // one group of 12
        assert_eq!(s.num_groups(), 1);
        for node in 0..12u32 {
            s.apply_batch(node, &[encode_other((node + 3) % 12, false)]);
        }
        s.flush().unwrap();
        let snap = s.snapshot();
        for round in 0..s.params().rounds() {
            let (offset, len) = s.round_slice(0, round);
            let mut slice = vec![0u8; len];
            s.file.read_exact_at(&mut slice, offset).unwrap();
            let rb = s.params().round_serialized_bytes(round);
            let mut expected = Vec::new();
            for sk in snap.iter() {
                s.params().serialize_round(sk.as_ref().unwrap(), round, &mut expected);
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
            let before = s.io_stats().reads();
            let mut seen = Vec::new();
            s.stream_round_dense(round, &|_| true, None, &mut |node, sketch| {
                let reference = snap[node as usize].as_ref().unwrap().round(round);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                sketch.serialize_into(&mut a);
                reference.serialize_into(&mut b);
                assert_eq!(a, b, "node {node} round {round}");
                seen.push(node);
            })
            .unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..16u32).collect::<Vec<_>>());
            // One slice read per group, at most (flush writes are separate).
            assert!(s.io_stats().reads() - before <= 16, "round {round}");
        }
    }

    #[test]
    fn parallel_stream_matches_serial_and_counts_reads_exactly() {
        use crate::boruvka::RoundSink;
        use crate::config::LockingStrategy;
        use crate::store::ram::RamStore;
        use gz_gutters::WorkerPool;
        use parking_lot::Mutex;

        // The reference is a RAM store fed the same batches: at one thread
        // the claim loop is also what the closure-sink stream runs, so a
        // disk-against-disk comparison would compare the code with itself.
        let (s, _t) = make("par", 16, 64, 2); // one node per group
        assert_eq!(s.num_groups(), 16);
        let reference = RamStore::new(Arc::clone(s.params()), LockingStrategy::Direct);
        for node in 0..16u32 {
            let batch = [encode_other((node + 5) % 16, false)];
            s.apply_batch(node, &batch);
            reference.apply_batch(node, &batch);
        }
        s.flush().unwrap();
        let snap = reference.snapshot();
        let root_of: Vec<u32> = (0..16).collect(); // every node its own supernode
        let retired = vec![false; 16];
        // Node 7's group is fully retired: 15 groups are visited.
        let live = |node: u32| node != 7;

        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for round in 0..s.params().rounds() {
                let sinks: Vec<Mutex<RoundSink<'_, CubeRoundSketch>>> =
                    (0..threads).map(|_| Mutex::new(RoundSink::new(&root_of, &retired))).collect();
                let (reads_before, _, bytes_before, _) = s.io_stats().snapshot();
                s.stream_round_parallel(round, &live, None, &pool, &sinks).unwrap();
                let (reads, _, bytes_read, _) = s.io_stats().snapshot();

                // Exactly one read of exactly the slice's bytes per visited
                // group — the per-claimant local IoStats merge must neither
                // drop nor double-count, with one claimant or several.
                assert_eq!(reads - reads_before, 15, "{threads} threads, round {round}");
                assert_eq!(
                    bytes_read - bytes_before,
                    15 * s.params().round_serialized_bytes(round) as u64,
                    "{threads} threads, round {round}"
                );

                // Each node is its own root, so its accumulator must be
                // bit-identical to the reference's round slice, whichever
                // worker folded it.
                let mut acc: Vec<Option<CubeRoundSketch>> = (0..16).map(|_| None).collect();
                for sink in sinks {
                    for (node, folded) in sink.into_inner().accumulators().into_iter().enumerate() {
                        if let Some(folded) = folded {
                            assert!(
                                acc[node].replace(folded).is_none(),
                                "node {node} folded twice"
                            );
                        }
                    }
                }
                assert!(acc[7].is_none(), "a retired node was folded");
                for node in (0..16usize).filter(|&node| node != 7) {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    acc[node].as_ref().expect("every live node folded").serialize_into(&mut got);
                    snap[node].as_ref().unwrap().round(round).serialize_into(&mut want);
                    assert_eq!(got, want, "{threads} threads, node {node} round {round}");
                }
            }
        }
    }

    #[test]
    fn parallel_stream_skips_fully_retired_groups() {
        use crate::boruvka::RoundSink;
        use gz_gutters::WorkerPool;
        use parking_lot::Mutex;

        let (s, _t) = make("par-skip", 16, 64, 2); // one node per group
        s.flush().unwrap();
        let pool = WorkerPool::new(3);
        let root_of: Vec<u32> = (0..16).collect();
        let retired = vec![false; 16];
        let sinks: Vec<Mutex<RoundSink<'_, CubeRoundSketch>>> =
            (0..3).map(|_| Mutex::new(RoundSink::new(&root_of, &retired))).collect();
        let before = s.io_stats().reads();
        s.stream_round_parallel(0, &|n| n == 3 || n == 9, None, &pool, &sinks).unwrap();
        assert_eq!(s.io_stats().reads() - before, 2, "only live groups may be read");
    }

    #[test]
    fn stream_round_skips_fully_retired_groups() {
        let (s, _t) = make("skip", 16, 64, 2); // one node per group
        s.flush().unwrap();
        let before = s.io_stats().reads();
        let mut seen = Vec::new();
        // Only nodes 3 and 9 are live: exactly two group reads may happen.
        s.stream_round_dense(0, &|n| n == 3 || n == 9, None, &mut |node, _| seen.push(node))
            .unwrap();
        assert_eq!(seen, vec![3, 9]);
        assert_eq!(s.io_stats().reads() - before, 2);
    }

    #[test]
    fn matches_ram_store_results() {
        use crate::config::LockingStrategy;
        use crate::store::ram::RamStore;
        let params = Arc::new(SketchParams::new(24, 3, 7, 123));
        let ram = RamStore::new(Arc::clone(&params), LockingStrategy::Direct);
        let vs_ram = tmp("vs_ram");
        let disk = DiskStore::new(Arc::clone(&params), vs_ram.to_path_buf(), 256, 2).unwrap();
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
    ) -> (DiskStore, gz_testutil::TempPath) {
        let params = Arc::new(SketchParams::new(num_nodes, 3, 7, 7));
        let path = tmp(name);
        let store = DiskStore::for_nodes_with_threshold(
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
        assert_eq!(s.io_stats().total_ops(), 0, "sparse ingestion must be I/O-free");
        let stats = s.rep_stats();
        assert_eq!(stats.sparse, 16);
        assert_eq!(stats.promoted, 0);
        assert_eq!(stats.sparse_entries, 32);
        assert_eq!(s.io_stats().sparse_promotions(), 0);
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
        assert_eq!(hybrid.io_stats().sparse_promotions(), 1);
        let stats = hybrid.rep_stats();
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
        assert_eq!(s.io_stats().sparse_promotions(), 1);
        let before = s.io_stats().reads();
        let mut seen = Vec::new();
        s.stream_round_dense(0, &|_| true, None, &mut |node, _| seen.push(node)).unwrap();
        assert_eq!(seen, vec![4], "sparse slots must not be emitted by the dense stream");
        assert_eq!(s.io_stats().reads() - before, 1, "all-sparse groups must not be read");
        // Sparse nodes are served from their sets; check the raw sets here.
        let mut sets = Vec::new();
        s.for_each_sparse(&|_| true, None, &mut |n, set| sets.push((n, set.clone())));
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
        let node_bytes = s.params().node_sketch_serialized_bytes() as u64;
        let (_, writes_before, _, bytes_before) = s.io_stats().snapshot();
        s.flush().unwrap();
        let (_, writes, _, bytes_written) = s.io_stats().snapshot();
        assert_eq!(writes - writes_before, 1, "8 adjacent dirty groups must coalesce to 1 write");
        assert!(writes - writes_before < 8, "coalescing must reduce the write count");
        assert_eq!(bytes_written - bytes_before, 8 * node_bytes, "payload is exact");

        // Non-adjacent dirty groups (0, 2, 4) cannot coalesce: three runs.
        for node in [0u32, 2, 4] {
            s.apply_batch(node, &[encode_other(node + 1, false)]);
        }
        let (_, writes_before, _, _) = s.io_stats().snapshot();
        s.flush().unwrap();
        let (_, writes, _, _) = s.io_stats().snapshot();
        assert_eq!(writes - writes_before, 3, "gaps break runs");

        // Nothing dirty: flush must be free.
        let (_, writes_before, _, _) = s.io_stats().snapshot();
        s.flush().unwrap();
        assert_eq!(s.io_stats().writes(), writes_before);
    }

    #[test]
    fn epoch_seal_writeback_coalesces_too() {
        let (s, _t) = make("epoch-coalesce", 12, 64, 16);
        assert_eq!(s.group_size(), 1);
        for node in 4..9u32 {
            s.apply_batch(node, &[encode_other(1, false)]);
        }
        let (_, writes_before, _, _) = s.io_stats().snapshot();
        let _epoch = s.begin_epoch().unwrap();
        let (_, writes, _, _) = s.io_stats().snapshot();
        assert_eq!(writes - writes_before, 1, "seal write-back of groups 4..9 is one run");
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

    /// The stress stream: thread `t`'s `i`-th batch. Nodes stride through
    /// the slots so the four threads keep colliding on the same groups.
    fn stress_batch(t: u32, i: u32, num_nodes: u32) -> (u32, Vec<u32>) {
        let node = (i * 7 + t * 3) % num_nodes;
        let records = (0..5)
            .map(|j| {
                encode_other(
                    (node + 1 + (t * 31 + i * 11 + j * 5) % (num_nodes - 1)) % num_nodes,
                    false,
                )
            })
            .collect();
        (node, records)
    }

    /// One lane of the stress test: `THREADS` workers apply interleaved
    /// batches over overlapping groups, an epoch is sealed midway (at a
    /// barrier — sealing needs quiesced ingestion) and streamed by a fifth
    /// thread while the second half lands.
    fn stress_lane(cache: usize, group_size: usize) {
        use crate::config::LockingStrategy;
        use crate::store::ram::RamStore;
        const THREADS: u32 = 4;
        const NODES: u32 = 32;
        const BATCHES: u32 = 120;

        let lane = format!("cache {cache} group {group_size}");
        let params = Arc::new(SketchParams::new(NODES as u64, 3, 7, 7));
        let block = group_size * params.node_sketch_serialized_bytes();
        let path = tmp("stress");
        let store = DiskStore::new(Arc::clone(&params), path.to_path_buf(), block, cache).unwrap();
        assert_eq!(store.group_size() as usize, group_size, "{lane}");

        // The serial reference, and its state at the seal.
        let reference = RamStore::new(Arc::clone(&params), LockingStrategy::Direct);
        let apply_half = |half: u32| {
            for t in 0..THREADS {
                for i in half * BATCHES / 2..(half + 1) * BATCHES / 2 {
                    let (node, records) = stress_batch(t, i, NODES);
                    reference.apply_batch(node, &records);
                }
            }
        };
        apply_half(0);
        let sealed = reference.snapshot();
        apply_half(1);

        // Every live node's slice of every round, as the epoch streams it,
        // must be the serial reference's at the seal.
        let assert_streams_sealed_bytes = |overlay: &EpochOverlay, when: &str| {
            for round in 0..params.rounds() {
                let mut seen = 0;
                store
                    .stream_round_dense(round, &|_| true, Some(overlay), &mut |node, slice| {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        slice.serialize_into(&mut got);
                        sealed[node as usize]
                            .as_ref()
                            .unwrap()
                            .round(round)
                            .serialize_into(&mut want);
                        assert_eq!(got, want, "{lane}: node {node} round {round} {when}");
                        seen += 1;
                    })
                    .unwrap();
                assert_eq!(seen, NODES, "{lane}: round {round} {when}");
            }
        };

        let barrier = std::sync::Barrier::new(THREADS as usize + 1);
        let ingesting = AtomicBool::new(true);
        let overlay_cell = std::sync::OnceLock::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        barrier.wait(); // start together
                        for i in 0..BATCHES {
                            if i == BATCHES / 2 {
                                barrier.wait(); // first half applied everywhere
                                barrier.wait(); // epoch sealed
                            }
                            let (node, records) = stress_batch(t, i, NODES);
                            store.apply_batch(node, &records);
                        }
                    })
                })
                .collect();

            barrier.wait();
            barrier.wait();
            // Every group fault so far was one read: no group was read
            // twice by two workers that wanted it at once, none skipped.
            assert_eq!(
                store.io_stats().reads(),
                store.probe.faults.load(Ordering::Relaxed),
                "{lane}"
            );
            let (_, overlay) = store.begin_epoch().unwrap();
            let overlay = overlay_cell.get_or_init(|| overlay);
            barrier.wait();

            let reader = scope.spawn(|| {
                while ingesting.load(Ordering::Relaxed) {
                    assert_streams_sealed_bytes(overlay, "under ingestion");
                }
            });
            for worker in workers {
                worker.join().expect("stress worker");
            }
            ingesting.store(false, Ordering::Relaxed);
            reader.join().expect("epoch reader");
            assert_streams_sealed_bytes(overlay, "after ingestion");
        });

        assert_eq!(
            serialized(&params, store.snapshot()),
            serialized(&params, reference.snapshot()),
            "{lane}: final state"
        );
        let peak = store.probe.resident_peak.load(Ordering::Relaxed);
        eprintln!(
            "{lane}: {} faults, {} refault waits, peak {peak} groups resident",
            store.probe.faults.load(Ordering::Relaxed),
            store.probe.refault_waits.load(Ordering::Relaxed),
        );
        // The snapshot above ran on this thread: one more faulting worker.
        assert!(peak <= cache + THREADS as usize + 1, "{lane}: {peak} groups resident");
        store.flush().unwrap();
    }

    #[test]
    fn concurrent_batches_match_serial_ram_store_bitwise() {
        for cache in [1, 2, 8] {
            for group_size in [1, 4] {
                stress_lane(cache, group_size);
            }
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
        assert_eq!(s.io_stats().reads(), 3);
        assert!(s.io_stats().writes() >= 1);
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
        s.file.set_len(0).unwrap();
        s.apply_batch(7, &[encode_other(2, false)]);
        let err = s.flush().expect_err("the lost batch must surface");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("disk sketch store failed"), "{err}");
        // Fail-stop: later batches are refused without touching the file,
        // and every flush and seal keeps reporting the first error.
        let ops = s.io_stats().total_ops();
        s.apply_batch(0, &[encode_other(3, false)]);
        assert_eq!(s.io_stats().total_ops(), ops);
        assert_eq!(s.begin_epoch().err().map(|e| e.kind()), Some(err.kind()));
        assert!(s.flush().is_err());
    }

    #[test]
    fn load_all_retires_sparse_slots() {
        let (s, _t) = make_hybrid("load-retire", 8, 1 << 20, 4, 4);
        s.apply_batch(0, &[encode_other(3, false)]);
        let replacement = s.snapshot().into_iter().map(Option::unwrap).collect::<Vec<_>>();
        s.load_all(replacement);
        let stats = s.rep_stats();
        assert_eq!(stats.sparse, 0, "restore must leave every slot dense");
        assert_eq!(
            s.snapshot()[0].as_ref().unwrap().sample_round(0),
            SampleResult::Index(update_index(0, 3, 8))
        );
    }
}
