//! Sharded (cluster-model) sketch ingestion — the paper's §8 outlook made
//! concrete: "Since GraphZeppelin's sketches can be updated independently
//! (Section 5.1), we believe that they can be partitioned throughout a
//! distributed cluster without sacrificing stream ingestion rate."
//!
//! This is the one system type: [`crate::GraphZeppelin`] is a
//! [`ShardedGraphZeppelin`] over one in-process shard. It has four layers
//! (DESIGN.md §7):
//!
//! - [`ShardRouter`] — the buffering layer and inter-shard batching: per
//!   shard, leaf gutters or a gutter tree (`gz_gutters`) accumulate updates
//!   and emit node-keyed batches, so no update crosses to a shard on its
//!   own.
//! - the wire protocol (`gz_stream::wire`) — framed, versioned messages
//!   (`Hello`, `Batch`, `Flush`, `StateDigest`, `GatherRound`, `Shutdown`,
//!   …) between coordinator and shard workers.
//! - [`ShardTransport`] — how batches travel: [`InProcessTransport`]
//!   (queue pushes, in this process) or [`SocketTransport`]
//!   (TCP/Unix sockets to worker processes running
//!   [`serve_shard_connection`], optionally healing dead links through a
//!   [`Recovery`] policy). The coordinator is transport-agnostic.
//! - [`ShardPipeline`] — a full per-shard ingestion stack: work queue,
//!   Graph Worker pool, and a pluggable RAM/disk store covering only the
//!   shard's owned vertices.
//!
//! The routing contract: shard `i` owns every vertex `v` with
//! `v % num_shards == i`, each update touches at most two shards, and
//! shards never communicate until query time. A query over shards in this
//! process folds each Borůvka round straight from the shards' stores
//! ([`ShardTransport::local_views`]); over sockets it gathers one
//! `GatherRound` frame per round and folds the slices into the round-driven
//! engine. Either way the coordinator never materializes the universe. The
//! crucial invariant — proved by the equivalence suite and the
//! multi-process example — is that the sketch state is *bit-identical* at
//! every shard count on the same stream: `k` shards'
//! [`ShardedGraphZeppelin::state_digest`] equals one shard's (a
//! [`crate::GraphZeppelin`]'s), and queries answer as the materializing
//! reference
//! ([`crate::GraphZeppelin::spanning_forest_oracle`]) does.

mod link;
mod pipeline;
mod router;
mod transport;

pub use link::{Link, ShardLink, Stream, TransportTimeouts};
pub use pipeline::{shard_checkpoint_file_name, ShardPipeline, ShardView};
pub use router::{ReplayLog, ShardRouter};
pub use transport::{
    connect_shard_tcp, new_pipeline_resuming, serve_shard_connection, spawn_local_socket_workers,
    InProcessTransport, Recovery, RetryPolicy, ShardServeStats, ShardTransport, SocketTransport,
};

use crate::boruvka::{boruvka_rounds_with_pool, BoruvkaOutcome, SparseMap};
use crate::config::{
    BufferStrategy, GutterCapacity, StoreBackend, DISK_BLOCK_BYTES, DISK_CACHE_NODES,
};
use crate::error::GzError;
use crate::node_sketch::{CubeRoundSketch, SketchParams};
use crate::sparse::{SparseRoundBatch, SparseSet};
use crate::store::{SketchSource, StoreCensus};
use gz_gutters::WorkerPool;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration shared by the coordinator and every shard worker. Both
/// sides must agree on all sketch-defining fields — enforced at connection
/// time by the [`Self::params_digest`] handshake.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Vertex universe size.
    pub num_nodes: u64,
    /// Number of shards; shard `i` owns `{v : v % num_shards == i}`.
    pub num_shards: u32,
    /// Master seed (all shards must share it for mergeable sketches).
    pub seed: u64,
    /// Boruvka rounds; `None` = [`crate::config::default_rounds`].
    pub num_rounds: Option<u32>,
    /// CubeSketch columns ([`crate::config::DEFAULT_COLUMNS`] unless set).
    /// Part of the parameter digest and of every checkpoint header.
    pub num_columns: u32,
    /// Graph Workers per shard pipeline, and the width of the
    /// coordinator's fork-join pool (flush, query and epoch folds).
    /// [`Self::in_ram`] defaults it to 2, capped at the host's available
    /// parallelism.
    pub workers_per_shard: usize,
    /// Per-shard sketch store placement (RAM or disk).
    pub store: StoreBackend,
    /// Hybrid-representation promotion threshold τ, mirroring
    /// [`crate::config::GzConfig::sketch_threshold`]: each owned node keeps
    /// an exact toggle-set until it exceeds τ live neighbors, then is
    /// replayed into a dense sketch. 0 = always dense. Not part of the
    /// parameter digest: promotion-by-replay is bit-identical, so shards
    /// with different thresholds still gather mergeable state.
    pub sketch_threshold: u32,
    /// The router's buffering (paper §5.1): leaf gutters of a capacity
    /// (the inter-shard batch size knob) or a gutter tree, per shard lane.
    pub buffering: BufferStrategy,
    /// Directory where each shard persists its checkpoint
    /// (DESIGN.md §14). `None` disables checkpointing. Worker-side (and
    /// used by in-process pipelines); not part of the parameter digest —
    /// where durable state lands cannot change the sketch bytes.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Coordinator-side checkpoint cadence: after every `n` routed batches
    /// the coordinator asks all shards to checkpoint, which prunes the
    /// recovery replay log. `None` = only explicit
    /// [`ShardedGraphZeppelin::checkpoint_shards`] calls. Not part of the
    /// parameter digest.
    pub checkpoint_every: Option<u64>,
}

impl ShardConfig {
    /// In-RAM defaults matching [`crate::config::GzConfig::in_ram`], so a
    /// sharded system with the same seed is bit-identical to a single-node
    /// one.
    pub fn in_ram(num_nodes: u64, num_shards: u32) -> Self {
        ShardConfig {
            num_nodes,
            num_shards,
            seed: crate::config::DEFAULT_SEED,
            num_rounds: None,
            num_columns: crate::config::DEFAULT_COLUMNS,
            workers_per_shard: crate::config::capped_at_host(2),
            store: StoreBackend::Ram,
            sketch_threshold: 0,
            buffering: BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(0.5) },
            checkpoint_dir: None,
            checkpoint_every: None,
        }
    }

    /// Number of Boruvka rounds (= sketches per node).
    pub fn rounds(&self) -> u32 {
        self.num_rounds.unwrap_or_else(|| crate::config::default_rounds(self.num_nodes))
    }

    /// The shared sketch parameters every shard derives.
    pub fn params(&self) -> SketchParams {
        SketchParams::new(self.num_nodes, self.rounds(), self.num_columns, self.seed)
    }

    /// The node groups shard 0's disk store — the largest, and at one shard
    /// the whole universe's — is cut into at block size `block_bytes`:
    /// `(nodes a group, groups)`, by the store's own rule
    /// (`store::disk::node_groups`).
    pub fn disk_groups(&self, block_bytes: usize) -> (u64, u64) {
        let owned = crate::store::NodeSet::strided(self.num_nodes, 0, self.num_shards).len();
        let node_bytes = self.params().node_sketch_resident_bytes();
        crate::store::disk::node_groups(block_bytes, node_bytes, owned as u64)
    }

    /// The paged store of this configuration's shards, its file in `dir`:
    /// 176 KiB blocks (18 nodes a group at V = 8192), and a cache of 1024
    /// nodes a shard, in whole groups. The one disk geometry:
    /// [`crate::GzConfig::on_disk`] and `gz --store disk` both take it.
    pub fn paged_store(&self, dir: std::path::PathBuf) -> StoreBackend {
        let (group, _) = self.disk_groups(DISK_BLOCK_BYTES);
        let cache_groups = DISK_CACHE_NODES.div_ceil(group) as usize;
        StoreBackend::Disk { dir, block_bytes: DISK_BLOCK_BYTES, cache_groups }
    }

    /// Digest of every sketch-defining field, exchanged in the wire
    /// handshake: a worker whose digest differs would build unmergeable
    /// sketches, so the connection is refused.
    pub fn params_digest(&self) -> u64 {
        let mut bytes = [0u8; 28];
        bytes[0..8].copy_from_slice(&self.num_nodes.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.seed.to_le_bytes());
        bytes[16..20].copy_from_slice(&self.rounds().to_le_bytes());
        bytes[20..24].copy_from_slice(&self.num_columns.to_le_bytes());
        bytes[24..28].copy_from_slice(&self.num_shards.to_le_bytes());
        gz_hash::xxh64(&bytes, u64::from(gz_stream::PROTOCOL_VERSION))
    }

    /// Validate invariants the subsystem relies on.
    pub fn validate(&self) -> Result<(), GzError> {
        crate::config::check_sketch_fields(self.num_nodes, self.rounds(), self.num_columns)
            .and_then(|()| crate::config::check_buffering(&self.buffering))
            .map_err(GzError::InvalidConfig)?;
        if self.num_shards == 0 {
            return Err(GzError::InvalidConfig("need at least one shard".into()));
        }
        if self.workers_per_shard == 0 {
            return Err(GzError::InvalidConfig("need at least one worker per shard".into()));
        }
        if self.checkpoint_every == Some(0) {
            return Err(GzError::InvalidConfig("checkpoint_every must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// A sharded GraphZeppelin: a batching router in front of `k` shard
/// pipelines behind a pluggable transport, plus a query coordinator.
///
/// The transport sits behind a mutex shared with any [`ShardedEpoch`]
/// handles from [`Self::begin_epoch`]. A handle over in-process shards
/// takes it only to release its epoch — its folds read the shards' stores
/// directly — while a handle over socket links takes it once per round, so
/// its gathers interleave with ingestion calls on the same links. Either
/// way a query thread folds a sealed snapshot while this system keeps
/// routing updates.
///
/// Lock order: the transport lock, then a dispatch on the system's pool —
/// never the reverse. A flush over in-process shards and a gather fold both
/// dispatch while holding the transport; an in-place fold never takes it,
/// and no pool task may.
pub struct ShardedGraphZeppelin {
    params: Arc<SketchParams>,
    router: ShardRouter,
    transport: Arc<parking_lot::Mutex<Box<dyn ShardTransport + Send>>>,
    /// Local worker threads (socket transports spawned in-process); joined
    /// on shutdown.
    local_workers: Vec<JoinHandle<Result<ShardServeStats, GzError>>>,
    num_nodes: u64,
    updates: u64,
    /// Checkpoint cadence in routed batches (`ShardConfig::checkpoint_every`).
    checkpoint_every: Option<u64>,
    /// Router batch count at the last fleet checkpoint.
    last_checkpoint_batches: u64,
    /// The fork-join pool of the stop-the-world phases (DESIGN.md §4),
    /// `workers_per_shard` wide and kept: a flush over in-process shards
    /// claims gutters on it, and every query — live, oracle, or through an
    /// epoch this system seals — folds its rounds on it.
    pool: Arc<WorkerPool>,
    shut_down: bool,
}

impl ShardedGraphZeppelin {
    /// Single-process sharded system with default parameters — the
    /// convenience form (`num_shards` shards over `num_nodes` vertices,
    /// deterministic in `seed`).
    pub fn new(num_nodes: u64, num_shards: u32, seed: u64) -> Result<Self, GzError> {
        let mut config = ShardConfig::in_ram(num_nodes, num_shards);
        config.seed = seed;
        Self::in_process(config)
    }

    /// Single-process deployment: shards are pipelines in this process
    /// behind an [`InProcessTransport`].
    pub fn in_process(config: ShardConfig) -> Result<Self, GzError> {
        let transport = InProcessTransport::new(&config)?;
        Self::with_transport(config, Box::new(transport))
    }

    /// Shards on local threads behind Unix-socket pairs: the full wire
    /// protocol without OS processes (useful for tests and for exercising
    /// the socket path on one machine).
    pub fn local_socket(config: ShardConfig) -> Result<Self, GzError> {
        let (transport, workers) = spawn_local_socket_workers(&config)?;
        let mut system = Self::with_transport(config, Box::new(transport))?;
        system.local_workers = workers;
        Ok(system)
    }

    /// The general form: any transport whose shard count matches
    /// `config.num_shards` (e.g. [`SocketTransport::connect_tcp`] to
    /// worker processes).
    pub fn with_transport(
        config: ShardConfig,
        transport: Box<dyn ShardTransport + Send>,
    ) -> Result<Self, GzError> {
        config.validate()?;
        if transport.num_shards() != config.num_shards {
            return Err(GzError::InvalidConfig(format!(
                "transport has {} shards, config wants {}",
                transport.num_shards(),
                config.num_shards
            )));
        }
        let params = Arc::new(config.params());
        let router = ShardRouter::new(&config, &params, &transport.group_nodes())?;
        Ok(ShardedGraphZeppelin {
            params,
            router,
            transport: Arc::new(parking_lot::Mutex::new(transport)),
            local_workers: Vec::new(),
            num_nodes: config.num_nodes,
            updates: 0,
            checkpoint_every: config.checkpoint_every,
            last_checkpoint_batches: 0,
            pool: Arc::new(WorkerPool::new(config.workers_per_shard)),
            shut_down: false,
        })
    }

    /// The sketch parameters every shard was built with.
    pub fn params(&self) -> &Arc<SketchParams> {
        &self.params
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.transport.lock().num_shards()
    }

    /// The shard owning vertex `v`.
    pub fn shard_of(&self, v: u32) -> u32 {
        self.router.shard_of(v)
    }

    /// Route one stream update through the batching router: at most two
    /// shards are (eventually) contacted, and neither needs to know about
    /// the other. Without a checkpoint cadence this is [`Self::ingest`] of
    /// one update without its loop — every `GraphZeppelin::update`.
    #[inline(always)]
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) -> Result<(), GzError> {
        if self.checkpoint_every.is_some() {
            return self.ingest([(u, v, is_delete)]);
        }
        route(&mut self.router, &self.transport, &mut None, self.num_nodes, (u, v, is_delete))?;
        self.updates += 1;
        Ok(())
    }

    /// Ingest a whole stream of `(u, v, is_delete)` updates. The first
    /// batch to leave the router locks the transport and the call keeps it:
    /// at most one lock per call — none when every record fits its gutter —
    /// and one more after each cadence checkpoint
    /// (`ShardConfig::checkpoint_every`), which needs the transport to
    /// itself.
    #[inline]
    pub fn ingest(
        &mut self,
        updates: impl IntoIterator<Item = (u32, u32, bool)>,
    ) -> Result<(), GzError> {
        let mut updates = updates.into_iter();
        loop {
            let mut transport = None;
            let mut checkpoint_due = false;
            for update in updates.by_ref() {
                route(&mut self.router, &self.transport, &mut transport, self.num_nodes, update)?;
                self.updates += 1;
                checkpoint_due = self.checkpoint_every.is_some_and(|every| {
                    self.router.batches_emitted() - self.last_checkpoint_batches >= every
                });
                if checkpoint_due {
                    break;
                }
            }
            drop(transport);
            if !checkpoint_due {
                return Ok(());
            }
            self.checkpoint_shards()?;
        }
    }

    /// Flush, then persist every shard's owned state to its checkpoint
    /// path, pruning the transport's replay log (DESIGN.md §14). Shards in
    /// this process write [`Self::updates_ingested`] into their headers.
    /// Returns the per-shard sequence numbers the checkpoints cover. Runs
    /// automatically every `ShardConfig::checkpoint_every` routed batches.
    pub fn checkpoint_shards(&mut self) -> Result<Vec<u64>, GzError> {
        self.flush()?;
        let seqs = self.transport.lock().checkpoint_shards(self.updates)?;
        self.last_checkpoint_batches = self.router.batches_emitted();
        Ok(seqs)
    }

    /// Flush, then persist every shard's owned state to `paths[i]` (one
    /// path per shard), regardless of any cadence-configured destination.
    /// `gz serve` cuts its versioned checkpoint rounds through this, and a
    /// one-shard system its whole-state checkpoint.
    pub fn checkpoint_shards_to(
        &mut self,
        paths: &[std::path::PathBuf],
    ) -> Result<Vec<u64>, GzError> {
        self.flush()?;
        let seqs = self.transport.lock().checkpoint_shards_to(paths, self.updates)?;
        self.last_checkpoint_batches = self.router.batches_emitted();
        Ok(seqs)
    }

    /// Restore every shard's owned state and graph digest from `paths[i]`
    /// ([`ShardTransport::resume_shards_from`]; `legacy_graph` is the
    /// fleet's digest for files written before checkpoints carried one, and
    /// `None` refuses those). Must run before any updates are ingested: the
    /// router's batch counters restart at zero either way, so resuming into
    /// a half-ingested system would desynchronize checkpoint sequence
    /// numbers. On `Err` some shards may be partly restored
    /// ([`ShardPipeline::resume_from`]): discard the system.
    pub fn resume_shards_from(
        &mut self,
        paths: &[std::path::PathBuf],
        legacy_graph: Option<gz_graph::GraphDigest>,
    ) -> Result<Vec<u64>, GzError> {
        self.transport.lock().resume_shards_from(paths, legacy_graph)
    }

    /// Recovery counters (checkpoints, replays, reconnects), if the
    /// transport tracks them (a [`SocketTransport`] with a [`Recovery`]
    /// policy does; the others return `None`).
    pub fn recovery_stats(&self) -> Option<Arc<gz_gutters::RecoveryStats>> {
        self.transport.lock().recovery_stats()
    }

    /// Frames and bytes exchanged with the shards so far (`None` when they
    /// are in this process) — the coordinator↔worker cost of a run.
    pub fn link_stats(&self) -> Option<gz_gutters::LinkStats> {
        self.transport.lock().link_stats()
    }

    /// Make every routed update visible in the shards' sketches (paper
    /// Figure 9's `cleanup()`). Shards in this process
    /// ([`ShardTransport::local_views`] — the split the query fold makes)
    /// have what the router still buffers applied to their stores where it
    /// lies, by the system's pool with this thread as worker 0: no batch is
    /// built, and only a gutter-tree leaf that fills while the tree cascades
    /// goes through the queue. Shards behind links are sent it as batches.
    /// Either way every shard then waits out what overflowed earlier.
    pub fn flush(&mut self) -> Result<(), GzError> {
        let mut transport = self.transport.lock();
        if self.router.buffered_len() == 0 {
            return transport.flush();
        }
        let started = std::time::Instant::now();
        let views = transport.local_views(None)?;
        let mut send = |shard, batch| transport.send_batch(shard, batch);
        match views {
            Some(views) => {
                self.router.drain_in_place(&self.pool, &mut send, &|shard, node, records| {
                    views[shard as usize].apply_batch(node, records)
                })?
            }
            None => self.router.flush(&mut send)?,
        }
        transport.flush()?;
        self.router.counters().record_flush(started);
        Ok(())
    }

    /// Flush, then fingerprint the whole sharded state: the XOR of the
    /// shards' digests ([`ShardTransport::state_digest`]), 8 bytes a shard
    /// over any transport. The same at every shard count on the same
    /// stream.
    pub fn state_digest(&mut self) -> Result<u64, GzError> {
        self.flush()?;
        self.transport.lock().state_digest()
    }

    /// Flush, then read the fleet's graph digest: the XOR of the shards'
    /// ([`ShardTransport::graph_digest`]), the same at every shard count
    /// fed the same stream.
    pub fn graph_digest(&mut self) -> Result<gz_graph::GraphDigest, GzError> {
        self.flush()?;
        self.transport.lock().graph_digest()
    }

    /// Flush, then query a spanning forest one Borůvka round at a time on
    /// the system's pool, so the coordinator never materializes the whole
    /// universe: shards in this process fold each round straight from their
    /// stores, socket shards ship that round's sketch slices (`GatherRound`
    /// frames).
    pub fn spanning_forest(&mut self) -> Result<BoruvkaOutcome, GzError> {
        self.flush()?;
        let views = self.transport.lock().local_views(None)?;
        let reads = match &views {
            Some(views) => ShardReads::InPlace(views),
            None => ShardReads::Gather { transport: &self.transport, epochs: None },
        };
        // A worker respawned during the fold comes back with its vertices
        // restored dense, which the gather refuses mid-query; the healed
        // fleet is folded again, from round 0.
        let replays = || self.recovery_stats().map_or(0, |stats| stats.replays());
        let before = replays();
        match reads.spanning_forest(&self.params, &self.pool) {
            Err(_) if replays() != before => reads.spanning_forest(&self.params, &self.pool),
            outcome => outcome,
        }
    }

    /// Flush, then seal one epoch on every shard and hand back a query
    /// handle pinned to it (DESIGN.md §11). The handle answers
    /// [`ShardedEpoch::spanning_forest`] from the sealed state — bit-
    /// identical to a stop-the-world query at the seal — while this system
    /// keeps ingesting; dropping it releases every shard's captures.
    pub fn begin_epoch(&mut self) -> Result<ShardedEpoch, GzError> {
        self.flush()?;
        let mut transport = self.transport.lock();
        let epoch_ids = transport.seal_epoch()?;
        let views = transport.local_views(Some(&epoch_ids))?;
        drop(transport);
        Ok(ShardedEpoch {
            transport: Arc::clone(&self.transport),
            params: Arc::clone(&self.params),
            pool: Arc::clone(&self.pool),
            epoch_ids,
            views,
        })
    }

    /// Pre-images the in-process shards' stores have cloned for their
    /// epochs so far ([`crate::store::SketchStore::epoch_captures`], summed
    /// over shards); `None` when the shards live behind sockets. A seal
    /// whose flush finds no epoch live leaves it where it was.
    pub fn epoch_captures(&self) -> Result<Option<u64>, GzError> {
        let views = self.transport.lock().local_views(None)?;
        Ok(views.map(|views| views.iter().map(ShardView::epoch_captures).sum()))
    }

    /// The in-process shards' stores, summed ([`StoreCensus`]); `None` when
    /// the shards live behind links, where each worker reports its own.
    pub fn store_census(&self) -> Result<Option<StoreCensus>, GzError> {
        let views = self.transport.lock().local_views(None)?;
        Ok(views.map(|views| StoreCensus::of(views.iter().map(ShardView::store))))
    }

    /// Component labels.
    pub fn connected_components(&mut self) -> Result<Vec<u32>, GzError> {
        Ok(self.spanning_forest()?.labels)
    }

    /// Updates routed so far.
    pub fn updates_ingested(&self) -> u64 {
        self.updates
    }

    /// Node-keyed batches shipped to shards so far (the inter-shard message
    /// count — the quantity batching minimizes). A gutter a flush applied in
    /// place counts as the batch it would have been.
    pub fn batches_shipped(&self) -> u64 {
        self.router.batches_emitted()
    }

    /// Batches and records routed, and what the flushes cost (`--stats`).
    pub fn ingest_counters(&self) -> &gz_gutters::IngestCounters {
        self.router.counters()
    }

    /// I/O counters of the router's gutter trees (gutter-tree buffering
    /// only).
    pub fn gutter_io(&self) -> Option<Arc<gz_gutters::IoStats>> {
        self.router.gutter_io()
    }

    /// The fork-join pool every flush and query of this system runs on.
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Count `updates` as ingested before the first routed one (a restored
    /// checkpoint's), so later checkpoints carry the whole stream's count.
    pub fn restore_updates_ingested(&mut self, updates: u64) {
        self.updates = updates;
    }

    /// Shut down: stop the shards and join any local worker threads.
    /// Surfaces worker errors, unlike the best-effort drop.
    pub fn shutdown(mut self) -> Result<(), GzError> {
        self.shutdown_inner()?;
        for handle in std::mem::take(&mut self.local_workers) {
            handle.join().expect("shard worker panicked")?;
        }
        Ok(())
    }

    fn shutdown_inner(&mut self) -> Result<(), GzError> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        self.transport.lock().shutdown()
    }
}

/// Route one update `(u, v, is_delete)` through `router`; the first batch
/// to leave locks `transport` into `held`, which keeps it for the caller's
/// run. Panics on a self-loop or an endpoint outside the universe.
#[inline(always)]
fn route<'t>(
    router: &mut ShardRouter,
    transport: &'t parking_lot::Mutex<Box<dyn ShardTransport + Send>>,
    held: &mut Option<parking_lot::MutexGuard<'t, Box<dyn ShardTransport + Send>>>,
    num_nodes: u64,
    (u, v, is_delete): (u32, u32, bool),
) -> Result<(), GzError> {
    assert!(u != v, "self-loop");
    assert!((u as u64) < num_nodes && (v as u64) < num_nodes, "vertex out of range");
    router.route_update(u, v, is_delete, &mut |shard, batch| {
        held.get_or_insert_with(|| transport.lock()).send_batch(shard, batch)
    })
}

impl Drop for ShardedGraphZeppelin {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
        for handle in std::mem::take(&mut self.local_workers) {
            let _ = handle.join();
        }
    }
}

/// A query handle pinned to one sealed epoch across every shard
/// ([`ShardedGraphZeppelin::begin_epoch`]). A `std::thread::scope` can run
/// [`Self::spanning_forest`] on one thread while the owning system ingests
/// on another: over in-process shards the fold reads the shards' stores
/// through the sealed overlays and never takes the coordinator's transport
/// mutex; over socket links it takes the mutex once per round, so its
/// gathers interleave with ingestion calls. It folds on the owning system's
/// pool. Dropping the handle sends a best-effort `ReleaseEpoch` to every
/// shard so their copy-on-write captures are reclaimed.
pub struct ShardedEpoch {
    transport: Arc<parking_lot::Mutex<Box<dyn ShardTransport + Send>>>,
    params: Arc<SketchParams>,
    pool: Arc<WorkerPool>,
    epoch_ids: Vec<u64>,
    /// The shards' stores pinned to this epoch, when they are in this
    /// process ([`ShardTransport::local_views`]).
    views: Option<Vec<ShardView>>,
}

impl ShardedEpoch {
    /// The per-shard epoch ids this handle is pinned to, indexed by shard
    /// (monotonic per shard).
    pub fn epoch_ids(&self) -> &[u64] {
        &self.epoch_ids
    }

    /// Node groups this epoch has pinned on the in-process shards
    /// (copy-on-write captures so far); 0 over socket links, whose captures
    /// live in the workers.
    pub fn captured_groups(&self) -> usize {
        self.views.iter().flatten().map(ShardView::captured_groups).sum()
    }

    /// Bytes of sealed pre-images this epoch holds resident on the
    /// in-process shards — the reclamation bound: at most `captured groups
    /// × group bytes`, and zero until ingestion dirties something the epoch
    /// covers; 0 over socket links.
    pub fn overlay_resident_bytes(&self) -> usize {
        self.views.iter().flatten().map(ShardView::overlay_resident_bytes).sum()
    }

    /// Query a spanning forest of the graph as it stood at the seal —
    /// bit-identical to a stop-the-world streaming query at that instant,
    /// no matter how much the shards have ingested since (pinned by the
    /// lattice lane's `Seal` op, `tests/lattice.rs`).
    pub fn spanning_forest(&self) -> Result<BoruvkaOutcome, GzError> {
        self.spanning_forest_with_pool(&self.pool)
    }

    /// [`Self::spanning_forest`] folding on `pool` instead of the owning
    /// system's — same bits at any width, so a test can fold one sealed
    /// epoch at several.
    pub fn spanning_forest_with_pool(&self, pool: &WorkerPool) -> Result<BoruvkaOutcome, GzError> {
        let reads = match &self.views {
            Some(views) => ShardReads::InPlace(views),
            None => {
                ShardReads::Gather { transport: &self.transport, epochs: Some(&self.epoch_ids) }
            }
        };
        reads.spanning_forest(&self.params, pool)
    }
}

impl Drop for ShardedEpoch {
    fn drop(&mut self) {
        // Best-effort: a shard that is already gone (or a link that is
        // already shut down) must not turn reclamation into a panic.
        let _ = self.transport.lock().release_epoch(&self.epoch_ids);
    }
}

/// How a sharded query reaches its shards' sketches.
#[derive(Clone, Copy)]
enum ShardReads<'a> {
    /// The shards are in this process: each round folds straight from their
    /// stores. No transport, no bytes.
    InPlace(&'a [ShardView]),
    /// The shards are behind links: each round gathers their serialized
    /// slices. The transport is locked per gather, not for the query's
    /// lifetime, so an epoch-pinned query (`epochs = Some`) shares the links
    /// with concurrent ingestion.
    Gather {
        transport: &'a parking_lot::Mutex<Box<dyn ShardTransport + Send>>,
        epochs: Option<&'a [u64]>,
    },
}

impl ShardReads<'_> {
    /// Run the round-driven engine over these reads on `pool`.
    fn spanning_forest(
        self,
        params: &SketchParams,
        pool: &WorkerPool,
    ) -> Result<BoruvkaOutcome, GzError> {
        let mut source = ShardRoundSource { reads: self, params, resident: 0 };
        boruvka_rounds_with_pool(&mut source, params.num_nodes, params.rounds(), pool)
    }
}

/// Round-slice source over a shard fleet: Borůvka round `r` folds only
/// round `r`'s column data of every shard into the engine's accumulators.
/// Resident bytes per round are what the stores buffer to be read in place
/// (nothing, in RAM) or one round of the universe as gathered frames —
/// never the full `V × sketch` materialization.
struct ShardRoundSource<'a> {
    reads: ShardReads<'a>,
    params: &'a SketchParams,
    resident: usize,
}

impl SketchSource for ShardRoundSource<'_> {
    type Sampler = CubeRoundSketch;

    fn num_rounds(&self) -> usize {
        self.params.rounds()
    }

    fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn stream_round_into(
        &mut self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &WorkerPool,
        sinks: &[parking_lot::Mutex<crate::boruvka::RoundSink<'_, Self::Sampler>>],
    ) -> Result<(), GzError> {
        self.resident = match self.reads {
            // One shard after another, each across the whole pool: the
            // shards own disjoint vertices, so each is folded exactly once.
            ShardReads::InPlace(views) => {
                let mut resident = 0usize;
                for view in views {
                    resident = resident.max(view.fold_round(round, live, pool, sinks)?);
                }
                resident
            }
            ShardReads::Gather { transport, epochs } => {
                let mut transport = transport.lock();
                gather_fold_round(&mut **transport, epochs, self.params, round, live, pool, sinks)?
            }
        };
        Ok(())
    }
}

/// Fold round `round` out of `GatherRound` replies — the route for shards
/// behind links: frames go to every shard up front and each reply is folded
/// *as it arrives* — shard `i`'s slices deserialize and fold (fanned out
/// across the pool's workers) while shards `j > i` are still serializing or
/// transmitting theirs, instead of collecting the whole round before any
/// folding starts. What arrives is checked first: each node of the universe
/// exactly once, in a well-formed representation. A dense entry (tag 0) is
/// deserialized and handed to the sink by value; a sparse entry (tag 1) is
/// never turned into a slice — its neighbors are queued and XORed into the
/// supernode accumulators in place, exactly as a store folds its own sparse
/// vertices. Returns the gathered bytes, which were resident for the round.
fn gather_fold_round(
    transport: &mut dyn ShardTransport,
    epochs: Option<&[u64]>,
    params: &SketchParams,
    round: usize,
    live: &(dyn Fn(u32) -> bool + Sync),
    pool: &WorkerPool,
    sinks: &[parking_lot::Mutex<crate::boruvka::RoundSink<'_, CubeRoundSketch>>],
) -> Result<usize, GzError> {
    let mut seen = vec![false; params.num_nodes as usize];
    let mut resident = 0usize;
    // The sparse fold leaves out edges between sparse vertices of one
    // supernode on the condition that a vertex keeps its round-0
    // representation for the whole query. The links carry no ingestion
    // while a query holds them, but a worker respawned mid-query restores
    // its vertices dense from its checkpoint: such an entry is refused,
    // never folded.
    let known = sinks[0].lock().sparse_map();
    transport.gather_round_each(round as u32, epochs, &mut |entries| {
        for e in &entries {
            validate_round_entry(&mut seen, e, params, round)?;
            if let SparseMap::Known(sparse) = known {
                if sparse[e.node as usize] != (e.bytes[0] == 1) {
                    return Err(GzError::Protocol(format!(
                        "node {} changed representation between round 0 and round {round} \
                         of one query",
                        e.node
                    )));
                }
            }
        }
        resident += entries.iter().map(|e| e.bytes.len()).sum::<usize>();
        // Fold this reply across the pool: contiguous entry chunks, one
        // per worker, into that worker's sink.
        pool.run(&|w| {
            let range = gz_gutters::worker_pool::partition(entries.len(), pool.threads(), w);
            if range.is_empty() {
                return;
            }
            let mut sink = sinks[w].lock();
            let mut sparse = SparseRoundBatch::default();
            for e in &entries[range] {
                if !live(e.node) {
                    continue;
                }
                // Tags were validated above.
                if e.bytes[0] == 0 {
                    sink.fold_owned(e.node, params.deserialize_round(round, &e.bytes[1..]));
                } else {
                    let neighbors =
                        SparseSet::wire_neighbors(&e.bytes[1..]).expect("entry validated");
                    sparse.push(&mut sink, e.node, neighbors, params.num_nodes);
                }
            }
            sparse.fold_into(&mut sink, params, round);
        });
        Ok(())
    })?;
    require_all_gathered(&seen)?;
    Ok(resident)
}

/// Shared validation for gathered round entries: each in-range node arrives
/// exactly once, with a valid representation tag — `0` followed by one
/// round's resident words, their length the round's
/// ([`SketchParams::check_round`]), or `1` followed by a well-formed sparse
/// neighbor-set (wire protocol v5).
fn validate_round_entry(
    seen: &mut [bool],
    e: &gz_stream::wire::SketchEntry,
    params: &SketchParams,
    round: usize,
) -> Result<(), GzError> {
    let slot = seen.get_mut(e.node as usize).ok_or_else(|| {
        GzError::Protocol(format!("gathered round slice for out-of-range node {}", e.node))
    })?;
    if std::mem::replace(slot, true) {
        return Err(GzError::Protocol(format!("node {} gathered from two shards", e.node)));
    }
    match e.bytes.first() {
        Some(0) => {
            if let Err(bad) = params.check_round(round, &e.bytes[1..]) {
                return Err(GzError::Protocol(format!(
                    "round {round} dense slice for node {}: {bad}",
                    e.node
                )));
            }
        }
        Some(1) => {
            if SparseSet::wire_neighbors(&e.bytes[1..]).is_none() {
                return Err(GzError::Protocol(format!(
                    "round {round} sparse set for node {} is malformed",
                    e.node
                )));
            }
        }
        tag => {
            return Err(GzError::Protocol(format!(
                "round {round} entry for node {} has bad representation tag {tag:?}",
                e.node
            )));
        }
    }
    Ok(())
}

/// Every node of the universe must have been gathered by some shard.
fn require_all_gathered(seen: &[bool]) -> Result<(), GzError> {
    if let Some(node) = seen.iter().position(|s| !*s) {
        return Err(GzError::Protocol(format!("no shard gathered a round slice for node {node}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GzConfig;
    use crate::system::GraphZeppelin;

    fn demo_updates(n: u32, count: usize, seed: u64) -> Vec<(u32, u32, bool)> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut present = std::collections::HashSet::new();
        let mut out = Vec::new();
        while out.len() < count {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if present.remove(&key) {
                out.push((a, b, true));
            } else {
                present.insert(key);
                out.push((a, b, false));
            }
        }
        out
    }

    fn single_node_labels(n: u64, seed: u64, updates: &[(u32, u32, bool)]) -> Vec<u32> {
        let mut config = GzConfig::in_ram(n);
        config.seed = seed;
        let mut single = GraphZeppelin::new(config).unwrap();
        for &(u, v, d) in updates {
            single.update(u, v, d);
        }
        single.connected_components().unwrap().labels().to_vec()
    }

    #[test]
    fn sharded_matches_single_node_system() {
        let n = 64u32;
        let updates = demo_updates(n, 500, 1);
        let seed = 99;

        let mut sharded = ShardedGraphZeppelin::new(n as u64, 4, seed).unwrap();
        sharded.ingest(updates.iter().copied()).unwrap();
        assert_eq!(
            sharded.connected_components().unwrap(),
            single_node_labels(n as u64, seed, &updates)
        );
    }

    #[test]
    fn checkpoint_cadence_fires_midstream_and_a_fresh_system_resumes_the_state() {
        let dir = gz_testutil::TempDir::new("gz-cadence");
        let n = 32u64;
        let updates = demo_updates(32, 240, 5);
        let mut config = ShardConfig::in_ram(n, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        config.checkpoint_every = Some(8);
        // Tiny gutters so batches (the cadence's unit) actually flow
        // mid-stream instead of pooling until the final flush.
        config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(2) };

        let mut sharded = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        let file0 = dir.path().join(shard_checkpoint_file_name(0, 2, config.seed));
        let mut fired_midstream = false;
        for &(u, v, d) in &updates {
            sharded.update(u, v, d).unwrap();
            fired_midstream |= file0.exists();
        }
        assert!(fired_midstream, "the cadence must checkpoint during ingest, not only at the end");
        // Checkpointing is transparent: answers match the single-node system.
        assert_eq!(
            sharded.connected_components().unwrap(),
            single_node_labels(n, config.seed, &updates)
        );
        let want = sharded.state_digest().unwrap();
        let seqs = sharded.checkpoint_shards().unwrap();
        assert_eq!(seqs.iter().sum::<u64>(), sharded.batches_shipped());
        sharded.shutdown().unwrap();

        // A fresh local-socket deployment over the same checkpoint dir
        // auto-resumes every shard (the thread-level `--resume` path) and
        // reports the exact pre-shutdown state.
        let mut resumed = ShardedGraphZeppelin::local_socket(config).unwrap();
        assert_eq!(resumed.state_digest().unwrap(), want);
        resumed.shutdown().unwrap();
    }

    #[test]
    fn clean_shutdown_cuts_a_final_checkpoint_without_a_cadence() {
        // No `checkpoint_every`, no explicit `checkpoint_shards()` call:
        // the only checkpoint is the one the workers write on the clean
        // `Shutdown` frame. Before that fix, everything since the last
        // cadence checkpoint (here: the entire stream) was silently
        // dropped on clean exit.
        let dir = gz_testutil::TempDir::new("gz-final-ckpt");
        let n = 32u64;
        let updates = demo_updates(32, 200, 11);
        let mut config = ShardConfig::in_ram(n, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());

        let mut sharded = ShardedGraphZeppelin::local_socket(config.clone()).unwrap();
        sharded.ingest(updates.iter().copied()).unwrap();
        let want = sharded.state_digest().unwrap();
        let files: Vec<_> = (0..2)
            .map(|i| dir.path().join(shard_checkpoint_file_name(i, 2, config.seed)))
            .collect();
        assert!(files.iter().all(|f| !f.exists()), "no checkpoint may exist before shutdown");
        sharded.shutdown().unwrap();
        assert!(files.iter().all(|f| f.exists()), "clean shutdown must leave a checkpoint");

        let mut resumed = ShardedGraphZeppelin::local_socket(config).unwrap();
        assert_eq!(resumed.state_digest().unwrap(), want);
        resumed.shutdown().unwrap();
    }

    #[test]
    fn targeted_checkpoint_round_trips_through_a_fresh_system() {
        // The serve daemon's versioned-round path: checkpoint to explicit
        // paths, restore a brand-new system from them, and the restored
        // system both matches bit-for-bit and keeps answering correctly
        // for the rest of the stream.
        let dir = gz_testutil::TempDir::new("gz-targeted-ckpt");
        let n = 48u64;
        let updates = demo_updates(48, 400, 21);
        let (first, rest) = updates.split_at(250);
        let config = ShardConfig::in_ram(n, 3);

        let mut sharded = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        sharded.ingest(first.iter().copied()).unwrap();
        let paths: Vec<_> = (0..3).map(|i| dir.path().join(format!("round-1-{i}.ckpt"))).collect();
        let seqs = sharded.checkpoint_shards_to(&paths).unwrap();
        assert_eq!(seqs.iter().sum::<u64>(), sharded.batches_shipped());
        let want = sharded.state_digest().unwrap();

        let mut restored = ShardedGraphZeppelin::in_process(config.clone()).unwrap();
        let resumed_seqs = restored.resume_shards_from(&paths, None).unwrap();
        assert_eq!(resumed_seqs, seqs);
        assert_eq!(restored.state_digest().unwrap(), want);
        restored.ingest(rest.iter().copied()).unwrap();
        assert_eq!(
            restored.connected_components().unwrap(),
            single_node_labels(n, config.seed, &updates)
        );

        // Mismatched path count is refused before touching anything.
        assert!(sharded.checkpoint_shards_to(&paths[..2]).is_err());
        assert!(restored.resume_shards_from(&paths[..1], None).is_err());
    }

    #[test]
    fn sharded_sketch_state_is_bit_identical_to_single_node() {
        let n = 48u64;
        let updates = demo_updates(n as u32, 400, 2);
        let seed = 0x5EED_1E55; // ShardConfig::in_ram default

        let mut sharded = ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).unwrap();
        sharded.ingest(updates.iter().copied()).unwrap();
        let digest = sharded.state_digest().unwrap();

        let mut single = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
        assert_eq!(single.config().seed, seed, "defaults must stay aligned");
        for &(u, v, d) in &updates {
            single.update(u, v, d);
        }
        assert_eq!(digest, single.state_digest().unwrap(), "sharded state must be bit-identical");
    }

    #[test]
    fn framing_and_transport_do_not_change_a_bit() {
        // One `ingest` of the whole stream, frames of 37, and one `update`
        // per record, over in-process and local-socket shards: gutters small
        // enough that batches leave mid-frame, and one lane at the default
        // size where nothing leaves before the flush.
        let n = 40u64;
        let updates = demo_updates(n as u32, 300, 3);
        type Build = fn(ShardConfig) -> Result<ShardedGraphZeppelin, GzError>;
        let transports: [Build; 2] =
            [ShardedGraphZeppelin::in_process, ShardedGraphZeppelin::local_socket];
        let mut states = Vec::new();
        for build in transports {
            for (frame, capacity) in [(300, 3), (37, 3), (1, 3), (37, 1 << 20)] {
                let mut config = ShardConfig::in_ram(n, 3);
                config.buffering =
                    BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(capacity) };
                let mut sys = build(config).unwrap();
                for chunk in updates.chunks(frame) {
                    match chunk {
                        &[(u, v, d)] => sys.update(u, v, d).unwrap(),
                        _ => sys.ingest(chunk.iter().copied()).unwrap(),
                    }
                }
                assert_eq!(sys.updates_ingested(), 300);
                states.push(sys.state_digest().unwrap());
                sys.shutdown().unwrap();
            }
        }
        assert!(states.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn ingest_takes_the_transport_only_when_a_batch_leaves() {
        // A query thread folding a sealed epoch over socket shards holds
        // the transport for a round at a time; updates that only fill
        // gutters must not queue up behind it.
        let mut config = ShardConfig::in_ram(16, 2);
        config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(2) };
        let mut sys = ShardedGraphZeppelin::in_process(config).unwrap();
        let transport = Arc::clone(&sys.transport);
        let held = transport.lock();
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                sys.update(0, 1, false).unwrap(); // one record each in gutters 0 and 1
                sys.ingest([(2, 3, false), (4, 5, true)]).unwrap();
                done.send(sys.batches_shipped()).unwrap();
                sys.update(0, 3, false).unwrap(); // fills gutter 0: needs the transport
                done.send(sys.batches_shipped()).unwrap();
            });
            let shipped = returned.recv_timeout(std::time::Duration::from_secs(20));
            assert_eq!(shipped, Ok(0), "gutter-only ingest waited for the transport");
            assert!(returned.try_recv().is_err(), "a batch left while the transport was held");
            drop(held);
            assert_eq!(returned.recv(), Ok(2), "both of update (0, 3)'s gutters were full");
        });
        assert_eq!(sys.updates_ingested(), 4);
    }

    #[test]
    fn shard_count_does_not_change_answers() {
        let n = 40u32;
        let updates = demo_updates(n, 300, 3);
        let mut labels = Vec::new();
        for shards in [1u32, 2, 7] {
            let mut sys = ShardedGraphZeppelin::new(n as u64, shards, 5).unwrap();
            sys.ingest(updates.iter().copied()).unwrap();
            labels.push(sys.connected_components().unwrap());
        }
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
    }

    #[test]
    fn batching_ships_fewer_messages_than_updates() {
        let n = 32u32;
        let updates = demo_updates(n, 2000, 7);
        let mut sys = ShardedGraphZeppelin::new(n as u64, 4, 5).unwrap();
        sys.ingest(updates.iter().copied()).unwrap();
        sys.flush().unwrap();
        let shipped = sys.batches_shipped();
        assert!(shipped > 0);
        assert!(
            shipped < updates.len() as u64,
            "batching must ship fewer messages ({shipped}) than updates ({})",
            updates.len()
        );
    }

    #[test]
    fn queries_are_repeatable_and_ingestion_continues() {
        let mut sys = ShardedGraphZeppelin::new(16, 2, 1).unwrap();
        sys.update(0, 1, false).unwrap();
        let a = sys.connected_components().unwrap();
        let b = sys.connected_components().unwrap();
        assert_eq!(a, b);
        sys.update(1, 2, false).unwrap();
        let c = sys.connected_components().unwrap();
        assert_eq!(c[0], c[2]);
    }

    #[test]
    fn each_update_touches_at_most_two_shards() {
        let sys = ShardedGraphZeppelin::new(100, 5, 1).unwrap();
        for (u, v) in [(0u32, 1u32), (5, 10), (99, 3)] {
            let touched: std::collections::HashSet<u32> =
                [sys.shard_of(u), sys.shard_of(v)].into_iter().collect();
            assert!(touched.len() <= 2);
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(ShardedGraphZeppelin::new(1, 2, 0).is_err());
        assert!(ShardedGraphZeppelin::new(10, 0, 0).is_err());
        let mut bad = ShardConfig::in_ram(10, 2);
        bad.workers_per_shard = 0;
        assert!(ShardedGraphZeppelin::in_process(bad).is_err());
    }

    #[test]
    fn default_workers_per_shard_are_clamped_to_the_host() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ShardConfig::in_ram(64, 2).workers_per_shard, cores.min(2));
    }

    #[test]
    fn params_digest_separates_configs() {
        let base = ShardConfig::in_ram(64, 4);
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        let mut other_shards = base.clone();
        other_shards.num_shards = 5;
        let mut paper_columns = base.clone();
        paper_columns.num_columns = crate::config::PAPER_COLUMNS;
        let mut paper_rounds = base.clone();
        paper_rounds.num_rounds = Some(crate::config::paper_rounds(64));
        assert_ne!(base.rounds(), paper_rounds.rounds());
        assert_eq!(base.params_digest(), base.clone().params_digest());
        assert_ne!(base.params_digest(), other_seed.params_digest());
        assert_ne!(base.params_digest(), other_shards.params_digest());
        assert_ne!(base.params_digest(), paper_columns.params_digest());
        assert_ne!(base.params_digest(), paper_rounds.params_digest());
    }

    /// The four fields of an outcome that are an answer.
    fn assert_same_answer(a: &BoruvkaOutcome, b: &BoruvkaOutcome, what: &str) {
        assert_eq!(a.labels, b.labels, "labels: {what}");
        assert_eq!(a.forest, b.forest, "forest: {what}");
        assert_eq!(a.rounds_used, b.rounds_used, "rounds used: {what}");
        assert_eq!(a.sketch_failures, b.sketch_failures, "sketch failures: {what}");
    }

    #[test]
    fn query_bit_identical_to_oracle_across_transports() {
        // The two query routes — in-process shards folded in place from
        // their stores, `local_socket` shards gathered as serialized round
        // slices — against the single-node materializing oracle on the same
        // stream, and by state digest against that single-node system:
        // shards {1, 3} × Ram/Disk stores × τ ∈ {0, 64} × pool widths
        // {1, 4}, first pinned to an epoch the stream then moves past, then
        // live.
        let n = 40u64;
        let updates = demo_updates(n as u32, 300, 11);
        let more = demo_updates(n as u32, 120, 12);
        type Maker = fn(ShardConfig) -> Result<ShardedGraphZeppelin, GzError>;
        let routes: [(&str, Maker); 2] = [
            ("in-place", ShardedGraphZeppelin::in_process),
            ("gather", ShardedGraphZeppelin::local_socket),
        ];
        let disk = |dir: &gz_testutil::TempDir| StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 4096,
            cache_groups: 2,
        };
        for (on_disk, tau) in [(false, 0u32), (false, 64), (true, 0), (true, 64)] {
            // The single-node reference at the same seed, τ and store.
            let single_dir = gz_testutil::TempDir::new("gz-route-reference");
            let mut config = GzConfig::in_ram(n);
            config.seed = ShardConfig::in_ram(n, 1).seed;
            config.sketch_threshold = tau;
            if on_disk {
                config.store = disk(&single_dir);
            }
            let mut single = GraphZeppelin::new(config).unwrap();
            for &(u, v, d) in &updates {
                single.update(u, v, d);
            }
            let sealed_oracle = single.spanning_forest_oracle().unwrap();
            let sealed_digest = single.state_digest().unwrap();
            for &(u, v, d) in &more {
                single.update(u, v, d);
            }
            let live_oracle = single.spanning_forest_oracle().unwrap();
            let live_digest = single.state_digest().unwrap();
            assert_ne!(sealed_digest, live_digest);

            for shards in [1u32, 3] {
                for (route, make) in routes {
                    let what = format!("{route}, {shards} shards, disk {on_disk}, tau {tau}");
                    // A directory per fleet: shard files are named by
                    // process, seed and index only.
                    let dir = gz_testutil::TempDir::new("gz-route-equivalence");
                    let mut config = ShardConfig::in_ram(n, shards);
                    config.sketch_threshold = tau;
                    // The live query runs on the system's pool: one worker
                    // on one shard, four on three.
                    config.workers_per_shard = if shards == 1 { 1 } else { 4 };
                    if on_disk {
                        config.store = disk(&dir);
                    }
                    let mut sys = make(config).unwrap();
                    sys.ingest(updates.iter().copied()).unwrap();
                    assert_eq!(sys.state_digest().unwrap(), sealed_digest, "sealed, {what}");
                    let epoch = sys.begin_epoch().unwrap();
                    sys.ingest(more.iter().copied()).unwrap();
                    sys.flush().unwrap();
                    assert_eq!(sys.state_digest().unwrap(), live_digest, "live, {what}");
                    for threads in [1usize, 4] {
                        let pinned = epoch.spanning_forest_with_pool(&WorkerPool::new(threads));
                        let what = format!("pinned at {threads}, {what}");
                        assert_same_answer(&pinned.unwrap(), &sealed_oracle, &what);
                    }
                    let live = sys.spanning_forest().unwrap();
                    assert_same_answer(&live, &live_oracle, &format!("live, {what}"));
                    // A round is `rounds`-fold smaller than the materialized
                    // universe.
                    assert!(live.peak_sketch_bytes < live_oracle.peak_sketch_bytes, "{what}");
                    drop(epoch);
                    sys.shutdown().unwrap();
                }
            }
        }
    }

    /// A transport that answers every `GatherRound` with scripted replies,
    /// one per "shard", and is never asked anything else.
    struct ScriptedGather(Vec<Vec<gz_stream::wire::SketchEntry>>);

    impl ShardTransport for ScriptedGather {
        fn num_shards(&self) -> u32 {
            self.0.len() as u32
        }
        fn gather_round_each(
            &mut self,
            _round: u32,
            _epochs: Option<&[u64]>,
            on_reply: &mut dyn FnMut(Vec<gz_stream::wire::SketchEntry>) -> Result<(), GzError>,
        ) -> Result<(), GzError> {
            self.0.iter().cloned().try_for_each(on_reply)
        }
        fn send_batch(&mut self, _: u32, _: gz_gutters::Batch) -> Result<(), GzError> {
            unreachable!("a scripted gather only gathers")
        }
        fn flush(&mut self) -> Result<(), GzError> {
            unreachable!("a scripted gather only gathers")
        }
        fn state_digest(&mut self) -> Result<u64, GzError> {
            unreachable!("a scripted gather only gathers")
        }
        fn seal_epoch(&mut self) -> Result<Vec<u64>, GzError> {
            unreachable!("a scripted gather only gathers")
        }
        fn release_epoch(&mut self, _: &[u64]) -> Result<(), GzError> {
            unreachable!("a scripted gather only gathers")
        }
        fn checkpoint_shards(&mut self, _updates_ingested: u64) -> Result<Vec<u64>, GzError> {
            unreachable!("a scripted gather only gathers")
        }
        fn shutdown(&mut self) -> Result<(), GzError> {
            Ok(())
        }
    }

    #[test]
    fn gather_fold_checks_what_arrives_and_folds_what_the_stores_hold() {
        // In-process queries no longer pass through the gather fold, so
        // drive it directly: over honest replies it builds the accumulators
        // the in-place fold builds, and a reply that repeats a node, omits
        // one, names one outside the universe or mangles a slice is refused.
        let n = 12u64;
        let mut config = ShardConfig::in_ram(n, 3);
        config.sketch_threshold = 2; // a hub promotes, leaves stay exact sets
        let params = config.params();
        let mut fleet = InProcessTransport::new(&config).unwrap();
        for leaf in 1..8u32 {
            for (node, other) in [(0, leaf), (leaf, 0)] {
                let others = vec![crate::node_sketch::encode_other(other, false)];
                fleet.send_batch(node % 3, gz_gutters::Batch { node, others }).unwrap();
            }
        }
        fleet.flush().unwrap();
        let round = 1usize;
        let honest: Vec<Vec<_>> = {
            let mut replies = Vec::new();
            fleet
                .gather_round_each(round as u32, None, &mut |reply| {
                    replies.push(reply);
                    Ok(())
                })
                .unwrap();
            replies
        };
        assert!(honest.iter().flatten().any(|e| e.bytes[0] == 0), "a dense entry is on the wire");
        assert!(honest.iter().flatten().any(|e| e.bytes[0] == 1), "and a sparse one");

        // Every vertex its own supernode, none retired: each is sampled
        // straight from its round slice.
        type Sinks<'a> = Vec<parking_lot::Mutex<crate::boruvka::RoundSink<'a, CubeRoundSketch>>>;
        let root_of: Vec<u32> = (0..n as u32).collect();
        let retired = vec![false; n as usize];
        let members = crate::boruvka::live_members(&root_of, &retired);
        let pool = WorkerPool::new(2);
        // A sparse map that has one dense vertex down as sparse, as if its
        // shard had changed representation since round 0.
        let mut moved = vec![false; n as usize];
        for e in honest.iter().flatten() {
            moved[e.node as usize] = e.bytes[0] == 1;
        }
        let dense = honest.iter().flatten().find(|e| e.bytes[0] == 0).unwrap().node;
        moved[dense as usize] = true;
        let sinks = |map| -> Sinks<'_> {
            (0..pool.threads())
                .map(|_| {
                    let sink = crate::boruvka::RoundSink::new(&root_of, &retired, &members, map);
                    parking_lot::Mutex::new(sink)
                })
                .collect()
        };
        let samples = |sinks: Sinks<'_>| {
            let mut by_vertex = vec![None; n as usize];
            for sink in sinks {
                for (v, folded) in sink.into_inner().into_folded().into_iter().enumerate() {
                    if let Some(folded) = folded {
                        let sample = folded.sample();
                        assert!(by_vertex[v].replace(sample).is_none(), "vertex {v} twice");
                    }
                }
            }
            by_vertex
        };
        let gather_fold = |replies: Vec<Vec<_>>, map| {
            let folded = sinks(map);
            let mut scripted = ScriptedGather(replies);
            gather_fold_round(&mut scripted, None, &params, round, &|_| true, &pool, &folded)
                .map(|resident| (resident, samples(folded)))
        };

        let in_place = sinks(SparseMap::Learning);
        for view in fleet.local_views(None).unwrap().expect("shards are in this process") {
            view.fold_round(round, &|_| true, &pool, &in_place).unwrap();
        }
        let (resident, gathered) = gather_fold(honest.clone(), SparseMap::Learning).unwrap();
        assert_eq!(gathered, samples(in_place), "both routes fold the same slices");
        assert!(gathered.iter().all(Option::is_some), "every vertex was folded");
        assert_eq!(resident, honest.iter().flatten().map(|e| e.bytes.len()).sum::<usize>());

        let tampered = |tamper: &dyn Fn(&mut Vec<Vec<gz_stream::wire::SketchEntry>>)| {
            let mut replies = honest.clone();
            tamper(&mut replies);
            match gather_fold(replies, SparseMap::Learning) {
                Err(GzError::Protocol(message)) => message,
                other => panic!("expected a protocol error, got {:?}", other.map(|(r, _)| r)),
            }
        };
        let repeated = tampered(&|replies| {
            let again = replies[0][0].clone();
            replies[1].push(again);
        });
        assert!(repeated.contains("gathered from two shards"), "{repeated}");
        let missing = tampered(&|replies| {
            replies[2].pop();
        });
        assert!(missing.contains("no shard gathered"), "{missing}");
        let foreign = tampered(&|replies| replies[0][0].node = n as u32);
        assert!(foreign.contains("out-of-range"), "{foreign}");
        let short = tampered(&|replies| {
            let dense = replies.iter_mut().flatten().find(|e| e.bytes[0] == 0).unwrap();
            dense.bytes.pop();
        });
        assert!(short.contains("dense slice"), "{short}");
        // From round 1 on, a vertex must arrive as it did in round 0.
        match gather_fold(honest.clone(), SparseMap::Known(&moved)) {
            Err(GzError::Protocol(message)) => {
                assert!(message.contains(&format!("node {dense} changed representation")))
            }
            other => panic!("expected a protocol error, got {:?}", other.map(|(r, _)| r)),
        }
        fleet.shutdown().unwrap();
    }

    #[test]
    fn sharded_epoch_pins_the_sealed_answer_across_transports() {
        let n = 32u64;
        let updates = demo_updates(n as u32, 200, 17);
        let more = demo_updates(n as u32, 100, 18);
        type Maker = fn(ShardConfig) -> Result<ShardedGraphZeppelin, GzError>;
        let makers: [Maker; 2] =
            [ShardedGraphZeppelin::in_process, ShardedGraphZeppelin::local_socket];
        for make in makers {
            let mut sys = make(ShardConfig::in_ram(n, 3)).unwrap();
            sys.ingest(updates.iter().copied()).unwrap();
            let epoch = sys.begin_epoch().unwrap();
            // Stop-the-world reference taken right after the seal.
            let reference = sys.spanning_forest().unwrap();
            sys.ingest(more.iter().copied()).unwrap();
            sys.flush().unwrap();
            // The epoch still answers as of the seal, and repeatably so.
            for _ in 0..2 {
                let pinned = epoch.spanning_forest().unwrap();
                assert_eq!(pinned.labels, reference.labels);
                assert_eq!(pinned.forest, reference.forest);
                assert_eq!(pinned.rounds_used, reference.rounds_used);
            }
            drop(epoch); // releases every shard's captures over the links
                         // The system is still fully usable after the release.
            sys.connected_components().unwrap();
            sys.shutdown().unwrap();
        }
    }

    #[test]
    fn hybrid_shards_match_dense_shards_bitwise() {
        let n = 48u64;
        let updates = demo_updates(n as u32, 400, 21);
        let dense_cfg = ShardConfig::in_ram(n, 3);
        let mut hybrid_cfg = ShardConfig::in_ram(n, 3);
        hybrid_cfg.sketch_threshold = 4;
        let mut dense = ShardedGraphZeppelin::in_process(dense_cfg).unwrap();
        let mut hybrid = ShardedGraphZeppelin::in_process(hybrid_cfg).unwrap();
        dense.ingest(updates.iter().copied()).unwrap();
        hybrid.ingest(updates.iter().copied()).unwrap();
        // The digest densifies by replay: bit-identical serialized state.
        assert_eq!(dense.state_digest().unwrap(), hybrid.state_digest().unwrap());
        // Streaming gathers ship tagged frames (sparse sets for
        // sub-threshold nodes); answers must still be bit-identical.
        let a = dense.spanning_forest().unwrap();
        let b = hybrid.spanning_forest().unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.forest, b.forest);
        assert_eq!(a.rounds_used, b.rounds_used);
    }

    #[test]
    fn hybrid_sharded_epoch_pins_across_promotions() {
        let n = 32u64;
        let mut config = ShardConfig::in_ram(n, 2);
        config.sketch_threshold = 3;
        let mut sys = ShardedGraphZeppelin::in_process(config).unwrap();
        // Everything sparse at the seal.
        for i in 1..4u32 {
            sys.update(0, i, false).unwrap();
        }
        let epoch = sys.begin_epoch().unwrap();
        let reference = sys.spanning_forest().unwrap();
        // Post-seal churn pushes node 0 over τ — the pinned answer must
        // still serve the sealed sparse sets.
        for i in 4..12u32 {
            sys.update(0, i, false).unwrap();
        }
        sys.flush().unwrap();
        let pinned = epoch.spanning_forest().unwrap();
        assert_eq!(pinned.labels, reference.labels);
        assert_eq!(pinned.forest, reference.forest);
    }

    #[test]
    fn validate_round_entry_rejects_bad_frames() {
        use gz_stream::wire::SketchEntry;
        let params = SketchParams::new(4, 2, 3, 1);
        let check = |bytes: Vec<u8>| {
            let mut seen = vec![false; 4];
            validate_round_entry(&mut seen, &SketchEntry { node: 1, bytes }, &params, 1)
        };
        let dense = 1 + params.round_resident_bytes(1);
        assert!(check(vec![]).is_err(), "empty entry");
        assert!(check(vec![7, 0, 0]).is_err(), "unknown tag");
        assert!(check(vec![0; dense - 1]).is_err(), "dense payload one byte short");
        assert!(check(vec![0; dense]).is_ok(), "dense tag + one round's payload");
        assert!(check(vec![1, 2, 0, 0, 0, 5, 0, 0, 0]).is_err(), "sparse count over-claims");
        assert!(
            check(vec![1, 1, 0, 0, 0, 5, 0, 0, 0]).is_ok(),
            "well-formed single-neighbor sparse set"
        );
        assert!(
            check(vec![1, 2, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0]).is_err(),
            "duplicate neighbors are malformed"
        );
    }

    #[test]
    fn more_shards_than_nodes_still_answers() {
        // Shards with empty residue classes simply gather nothing.
        let mut sys = ShardedGraphZeppelin::new(3, 7, 1).unwrap();
        sys.update(0, 1, false).unwrap();
        let labels = sys.connected_components().unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
    }
}
