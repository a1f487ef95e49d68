//! The per-shard ingestion pipeline.
//!
//! A shard runs a work queue drained by a [`WorkerPool`] of Graph Workers
//! into a pluggable [`SketchStore`] (RAM or disk) — the paper's ingestion
//! pipeline (§5.1), which is the whole of a one-shard system. The store
//! covers only the shard's residue class: dense sketch memory is
//! `owned_nodes × node_sketch_resident_bytes`, not
//! `V × node_sketch_resident_bytes`.

use crate::boruvka::RoundSink;
use crate::checkpoint::{load_checkpoint, write_checkpoint, CheckpointHeader};
use crate::config::{LockingStrategy, StoreBackend};
use crate::error::GzError;
use crate::ingest::WorkerPool;
use crate::node_sketch::{CubeRoundSketch, SketchParams};
use crate::sharding::ShardConfig;
use crate::store::{
    disk::DiskStore, ram::RamStore, with_backing_file, EpochOverlay, NodeSet, SketchStore,
    StoreCensus,
};
use gz_graph::GraphDigest;
use gz_gutters::{Batch, WorkQueue};
use gz_stream::wire::SketchEntry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One in-process shard as a query reads it: the shard's store, and the
/// sealed overlay the read goes through (`None` = the live state, which the
/// coordinator must have quiesced). A coordinator holding views
/// ([`crate::sharding::ShardTransport::local_views`]) folds rounds straight
/// from the stores — no slice is serialized, and the transport is not
/// involved again.
pub struct ShardView {
    store: Arc<SketchStore>,
    overlay: Option<Arc<EpochOverlay>>,
    /// The shard's batch sequence number ([`ShardPipeline::seq`]).
    seq: Arc<AtomicU64>,
}

impl ShardView {
    /// Apply one node-keyed batch straight to the shard's store — what
    /// [`ShardPipeline::enqueue`] hands a Graph Worker, without the queue —
    /// and count it in the shard's sequence number, so a checkpoint cut
    /// after the coordinator's flush covers it. `node` must be owned by the
    /// shard; the coordinator's flush ([`crate::sharding::ShardRouter::drain_in_place`])
    /// is the one caller.
    pub(crate) fn apply_batch(&self, node: u32, records: &[u32]) {
        crate::ingest::apply_batch(&self.store, node, records);
        self.seq.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold round `round` of this shard's still-`live` nodes into the
    /// pool's per-worker sinks ([`SketchStore::stream_round_parallel`]), and
    /// return the sketch bytes the store held resident to do it.
    pub(crate) fn fold_round(
        &self,
        round: usize,
        live: &(dyn Fn(u32) -> bool + Sync),
        pool: &gz_gutters::WorkerPool,
        sinks: &[Mutex<RoundSink<'_, CubeRoundSketch>>],
    ) -> Result<usize, GzError> {
        self.store.stream_round_parallel(round, live, self.overlay.as_deref(), pool, sinks)?;
        Ok(self.store.round_stream_resident_bytes(round, sinks.len()))
    }

    /// This shard's store.
    pub(crate) fn store(&self) -> &SketchStore {
        &self.store
    }

    /// Pre-images captured on this shard's store so far, across all of its
    /// epochs ([`SketchStore::epoch_captures`]).
    pub(crate) fn epoch_captures(&self) -> u64 {
        self.store.epoch_captures()
    }

    /// Node groups the sealed overlay has captured (0 for a live view).
    pub(crate) fn captured_groups(&self) -> usize {
        self.overlay.as_ref().map_or(0, |overlay| overlay.captured_groups())
    }

    /// Bytes of sealed pre-images the overlay holds resident (0 for a live
    /// view).
    pub(crate) fn overlay_resident_bytes(&self) -> usize {
        self.overlay.as_ref().map_or(0, |overlay| {
            overlay.captured_sketches() * self.store.params().node_sketch_resident_bytes()
                + overlay.captured_sparse_bytes()
        })
    }
}

/// One shard: queue → Graph Workers → owned-nodes sketch store.
pub struct ShardPipeline {
    index: u32,
    num_shards: u32,
    seed: u64,
    columns: u32,
    params: Arc<SketchParams>,
    store: Arc<SketchStore>,
    queue: Arc<WorkQueue>,
    workers: Option<WorkerPool>,
    /// Batches accepted by [`Self::enqueue`], or applied in place through a
    /// [`ShardView`] — the shard's sequence number.
    /// The link is ordered, so "batches received" is an exact cut: a
    /// checkpoint taken now covers precisely these batches, and a
    /// coordinator replaying after a crash resumes strictly after this
    /// count (DESIGN.md §14).
    batches_enqueued: Arc<AtomicU64>,
    /// Where [`Self::save_checkpoint`] persists the owned state, if
    /// checkpointing is configured.
    checkpoint_path: Mutex<Option<PathBuf>>,
    /// Epochs sealed on this shard and not yet released, keyed by the
    /// store-assigned epoch id (DESIGN.md §11). Holding the overlay `Arc`
    /// here is what keeps the epoch's registry entry alive between the
    /// coordinator's `SealEpoch` and `ReleaseEpoch`.
    epochs: Mutex<HashMap<u64, Arc<EpochOverlay>>>,
}

impl ShardPipeline {
    /// Build shard `index` of `config.num_shards`.
    pub fn new(config: &ShardConfig, index: u32) -> Result<Self, GzError> {
        config.validate()?;
        if index >= config.num_shards {
            return Err(GzError::InvalidConfig(format!(
                "shard index {index} out of range for {} shards",
                config.num_shards
            )));
        }
        let params = Arc::new(config.params());
        let owned = NodeSet::strided(config.num_nodes, index, config.num_shards);
        let store = match &config.store {
            StoreBackend::Ram => Arc::new(SketchStore::Ram(RamStore::for_nodes_with_threshold(
                Arc::clone(&params),
                LockingStrategy::DeltaSketch,
                owned,
                config.sketch_threshold,
            ))),
            StoreBackend::Disk { dir, block_bytes, cache_groups } => {
                let store = with_backing_file(dir, &format!("gz_sketches_shard{index}"), |path| {
                    DiskStore::for_nodes_with_threshold(
                        Arc::clone(&params),
                        owned,
                        path,
                        *block_bytes,
                        *cache_groups,
                        config.sketch_threshold,
                    )
                })?;
                Arc::new(SketchStore::Disk(store))
            }
        };
        let queue = Arc::new(WorkQueue::for_workers(config.workers_per_shard));
        let workers =
            WorkerPool::spawn(config.workers_per_shard, Arc::clone(&queue), Arc::clone(&store));
        let checkpoint_path = config
            .checkpoint_dir
            .as_ref()
            .map(|dir| dir.join(shard_checkpoint_file_name(index, config.num_shards, config.seed)));
        Ok(ShardPipeline {
            index,
            num_shards: config.num_shards,
            seed: config.seed,
            columns: config.num_columns,
            params,
            store,
            queue,
            workers: Some(workers),
            batches_enqueued: Arc::new(AtomicU64::new(0)),
            checkpoint_path: Mutex::new(checkpoint_path),
            epochs: Mutex::new(HashMap::new()),
        })
    }

    /// This shard's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// True if this shard owns vertex `v`.
    #[inline]
    pub fn owns(&self, v: u32) -> bool {
        v % self.num_shards == self.index
    }

    /// Shared sketch parameters.
    pub fn params(&self) -> &Arc<SketchParams> {
        &self.params
    }

    /// Enqueue a node-keyed batch for the Graph Workers; `node` must be
    /// owned by this shard.
    pub fn enqueue(&self, node: u32, records: Vec<u32>) -> Result<(), GzError> {
        if !self.owns(node) {
            return Err(GzError::Protocol(format!(
                "batch for node {node} routed to shard {}/{} (owner is {})",
                self.index,
                self.num_shards,
                node % self.num_shards
            )));
        }
        self.queue.push(Batch { node, others: records });
        self.batches_enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Batches accepted so far — the sequence number a checkpoint of the
    /// current state covers (after a flush).
    pub fn seq(&self) -> u64 {
        self.batches_enqueued.load(Ordering::Relaxed)
    }

    /// Where this shard persists checkpoints (if configured).
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        self.checkpoint_path.lock().clone()
    }

    /// Point this shard's checkpoints at an explicit file.
    pub fn set_checkpoint_path(&self, path: PathBuf) {
        *self.checkpoint_path.lock() = Some(path);
    }

    /// Flush, then atomically persist the owned sketch state and the
    /// shard's graph digest to the configured checkpoint path, streamed
    /// from the store node by node (hybrid sparse nodes densified one at a
    /// time), with `updates_ingested` in the header: the in-process
    /// coordinator's count, or 0 from a worker, which sees batches. Returns
    /// the batch sequence number the checkpoint covers.
    pub fn save_checkpoint(&self, updates_ingested: u64) -> Result<u64, GzError> {
        let path = self.checkpoint_path().ok_or_else(|| {
            GzError::InvalidConfig(format!(
                "shard {} asked to checkpoint but no checkpoint path is configured",
                self.index
            ))
        })?;
        self.flush();
        // `seq` is read *after* the flush: enqueue happens on the serve
        // thread that also called us, so no new batches can slip in between
        // — the file covers exactly `seq` batches.
        let seq = self.seq();
        let header = CheckpointHeader {
            updates_ingested,
            graph: Some(self.store.graph_digest()),
            ..self.checkpoint_header(seq)
        };
        write_checkpoint(&path, &header, &self.params, &*self.store)?;
        Ok(seq)
    }

    /// This shard's header for a checkpoint covering `seq` batches, its
    /// graph digest left out.
    fn checkpoint_header(&self, seq: u64) -> CheckpointHeader {
        CheckpointHeader {
            num_nodes: self.params.num_nodes,
            seed: self.seed,
            rounds: self.params.rounds() as u32,
            columns: self.columns,
            shard_index: self.index,
            num_shards: self.num_shards,
            seq,
            updates_ingested: 0,
            owned_count: self.store.node_set().len() as u64,
            graph: None,
        }
    }

    /// Replace this shard's sketch state with a checkpoint's (validated
    /// against this shard's parameters and topology) and adopt its sequence
    /// number and graph digest. Future checkpoints overwrite the same file.
    /// Returns the sequence number the restored state covers — what the
    /// worker reports in `ResyncFrom`.
    ///
    /// A legacy `GZC2`/`GZS2` file carries no graph digest: `legacy_graph`
    /// stands in for it where the caller recorded one beside the file
    /// (`gz serve`'s manifest), and with `None` — a socket worker, whose
    /// coordinator cannot place a digest it never saw — the file is refused.
    ///
    /// An error found while reading the file leaves the shard untouched. One
    /// the store raises while installing the stacks (a disk store's I/O)
    /// leaves it partly restored — some slots replaced, the graph digest,
    /// sequence and checkpoint path not — so discard the shard then.
    pub fn resume_from(
        &self,
        path: &Path,
        legacy_graph: Option<GraphDigest>,
    ) -> Result<u64, GzError> {
        // `seq` is ignored by the match — the file tells us. The whole
        // payload is read and checked before the live store is touched.
        let expect = self.checkpoint_header(0);
        let (header, sketches) = load_checkpoint(path, &self.params, &expect)?;
        let graph = header.graph.or(legacy_graph).ok_or_else(|| {
            GzError::InvalidConfig(format!(
                "checkpoint {} predates checkpoints that carry the graph digest; \
                 a shard worker cannot resume from it (restore it in process, \
                 e.g. through `gz serve --resume`, and cut a new one)",
                path.display()
            ))
        })?;
        self.flush();
        self.store.load_all(sketches)?;
        self.store.restore_graph_digest(graph);
        self.batches_enqueued.store(header.seq, Ordering::Relaxed);
        self.set_checkpoint_path(path.to_path_buf());
        Ok(header.seq)
    }

    /// Block until every enqueued batch has been applied to the sketches.
    pub fn flush(&self) {
        self.queue.wait_idle();
    }

    /// Flush, then read the shard's graph digest
    /// ([`SketchStore::graph_digest`]).
    pub fn graph_digest(&self) -> gz_graph::GraphDigest {
        self.flush();
        self.store.graph_digest()
    }

    /// Flush, then fingerprint the owned sketch state
    /// ([`SketchStore::state_digest`]) — the payload of a `StateDigestReply`
    /// wire frame. The shards' digests XOR to the digest of a single-node
    /// system fed the same stream.
    pub fn state_digest(&self) -> Result<u64, GzError> {
        self.flush();
        self.store.state_digest()
    }

    /// Encode round `round`'s slice of every owned node's sketch — the
    /// payload of a `RoundSketches` wire reply; `epoch` mirrors the
    /// `GatherRound` message's field. `None` flushes, then answers from
    /// the live state. `Some(id)` answers as the state stood when this
    /// shard sealed epoch `id`, and does **not** flush: the whole point is
    /// to answer from the sealed snapshot while ingestion keeps running.
    /// Either way a disk-backed shard reads one contiguous column per node
    /// group instead of faulting whole groups through its cache.
    ///
    /// Entries are tagged (wire protocol v5): sub-threshold nodes ship `1`
    /// plus their exact neighbor-set, encoded straight from the store's
    /// borrow — typically far smaller than a slice, and the coordinator
    /// replays it, so a sparse shard never densifies to answer; promoted
    /// nodes ship `0` plus the dense round slice's resident words (v10).
    pub fn gather_round(
        &self,
        round: usize,
        epoch: Option<u64>,
    ) -> Result<Vec<SketchEntry>, GzError> {
        if round >= self.params.rounds() {
            return Err(GzError::Protocol(format!(
                "GatherRound for round {round}, but sketches have {} rounds",
                self.params.rounds()
            )));
        }
        let overlay = match epoch {
            None => {
                self.flush();
                None
            }
            Some(id) => Some(self.sealed_overlay(id)?),
        };
        let overlay = overlay.as_deref();
        let mut entries = Vec::with_capacity(self.store.node_set().len());
        self.store.for_each_sparse(&|_| true, overlay, &mut |node, set| {
            let mut bytes = Vec::with_capacity(5 + set.resident_bytes());
            bytes.push(1u8);
            set.encode_wire(&mut bytes);
            entries.push(SketchEntry { node, bytes });
        });
        self.store.stream_round_dense(round, &|_| true, overlay, &mut |node, sketch| {
            let mut bytes = Vec::with_capacity(1 + self.params.round_resident_bytes(round));
            bytes.push(0u8);
            sketch.append_words(&mut bytes);
            entries.push(SketchEntry { node, bytes });
        })?;
        Ok(entries)
    }

    /// The overlay this shard sealed as epoch `id`.
    fn sealed_overlay(&self, id: u64) -> Result<Arc<EpochOverlay>, GzError> {
        self.epochs
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| GzError::Protocol(format!("read of unknown epoch {id}")))
    }

    /// This shard's store as a query in the same process reads it
    /// ([`ShardView`]): as sealed epoch `epoch`, or live — which, unlike
    /// [`Self::gather_round`], does **not** flush: the coordinator that asks
    /// for live views has just flushed the whole fleet.
    pub(crate) fn view(&self, epoch: Option<u64>) -> Result<ShardView, GzError> {
        let overlay = epoch.map(|id| self.sealed_overlay(id)).transpose()?;
        Ok(ShardView {
            store: Arc::clone(&self.store),
            overlay,
            seq: Arc::clone(&self.batches_enqueued),
        })
    }

    /// Flush, then seal the store's open generation (DESIGN.md §11): every
    /// batch enqueued before this call is in the sealed state, and batches
    /// applied afterwards copy-on-write around it. Returns the epoch id the
    /// coordinator quotes in epoch-pinned `GatherRound` requests.
    pub fn seal_epoch(&self) -> Result<u64, GzError> {
        self.flush();
        let (id, overlay) = self.store.begin_epoch()?;
        self.epochs.lock().insert(id, overlay);
        Ok(id)
    }

    /// Drop this shard's handle on `epoch`, letting the store reclaim its
    /// copy-on-write captures. Releasing an unknown id is not an error —
    /// release is best-effort on the coordinator side, and a retried
    /// release must stay idempotent.
    pub fn release_epoch(&self, epoch: u64) {
        self.epochs.lock().remove(&epoch);
    }

    /// This shard's sketch store.
    pub(crate) fn store(&self) -> &Arc<SketchStore> {
        &self.store
    }

    /// This shard's store census: representation, sketch bytes (owned
    /// nodes only) and disk I/O.
    pub fn census(&self) -> StoreCensus {
        StoreCensus::of([&*self.store])
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
    }
}

impl Drop for ShardPipeline {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Canonical checkpoint file name for shard `index` of `num_shards` —
/// deliberately free of the process id, so a *respawned* worker (a new
/// process) resolves the same file its predecessor wrote.
pub fn shard_checkpoint_file_name(index: u32, num_shards: u32, seed: u64) -> String {
    format!("gz_shard{index}of{num_shards}_{seed:x}.ckpt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_sketch::encode_other;

    /// Every owned node's encoded stack, in slot order.
    fn owned_stacks(shard: &ShardPipeline) -> Vec<(u32, Vec<u8>)> {
        shard.flush();
        let mut stacks = Vec::new();
        shard
            .store
            .for_each_serialized(&mut |node, bytes| {
                stacks.push((node, bytes.to_vec()));
                Ok(())
            })
            .unwrap();
        stacks
    }

    #[test]
    fn pipeline_applies_batches_to_owned_nodes() {
        let config = ShardConfig::in_ram(16, 4);
        let shard = ShardPipeline::new(&config, 1).unwrap();
        shard.enqueue(5, vec![encode_other(2, false)]).unwrap();
        shard.enqueue(9, vec![encode_other(5, false)]).unwrap();
        let stacks = owned_stacks(&shard);
        // Shard 1 of 4 over 16 nodes owns {1, 5, 9, 13}.
        assert_eq!(stacks.iter().map(|(node, _)| *node).collect::<Vec<u32>>(), vec![1, 5, 9, 13]);
        // Touched nodes' sketches are nonzero; untouched remain all-zero.
        let by_node: HashMap<u32, &[u8]> =
            stacks.iter().map(|(node, bytes)| (*node, &bytes[..])).collect();
        assert!(by_node[&5].iter().any(|&b| b != 0));
        assert!(by_node[&13].iter().all(|&b| b == 0));
    }

    #[test]
    fn rejects_misrouted_batches_and_bad_indices() {
        let config = ShardConfig::in_ram(16, 4);
        let shard = ShardPipeline::new(&config, 1).unwrap();
        assert!(matches!(
            shard.enqueue(2, vec![encode_other(3, false)]),
            Err(GzError::Protocol(_))
        ));
        assert!(ShardPipeline::new(&config, 4).is_err());
    }

    #[test]
    fn footprint_is_owned_nodes_only() {
        // The satellite fix: a shard must NOT allocate sketch stacks for the
        // full vertex range. Four shards over 64 nodes must together use
        // exactly one system's worth of sketch memory (16 nodes each).
        let config = ShardConfig::in_ram(64, 4);
        let params = config.params();
        let per_node = params.node_sketch_resident_bytes();
        let shards: Vec<ShardPipeline> =
            (0..4).map(|i| ShardPipeline::new(&config, i).unwrap()).collect();
        for shard in &shards {
            assert_eq!(shard.census().sketch_bytes, per_node * 16);
        }
        let total: usize = shards.iter().map(|s| s.census().sketch_bytes).sum();
        assert_eq!(total, per_node * 64, "shards together hold one universe");
    }

    #[test]
    fn checkpoint_resume_round_trips_state_and_seq() {
        let dir = gz_testutil::TempDir::new("gz-shard-ckpt");
        let mut config = ShardConfig::in_ram(16, 2);
        config.checkpoint_dir = Some(dir.path().to_path_buf());
        let shard = ShardPipeline::new(&config, 0).unwrap();
        shard.enqueue(4, vec![encode_other(1, false)]).unwrap();
        shard.enqueue(6, vec![encode_other(3, false)]).unwrap();
        assert_eq!(shard.seq(), 2);
        let (before, graph) = (shard.state_digest().unwrap(), shard.graph_digest());
        assert_ne!(graph, GraphDigest::ZERO);
        assert_eq!(shard.save_checkpoint(0).unwrap(), 2);
        let path = shard.checkpoint_path().unwrap();
        drop(shard);

        // A fresh pipeline (as a respawned worker would build) resumes the
        // state bit-identically and adopts the sequence number and the
        // graph digest.
        let respawn = ShardPipeline::new(&config, 0).unwrap();
        assert_eq!(respawn.seq(), 0);
        assert_eq!(respawn.resume_from(&path, None).unwrap(), 2);
        assert_eq!(respawn.seq(), 2);
        assert_eq!(respawn.state_digest().unwrap(), before);
        assert_eq!(respawn.graph_digest(), graph, "the digest resumes from the file");

        // Streaming continues from the restored state.
        respawn.enqueue(4, vec![encode_other(1, true)]).unwrap();
        assert_eq!(respawn.seq(), 3);
    }

    #[test]
    fn hybrid_checkpoint_resume_is_bit_identical_to_uninterrupted() {
        // A hybrid shard (τ > 0) checkpoints densified state; resuming and
        // continuing the stream must gather bit-identically to a shard that
        // ingested the whole stream without interruption.
        let dir = gz_testutil::TempDir::new("gz-shard-ckpt-hybrid");
        let mut config = ShardConfig::in_ram(16, 2);
        config.sketch_threshold = 2;
        config.checkpoint_dir = Some(dir.path().to_path_buf());

        let first = [(4u32, 1u32), (6, 3), (4, 3)];
        let second = [(8u32, 5u32), (4, 7), (10, 1)];

        let uninterrupted = ShardPipeline::new(&config, 0).unwrap();
        for &(n, o) in first.iter().chain(&second) {
            uninterrupted.enqueue(n, vec![encode_other(o, false)]).unwrap();
        }
        let want = uninterrupted.state_digest().unwrap();

        let shard = ShardPipeline::new(&config, 0).unwrap();
        for &(n, o) in &first {
            shard.enqueue(n, vec![encode_other(o, false)]).unwrap();
        }
        shard.save_checkpoint(0).unwrap();
        let path = shard.checkpoint_path().unwrap();
        drop(shard);

        let respawn = ShardPipeline::new(&config, 0).unwrap();
        respawn.resume_from(&path, None).unwrap();
        for &(n, o) in &second {
            respawn.enqueue(n, vec![encode_other(o, false)]).unwrap();
        }
        assert_eq!(respawn.state_digest().unwrap(), want);
    }

    #[test]
    fn streamed_shard_checkpoint_bytes_equal_snapshot_then_write() {
        // Every shard's checkpoint, streamed from its store, against the
        // order it replaced — snapshot the owned state, then encode the
        // copy: RAM and disk stores × τ {0, 64} × shards {1, 3}.
        use crate::checkpoint::read_checkpoint_header;
        let dir = gz_testutil::TempDir::new("gz-shard-ckpt-stream");
        let n = 256u32;
        // Two hubs well past τ = 64, a ring of leaves below it.
        let mut stream: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        stream.extend((100..n).map(|v| (1, v)));
        stream.extend((0..n).map(|v| (v, (v * 7 + 3) % n)));
        for on_disk in [false, true] {
            for tau in [0u32, 64] {
                for shards in [1u32, 3] {
                    let mut config = ShardConfig::in_ram(n as u64, shards);
                    config.sketch_threshold = tau;
                    config.checkpoint_dir = Some(dir.path().to_path_buf());
                    if on_disk {
                        config.store = StoreBackend::Disk {
                            dir: dir.path().to_path_buf(),
                            block_bytes: 1 << 14,
                            cache_groups: 2,
                        };
                    }
                    for index in 0..shards {
                        let what = format!("on_disk {on_disk}, τ {tau}, shard {index} of {shards}");
                        let shard = ShardPipeline::new(&config, index).unwrap();
                        for &(u, v) in &stream {
                            for (node, other) in [(u, v), (v, u)] {
                                if shard.owns(node) {
                                    shard.enqueue(node, vec![encode_other(other, false)]).unwrap();
                                }
                            }
                        }
                        let seq = shard.save_checkpoint(0).unwrap();
                        let path = shard.checkpoint_path().unwrap();
                        let header = read_checkpoint_header(&path).unwrap();
                        assert_eq!(header.seq, seq);
                        assert_eq!(header.graph, Some(shard.graph_digest()), "{what}");

                        let snapshot: Vec<_> = shard
                            .store
                            .node_set()
                            .iter()
                            .zip(shard.store.snapshot())
                            .map(|(node, sketch)| (node, sketch.unwrap()))
                            .collect();
                        let reference = dir.path().join("reference.gzc3");
                        write_checkpoint(&reference, &header, &shard.params, &snapshot).unwrap();
                        let want = std::fs::read(&reference).unwrap();
                        assert_eq!(std::fs::read(&path).unwrap(), want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn checkpoint_without_a_path_is_refused() {
        let config = ShardConfig::in_ram(16, 2);
        let shard = ShardPipeline::new(&config, 0).unwrap();
        assert!(matches!(shard.save_checkpoint(0), Err(GzError::InvalidConfig(_))));
    }

    #[test]
    fn disk_backed_shard_pipeline_works() {
        let dir = gz_testutil::TempDir::new("gz-shard-disk");
        let mut config = ShardConfig::in_ram(16, 2);
        config.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 4096,
            cache_groups: 2,
        };
        let shard = ShardPipeline::new(&config, 0).unwrap();
        shard.enqueue(4, vec![encode_other(1, false)]).unwrap();
        let stacks = owned_stacks(&shard);
        assert_eq!(stacks.len(), 8);
        assert!(stacks.iter().find(|(node, _)| *node == 4).unwrap().1.iter().any(|&b| b != 0));
    }
}
