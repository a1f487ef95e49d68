//! The [`GraphZeppelin`] facade: the paper's user-facing API
//! (`edge_update()` / `list_spanning_forest()`, Figures 8–9).

use crate::boruvka::{boruvka_rounds_with_pool, BoruvkaOutcome};
use crate::config::{BufferStrategy, GzConfig, StoreBackend};
use crate::error::GzError;
use crate::ingest::{apply_batch, IngestCounters, WorkerPool};
use crate::node_sketch::{encode_other, SketchParams};
use crate::store::{
    with_backing_file, MaterializedSource, RepStats, SketchEpoch, SketchSource, SketchStore,
    StoreRoundSource,
};
use gz_graph::Edge;
use gz_gutters::{BufferingSystem, GutterTree, GutterTreeConfig, IoStats, LeafGutters, WorkQueue};
use std::sync::Arc;

/// A connectivity answer: component labels plus the spanning forest that
/// witnesses them.
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    outcome: BoruvkaOutcome,
}

impl ConnectedComponents {
    /// Component label of vertex `v` (normalized to the minimum member id).
    pub fn label(&self, v: u32) -> u32 {
        self.outcome.labels[v as usize]
    }

    /// All labels, indexed by vertex.
    pub fn labels(&self) -> &[u32] {
        &self.outcome.labels
    }

    /// True if `a` and `b` are in the same component.
    pub fn same_component(&self, a: u32, b: u32) -> bool {
        self.label(a) == self.label(b)
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.outcome.num_components()
    }

    /// The spanning forest (the streaming problem's required output).
    pub fn spanning_forest(&self) -> &[Edge] {
        &self.outcome.forest
    }
}

/// The GraphZeppelin system: buffered, parallel sketch ingestion plus
/// sketch-space Boruvka queries.
pub struct GraphZeppelin {
    config: GzConfig,
    params: Arc<SketchParams>,
    store: Arc<SketchStore>,
    queue: Arc<WorkQueue>,
    buffering: Box<dyn BufferingSystem + Send>,
    workers: Option<WorkerPool>,
    counters: Arc<IngestCounters>,
    updates_ingested: u64,
    gutter_io: Option<Arc<IoStats>>,
    buffer_capacity_bytes: usize,
    /// The fork-join pool of the stop-the-world phases (DESIGN.md §4),
    /// `num_workers` wide, built once and kept: a flush claims gutters on
    /// it, and a query — live, oracle, or through any epoch this system
    /// seals — folds its rounds on it.
    pool: Arc<gz_gutters::WorkerPool>,
}

impl GraphZeppelin {
    /// Build the system described by `config` and start its Graph Workers.
    pub fn new(config: GzConfig) -> Result<Self, GzError> {
        config.validate()?;
        let params = Arc::new(SketchParams::new(
            config.num_nodes,
            config.rounds(),
            config.num_columns,
            config.seed,
        ));
        let store = Arc::new(SketchStore::build(&config, Arc::clone(&params))?);
        let queue = Arc::new(WorkQueue::for_workers(config.num_workers));

        let node_sketch_bytes = params.node_sketch_bytes();
        let (buffering, gutter_io, buffer_capacity_bytes): (
            Box<dyn BufferingSystem + Send>,
            Option<Arc<IoStats>>,
            usize,
        ) = match &config.buffering {
            BufferStrategy::LeafOnly { capacity } => {
                let cap = capacity.resolve(node_sketch_bytes);
                let gutters = LeafGutters::new(config.num_nodes as usize, cap, Arc::clone(&queue));
                let bytes = cap * 4 * config.num_nodes as usize;
                (Box::new(gutters), None, bytes)
            }
            BufferStrategy::GutterTree { buffer_bytes, fanout, leaf_capacity, dir } => {
                let leaf_cap = leaf_capacity.resolve(node_sketch_bytes);
                let tree = with_backing_file(dir, "gz_gutter_tree", |path| {
                    let tree_config = GutterTreeConfig {
                        num_nodes: config.num_nodes as u32,
                        leaf_capacity_updates: leaf_cap,
                        buffer_bytes: *buffer_bytes,
                        fanout: *fanout,
                        path,
                    };
                    GutterTree::new(tree_config, Arc::clone(&queue))
                })?;
                let io = tree.stats();
                // RAM cost of the tree is just the root buffer.
                (Box::new(tree), Some(io), *buffer_bytes)
            }
        };

        let workers = WorkerPool::spawn(
            config.num_workers,
            config.group_threads,
            Arc::clone(&queue),
            Arc::clone(&store),
        );
        let counters = workers.counters();
        let pool = Arc::new(gz_gutters::WorkerPool::new(config.num_workers));

        Ok(GraphZeppelin {
            config,
            params,
            store,
            queue,
            buffering,
            workers: Some(workers),
            counters,
            updates_ingested: 0,
            gutter_io,
            buffer_capacity_bytes,
            pool,
        })
    }

    /// Ingest one stream update — a *toggle* of edge `(u, v)` (paper
    /// Figure 8's `edge_update`). Inserting an absent edge and deleting a
    /// present one are the same operation over Z_2.
    #[inline]
    pub fn edge_update(&mut self, u: u32, v: u32) {
        self.update(u, v, false)
    }

    /// Ingest one update with an explicit insert/delete tag. GraphZeppelin's
    /// sketches ignore the tag (Z_2), but it is preserved through the
    /// buffering layer for systems that need signs (StreamingCC) and for
    /// debugging.
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) {
        assert!(u != v, "self-loop ({u},{v}) is not a valid stream update");
        assert!(
            (u as u64) < self.config.num_nodes && (v as u64) < self.config.num_nodes,
            "vertex out of range"
        );
        // Figure 8: buffer_insert({u,v}) and buffer_insert({v,u}).
        self.buffering.insert(u, encode_other(v, is_delete));
        self.buffering.insert(v, encode_other(u, is_delete));
        self.updates_ingested += 1;
    }

    /// Ingest a whole stream of `(u, v, is_delete)` updates.
    pub fn ingest(&mut self, updates: impl IntoIterator<Item = (u32, u32, bool)>) {
        for (u, v, d) in updates {
            self.update(u, v, d);
        }
    }

    /// Drain all buffered updates into the sketches (paper Figure 9's
    /// `cleanup()`). What the buffering system still holds is applied by
    /// the system's fork-join pool with this thread as worker 0, no batch
    /// built: leaf gutters hand over their records where they lie, a gutter
    /// tree reads each last-level node once and hands over its leaves. The
    /// flush then waits until the Graph Workers have acknowledged every
    /// batch that overflowed before or during it. The store ends up the same
    /// bits by either route: XOR commutes, and both call one `apply_batch`.
    pub fn flush(&mut self) {
        if self.buffering.buffered_len() == 0 {
            self.queue.wait_idle();
            return;
        }
        let started = std::time::Instant::now();
        let (store, group_threads) = (&*self.store, self.config.group_threads);
        // Counted as applied: a tree leaf that fills during the drain leaves
        // by the queue, and its Graph Worker counts it.
        let records = gz_gutters::Counter::default();
        let apply = |node: u32, batch: &[u32]| {
            records.add(batch.len() as u64);
            apply_batch(store, node, batch, group_threads);
        };
        let batches = self.buffering.drain_in_place(&self.pool, &apply);
        self.counters.record_batches(batches as u64, records.get());
        self.queue.wait_idle();
        self.counters.record_flush(started);
    }

    /// Compute a spanning forest of the current graph (paper
    /// `list_spanning_forest()`); leaves the system ready for more updates.
    ///
    /// Flushes, then folds round slices straight out of the store, keeping
    /// only per-live-supernode accumulators resident — partitioned across
    /// the system's pool (slot ranges in RAM; windows of positioned group
    /// reads claimed from a shared cursor on disk, at one thread as at
    /// many). Answers are bit-identical at any pool width.
    pub fn spanning_forest(&mut self) -> Result<BoruvkaOutcome, GzError> {
        self.flush();
        self.fold(StoreRoundSource::new(&self.store))
    }

    /// The reference [`Self::spanning_forest`] is tested against: flush,
    /// materialize every node's full sketch stack (peak `O(V × full
    /// sketch)` RAM), then run Boruvka over the copy. No configuration
    /// selects it; tests and benches call it by name.
    pub fn spanning_forest_oracle(&mut self) -> Result<BoruvkaOutcome, GzError> {
        self.flush();
        self.fold(MaterializedSource::new(self.store.snapshot()))
    }

    /// Run the Borůvka engine over `source` on the system's pool.
    fn fold<Src: SketchSource>(&self, mut source: Src) -> Result<BoruvkaOutcome, GzError>
    where
        Src::Sampler: Send + Sync,
    {
        boruvka_rounds_with_pool(
            &mut source,
            self.config.num_nodes,
            self.params.rounds(),
            &self.pool,
        )
    }

    /// Seal the current sketch state into an epoch: flush buffered updates,
    /// then hand back a self-contained [`SketchEpoch`] whose queries return
    /// answers bit-identical to a stop-the-world query right now — even
    /// while this system keeps ingesting. The handle is `Send + Sync`, so a
    /// query thread can run `epoch.spanning_forest()` concurrently with
    /// further [`Self::update`] calls, folding on this system's pool;
    /// dropping the handle releases the sealed groups it pinned (DESIGN.md
    /// §11).
    pub fn begin_epoch(&mut self) -> Result<SketchEpoch, GzError> {
        self.flush();
        let (id, overlay) = self.store.begin_epoch()?;
        Ok(SketchEpoch::new(Arc::clone(&self.store), overlay, id, Arc::clone(&self.pool)))
    }

    /// Compute connected components of the current graph.
    pub fn connected_components(&mut self) -> Result<ConnectedComponents, GzError> {
        Ok(ConnectedComponents { outcome: self.spanning_forest()? })
    }

    /// Number of stream updates ingested so far.
    pub fn updates_ingested(&self) -> u64 {
        self.updates_ingested
    }

    /// Batches applied so far, by the Graph Workers or by a flush in place.
    pub fn batches_applied(&self) -> u64 {
        self.counters.batches()
    }

    /// Batches and records applied, and what the flushes cost
    /// (`gz components --stats`).
    pub fn ingest_counters(&self) -> &IngestCounters {
        &self.counters
    }

    /// Total sketch bytes (the paper's Figure 11 memory accounting). With a
    /// hybrid store (`config.sketch_threshold > 0`) this is the *resident*
    /// payload: dense bytes for promoted nodes plus the exact toggle-sets
    /// of the still-sparse ones.
    pub fn sketch_bytes(&self) -> usize {
        self.store.sketch_bytes()
    }

    /// Representation census of the store: promoted vs sparse node counts
    /// and sparse entries (`gz components --stats`, memory accounting).
    pub fn rep_stats(&self) -> RepStats {
        self.store.rep_stats()
    }

    /// Approximate total memory footprint: sketches (when in RAM) plus
    /// buffering capacity. The disk backend keeps dense sketches on disk,
    /// but its sparse toggle-sets live in RAM and are counted here.
    pub fn memory_bytes(&self) -> usize {
        let sketch_ram = match self.config.store {
            StoreBackend::Ram => self.store.sketch_bytes(),
            StoreBackend::Disk { .. } => self.store.rep_stats().sparse_bytes(),
        };
        sketch_ram + self.buffer_capacity_bytes
    }

    /// I/O counters of the sketch store (disk backend only).
    pub fn store_io(&self) -> Option<Arc<IoStats>> {
        self.store.io_stats()
    }

    /// The sketch store (group layout, I/O accounting — the experiment
    /// suite inspects it to verify the streaming query's I/O bounds).
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// I/O counters of the gutter tree (gutter-tree buffering only).
    pub fn gutter_io(&self) -> Option<Arc<IoStats>> {
        self.gutter_io.clone()
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &GzConfig {
        &self.config
    }

    /// Shared sketch parameters (geometry, rounds).
    pub fn params(&self) -> &Arc<SketchParams> {
        &self.params
    }

    /// Flush, then serialize every node's sketch (indexed by node id).
    /// Serialization is a pure function of the ingested update multiset, so
    /// any two deployments fed the same stream — whatever their buffering,
    /// store, worker count, or sharding — produce bit-identical output;
    /// the equivalence suite and the multi-process sharding demo compare
    /// against this.
    pub fn snapshot_serialized(&mut self) -> Vec<Vec<u8>> {
        self.flush();
        let params = Arc::clone(&self.params);
        self.snapshot_sketches()
            .iter()
            .map(|sketch| {
                let mut bytes = Vec::with_capacity(params.node_sketch_serialized_bytes());
                params.serialize_node_sketch(sketch, &mut bytes);
                bytes
            })
            .collect()
    }

    /// Owned copies of all node sketches (checkpointing). Callers should
    /// [`Self::flush`] first so buffered updates are included.
    pub(crate) fn snapshot_sketches(&self) -> Vec<crate::node_sketch::CubeNodeSketch> {
        self.store
            .snapshot()
            .into_iter()
            .map(|s| s.expect("store snapshot holds every node"))
            .collect()
    }

    /// Replace all sketch state (checkpoint restore).
    pub(crate) fn load_sketches(
        &mut self,
        sketches: Vec<crate::node_sketch::CubeNodeSketch>,
        updates_ingested: u64,
    ) {
        self.store.load_all(sketches);
        self.updates_ingested = updates_ingested;
    }

    /// Shut down: close the queue and join the Graph Workers. Called
    /// automatically on drop; explicit form surfaces worker panics.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        if let Some(workers) = self.workers.take() {
            workers.join();
        }
    }
}

impl Drop for GraphZeppelin {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GutterCapacity;

    fn tiny_config(num_nodes: u64) -> GzConfig {
        let mut c = GzConfig::in_ram(num_nodes);
        c.num_workers = 2;
        c
    }

    #[test]
    fn empty_graph_is_all_singletons() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        let cc = gz.connected_components().unwrap();
        assert_eq!(cc.num_components(), 8);
        assert!(cc.spanning_forest().is_empty());
    }

    #[test]
    fn triangle_plus_edge() {
        let mut gz = GraphZeppelin::new(tiny_config(16)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(1, 2);
        gz.edge_update(2, 0);
        gz.edge_update(9, 10);
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
        assert!(cc.same_component(9, 10));
        assert!(!cc.same_component(0, 9));
        // 11 singletons + the triangle + the pair.
        assert_eq!(cc.num_components(), 13);
        assert_eq!(cc.spanning_forest().len(), 3);
    }

    #[test]
    fn deletion_disconnects() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.update(0, 1, false);
        gz.update(1, 2, false);
        let cc1 = gz.connected_components().unwrap();
        assert!(cc1.same_component(0, 2));
        // Delete the bridge (toggle it off).
        gz.update(1, 2, true);
        let cc2 = gz.connected_components().unwrap();
        assert!(cc2.same_component(0, 1));
        assert!(!cc2.same_component(1, 2));
    }

    #[test]
    fn queries_are_repeatable_and_nondestructive() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(3, 4);
        let a = gz.connected_components().unwrap();
        let b = gz.connected_components().unwrap();
        assert_eq!(a.labels(), b.labels());
        // And ingestion continues to work after queries.
        gz.edge_update(4, 5);
        let c = gz.connected_components().unwrap();
        assert!(c.same_component(3, 5));
    }

    #[test]
    fn update_counts() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(0, 2);
        assert_eq!(gz.updates_ingested(), 2);
        gz.flush();
        assert!(gz.batches_applied() > 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(3, 3);
    }

    #[test]
    fn tiny_buffers_behave_like_unbuffered() {
        let mut c = tiny_config(8);
        c.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(1) };
        let mut gz = GraphZeppelin::new(c).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(1, 2);
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
    }

    /// The product query against the materialize-everything oracle, on
    /// every field of the outcome that is an answer.
    fn assert_matches_oracle(gz: &mut GraphZeppelin) -> (BoruvkaOutcome, BoruvkaOutcome) {
        let oracle = gz.spanning_forest_oracle().unwrap();
        let product = gz.spanning_forest().unwrap();
        assert_eq!(product.labels, oracle.labels);
        assert_eq!(product.forest, oracle.forest);
        assert_eq!(product.rounds_used, oracle.rounds_used);
        assert_eq!(product.sketch_failures, oracle.sketch_failures);
        (product, oracle)
    }

    #[test]
    fn query_bit_identical_to_oracle() {
        let mut gz = GraphZeppelin::new(tiny_config(24)).unwrap();
        for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 3), (5, 6), (8, 9), (9, 10), (10, 8)] {
            gz.edge_update(u, v);
        }
        assert_matches_oracle(&mut gz);
    }

    #[test]
    fn default_configs_fold_in_place() {
        // `in_ram` and `on_disk`, nothing else set: the facade's query is
        // the in-place fold — the oracle's answer at a footprint the
        // oracle (every full stack resident) cannot match.
        let dir = gz_testutil::TempDir::new("gz-system-default-mode");
        for config in [GzConfig::in_ram(64), GzConfig::on_disk(64, dir.path().to_path_buf())] {
            let mut gz = GraphZeppelin::new(config).unwrap();
            for i in 0..40u32 {
                gz.edge_update(i, i + 1);
            }
            let (product, oracle) = assert_matches_oracle(&mut gz);
            assert!(
                product.peak_sketch_bytes < oracle.peak_sketch_bytes,
                "default query held {} bytes, the oracle {}",
                product.peak_sketch_bytes,
                oracle.peak_sketch_bytes
            );
        }
    }

    #[test]
    fn query_on_disk_store_keeps_less_resident_than_oracle() {
        let dir = gz_testutil::TempDir::new("gz-system-streamq");
        let mut c = tiny_config(64);
        c.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 1 << 13,
            cache_groups: 2,
        };
        c.num_workers = 1;
        let mut gz = GraphZeppelin::new(c).unwrap();
        for i in 0..63u32 {
            gz.edge_update(i, i + 1);
        }
        let (product, oracle) = assert_matches_oracle(&mut gz);
        assert!(
            product.peak_sketch_bytes < oracle.peak_sketch_bytes,
            "fold resident {} must undercut the oracle's {}",
            product.peak_sketch_bytes,
            oracle.peak_sketch_bytes
        );
        // One query worker: an accumulator per vertex at most, plus one
        // window of group slices, which the cache budget (2 groups) caps.
        let SketchStore::Disk(disk) = gz.store() else { panic!("configured on disk") };
        let slice = gz.params().round_serialized_bytes(0);
        let bound = 64 * slice + 2 * disk.group_size() as usize * slice;
        assert!(
            product.peak_sketch_bytes <= bound,
            "one-thread fold resident {} exceeds accumulators + one window = {bound}",
            product.peak_sketch_bytes
        );
    }

    #[test]
    fn memory_accounting_positive() {
        let gz = GraphZeppelin::new(tiny_config(32)).unwrap();
        assert!(gz.sketch_bytes() > 0);
        assert!(gz.memory_bytes() >= gz.sketch_bytes());
    }

    #[test]
    fn hybrid_store_matches_dense_and_shrinks_memory() {
        // τ=4 hybrid vs τ=0 dense on a sparse star: identical serialized
        // state (promotion-by-replay), answers, and a strictly smaller
        // resident sketch footprint while most nodes stay sparse.
        let mut dense_cfg = tiny_config(64);
        dense_cfg.sketch_threshold = 0;
        let mut hybrid_cfg = tiny_config(64);
        hybrid_cfg.sketch_threshold = 4;
        let mut dense = GraphZeppelin::new(dense_cfg).unwrap();
        let mut hybrid = GraphZeppelin::new(hybrid_cfg).unwrap();
        for i in 1..20u32 {
            dense.edge_update(0, i); // hub 0 crosses τ, leaves stay sparse
            hybrid.edge_update(0, i);
        }
        assert_eq!(dense.snapshot_serialized(), hybrid.snapshot_serialized());
        let (a, b) =
            (dense.connected_components().unwrap(), hybrid.connected_components().unwrap());
        assert_eq!(a.labels(), b.labels());
        let stats = hybrid.rep_stats();
        assert_eq!(stats.promoted, 1, "only the hub crosses τ");
        assert_eq!(stats.sparse, 63);
        assert!(hybrid.sketch_bytes() * 5 <= dense.sketch_bytes(), "≥5× resident reduction");
        // Queries fold sparse nodes in place from their sets.
        assert_matches_oracle(&mut hybrid);
    }

    #[test]
    fn second_toggle_deletes() {
        // The invariant tests/equivalence.rs relies on: repeating an
        // `edge_update` toggles the edge back out of the graph.
        let mut gz = GraphZeppelin::new(tiny_config(8)).unwrap();
        gz.edge_update(0, 1);
        gz.edge_update(1, 2);
        gz.edge_update(0, 1); // second toggle = deletion
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(1, 2));
        assert!(!cc.same_component(0, 1));
        // A third toggle re-inserts.
        gz.edge_update(0, 1);
        let cc = gz.connected_components().unwrap();
        assert!(cc.same_component(0, 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gz_graph::connectivity::{connected_components_dsu, same_partition};
    use gz_graph::{AdjacencyList, Edge};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// edge_update toggle semantics against an explicit mirror: applying
        /// an arbitrary pair sequence (with repeats, so second toggles occur)
        /// must leave GraphZeppelin's partition equal to the partition of the
        /// toggled adjacency list.
        #[test]
        fn toggle_stream_matches_adjacency_mirror(
            raw in proptest::collection::vec((0u32..12, 0u32..12), 1..120)
        ) {
            let n = 12u64;
            let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
            let mut mirror = AdjacencyList::new(n as usize);
            for &(a, b) in raw.iter().filter(|(a, b)| a != b) {
                gz.edge_update(a, b);
                mirror.toggle(Edge::new(a, b));
            }
            let cc = gz.connected_components().unwrap();
            let truth = connected_components_dsu(&mirror);
            prop_assert!(
                same_partition(cc.labels(), &truth),
                "gz={:?} truth={:?}",
                cc.labels(),
                truth
            );
        }
    }
}
