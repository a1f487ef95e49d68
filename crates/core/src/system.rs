//! The [`GraphZeppelin`] facade: the paper's user-facing API
//! (`edge_update()` / `list_spanning_forest()`, Figures 8–9).
//!
//! There is one system type, and this is it at one shard: a
//! [`ShardedGraphZeppelin`] whose single shard is in this process, behind
//! an [`InProcessTransport`] (DESIGN.md §7). The facade only adapts: it maps
//! a [`GzConfig`] onto that shard's [`ShardConfig`], makes ingestion
//! infallible — an in-process shard refuses nothing, so the only errors it
//! can meet are a gutter tree's failed file reads and writes, which panic
//! here — and keeps the shard's store at hand for what reads it whole:
//! [`GraphZeppelin::store`], the materializing oracle, the memory bound and
//! the checkpoint it writes as shard 0 of 1. Everything else is the
//! system's, through `Deref`.

use crate::boruvka::{boruvka_rounds_with_pool, BoruvkaOutcome};
use crate::config::{BufferStrategy, GzConfig, StoreBackend};
use crate::error::GzError;
use crate::sharding::{InProcessTransport, ShardConfig, ShardedGraphZeppelin};
use crate::store::{MaterializedSource, RepStats, SketchStore};
use gz_graph::Edge;
use gz_gutters::IoStats;
use std::path::Path;
use std::sync::Arc;

/// Why an in-process shard's ingestion can fail: a gutter tree's file.
const TREE_FILE: &str = "gutter tree flush failed";

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

/// A facade's system: one in-process shard, the config's fields as they
/// are, and no checkpoint cadence.
impl From<&GzConfig> for ShardConfig {
    fn from(config: &GzConfig) -> ShardConfig {
        ShardConfig {
            num_nodes: config.num_nodes,
            num_shards: 1,
            seed: config.seed,
            num_rounds: config.num_rounds,
            num_columns: config.num_columns,
            workers_per_shard: config.num_workers,
            store: config.store.clone(),
            sketch_threshold: config.sketch_threshold,
            buffering: config.buffering.clone(),
            checkpoint_dir: None,
            checkpoint_every: None,
        }
    }
}

/// The GraphZeppelin system: buffered, parallel sketch ingestion plus
/// sketch-space Boruvka queries. Derefs to its [`ShardedGraphZeppelin`]
/// for everything the facade does not adapt (`spanning_forest`,
/// `begin_epoch`, `updates_ingested`, `state_digest`, `params`, ...).
pub struct GraphZeppelin {
    config: GzConfig,
    system: ShardedGraphZeppelin,
    /// The one shard's store.
    store: Arc<SketchStore>,
}

impl std::ops::Deref for GraphZeppelin {
    type Target = ShardedGraphZeppelin;

    fn deref(&self) -> &ShardedGraphZeppelin {
        &self.system
    }
}

impl std::ops::DerefMut for GraphZeppelin {
    fn deref_mut(&mut self) -> &mut ShardedGraphZeppelin {
        &mut self.system
    }
}

impl GraphZeppelin {
    /// Build the system described by `config` and start its Graph Workers.
    pub fn new(config: GzConfig) -> Result<Self, GzError> {
        config.validate()?;
        let shard = ShardConfig::from(&config);
        let transport = InProcessTransport::new(&shard)?;
        let store = Arc::clone(transport.store(0));
        let system = ShardedGraphZeppelin::with_transport(shard, Box::new(transport))?;
        Ok(GraphZeppelin { config, system, store })
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
    /// buffering layer for debugging. Panics on a self-loop or an endpoint
    /// outside the universe.
    #[inline(always)]
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) {
        self.system.update(u, v, is_delete).expect(TREE_FILE)
    }

    /// Ingest a whole stream of `(u, v, is_delete)` updates.
    pub fn ingest(&mut self, updates: impl IntoIterator<Item = (u32, u32, bool)>) {
        self.system.ingest(updates).expect(TREE_FILE)
    }

    /// Drain all buffered updates into the sketches (paper Figure 9's
    /// `cleanup()`; [`ShardedGraphZeppelin::flush`]).
    pub fn flush(&mut self) {
        self.system.flush().expect(TREE_FILE)
    }

    /// [`ShardedGraphZeppelin::graph_digest`]. A system restored from a
    /// checkpoint resumes the digest the file carries (a legacy `GZC2` file
    /// carries none: it starts empty).
    pub fn graph_digest(&mut self) -> gz_graph::GraphDigest {
        self.system.graph_digest().expect(TREE_FILE)
    }

    /// The reference [`ShardedGraphZeppelin::spanning_forest`] is tested
    /// against: flush, materialize every node's full sketch stack (peak
    /// `O(V × full sketch)` RAM), then run Boruvka over the copy. No
    /// configuration selects it; tests and benches call it by name.
    pub fn spanning_forest_oracle(&mut self) -> Result<BoruvkaOutcome, GzError> {
        self.flush();
        let mut source = MaterializedSource::new(self.store.snapshot());
        let rounds = self.params().rounds();
        boruvka_rounds_with_pool(&mut source, self.config.num_nodes, rounds, self.system.pool())
    }

    /// Compute connected components of the current graph.
    pub fn connected_components(&mut self) -> Result<ConnectedComponents, GzError> {
        Ok(ConnectedComponents { outcome: self.spanning_forest()? })
    }

    /// [`ShardedGraphZeppelin::batches_shipped`]: batches that left the
    /// buffering system, for the Graph Workers or applied by a flush in place.
    pub fn batches_applied(&self) -> u64 {
        self.system.batches_shipped()
    }

    /// Resident sketch bytes of the store ([`SketchStore::sketch_bytes`]):
    /// promoted nodes' stacks at their resident words plus the exact
    /// toggle-sets of the still-sparse ones, wherever they live. The
    /// paper's Figure 11 accounting is [`crate::size_model`].
    pub fn sketch_bytes(&self) -> usize {
        self.store.sketch_bytes()
    }

    /// Representation census of the store (promoted vs sparse nodes).
    pub fn rep_stats(&self) -> RepStats {
        self.store.rep_stats()
    }

    /// Approximate total memory footprint: sketches (when in RAM) plus
    /// buffering capacity. The disk backend keeps dense sketches on disk,
    /// but its sparse toggle-sets live in RAM and are counted here. Leaf
    /// gutters are counted at their emit threshold times the node count,
    /// the paper's `M > V·B` bound, not the bytes resident: a leaf gutter
    /// reserves only as it fills. A gutter tree's RAM is its root buffer.
    pub fn memory_bytes(&self) -> usize {
        let sketch_ram = match self.config.store {
            StoreBackend::Ram => self.store.sketch_bytes(),
            StoreBackend::Disk { .. } => self.store.rep_stats().sparse_bytes(),
        };
        let buffers = match &self.config.buffering {
            BufferStrategy::LeafOnly { capacity } => {
                let records = capacity.resolve(self.params().node_sketch_bytes());
                records * 4 * self.config.num_nodes as usize
            }
            BufferStrategy::GutterTree { buffer_bytes, .. } => *buffer_bytes,
        };
        sketch_ram + buffers
    }

    /// The store's live I/O counters (disk backend only).
    pub fn store_io(&self) -> Option<Arc<IoStats>> {
        self.store.io_stats()
    }

    /// The sketch store (group layout, I/O accounting — the experiment
    /// suite inspects it to verify the streaming query's I/O bounds).
    pub fn store(&self) -> &SketchStore {
        &self.store
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &GzConfig {
        &self.config
    }

    /// Replace all sketch state with the checkpoint at `path`, a facade's
    /// (shard 0 of 1), and resume its graph digest — a legacy file carries
    /// none, so the digest starts empty — and its update count.
    pub(crate) fn resume(&mut self, path: &Path, updates_ingested: u64) -> Result<(), GzError> {
        let legacy_graph = Some(gz_graph::GraphDigest::ZERO);
        self.system.resume_shards_from(&[path.to_path_buf()], legacy_graph)?;
        self.system.restore_updates_ingested(updates_ingested);
        Ok(())
    }

    /// Shut down: stop the shard and join its Graph Workers. Called
    /// automatically on drop; explicit form surfaces worker panics.
    pub fn shutdown(self) {
        self.system.shutdown().expect("an in-process shard shuts down cleanly")
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
        let slice = gz.params().round_resident_bytes(0);
        let bound = 64 * slice + 2 * disk.group_size() as usize * slice;
        assert!(
            product.peak_sketch_bytes <= bound,
            "one-thread fold resident {} exceeds accumulators + one window = {bound}",
            product.peak_sketch_bytes
        );
    }

    #[test]
    fn state_digest_hashes_every_node_under_its_own_id() {
        // The digest is the XOR over nodes of xxh64(stack, node id): a node
        // left out, or a hash that ignores the id, must not pass. One edge
        // gives its two endpoints the same stack, so only the ids keep the
        // two hashes from cancelling back to the edgeless graph's digest.
        let reference = |gz: &GraphZeppelin| {
            let (mut want, mut nodes) = (0u64, 0u32);
            gz.store()
                .for_each_serialized(&mut |node, bytes| {
                    want ^= gz_hash::xxh64(bytes, u64::from(node));
                    nodes += 1;
                    Ok(())
                })
                .unwrap();
            assert_eq!(nodes, 16);
            want
        };
        let mut gz = GraphZeppelin::new(tiny_config(16)).unwrap();
        let edgeless = gz.state_digest().unwrap();
        assert_eq!(edgeless, reference(&gz), "edgeless");
        gz.edge_update(3, 9);
        let one_edge = gz.state_digest().unwrap();
        assert_eq!(one_edge, reference(&gz), "one edge");
        assert_ne!(one_edge, edgeless);
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
        assert_eq!(dense.state_digest().unwrap(), hybrid.state_digest().unwrap());
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
