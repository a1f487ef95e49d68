//! System configuration.
//!
//! Mirrors the tunables the paper exposes and sweeps: worker count (§6.4,
//! Figure 14), gutter sizing (Figure 15), buffering strategy (gutter tree vs
//! leaf-only, Figure 12) and sketch store placement (RAM vs SSD). The
//! sketch-level thread group of §6.4 is fixed at the paper's best size, one
//! (DESIGN.md §4).

use crate::error::GzError;
use crate::sharding::ShardConfig;
use std::path::PathBuf;

pub use gz_sketch::geometry::{DEFAULT_COLUMNS, PAPER_COLUMNS};

/// The master seed every constructor and CLI subcommand defaults to. One
/// constant, because the seed is in the parameter digest: a coordinator and
/// a worker whose defaults drifted apart would refuse each other.
pub const DEFAULT_SEED: u64 = 0x5EED_1E55;

/// How large each leaf gutter is: the record count at which a gutter is
/// emitted as one batch, and the per-node bound the paper's `M > V·B`
/// accounting charges. It is not what a gutter holds resident — a leaf
/// gutter reserves as it fills, from one cache line up to this count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GutterCapacity {
    /// A fraction `f` of the node-sketch size (the paper's knob; default
    /// 0.5 per §5.1, swept in Figure 15).
    SketchFactor(f64),
    /// An absolute number of buffered updates (Figure 16a uses 100).
    Updates(usize),
}

impl GutterCapacity {
    /// Resolve to a record count given the node-sketch size.
    pub fn resolve(self, node_sketch_bytes: usize) -> usize {
        match self {
            GutterCapacity::SketchFactor(f) => {
                ((node_sketch_bytes as f64 * f) / 4.0).ceil().max(1.0) as usize
            }
            GutterCapacity::Updates(n) => n.max(1),
        }
    }
}

/// Which buffering system routes updates to the Graph Workers (paper §5.1:
/// "GraphZeppelin implements two buffering data structures").
#[derive(Debug, Clone, PartialEq)]
pub enum BufferStrategy {
    /// In-RAM leaf-only gutters (used when memory allows, `M > V·B`).
    LeafOnly {
        /// Per-node gutter capacity.
        capacity: GutterCapacity,
    },
    /// The on-disk gutter tree (§4.1).
    GutterTree {
        /// Internal buffer size in bytes (paper: 8 MB).
        buffer_bytes: usize,
        /// Fan-out (paper: 512).
        fanout: usize,
        /// Leaf gutter capacity (paper: 2× node sketch).
        leaf_capacity: GutterCapacity,
        /// Directory for the backing file.
        dir: PathBuf,
    },
}

/// Where node sketches live.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreBackend {
    /// All sketches in RAM.
    Ram,
    /// Sketches in a file, accessed in node groups through an LRU cache —
    /// the measurable analogue of "sketches on SSD with limited RAM".
    Disk {
        /// Directory for the backing file.
        dir: PathBuf,
        /// Block size `B` in bytes; node groups hold `max(1, B/sketch)`
        /// nodes (paper §4.1).
        block_bytes: usize,
        /// Number of node groups the RAM cache may hold (the `M` knob).
        cache_groups: usize,
    },
}

/// Block size `B` of the paged store (`ShardConfig::paged_store`). A fold
/// reads one group's round slice a call and a flush writes each group
/// once, so `B` is what amortises the cost of a call: 176 KiB is 18 nodes
/// a group at V = 8192 (9 600 resident bytes a node), a ≈ 10.8 KB round
/// slice (DESIGN.md §13).
pub(crate) const DISK_BLOCK_BYTES: usize = 176 << 10;

/// Nodes whose sketches the paged store's cache holds, rounded up to
/// whole groups: the RAM budget `M`, an eighth of the store at V = 8192.
pub(crate) const DISK_CACHE_NODES: u64 = 1024;

/// `threads`, but no more than the host can run at once. Every *default*
/// thread count resolves through this — `num_workers`, `workers_per_shard`
/// and the CLI's `--workers`, which also size each system's fork-join pool —
/// because the batch kernel and the fold are both CPU-bound, so
/// oversubscribed workers only add hand-over cost. An explicit setting is
/// taken as given.
pub fn capped_at_host(threads: usize) -> usize {
    threads.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Batch-level locking discipline of a [`crate::store::SketchStore`] without
/// a file (paper §5.1's critical-section minimization), chosen where the
/// store is constructed. Every system store uses
/// [`LockingStrategy::DeltaSketch`], as a store with a file always does;
/// [`LockingStrategy::Direct`] exists for the ablation in
/// `figures/ablations.rs` and as the tests' reference store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockingStrategy {
    /// Hold the node-sketch lock for the whole batch application.
    Direct,
    /// Apply the batch to a worker-local scratch sketch without the lock,
    /// then lock only to XOR-merge (`S(x) = S(x) + S(x_0)`) — the paper's
    /// approach.
    DeltaSketch,
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct GzConfig {
    /// Number of vertices (or a loose upper bound on it; §2.2).
    pub num_nodes: u64,
    /// Master seed; the entire system is deterministic in it (up to worker
    /// scheduling, which never changes results thanks to sketch linearity).
    pub seed: u64,
    /// Graph Workers applying batches (paper `g`), and the width of the
    /// fork-join pool every flush, query and epoch fold runs on (DESIGN.md
    /// §4). The constructors default it to 4, capped at the host's available
    /// parallelism.
    pub num_workers: usize,
    /// Boruvka rounds = independent sketches per node. `None` =
    /// [`default_rounds`], `⌈log₂ V⌉ + 3` (the paper's `⌈log_{3/2} V⌉` is
    /// [`paper_rounds`]).
    pub num_rounds: Option<u32>,
    /// CubeSketch columns. The constructors set [`DEFAULT_COLUMNS`]; the
    /// paper's geometry is [`PAPER_COLUMNS`]. Every per-update cost and every
    /// stored byte is linear in it, and every checkpoint header and shard
    /// handshake carries it, so state built at one count is refused — never
    /// reinterpreted — by a system configured for another.
    pub num_columns: u32,
    /// Buffering system.
    pub buffering: BufferStrategy,
    /// Sketch store placement.
    pub store: StoreBackend,
    /// Hybrid sparse/dense threshold `τ` (DESIGN.md §12). A vertex starts
    /// as an exact toggle set of its live neighbors and is promoted to a
    /// real sketch stack — by replaying the set through the batch kernel,
    /// bit-identical to an always-dense run — once its live-set size
    /// exceeds `τ`. `0` (the default) keeps every vertex dense from the
    /// start: the exact pre-hybrid behavior, and the equivalence oracle
    /// the hybrid tests compare against.
    pub sketch_threshold: u32,
}

impl GzConfig {
    /// Default in-RAM configuration for `num_nodes` vertices: leaf-only
    /// gutters at factor 0.5, 4 workers (fewer on a smaller host),
    /// [`DEFAULT_COLUMNS`] sketch columns.
    pub fn in_ram(num_nodes: u64) -> Self {
        GzConfig {
            num_nodes,
            seed: DEFAULT_SEED,
            num_workers: capped_at_host(4),
            num_rounds: None,
            num_columns: DEFAULT_COLUMNS,
            buffering: BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(0.5) },
            store: StoreBackend::Ram,
            sketch_threshold: 0,
        }
    }

    /// On-disk configuration: file-backed sketches plus a gutter tree, both
    /// in `dir` (the paper's SSD deployment, §6.2). The store is
    /// [`ShardConfig::paged_store`]: 176 KiB node groups, and a cache of
    /// ≈ 1024 nodes, in whole groups (DESIGN.md §13).
    pub fn on_disk(num_nodes: u64, dir: PathBuf) -> Self {
        let config = GzConfig::in_ram(num_nodes);
        GzConfig {
            store: ShardConfig::from(&config).paged_store(dir.clone()),
            buffering: BufferStrategy::GutterTree {
                buffer_bytes: 1 << 20,
                fanout: 64,
                leaf_capacity: GutterCapacity::SketchFactor(2.0),
                dir,
            },
            ..config
        }
    }

    /// Number of Boruvka rounds (= sketches per node).
    pub fn rounds(&self) -> u32 {
        self.num_rounds.unwrap_or_else(|| default_rounds(self.num_nodes))
    }

    /// The node groups a disk store of all `num_nodes` vertices is cut into
    /// at block size `block_bytes`: `(nodes a group, groups)`, by the
    /// store's own rule (`store::disk::node_groups`).
    pub fn disk_groups(&self, block_bytes: usize) -> (u64, u64) {
        ShardConfig::from(self).disk_groups(block_bytes)
    }

    /// Validate invariants the system relies on.
    pub fn validate(&self) -> Result<(), GzError> {
        check_sketch_fields(self.num_nodes, self.rounds(), self.num_columns)
            .and_then(|()| check_buffering(&self.buffering))
            .map_err(GzError::InvalidConfig)?;
        if self.num_workers == 0 {
            return Err(GzError::InvalidConfig("need at least one Graph Worker".into()));
        }
        Ok(())
    }
}

/// Most rounds any configuration or checkpoint header accepts. Real
/// configurations sit orders of magnitude below this and the column cap, so
/// anything larger is a mistake or a corrupt file — refused before a
/// `Vec::with_capacity` turns it into an allocation.
const MAX_ROUNDS: u32 = 1 << 12;
/// Most CubeSketch columns any configuration or checkpoint header accepts.
const MAX_COLUMNS: u32 = 1 << 20;

/// The bounds on the sketch-defining fields, in one place: both configs'
/// `validate` and both checkpoint formats' header checks call this, so a
/// system never builds state its own restore would refuse.
pub(crate) fn check_sketch_fields(num_nodes: u64, rounds: u32, columns: u32) -> Result<(), String> {
    if !(2..=u64::from(u32::MAX)).contains(&num_nodes) {
        return Err(format!("num_nodes {num_nodes} outside [2, 2^32)"));
    }
    if !(1..=MAX_ROUNDS).contains(&rounds) {
        return Err(format!("rounds {rounds} outside [1, {MAX_ROUNDS}]"));
    }
    if !(1..=MAX_COLUMNS).contains(&columns) {
        return Err(format!("columns {columns} outside [1, {MAX_COLUMNS}]"));
    }
    Ok(())
}

/// The bound on the buffering fields, checked by both configs' `validate`:
/// a gutter tree's fan-out is at least two (a one-child level would never
/// narrow the records down to a leaf).
pub(crate) fn check_buffering(buffering: &BufferStrategy) -> Result<(), String> {
    match buffering {
        BufferStrategy::GutterTree { fanout, .. } if *fanout < 2 => {
            Err(format!("gutter tree fan-out {fanout} is below 2"))
        }
        _ => Ok(()),
    }
}

/// Rounds of slack above `⌈log₂ V⌉` that [`default_rounds`] provisions.
pub const SLACK_ROUNDS: u32 = 3;

/// The round budget a configuration gets unless it says otherwise:
/// `⌈log₂ V⌉ + 3`, capped at the paper's [`paper_rounds`] so no vertex count
/// gets more than the paper gives it. Borůvka needs `⌈log₂ V⌉` rounds when
/// every component finds an edge; the three more absorb sampler failures
/// (DESIGN.md §2, "The round budget", has the argument; EXPERIMENTS.md,
/// "Sketch geometry and the round budget", the measured tables).
pub fn default_rounds(num_nodes: u64) -> u32 {
    paper_rounds(num_nodes).min(log2_rounds(num_nodes) + SLACK_ROUNDS)
}

/// `⌈log₂ V⌉`, in integers: the rounds Borůvka needs when every live
/// component finds a cut edge every round, halving their number.
pub fn log2_rounds(num_nodes: u64) -> u32 {
    u64::BITS - num_nodes.saturating_sub(1).leading_zeros()
}

/// The paper's round budget: `⌈log_{3/2} V⌉` (Figure 9's
/// `log_{3/2}(num_nodes)` failure threshold). Kept beside
/// [`PAPER_COLUMNS`] for everything that reproduces a paper number.
pub fn paper_rounds(num_nodes: u64) -> u32 {
    if num_nodes <= 2 {
        return 1;
    }
    ((num_nodes as f64).ln() / 1.5f64.ln()).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rounds_growth() {
        for v in [0, 1, 2] {
            assert_eq!((paper_rounds(v), default_rounds(v)), (1, 1), "V = {v}");
        }
        // log_{3/2}(1024) ≈ 17.09 -> 18; log₂(1024) + 3 = 13.
        assert_eq!((paper_rounds(1024), default_rounds(1024)), (18, 13));
        // log_{3/2}(8192) ≈ 22.23 -> 23; log₂(8192) + 3 = 16.
        assert_eq!((paper_rounds(8192), default_rounds(8192)), (23, 16));
        // One past a power of two rounds the log up.
        assert_eq!(default_rounds(8193), 17);
        // Small graphs keep the paper's count, which is the smaller there.
        assert_eq!((paper_rounds(16), default_rounds(16)), (7, 7));
        for v in 2..=(1u64 << 17) {
            assert!(default_rounds(v) <= paper_rounds(v), "V = {v}");
        }
        assert!(default_rounds(1 << 17) > default_rounds(1 << 13));
    }

    #[test]
    fn gutter_capacity_resolution() {
        assert_eq!(GutterCapacity::SketchFactor(0.5).resolve(8000), 1000);
        assert_eq!(GutterCapacity::Updates(100).resolve(8000), 100);
        assert_eq!(GutterCapacity::SketchFactor(0.0).resolve(8000), 1);
        assert_eq!(GutterCapacity::Updates(0).resolve(8000), 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(GzConfig::in_ram(64).validate().is_ok());
        assert!(GzConfig::in_ram(1).validate().is_err());
        let mut c = GzConfig::in_ram(64);
        c.num_workers = 0;
        assert!(c.validate().is_err());
        let mut c = GzConfig::in_ram(64);
        c.num_columns = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_thread_counts_are_clamped_to_the_host() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(capped_at_host(cores + 7), cores, "a default never oversubscribes");
        assert_eq!(capped_at_host(1), 1);
        let c = GzConfig::in_ram(64);
        assert_eq!(c.num_workers, cores.min(4), "default Graph Workers never oversubscribe");
    }

    #[test]
    fn a_gutter_tree_fanout_below_two_is_refused() {
        let dir = gz_testutil::TempDir::new("gz-config-fanout");
        for fanout in [0, 1] {
            let mut c = GzConfig::on_disk(64, dir.path().to_path_buf());
            let BufferStrategy::GutterTree { fanout: f, .. } = &mut c.buffering else {
                panic!("on_disk buffers in a gutter tree")
            };
            *f = fanout;
            let mut shard = crate::ShardConfig::in_ram(64, 2);
            shard.buffering = c.buffering.clone();
            for refused in [
                c.validate(),
                crate::GraphZeppelin::new(c).map(drop),
                shard.validate(),
                crate::ShardedGraphZeppelin::in_process(shard).map(drop),
            ] {
                match refused {
                    Err(GzError::InvalidConfig(why)) => assert!(why.contains("fan-out"), "{why}"),
                    other => panic!("fan-out {fanout}: {other:?}"),
                }
            }
        }
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 0, "nothing was built");
    }

    #[test]
    fn on_disk_moves_176_kib_groups_and_caches_about_1024_nodes() {
        // (V, nodes a group, groups): 9 600 resident bytes a node at 8192
        // (16 rounds × 25 rows × 3 columns × 8 B), 8 280 at 4096.
        for (v, group, groups) in [(4096u64, 21u64, 196u64), (8192, 18, 456)] {
            let c = GzConfig::on_disk(v, std::env::temp_dir());
            let StoreBackend::Disk { block_bytes, cache_groups, .. } = c.store else {
                panic!("on_disk stores on disk")
            };
            assert_eq!(c.disk_groups(block_bytes), (group, groups), "V = {v}");
            let cached = cache_groups as u64 * group;
            assert!((1024..1024 + group).contains(&cached), "V = {v}: cache of {cached} nodes");
            if v == 8192 {
                assert_eq!(cache_groups, 57);
                assert!(groups >= 8 * cache_groups as u64, "the store is at least 8× its cache");
            }
        }
    }

    #[test]
    fn on_disk_config_uses_tree_and_disk_store() {
        let c = GzConfig::on_disk(1024, std::env::temp_dir());
        assert!(matches!(c.store, StoreBackend::Disk { .. }));
        assert!(matches!(c.buffering, BufferStrategy::GutterTree { .. }));
        assert!(c.validate().is_ok());
    }
}
