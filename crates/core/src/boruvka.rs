//! Sketch-space Boruvka: query processing (paper §2.2, §4.2, Figure 9).
//!
//! Each round queries the current round's sketch of every live supernode;
//! every recovered edge crosses a supernode cut (internal edges cancel under
//! sketch addition), so its endpoints' components merge. Components whose
//! sketch reports an empty cut are maximal and retire. The paper budgets
//! `log_{3/2} V` rounds; exceeding it is the `algorithm_fails` event with
//! probability `≤ 1/V^c`.
//!
//! The engine is *round-driven*: round `r` has a [`SketchSource`] fold only
//! round `r` of every live vertex into that vertex's supernode accumulator
//! — a dense vertex's round slice is merged in as it streams past, a sparse
//! vertex's exact edge set is XORed in directly
//! (`sparse::SparseRoundBatch`). Because sketch merging is a
//! per-round XOR, the accumulator of a supernode is bit-identical to
//! round `r` of the merged sketch stack the materialized algorithm would
//! hold — so every source (a RAM snapshot, a disk store reading windows
//! of groups, a shard fleet shipping round frames) produces the same
//! labels, while peak query memory drops from `O(V × full sketch)` to
//! `O(live components × one round)` plus the source's buffers.
//!
//! The engine is also *parallel* (DESIGN.md §10): each round's fold is
//! partitioned across a [`gz_gutters::WorkerPool`] — every worker folds its
//! share of the round slices into a thread-local [`RoundSink`], and the
//! sinks are XOR-merged in worker order before sampling. XOR is commutative
//! and associative at the bit level, so the merged accumulator — and hence
//! every sampled edge, retirement decision, and failure count — is
//! independent of thread count and partitioning *by construction*: the
//! parallel query is bit-identical to the single-threaded one. Sampling
//! (phase 1b) is likewise partitioned over contiguous supernode ranges and
//! the per-worker results concatenated in worker order, preserving the
//! serial processing order exactly. Only the DSU merge step stays
//! sequential.

use crate::error::GzError;
use crate::node_sketch::NodeSketch;
use crate::store::{MaterializedSource, SketchSource};
use gz_dsu::Dsu;
use gz_graph::{index_to_edge, Edge};
use gz_gutters::WorkerPool;
use gz_sketch::{L0Sampler, SampleResult};
use parking_lot::Mutex;

/// Result of a successful sketch-connectivity computation.
#[derive(Debug, Clone)]
pub struct BoruvkaOutcome {
    /// Spanning-forest edges (the streaming CC problem's required output).
    pub forest: Vec<Edge>,
    /// Component label per vertex, normalized to the minimum member id.
    pub labels: Vec<u32>,
    /// Boruvka rounds executed.
    pub rounds_used: usize,
    /// Individual sketch-query failures survived along the way (a query
    /// failure only delays a component to the next round; the run fails
    /// only when the round budget is exhausted).
    pub sketch_failures: usize,
    /// Sketch queries that had something to find — every sample that was not
    /// `Zero`, failures included — so `sketch_failures / sketch_samples` is
    /// the measured per-sketch failure rate δ.
    pub sketch_samples: usize,
    /// Peak sketch bytes resident during the query: supernode accumulators
    /// plus whatever the source buffered (a full materialization for the
    /// snapshot path; a round's in-flight read windows for the streaming
    /// paths).
    pub peak_sketch_bytes: usize,
}

impl BoruvkaOutcome {
    /// Number of connected components: one `O(n)` pass over the labels with
    /// a seen-bitmap (labels are normalized minimum member ids, so they
    /// index the vertex range).
    pub fn num_components(&self) -> usize {
        let mut seen = vec![false; self.labels.len()];
        let mut count = 0usize;
        for &label in &self.labels {
            if !seen[label as usize] {
                seen[label as usize] = true;
                count += 1;
            }
        }
        count
    }
}

/// One query worker's fold target for one Borůvka round: a per-supernode
/// accumulator vector plus the round's supernode map. Sources fold each
/// node's round contribution into exactly one sink (any sink — XOR
/// commutes); the engine XOR-merges the sinks in worker order afterwards,
/// which makes the merged accumulators bit-identical to a single-threaded
/// fold.
pub struct RoundSink<'a, S> {
    root_of: &'a [u32],
    retired: &'a [bool],
    acc: Vec<Option<S>>,
    acc_bytes: usize,
}

impl<'a, S: L0Sampler + Clone> RoundSink<'a, S> {
    pub(crate) fn new(root_of: &'a [u32], retired: &'a [bool]) -> Self {
        RoundSink {
            root_of,
            retired,
            acc: (0..root_of.len()).map(|_| None).collect(),
            acc_bytes: 0,
        }
    }

    /// The per-supernode accumulators folded so far (store-level tests).
    #[cfg(test)]
    pub(crate) fn accumulators(self) -> Vec<Option<S>> {
        self.acc
    }

    /// Fold `node`'s round slice into its supernode's accumulator (a no-op
    /// for retired supernodes).
    #[inline]
    pub fn fold(&mut self, node: u32, slice: &S) {
        let Some(root) = self.live_root(node) else { return };
        match &mut self.acc[root as usize] {
            Some(acc) => acc.merge_from(slice),
            slot => {
                self.acc_bytes += slice.payload_bytes();
                *slot = Some(slice.clone());
            }
        }
    }

    /// [`Self::fold`] for a slice the caller built for this call (a
    /// deserialized read or wire entry): the first slice to reach a
    /// supernode *becomes* its accumulator instead of being cloned into one.
    #[inline]
    pub fn fold_owned(&mut self, node: u32, slice: S) {
        let Some(root) = self.live_root(node) else { return };
        match &mut self.acc[root as usize] {
            Some(acc) => acc.merge_from(&slice),
            slot => {
                self.acc_bytes += slice.payload_bytes();
                *slot = Some(slice);
            }
        }
    }

    /// `node`'s supernode root this round, or `None` once that supernode
    /// has retired.
    #[inline]
    pub(crate) fn live_root(&self, node: u32) -> Option<u32> {
        let root = self.root_of[node as usize];
        (!self.retired[root as usize]).then_some(root)
    }

    /// The accumulator of live supernode `root`, started from `empty()` on
    /// first touch — the in-place fold's entry point: sparse vertices XOR
    /// their edge indices straight into it (see
    /// [`crate::sparse::SparseRoundBatch`]).
    #[inline]
    pub(crate) fn accumulator(&mut self, root: u32, empty: impl FnOnce() -> S) -> &mut S {
        debug_assert!(!self.retired[root as usize], "retired supernodes are never folded");
        let acc_bytes = &mut self.acc_bytes;
        self.acc[root as usize].get_or_insert_with(|| {
            let acc = empty();
            *acc_bytes += acc.payload_bytes();
            acc
        })
    }
}

/// XOR-merge per-worker sinks in worker order into one accumulator vector.
/// Returns the merged accumulators plus the summed per-sink payload bytes
/// (the true peak: all sinks were resident simultaneously during the fold).
fn merge_sinks<S: L0Sampler + Clone>(
    sinks: Vec<Mutex<RoundSink<'_, S>>>,
) -> (Vec<Option<S>>, usize) {
    let mut iter = sinks.into_iter().map(|m| m.into_inner());
    let first = iter.next().expect("at least one sink");
    let mut acc = first.acc;
    let mut acc_bytes = first.acc_bytes;
    for sink in iter {
        acc_bytes += sink.acc_bytes;
        for (slot, other) in acc.iter_mut().zip(sink.acc) {
            let Some(b) = other else { continue };
            match slot {
                Some(a) => a.merge_from(&b),
                None => *slot = Some(b),
            }
        }
    }
    (acc, acc_bytes)
}

/// Run the round-driven Boruvka engine over any [`SketchSource`] on the
/// calling thread: [`boruvka_rounds_with_pool`] on a one-worker pool, which
/// spawns no thread (and bit-identical to it at any width).
pub fn boruvka_rounds<Src: SketchSource>(
    source: &mut Src,
    num_vertices: u64,
    max_rounds: usize,
) -> Result<BoruvkaOutcome, GzError>
where
    Src::Sampler: Send + Sync,
{
    boruvka_rounds_with_pool(source, num_vertices, max_rounds, &WorkerPool::new(1))
}

/// Run the round-driven Boruvka engine over any [`SketchSource`], with each
/// round's fold and sampling partitioned across `pool`'s workers — the
/// system's kept pool, so no query spawns a thread.
///
/// Per round: compute every vertex's current supernode root, stream the
/// round's slices folding them into per-worker [`RoundSink`]s (partitioned
/// by the source — by slot range in stores, by node group on disk, by
/// gathered reply in socket shard fleets), XOR-merge the sinks, sample one cut
/// edge per live supernode across contiguous supernode ranges, then merge
/// endpoint components sequentially. The output is bit-identical across
/// sources *and* pool widths fed the same sketch state (see the module docs
/// for the argument).
pub fn boruvka_rounds_with_pool<Src: SketchSource>(
    source: &mut Src,
    num_vertices: u64,
    max_rounds: usize,
    pool: &WorkerPool,
) -> Result<BoruvkaOutcome, GzError>
where
    Src::Sampler: Send + Sync,
{
    let n = num_vertices as usize;
    let mut dsu = Dsu::new(n);
    // Retired components: cut known empty; never query again. A retired
    // component can never be merged into, because a cut edge would appear
    // in both sides' sketches.
    let mut retired = vec![false; n];
    let mut forest: Vec<Edge> = Vec::new();
    let mut sketch_failures = 0usize;
    let mut sketch_samples = 0usize;
    let mut rounds_used = 0usize;
    let mut peak_sketch_bytes = 0usize;

    // If exactly one unretired component remains, it cannot have any cut
    // edges (all other components' cuts are provably empty), so it retires
    // without a query. This both saves a round and lets a fully-merged graph
    // finish inside the exact `log_{3/2}V` budget.
    let retire_last_live = |dsu: &mut Dsu, retired: &mut Vec<bool>| {
        let live: Vec<u32> =
            (0..n as u32).filter(|&v| dsu.find(v) == v && !retired[v as usize]).collect();
        if let [only] = live[..] {
            retired[only as usize] = true;
        }
    };

    for round in 0..max_rounds {
        retire_last_live(&mut dsu, &mut retired);
        rounds_used = round + 1;

        // Supernode root of every vertex, fixed for the round (the fold and
        // the source's group-skipping liveness test both read it).
        let root_of: Vec<u32> = (0..n as u32).map(|v| dsu.find(v)).collect();

        let mut found: Vec<Edge> = Vec::new();
        let mut any_live = false;

        if round >= source.num_rounds() {
            // Stack exhausted: still-live components survive the round
            // unqueried and fail only once the round budget runs out.
            any_live = (0..n).any(|v| root_of[v] == v as u32 && !retired[v]);
        } else {
            // Phase 1a: fold each vertex's round slice into its live
            // supernode's accumulator as it streams past, each worker into
            // its own sink; XOR-merging the sinks in worker order then
            // yields accumulators bit-identical to a serial fold.
            let (acc, acc_bytes) = {
                let live = |v: u32| !retired[root_of[v as usize] as usize];
                let sinks: Vec<Mutex<RoundSink<'_, Src::Sampler>>> = (0..pool.threads())
                    .map(|_| Mutex::new(RoundSink::new(&root_of, &retired)))
                    .collect();
                source.stream_round_into(round, &live, pool, &sinks)?;
                merge_sinks(sinks)
            };
            peak_sketch_bytes = peak_sketch_bytes.max(acc_bytes + source.resident_bytes());

            // Phase 1b (paper Lemma 5): sample one edge per live supernode,
            // partitioned over contiguous supernode ranges. Samples are pure
            // functions of the merged accumulators, and concatenating the
            // per-worker results in worker order restores the serial
            // ascending-root processing order exactly.
            let samples: Vec<Mutex<Vec<(u32, SampleResult)>>> =
                (0..pool.threads()).map(|_| Mutex::new(Vec::new())).collect();
            pool.run(&|w| {
                let mut out = samples[w].lock();
                for root in pool.partition(n, w) {
                    if root_of[root] != root as u32 || retired[root] {
                        continue;
                    }
                    let sketch =
                        acc[root].as_ref().expect("live supernode must have folded a slice");
                    out.push((root as u32, sketch.sample()));
                }
            });
            for (root, sample) in samples.into_iter().flat_map(|m| m.into_inner()) {
                match sample {
                    SampleResult::Index(idx) => {
                        any_live = true;
                        sketch_samples += 1;
                        found.push(index_to_edge(idx, num_vertices));
                    }
                    SampleResult::Zero => {
                        retired[root as usize] = true;
                    }
                    SampleResult::Fail => {
                        any_live = true;
                        sketch_samples += 1;
                        sketch_failures += 1;
                    }
                }
            }
        }

        if !any_live {
            // Every component retired: done.
            break;
        }

        // Phases 2+3: merge endpoint components. No sketch XOR happens here
        // — the next round's fold rebuilds accumulators from the updated
        // supernode membership, which is the same sum. Adjacent components
        // routinely sample the same cut edge from both sides; dropping the
        // duplicates up front halves the DSU finds on such rounds, and the
        // sorted order is deterministic, so outputs stay thread-invariant.
        found.sort_unstable();
        found.dedup();
        for edge in found {
            let (ra, rb) = (dsu.find(edge.u()), dsu.find(edge.v()));
            if ra == rb {
                // Another merge this round already connected them (two
                // components can sample the same cut edge from both sides).
                continue;
            }
            dsu.union(ra, rb);
            let winner = dsu.find(ra);
            // The merged component must be re-queried even if one side had
            // retired... which cannot happen (see `retired` note), but a
            // defensive clear keeps the invariant local.
            retired[winner as usize] = false;
            forest.push(edge);
        }
    }

    // The final round's merges may have left a single live component.
    retire_last_live(&mut dsu, &mut retired);

    // Check for unresolved components (live, not retired).
    let unresolved = (0..n as u32).filter(|&v| dsu.find(v) == v && !retired[v as usize]).count();
    if unresolved > 0 {
        return Err(GzError::AlgorithmFailure { rounds_used, unresolved });
    }

    let labels = dsu.normalized_labels();
    Ok(BoruvkaOutcome {
        forest,
        labels,
        rounds_used,
        sketch_failures,
        sketch_samples,
        peak_sketch_bytes,
    })
}

/// Run Boruvka over a materialized per-vertex sketch vector — the snapshot
/// query path, expressed through the same round-driven engine so snapshot
/// and streaming answers are bit-identical by construction.
///
/// `num_vertices` must equal `sketches.len()`; `max_rounds` bounds the
/// rounds and must not exceed the per-node sketch stack depth.
pub fn boruvka_spanning_forest<S: L0Sampler + Clone + Send + Sync>(
    sketches: Vec<Option<NodeSketch<S>>>,
    num_vertices: u64,
    max_rounds: usize,
) -> Result<BoruvkaOutcome, GzError> {
    assert_eq!(sketches.len() as u64, num_vertices);
    boruvka_rounds(&mut MaterializedSource::new(sketches), num_vertices, max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_rounds;
    use crate::node_sketch::{update_index, SketchParams};
    use gz_graph::{connected_components_dsu, spanning_forest as oracle_forest, AdjacencyList};

    /// Build per-vertex sketches for a set of edges.
    fn sketches_for(
        num_nodes: u64,
        edges: &[(u32, u32)],
        seed: u64,
    ) -> (SketchParams, Vec<Option<crate::node_sketch::CubeNodeSketch>>) {
        let rounds = default_rounds(num_nodes);
        let params = SketchParams::new(num_nodes, rounds, 7, seed);
        let mut sketches: Vec<Option<_>> =
            (0..num_nodes).map(|_| Some(params.new_node_sketch())).collect();
        for &(a, b) in edges {
            let idx = update_index(a, b, num_nodes);
            sketches[a as usize].as_mut().unwrap().update_signed(idx, 1);
            sketches[b as usize].as_mut().unwrap().update_signed(idx, 1);
        }
        (params, sketches)
    }

    fn check_against_oracle(num_nodes: u64, edges: &[(u32, u32)], seed: u64) {
        let (_params, sketches) = sketches_for(num_nodes, edges, seed);
        let rounds = default_rounds(num_nodes) as usize;
        let outcome = boruvka_spanning_forest(sketches, num_nodes, rounds)
            .expect("sketch connectivity failed");
        let g = AdjacencyList::from_edges(num_nodes as usize, edges.iter().copied());
        assert_eq!(outcome.labels, connected_components_dsu(&g), "labels mismatch");
        // Forest size must match the oracle's (V - #components).
        assert_eq!(outcome.forest.len(), oracle_forest(&g).len(), "forest size");
        // Forest edges must be real edges and acyclic.
        assert!(gz_graph::connectivity::is_spanning_forest(&g, &outcome.forest));
    }

    #[test]
    fn empty_graph_all_singletons() {
        let (_p, sketches) = sketches_for(16, &[], 1);
        let outcome = boruvka_spanning_forest(sketches, 16, 8).unwrap();
        assert!(outcome.forest.is_empty());
        assert_eq!(outcome.num_components(), 16);
        assert_eq!(outcome.rounds_used, 1, "all retire in round one");
    }

    #[test]
    fn single_edge() {
        check_against_oracle(8, &[(2, 5)], 7);
    }

    #[test]
    fn path_graph() {
        let edges: Vec<(u32, u32)> = (0..31).map(|i| (i, i + 1)).collect();
        check_against_oracle(32, &edges, 3);
    }

    #[test]
    fn two_cliques() {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                edges.push((a, b));
                edges.push((a + 8, b + 8));
            }
        }
        check_against_oracle(16, &edges, 11);
    }

    #[test]
    fn star_plus_isolated() {
        let edges: Vec<(u32, u32)> = (1..20).map(|i| (0, i)).collect();
        check_against_oracle(64, &edges, 13);
    }

    #[test]
    fn dense_random_graphs_many_seeds() {
        // The integration-level reliability experiment lives in gz-bench;
        // here a smoke sweep over seeds on a dense graph.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 48u64;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.5 {
                        edges.push((a, b));
                    }
                }
            }
            check_against_oracle(n, &edges, seed * 31 + 1);
        }
    }

    #[test]
    fn fails_gracefully_with_zero_round_budget() {
        let (_p, sketches) = sketches_for(8, &[(0, 1)], 1);
        let err = boruvka_spanning_forest(sketches, 8, 0).unwrap_err();
        assert!(matches!(err, GzError::AlgorithmFailure { .. }));
    }

    /// [`boruvka_spanning_forest`]'s fold on a `threads`-wide pool.
    fn forest_on_pool(
        sketches: Vec<Option<crate::node_sketch::CubeNodeSketch>>,
        n: u64,
        rounds: usize,
        threads: usize,
    ) -> Result<BoruvkaOutcome, GzError> {
        let mut source = MaterializedSource::new(sketches);
        boruvka_rounds_with_pool(&mut source, n, rounds, &WorkerPool::new(threads))
    }

    /// The tentpole invariant at the engine level: every field of the
    /// outcome except peak memory — labels, forest (with edge order),
    /// rounds used, failure count — is identical at any pool width.
    #[test]
    fn outcome_is_bit_identical_across_thread_counts() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 64u64;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.12 {
                        edges.push((a, b));
                    }
                }
            }
            let rounds = default_rounds(n) as usize;
            let reference = {
                let (_p, sketches) = sketches_for(n, &edges, seed + 100);
                boruvka_spanning_forest(sketches, n, rounds).unwrap()
            };
            for threads in [2usize, 3, 4, 8, 17] {
                let (_p, sketches) = sketches_for(n, &edges, seed + 100);
                let parallel = forest_on_pool(sketches, n, rounds, threads).unwrap();
                assert_eq!(reference.labels, parallel.labels, "labels at {threads} threads");
                assert_eq!(reference.forest, parallel.forest, "forest at {threads} threads");
                assert_eq!(reference.rounds_used, parallel.rounds_used, "rounds at {threads}");
                assert_eq!(
                    reference.sketch_failures, parallel.sketch_failures,
                    "failures at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn fold_owned_accumulates_like_fold() {
        // Vertices 0 and 1 share supernode 0; 2 is alone; 3 has retired.
        let (_p, sketches) = sketches_for(4, &[(0, 2), (1, 2), (0, 3)], 9);
        let (root_of, retired) = ([0u32, 0, 2, 3], [false, false, false, true]);
        let mut by_ref = RoundSink::new(&root_of, &retired);
        let mut by_value = RoundSink::new(&root_of, &retired);
        for (v, stack) in sketches.iter().enumerate() {
            let slice = stack.as_ref().unwrap().round(0);
            by_ref.fold(v as u32, slice);
            by_value.fold_owned(v as u32, slice.clone());
        }
        assert_eq!(by_ref.acc_bytes, by_value.acc_bytes);
        for (a, b) in by_ref.accumulators().into_iter().zip(by_value.accumulators()) {
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                let (mut x, mut y) = (Vec::new(), Vec::new());
                a.serialize_into(&mut x);
                b.serialize_into(&mut y);
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let (_p, sketches) = sketches_for(4, &[(0, 1), (2, 3)], 5);
        let outcome = forest_on_pool(sketches, 4, 4, 64).unwrap();
        assert_eq!(outcome.num_components(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::default_rounds;
    use crate::node_sketch::{update_index, SketchParams};
    use gz_graph::connectivity::is_spanning_forest;
    use gz_graph::{connected_components_dsu, AdjacencyList};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Sketch-space Boruvka equals exact connectivity on arbitrary
        /// random graphs (sparse through dense) with arbitrary seeds.
        /// A sampler failure makes the run return AlgorithmFailure — which
        /// would fail this test too; its (observed) absence across the
        /// proptest corpus is itself a reliability statement.
        #[test]
        fn matches_exact_connectivity(
            n in 2u64..40,
            seed in any::<u64>(),
            raw_edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..150)
        ) {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(a, b)| ((a as u64 % n) as u32, (b as u64 % n) as u32))
                .filter(|(a, b)| a != b)
                .collect();
            // Deduplicate: the characteristic vector is over Z2, so each
            // edge must be toggled once to be present.
            let mut dedup: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            dedup.sort_unstable();
            dedup.dedup();

            let rounds = default_rounds(n);
            let params = SketchParams::new(n, rounds, 7, seed);
            let mut sketches: Vec<Option<_>> =
                (0..n).map(|_| Some(params.new_node_sketch())).collect();
            for &(a, b) in &dedup {
                let idx = update_index(a, b, n);
                sketches[a as usize].as_mut().unwrap().update_signed(idx, 1);
                sketches[b as usize].as_mut().unwrap().update_signed(idx, 1);
            }

            let outcome = boruvka_spanning_forest(sketches, n, rounds as usize)
                .expect("sketch connectivity failed");
            let g = AdjacencyList::from_edges(n as usize, dedup.iter().copied());
            prop_assert_eq!(&outcome.labels, &connected_components_dsu(&g));
            prop_assert!(is_spanning_forest(&g, &outcome.forest));
        }
    }
}
