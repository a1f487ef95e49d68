//! Sketch-space Boruvka: query processing (paper §2.2, §4.2, Figure 9).
//!
//! Each round queries the current round's sketch of every live supernode;
//! every recovered edge crosses a supernode cut (internal edges cancel under
//! sketch addition), so its endpoints' components merge. Components whose
//! sketch reports an empty cut are maximal and retire. The paper budgets
//! `log_{3/2} V` rounds; this system provisions `⌈log₂ V⌉ + 3`
//! ([`crate::config::default_rounds`], DESIGN.md §2). Exceeding the budget is
//! the `algorithm_fails` event ([`GzError::AlgorithmFailure`]).
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
//! `O(supernodes with two or more live members × one round)`, plus the
//! source's buffers. A one-vertex supernode needs no accumulator: its one
//! slice is sampled where it lies (a borrowed RAM slice, an epoch
//! pre-image, a disk or wire read that is then dropped), and sampling a
//! slice is sampling any copy of it; a one-vertex sparse supernode's is
//! sampled column by column from its edge indices, with no slice built.
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
use std::borrow::Cow;

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
    /// Peak sketch bytes resident during the query: the accumulators of
    /// supernodes with two or more live members, plus whatever the source
    /// buffered (a full materialization for the snapshot path; a round's
    /// in-flight read windows for the streaming paths).
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

/// What a sink holds for one live supernode once the round has reached it.
#[derive(Debug, PartialEq)]
pub(crate) enum Folded<S> {
    /// A supernode of two or more live members: the XOR of the round slices
    /// of the members folded so far.
    Acc(S),
    /// A one-vertex supernode: the sample of its one slice, taken where the
    /// slice lay — no accumulator was ever built for it.
    Sampled(SampleResult),
}

impl<S: L0Sampler> Folded<S> {
    /// The supernode's sample for the round. Sampling a slice and sampling
    /// a clone of it are the same function of the same bits, so this is the
    /// sample either way.
    pub(crate) fn sample(&self) -> SampleResult {
        match self {
            Folded::Acc(acc) => acc.sample(),
            Folded::Sampled(sample) => *sample,
        }
    }
}

/// Live members of every supernode this round, indexed by root (0 for a
/// vertex that is not a root, and for a retired supernode): how a sink
/// knows which supernodes are one vertex and need no accumulator.
pub(crate) fn live_members(root_of: &[u32], retired: &[bool]) -> Vec<u32> {
    let mut members = vec![0u32; root_of.len()];
    for &root in root_of {
        if !retired[root as usize] {
            members[root as usize] += 1;
        }
    }
    members
}

/// Which vertices a query folds as exact sparse sets (DESIGN.md §12), as
/// the sinks see it. Round 0 learns it: every supernode is one vertex then,
/// so no edge is internal to one, and each sink notes the vertices handed
/// to it as sparse sets; the engine merges the notes after the round. From
/// round 1 on it is known, and the sparse fold leaves out every edge
/// between two sparse vertices of one supernode
/// ([`crate::sparse::SparseRoundBatch`]). That is sound only because a
/// vertex keeps one representation for a whole query: a live fold runs
/// with ingestion quiesced, an epoch fold reads the sealed overlay, and a
/// socket gather refuses an entry whose representation moved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SparseMap<'a> {
    /// Round 0: nothing is known yet.
    Learning,
    /// From round 1 on: `sparse[v]` is whether `v` is folded as a sparse
    /// set.
    Known(&'a [bool]),
}

/// One query worker's fold target for one Borůvka round: the round's
/// supernode map and live-member counts, and what has been folded per
/// supernode. Sources fold each node's round contribution into exactly one
/// sink (any sink — XOR commutes); the engine XOR-merges the sinks in worker
/// order afterwards, which makes the merged accumulators bit-identical to a
/// single-threaded fold. A one-vertex supernode gets no accumulator: its
/// one slice is sampled where it lies and only the sample is kept.
pub struct RoundSink<'a, S> {
    root_of: &'a [u32],
    retired: &'a [bool],
    /// [`live_members`] of this round.
    members: &'a [u32],
    /// Which vertices are folded as sparse sets this query.
    sparse: SparseMap<'a>,
    /// The vertices handed to this sink as sparse sets while `sparse` is
    /// being learned.
    learned: Vec<u32>,
    folded: Vec<Option<Folded<S>>>,
    /// Payload bytes of every accumulator.
    acc_bytes: usize,
}

impl<'a, S: L0Sampler + Clone> RoundSink<'a, S> {
    pub(crate) fn new(
        root_of: &'a [u32],
        retired: &'a [bool],
        members: &'a [u32],
        sparse: SparseMap<'a>,
    ) -> Self {
        RoundSink {
            root_of,
            retired,
            members,
            sparse,
            learned: Vec::new(),
            folded: (0..root_of.len()).map(|_| None).collect(),
            acc_bytes: 0,
        }
    }

    /// The sparse map this sink folds under.
    pub(crate) fn sparse_map(&self) -> SparseMap<'a> {
        self.sparse
    }

    /// Whether `node` is known to be folded as a sparse set.
    #[inline]
    fn known_sparse(&self, node: u32) -> bool {
        matches!(self.sparse, SparseMap::Known(sparse) if sparse[node as usize])
    }

    /// What was folded per supernode so far (store-level tests).
    #[cfg(test)]
    pub(crate) fn into_folded(self) -> Vec<Option<Folded<S>>> {
        self.folded
    }

    /// Sketch bytes this sink holds (store-level tests).
    #[cfg(test)]
    pub(crate) fn acc_bytes(&self) -> usize {
        self.acc_bytes
    }

    /// Fold `node`'s round slice into its supernode (a no-op for retired
    /// supernodes): merged into the accumulator, which the first slice to
    /// arrive is cloned into, or — for a one-vertex supernode — sampled in
    /// place, nothing cloned.
    #[inline]
    pub fn fold(&mut self, node: u32, slice: &S) {
        self.fold_slice(node, Cow::Borrowed(slice));
    }

    /// [`Self::fold`] for a slice the caller built for this call (a
    /// deserialized read or wire entry): the first slice to reach a
    /// supernode *becomes* its accumulator instead of being cloned into one,
    /// and a one-vertex supernode's is sampled and dropped.
    #[inline]
    pub fn fold_owned(&mut self, node: u32, slice: S) {
        self.fold_slice(node, Cow::Owned(slice));
    }

    /// [`Self::fold`] or [`Self::fold_owned`], whichever `slice` is.
    #[inline]
    pub(crate) fn fold_slice(&mut self, node: u32, slice: Cow<'_, S>) {
        debug_assert!(
            !self.known_sparse(node),
            "vertex {node} was a sparse set in round 0 and is folded dense now"
        );
        let Some(root) = self.live_root(node) else { return };
        let root = root as usize;
        if self.members[root] == 1 {
            self.folded[root] = Some(Folded::Sampled(slice.sample()));
            return;
        }
        match &mut self.folded[root] {
            Some(Folded::Acc(acc)) => acc.merge_from(&slice),
            slot => {
                self.acc_bytes += slice.payload_bytes();
                *slot = Some(Folded::Acc(slice.into_owned()));
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

    /// `node`'s live supernode root, for a vertex handed over as a sparse
    /// set, or `None` once that supernode has retired. While the sparse map
    /// is being learned the vertex is noted; once it is known, a vertex
    /// folded dense in round 0 must not turn up here.
    pub(crate) fn sparse_root(&mut self, node: u32) -> Option<u32> {
        let root = self.live_root(node)?;
        match self.sparse {
            SparseMap::Learning => self.learned.push(node),
            SparseMap::Known(sparse) => debug_assert!(
                sparse[node as usize],
                "vertex {node} was folded dense in round 0 and is a sparse set now"
            ),
        }
        Some(root)
    }

    /// Whether `other` is known to be folded as a sparse set under
    /// supernode `root` — so the edge to it from a sparse vertex of `root`
    /// is internal, and both ends leave it out.
    #[inline]
    pub(crate) fn is_sparse_member(&self, root: u32, other: u32) -> bool {
        self.known_sparse(other) && self.root_of[other as usize] == root
    }

    /// Whether live supernode `root` is a single vertex this round.
    #[inline]
    pub(crate) fn is_alone(&self, root: u32) -> bool {
        self.members[root as usize] == 1
    }

    /// Record the sample of one-vertex supernode `root`, taken wherever its
    /// contribution lay.
    pub(crate) fn fold_sample(&mut self, root: u32, sample: SampleResult) {
        debug_assert!(self.is_alone(root), "only a one-vertex supernode is sampled in the fold");
        self.folded[root as usize] = Some(Folded::Sampled(sample));
    }

    /// Live supernode `root`'s accumulator — a supernode of two or more
    /// live members — started from `empty()` on first touch: the in-place
    /// fold's entry point, into which sparse vertices XOR their edge
    /// indices (see [`crate::sparse::SparseRoundBatch`]).
    pub(crate) fn accumulator(&mut self, root: u32, empty: impl FnOnce() -> S) -> &mut S {
        debug_assert!(!self.retired[root as usize], "retired supernodes are never folded");
        debug_assert!(!self.is_alone(root), "a one-vertex supernode gets no accumulator");
        let RoundSink { folded, acc_bytes, .. } = self;
        let slot = folded[root as usize].get_or_insert_with(|| {
            let acc = empty();
            *acc_bytes += acc.payload_bytes();
            Folded::Acc(acc)
        });
        match slot {
            Folded::Acc(acc) => acc,
            Folded::Sampled(_) => unreachable!("a supernode of several members is never sampled"),
        }
    }
}

/// XOR-merge per-worker sinks in worker order into one per-supernode
/// vector. Returns it, the summed per-sink payload bytes (the true peak:
/// all sinks were resident simultaneously during the fold), and the
/// vertices the sinks were handed as sparse sets while learning.
fn merge_sinks<S: L0Sampler + Clone>(
    sinks: Vec<Mutex<RoundSink<'_, S>>>,
) -> (Vec<Option<Folded<S>>>, usize, Vec<u32>) {
    let mut iter = sinks.into_iter().map(|m| m.into_inner());
    let first = iter.next().expect("at least one sink");
    let (mut folded, mut acc_bytes, mut learned) = (first.folded, first.acc_bytes, first.learned);
    for sink in iter {
        acc_bytes += sink.acc_bytes;
        learned.extend(sink.learned);
        for (slot, other) in folded.iter_mut().zip(sink.folded) {
            let Some(other) = other else { continue };
            match (slot.as_mut(), other) {
                (None, other) => *slot = Some(other),
                (Some(Folded::Acc(a)), Folded::Acc(b)) => a.merge_from(&b),
                _ => unreachable!("a one-vertex supernode is folded by exactly one sink"),
            }
        }
    }
    (folded, acc_bytes, learned)
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
    // Which vertices the source folds as sparse sets, learned in round 0.
    let mut sparse = vec![false; n];

    // If exactly one unretired component remains, it cannot have any cut
    // edges (all other components' cuts are provably empty), so it retires
    // without a query. This both saves a round and lets a fully-merged graph
    // finish inside an exact `⌈log₂ V⌉` budget when every round halves it.
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
            // yields accumulators bit-identical to a serial fold. Only
            // supernodes of two or more live members get one: a one-vertex
            // supernode's slice is sampled as it streams past.
            let (folded, acc_bytes, learned) = {
                let members = live_members(&root_of, &retired);
                let live = |v: u32| !retired[root_of[v as usize] as usize];
                let map = if round == 0 { SparseMap::Learning } else { SparseMap::Known(&sparse) };
                let sinks: Vec<Mutex<RoundSink<'_, Src::Sampler>>> = (0..pool.threads())
                    .map(|_| Mutex::new(RoundSink::new(&root_of, &retired, &members, map)))
                    .collect();
                source.stream_round_into(round, &live, pool, &sinks)?;
                merge_sinks(sinks)
            };
            for v in learned {
                sparse[v as usize] = true;
            }
            peak_sketch_bytes = peak_sketch_bytes.max(acc_bytes + source.resident_bytes());

            // Phase 1b (paper Lemma 5): sample one edge per live supernode,
            // partitioned over contiguous supernode ranges. Samples are pure
            // functions of the merged accumulators (or were taken from the
            // one slice during the fold), and concatenating the per-worker
            // results in worker order restores the serial ascending-root
            // processing order exactly.
            let samples: Vec<Mutex<Vec<(u32, SampleResult)>>> =
                (0..pool.threads()).map(|_| Mutex::new(Vec::new())).collect();
            pool.run(&|w| {
                let mut out = samples[w].lock();
                for root in pool.partition(n, w) {
                    if root_of[root] != root as u32 || retired[root] {
                        continue;
                    }
                    let folded =
                        folded[root].as_ref().expect("live supernode must have folded a slice");
                    out.push((root as u32, folded.sample()));
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
        let members = live_members(&root_of, &retired);
        assert_eq!(members, [2, 0, 1, 0]);
        let mut by_ref = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        let mut by_value = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        for (v, stack) in sketches.iter().enumerate() {
            let slice = stack.as_ref().unwrap().round(0);
            by_ref.fold(v as u32, slice);
            by_value.fold_owned(v as u32, slice.clone());
        }
        // One accumulator: supernode 0's. Vertex 2 is sampled in place.
        let slice_bytes = sketches[0].as_ref().unwrap().round(0).payload_bytes();
        assert_eq!(by_ref.acc_bytes, slice_bytes);
        assert_eq!(by_ref.acc_bytes, by_value.acc_bytes);
        let bytes = |acc: &crate::node_sketch::CubeRoundSketch| {
            let mut out = Vec::new();
            acc.append_words(&mut out);
            out
        };
        let (a, b) = (by_ref.into_folded(), by_value.into_folded());
        match (&a[0], &b[0]) {
            (Some(Folded::Acc(x)), Some(Folded::Acc(y))) => assert_eq!(bytes(x), bytes(y)),
            other => panic!("supernode 0 must hold an accumulator: {other:?}"),
        }
        let alone = sketches[2].as_ref().unwrap().round(0).sample();
        for folded in [&a[2], &b[2]] {
            assert!(matches!(folded, Some(Folded::Sampled(s)) if *s == alone), "{folded:?}");
        }
        assert!(a[1].is_none() && a[3].is_none() && b[1].is_none() && b[3].is_none());
    }

    /// Pinned from the engine that gave every supernode an accumulator:
    /// a seeded graph over 56 vertices with 8 more isolated, sketched at
    /// one column so samples fail, merging over 8 rounds, answers field by
    /// field exactly as it did, at every pool width. And a query over an
    /// edgeless graph — every supernode one vertex — holds no accumulator.
    #[test]
    fn golden_outcome_with_isolated_vertices_failures_and_merges() {
        use crate::store::SliceSource;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (n, seed) = (64u64, 3u64);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..56u32 {
            for b in (a + 1)..56 {
                if rng.gen::<f64>() < 0.05 {
                    edges.push((a, b));
                }
            }
        }
        let rounds = default_rounds(n);
        let params = SketchParams::new(n, rounds, 1, seed ^ 0xC0FFEE);
        let stacks = |edges: &[(u32, u32)]| {
            let mut sketches: Vec<_> = (0..n).map(|_| params.new_node_sketch()).collect();
            for &(a, b) in edges {
                let idx = update_index(a, b, n);
                sketches[a as usize].update_signed(idx, 1);
                sketches[b as usize].update_signed(idx, 1);
            }
            sketches
        };

        #[rustfmt::skip]
        let labels: Vec<u32> = vec![
            0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 36, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 56, 57, 58, 59, 60, 61, 62, 63,
        ];
        #[rustfmt::skip]
        let forest: Vec<(u32, u32)> = vec![
            (0, 10), (0, 50), (1, 28), (2, 40), (3, 15), (4, 26), (6, 29), (6, 37), (6, 51),
            (7, 44), (8, 27), (12, 26), (13, 35), (14, 22), (14, 54), (16, 53), (17, 42),
            (19, 32), (20, 41), (20, 55), (21, 24), (23, 26), (23, 31), (25, 33), (30, 46),
            (32, 43), (32, 51), (34, 47), (35, 38), (39, 52), (42, 46), (45, 47), (48, 50),
            (2, 29), (4, 35), (4, 52), (5, 6), (9, 42), (14, 44), (16, 43), (22, 33), (24, 37),
            (28, 50), (29, 45), (31, 46), (37, 49), (42, 55), (18, 43), (27, 45), (41, 49),
            (18, 48), (51, 54),
        ];
        let sketches = stacks(&edges);
        for threads in [1usize, 2, 3] {
            let mut source = SliceSource::new(&sketches);
            let outcome = boruvka_rounds_with_pool(
                &mut source,
                n,
                rounds as usize,
                &WorkerPool::new(threads),
            )
            .unwrap();
            let got: Vec<(u32, u32)> = outcome.forest.iter().map(|e| (e.u(), e.v())).collect();
            assert_eq!(outcome.labels, labels, "labels at {threads} threads");
            assert_eq!(got, forest, "forest at {threads} threads");
            assert_eq!(outcome.rounds_used, 8, "rounds at {threads} threads");
            assert_eq!(outcome.sketch_failures, 22, "failures at {threads} threads");
            assert_eq!(outcome.sketch_samples, 90, "samples at {threads} threads");
        }

        let edgeless = stacks(&[]);
        let outcome = boruvka_rounds(&mut SliceSource::new(&edgeless), n, rounds as usize).unwrap();
        assert_eq!(outcome.num_components(), n as usize);
        assert_eq!(outcome.peak_sketch_bytes, 0, "one-vertex supernodes hold no accumulator");
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
