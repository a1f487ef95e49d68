//! Exact small-set vertex representation for the hybrid store (DESIGN.md §12).
//!
//! Most vertices of a sparse stream never accumulate enough neighbors to
//! justify `O(log² V)` of CubeSketch state. Below a configurable threshold
//! `τ` the store keeps an **exact toggle set** instead: a sorted vector of
//! non-self-loop neighbor ids, where applying an update is a membership flip
//! (the Z₂ semantics of the characteristic vector — a second toggle of the
//! same edge cancels the first, exactly as it would inside a sketch).
//!
//! The set is *authoritative*: it records the complete XOR-history of the
//! vertex, so a sketch promoted from it by replaying the surviving indices
//! through the batch kernel is **bit-identical** to one maintained densely
//! from the start. Sketch state is XOR-linear in the toggled index multiset;
//! cancelled pairs contribute nothing either way; ordering is irrelevant.
//! That replay argument is what lets promotion happen at any time without an
//! equivalence caveat anywhere in the system — and what lets a query skip
//! promotion altogether: `SparseRoundBatch` XORs a sparse vertex's edge
//! indices straight into its supernode's round accumulator, which by the
//! same linearity equals merging the slice the vertex would have held.

use crate::boruvka::RoundSink;
use crate::node_sketch::{update_index, CubeNodeSketch, CubeRoundSketch, SketchParams};
use gz_sketch::cube::{with_premixed, LaneAccumulators};
use std::cell::RefCell;
use std::ops::Range;

std::thread_local! {
    /// Per-thread buffers of one batch's sorted neighbor ids and of the
    /// set they merge into, reused across batches so the sparse apply path
    /// allocates nothing once warm.
    static SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Append to `out` every id that occurs an odd number of times across the
/// sorted distinct `set` and the sorted `toggles` — one forward merge, so
/// runs inside `toggles` cancel among themselves and against the set.
fn keep_odd_runs(set: &[u32], toggles: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < set.len() || j < toggles.len() {
        let id = match (set.get(i), toggles.get(j)) {
            (Some(&a), Some(&b)) => a.min(b),
            (Some(&a), None) => a,
            (None, Some(&b)) => b,
            (None, None) => unreachable!("the loop runs while an id is unread"),
        };
        let mut count = 0;
        if set.get(i) == Some(&id) {
            i += 1;
            count += 1;
        }
        while toggles.get(j) == Some(&id) {
            j += 1;
            count += 1;
        }
        if count % 2 == 1 {
            out.push(id);
        }
    }
}

/// Sorted exact set of a vertex's live (non-cancelled) neighbors.
///
/// Stored neighbor ids exclude the vertex itself (self-loops are dropped at
/// decode time, matching the dense path's `decode_records_into`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseSet {
    neighbors: Vec<u32>,
}

impl SparseSet {
    /// The empty set.
    pub fn new() -> Self {
        SparseSet { neighbors: Vec::new() }
    }

    /// Build from an arbitrary neighbor list (deduplicated, sorted).
    pub fn from_neighbors(mut neighbors: Vec<u32>) -> Self {
        neighbors.sort_unstable();
        neighbors.dedup();
        SparseSet { neighbors }
    }

    /// Apply a batch of encoded update records bound for `node`: each flips
    /// its neighbor's membership (the Z₂ toggle — the delete flag is
    /// ignored, and self-loops are dropped as the dense path drops them).
    /// The records are decoded and sorted, and one merge with the set keeps
    /// every id that occurs an odd number of times across the two, so a
    /// batch costs a sort and a pass instead of a search and a shift per
    /// record. Returns the new live-set size, which the store compares
    /// against `τ` to decide promotion.
    pub fn toggle_batch(&mut self, node: u32, records: &[u32]) -> usize {
        SCRATCH.with(|cell| {
            let (toggles, merged) = &mut *cell.borrow_mut();
            toggles.clear();
            toggles.extend(records.iter().copied().filter(|&other| other != node));
            if toggles.is_empty() {
                return;
            }
            toggles.sort_unstable();
            merged.clear();
            keep_odd_runs(&self.neighbors, toggles, merged);
            // Copied back rather than swapped, so the set's capacity follows
            // its own live size, not the batch's.
            self.neighbors.clear();
            self.neighbors.extend_from_slice(merged);
        });
        self.neighbors.len()
    }

    /// Number of live neighbors.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True when no neighbor survives (all toggles cancelled).
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The sorted live neighbors.
    pub fn neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Characteristic-vector indices of the surviving toggles for vertex
    /// `node` — the replay batch. Distinct neighbors map to distinct edge
    /// indices.
    pub fn replay_indices(&self, node: u32, num_nodes: u64) -> Vec<u64> {
        edge_indices(node, self.neighbors.iter().copied(), num_nodes).collect()
    }

    /// Materialize the full node sketch this set stands for — the promotion
    /// step. Bit-identical to an always-dense run (see module docs).
    pub fn densify(&self, node: u32, params: &SketchParams) -> CubeNodeSketch {
        let mut sketch = params.new_node_sketch();
        if !self.neighbors.is_empty() {
            let indices = self.replay_indices(node, params.num_nodes);
            sketch.update_batch(&indices);
        }
        sketch
    }

    /// Synthesize just the round-`round` slice by replaying the set into a
    /// fresh sketch of that round's family. Queries do not call this — they
    /// fold in place through `SparseRoundBatch`; it is the oracle the
    /// in-place fold is tested against.
    pub fn synthesize_round(
        &self,
        node: u32,
        params: &SketchParams,
        round: usize,
    ) -> CubeRoundSketch {
        let mut sketch = params.families[round].new_sketch();
        if !self.neighbors.is_empty() {
            let indices = self.replay_indices(node, params.num_nodes);
            sketch.update_batch(&indices);
        }
        sketch
    }

    /// Resident bytes under the size model: 4 bytes per live neighbor.
    pub fn resident_bytes(&self) -> usize {
        self.neighbors.len() * 4
    }

    /// Append the wire encoding (protocol v5 sparse round entry payload):
    /// `u32 LE` count followed by the sorted neighbors as `u32 LE`.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.neighbors.len() as u32).to_le_bytes());
        for &n in &self.neighbors {
            out.extend_from_slice(&n.to_le_bytes());
        }
    }

    /// The neighbors of a wire payload produced by [`Self::encode_wire`],
    /// read in place. Returns `None` on truncation, trailing bytes, unsorted
    /// or duplicate entries (strict, like the rest of the wire layer).
    pub fn wire_neighbors(bytes: &[u8]) -> Option<impl Iterator<Item = u32> + '_> {
        let (count, body) = bytes.split_first_chunk::<4>()?;
        if body.len() != u32::from_le_bytes(*count) as usize * 4 {
            return None;
        }
        let neighbors = || {
            body.chunks_exact(4).map(|n| u32::from_le_bytes(n.try_into().expect("4-byte chunk")))
        };
        let mut rest = neighbors();
        let mut last = rest.next();
        for n in rest {
            if Some(n) <= last {
                return None;
            }
            last = Some(n);
        }
        Some(neighbors())
    }

    /// Decode a wire payload produced by [`Self::encode_wire`]; `None` when
    /// [`Self::wire_neighbors`] rejects it.
    pub fn decode_wire(bytes: &[u8]) -> Option<SparseSet> {
        Some(SparseSet { neighbors: Self::wire_neighbors(bytes)?.collect() })
    }
}

/// The characteristic-vector indices of `node`'s edges to `neighbors`.
pub(crate) fn edge_indices(
    node: u32,
    neighbors: impl Iterator<Item = u32>,
    num_nodes: u64,
) -> impl Iterator<Item = u64> {
    neighbors.map(move |other| update_index(node, other, num_nodes))
}

/// One query worker's sparse vertices for one Borůvka round, queued flat
/// (no per-vertex allocation) and folded in place.
///
/// A store worker pushes the sealed neighbor set of every live sparse vertex
/// in its share while it holds that vertex's lock; the sharded coordinator
/// pushes the tag-1 entries of a gathered reply. [`Self::fold_into`] then
/// groups the vertices by supernode and XORs each group's edge indices into
/// that supernode's accumulator with one batch-kernel call — or, for a
/// one-vertex supernode, samples them column by column and builds no slice.
/// By XOR-linearity the result is bit-identical to merging each vertex's
/// [`SparseSet::synthesize_round`] slice.
///
/// An edge between two vertices that are both folded as sparse sets under
/// one supernode never reaches the kernel. From round 1 on, the sink knows
/// which vertices are sparse ([`crate::boruvka::SparseMap`]), and
/// [`Self::push`] leaves out neighbor `w` of `u` when `w` is sparse and in
/// `u`'s supernode. The same rule leaves out `u` from `w`'s side, in this
/// batch or in another worker's, so both of the edge's contributions — which
/// would have cancelled in the accumulator — are gone, and the bits are the
/// same. An edge to a dense member is kept: it cancels against that
/// member's slice.
#[derive(Default)]
pub(crate) struct SparseRoundBatch {
    /// Supernode root and range into `indices` of each queued vertex.
    vertices: Vec<(u32, Range<usize>)>,
    /// Characteristic-vector indices of the queued vertices' live edges.
    indices: Vec<u64>,
}

impl SparseRoundBatch {
    /// Queue `node` with its live `neighbors`, unless `sink` says its
    /// supernode has retired, leaving out every neighbor the sink knows to
    /// be a sparse vertex of the same supernode. A vertex with nothing left
    /// is still queued: its (empty) contribution, sampled `Zero`, is what
    /// lets the engine retire it.
    pub(crate) fn push(
        &mut self,
        sink: &mut RoundSink<'_>,
        node: u32,
        neighbors: impl Iterator<Item = u32>,
        num_nodes: u64,
    ) {
        let Some(root) = sink.sparse_root(node) else { return };
        let sink = &*sink;
        let start = self.indices.len();
        self.indices.extend(
            neighbors
                .filter(|&other| !sink.is_sparse_member(root, other))
                .map(|other| update_index(node, other, num_nodes)),
        );
        self.vertices.push((root, start..self.indices.len()));
    }

    /// Hand each queued supernode its index batch — its vertices' indices
    /// concatenated — and leave the batch empty. Nothing is cancelled here:
    /// [`Self::push`] has left out the internal edges between sparse
    /// vertices, and the kernel is exact on any repeat that remains.
    fn drain_groups(&mut self, mut f: impl FnMut(u32, &[u64])) {
        self.vertices.sort_unstable_by_key(|(root, _)| *root);
        let mut merged = Vec::new();
        for group in self.vertices.chunk_by(|a, b| a.0 == b.0) {
            if let [(root, only)] = group {
                f(*root, &self.indices[only.clone()]);
                continue;
            }
            merged.clear();
            for (_, range) in group {
                merged.extend_from_slice(&self.indices[range.clone()]);
            }
            f(group[0].0, &merged);
        }
        self.vertices.clear();
        self.indices.clear();
    }

    /// Fold every queued vertex into its supernode in `sink`, leaving the
    /// batch empty: a supernode of two or more live members gets its group
    /// XORed into its round-`round` accumulator by the batch kernel; a
    /// one-vertex supernode gets the sample of the slice its group would
    /// build, taken column by column with no slice built
    /// ([`gz_sketch::CubeSketchFamily::sample_premixed`]).
    pub(crate) fn fold_into(
        &mut self,
        sink: &mut RoundSink<'_>,
        params: &SketchParams,
        round: usize,
    ) {
        let family = &params.families[round];
        // One set of kernel accumulators for the whole drain: most groups
        // are a handful of indices, too few to pay for zeroing their own.
        let mut acc = LaneAccumulators::new();
        self.drain_groups(|root, indices| {
            with_premixed(indices, |batch| {
                if sink.is_alone(root) {
                    sink.fold_sample(root, family.sample_premixed(batch, &mut acc));
                } else {
                    let sketch = sink.accumulator(root, || family.new_sketch());
                    sketch.update_batch_premixed(batch, &mut acc);
                }
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boruvka::{live_members, Folded, SparseMap};
    use crate::node_sketch::{assert_rounds_bitwise_equal, encode_other};
    use gz_sketch::{L0Sampler, SampleResult};

    fn params(v: u64) -> SketchParams {
        SketchParams::new(v, 5, 7, 0x5EED)
    }

    /// Insert records toward `others`.
    fn records(others: &[u32]) -> Vec<u32> {
        others.iter().map(|&other| encode_other(other, false)).collect()
    }

    #[test]
    fn toggle_batch_is_a_membership_flip() {
        let mut s = SparseSet::new();
        assert_eq!(s.toggle_batch(0, &records(&[7, 3])), 2);
        assert_eq!(s.toggle_batch(0, &records(&[7])), 1); // second toggle cancels
        assert_eq!(s.neighbors(), &[3]);
        // Unsorted: an even run cancels, an odd run flips, a self-loop is
        // dropped, and a delete is the same flip as an insert.
        let batch = [
            encode_other(9, false),
            encode_other(1, false),
            encode_other(9, true),
            encode_other(0, false),
            encode_other(5, true),
            encode_other(5, false),
            encode_other(5, false),
            encode_other(3, true),
        ];
        assert_eq!(s.toggle_batch(0, &batch), 2);
        assert_eq!(s.neighbors(), &[1, 5]);
        assert_eq!(s.toggle_batch(0, &records(&[1, 5])), 0);
        assert!(s.is_empty());
        assert_eq!(s.toggle_batch(0, &[]), 0);
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut s = SparseSet::new();
        s.toggle_batch(0, &records(&[9, 1, 5, 30, 2]));
        assert_eq!(s.neighbors(), &[1, 2, 5, 9, 30]);
    }

    #[test]
    fn densify_matches_incremental_dense_bitwise() {
        // The promotion bit-identity argument, pinned: toggling a stream of
        // (insert, delete, re-insert) updates into the set and replaying
        // equals applying the same stream densely update by update.
        let p = params(64);
        let node = 6u32;
        let stream = [9u32, 12, 9, 40, 9, 12, 12];
        let mut set = SparseSet::new();
        let mut dense = p.new_node_sketch();
        for other in stream {
            set.toggle_batch(node, &records(&[other]));
            dense.update_signed(update_index(node, other, 64), 1);
        }
        let promoted = set.densify(node, &p);
        assert_rounds_bitwise_equal(&promoted, &dense, "replay vs incremental");
    }

    #[test]
    fn synthesize_round_matches_densify_slice() {
        let p = params(64);
        let set = SparseSet::from_neighbors(vec![1, 17, 33, 50]);
        let full = set.densify(3, &p);
        for r in 0..p.rounds() {
            let slice = set.synthesize_round(3, &p, r);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            slice.append_words(&mut a);
            full.round(r).append_words(&mut b);
            assert_eq!(a, b, "round {r}");
        }
    }

    #[test]
    fn empty_set_densifies_to_zero_sketch() {
        let p = params(32);
        let promoted = SparseSet::new().densify(0, &p);
        assert_rounds_bitwise_equal(&promoted, &p.new_node_sketch(), "zero");
        assert_eq!(SparseSet::new().synthesize_round(0, &p, 0).sample(), SampleResult::Zero);
    }

    #[test]
    fn wire_round_trip_and_strictness() {
        let s = SparseSet::from_neighbors(vec![4, 200, 7]);
        let mut bytes = Vec::new();
        s.encode_wire(&mut bytes);
        assert_eq!(bytes.len(), 4 + 3 * 4);
        assert_eq!(SparseSet::decode_wire(&bytes).unwrap(), s);

        assert_eq!(SparseSet::wire_neighbors(&bytes).unwrap().collect::<Vec<_>>(), [4, 7, 200]);
        assert!(SparseSet::wire_neighbors(&[]).is_none(), "no count");

        // Truncated.
        assert!(SparseSet::decode_wire(&bytes[..bytes.len() - 1]).is_none());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(SparseSet::decode_wire(&long).is_none());
        // Unsorted / duplicate payloads rejected.
        let mut bad = Vec::new();
        SparseSet::from_neighbors(vec![1, 2]).encode_wire(&mut bad);
        bad[4..8].copy_from_slice(&9u32.to_le_bytes()); // now [9, 2]
        assert!(SparseSet::decode_wire(&bad).is_none());
        let mut dup = Vec::new();
        dup.extend_from_slice(&2u32.to_le_bytes());
        dup.extend_from_slice(&5u32.to_le_bytes());
        dup.extend_from_slice(&5u32.to_le_bytes());
        assert!(SparseSet::decode_wire(&dup).is_none());
    }

    /// The accumulator `sink` holds for `root`.
    fn accumulator(sink: RoundSink<'_>, root: usize) -> CubeRoundSketch {
        match sink.into_folded().swap_remove(root) {
            Some(Folded::Acc(acc)) => acc,
            other => panic!("supernode {root} holds no accumulator: {other:?}"),
        }
    }

    #[test]
    fn in_place_fold_matches_synthesize_then_merge() {
        // Supernodes {0,1,2}, {3}, {4,5}; vertex 6 is retired and 7 empty.
        // Every vertex sparse, learning or known: once known, the edges
        // inside {0,1,2} and {4,5} are left out from both ends.
        let p = params(8);
        let root_of = [0u32, 0, 0, 3, 4, 4, 6, 7];
        let mut retired = [false; 8];
        retired[6] = true;
        let members = live_members(&root_of, &retired);
        let all_sparse = [true; 8];
        let sets: Vec<SparseSet> = [
            vec![1u32, 2, 5],
            vec![0, 2, 3],
            vec![0, 1],
            vec![1, 4, 7],
            vec![3, 5],
            vec![0, 4],
            vec![7],
            vec![],
        ]
        .into_iter()
        .map(SparseSet::from_neighbors)
        .collect();
        for round in 0..p.rounds() {
            for map in [SparseMap::Learning, SparseMap::Known(&all_sparse)] {
                let mut oracle = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
                let mut in_place = RoundSink::new(&root_of, &retired, &members, map);
                let mut batch = SparseRoundBatch::default();
                // Reverse order: grouping must not depend on arrival order.
                for (node, set) in sets.iter().enumerate().rev() {
                    let node = node as u32;
                    oracle.fold(node, set.synthesize_round(node, &p, round).view());
                    batch.push(&mut in_place, node, set.neighbors().iter().copied(), 8);
                }
                batch.fold_into(&mut in_place, &p, round);
                let (oracle, in_place) = (oracle.into_folded(), in_place.into_folded());
                assert_eq!(oracle, in_place, "round {round}, {map:?}");
                assert!(in_place[6].is_none(), "retired supernodes are never folded");
                assert!(matches!(in_place[0], Some(Folded::Acc(_))), "{{0,1,2}} accumulates");
                let alone = sets[3].synthesize_round(3, &p, round).sample();
                assert_eq!(in_place[3], Some(Folded::Sampled(alone)), "{{3}} is sampled");
                assert_eq!(
                    in_place[7],
                    Some(Folded::Sampled(SampleResult::Zero)),
                    "an isolated vertex is still sampled"
                );
            }
        }
    }

    #[test]
    fn one_vertex_supernodes_hold_no_slice() {
        // Every vertex its own supernode: each is sampled column by column
        // from its indices, and the sink holds no sketch at all.
        let p = params(16);
        let root_of: Vec<u32> = (0..16).collect();
        let retired = [false; 16];
        let members = live_members(&root_of, &retired);
        let sets: Vec<SparseSet> = (0..16u32)
            .map(|v| SparseSet::from_neighbors(vec![(v + 1) % 16, (v + 5) % 16]))
            .collect();
        let mut sink = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        let mut batch = SparseRoundBatch::default();
        for (node, set) in sets.iter().enumerate() {
            batch.push(&mut sink, node as u32, set.neighbors().iter().copied(), 16);
        }
        batch.fold_into(&mut sink, &p, 2);
        assert_eq!(sink.acc_bytes(), 0);
        for (node, folded) in sink.into_folded().into_iter().enumerate() {
            let want = sets[node].synthesize_round(node as u32, &p, 2).sample();
            assert!(matches!(folded, Some(Folded::Sampled(s)) if s == want), "node {node}");
        }
    }

    #[test]
    fn folding_a_vertex_twice_leaves_the_accumulator_empty() {
        let p = params(16);
        let (root_of, retired) = ([0u32; 16], [false; 16]);
        let members = live_members(&root_of, &retired);
        let set = SparseSet::from_neighbors(vec![1, 4, 9, 12, 15]);
        // Twice within one batch: the copies meet in the supernode's group.
        let mut sink = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        let mut batch = SparseRoundBatch::default();
        for _ in 0..2 {
            batch.push(&mut sink, 3, set.neighbors().iter().copied(), 16);
        }
        batch.fold_into(&mut sink, &p, 0);
        assert!(accumulator(sink, 0).is_empty());
        // Twice across batches: the second XORs the first back out in place.
        let mut sink = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        for _ in 0..2 {
            batch.push(&mut sink, 3, set.neighbors().iter().copied(), 16);
            batch.fold_into(&mut sink, &p, 0);
        }
        assert!(accumulator(sink, 0).is_empty());
    }

    #[test]
    fn internal_sparse_edges_never_reach_the_kernel() {
        // Supernode 2 holds sparse 2 and 5 and dense 8; sparse 7 and 9 are
        // supernodes of their own. (2,5) joins two sparse members: it is
        // left out from both ends and never hashed. (2,8) is internal too,
        // but 8 is dense: hashed once, from 2's side, it cancels against
        // 8's slice. The cut edges (2,7) and (5,9) are kept.
        let p = params(12);
        let mut root_of: Vec<u32> = (0..12).collect();
        root_of[5] = 2;
        root_of[8] = 2;
        let retired = [false; 12];
        let members = live_members(&root_of, &retired);
        let mut sparse = [false; 12];
        for v in [2, 5, 7, 9] {
            sparse[v] = true;
        }
        let sets = [(2u32, vec![5u32, 7, 8]), (5, vec![2, 9]), (7, vec![2]), (9, vec![5])];
        let idx = |a, b| update_index(a, b, 12);

        let mut sink = RoundSink::new(&root_of, &retired, &members, SparseMap::Known(&sparse));
        let mut batch = SparseRoundBatch::default();
        for (node, set) in &sets {
            batch.push(&mut sink, *node, set.iter().copied(), 12);
        }
        let mut handed = Vec::new();
        batch.drain_groups(|root, indices| {
            let mut indices = indices.to_vec();
            indices.sort_unstable();
            handed.push((root, indices));
        });
        let mut group = vec![idx(2, 7), idx(2, 8), idx(5, 9)];
        group.sort_unstable();
        assert_eq!(handed, vec![(2, group), (7, vec![idx(2, 7)]), (9, vec![idx(5, 9)])]);
        let hashed: usize = handed.iter().map(|(_, indices)| indices.len()).sum();
        assert_eq!(hashed, 5, "(2,5) never reaches the kernel, (2,8) reaches it once");

        // Folded for real, beside 8's dense slice: the accumulator is the
        // XOR of the three members' slices, (2,5) and (2,8) cancelled.
        let slice = |node: u32, set: &[u32]| {
            SparseSet::from_neighbors(set.to_vec()).synthesize_round(node, &p, 0)
        };
        let dense8 = slice(8, &[2, 11]);
        let mut oracle = RoundSink::new(&root_of, &retired, &members, SparseMap::Learning);
        for (node, set) in &sets {
            oracle.fold(*node, slice(*node, set).view());
        }
        oracle.fold(8, dense8.view());
        let mut in_place = RoundSink::new(&root_of, &retired, &members, SparseMap::Known(&sparse));
        for (node, set) in &sets {
            batch.push(&mut in_place, *node, set.iter().copied(), 12);
        }
        batch.fold_into(&mut in_place, &p, 0);
        in_place.fold(8, dense8.view());
        assert_eq!(oracle.into_folded(), in_place.into_folded());

        // A supernode with nothing but internal sparse edges hashes nothing.
        let mut sink = RoundSink::new(&root_of, &retired, &members, SparseMap::Known(&sparse));
        batch.push(&mut sink, 2, [5u32].into_iter(), 12);
        batch.push(&mut sink, 5, [2u32].into_iter(), 12);
        batch.drain_groups(|root, indices| assert_eq!((root, indices.len()), (2, 0)));
    }

    #[test]
    fn resident_bytes_counts_live_entries() {
        let mut s = SparseSet::new();
        s.toggle_batch(0, &records(&[1, 2, 1]));
        assert_eq!(s.resident_bytes(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::node_sketch::encode_other;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One sorted merge per batch is a loop of single flips, each a
        /// binary search and an insert or a remove: over a 16-id domain, so
        /// batches are full of odd and even runs, with self-loops, delete
        /// flags, and empty sets and batches among the cases.
        #[test]
        fn toggle_batch_equals_a_loop_of_toggles(
            node in 0u32..16,
            start in proptest::collection::vec(0u32..16, 0..12),
            raw in proptest::collection::vec((0u32..16, any::<bool>()), 0..40)
        ) {
            let start: Vec<u32> = start.into_iter().filter(|&other| other != node).collect();
            let mut set = SparseSet::from_neighbors(start);
            let mut reference = set.neighbors().to_vec();
            for &(other, _) in &raw {
                if other == node {
                    continue;
                }
                match reference.binary_search(&other) {
                    Ok(i) => {
                        reference.remove(i);
                    }
                    Err(i) => reference.insert(i, other),
                }
            }
            let records: Vec<u32> =
                raw.iter().map(|&(other, delete)| encode_other(other, delete)).collect();
            prop_assert_eq!(set.toggle_batch(node, &records), reference.len());
            prop_assert_eq!(set.neighbors(), &reference[..]);
        }
    }
}
