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
use std::ops::Range;

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

    /// Flip membership of `other` (the Z₂ toggle). Returns the new live-set
    /// size, which the store compares against `τ` to decide promotion.
    pub fn toggle(&mut self, other: u32) -> usize {
        match self.neighbors.binary_search(&other) {
            Ok(i) => {
                self.neighbors.remove(i);
            }
            Err(i) => self.neighbors.insert(i, other),
        }
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
    /// indices, so no self-cancellation pre-pass is needed.
    pub fn replay_indices(&self, node: u32, num_nodes: u64) -> Vec<u64> {
        edge_indices(node, self.neighbors.iter().copied(), num_nodes).collect()
    }

    /// Materialize the full node sketch this set stands for — the promotion
    /// step. Bit-identical to an always-dense run (see module docs).
    pub fn densify(&self, node: u32, params: &SketchParams) -> CubeNodeSketch {
        let mut sketch = params.new_node_sketch();
        if !self.neighbors.is_empty() {
            let indices = self.replay_indices(node, params.num_nodes);
            sketch.update_batch_prepared(&indices);
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
            sketch.update_batch_prepared(&indices);
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
/// that supernode's accumulator with one batch-kernel call. By XOR-linearity
/// the accumulator ends up bit-identical to merging each vertex's
/// [`SparseSet::synthesize_round`] slice, while an edge whose endpoints are
/// both queued under the same supernode meets itself in the group and is
/// dropped before it is ever hashed.
#[derive(Default)]
pub(crate) struct SparseRoundBatch {
    /// Supernode root and range into `indices` of each queued vertex.
    vertices: Vec<(u32, Range<usize>)>,
    /// Characteristic-vector indices of the queued vertices' live edges.
    indices: Vec<u64>,
}

impl SparseRoundBatch {
    /// Queue `node` with its live `neighbors`, unless `sink` says its
    /// supernode has retired. A vertex with no neighbors is still queued:
    /// its (empty) contribution, sampled `Zero`, is what lets the engine
    /// retire it.
    pub(crate) fn push(
        &mut self,
        sink: &RoundSink<'_, CubeRoundSketch>,
        node: u32,
        neighbors: impl Iterator<Item = u32>,
        num_nodes: u64,
    ) {
        let Some(root) = sink.live_root(node) else { return };
        let start = self.indices.len();
        self.indices.extend(edge_indices(node, neighbors, num_nodes));
        self.vertices.push((root, start..self.indices.len()));
    }

    /// Hand each queued supernode its prepared index batch — its vertices'
    /// indices concatenated, with every index that occurs an even number of
    /// times (an edge between two of its queued vertices) dropped — and
    /// leave the batch empty.
    fn drain_groups(&mut self, mut f: impl FnMut(u32, &[u64])) {
        self.vertices.sort_unstable_by_key(|(root, _)| *root);
        let mut merged = Vec::new();
        for group in self.vertices.chunk_by(|a, b| a.0 == b.0) {
            if let [(root, only)] = group {
                // One vertex's neighbors are distinct, so are its indices.
                f(*root, &self.indices[only.clone()]);
                continue;
            }
            merged.clear();
            for (_, range) in group {
                merged.extend_from_slice(&self.indices[range.clone()]);
            }
            gz_sketch::cancel_duplicates(&mut merged);
            f(group[0].0, &merged);
        }
        self.vertices.clear();
        self.indices.clear();
    }

    /// Fold every queued vertex into its supernode's round-`round`
    /// accumulator in `sink` — a one-vertex supernode's into the sink's one
    /// scratch slice, sampled and reused ([`RoundSink::fold_built`]) —
    /// leaving the batch empty.
    pub(crate) fn fold_into(
        &mut self,
        sink: &mut RoundSink<'_, CubeRoundSketch>,
        params: &SketchParams,
        round: usize,
    ) {
        let family = &params.families[round];
        // One set of kernel accumulators for the whole drain: most groups
        // are a handful of indices, too few to pay for zeroing their own.
        let mut acc = LaneAccumulators::new();
        self.drain_groups(|root, indices| {
            sink.fold_built(
                root,
                || family.new_sketch(),
                |sketch| {
                    with_premixed(indices, |batch| sketch.update_batch_premixed(batch, &mut acc))
                },
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boruvka::{live_members, Folded};
    use crate::node_sketch::assert_rounds_bitwise_equal;
    use gz_sketch::{L0Sampler, SampleResult};

    fn params(v: u64) -> SketchParams {
        SketchParams::new(v, 5, 7, 0x5EED)
    }

    #[test]
    fn toggle_is_a_membership_flip() {
        let mut s = SparseSet::new();
        assert_eq!(s.toggle(7), 1);
        assert_eq!(s.toggle(3), 2);
        assert_eq!(s.toggle(7), 1); // second toggle cancels
        assert_eq!(s.neighbors(), &[3]);
        assert_eq!(s.toggle(3), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut s = SparseSet::new();
        for o in [9u32, 1, 5, 30, 2] {
            s.toggle(o);
        }
        assert_eq!(s.neighbors(), &[1, 2, 5, 9, 30]);
    }

    #[test]
    fn densify_matches_incremental_dense_bitwise() {
        // The promotion bit-identity argument, pinned: toggling a stream of
        // (insert, delete, re-insert) updates into the set and replaying
        // equals applying the same stream densely update by update.
        let p = params(64);
        let node = 6u32;
        let stream = [(9u32, 1), (12, 1), (9, 1), (40, 1), (9, 1), (12, 1), (12, 1)];
        let mut set = SparseSet::new();
        let mut dense = p.new_node_sketch();
        for (other, _) in stream {
            set.toggle(other);
            dense.update_signed(update_index(node, other, 64), 1);
        }
        let promoted = set.densify(node, &p);
        assert_rounds_bitwise_equal(&promoted, &dense, "replay vs incremental");
    }

    #[test]
    fn synthesize_round_matches_densify_slice() {
        let p = params(64);
        let mut set = SparseSet::new();
        for o in [1u32, 17, 33, 50] {
            set.toggle(o);
        }
        let full = set.densify(3, &p);
        for r in 0..p.rounds() {
            let slice = set.synthesize_round(3, &p, r);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            slice.serialize_into(&mut a);
            full.round(r).serialize_into(&mut b);
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
        let mut s = SparseSet::new();
        for o in [4u32, 200, 7] {
            s.toggle(o);
        }
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

    /// A fold per supernode with its accumulator serialized, `None` where
    /// nothing was folded.
    fn folded_bytes(sink: RoundSink<'_, CubeRoundSketch>) -> Vec<Option<Folded<Vec<u8>>>> {
        let bytes = |folded: Folded<CubeRoundSketch>| match folded {
            Folded::Acc(acc) => {
                let mut out = Vec::new();
                acc.serialize_into(&mut out);
                Folded::Acc(out)
            }
            Folded::Sampled(sample) => Folded::Sampled(sample),
        };
        sink.into_folded().into_iter().map(|folded| folded.map(bytes)).collect()
    }

    /// The accumulator `sink` holds for `root`.
    fn accumulator(sink: RoundSink<'_, CubeRoundSketch>, root: usize) -> CubeRoundSketch {
        match sink.into_folded().swap_remove(root) {
            Some(Folded::Acc(acc)) => acc,
            other => panic!("supernode {root} holds no accumulator: {other:?}"),
        }
    }

    #[test]
    fn in_place_fold_matches_synthesize_then_merge() {
        // Supernodes {0,1,2}, {3}, {4,5}; vertex 6 is retired and 7 empty.
        let p = params(8);
        let root_of = [0u32, 0, 0, 3, 4, 4, 6, 7];
        let mut retired = [false; 8];
        retired[6] = true;
        let members = live_members(&root_of, &retired);
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
            let mut oracle = RoundSink::new(&root_of, &retired, &members);
            let mut in_place = RoundSink::new(&root_of, &retired, &members);
            let mut batch = SparseRoundBatch::default();
            // Reverse order: grouping must not depend on arrival order.
            for (node, set) in sets.iter().enumerate().rev() {
                let node = node as u32;
                oracle.fold(node, &set.synthesize_round(node, &p, round));
                batch.push(&in_place, node, set.neighbors().iter().copied(), 8);
            }
            batch.fold_into(&mut in_place, &p, round);
            let (oracle, in_place) = (folded_bytes(oracle), folded_bytes(in_place));
            assert_eq!(oracle, in_place, "round {round}");
            assert!(in_place[6].is_none(), "retired supernodes are never folded");
            assert!(matches!(in_place[0], Some(Folded::Acc(_))), "{{0,1,2}} accumulates");
            let alone = sets[3].synthesize_round(3, &p, round).sample();
            assert_eq!(in_place[3], Some(Folded::Sampled(alone)), "{{3}} is sampled in place");
            assert_eq!(
                in_place[7],
                Some(Folded::Sampled(SampleResult::Zero)),
                "an isolated vertex is still sampled"
            );
        }
    }

    #[test]
    fn one_vertex_supernodes_share_one_scratch_slice() {
        // Every vertex its own supernode: nothing accumulates, and the
        // sink's only sketch is the scratch slice the sparse fold reuses.
        let p = params(16);
        let root_of: Vec<u32> = (0..16).collect();
        let retired = [false; 16];
        let members = live_members(&root_of, &retired);
        let sets: Vec<SparseSet> = (0..16u32)
            .map(|v| SparseSet::from_neighbors(vec![(v + 1) % 16, (v + 5) % 16]))
            .collect();
        let mut sink = RoundSink::new(&root_of, &retired, &members);
        let mut batch = SparseRoundBatch::default();
        for (node, set) in sets.iter().enumerate() {
            batch.push(&sink, node as u32, set.neighbors().iter().copied(), 16);
        }
        batch.fold_into(&mut sink, &p, 2);
        assert_eq!(sink.acc_bytes(), p.families[2].new_sketch().payload_bytes());
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
        let mut sink = RoundSink::new(&root_of, &retired, &members);
        let mut batch = SparseRoundBatch::default();
        for _ in 0..2 {
            batch.push(&sink, 3, set.neighbors().iter().copied(), 16);
        }
        batch.fold_into(&mut sink, &p, 0);
        assert!(accumulator(sink, 0).is_empty());
        // Twice across batches: the second XORs the first back out in place.
        let mut sink = RoundSink::new(&root_of, &retired, &members);
        for _ in 0..2 {
            batch.push(&sink, 3, set.neighbors().iter().copied(), 16);
            batch.fold_into(&mut sink, &p, 0);
        }
        assert!(accumulator(sink, 0).is_empty());
    }

    #[test]
    fn a_supernodes_internal_edge_is_cancelled_before_hashing() {
        // Vertices 2 and 5 share supernode 2: edge (2,5) is queued from both
        // ends and must be gone from the batch the kernel would hash; the
        // cut edges (2,7) and (5,9) survive. Vertex 7 is its own supernode,
        // so its end of (2,7) stays.
        let mut root_of: Vec<u32> = (0..12).collect();
        root_of[5] = 2;
        let retired = [false; 12];
        let members = live_members(&root_of, &retired);
        let sink = RoundSink::new(&root_of, &retired, &members);
        let mut batch = SparseRoundBatch::default();
        batch.push(&sink, 2, [5u32, 7].into_iter(), 12);
        batch.push(&sink, 7, [2u32].into_iter(), 12);
        batch.push(&sink, 5, [2u32, 9].into_iter(), 12);
        let mut groups = Vec::new();
        batch.drain_groups(|root, indices| groups.push((root, indices.to_vec())));
        let mut cut = vec![update_index(2, 7, 12), update_index(5, 9, 12)];
        cut.sort_unstable();
        assert_eq!(groups, vec![(2, cut), (7, vec![update_index(2, 7, 12)])]);
        // A supernode with nothing but internal edges hashes nothing at all.
        batch.push(&sink, 2, [5u32].into_iter(), 12);
        batch.push(&sink, 5, [2u32].into_iter(), 12);
        batch.drain_groups(|root, indices| assert_eq!((root, indices.len()), (2, 0)));
    }

    #[test]
    fn resident_bytes_counts_live_entries() {
        let mut s = SparseSet::new();
        s.toggle(1);
        s.toggle(2);
        s.toggle(1);
        assert_eq!(s.resident_bytes(), 4);
    }
}
