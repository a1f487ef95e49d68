//! Per-vertex sketch stacks.
//!
//! A *node sketch* (paper §2.2) is `O(log V)` independent ℓ0-sketches of the
//! vertex's characteristic edge-vector — one per Boruvka round, because
//! adaptivity forbids reusing a sketch after its randomness has been
//! revealed (paper footnote 1). A stack is one allocation of its rounds'
//! words, concatenated, and a round is a view into it ([`CubeRound`]). The
//! families live in [`SketchParams`], once, and it alone knows the layout
//! (DESIGN.md §2): the size of `k` stacks, a node group's round-major image
//! and its round spans, the views at node `i`, and the one encoding (the
//! words' own bytes where [`CubeSketchFamily::encodes_in_place`]).

use gz_graph::{edge_index, Edge, VertexId};
use gz_hash::{SplitMix64, Xxh64Hasher};
use gz_sketch::cube::{
    with_premixed, word_bytes, word_bytes_mut, CubeRound, CubeRoundMut, CubeSketch,
    CubeSketchFamily, Kernel, LaneAccumulators, PayloadError,
};
use gz_sketch::geometry::SketchGeometry;
use gz_sketch::SampleResult;
use std::ops::Range;
use std::sync::Arc;

/// One CubeSketch family a round, shared by every stack of a system.
pub type Families = Arc<[Arc<CubeSketchFamily<Xxh64Hasher>>]>;

/// A stack of per-round CubeSketches for one vertex (or supernode): one
/// allocation holding round 0's words, then round 1's, and so on.
#[derive(Debug, Clone)]
pub struct NodeSketch {
    families: Families,
    words: Box<[u64]>,
}

/// The GraphZeppelin node sketch.
pub type CubeNodeSketch = NodeSketch;

/// One round of a node sketch, owned — an accumulator, or a slice that
/// arrived from outside the stack (a shard's reply, a deserialized read).
pub type CubeRoundSketch = CubeSketch<Xxh64Hasher>;

/// A node's stack where it lies: round `r`'s words start at `r × stride`.
/// A [`NodeSketch`]'s stride is one round's words; a node of a stored
/// group's round-major image strides over the group's other nodes.
#[derive(Clone, Copy)]
pub(crate) struct Stack<'a> {
    families: &'a Families,
    words: &'a [u64],
    stride: usize,
}

/// [`Stack`], writable.
pub(crate) struct StackMut<'a> {
    families: &'a Families,
    words: &'a mut [u64],
    stride: usize,
}

/// XOR `src` into `dst`, word by word.
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Words of one round of a stack over `families`: every round's.
fn round_words(families: &[Arc<CubeSketchFamily<Xxh64Hasher>>]) -> usize {
    families.first().map_or(0, |f| f.words())
}

/// True if words over `families` are byte for byte their encoding, so a
/// file region reads into them, and writes from them, directly.
fn encodes_in_place(families: &[Arc<CubeSketchFamily<Xxh64Hasher>>]) -> bool {
    families.first().is_none_or(|f| f.encodes_in_place())
}

/// The layout's one encoder ([`SketchParams::encode`]).
fn encode<'a>(families: &Families, words: &'a [u64], buf: &'a mut Vec<u8>) -> &'a [u8] {
    if encodes_in_place(families) {
        return word_bytes(words);
    }
    buf.clear();
    // Any round's family reads any round's slice: they share one geometry.
    for slice in words.chunks_exact(families[0].words()) {
        CubeRound::new(&families[0], slice).append_words(buf);
    }
    buf
}

/// True if two stacks' rounds are mergeable (the same families, or
/// families of the same geometry and seeds).
fn compatible(a: &Families, b: &Families) -> bool {
    Arc::ptr_eq(a, b)
        || a.len() == b.len()
            && a.iter().zip(b.iter()).all(|(a, b)| Arc::ptr_eq(a, b) || a.compatible(b))
}

impl<'a> Stack<'a> {
    /// True if the rounds lie back to back.
    fn contiguous(&self) -> bool {
        self.stride == round_words(self.families)
    }

    /// Number of rounds.
    pub(crate) fn num_rounds(&self) -> usize {
        self.families.len()
    }

    /// The round-`r` sketch, where it lies.
    #[inline]
    pub(crate) fn round(&self, r: usize) -> CubeRound<'a> {
        let len = round_words(self.families);
        CubeRound::new(&self.families[r], &self.words[r * self.stride..][..len])
    }

    /// Append the stack's encoding to `out`: its rounds', in round order.
    pub(crate) fn append_words(&self, out: &mut Vec<u8>) {
        let mut buf = Vec::new();
        for r in 0..self.num_rounds() {
            out.extend_from_slice(encode(self.families, self.round(r).words(), &mut buf));
        }
    }

    /// An owned copy: one allocation.
    pub(crate) fn to_node_sketch(self) -> NodeSketch {
        let words = (0..self.num_rounds()).flat_map(|r| self.round(r).words()).copied().collect();
        NodeSketch { families: Arc::clone(self.families), words }
    }
}

impl StackMut<'_> {
    /// The same stack, read-only.
    pub(crate) fn view(&self) -> Stack<'_> {
        Stack { families: self.families, words: self.words, stride: self.stride }
    }

    /// The round-`r` sketch, where it lies, writable.
    #[inline]
    pub(crate) fn round_mut(&mut self, r: usize) -> CubeRoundMut<'_> {
        let len = round_words(self.families);
        CubeRoundMut::new(&self.families[r], &mut self.words[r * self.stride..][..len])
    }

    /// Apply one batch of characteristic-vector toggles, decoded to
    /// indices, to every round via the batch kernel. The premix (the half of
    /// each record's hash that no seed enters) is round-independent, so one
    /// pass serves all `O(log V)` rounds; duplicates cancel in the kernel's
    /// accumulators. Bit-identical to toggling the records one at a time.
    pub(crate) fn update_batch(&mut self, indices: &[u64]) {
        let rw = round_words(self.families);
        with_premixed(indices, |batch| {
            let mut acc = LaneAccumulators::new();
            for (family, words) in self.families.iter().zip(self.words.chunks_mut(self.stride)) {
                CubeRoundMut::new(family, &mut words[..rw]).update_batch_premixed(batch, &mut acc);
            }
        });
    }

    /// XOR `other` into this stack, round by round (supernode formation,
    /// a delta merged into its target): one pass over one slice where both
    /// stacks are contiguous.
    ///
    /// # Panics
    /// Panics if the stacks' families are not mergeable.
    pub(crate) fn merge(&mut self, other: Stack<'_>) {
        assert!(compatible(self.families, other.families), "cannot merge stacks of other families");
        if self.view().contiguous() && other.contiguous() {
            let len = self.families.len() * round_words(self.families);
            xor_words(&mut self.words[..len], &other.words[..len]);
        } else {
            for r in 0..self.families.len() {
                self.round_mut(r).merge(other.round(r));
            }
        }
    }

    /// Overwrite this stack with `other` (a promoted or restored stack put
    /// in its place).
    pub(crate) fn copy_from(&mut self, other: Stack<'_>) {
        assert!(compatible(self.families, other.families), "a stack of other families");
        let rw = round_words(self.families);
        for r in 0..self.families.len() {
            self.words[r * self.stride..][..rw].copy_from_slice(other.round(r).words());
        }
    }
}

impl NodeSketch {
    /// A stack built from its rounds' sketches, in round order — each of
    /// `params`' round-`r` family.
    ///
    /// # Panics
    /// Panics if a round is not its family's, or the count is not
    /// [`SketchParams::rounds`].
    pub fn from_rounds(
        params: &SketchParams,
        rounds: impl IntoIterator<Item = CubeRoundSketch>,
    ) -> Self {
        let mut stack = params.new_node_sketch();
        let mut count = 0;
        for (r, round) in rounds.into_iter().enumerate() {
            assert!(params.families[r].compatible(round.family()), "round {r} of another family");
            stack.round_mut(r).merge(&round);
            count += 1;
        }
        assert_eq!(count, params.rounds(), "one sketch a round");
        stack
    }

    /// The stack, borrowed.
    #[inline]
    pub(crate) fn view(&self) -> Stack<'_> {
        Stack { families: &self.families, words: &self.words, stride: round_words(&self.families) }
    }

    /// The stack, borrowed writable.
    #[inline]
    pub(crate) fn view_mut(&mut self) -> StackMut<'_> {
        let stride = round_words(&self.families);
        StackMut { families: &self.families, words: &mut self.words, stride }
    }

    /// Number of rounds (sketches) in the stack.
    #[inline]
    pub fn num_rounds(&self) -> usize {
        self.families.len()
    }

    /// The round-`r` sketch, where it lies.
    #[inline]
    pub fn round(&self, r: usize) -> CubeRound<'_> {
        self.view().round(r)
    }

    /// The round-`r` sketch, where it lies, writable.
    #[inline]
    pub fn round_mut(&mut self, r: usize) -> CubeRoundMut<'_> {
        let len = round_words(&self.families);
        CubeRoundMut::new(&self.families[r], &mut self.words[r * len..][..len])
    }

    /// Every round, writable — one view a round, each over its own words,
    /// so rounds can go to different threads (*sketch-level parallelism*,
    /// paper §5.1: "a CubeSketch is only modified by one thread in a group
    /// \[and\] no locking is necessary at the sketch level"). A benchmark
    /// pin: the repository benchmark's sketch probe takes its round 0 this
    /// way, and nothing else calls it.
    pub fn rounds_mut(&mut self) -> Vec<CubeRoundMut<'_>> {
        let len = round_words(&self.families).max(1);
        self.families
            .iter()
            .zip(self.words.chunks_exact_mut(len))
            .map(|(f, w)| CubeRoundMut::new(f, w))
            .collect()
    }

    /// Toggle coordinate `idx` in **every** round's sketch (each stream
    /// update costs `O(log V)` subsketch updates; §2.2). Over Z_2 an insert
    /// and a delete are the same toggle, so `_delta` is not read.
    pub fn update_signed(&mut self, idx: u64, _delta: i32) {
        for r in 0..self.num_rounds() {
            self.round_mut(r).update(idx);
        }
    }

    /// Apply one batch of characteristic-vector toggles to every round via
    /// the batch kernel, premixed once for all rounds. Bit-identical to
    /// toggling the records one at a time.
    pub fn update_batch(&mut self, indices: &[u64]) {
        self.view_mut().update_batch(indices);
    }

    /// Merge another stack round-by-round (supernode formation in Boruvka):
    /// one pass over the words.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.num_rounds(), other.num_rounds(), "round count mismatch");
        self.view_mut().merge(other.view());
    }

    /// Sample from the round-`r` sketch.
    pub fn sample_round(&self, r: usize) -> SampleResult {
        self.round(r).query()
    }

    /// Reset every round to the zero sketch (scratch reuse in the ingestion
    /// pipeline's delta-sketch path): one fill of the words.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Total resident payload bytes across rounds: the encoding's length.
    pub fn payload_bytes(&self) -> usize {
        self.families.iter().map(|f| f.payload_bytes()).sum()
    }
}

/// Shared per-round CubeSketch families for a whole system, and the one
/// owner of where a stack's words lie and how they are encoded (the
/// module's documentation).
///
/// All vertices share the same per-round hash functions — required for
/// supernode merging — so families are constructed once and handed to every
/// store/worker. Every round has the same geometry; only the seeds differ.
#[derive(Debug, Clone)]
pub struct SketchParams {
    /// Number of vertices the characteristic vectors are defined over.
    pub num_nodes: u64,
    /// Per-round sketch families (hash functions + geometry).
    pub families: Families,
}

impl SketchParams {
    /// Families for `num_nodes` vertices, `rounds` rounds, `columns` sketch
    /// columns, derived deterministically from `seed`.
    pub fn new(num_nodes: u64, rounds: u32, columns: u32, seed: u64) -> Self {
        let geometry = Self::geometry(num_nodes, columns);
        let families: Vec<_> = (0..rounds as u64)
            .map(|r| CubeSketchFamily::new(geometry, SplitMix64::derive(seed, r)))
            .collect();
        SketchParams { num_nodes, families: families.into() }
    }

    /// Every round's sketch geometry at `num_nodes` vertices and `columns`
    /// columns — what a header's fields size without building families.
    pub fn geometry(num_nodes: u64, columns: u32) -> SketchGeometry {
        SketchGeometry::with_columns(gz_graph::edge_index_count(num_nodes).max(1), columns)
    }

    /// The column kernel this host runs every round's batches through:
    /// the rounds' families differ only in seed, so they all choose alike.
    pub fn kernel(&self) -> Kernel {
        self.families[0].kernel()
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.families.len()
    }

    /// A fresh all-zero node sketch: one allocation.
    pub fn new_node_sketch(&self) -> CubeNodeSketch {
        NodeSketch {
            families: Arc::clone(&self.families),
            words: vec![0u64; self.image_words(1)].into_boxed_slice(),
        }
    }

    /// Words of `k` stacks: one node's, or a node group's round-major
    /// image (round `r` of node `i` at slice `r × k + i`).
    pub(crate) fn image_words(&self, k: usize) -> usize {
        k * self.rounds() * round_words(&self.families)
    }

    /// Bytes of the encoding of `k` stacks: a checkpoint's node, the disk
    /// store's node group.
    pub(crate) fn image_bytes(&self, k: usize) -> usize {
        k * self.node_sketch_resident_bytes()
    }

    /// Round `round`'s bytes in the encoding of `k` stacks' image: one
    /// contiguous span, the one read a Borůvka round makes of a node group
    /// (paper §4.2).
    pub(crate) fn round_span(&self, k: usize, round: usize) -> Range<usize> {
        let len = k * self.round_resident_bytes();
        round * len..(round + 1) * len
    }

    /// Node `i`'s stack in `image`, the round-major words of as many stacks
    /// as its length holds.
    pub(crate) fn stack_at<'a>(&'a self, image: &'a [u64], i: usize) -> Stack<'a> {
        let (rw, k) = (round_words(&self.families), image.len() / self.image_words(1).max(1));
        Stack { families: &self.families, words: &image[i * rw..], stride: k * rw }
    }

    /// [`Self::stack_at`], writable.
    pub(crate) fn stack_at_mut<'a>(&'a self, image: &'a mut [u64], i: usize) -> StackMut<'a> {
        let (rw, k) = (round_words(&self.families), image.len() / self.image_words(1).max(1));
        StackMut { families: &self.families, words: &mut image[i * rw..], stride: k * rw }
    }

    /// Node `i`'s slice in `slices`, a [`Self::round_span`] decoded.
    pub(crate) fn round_at<'a>(&'a self, slices: &'a [u64], i: usize, r: usize) -> CubeRound<'a> {
        let rw = round_words(&self.families);
        CubeRound::new(&self.families[r], &slices[i * rw..][..rw])
    }

    /// The encoding of `words`, whole round slices in the order they lie
    /// (an image, a stack, one round's slices): the words' own bytes where
    /// they are their encoding, else encoded into `buf`.
    pub(crate) fn encode<'a>(&self, words: &'a [u64], buf: &'a mut Vec<u8>) -> &'a [u8] {
        encode(&self.families, words, buf)
    }

    /// Decode `len` bytes that [`Self::encode`] wrote into `words`, resized
    /// to fit: `read` fills the words' own bytes where they are their
    /// encoding, else a staging buffer then decoded slice by slice.
    pub(crate) fn decode<E>(
        &self,
        words: &mut Vec<u64>,
        len: usize,
        read: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (rw, rb) = (round_words(&self.families), self.round_resident_bytes().max(1));
        words.resize(len / rb * rw, 0);
        if encodes_in_place(&self.families) {
            return read(word_bytes_mut(words));
        }
        let mut staged = vec![0u8; len];
        read(&mut staged)?;
        for (slice, bytes) in words.chunks_exact_mut(rw).zip(staged.chunks_exact(rb)) {
            CubeRoundMut::new(&self.families[0], slice).load_words(bytes);
        }
        Ok(())
    }

    /// [`Self::decode`] of one node sketch.
    pub(crate) fn read_node_sketch<E>(
        &self,
        read: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<CubeNodeSketch, E> {
        let mut words = Vec::new();
        self.decode(&mut words, self.image_bytes(1), read)?;
        Ok(NodeSketch { families: Arc::clone(&self.families), words: words.into() })
    }

    /// Bytes of one node sketch under the paper's accounting: 12 bytes a
    /// bucket ([`SketchGeometry::cube_sketch_bytes`]).
    pub fn node_sketch_bytes(&self) -> usize {
        self.families.iter().map(|f| f.geometry().cube_sketch_bytes()).sum()
    }

    /// Resident (and encoded) bytes of one stack of `rounds` rounds at
    /// `geometry`, sized without families (a checkpoint header's).
    pub fn stack_resident_bytes(geometry: SketchGeometry, rounds: usize) -> usize {
        geometry.cube_resident_bytes() * rounds
    }

    /// Resident size of one node sketch ([`NodeSketch::payload_bytes`]),
    /// which is also its encoding's: what a checkpoint, the state digest
    /// and the disk store's file hold a node.
    pub fn node_sketch_resident_bytes(&self) -> usize {
        self.families.first().map_or(0, |f| Self::stack_resident_bytes(f.geometry(), self.rounds()))
    }

    /// Resident (and encoded) size of one round's slice of a node sketch:
    /// every round's is the same.
    pub fn round_resident_bytes(&self) -> usize {
        self.families.first().map_or(0, |f| Self::stack_resident_bytes(f.geometry(), 1))
    }

    /// Encode a node sketch into `out`: its rounds' resident words,
    /// concatenated — the layout's one encoder at one stack.
    pub fn serialize_node_sketch(&self, sketch: &CubeNodeSketch, out: &mut Vec<u8>) {
        out.extend_from_slice(self.encode(&sketch.words, &mut Vec::new()));
    }

    /// Decode a node sketch [`Self::serialize_node_sketch`] wrote: the
    /// layout's one decoder at one stack.
    ///
    /// # Panics
    /// Panics if `bytes` is not [`Self::node_sketch_resident_bytes`] long.
    pub fn deserialize_node_sketch(&self, bytes: &[u8]) -> CubeNodeSketch {
        let Ok(sketch) = self.read_node_sketch(|words| {
            words.copy_from_slice(bytes);
            Ok::<_, std::convert::Infallible>(())
        });
        sketch
    }

    /// Encode only the round-`round` slice of a node sketch — the unit a
    /// shard's `GatherRound` reply moves (one round of one vertex).
    pub fn serialize_round(&self, sketch: &CubeNodeSketch, round: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(self.encode(sketch.round(round).words(), &mut Vec::new()));
    }

    /// Decode a round slice [`Self::serialize_round`] wrote.
    ///
    /// # Panics
    /// Panics if `bytes` is not the round's length ([`Self::check_round`]).
    pub fn deserialize_round(&self, round: usize, bytes: &[u8]) -> CubeRoundSketch {
        let mut sketch = self.families[round].new_sketch();
        sketch.load_words(bytes);
        sketch
    }

    /// Check a round slice from outside the process (a shard's reply)
    /// before it is folded. Every bit pattern is a payload, so its length
    /// is all there is to check.
    pub fn check_round(&self, bytes: &[u8]) -> Result<(), PayloadError> {
        let (expected, got) = (self.round_resident_bytes(), bytes.len());
        if got == expected {
            Ok(())
        } else {
            Err(PayloadError::Length { expected, got })
        }
    }
}

/// Test support: assert two node sketch stacks are bit-identical, round by
/// round (the batch-kernel == singles invariant the store and ingest tests
/// pin).
#[cfg(test)]
pub(crate) fn assert_rounds_bitwise_equal(a: &CubeNodeSketch, b: &CubeNodeSketch, ctx: &str) {
    assert_eq!(a.num_rounds(), b.num_rounds(), "{ctx}: round count");
    for r in 0..a.num_rounds() {
        let (mut ab, mut bb) = (Vec::new(), Vec::new());
        a.round(r).append_words(&mut ab);
        b.round(r).append_words(&mut bb);
        assert_eq!(ab, bb, "{ctx}: round {r}");
    }
}

/// The `u32` batch record of an update's other endpoint: the vertex id
/// itself, every bit of it. Over Z_2 an insert and a delete are the same
/// toggle, so `_is_delete` is not recorded; the parameter stays so callers
/// can hand over the update as they read it.
#[inline]
pub fn encode_other(other: VertexId, _is_delete: bool) -> u32 {
    other
}

/// The characteristic-vector index toggled by an update `(node, other)`.
#[inline]
pub fn update_index(node: VertexId, other: VertexId, num_nodes: u64) -> u64 {
    edge_index(Edge::new(node, other), num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(v: u64) -> SketchParams {
        SketchParams::new(v, 6, 7, 42)
    }

    #[test]
    fn node_sketch_round_count() {
        let p = params(64);
        let s = p.new_node_sketch();
        assert_eq!(s.num_rounds(), 6);
    }

    #[test]
    fn update_touches_every_round() {
        let p = params(64);
        let mut s = p.new_node_sketch();
        let idx = update_index(3, 9, 64);
        s.update_signed(idx, 1);
        for r in 0..s.num_rounds() {
            assert_eq!(s.sample_round(r), SampleResult::Index(idx), "round {r}");
        }
    }

    #[test]
    fn rounds_are_independent_families() {
        // Same vector, different hash functions per round: the bucket
        // payloads must differ (otherwise adaptivity is broken).
        let p = params(64);
        let mut s = p.new_node_sketch();
        s.update_signed(update_index(0, 1, 64), 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.serialize_round(&s, 0, &mut a);
        p.serialize_round(&s, 1, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_cancels_shared_edges() {
        let p = params(64);
        let (mut su, mut sv) = (p.new_node_sketch(), p.new_node_sketch());
        // Edge (3, 9) present: appears in both endpoint vectors; after
        // merging the supernode {3, 9}, it must cancel.
        let idx = update_index(3, 9, 64);
        su.update_signed(idx, 1);
        sv.update_signed(idx, 1);
        // Edge (3, 20) crosses the cut: only in node 3's vector.
        let cross = update_index(3, 20, 64);
        su.update_signed(cross, 1);
        su.merge(&sv);
        assert_eq!(su.sample_round(0), SampleResult::Index(cross));
    }

    #[test]
    fn serialization_round_trip() {
        let p = params(32);
        let mut s = p.new_node_sketch();
        for (a, b) in [(0u32, 1u32), (5, 9), (30, 31)] {
            s.update_signed(update_index(a, b, 32), 1);
        }
        let mut bytes = Vec::new();
        p.serialize_node_sketch(&s, &mut bytes);
        assert_eq!(bytes.len(), p.node_sketch_resident_bytes());
        let t = p.deserialize_node_sketch(&bytes);
        assert_rounds_bitwise_equal(&s, &t, "decoded");
    }

    #[test]
    fn round_slices_tile_the_node_record() {
        let p = params(32);
        let mut s = p.new_node_sketch();
        s.update_signed(update_index(1, 2, 32), 1);
        s.update_signed(update_index(5, 30, 32), 1);
        let mut whole = Vec::new();
        p.serialize_node_sketch(&s, &mut whole);
        let mut off = 0;
        for r in 0..s.num_rounds() {
            let len = p.round_resident_bytes();
            let mut slice = Vec::new();
            p.serialize_round(&s, r, &mut slice);
            assert_eq!(&whole[off..off + len], &slice[..], "round {r}");
            assert_eq!(p.deserialize_round(r, &slice).query(), s.sample_round(r));
            off += len;
        }
        assert_eq!(off, whole.len());
    }

    /// The golden batch: 200 toggles of node 5's edges over its 63 possible
    /// neighbours, so every edge recurs — 23 of them an even number of times.
    fn golden_batch() -> Vec<u64> {
        golden_batch_at(64)
    }

    /// [`golden_batch`] among the top 64 vertices of a `v`-vertex graph: at
    /// `v = 2^17` every index is past `2^32`.
    fn golden_batch_at(v: u64) -> Vec<u64> {
        let base = (v - 64) as u32;
        let node = 5u32;
        (0..200u32)
            .map(|i| {
                let other = (i * 29 + i / 7) % 63;
                update_index(base + node, base + other + (other >= node) as u32, v)
            })
            .collect()
    }

    /// A stack in the paper's 12-byte model, built from its words: per
    /// round, every bucket's `α` as a little-endian `u64`, then every `γ`
    /// as a `u32` — the rendering the golden digests were taken of.
    fn paper_model(p: &SketchParams, stack: &CubeNodeSketch) -> Vec<u8> {
        let mut out = Vec::new();
        for r in 0..stack.num_rounds() {
            let mut words = Vec::new();
            p.serialize_round(stack, r, &mut words);
            let n = p.families[r].geometry().num_buckets();
            let (packed, highs) = words.split_at(n * 8);
            let word = |i: usize| u64::from_le_bytes(packed[i * 8..][..8].try_into().unwrap());
            let high = |i: usize| {
                highs.get(i * 4..i * 4 + 4).map_or(0, |h| u32::from_le_bytes(h.try_into().unwrap()))
            };
            for i in 0..n {
                let alpha = u64::from(high(i)) << 32 | word(i) & 0xFFFF_FFFF;
                out.extend_from_slice(&alpha.to_le_bytes());
            }
            for i in 0..n {
                out.extend_from_slice(&((word(i) >> 32) as u32).to_le_bytes());
            }
        }
        out
    }

    fn stack_digest(p: &SketchParams, stack: &CubeNodeSketch) -> u64 {
        gz_hash::xxh64(&paper_model(p, stack), 0)
    }

    /// The golden batch through every route into a stack — the batch kernel
    /// with duplicates left in, per-record singles — each of which must land
    /// on `golden`.
    fn assert_golden_on_every_route(p: &SketchParams, golden: u64) {
        let batch = golden_batch_at(p.num_nodes);

        let mut kernel = p.new_node_sketch();
        kernel.update_batch(&batch);
        assert_eq!(stack_digest(p, &kernel), golden, "batch kernel, duplicates left in");

        let mut singles = p.new_node_sketch();
        for &idx in &batch {
            singles.update_signed(idx, 1);
        }
        assert_eq!(stack_digest(p, &singles), golden, "per-record singles");
    }

    #[test]
    fn golden_digest_pins_the_hash_to_bucket_mapping() {
        // Every checkpoint and every shard on the wire holds these bits,
        // and `params_digest` covers geometry and seed only: a kernel
        // or hash edit that moves one bucket must fail here, not when an old
        // checkpoint silently stops merging. The constant was computed at
        // the commit before the hash was split (PR 16), at the paper's seven
        // columns — the geometry every file written before the default moved
        // still names in its header.
        assert_golden_on_every_route(&params(64), 0xA64C_14EF_BB8B_C3E5);
    }

    #[test]
    fn golden_digest_of_the_default_geometry() {
        // The same pin for what a default-configured store holds today.
        let p = SketchParams::new(64, 6, crate::config::DEFAULT_COLUMNS, 42);
        assert_golden_on_every_route(&p, 0x1E0A_A822_B632_CEDF);
    }

    #[test]
    fn golden_digest_of_a_vector_past_2_to_the_32() {
        // The same pin where every `idx + 1` needs α's high word: at
        // V = 2^17 the vector is 2^33 long, so the buckets keep the α-high
        // plane and the family the scalar kernel. Computed before buckets
        // were packed into one word, when α was a whole `u64` everywhere.
        let p = SketchParams::new(1 << 17, 2, crate::config::DEFAULT_COLUMNS, 42);
        assert!(p.families[0].geometry().vector_len >= 1 << 32);
        assert!(golden_batch_at(p.num_nodes).iter().all(|&idx| idx >= 1 << 32));
        assert_golden_on_every_route(&p, 0xB02B_DFFC_A4C5_F733);
    }

    #[test]
    fn fewer_columns_are_a_prefix_of_more() {
        // Column `c` hashes under `derive(family_seed, c)` whatever the column
        // count, and buckets are column-major: a narrower stack fed the same
        // toggles holds, round for round, the first columns of the wider
        // one's words. So a change of column count drops or adds whole
        // columns and moves no bit of the ones both geometries share.
        let (narrow, wide) = (crate::config::DEFAULT_COLUMNS, crate::config::PAPER_COLUMNS);
        assert!(narrow < wide);
        let [p_narrow, p_wide] = [narrow, wide].map(|c| SketchParams::new(64, 6, c, 42));
        let batch = golden_batch();
        let (mut s_narrow, mut s_wide) = (p_narrow.new_node_sketch(), p_wide.new_node_sketch());
        s_narrow.update_batch(&batch);
        s_wide.update_batch(&batch);

        let rows = p_wide.families[0].geometry().num_rows as usize;
        let shared = narrow as usize * rows;
        for r in 0..p_wide.rounds() {
            let (mut got, mut whole) = (Vec::new(), Vec::new());
            p_narrow.serialize_round(&s_narrow, r, &mut got);
            p_wide.serialize_round(&s_wide, r, &mut whole);
            assert_eq!(got.len(), shared * 8, "round {r}");
            assert_eq!(got[..], whole[..shared * 8], "round {r}");
        }
    }

    #[test]
    fn fewer_rounds_are_a_prefix_of_more() {
        // Round `r` hashes under `derive(seed, r)` whatever the round count,
        // and an encoded stack is its rounds concatenated: the default
        // budget's stack fed the same toggles is, byte for byte, the first
        // rounds of the paper's. A query that finishes inside the smaller
        // budget reads the same bits under either.
        let v = 8192;
        let (fewer, more) = (crate::config::default_rounds(v), crate::config::paper_rounds(v));
        assert_eq!((fewer, more), (16, 23));
        let [p_fewer, p_more] = [fewer, more].map(|r| SketchParams::new(v, r, 3, 42));
        let batch: Vec<u64> = (0..200u32).map(|i| update_index(5, 6 + i * 37, v)).collect();
        let (mut s_fewer, mut s_more) = (p_fewer.new_node_sketch(), p_more.new_node_sketch());
        s_fewer.update_batch(&batch);
        s_more.update_batch(&batch);

        let (mut got, mut whole) = (Vec::new(), Vec::new());
        p_fewer.serialize_node_sketch(&s_fewer, &mut got);
        p_more.serialize_node_sketch(&s_more, &mut whole);
        let prefix: usize = fewer as usize * p_more.round_resident_bytes();
        assert_eq!(got.len(), prefix);
        assert_eq!(got[..], whole[..got.len()]);
    }

    #[test]
    fn encode_decode_other() {
        // The record is the vertex id, whatever the flag: ids from 2^31 up
        // alias no other vertex.
        for v in [0u32, 7, (1 << 31) - 1, 1 << 31, (1 << 31) + 5, u32::MAX] {
            assert_eq!(encode_other(v, false), v);
            assert_eq!(encode_other(v, true), v);
        }
    }

    #[test]
    fn params_deterministic_in_seed() {
        let a = SketchParams::new(64, 4, 7, 1);
        let b = SketchParams::new(64, 4, 7, 1);
        // Same seed -> compatible families (sketches mergeable).
        let mut sa = a.new_node_sketch();
        let sb = b.new_node_sketch();
        sa.merge(&sb); // would panic if families were incompatible
    }

    #[test]
    fn payload_matches_model() {
        // The paper's model is 12 bytes a bucket; a stack is resident, and
        // encoded, at 8 bytes a bucket below a 2^32-long vector, 12 above.
        for (v, resident_bucket_bytes) in [(128u64, 8), (1 << 17, 12)] {
            let p = SketchParams::new(v, 2, 3, 42);
            let buckets: usize = p.families.iter().map(|f| f.geometry().num_buckets()).sum();
            let s = p.new_node_sketch();
            assert_eq!(p.node_sketch_bytes(), buckets * 12, "V = {v}");
            assert_eq!(paper_model(&p, &s).len(), p.node_sketch_bytes(), "V = {v}");
            let mut bytes = Vec::new();
            p.serialize_node_sketch(&s, &mut bytes);
            assert_eq!(s.payload_bytes(), buckets * resident_bucket_bytes, "V = {v}");
            assert_eq!(bytes.len(), s.payload_bytes(), "V = {v}");
            assert_eq!(p.node_sketch_resident_bytes(), s.payload_bytes(), "V = {v}");
        }
    }
}
