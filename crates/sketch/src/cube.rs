//! CubeSketch: the paper's ℓ0-sampler for vectors over Z_2 (§3.1, Figure 6).
//!
//! Every bucket holds two XOR-accumulators: `α`, the XOR of the (offset)
//! binary representations of all coordinates currently "in" the bucket, and
//! `γ`, the XOR of their checksums. A coordinate `e` belongs to bucket row
//! `i` of column `j` iff the column hash `h_j(e)` has at least `i` trailing
//! zero bits — so row 0 holds everything and each deeper row holds an
//! (expected) half of the previous one. A bucket with exactly one surviving
//! coordinate reports it directly: `α` *is* its encoding and the checksum
//! certifies single support (Lemma 3).
//!
//! Three implementation choices relative to the pseudocode, all documented
//! in DESIGN.md (§2 and §9):
//!
//! - `α` accumulates `idx + 1` rather than `idx`, so the all-zero bucket
//!   unambiguously means "empty" even when coordinate 0 is in play; queries
//!   subtract the offset.
//! - Hash functions live in a shared [`CubeSketchFamily`], not in each
//!   sketch: sketches are only mergeable when built from identical hash
//!   functions (the paper shares them across all node sketches of a round),
//!   and sharing keeps per-sketch memory at exactly the bucket payload.
//! - One 64-bit hash per column serves both roles: the *depth* is its
//!   trailing-zero count and the *checksum* its high 32 bits, halving hash
//!   invocations on the update hot path relative to separate `h1`/`h2`
//!   draws. Update, query, and serialization all derive from the same call,
//!   so linearity and single-support certification are unaffected.
//!
//! The ingestion hot path enters through [`CubeSketch::update_batch`]
//! (paper Figure 8, `update_sketch_batch`): a self-cancellation pre-pass
//! drops coordinate pairs before any hashing (toggles over Z_2 — gutters
//! routinely deliver insert/delete pairs for the same edge), then a
//! column-major kernel hashes each survivor once per column and applies the
//! XORs in contiguous row order via a suffix-XOR sweep.

use crate::geometry::SketchGeometry;
use crate::{L0Sampler, SampleResult};
use gz_hash::{Hasher64, SplitMix64, Xxh64Hasher};
use std::sync::Arc;

/// Hard ceiling on sketch rows (`⌈log2 n⌉ ≤ 64` for `n: u64`); sizes the
/// batch kernel's stack-resident per-depth accumulators.
const MAX_ROWS: usize = 64;

/// Batches smaller than this skip the column-major kernel: the suffix-XOR
/// sweep touches every row of every column (`rows × columns` writes), which
/// only pays for itself once several updates share that fixed cost.
const KERNEL_MIN_BATCH: usize = 4;

/// Cancel coordinate pairs within a batch of Z_2 toggles, in place.
///
/// Over Z_2 an even number of toggles of the same coordinate is a no-op, so
/// duplicate pairs can be dropped *before any hashing* — the batch kernel's
/// pre-pass. Sorts `indices` and keeps one copy of each value that occurs an
/// odd number of times; the surviving order is ascending (irrelevant to the
/// sketch, whose updates commute).
pub fn cancel_duplicates(indices: &mut Vec<u64>) {
    if indices.len() < 2 {
        return;
    }
    indices.sort_unstable();
    let mut write = 0;
    let mut read = 0;
    while read < indices.len() {
        let value = indices[read];
        let mut run = 1;
        while read + run < indices.len() && indices[read + run] == value {
            run += 1;
        }
        if run % 2 == 1 {
            indices[write] = value;
            write += 1;
        }
        read += run;
    }
    indices.truncate(write);
}

/// Shared parameters (geometry + hash functions) for a family of mergeable
/// CubeSketches.
#[derive(Debug, Clone)]
pub struct CubeSketchFamily<H: Hasher64 = Xxh64Hasher> {
    geometry: SketchGeometry,
    seed: u64,
    /// One hash per column: depth = trailing zeros of its value, checksum =
    /// its high 32 bits.
    hash: Vec<H>,
}

impl<H: Hasher64> CubeSketchFamily<H> {
    /// Create the family identified by `(geometry, seed)`.
    pub fn new(geometry: SketchGeometry, seed: u64) -> Arc<Self> {
        let cols = geometry.num_columns as u64;
        let hash = (0..cols).map(|c| H::with_seed(SplitMix64::derive(seed, c))).collect();
        Arc::new(CubeSketchFamily { geometry, seed, hash })
    }

    /// Depth and checksum of encoded coordinate `enc` in column `col`, from
    /// a single 64-bit hash: row `i` membership needs `i` trailing zero bits
    /// (so depth = `1 + tz`, clamped to the row count) and the checksum is
    /// the high word. The two draw fully disjoint bits while `rows ≤ 32`
    /// (`n ≤ 2^32`); for longer vectors a row-`i` bucket with `i > 32`
    /// constrains the low `i − 32` checksum bits of its members, so the
    /// effective checksum entropy in those deepest rows is `64 − i` bits —
    /// e.g. still ≥ 25 bits at `n = 2^39` (`V ≈ 10^6`) — a bounded, rare-row
    /// weakening of the Lemma 3 certificate accepted in exchange for
    /// halving hash invocations (DESIGN.md §9).
    #[inline]
    fn depth_and_checksum(&self, col: usize, enc: u64) -> (usize, u32) {
        let h = self.hash[col].hash64(enc);
        let depth = (1 + h.trailing_zeros() as usize).min(self.geometry.num_rows as usize);
        (depth, (h >> 32) as u32)
    }

    /// The checksum a single surviving coordinate must certify with (query
    /// side of the same single-hash derivation).
    #[inline]
    fn checksum(&self, col: usize, enc: u64) -> u32 {
        (self.hash[col].hash64(enc) >> 32) as u32
    }

    /// Convenience: family for a vector of length `n` with default columns.
    pub fn for_vector(vector_len: u64, seed: u64) -> Arc<Self> {
        Self::new(SketchGeometry::for_vector(vector_len), seed)
    }

    /// The family's geometry.
    #[inline]
    pub fn geometry(&self) -> SketchGeometry {
        self.geometry
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh all-zero sketch of this family.
    pub fn new_sketch(self: &Arc<Self>) -> CubeSketch<H> {
        CubeSketch::new(Arc::clone(self))
    }

    /// True if two families are interoperable (same geometry and seed).
    pub fn compatible(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.seed == other.seed
    }
}

/// A CubeSketch: the bucket payload of one sketched vector.
///
/// Buckets are stored structure-of-arrays (`α`s then `γ`s) so the in-memory
/// footprint is the paper's 12 bytes per bucket and column updates touch
/// contiguous words.
///
/// ```
/// use gz_sketch::cube::CubeSketchFamily;
/// use gz_sketch::SampleResult;
///
/// // A family fixes the geometry and hash functions; sketches from one
/// // family are mergeable (linearity).
/// let family = CubeSketchFamily::<gz_hash::Xxh64Hasher>::for_vector(1_000, 42);
/// let mut a = family.new_sketch();
/// let mut b = family.new_sketch();
///
/// a.update(7);          // toggle coordinate 7 on
/// b.update(7);          // ...and the same coordinate in the other sketch
/// b.update(123);
///
/// a.merge(&b);          // S(x) + S(y) = S(x XOR y): coordinate 7 cancels
/// assert_eq!(a.query(), SampleResult::Index(123));
/// ```
#[derive(Debug, Clone)]
pub struct CubeSketch<H: Hasher64 = Xxh64Hasher> {
    family: Arc<CubeSketchFamily<H>>,
    alpha: Box<[u64]>,
    gamma: Box<[u32]>,
}

impl<H: Hasher64> CubeSketch<H> {
    /// A fresh all-zero sketch.
    pub fn new(family: Arc<CubeSketchFamily<H>>) -> Self {
        let n = family.geometry.num_buckets();
        CubeSketch {
            family,
            alpha: vec![0u64; n].into_boxed_slice(),
            gamma: vec![0u32; n].into_boxed_slice(),
        }
    }

    /// The family this sketch belongs to.
    pub fn family(&self) -> &Arc<CubeSketchFamily<H>> {
        &self.family
    }

    /// Toggle coordinate `idx` of the underlying Z_2 vector
    /// (paper Figure 6, `update_sketch`).
    #[inline]
    pub fn update(&mut self, idx: u64) {
        let geom = &self.family.geometry;
        debug_assert!(idx < geom.vector_len, "index {idx} out of range");
        let enc = idx + 1; // offset encoding: 0 is reserved for "empty"
        let rows = geom.num_rows as usize;
        for col in 0..geom.num_columns as usize {
            let (depth, checksum) = self.family.depth_and_checksum(col, enc);
            let base = col * rows;
            for r in base..base + depth {
                self.alpha[r] ^= enc;
                self.gamma[r] ^= checksum;
            }
        }
    }

    /// Apply a batch of coordinate toggles (the Graph Worker path, paper
    /// Figure 8 `update_sketch_batch`): self-cancellation pre-pass, then the
    /// column-major kernel. Bit-identical to per-update singles.
    pub fn update_batch(&mut self, indices: &[u64]) {
        let mut survivors = indices.to_vec();
        cancel_duplicates(&mut survivors);
        self.update_batch_prepared(&survivors);
    }

    /// The column-major batch kernel, without the cancellation pre-pass —
    /// callers that share one prepared (decoded + cancelled) index batch
    /// across many sketches (every round of a node stack) enter here.
    ///
    /// Per column, every index is hashed exactly once and its `(α, γ)`
    /// contribution is bucketed at its exact depth; a suffix-XOR sweep then
    /// applies the accumulated deltas to the column's rows in one contiguous
    /// descending pass (row `r` receives every contribution of depth
    /// `> r`). Correct for arbitrary batches — duplicate pairs cancel inside
    /// the accumulators — the pre-pass only saves their hashing cost.
    pub fn update_batch_prepared(&mut self, indices: &[u64]) {
        if indices.len() < KERNEL_MIN_BATCH {
            for &idx in indices {
                self.update(idx);
            }
            return;
        }
        let geom = &self.family.geometry;
        let rows = geom.num_rows as usize;
        debug_assert!(rows <= MAX_ROWS);
        // Per-depth XOR accumulators, stack-resident (rows ≤ 64). Index d
        // holds the XOR of contributions whose exact depth is d + 1.
        let mut acc_alpha = [0u64; MAX_ROWS];
        let mut acc_gamma = [0u32; MAX_ROWS];
        for col in 0..geom.num_columns as usize {
            for &idx in indices {
                debug_assert!(idx < geom.vector_len, "index {idx} out of range");
                let enc = idx + 1;
                let (depth, checksum) = self.family.depth_and_checksum(col, enc);
                acc_alpha[depth - 1] ^= enc;
                acc_gamma[depth - 1] ^= checksum;
            }
            // Suffix-XOR sweep: walking rows deepest-first, the running XOR
            // at row r is exactly the combined delta of all indices with
            // depth > r. Writes are contiguous within the column (buckets
            // are column-major), and the accumulators are re-zeroed in the
            // same pass for the next column.
            let base = col * rows;
            let (mut run_alpha, mut run_gamma) = (0u64, 0u32);
            for r in (0..rows).rev() {
                run_alpha ^= acc_alpha[r];
                run_gamma ^= acc_gamma[r];
                acc_alpha[r] = 0;
                acc_gamma[r] = 0;
                self.alpha[base + r] ^= run_alpha;
                self.gamma[base + r] ^= run_gamma;
            }
        }
    }

    /// Recover a nonzero coordinate (paper Figure 6, `query_sketch`).
    ///
    /// Scans each column from its deepest (sparsest) row upward: deep buckets
    /// are the likeliest to have single support when the vector is dense.
    pub fn query(&self) -> SampleResult {
        let geom = &self.family.geometry;
        let rows = geom.num_rows as usize;
        let mut all_empty = true;
        for col in 0..geom.num_columns as usize {
            let base = col * rows;
            for r in (base..base + rows).rev() {
                let (a, g) = (self.alpha[r], self.gamma[r]);
                if a == 0 && g == 0 {
                    continue; // empty (or an undetectable double-cancellation)
                }
                all_empty = false;
                if a != 0 && self.family.checksum(col, a) == g && a - 1 < geom.vector_len {
                    return SampleResult::Index(a - 1);
                }
            }
        }
        if all_empty {
            SampleResult::Zero
        } else {
            SampleResult::Fail
        }
    }

    /// True if every bucket is empty — w.h.p. the vector is zero.
    pub fn is_empty(&self) -> bool {
        self.alpha.iter().all(|&a| a == 0) && self.gamma.iter().all(|&g| g == 0)
    }

    /// Merge (XOR) another sketch of the same family into this one.
    ///
    /// This is sketch linearity (Definition 1): the result sketches the sum
    /// (XOR) of the two vectors.
    ///
    /// # Panics
    /// Panics if the sketches come from incompatible families.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.family.compatible(&other.family),
            "cannot merge sketches from different families"
        );
        for (a, b) in self.alpha.iter_mut().zip(other.alpha.iter()) {
            *a ^= *b;
        }
        for (a, b) in self.gamma.iter_mut().zip(other.gamma.iter()) {
            *a ^= *b;
        }
    }

    /// Reset to the all-zero sketch (reused as the scratch "delta sketch" in
    /// the ingestion pipeline's lock-minimizing path, paper §5.1).
    pub fn clear(&mut self) {
        self.alpha.fill(0);
        self.gamma.fill(0);
    }

    /// Payload size in bytes (α and γ arrays only), the Figure 5 metric.
    pub fn payload_bytes(&self) -> usize {
        self.alpha.len() * 8 + self.gamma.len() * 4
    }

    /// Serialize the payload to `out` (little-endian α words, then γ words).
    /// Used by the file-backed sketch store.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.payload_bytes());
        for &a in self.alpha.iter() {
            out.extend_from_slice(&a.to_le_bytes());
        }
        for &g in self.gamma.iter() {
            out.extend_from_slice(&g.to_le_bytes());
        }
    }

    /// Deserialize a payload previously produced by [`Self::serialize_into`].
    ///
    /// # Panics
    /// Panics if `bytes` has the wrong length for the family's geometry.
    pub fn deserialize(family: Arc<CubeSketchFamily<H>>, bytes: &[u8]) -> Self {
        let n = family.geometry.num_buckets();
        assert_eq!(bytes.len(), n * 12, "payload size mismatch");
        // Bulk-decode via `chunks_exact`: the bounds checks hoist out of the
        // loops, which matters on the disk-store query path where every
        // group fault deserializes a whole node group.
        let (alpha_bytes, gamma_bytes) = bytes.split_at(n * 8);
        let alpha: Box<[u64]> = alpha_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
            .collect();
        let gamma: Box<[u32]> = gamma_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
            .collect();
        CubeSketch { family, alpha, gamma }
    }

    /// Overwrite this sketch's payload with one previously produced by
    /// [`Self::serialize_into`] — [`Self::deserialize`] without the two
    /// allocations, for callers that recycle sketches (the disk store's
    /// group cache decodes every faulted group into an evicted one's
    /// buffers).
    ///
    /// # Panics
    /// Panics if `bytes` has the wrong length for the family's geometry.
    pub fn overwrite_from(&mut self, bytes: &[u8]) {
        let n = self.alpha.len();
        assert_eq!(bytes.len(), n * 12, "payload size mismatch");
        let (alpha_bytes, gamma_bytes) = bytes.split_at(n * 8);
        for (a, c) in self.alpha.iter_mut().zip(alpha_bytes.chunks_exact(8)) {
            *a = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
        }
        for (g, c) in self.gamma.iter_mut().zip(gamma_bytes.chunks_exact(4)) {
            *g = u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"));
        }
    }

    /// Exact serialized size for a geometry.
    pub fn serialized_size(geometry: SketchGeometry) -> usize {
        geometry.num_buckets() * 12
    }
}

impl<H: Hasher64> L0Sampler for CubeSketch<H> {
    #[inline]
    fn update_signed(&mut self, idx: u64, _delta: i32) {
        // Over Z_2 insertion and deletion are the same toggle.
        self.update(idx);
    }

    fn sample(&self) -> SampleResult {
        self.query()
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn clear(&mut self) {
        CubeSketch::clear(self);
    }

    fn payload_bytes(&self) -> usize {
        CubeSketch::payload_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gz_hash::PairwiseHash;

    fn family(n: u64, seed: u64) -> Arc<CubeSketchFamily> {
        CubeSketchFamily::for_vector(n, seed)
    }

    #[test]
    fn empty_sketch_reports_zero() {
        let s = family(1000, 1).new_sketch();
        assert_eq!(s.query(), SampleResult::Zero);
        assert!(s.is_empty());
    }

    #[test]
    fn single_update_recovered() {
        for idx in [0u64, 1, 500, 999] {
            let mut s = family(1000, 2).new_sketch();
            s.update(idx);
            assert_eq!(s.query(), SampleResult::Index(idx), "idx={idx}");
        }
    }

    #[test]
    fn toggle_twice_cancels() {
        let mut s = family(1000, 3).new_sketch();
        s.update(123);
        s.update(123);
        assert!(s.is_empty());
        assert_eq!(s.query(), SampleResult::Zero);
    }

    #[test]
    fn recovers_some_member_of_support() {
        let mut s = family(10_000, 4).new_sketch();
        let support: Vec<u64> = vec![3, 77, 1024, 9999, 5000];
        for &i in &support {
            s.update(i);
        }
        match s.query() {
            SampleResult::Index(i) => assert!(support.contains(&i), "got {i}"),
            other => panic!("expected a sample, got {other:?}"),
        }
    }

    #[test]
    fn dense_support_still_sampleable_usually() {
        // Half of all coordinates set — the graph-stream regime. A single
        // sketch fails with probability ≤ δ; across 50 seeds the failure
        // count must be small.
        let n = 1 << 12;
        let mut failures = 0;
        for seed in 0..50u64 {
            let mut s = family(n, seed).new_sketch();
            for i in (0..n).step_by(2) {
                s.update(i);
            }
            match s.query() {
                SampleResult::Index(i) => assert_eq!(i % 2, 0, "sampled a zero coordinate"),
                SampleResult::Fail => failures += 1,
                SampleResult::Zero => panic!("nonzero vector reported zero"),
            }
        }
        assert!(failures <= 5, "{failures}/50 failures is too many");
    }

    #[test]
    fn linearity_merge_equals_sketch_of_symmetric_difference() {
        let f = family(5000, 7);
        let (mut a, mut b) = (f.new_sketch(), f.new_sketch());
        let xs = [1u64, 2, 3, 100];
        let ys = [3u64, 100, 4000]; // overlap {3, 100} cancels
        for &x in &xs {
            a.update(x);
        }
        for &y in &ys {
            b.update(y);
        }
        a.merge(&b);

        let mut direct = f.new_sketch();
        for &i in &[1u64, 2, 4000] {
            direct.update(i);
        }
        assert_eq!(a.alpha, direct.alpha);
        assert_eq!(a.gamma, direct.gamma);
    }

    #[test]
    #[should_panic(expected = "different families")]
    fn merge_rejects_different_seeds() {
        let mut a = family(100, 1).new_sketch();
        let b = family(100, 2).new_sketch();
        a.merge(&b);
    }

    #[test]
    fn clear_resets() {
        let mut s = family(100, 9).new_sketch();
        s.update(42);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn serialization_round_trip() {
        let f = family(4096, 11);
        let mut s = f.new_sketch();
        for i in [0u64, 1, 4095, 2048] {
            s.update(i);
        }
        let mut bytes = Vec::new();
        s.serialize_into(&mut bytes);
        assert_eq!(bytes.len(), CubeSketch::<Xxh64Hasher>::serialized_size(f.geometry()));
        let t = CubeSketch::deserialize(Arc::clone(&f), &bytes);
        assert_eq!(s.alpha, t.alpha);
        assert_eq!(s.gamma, t.gamma);
        assert_eq!(t.query(), s.query());
        // The in-place decode lands the same payload over stale contents.
        let mut recycled = f.new_sketch();
        recycled.update(77);
        recycled.overwrite_from(&bytes);
        assert_eq!(s.alpha, recycled.alpha);
        assert_eq!(s.gamma, recycled.gamma);
    }

    #[test]
    fn works_with_pairwise_hasher() {
        // Theory-mode ablation: the 2-universal family must work identically.
        let f: Arc<CubeSketchFamily<PairwiseHash>> = CubeSketchFamily::for_vector(1000, 5);
        let mut s = f.new_sketch();
        s.update(777);
        assert_eq!(s.query(), SampleResult::Index(777));
    }

    #[test]
    fn payload_matches_geometry_model() {
        let f = family(1_000_000, 13);
        let s = f.new_sketch();
        assert_eq!(s.payload_bytes(), f.geometry().cube_sketch_bytes());
    }

    #[test]
    fn batch_equals_singles() {
        let f = family(10_000, 17);
        let mut a = f.new_sketch();
        let mut b = f.new_sketch();
        let updates: Vec<u64> = (0..200).map(|i| (i * 37) % 10_000).collect();
        a.update_batch(&updates);
        for &u in &updates {
            b.update(u);
        }
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.gamma, b.gamma);
    }

    #[test]
    fn prepared_kernel_equals_singles_with_duplicates() {
        // The column-major kernel is correct even without the pre-pass:
        // duplicate contributions cancel inside its accumulators.
        let f = family(10_000, 19);
        let mut a = f.new_sketch();
        let mut b = f.new_sketch();
        let updates: Vec<u64> = (0..150).map(|i| (i * 13) % 50).collect(); // heavy dups
        a.update_batch_prepared(&updates);
        for &u in &updates {
            b.update(u);
        }
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.gamma, b.gamma);
    }

    #[test]
    fn tiny_batches_take_the_singles_path_identically() {
        let f = family(1000, 23);
        for len in 0..KERNEL_MIN_BATCH + 2 {
            let updates: Vec<u64> = (0..len as u64).map(|i| i * 7 % 1000).collect();
            let mut a = f.new_sketch();
            let mut b = f.new_sketch();
            a.update_batch(&updates);
            for &u in &updates {
                b.update(u);
            }
            assert_eq!(a.alpha, b.alpha, "len={len}");
            assert_eq!(a.gamma, b.gamma, "len={len}");
        }
    }

    #[test]
    fn cancel_duplicates_drops_even_runs() {
        let mut v = vec![5u64, 1, 5, 2, 1, 1, 9, 9, 9, 9];
        cancel_duplicates(&mut v);
        assert_eq!(v, vec![1, 2]); // 5×2 and 9×4 vanish; 1×3 keeps one
        let mut empty: Vec<u64> = Vec::new();
        cancel_duplicates(&mut empty);
        assert!(empty.is_empty());
        let mut single = vec![42u64];
        cancel_duplicates(&mut single);
        assert_eq!(single, vec![42]);
    }

    #[test]
    fn insert_delete_pairs_cancel_before_hashing() {
        // The gutter regime: a batch full of insert/delete pairs for the
        // same edges must leave the sketch exactly as if only the odd
        // survivors were applied.
        let f = family(5000, 29);
        let mut batched = f.new_sketch();
        let mut reference = f.new_sketch();
        let mut batch = Vec::new();
        for i in 0..40u64 {
            batch.push(i); // insert
            batch.push(i); // delete (same toggle over Z_2)
        }
        batch.push(4999);
        batched.update_batch(&batch);
        reference.update(4999);
        assert_eq!(batched.alpha, reference.alpha);
        assert_eq!(batched.gamma, reference.gamma);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Soundness: whatever the sketch returns is a genuinely nonzero
        /// coordinate of the toggled vector.
        #[test]
        fn sample_is_sound(
            seed in any::<u64>(),
            updates in proptest::collection::vec(0u64..5000, 0..120)
        ) {
            let f = CubeSketchFamily::<Xxh64Hasher>::for_vector(5000, seed);
            let mut s = f.new_sketch();
            let mut support = HashSet::new();
            for &u in &updates {
                s.update(u);
                if !support.remove(&u) {
                    support.insert(u);
                }
            }
            match s.query() {
                SampleResult::Index(i) => prop_assert!(support.contains(&i)),
                SampleResult::Zero => prop_assert!(support.is_empty()),
                SampleResult::Fail => prop_assert!(!support.is_empty()),
            }
        }

        /// Linearity: merging sketches equals sketching the XOR of vectors.
        #[test]
        fn linearity(
            seed in any::<u64>(),
            xs in proptest::collection::vec(0u64..2000, 0..60),
            ys in proptest::collection::vec(0u64..2000, 0..60)
        ) {
            let f = CubeSketchFamily::<Xxh64Hasher>::for_vector(2000, seed);
            let (mut a, mut b, mut c) = (f.new_sketch(), f.new_sketch(), f.new_sketch());
            for &x in &xs { a.update(x); c.update(x); }
            for &y in &ys { b.update(y); c.update(y); }
            a.merge(&b);
            let mut abytes = Vec::new();
            let mut cbytes = Vec::new();
            a.serialize_into(&mut abytes);
            c.serialize_into(&mut cbytes);
            prop_assert_eq!(abytes, cbytes);
        }

        /// Set-level linearity, the invariant the equivalence suite builds
        /// on: `merge(S(A), S(B))` is bit-identical to `S(A △ B)`, and a
        /// query on the merged sketch answers from the symmetric difference.
        #[test]
        fn merge_equals_symmetric_difference(
            seed in any::<u64>(),
            raw_a in proptest::collection::vec(0u64..4000, 0..80),
            raw_b in proptest::collection::vec(0u64..4000, 0..80)
        ) {
            let a_set: HashSet<u64> = raw_a.iter().copied().collect();
            let b_set: HashSet<u64> = raw_b.iter().copied().collect();
            let sym: HashSet<u64> = a_set.symmetric_difference(&b_set).copied().collect();

            let f = CubeSketchFamily::<Xxh64Hasher>::for_vector(4000, seed);
            let (mut sa, mut sb, mut sd) = (f.new_sketch(), f.new_sketch(), f.new_sketch());
            for &x in &a_set {
                sa.update(x);
            }
            for &y in &b_set {
                sb.update(y);
            }
            for &z in &sym {
                sd.update(z);
            }
            sa.merge(&sb);

            let (mut merged, mut direct) = (Vec::new(), Vec::new());
            sa.serialize_into(&mut merged);
            sd.serialize_into(&mut direct);
            prop_assert_eq!(merged, direct, "merge(S(A), S(B)) != S(A symdiff B)");

            match sa.query() {
                SampleResult::Index(i) => prop_assert!(sym.contains(&i)),
                SampleResult::Zero => prop_assert!(sym.is_empty()),
                SampleResult::Fail => prop_assert!(!sym.is_empty()),
            }
        }

        /// Second-toggle-deletes at the sketch level: toggling every
        /// coordinate of a set twice returns the sketch to the zero state.
        #[test]
        fn double_toggle_cancels(
            seed in any::<u64>(),
            updates in proptest::collection::vec(0u64..2500, 0..60)
        ) {
            let f = CubeSketchFamily::<Xxh64Hasher>::for_vector(2500, seed);
            let mut s = f.new_sketch();
            for &u in &updates {
                s.update(u);
            }
            for &u in &updates {
                s.update(u);
            }
            prop_assert!(s.is_empty(), "every coordinate toggled twice must cancel");
            prop_assert_eq!(s.query(), SampleResult::Zero);
        }

        /// The batch kernel (pre-pass + column-major application) is
        /// bit-identical to per-update singles on arbitrary batches,
        /// including dup-heavy ones exercising the cancellation pre-pass.
        #[test]
        fn batch_kernel_equals_singles(
            seed in any::<u64>(),
            updates in proptest::collection::vec(0u64..64, 0..200)
        ) {
            // Domain 64 over up to 200 updates: expect many duplicate runs.
            let f = CubeSketchFamily::<Xxh64Hasher>::for_vector(64, seed);
            let mut batched = f.new_sketch();
            let mut prepared = f.new_sketch();
            let mut singles = f.new_sketch();
            batched.update_batch(&updates);
            prepared.update_batch_prepared(&updates);
            for &u in &updates {
                singles.update(u);
            }
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            batched.serialize_into(&mut a);
            prepared.serialize_into(&mut b);
            singles.serialize_into(&mut c);
            prop_assert_eq!(&a, &c, "update_batch != singles");
            prop_assert_eq!(&b, &c, "update_batch_prepared != singles");
        }

        /// The cancellation pre-pass preserves the Z_2 toggle multiset's
        /// parity: survivors are exactly the odd-multiplicity values.
        #[test]
        fn cancel_duplicates_keeps_odd_multiplicities(
            updates in proptest::collection::vec(0u64..100, 0..150)
        ) {
            let mut counts = std::collections::HashMap::new();
            for &u in &updates {
                *counts.entry(u).or_insert(0u32) += 1;
            }
            let mut expected: Vec<u64> = counts
                .iter()
                .filter(|(_, &c)| c % 2 == 1)
                .map(|(&v, _)| v)
                .collect();
            expected.sort_unstable();
            let mut got = updates.clone();
            cancel_duplicates(&mut got);
            prop_assert_eq!(got, expected);
        }

        /// Updates commute: any permutation of updates yields the same sketch.
        #[test]
        fn updates_commute(
            seed in any::<u64>(),
            mut updates in proptest::collection::vec(0u64..3000, 2..50)
        ) {
            let f = CubeSketchFamily::<Xxh64Hasher>::for_vector(3000, seed);
            let mut a = f.new_sketch();
            for &u in &updates { a.update(u); }
            updates.reverse();
            let mut b = f.new_sketch();
            for &u in &updates { b.update(u); }
            let mut ab = Vec::new();
            let mut bb = Vec::new();
            a.serialize_into(&mut ab);
            b.serialize_into(&mut bb);
            prop_assert_eq!(ab, bb);
        }
    }
}
