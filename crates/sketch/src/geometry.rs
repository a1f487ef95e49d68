//! Sketch dimensions and the Figure 5 size model.
//!
//! Both samplers share the same bucket matrix shape (paper §3): `log(n)` rows
//! (subsampling levels — row `i` holds coordinates whose membership hash has
//! `i` trailing zero bits) by `q·log(1/δ)` columns (independent repetitions;
//! the paper fixes [`PAPER_COLUMNS`], this system ships [`DEFAULT_COLUMNS`]).
//! What differs is the *bucket payload*: CubeSketch stores `(α: u64, γ: u32)`
//! = 12 bytes, the general sampler stores three field words = 24 bytes
//! (64-bit path) or 48 bytes (128-bit path). That 2×/4× gap is exactly the
//! paper's Figure 5. The model is the paper's bucket; resident — and in
//! every file, frame and digest, which hold the resident words — a
//! CubeSketch bucket of a vector shorter than `2^32` is one packed 8-byte
//! word, since α's high word is always zero there (`crate::cube`,
//! DESIGN.md §2).

/// Columns of the paper's implementation (§5.1: `log(1/δ) = 7` for δ = 1 %,
/// on the assumption that a column succeeds half the time). Everything that
/// reproduces a paper number — Figure 4's general ℓ0 sampler, Figure 5,
/// the Figure 11 size model, the ablation rows — uses this, whatever the
/// system default is.
pub const PAPER_COLUMNS: u32 = 7;

/// Columns a sketch gets unless a configuration says otherwise.
///
/// A column succeeds iff its deepest occupied row holds exactly one
/// coordinate — probability ≈ 1/(2 ln 2) = 0.72 on a dense vector — so `c`
/// columns fail a query with probability ≈ 0.28^c: 2 % at 3, 10⁻⁴ at the
/// paper's 7. A failed query only delays its component by one round, and
/// the round budget (`⌈log₂ V⌉ + 3`, DESIGN.md §2) keeps three rounds above
/// the `⌈log₂ V⌉` that every component finding an edge would need — the
/// measured tables (EXPERIMENTS.md, "Sketch geometry and the round budget")
/// have every query at 3 columns finishing inside those `⌈log₂ V⌉`. Every
/// cost of a stream update is linear in this number (DESIGN.md §2). Files
/// and handshakes carry their own column count, so state written under
/// another value is refused, never reinterpreted.
pub const DEFAULT_COLUMNS: u32 = 3;

/// Shape of a sketch's bucket matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchGeometry {
    /// Length `n` of the sketched vector.
    pub vector_len: u64,
    /// Subsampling depth: `max(1, ⌈log2 n⌉)` rows.
    pub num_rows: u32,
    /// Independent repetitions: `q·log(1/δ)` columns.
    pub num_columns: u32,
}

impl SketchGeometry {
    /// Geometry for a vector of length `n` with [`DEFAULT_COLUMNS`].
    pub fn for_vector(vector_len: u64) -> Self {
        Self::with_columns(vector_len, DEFAULT_COLUMNS)
    }

    /// The paper's geometry for a vector of length `n` ([`PAPER_COLUMNS`]):
    /// what the figure reproductions and the baseline sampler are sized by.
    pub fn paper(vector_len: u64) -> Self {
        Self::with_columns(vector_len, PAPER_COLUMNS)
    }

    /// Geometry with an explicit column count.
    pub fn with_columns(vector_len: u64, num_columns: u32) -> Self {
        assert!(vector_len > 0, "cannot sketch an empty vector");
        assert!(num_columns > 0, "need at least one column");
        let num_rows = log2_ceil(vector_len).max(1);
        SketchGeometry { vector_len, num_rows, num_columns }
    }

    /// Total number of buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.num_rows as usize * self.num_columns as usize
    }

    /// Flat index of bucket `(row, col)`; buckets are column-major so one
    /// update's writes (rows 0..depth of a column) are contiguous.
    #[inline]
    pub fn bucket_at(&self, row: u32, col: u32) -> usize {
        debug_assert!(row < self.num_rows && col < self.num_columns);
        col as usize * self.num_rows as usize + row as usize
    }

    /// CubeSketch payload size in bytes: 12 bytes per bucket (α: u64 +
    /// γ: u32), as counted in paper §5.1 ("12B buckets").
    pub fn cube_sketch_bytes(&self) -> usize {
        self.num_buckets() * cube_bucket_bytes()
    }

    /// CubeSketch resident payload in bytes, which is also its encoding's
    /// (`CubeSketch::append_words`): one 8-byte word a bucket, plus a
    /// 4-byte `α`-high word where the vector is at least `2^32` long.
    pub fn cube_resident_bytes(&self) -> usize {
        self.num_buckets() * if needs_alpha_high(self.vector_len) { 12 } else { 8 }
    }

    /// Standard-ℓ0 payload size in bytes: three field words per bucket.
    /// 64-bit words while the checksum prime fits a machine word
    /// (`n² < 2^61`), 128-bit words beyond — the paper's "128-bit integers
    /// are necessary when V ≥ 10^5" (n ≳ 10^10).
    pub fn standard_sketch_bytes(&self) -> usize {
        self.num_buckets() * standard_bucket_bytes(self.vector_len)
    }
}

/// True if a CubeSketch of a `vector_len`-long vector keeps an `α`-high
/// plane: some `idx + 1` does not fit a packed word's low 32 bits.
pub fn needs_alpha_high(vector_len: u64) -> bool {
    vector_len >= 1 << 32
}

/// Bytes per CubeSketch bucket (α + γ).
pub const fn cube_bucket_bytes() -> usize {
    8 + 4
}

/// Bytes per standard-ℓ0 bucket for a given vector length: 3 words of 8 or
/// 16 bytes.
pub fn standard_bucket_bytes(vector_len: u64) -> usize {
    3 * if needs_wide_field(vector_len) { 16 } else { 8 }
}

/// True when the general sampler's checksum prime must exceed 64 bits:
/// soundness needs `p > n²` so collisions are `≤ 1/n²`-rare, and the largest
/// convenient sub-64-bit prime is the Mersenne `2^61 − 1`.
pub fn needs_wide_field(vector_len: u64) -> bool {
    (vector_len as u128).saturating_mul(vector_len as u128) >= (1u128 << 61) - 1
}

/// `⌈log2(n)⌉` for `n ≥ 1` (0 for n = 1).
pub fn log2_ceil(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1 << 40), 40);
        assert_eq!(log2_ceil((1 << 40) + 1), 41);
    }

    #[test]
    fn geometry_shape() {
        let g = SketchGeometry::for_vector(1_000_000);
        assert_eq!(g.num_columns, 3);
        assert_eq!(g.num_rows, 20);
        assert_eq!(g.num_buckets(), 60);
        let paper = SketchGeometry::paper(1_000_000);
        assert_eq!((paper.num_columns, paper.num_rows, paper.num_buckets()), (7, 20, 140));
    }

    #[test]
    fn bucket_at_column_major() {
        let g = SketchGeometry::with_columns(1 << 10, 3);
        assert_eq!(g.num_rows, 10);
        assert_eq!(g.bucket_at(0, 0), 0);
        assert_eq!(g.bucket_at(9, 0), 9);
        assert_eq!(g.bucket_at(0, 1), 10);
        assert_eq!(g.bucket_at(5, 2), 25);
    }

    #[test]
    fn field_width_threshold_matches_paper() {
        // Paper §3: 64-bit arithmetic suffices up to vectors of length 10^9,
        // 128-bit needed at 10^10 (the Figure 4 catastrophic slowdown).
        assert!(!needs_wide_field(1_000_000_000));
        assert!(needs_wide_field(10_000_000_000));
    }

    #[test]
    fn figure5_size_ratio() {
        // CubeSketch vs standard: 2× smaller in the 64-bit regime, 4× in the
        // 128-bit regime (paper Figure 5's "Size Reduction" column).
        let small = SketchGeometry::for_vector(1_000_000);
        let ratio_small = small.standard_sketch_bytes() as f64 / small.cube_sketch_bytes() as f64;
        assert!((ratio_small - 2.0).abs() < 0.01, "ratio {ratio_small}");

        let large = SketchGeometry::for_vector(1_000_000_000_000);
        let ratio_large = large.standard_sketch_bytes() as f64 / large.cube_sketch_bytes() as f64;
        assert!((ratio_large - 4.0).abs() < 0.01, "ratio {ratio_large}");
    }

    #[test]
    fn sizes_grow_with_vector_len() {
        let mut prev = 0;
        for exp in 3..13u32 {
            let g = SketchGeometry::for_vector(10u64.pow(exp));
            let sz = g.cube_sketch_bytes();
            assert!(sz >= prev);
            prev = sz;
        }
    }

    #[test]
    #[should_panic(expected = "empty vector")]
    fn zero_length_rejected() {
        let _ = SketchGeometry::for_vector(0);
    }
}
