//! ℓ0-sampling sketches: CubeSketch and the general-purpose baseline.
//!
//! This crate is the core data-structure layer of the GraphZeppelin
//! reproduction (paper §3):
//!
//! - [`cube`] — **CubeSketch**, the paper's new ℓ0-sampler for vectors over
//!   Z_2. Each bucket is an `(α, γ)` pair maintained with XOR; updates cost
//!   `O(log 1/δ)` XORs on average and queries recover a nonzero coordinate
//!   with probability `≥ 1 − δ` (paper Theorem 1, Figure 6).
//! - [`standard`] — the state-of-the-art *general* ℓ0-sampler the paper
//!   compares against (Cormode–Firmani; paper Figure 3), whose update cost is
//!   dominated by modular exponentiation, including the 128-bit arithmetic
//!   required once vectors are long enough that the checksum prime must
//!   exceed `n²` (paper §3: `V ≥ 10^5`, i.e. `n ≳ 10^10`).
//! - [`modular`] — Mersenne-prime fields `2^61 − 1` (64-bit path) and
//!   `2^89 − 1` (128-bit path) backing the standard sampler's checksums.
//! - [`geometry`] — shared sketch dimensions and the closed-form size model
//!   that regenerates the paper's Figure 5.
//!
//! Both samplers implement the [`L0Sampler`] interface so the benchmark
//! harness can swap them; the Boruvka layer (`graph-zeppelin`) runs
//! CubeSketch alone, on its word views ([`CubeRound`]).

pub mod cube;
pub mod geometry;
pub mod modular;
pub mod standard;

pub use cube::{CubeRound, CubeRoundMut, CubeSketch, CubeSketchFamily, Kernel};
pub use geometry::SketchGeometry;
pub use standard::{StandardFamily, StandardSketch};

/// Result of querying an ℓ0-sampler (paper Definition 1 plus the empty case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleResult {
    /// A nonzero coordinate of the sketched vector.
    Index(u64),
    /// The sketch is certain (w.h.p.) the vector is zero: every bucket is
    /// empty. Boruvka interprets this as "no edge crosses this cut".
    Zero,
    /// The vector is nonzero but no bucket was recoverable — the δ-probability
    /// failure event.
    Fail,
}

impl SampleResult {
    /// The sampled index, if any.
    pub fn index(self) -> Option<u64> {
        match self {
            SampleResult::Index(i) => Some(i),
            _ => None,
        }
    }

    /// True if the query failed (vector nonzero but unrecoverable).
    pub fn is_fail(self) -> bool {
        matches!(self, SampleResult::Fail)
    }
}

/// Common interface over ℓ0-sampling sketches of a fixed-length vector.
///
/// `toggle`-style updates treat the vector over Z_2 (CubeSketch's native
/// domain); signed updates treat it over Z (the general sampler's domain).
/// CubeSketch implements signed updates by ignoring the sign — exactly the
/// paper's observation that characteristic-vector arithmetic collapses mod 2.
pub trait L0Sampler {
    /// Apply an update of weight `delta` (±1) to coordinate `idx`.
    fn update_signed(&mut self, idx: u64, delta: i32);

    /// Sample a nonzero coordinate of the accumulated vector.
    fn sample(&self) -> SampleResult;

    /// Merge another sketch of the same family into this one (linearity:
    /// `S(x) + S(y) = S(x + y)`).
    fn merge_from(&mut self, other: &Self);

    /// Reset to the sketch of the zero vector (reused as scratch space by
    /// the ingestion pipeline's delta-sketch locking discipline).
    fn clear(&mut self);

    /// Resident size in bytes of the bucket payload. Figure 5 counts the
    /// paper's model ([`geometry::SketchGeometry`]), which a packed
    /// CubeSketch undercuts.
    fn payload_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_result_accessors() {
        assert_eq!(SampleResult::Index(7).index(), Some(7));
        assert_eq!(SampleResult::Zero.index(), None);
        assert!(SampleResult::Fail.is_fail());
        assert!(!SampleResult::Index(0).is_fail());
    }
}
