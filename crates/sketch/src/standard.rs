//! The state-of-the-art *general* ℓ0-sampler (paper Figure 3, after
//! Cormode–Firmani) — the baseline CubeSketch is measured against.
//!
//! Each bucket holds three accumulators over the integers / a prime field:
//!
//! - `a = Σ wᵢ·idxᵢ` — weighted index sum,
//! - `b = Σ wᵢ` — weight sum,
//! - `c = Σ wᵢ·r^{idxᵢ} mod p` — polynomial fingerprint.
//!
//! A bucket with a single surviving coordinate has `a/b` equal to that
//! coordinate and the fingerprint certifies it (`c ≡ b·r^{a/b}`). Updates
//! must evaluate `r^{idx} mod p` — `O(log n)` modular multiplications — per
//! column, which is precisely the overhead the paper's Figure 4 measures and
//! CubeSketch eliminates. Once `n² > 2^61` the fingerprint needs the 128-bit
//! field and slows down again (the Figure 4 cliff at `n = 10^10`).
//!
//! Unlike CubeSketch this sampler handles vectors over Z (signed updates),
//! which is what `StreamingCC` — the prior-art system in `graph-zeppelin` —
//! feeds it: `+1` into the lower endpoint's vector, `−1` into the higher's.

use crate::geometry::{needs_wide_field, SketchGeometry};
use crate::modular::{FingerprintField, P61, P89};
use crate::{L0Sampler, SampleResult};
use gz_hash::{Hasher64, SplitMix64, Xxh64Hasher};
use std::sync::Arc;

/// Shared parameters for a family of mergeable standard ℓ0-sketches.
#[derive(Debug, Clone)]
pub struct StandardFamily<F: FingerprintField, H: Hasher64 = Xxh64Hasher> {
    geometry: SketchGeometry,
    seed: u64,
    /// Per-column membership hash (depth = trailing zeros, as in CubeSketch).
    h1: Vec<H>,
    /// Per-column fingerprint base `r`.
    r: Vec<F::Residue>,
}

impl<F: FingerprintField, H: Hasher64> StandardFamily<F, H> {
    /// Create the family identified by `(geometry, seed)`.
    pub fn new(geometry: SketchGeometry, seed: u64) -> Arc<Self> {
        let cols = geometry.num_columns as u64;
        let h1 = (0..cols).map(|c| H::with_seed(SplitMix64::derive(seed, 3 * c))).collect();
        let r = (0..cols)
            .map(|c| {
                // Draw r ∈ [2, p): any 64-bit sample reduced into the field;
                // avoid 0/1 which produce degenerate fingerprints.
                let raw = SplitMix64::derive(seed, 3 * c + 1) | 2;
                F::from_u64(raw)
            })
            .collect();
        Arc::new(StandardFamily { geometry, seed, h1, r })
    }

    /// Convenience constructor with the paper's column count: this sampler
    /// is in the tree as the paper's baseline, so it keeps the paper's
    /// geometry wherever the system default goes.
    pub fn for_vector(vector_len: u64, seed: u64) -> Arc<Self> {
        Self::new(SketchGeometry::paper(vector_len), seed)
    }

    /// The family's geometry.
    pub fn geometry(&self) -> SketchGeometry {
        self.geometry
    }

    /// A fresh all-zero sketch of this family.
    pub fn new_sketch(self: &Arc<Self>) -> StandardSketch<F, H> {
        StandardSketch::new(Arc::clone(self))
    }

    fn compatible(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.seed == other.seed
    }
}

/// One standard ℓ0-sketch (bucket payload).
///
/// `a` is kept as `i128` in both field widths for implementation simplicity;
/// the *size model* ([`SketchGeometry::standard_sketch_bytes`]) counts three
/// field words per bucket exactly as the paper does, and that model — not
/// Rust struct layout — is what Figure 5 reports.
#[derive(Debug, Clone)]
pub struct StandardSketch<F: FingerprintField, H: Hasher64 = Xxh64Hasher> {
    family: Arc<StandardFamily<F, H>>,
    a: Box<[i128]>,
    b: Box<[i64]>,
    c: Box<[F::Residue]>,
}

impl<F: FingerprintField, H: Hasher64> StandardSketch<F, H> {
    /// A fresh all-zero sketch.
    pub fn new(family: Arc<StandardFamily<F, H>>) -> Self {
        let n = family.geometry.num_buckets();
        StandardSketch {
            family,
            a: vec![0i128; n].into_boxed_slice(),
            b: vec![0i64; n].into_boxed_slice(),
            c: vec![F::ZERO; n].into_boxed_slice(),
        }
    }

    /// Apply a weighted update `f[idx] += delta` (paper Figure 3,
    /// `update_sketch`).
    pub fn update(&mut self, idx: u64, delta: i32) {
        let geom = &self.family.geometry;
        debug_assert!(idx < geom.vector_len, "index {idx} out of range");
        debug_assert!(delta == 1 || delta == -1, "stream weights are ±1");
        let enc = idx + 1; // membership hashing shared with CubeSketch
        let rows = geom.num_rows as usize;
        for col in 0..geom.num_columns as usize {
            let h = self.family.h1[col].hash64(enc);
            let depth = (1 + h.trailing_zeros() as usize).min(rows);
            // The expensive part: r^idx mod p, O(log n) modular multiplies.
            let fp = F::pow(self.family.r[col], idx);
            let signed_fp = if delta >= 0 { fp } else { F::sub(F::ZERO, fp) };
            let da = idx as i128 * delta as i128;
            let base = col * rows;
            for rix in base..base + depth {
                self.a[rix] += da;
                self.b[rix] += delta as i64;
                self.c[rix] = F::add(self.c[rix], signed_fp);
            }
        }
    }

    /// Recover a nonzero coordinate (paper Figure 3, `query_sketch`).
    pub fn query(&self) -> SampleResult {
        let geom = &self.family.geometry;
        let rows = geom.num_rows as usize;
        let mut all_empty = true;
        for col in 0..geom.num_columns as usize {
            let base = col * rows;
            for rix in (base..base + rows).rev() {
                let (a, b, c) = (self.a[rix], self.b[rix], self.c[rix]);
                if a == 0 && b == 0 && c == F::ZERO {
                    continue;
                }
                all_empty = false;
                if b == 0 {
                    continue;
                }
                let q = a / b as i128;
                if q < 0 || a != q * b as i128 || q as u64 >= geom.vector_len {
                    continue;
                }
                // Fingerprint check: c ≟ b · r^q (mod p).
                let expect = F::mul(F::from_i64(b), F::pow(self.family.r[col], q as u64));
                if c == expect {
                    return SampleResult::Index(q as u64);
                }
            }
        }
        if all_empty {
            SampleResult::Zero
        } else {
            SampleResult::Fail
        }
    }

    /// Merge another sketch of the same family (linearity over Z).
    ///
    /// # Panics
    /// Panics if the families are incompatible.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.family.compatible(&other.family),
            "cannot merge sketches from different families"
        );
        for (x, y) in self.a.iter_mut().zip(other.a.iter()) {
            *x += *y;
        }
        for (x, y) in self.b.iter_mut().zip(other.b.iter()) {
            *x += *y;
        }
        for (x, y) in self.c.iter_mut().zip(other.c.iter()) {
            *x = F::add(*x, *y);
        }
    }

    /// Reset every bucket to zero.
    pub fn clear(&mut self) {
        self.a.fill(0);
        self.b.fill(0);
        for c in self.c.iter_mut() {
            *c = F::ZERO;
        }
    }

    /// True if every bucket is identically zero.
    pub fn is_empty(&self) -> bool {
        self.a.iter().all(|&x| x == 0)
            && self.b.iter().all(|&x| x == 0)
            && self.c.iter().all(|&x| x == F::ZERO)
    }

    /// Size in bytes under the paper's accounting (3 field words / bucket).
    pub fn model_bytes(&self) -> usize {
        self.family.geometry.num_buckets() * 3 * F::WORD_BYTES
    }
}

impl<F: FingerprintField, H: Hasher64> L0Sampler for StandardSketch<F, H> {
    fn update_signed(&mut self, idx: u64, delta: i32) {
        self.update(idx, delta);
    }

    fn sample(&self) -> SampleResult {
        self.query()
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }

    fn clear(&mut self) {
        StandardSketch::clear(self);
    }

    fn payload_bytes(&self) -> usize {
        self.model_bytes()
    }
}

/// Field-width-dispatching standard sketch: picks the 64-bit path while
/// `n² < 2^61` and the 128-bit path beyond, mirroring the paper's
/// "128-bit integers are required when V ≥ 10^5".
pub enum AnyStandardSketch<H: Hasher64 = Xxh64Hasher> {
    /// 64-bit fingerprint field (`p = 2^61 − 1`).
    Narrow(StandardSketch<P61, H>),
    /// 128-bit fingerprint field (`p = 2^89 − 1`).
    Wide(StandardSketch<P89, H>),
}

impl<H: Hasher64> Clone for AnyStandardSketch<H> {
    fn clone(&self) -> Self {
        match self {
            AnyStandardSketch::Narrow(s) => AnyStandardSketch::Narrow(s.clone()),
            AnyStandardSketch::Wide(s) => AnyStandardSketch::Wide(s.clone()),
        }
    }
}

/// Family handle matching [`AnyStandardSketch`].
pub enum AnyStandardFamily<H: Hasher64 = Xxh64Hasher> {
    /// 64-bit path family.
    Narrow(Arc<StandardFamily<P61, H>>),
    /// 128-bit path family.
    Wide(Arc<StandardFamily<P89, H>>),
}

impl<H: Hasher64> AnyStandardFamily<H> {
    /// Build a family for `vector_len`, choosing the field width the paper's
    /// soundness argument requires.
    pub fn for_vector(vector_len: u64, seed: u64) -> Self {
        if needs_wide_field(vector_len) {
            AnyStandardFamily::Wide(StandardFamily::for_vector(vector_len, seed))
        } else {
            AnyStandardFamily::Narrow(StandardFamily::for_vector(vector_len, seed))
        }
    }

    /// True if this family uses 128-bit arithmetic.
    pub fn is_wide(&self) -> bool {
        matches!(self, AnyStandardFamily::Wide(_))
    }

    /// A fresh sketch of this family.
    pub fn new_sketch(&self) -> AnyStandardSketch<H> {
        match self {
            AnyStandardFamily::Narrow(f) => AnyStandardSketch::Narrow(f.new_sketch()),
            AnyStandardFamily::Wide(f) => AnyStandardSketch::Wide(f.new_sketch()),
        }
    }
}

impl<H: Hasher64> L0Sampler for AnyStandardSketch<H> {
    fn update_signed(&mut self, idx: u64, delta: i32) {
        match self {
            AnyStandardSketch::Narrow(s) => s.update(idx, delta),
            AnyStandardSketch::Wide(s) => s.update(idx, delta),
        }
    }

    fn sample(&self) -> SampleResult {
        match self {
            AnyStandardSketch::Narrow(s) => s.query(),
            AnyStandardSketch::Wide(s) => s.query(),
        }
    }

    fn merge_from(&mut self, other: &Self) {
        match (self, other) {
            (AnyStandardSketch::Narrow(a), AnyStandardSketch::Narrow(b)) => a.merge(b),
            (AnyStandardSketch::Wide(a), AnyStandardSketch::Wide(b)) => a.merge(b),
            _ => panic!("cannot merge sketches with different field widths"),
        }
    }

    fn clear(&mut self) {
        match self {
            AnyStandardSketch::Narrow(s) => s.clear(),
            AnyStandardSketch::Wide(s) => s.clear(),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            AnyStandardSketch::Narrow(s) => s.model_bytes(),
            AnyStandardSketch::Wide(s) => s.model_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family61(n: u64, seed: u64) -> Arc<StandardFamily<P61>> {
        StandardFamily::for_vector(n, seed)
    }

    #[test]
    fn empty_reports_zero() {
        let s = family61(1000, 1).new_sketch();
        assert_eq!(s.query(), SampleResult::Zero);
    }

    #[test]
    fn single_insert_recovered() {
        for idx in [0u64, 1, 999] {
            let mut s = family61(1000, 2).new_sketch();
            s.update(idx, 1);
            assert_eq!(s.query(), SampleResult::Index(idx), "idx={idx}");
        }
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut s = family61(1000, 3).new_sketch();
        s.update(42, 1);
        s.update(42, -1);
        assert!(s.is_empty());
        assert_eq!(s.query(), SampleResult::Zero);
    }

    #[test]
    fn negative_single_entry_recovered() {
        // A lone −1 entry: a = −idx, b = −1, a/b = idx; the fingerprint must
        // certify through the signed weight.
        let mut s = family61(1000, 4).new_sketch();
        s.update(321, -1);
        assert_eq!(s.query(), SampleResult::Index(321));
    }

    #[test]
    fn recovers_member_of_support() {
        let mut s = family61(10_000, 5).new_sketch();
        let support = [7u64, 77, 777, 7777];
        for &i in &support {
            s.update(i, 1);
        }
        match s.query() {
            SampleResult::Index(i) => assert!(support.contains(&i)),
            other => panic!("expected sample, got {other:?}"),
        }
    }

    #[test]
    fn mixed_signs_cancel_correctly() {
        // f = +1 at 10, +1 at 20, then −1 at 10: support is exactly {20}.
        let mut s = family61(100, 6).new_sketch();
        s.update(10, 1);
        s.update(20, 1);
        s.update(10, -1);
        assert_eq!(s.query(), SampleResult::Index(20));
    }

    #[test]
    fn merge_is_linear() {
        let f = family61(5000, 7);
        let (mut a, mut b) = (f.new_sketch(), f.new_sketch());
        a.update(100, 1);
        a.update(200, 1);
        b.update(100, -1); // cancels across the merge
        b.update(300, 1);
        a.merge(&b);
        match a.query() {
            SampleResult::Index(i) => assert!(i == 200 || i == 300),
            other => panic!("expected sample, got {other:?}"),
        }
    }

    #[test]
    fn wide_field_single_insert() {
        let f: Arc<StandardFamily<P89>> = StandardFamily::for_vector(1 << 40, 8);
        let mut s = f.new_sketch();
        let idx = (1u64 << 39) + 12345;
        s.update(idx, 1);
        assert_eq!(s.query(), SampleResult::Index(idx));
    }

    #[test]
    fn any_dispatch_picks_field_by_length() {
        let narrow = AnyStandardFamily::<Xxh64Hasher>::for_vector(1_000_000, 9);
        assert!(!narrow.is_wide());
        let wide = AnyStandardFamily::<Xxh64Hasher>::for_vector(100_000_000_000, 9);
        assert!(wide.is_wide());

        let mut s = wide.new_sketch();
        s.update_signed(99_999_999_999, 1);
        assert_eq!(s.sample(), SampleResult::Index(99_999_999_999));
    }

    #[test]
    fn model_bytes_match_geometry() {
        let f = family61(1_000_000, 10);
        let s = f.new_sketch();
        assert_eq!(s.model_bytes(), f.geometry().standard_sketch_bytes());
        let fw: Arc<StandardFamily<P89>> = StandardFamily::for_vector(1 << 40, 10);
        let sw = fw.new_sketch();
        assert_eq!(sw.model_bytes(), fw.geometry().standard_sketch_bytes());
    }

    #[test]
    #[should_panic(expected = "different field widths")]
    fn any_merge_rejects_mixed_width() {
        let a = AnyStandardFamily::<Xxh64Hasher>::for_vector(1000, 1);
        let b = AnyStandardFamily::<Xxh64Hasher>::for_vector(100_000_000_000, 1);
        let mut sa = a.new_sketch();
        let sb = b.new_sketch();
        sa.merge_from(&sb);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Soundness over arbitrary ±1 update sequences: a returned index is
        /// always a coordinate with nonzero net weight.
        #[test]
        fn sample_is_sound(
            seed in any::<u64>(),
            updates in proptest::collection::vec((0u64..2000, proptest::bool::ANY), 0..80)
        ) {
            let f: Arc<StandardFamily<P61>> = StandardFamily::for_vector(2000, seed);
            let mut s = f.new_sketch();
            let mut weights: HashMap<u64, i64> = HashMap::new();
            for &(idx, positive) in &updates {
                let d = if positive { 1 } else { -1 };
                s.update(idx, d);
                let w = weights.entry(idx).or_insert(0);
                *w += d as i64;
                if *w == 0 {
                    weights.remove(&idx);
                }
            }
            match s.query() {
                SampleResult::Index(i) => prop_assert!(weights.contains_key(&i)),
                SampleResult::Zero => prop_assert!(weights.is_empty()),
                SampleResult::Fail => prop_assert!(!weights.is_empty()),
            }
        }

        /// Linearity: S(x) + S(y) behaves as S(x + y).
        #[test]
        fn merge_linearity(
            seed in any::<u64>(),
            xs in proptest::collection::vec((0u64..500, proptest::bool::ANY), 0..40),
            ys in proptest::collection::vec((0u64..500, proptest::bool::ANY), 0..40)
        ) {
            let f: Arc<StandardFamily<P61>> = StandardFamily::for_vector(500, seed);
            let (mut a, mut b, mut direct) = (f.new_sketch(), f.new_sketch(), f.new_sketch());
            for &(i, pos) in &xs {
                let d = if pos { 1 } else { -1 };
                a.update(i, d);
                direct.update(i, d);
            }
            for &(i, pos) in &ys {
                let d = if pos { 1 } else { -1 };
                b.update(i, d);
                direct.update(i, d);
            }
            a.merge(&b);
            prop_assert_eq!(&a.a, &direct.a);
            prop_assert_eq!(&a.b, &direct.b);
            prop_assert_eq!(&a.c, &direct.c);
        }
    }
}
