//! The row-mask column kernel, for x86-64 hosts with AVX-512F and
//! AVX-512DQ (DESIGN.md §9). [`apply`] is its safe entry; this
//! module holds all of the crate's `unsafe`.
//!
//! Eight records ride one 512-bit vector, their column hashes from
//! xxHash64's finish in vector form ([`finish_u64x8`]). A record's bucket
//! contribution is one packed word, `checksum << 32 | (idx + 1)` — the
//! bucket word itself ([`pack`]), whole as long as `idx + 1` fits the low
//! half, which is why a family selects this kernel only for
//! `vector_len < 2^32`, where sketches keep no `α`-high plane. Row `r < 8`
//! of the column holds every record of depth `≥ r`, so its accumulator
//! takes one XOR of the packed words under the mask of lanes whose hash
//! (the last row's bit set, as in [`depth`]) has `r` trailing zeros: the
//! rows come out already suffix-summed, with no per-depth scatter and no
//! sweep, and land on the buckets with one XOR a row. A record that reaches
//! row 8 (probability 2^-8) XORs rows `8..=depth` into the buckets
//! directly.

use super::{depth, last_row_bit, pack};
use gz_hash::xxh64::finish_u64x8;
use gz_hash::{Hasher64, Xxh64Hasher};
use std::arch::x86_64::*;

/// Rows whose accumulators are vector registers; deeper rows are written
/// straight to the buckets.
const VECTOR_ROWS: usize = 8;

/// True if this host has the features the kernel needs.
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// XOR the records `indices`, premixed to `premixed`, into the columns
/// whose hashers are `hashers` (all xxHash64) and whose packed bucket words
/// `buckets` holds, column-major: the same bits as the scalar kernel, for
/// every `idx + 1 < 2^32`.
///
/// # Panics
/// If the host lacks the features ([`detected`]), a hasher is not
/// xxHash64, or the slices' lengths disagree.
pub(super) fn apply<H: Hasher64>(
    hashers: &[H],
    indices: &[u64],
    premixed: &[u64],
    buckets: &mut [u64],
) {
    assert!(detected(), "the AVX-512 kernel needs avx512f and avx512dq");
    assert_eq!(indices.len(), premixed.len(), "one premix per record");
    assert!(
        !hashers.is_empty() && !buckets.is_empty() && buckets.len().is_multiple_of(hashers.len()),
        "one bucket word per row of every column"
    );
    // SAFETY: `columns` needs avx512f and avx512dq, detected just above.
    unsafe { columns(hashers, indices, premixed, buckets) }
}

/// [`apply`]'s body: the columns one after another, each a pass over the
/// records eight at a time with its first eight rows in registers.
#[target_feature(enable = "avx512f,avx512dq")]
fn columns<H: Hasher64>(hashers: &[H], indices: &[u64], premixed: &[u64], buckets: &mut [u64]) {
    let rows = buckets.len() / hashers.len();
    let last_row = _mm512_set1_epi64(last_row_bit(rows) as i64);
    let checksum_half = _mm512_set1_epi64(0xFFFF_FFFF_0000_0000_u64 as i64);
    let one = _mm512_set1_epi64(1);
    for (hasher, column) in hashers.iter().zip(buckets.chunks_exact_mut(rows)) {
        let seed = hasher.xxh64_seed().expect("an xxHash64 column");
        let mut acc = [_mm512_setzero_si512(); VECTOR_ROWS];
        for start in (0..indices.len()).step_by(8) {
            let lanes = (indices.len() - start).min(8);
            let live = (u16::MAX >> (16 - lanes)) as __mmask8;
            // SAFETY: lanes `start..start + lanes` of both slices are in
            // bounds (`lanes ≤ len − start`, the lengths are equal), and a
            // masked-off lane is not accessed.
            let (idx, premix) = unsafe {
                (
                    _mm512_maskz_loadu_epi64(live, indices.as_ptr().add(start).cast()),
                    _mm512_maskz_loadu_epi64(live, premixed.as_ptr().add(start).cast()),
                )
            };
            let h = finish_u64x8(premix, seed);
            let depth_bits = _mm512_or_si512(h, last_row);
            let packed =
                _mm512_or_si512(_mm512_and_si512(h, checksum_half), _mm512_add_epi64(idx, one));
            for (r, row) in acc.iter_mut().enumerate() {
                let low_bits = _mm512_set1_epi64((1 << r) - 1);
                let reaches = _mm512_mask_testn_epi64_mask(live, depth_bits, low_bits);
                *row = _mm512_mask_xor_epi64(*row, reaches, *row, packed);
            }
            let low_bits = _mm512_set1_epi64((1 << VECTOR_ROWS) - 1);
            let deep = _mm512_mask_testn_epi64_mask(live, depth_bits, low_bits);
            if deep != 0 {
                deep_lanes(seed, deep, &indices[start..], &premixed[start..], column);
            }
        }
        let mut words = [0u64; VECTOR_ROWS];
        // SAFETY: `words` is 64 bytes, the width of one unaligned store.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), xor_lanes_by_row(acc)) };
        for (bucket, word) in column.iter_mut().zip(words) {
            *bucket ^= word;
        }
    }
}

/// The lanes of one vector (`deep`, a lane mask over `indices` and
/// `premixed` from the vector's first record) that reach row
/// [`VECTOR_ROWS`]: rows `VECTOR_ROWS..=depth` of `column`, straight into
/// the buckets, its hash recomputed by the scalar finish. Inlined: scalar code
/// in the loop leaves the row accumulators in their registers, where a
/// call would clobber them.
#[inline(always)]
fn deep_lanes(
    seed: u64,
    mut deep: __mmask8,
    indices: &[u64],
    premixed: &[u64],
    column: &mut [u64],
) {
    let hasher = Xxh64Hasher::with_seed(seed);
    let last_row = last_row_bit(column.len());
    while deep != 0 {
        let lane = deep.trailing_zeros() as usize;
        deep &= deep - 1;
        let h = hasher.finish(premixed[lane]);
        let word = pack(h, indices[lane] + 1);
        for bucket in &mut column[VECTOR_ROWS..=depth(h, last_row)] {
            *bucket ^= word;
        }
    }
}

/// Lane `r` of the result is the XOR of `rows[r]`'s eight lanes: an 8 × 8
/// transpose folded into the XORs, three levels of pairwise merges.
#[target_feature(enable = "avx512f")]
#[inline]
fn xor_lanes_by_row(rows: [__m512i; VECTOR_ROWS]) -> __m512i {
    // Level 1: 128-bit chunk c of `pair(a, b)` holds (a, b) partials.
    let pair = |a: __m512i, b: __m512i| {
        _mm512_xor_si512(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b))
    };
    // Levels 2 and 3: fold chunks {0, 2} with {1, 3} of two vectors, the
    // first's results in the low half.
    let fold = |a: __m512i, b: __m512i| {
        _mm512_xor_si512(
            _mm512_shuffle_i64x2::<0b10_00_10_00>(a, b),
            _mm512_shuffle_i64x2::<0b11_01_11_01>(a, b),
        )
    };
    let low = fold(pair(rows[0], rows[1]), pair(rows[2], rows[3]));
    let high = fold(pair(rows[4], rows[5]), pair(rows[6], rows[7]));
    fold(low, high)
}
