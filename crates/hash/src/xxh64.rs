//! From-scratch implementation of the xxHash64 algorithm.
//!
//! GraphZeppelin computes all bucket-membership and checksum hashes with
//! xxHash (paper §5.1); this module reimplements the 64-bit variant from the
//! published specification. It is validated against the reference
//! implementation's published test vectors in the unit tests below.
//!
//! Only the one-shot API is provided: sketch updates always hash fixed-width
//! keys, so the streaming variant would be dead weight on the hot path.

use crate::Hasher64;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

#[inline(always)]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

#[inline(always)]
fn read_u64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().unwrap())
}

#[inline(always)]
fn read_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().unwrap())
}

/// Hash an arbitrary byte slice with xxHash64.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut i = 0usize;

    let mut h: u64 = if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);

        while i + 32 <= len {
            v1 = round(v1, read_u64(data, i));
            v2 = round(v2, read_u64(data, i + 8));
            v3 = round(v3, read_u64(data, i + 16));
            v4 = round(v4, read_u64(data, i + 24));
            i += 32;
        }

        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
        h
    } else {
        seed.wrapping_add(PRIME64_5)
    };

    h = h.wrapping_add(len as u64);

    while i + 8 <= len {
        h ^= round(0, read_u64(data, i));
        h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
        i += 8;
    }
    if i + 4 <= len {
        h ^= (read_u32(data, i) as u64).wrapping_mul(PRIME64_1);
        h = h.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        i += 4;
    }
    while i < len {
        h ^= (data[i] as u64).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        i += 1;
    }

    avalanche(h)
}

/// Hash a single `u64` key with xxHash64, specialized for the sketch hot path.
///
/// Equivalent to `xxh64(&key.to_le_bytes(), seed)` but with the length-8 code
/// path fully unrolled: no loops, no bounds checks.
#[inline]
pub fn xxh64_u64(key: u64, seed: u64) -> u64 {
    finish_u64(round(0, key), seed)
}

/// Everything of [`xxh64_u64`] after the key's own `round(0, key)`: the only
/// part that reads the seed.
#[inline(always)]
fn finish_u64(premixed: u64, seed: u64) -> u64 {
    let mut h = seed.wrapping_add(PRIME64_5).wrapping_add(8);
    h ^= premixed;
    h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    avalanche(h)
}

/// [`Xxh64Hasher::finish`] on eight premixed keys at once, one per 64-bit
/// lane of a 512-bit vector: lane `i` of the result is
/// `Xxh64Hasher::with_seed(seed).finish(lane i of premixed)`. The three
/// multiplies are AVX-512DQ's `vpmullq`; the sketch kernel for AVX-512
/// hosts is its one caller.
///
/// # Safety
///
/// Outside code compiled with both target features, a call is `unsafe`:
/// the caller must have detected `avx512f` and `avx512dq` on the running
/// CPU (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[inline]
pub fn finish_u64x8(premixed: __m512i, seed: u64) -> __m512i {
    let splat = |c: u64| _mm512_set1_epi64(c as i64);
    let mut h = _mm512_xor_si512(splat(seed.wrapping_add(PRIME64_5).wrapping_add(8)), premixed);
    h = _mm512_mullo_epi64(_mm512_rol_epi64::<27>(h), splat(PRIME64_1));
    h = _mm512_add_epi64(h, splat(PRIME64_4));
    // avalanche
    h = _mm512_xor_si512(h, _mm512_srli_epi64::<33>(h));
    h = _mm512_mullo_epi64(h, splat(PRIME64_2));
    h = _mm512_xor_si512(h, _mm512_srli_epi64::<29>(h));
    h = _mm512_mullo_epi64(h, splat(PRIME64_3));
    _mm512_xor_si512(h, _mm512_srli_epi64::<32>(h))
}

/// A seeded xxHash64 function over `u64` keys (the sketch hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xxh64Hasher {
    seed: u64,
}

impl Xxh64Hasher {
    /// The seed this hasher was constructed with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Hasher64 for Xxh64Hasher {
    #[inline]
    fn with_seed(seed: u64) -> Self {
        Xxh64Hasher { seed }
    }

    #[inline(always)]
    fn hash64(&self, key: u64) -> u64 {
        xxh64_u64(key, self.seed)
    }

    /// `round(0, key)`: two of the hash's five multiplies, none of which
    /// sees the seed.
    #[inline(always)]
    fn premix(key: u64) -> u64 {
        round(0, key)
    }

    #[inline(always)]
    fn finish(&self, premixed: u64) -> u64 {
        finish_u64(premixed, self.seed)
    }

    #[inline]
    fn xxh64_seed(&self) -> Option<u64> {
        Some(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published test vectors for xxHash64 (reference implementation).
    #[test]
    fn reference_vectors_seed0() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"The quick brown fox jumps over the lazy dog", 0), 0x0B24_2D36_1FDA_71BC);
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
        assert_ne!(xxh64_u64(42, 0), xxh64_u64(42, 1));
    }

    #[test]
    fn u64_fast_path_matches_general_path() {
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef_cafe_f00d] {
            for seed in [0u64, 1, 7, u64::MAX] {
                assert_eq!(
                    xxh64_u64(key, seed),
                    xxh64(&key.to_le_bytes(), seed),
                    "key={key} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn covers_every_tail_length() {
        // Exercise the 32-byte stripe loop plus every remainder branch
        // (8-byte, 4-byte, single-byte) by hashing all prefixes of a buffer.
        let data: Vec<u8> = (0..100u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            assert!(seen.insert(xxh64(&data[..len], 0)), "collision at prefix length {len}");
        }
    }

    #[test]
    fn avalanche_flips_many_bits() {
        // Single-bit input changes should flip roughly half the output bits.
        let base = xxh64_u64(0, 0);
        let mut total = 0u32;
        for bit in 0..64 {
            total += (base ^ xxh64_u64(1 << bit, 0)).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((20.0..44.0).contains(&avg), "avg flipped bits {avg}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// [`finish_u64x8`] lane by lane: `keys` in, each lane's hash out.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn finish_lanes(keys: &[u64; 8], seed: u64) -> [u64; 8] {
        let k = |i: usize| keys[i] as i64;
        let premixed = _mm512_set_epi64(k(7), k(6), k(5), k(4), k(3), k(2), k(1), k(0));
        let h = finish_u64x8(premixed, seed);
        std::array::from_fn(|lane| {
            let moved = _mm512_permutexvar_epi64(_mm512_set1_epi64(lane as i64), h);
            _mm_cvtsi128_si64(_mm512_castsi512_si128(moved)) as u64
        })
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        /// One xxHash64, two widths: lane `i` of the eight-lane finish is
        /// the scalar finish of key `i`, under any seed. Runs where the
        /// host has the features the vector form needs.
        #[test]
        fn finish_u64x8_lanes_are_the_scalar_finish(
            seed in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 8)
        ) {
            if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")) {
                return;
            }
            let keys: [u64; 8] = keys.try_into().unwrap();
            // SAFETY: both target features were detected just above.
            let lanes = unsafe { finish_lanes(&keys, seed) };
            let hasher = Xxh64Hasher::with_seed(seed);
            for (lane, key) in keys.iter().enumerate() {
                prop_assert_eq!(lanes[lane], hasher.finish(*key), "lane {}", lane);
            }
        }
    }

    proptest! {
        #[test]
        fn deterministic(key in any::<u64>(), seed in any::<u64>()) {
            prop_assert_eq!(xxh64_u64(key, seed), xxh64_u64(key, seed));
        }

        #[test]
        fn fast_path_agrees(key in any::<u64>(), seed in any::<u64>()) {
            prop_assert_eq!(xxh64_u64(key, seed), xxh64(&key.to_le_bytes(), seed));
        }

        #[test]
        fn bytes_prefixes_distinct(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Not a correctness requirement of hashing in general, but for
            // 64-bit outputs on tiny inputs collisions would indicate a
            // broken tail-handling branch.
            let a = xxh64(&data, 0);
            let mut data2 = data.clone();
            data2.push(0);
            prop_assert_ne!(a, xxh64(&data2, 0));
        }
    }
}
