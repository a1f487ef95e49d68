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
//! Four implementation choices relative to the pseudocode, all documented
//! in DESIGN.md (§2 and §9):
//!
//! - A bucket is one packed word, `γ << 32 | (α mod 2^32)`, plus an
//!   `α`-high plane only where the vector is at least `2^32` long (the
//!   geometry chooses; no option). Those words are the sketch's one
//!   encoding ([`CubeSketch::append_words`]): checkpoints, gathered round
//!   slices, the state digest and the disk store's file hold them, 8 bytes
//!   a bucket below `2^32` — two thirds of the paper's 12-byte model
//!   ([`SketchGeometry::cube_sketch_bytes`]), which stays the size
//!   accounting. Files written in that model before are read by
//!   [`CubeSketch::decode_paper_model`], for the legacy checkpoint reader.
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
//! The ingestion hot path is the batch kernel (paper Figure 8,
//! `update_sketch_batch`; DESIGN.md §9). [`with_premixed`] computes the
//! seed-independent half of every record's hash once, for
//! however many sketches the batch is bound for, and
//! [`CubeSketch::update_batch_premixed`] runs them through the family's
//! column [`Kernel`]: on x86-64 hosts with AVX-512 an xxHash64 family takes
//! eight records a vector, each row one masked XOR of the packed bucket
//! word; everywhere else the scalar lane kernel makes one pass over the
//! records per `LANES` columns, finishing each record's hash under every
//! column's seed and applying the XORs in contiguous row order via a
//! suffix-XOR sweep. Both write the same bits.

use crate::geometry::SketchGeometry;
use crate::{L0Sampler, SampleResult};
use gz_hash::{Hasher64, SplitMix64, Xxh64Hasher};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
mod avx512;

/// Hard ceiling on sketch rows (`⌈log2 n⌉ ≤ 64` for `n: u64`); sizes the
/// batch kernel's per-depth accumulators.
const MAX_ROWS: usize = 64;

/// Batches smaller than this skip the batch kernel: the suffix-XOR sweep
/// touches every row of every column (`rows × columns` read-modify-writes),
/// a fixed cost per sketch that singles — which write only the rows a
/// record reaches — do not pay. Measured crossover (EXPERIMENTS.md,
/// "Decided"): singles ahead at 2 records, the kernel from 3 —
/// at seven columns and again at three, both sides being linear in columns.
/// [`Kernel::Avx512`] has no sweep but a fixed cost of its own per column
/// (three dependent `vpmullq`, then folding eight row registers), and
/// crosses singles at the same length (DESIGN.md §9), so the one constant
/// serves both kernels.
const KERNEL_MIN_BATCH: usize = 3;

/// The column kernel a family's batches run through (DESIGN.md §9). A
/// family chooses it once, when it is built, from the host and its own
/// parameters — never from an option: both kernels write the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable lane kernel: per-depth accumulators and a suffix-XOR
    /// sweep. The reference, and the only kernel off x86-64 AVX-512 hosts.
    Scalar,
    /// Eight records a 512-bit vector; each of a column's first eight rows
    /// is one masked XOR of a packed `(checksum, index)` word.
    Avx512,
}

impl Kernel {
    /// [`Kernel::Avx512`] when the host has AVX-512F and AVX-512DQ, the
    /// family's columns hash with xxHash64, and every `idx + 1` fits the
    /// packed word's low half (`vector_len < 2^32`); [`Kernel::Scalar`]
    /// otherwise.
    fn select<H: Hasher64>(geometry: SketchGeometry, hash: &[H]) -> Kernel {
        let packs = geometry.vector_len < 1 << 32;
        let xxh64 = hash.iter().all(|h| h.xxh64_seed().is_some());
        if packs && xxh64 && avx512_detected() {
            Kernel::Avx512
        } else {
            Kernel::Scalar
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx512 => "avx512",
        })
    }
}

/// True if this host can run [`Kernel::Avx512`].
fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512::detected()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Most columns the batch kernel carries through one pass over the records:
/// that many independent finish → depth → accumulator-XOR chains per record.
/// Chosen from the measured table in DESIGN.md §9 when the default geometry
/// was the paper's ([`crate::geometry::PAPER_COLUMNS`]), so that a sketch is
/// one pass. It still is at [`crate::geometry::DEFAULT_COLUMNS`]: any count
/// below `LANES` is a single pass of that width, wider ones take full-width
/// passes and then one narrower pass for the remainder.
const LANES: usize = 7;

/// An index batch together with the seed-independent half of each
/// record's hash ([`Hasher64::premix`] of its offset encoding): what
/// [`CubeSketch::update_batch_premixed`] consumes. Only [`with_premixed`]
/// builds one, so the two slices always correspond.
#[derive(Debug)]
pub struct PremixedBatch<'a, H> {
    indices: &'a [u64],
    premixed: &'a [u64],
    hasher: PhantomData<fn() -> H>,
}

impl<H> Clone for PremixedBatch<'_, H> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<H> Copy for PremixedBatch<'_, H> {}

std::thread_local! {
    /// Per-thread premix buffer, reused across batches so the hot path
    /// allocates nothing: one `u64` per record of the largest batch seen.
    static PREMIX_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Premix `indices` under hasher family `H` — once, whatever the number of
/// sketches (rounds of a node stack, threads of a group) `f` applies the
/// batch to. The premix lands in a per-thread buffer that is taken for the
/// duration of the call, so a nested call is legal (it allocates its own).
pub fn with_premixed<H: Hasher64, R>(
    indices: &[u64],
    f: impl FnOnce(PremixedBatch<'_, H>) -> R,
) -> R {
    let mut premixed = PREMIX_SCRATCH.take();
    premixed.clear();
    premixed.extend(indices.iter().map(|&idx| H::premix(idx + 1)));
    let result = f(PremixedBatch { indices, premixed: &premixed, hasher: PhantomData });
    PREMIX_SCRATCH.set(premixed);
    result
}

/// The scalar kernel's per-depth XOR accumulators, one set per lane: entry
/// `d` of a lane holds the XOR of the packed contributions whose exact depth
/// is `d + 1`, and of their `α` high words where the family keeps them. All
/// zero whenever the kernel is not running — each pass's sweep re-zeroes the
/// rows it used — so one value serves every sketch a caller applies batches
/// to, and is cleared by `rows`, never by its full size (`LANES × MAX_ROWS ×
/// 12` bytes). They are zeroed on the scalar kernel's first pass, not
/// before: [`Kernel::Avx512`] keeps its accumulators in registers, so a
/// caller on that kernel never pays for these.
#[derive(Debug)]
pub struct LaneAccumulators {
    lanes: Option<LaneRows>,
}

#[derive(Debug)]
struct LaneRows {
    packed: [[u64; MAX_ROWS]; LANES],
    alpha_high: [[u32; MAX_ROWS]; LANES],
}

impl LaneAccumulators {
    /// Accumulators, zeroed when the scalar kernel first needs them.
    pub fn new() -> Self {
        LaneAccumulators { lanes: None }
    }

    // Lazy on purpose: built eagerly, the rows would be zeroed on every call.
    #[allow(clippy::unnecessary_lazy_evaluations)]
    fn lanes(&mut self) -> &mut LaneRows {
        self.lanes.get_or_insert_with(|| LaneRows {
            packed: [[0; MAX_ROWS]; LANES],
            alpha_high: [[0; MAX_ROWS]; LANES],
        })
    }
}

impl Default for LaneAccumulators {
    fn default() -> Self {
        Self::new()
    }
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
    /// The column kernel this host runs the family's batches through.
    kernel: Kernel,
    /// [`Self::words`].
    words: usize,
}

impl<H: Hasher64> CubeSketchFamily<H> {
    /// Create the family identified by `(geometry, seed)`.
    pub fn new(geometry: SketchGeometry, seed: u64) -> Arc<Self> {
        let cols = geometry.num_columns as u64;
        let hash: Vec<H> = (0..cols).map(|c| H::with_seed(SplitMix64::derive(seed, c))).collect();
        let kernel = Kernel::select(geometry, &hash);
        let n = geometry.num_buckets();
        let words = n + if crate::geometry::needs_alpha_high(geometry.vector_len) {
            n.div_ceil(2)
        } else {
            0
        };
        Arc::new(CubeSketchFamily { geometry, seed, hash, kernel, words })
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

    /// The column kernel this host runs the family's batches through.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// True if some `idx + 1` needs `α`'s high word (`vector_len ≥ 2^32`):
    /// the family's sketches then keep the `α`-high plane.
    #[inline]
    fn wide(&self) -> bool {
        crate::geometry::needs_alpha_high(self.geometry.vector_len)
    }

    /// Words one of the family's sketches occupies in memory: one a
    /// bucket, then, where the family is wide, the `α`-high plane at two
    /// buckets a word (its last word half padding when the bucket count is
    /// odd).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// True if one of the family's sketches is, in memory, byte for byte
    /// its encoding ([`word_bytes`]): on a little-endian host, wherever the
    /// words carry no padding — every geometry but a wide one with an odd
    /// bucket count.
    pub fn encodes_in_place(&self) -> bool {
        cfg!(target_endian = "little") && self.payload_bytes() == self.words() * 8
    }

    /// Resident payload bytes of one of the family's sketches: 8 a bucket,
    /// 12 where the family keeps the `α`-high plane
    /// ([`SketchGeometry::cube_resident_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.geometry.cube_resident_bytes()
    }

    /// A fresh all-zero sketch of this family.
    pub fn new_sketch(self: &Arc<Self>) -> CubeSketch<H> {
        CubeSketch::new(Arc::clone(self))
    }

    /// True if two families are interoperable (same geometry and seed).
    pub fn compatible(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.seed == other.seed
    }

    /// Sample the vector `batch` toggles without building its sketch: the
    /// same answer, bit for bit, as [`CubeSketch::query`] on a fresh sketch
    /// of this family after [`CubeSketch::update_batch_premixed`] of
    /// `batch`. The query scans column by column and stops at the first
    /// bucket that certifies, so this takes one column at a time through
    /// the scalar kernel's record pass (`acc`'s first lane), reads the
    /// suffix-XOR sweep instead of writing it — walked deepest first, the
    /// running XOR *is* the built row — and never hashes the columns after
    /// the one that answers. It is the scalar kernel whatever the family's
    /// [`Kernel`]: at the handful of records a sparse vertex holds, the
    /// vector kernel's latency loses (DESIGN.md §9).
    pub fn sample_premixed(
        &self,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneAccumulators,
    ) -> SampleResult {
        let rows = self.geometry.num_rows as usize;
        assert!((1..=MAX_ROWS).contains(&rows), "geometry has {rows} rows");
        let wide = self.wide();
        let acc = acc.lanes();
        let mut result = SampleResult::Zero;
        for col in 0..self.hash.len() {
            if wide {
                self.bucket_lanes::<1, true>(col, batch, acc);
            } else {
                self.bucket_lanes::<1, false>(col, batch, acc);
            }
            let (packed, high) = (&mut acc.packed[0][..rows], &mut acc.alpha_high[0][..rows]);
            let found = if wide {
                let built = packed.iter().zip(high.iter()).rev().scan((0, 0), |run, (&w, &h)| {
                    *run = (run.0 ^ w, run.1 ^ h);
                    Some(unpack(run.0, run.1))
                });
                let found = self.first_certified(col, built);
                high.fill(0);
                found
            } else {
                let built = packed.iter().rev().scan(0, |run, &w| {
                    *run ^= w;
                    Some(unpack(*run, 0))
                });
                self.first_certified(col, built)
            };
            packed.fill(0);
            match found {
                SampleResult::Zero => {}
                SampleResult::Fail => result = SampleResult::Fail,
                found => return found,
            }
        }
        result
    }

    /// The first of column `col`'s buckets, given deepest row first as
    /// `(α, γ)`, that certifies single support: its `Index`; else `Zero` if
    /// every bucket is empty, else `Fail`. Deep buckets are the likeliest to
    /// have single support when the vector is dense.
    fn first_certified(
        &self,
        col: usize,
        buckets: impl Iterator<Item = (u64, u32)>,
    ) -> SampleResult {
        let mut result = SampleResult::Zero;
        for (a, g) in buckets {
            if a == 0 && g == 0 {
                continue; // empty (or an undetectable double-cancellation)
            }
            result = SampleResult::Fail;
            // The checksum a single surviving coordinate must certify
            // with: the high word of the same hash that placed it.
            if a != 0
                && (self.hash[col].finish(H::premix(a)) >> 32) as u32 == g
                && a - 1 < self.geometry.vector_len
            {
                return SampleResult::Index(a - 1);
            }
        }
        result
    }

    /// The scalar kernel's record pass over columns `first_col ..
    /// first_col + N`: one finish → depth → accumulator-XOR chain per
    /// lane, each record's packed word (and, if `WIDE`, its `α` high word)
    /// bucketed at its exact depth in lane `l`'s accumulator for column
    /// `first_col + l`. The hashers and the row count are copied out of the
    /// family first, so nothing in the record loop is reloaded because a
    /// store might have aliased it.
    #[inline(always)]
    fn bucket_lanes<const N: usize, const WIDE: bool>(
        &self,
        first_col: usize,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneRows,
    ) {
        let last_row = last_row_bit(self.geometry.num_rows as usize);
        let hashers: [H; N] = std::array::from_fn(|lane| self.hash[first_col + lane].clone());
        let acc_packed = &mut acc.packed[..N];
        let acc_high = &mut acc.alpha_high[..N];
        for (&idx, &premixed) in batch.indices.iter().zip(batch.premixed) {
            debug_assert!(idx < self.geometry.vector_len, "index {idx} out of range");
            let enc = idx + 1;
            for lane in 0..N {
                let h = hashers[lane].finish(premixed);
                let deepest = depth(h, last_row);
                acc_packed[lane][deepest] ^= pack(h, enc);
                if WIDE {
                    acc_high[lane][deepest] ^= (enc >> 32) as u32;
                }
            }
        }
    }
}

/// The hash bit that stands for a sketch's last row (see [`depth`]).
#[inline(always)]
fn last_row_bit(rows: usize) -> u64 {
    1 << (rows - 1)
}

/// Deepest row a coordinate reaches, from its column's single 64-bit hash
/// `h`: row `i` membership needs `i` trailing zero bits, so the coordinate
/// sits in rows `0..=tz`, clamped to the last row — setting that row's bit
/// (`last_row`, from [`last_row_bit`]) before the count clamps without a
/// compare. Its checksum is the high word of the same hash ([`pack`]). The
/// two draw fully disjoint bits while `rows ≤ 32` (`n ≤ 2^32`); for longer
/// vectors a row-`i` bucket with `i > 32` constrains the low `i − 32`
/// checksum bits of its members, so the effective checksum entropy in those
/// deepest rows is `64 − i` bits — e.g. still ≥ 25 bits at `n = 2^39`
/// (`V ≈ 10^6`) — a bounded, rare-row weakening of the Lemma 3 certificate
/// accepted in exchange for halving hash invocations (DESIGN.md §9).
#[inline(always)]
fn depth(h: u64, last_row: u64) -> usize {
    (h | last_row).trailing_zeros() as usize
}

/// The low half of a bucket word: `α mod 2^32`.
const ALPHA_LOW: u64 = 0xFFFF_FFFF;

/// A record's contribution to one bucket word, from its column hash `h` and
/// its encoding `enc = idx + 1`: the checksum (`h`'s high word) over `α`'s
/// low half.
#[inline(always)]
fn pack(h: u64, enc: u64) -> u64 {
    (h & !ALPHA_LOW) | (enc & ALPHA_LOW)
}

/// A bucket's `(α, γ)` from its word and its `α` high word (0 where the
/// family keeps no `α`-high plane).
#[inline(always)]
fn unpack(word: u64, alpha_high: u32) -> (u64, u32) {
    (u64::from(alpha_high) << 32 | (word & ALPHA_LOW), (word >> 32) as u32)
}

/// XOR `src` into `dst`, word by word.
#[inline]
fn xor_into<T: Copy + std::ops::BitXorAssign>(dst: &mut [T], src: &[T]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Why encoded bytes are not a payload of a family's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadError {
    /// The payload is not the geometry's length.
    Length {
        /// Bytes the geometry's payload has.
        expected: usize,
        /// Bytes given.
        got: usize,
    },
    /// Bucket `bucket`'s `α` has a nonzero high word, which no coordinate
    /// of a vector shorter than `2^32` can put there.
    AlphaOutOfRange {
        /// Flat (column-major) index of the first such bucket.
        bucket: usize,
    },
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::Length { expected, got } => {
                write!(f, "sketch payload is {got} bytes, the geometry's is {expected}")
            }
            PayloadError::AlphaOutOfRange { bucket } => write!(
                f,
                "bucket {bucket}'s α does not fit the geometry (nonzero high word below 2^32)"
            ),
        }
    }
}

impl std::error::Error for PayloadError {}

/// `words` as the bytes they occupy in memory: a sketch's encoding
/// wherever its family [`CubeSketchFamily::encodes_in_place`], so a file
/// region can be read into the words, or written from them, with no copy.
pub fn word_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: every byte of a `u64` is initialized, `u8` has no alignment
    // requirement, and the length is the slice's size in bytes.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

/// [`word_bytes`], writable: every bit pattern is a `u64`.
pub fn word_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    let len = std::mem::size_of_val(words);
    // SAFETY: as in `word_bytes`, and any bytes written are a valid `u64`.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), len) }
}

/// `words` as twice as many `u32`s: the `α`-high plane's storage.
fn halves(words: &[u64]) -> &[u32] {
    // SAFETY: a `u64` is two initialized `u32`s and at least as aligned.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len() * 2) }
}

/// [`halves`], writable: every bit pattern is a `u32`.
fn halves_mut(words: &mut [u64]) -> &mut [u32] {
    // SAFETY: as in `halves`, and any `u32`s written make a valid `u64`.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), words.len() * 2) }
}

/// A CubeSketch: the bucket payload of one sketched vector, owned.
///
/// A bucket is one word, `γ << 32 | (α mod 2^32)`, column-major so that a
/// column update touches contiguous words; a family whose vector is at
/// least `2^32` long also keeps `α`'s high words, one `u32` a bucket, two
/// to a word after the packed words ([`CubeSketchFamily::words`]).
/// Resident and encoded alike ([`Self::append_words`]) that is 8 bytes a
/// bucket below `2^32` and 12 above; the paper's model, 12 bytes a bucket
/// everywhere, is what [`SketchGeometry::cube_sketch_bytes`] counts.
///
/// Every operation is a [`CubeRound`] or [`CubeRoundMut`]'s — a family and
/// a word slice — so a sketch held inside a larger allocation (a round of
/// a node stack, a node of a stored group) is worked on where it lies; the
/// owned form is for accumulators and for slices that arrive from outside.
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
    /// [`CubeSketchFamily::words`] words.
    words: Box<[u64]>,
}

/// Two sketches are equal when they are of one family and hold the same
/// words.
impl<H: Hasher64> PartialEq for CubeSketch<H> {
    fn eq(&self, other: &Self) -> bool {
        self.family.compatible(&other.family) && self.words == other.words
    }
}

/// A sketch where it lies: its family and its words, borrowed.
#[derive(Debug)]
pub struct CubeRound<'a, H: Hasher64 = Xxh64Hasher> {
    family: &'a Arc<CubeSketchFamily<H>>,
    words: &'a [u64],
}

impl<H: Hasher64> Clone for CubeRound<'_, H> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<H: Hasher64> Copy for CubeRound<'_, H> {}

/// A sketch where it lies, writable: the batch kernel, singles, merges and
/// loads run on this.
#[derive(Debug)]
pub struct CubeRoundMut<'a, H: Hasher64 = Xxh64Hasher> {
    family: &'a Arc<CubeSketchFamily<H>>,
    words: &'a mut [u64],
}

impl<'a, H: Hasher64> From<&'a CubeSketch<H>> for CubeRound<'a, H> {
    fn from(sketch: &'a CubeSketch<H>) -> Self {
        sketch.view()
    }
}

impl<'a, H: Hasher64> CubeRound<'a, H> {
    /// The sketch of `family` whose words are `words`.
    ///
    /// # Panics
    /// Panics if `words` is not [`CubeSketchFamily::words`] long.
    #[inline]
    pub fn new(family: &'a Arc<CubeSketchFamily<H>>, words: &'a [u64]) -> Self {
        assert_eq!(words.len(), family.words(), "words of another geometry");
        CubeRound { family, words }
    }

    /// The family this sketch belongs to.
    pub fn family(&self) -> &'a Arc<CubeSketchFamily<H>> {
        self.family
    }

    /// The sketch's words, in memory.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// The packed words and the `α`-high plane (empty unless the family is
    /// wide).
    fn planes(&self) -> (&'a [u64], &'a [u32]) {
        let n = self.family.geometry.num_buckets();
        let (packed, high) = self.words.split_at(n);
        (packed, &halves(high)[..if self.family.wide() { n } else { 0 }])
    }

    /// Recover a nonzero coordinate (paper Figure 6, `query_sketch`):
    /// column by column, each scanned from its deepest (sparsest) row up.
    pub fn query(&self) -> SampleResult {
        let family = &**self.family;
        let rows = family.geometry.num_rows as usize;
        let (packed, highs) = self.planes();
        let mut result = SampleResult::Zero;
        for (col, words) in packed.chunks_exact(rows).enumerate() {
            let found = if highs.is_empty() {
                let buckets = words.iter().rev().map(|&w| unpack(w, 0));
                family.first_certified(col, buckets)
            } else {
                let highs = &highs[col * rows..(col + 1) * rows];
                let buckets = words.iter().zip(highs).rev().map(|(&w, &h)| unpack(w, h));
                family.first_certified(col, buckets)
            };
            match found {
                SampleResult::Zero => {}
                SampleResult::Fail => result = SampleResult::Fail,
                found => return found,
            }
        }
        result
    }

    /// True if every bucket is empty — w.h.p. the vector is zero.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Resident payload bytes: 8 a bucket, 12 where the family keeps the
    /// `α`-high plane. The paper's 12-byte model is
    /// [`SketchGeometry::cube_sketch_bytes`].
    pub fn payload_bytes(&self) -> usize {
        self.family.payload_bytes()
    }

    /// Append the resident words to `out`, little-endian: the packed bucket
    /// words, then the `α`-high words where the family keeps that plane —
    /// [`Self::payload_bytes`] bytes, copied, not encoded. The sketch's one
    /// encoding: checkpoints, gathered round slices, the state digest and
    /// the disk store's file hold these; [`CubeRoundMut::load_words`]
    /// copies them back.
    pub fn append_words(&self, out: &mut Vec<u8>) {
        let (packed, highs) = self.planes();
        let start = out.len();
        out.resize(start + self.payload_bytes(), 0);
        let (words, high_bytes) = out[start..].split_at_mut(packed.len() * 8);
        for (c, w) in words.chunks_exact_mut(8).zip(packed) {
            c.copy_from_slice(&w.to_le_bytes());
        }
        for (c, h) in high_bytes.chunks_exact_mut(4).zip(highs) {
            c.copy_from_slice(&h.to_le_bytes());
        }
    }

    /// An owned copy.
    pub fn to_sketch(&self) -> CubeSketch<H> {
        CubeSketch { family: Arc::clone(self.family), words: self.words.into() }
    }
}

impl<'a, H: Hasher64> CubeRoundMut<'a, H> {
    /// The sketch of `family` whose words are `words`, writable.
    ///
    /// # Panics
    /// Panics if `words` is not [`CubeSketchFamily::words`] long.
    #[inline]
    pub fn new(family: &'a Arc<CubeSketchFamily<H>>, words: &'a mut [u64]) -> Self {
        assert_eq!(words.len(), family.words(), "words of another geometry");
        CubeRoundMut { family, words }
    }

    /// The same sketch, read-only.
    #[inline]
    pub fn view(&self) -> CubeRound<'_, H> {
        CubeRound { family: self.family, words: self.words }
    }

    /// The packed words and the `α`-high plane (empty unless the family is
    /// wide), writable.
    #[inline]
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u32]) {
        let n = self.family.geometry.num_buckets();
        let high = if self.family.wide() { n } else { 0 };
        let (packed, rest) = self.words.split_at_mut(n);
        (packed, &mut halves_mut(rest)[..high])
    }

    /// Toggle coordinate `idx` of the underlying Z_2 vector
    /// (paper Figure 6, `update_sketch`).
    #[inline]
    pub fn update(&mut self, idx: u64) {
        let enc = idx + 1; // offset encoding: 0 is reserved for "empty"
        self.toggle(std::iter::once((enc, H::premix(enc))));
    }

    /// Toggles `(enc, premixed)`, each key premixed once, not once per
    /// column, and the planes split once for all of them.
    #[inline]
    fn toggle(&mut self, toggles: impl Iterator<Item = (u64, u64)>) {
        let family = Arc::as_ref(self.family);
        let rows = family.geometry.num_rows as usize;
        let last_row = last_row_bit(rows);
        let (packed, highs) = self.planes_mut();
        for (enc, premixed) in toggles {
            debug_assert!(enc - 1 < family.geometry.vector_len, "index {} out of range", enc - 1);
            for (col, hasher) in family.hash.iter().enumerate() {
                let h = hasher.finish(premixed);
                let reached = col * rows..=col * rows + depth(h, last_row);
                let word = pack(h, enc);
                for b in &mut packed[reached.clone()] {
                    *b ^= word;
                }
                if !highs.is_empty() {
                    for a in &mut highs[reached] {
                        *a ^= (enc >> 32) as u32;
                    }
                }
            }
        }
    }

    /// Apply a batch of coordinate toggles (the Graph Worker path, paper
    /// Figure 8 `update_sketch_batch`) to one sketch: premix, then
    /// [`Self::update_batch_premixed`]. Bit-identical to per-update singles.
    /// Callers that apply one batch to many sketches (every round of a node
    /// stack) premix once themselves through [`with_premixed`].
    pub fn update_batch(&mut self, indices: &[u64]) {
        with_premixed(indices, |batch| {
            self.update_batch_premixed(batch, &mut LaneAccumulators::new());
        });
    }

    /// The batch kernel proper: every column through the family's
    /// [`Kernel`]. Correct for arbitrary batches — an index toggled an even
    /// number of times cancels inside the accumulators (Z_2). Batches under
    /// `KERNEL_MIN_BATCH` go through the singles path,
    /// which applies the same XORs.
    #[inline]
    pub fn update_batch_premixed(
        &mut self,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneAccumulators,
    ) {
        self.update_batch_with(self.family.kernel, batch, acc);
    }

    /// [`Self::update_batch_premixed`] through `kernel`: the family's own,
    /// or [`Kernel::Scalar`], the reference the tests hold it to.
    fn update_batch_with(
        &mut self,
        kernel: Kernel,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneAccumulators,
    ) {
        if batch.indices.len() < KERNEL_MIN_BATCH {
            self.toggle(batch.indices.iter().zip(batch.premixed).map(|(&idx, &p)| (idx + 1, p)));
            return;
        }
        let family = &**self.family;
        let rows = family.geometry.num_rows as usize;
        assert!((1..=MAX_ROWS).contains(&rows), "geometry has {rows} rows");
        match kernel {
            Kernel::Scalar if !family.wide() => self.scalar_kernel::<false>(batch, acc),
            Kernel::Scalar => self.scalar_kernel::<true>(batch, acc),
            Kernel::Avx512 => {
                debug_assert_eq!(family.kernel, Kernel::Avx512, "the family chose it");
                debug_assert!(
                    batch.indices.iter().all(|&idx| idx < family.geometry.vector_len),
                    "index out of range"
                );
                #[cfg(target_arch = "x86_64")]
                avx512::apply(&family.hash, batch.indices, batch.premixed, self.words);
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("no family selects the AVX-512 kernel off x86-64");
            }
        }
    }

    /// The scalar kernel: the columns are taken `LANES` at a time, then one
    /// narrower pass for `columns % LANES`; `WIDE` when the sketch keeps
    /// the `α`-high plane.
    fn scalar_kernel<const WIDE: bool>(
        &mut self,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneAccumulators,
    ) {
        let columns = self.family.geometry.num_columns as usize;
        let acc = acc.lanes();
        let mut col = 0;
        while columns - col >= LANES {
            self.sweep_lanes::<LANES, WIDE>(col, batch, acc);
            col += LANES;
        }
        match columns - col {
            0 => {}
            1 => self.sweep_lanes::<1, WIDE>(col, batch, acc),
            2 => self.sweep_lanes::<2, WIDE>(col, batch, acc),
            3 => self.sweep_lanes::<3, WIDE>(col, batch, acc),
            4 => self.sweep_lanes::<4, WIDE>(col, batch, acc),
            5 => self.sweep_lanes::<5, WIDE>(col, batch, acc),
            6 => self.sweep_lanes::<6, WIDE>(col, batch, acc),
            _ => unreachable!("a remainder is below LANES"),
        }
    }

    /// One pass of the scalar kernel over columns `first_col .. first_col +
    /// N`: the family's record pass buckets every record's contribution at
    /// its exact depth, and a suffix-XOR sweep then applies each lane's
    /// accumulated deltas to its column's rows in one contiguous descending
    /// pass (row `r` receives every contribution of depth `> r`).
    #[inline(always)]
    fn sweep_lanes<const N: usize, const WIDE: bool>(
        &mut self,
        first_col: usize,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneRows,
    ) {
        let family = &**self.family;
        family.bucket_lanes::<N, WIDE>(first_col, batch, acc);
        let rows = family.geometry.num_rows as usize;
        let (packed, highs) = self.planes_mut();
        // Suffix-XOR sweep: walking rows deepest-first, the running XOR at
        // row r is exactly the combined delta of all indices with depth > r.
        // Writes are contiguous within the column (buckets are column-major),
        // and the accumulators are re-zeroed in the same pass.
        for lane in 0..N {
            let base = (first_col + lane) * rows;
            sweep(&mut packed[base..base + rows], &mut acc.packed[lane][..rows]);
            if WIDE {
                sweep(&mut highs[base..base + rows], &mut acc.alpha_high[lane][..rows]);
            }
        }
    }

    /// Merge (XOR) another sketch of the same family into this one: one
    /// pass over the words.
    ///
    /// This is sketch linearity (Definition 1): the result sketches the sum
    /// (XOR) of the two vectors.
    ///
    /// # Panics
    /// Panics if the sketches come from incompatible families.
    pub fn merge<'b>(&mut self, other: impl Into<CubeRound<'b, H>>)
    where
        H: 'b,
    {
        let other = other.into();
        assert!(
            self.family.compatible(other.family),
            "cannot merge sketches from different families"
        );
        xor_into(self.words, other.words);
    }

    /// Reset to the all-zero sketch (reused as the scratch "delta sketch" in
    /// the ingestion pipeline's lock-minimizing path, paper §5.1): one fill
    /// of the words.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrite the payload with words [`CubeRound::append_words`] wrote
    /// from a sketch of this family. Every bit pattern is a payload, so
    /// bytes from outside the process need only their length checked.
    ///
    /// # Panics
    /// Panics if `bytes` is not [`CubeRound::payload_bytes`] long.
    pub fn load_words(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.family.payload_bytes(), "resident words of another geometry");
        let n = self.family.geometry.num_buckets();
        let (words, high_bytes) = bytes.split_at(n * 8);
        let (packed, rest) = self.words.split_at_mut(n);
        for (w, c) in packed.iter_mut().zip(words.chunks_exact(8)) {
            *w = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
        }
        // The plane's padding half-word, where there is one, stays zero.
        rest.fill(0);
        for (h, c) in halves_mut(rest).iter_mut().zip(high_bytes.chunks_exact(4)) {
            *h = u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"));
        }
    }

    /// Overwrite the payload with the paper's 12-byte encoding —
    /// little-endian `α` words, then `γ` words — which checkpoints held
    /// before they held the resident words: the legacy checkpoint reader's
    /// decoder, and no one else's. The bytes come from a file, so a wrong
    /// length, or an `α` with a nonzero high word where the vector is
    /// shorter than `2^32`, is a [`PayloadError`], checked before anything
    /// is overwritten.
    pub fn decode_paper_model(&mut self, bytes: &[u8]) -> Result<(), PayloadError> {
        let family = &**self.family;
        let expected = family.geometry.cube_sketch_bytes();
        if bytes.len() != expected {
            return Err(PayloadError::Length { expected, got: bytes.len() });
        }
        let n = family.geometry.num_buckets();
        let (alpha_bytes, gamma_bytes) = bytes.split_at(n * 8);
        let alphas = alpha_bytes.chunks_exact(8);
        if !family.wide() {
            if let Some(bucket) = alphas.clone().position(|c| c[4..] != [0; 4]) {
                return Err(PayloadError::AlphaOutOfRange { bucket });
            }
        }
        let gammas = gamma_bytes.chunks_exact(4);
        self.clear();
        let (packed, highs) = self.planes_mut();
        for (i, (a, g)) in alphas.zip(gammas).enumerate() {
            let alpha = u64::from_le_bytes(a.try_into().expect("chunk is 8 bytes"));
            let gamma = u32::from_le_bytes(g.try_into().expect("chunk is 4 bytes"));
            packed[i] = u64::from(gamma) << 32 | (alpha & ALPHA_LOW);
            if let Some(high) = highs.get_mut(i) {
                *high = (alpha >> 32) as u32;
            }
        }
        Ok(())
    }

    /// [`CubeRound::query`], where the repository benchmark's sketch probe
    /// calls it: on a stack's round.
    pub fn query(&self) -> SampleResult {
        self.view().query()
    }

    /// An owned copy ([`CubeRound::to_sketch`]), under the name the
    /// repository benchmark's sketch probe calls on a stack's round.
    #[allow(clippy::should_implement_trait)]
    pub fn clone(&self) -> CubeSketch<H> {
        self.view().to_sketch()
    }
}

impl<H: Hasher64> CubeSketch<H> {
    /// A fresh all-zero sketch.
    pub fn new(family: Arc<CubeSketchFamily<H>>) -> Self {
        let words = vec![0u64; family.words()].into_boxed_slice();
        CubeSketch { family, words }
    }

    /// The family this sketch belongs to.
    pub fn family(&self) -> &Arc<CubeSketchFamily<H>> {
        &self.family
    }

    /// The sketch, borrowed.
    #[inline]
    pub fn view(&self) -> CubeRound<'_, H> {
        CubeRound { family: &self.family, words: &self.words }
    }

    /// The sketch, borrowed writable.
    #[inline]
    pub fn view_mut(&mut self) -> CubeRoundMut<'_, H> {
        CubeRoundMut { family: &self.family, words: &mut self.words }
    }

    /// [`CubeRoundMut::update`].
    #[inline]
    pub fn update(&mut self, idx: u64) {
        self.view_mut().update(idx);
    }

    /// [`CubeRoundMut::update_batch`].
    pub fn update_batch(&mut self, indices: &[u64]) {
        self.view_mut().update_batch(indices);
    }

    /// [`CubeRoundMut::update_batch_premixed`].
    pub fn update_batch_premixed(
        &mut self,
        batch: PremixedBatch<'_, H>,
        acc: &mut LaneAccumulators,
    ) {
        self.view_mut().update_batch_premixed(batch, acc);
    }

    /// [`CubeRound::query`].
    pub fn query(&self) -> SampleResult {
        self.view().query()
    }

    /// [`CubeRound::is_empty`].
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// [`CubeRoundMut::merge`].
    pub fn merge<'b>(&mut self, other: impl Into<CubeRound<'b, H>>)
    where
        H: 'b,
    {
        self.view_mut().merge(other);
    }

    /// [`CubeRoundMut::clear`].
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// [`CubeRound::payload_bytes`].
    pub fn payload_bytes(&self) -> usize {
        self.family.payload_bytes()
    }

    /// [`CubeRound::append_words`].
    pub fn append_words(&self, out: &mut Vec<u8>) {
        self.view().append_words(out);
    }

    /// [`CubeRoundMut::load_words`].
    pub fn load_words(&mut self, bytes: &[u8]) {
        self.view_mut().load_words(bytes);
    }

    /// [`CubeRoundMut::decode_paper_model`].
    pub fn decode_paper_model(&mut self, bytes: &[u8]) -> Result<(), PayloadError> {
        self.view_mut().decode_paper_model(bytes)
    }
}

/// Suffix-XOR `acc` (rows deepest last) into `plane`, re-zeroing `acc`.
#[inline(always)]
fn sweep<T: Copy + Default + std::ops::BitXorAssign>(plane: &mut [T], acc: &mut [T]) {
    let mut run = T::default();
    for (p, a) in plane.iter_mut().zip(acc.iter_mut()).rev() {
        run ^= std::mem::take(a);
        *p ^= run;
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

    /// A sketch's encoding ([`CubeSketch::append_words`]).
    pub(super) fn words<H: Hasher64>(s: &CubeSketch<H>) -> Vec<u8> {
        let mut out = Vec::new();
        s.append_words(&mut out);
        out
    }

    /// A sketch in the paper's 12-byte model, as the legacy checkpoints
    /// hold it: little-endian `α` words, then `γ` words.
    fn paper_model(s: &CubeSketch) -> Vec<u8> {
        let (packed, highs) = s.view().planes();
        let high = |i: usize| highs.get(i).copied().unwrap_or(0);
        let buckets = packed.iter().enumerate().map(|(i, &w)| unpack(w, high(i)));
        let (alphas, gammas): (Vec<u64>, Vec<u32>) = buckets.unzip();
        let mut out: Vec<u8> = alphas.iter().flat_map(|a| a.to_le_bytes()).collect();
        out.extend(gammas.iter().flat_map(|g| g.to_le_bytes()));
        out
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
        assert_eq!(a.words, direct.words);
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
        // The legacy decoder reads the paper's model back into the words,
        // on both sides of 2^32.
        for vector_len in [4096, 1 << 33] {
            let f = family(vector_len, 11);
            let mut s = f.new_sketch();
            for i in [0u64, 1, vector_len - 1, vector_len / 2] {
                s.update(i);
            }
            let bytes = paper_model(&s);
            assert_eq!(bytes.len(), f.geometry().cube_sketch_bytes());
            let mut t = f.new_sketch();
            t.update(77);
            t.decode_paper_model(&bytes).unwrap();
            assert_eq!(s.words, t.words, "{vector_len}");
            assert_eq!(t.query(), s.query(), "{vector_len}");
        }
    }

    #[test]
    fn resident_words_round_trip_over_stale_contents() {
        // Both sides of 2^32: the words are the payload, high plane and all,
        // and a load lands them over whatever the sketch held.
        for vector_len in [4096, 1 << 33] {
            let f = family(vector_len, 11);
            let mut s = f.new_sketch();
            for i in [0u64, 1, vector_len - 1, vector_len / 2] {
                s.update(i);
            }
            let mut words = vec![0xAB];
            s.append_words(&mut words);
            assert_eq!(words.len(), 1 + s.payload_bytes(), "{vector_len}");
            assert_eq!(f.payload_bytes(), s.payload_bytes(), "{vector_len}");
            let mut recycled = f.new_sketch();
            recycled.update(77);
            recycled.load_words(&words[1..]);
            assert_eq!(s.words, recycled.words, "{vector_len}");
            assert_eq!(recycled.query(), s.query(), "{vector_len}");
        }
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
        // The paper's model is 12 bytes a bucket on both sides of 2^32. The
        // words, resident and encoded, are 8 bytes a bucket below 2^32 (one
        // packed word) and 12 from there on (the α-high plane too).
        for (vector_len, resident_bucket_bytes) in [(1_000_000, 8), (1 << 33, 12)] {
            let f = family(vector_len, 13);
            let mut s = f.new_sketch();
            s.update(vector_len - 1);
            let buckets = f.geometry().num_buckets();
            assert_eq!(f.geometry().cube_sketch_bytes(), buckets * 12);
            assert_eq!(paper_model(&s).len(), f.geometry().cube_sketch_bytes(), "{vector_len}");
            assert_eq!(s.payload_bytes(), buckets * resident_bucket_bytes, "{vector_len}");
            assert_eq!(words(&s).len(), s.payload_bytes(), "{vector_len}");
        }
    }

    #[test]
    fn a_wide_alpha_where_the_vector_is_narrow_is_refused() {
        // A legacy file's bytes: an α with a nonzero high word cannot come
        // from a vector shorter than 2^32, and the legacy decoder must
        // neither panic nor drop the high word. A wide family takes it.
        let (narrow, wide) = (family(4096, 3), family(1 << 33, 3));
        for f in [&narrow, &wide] {
            let mut bytes = paper_model(&f.new_sketch());
            bytes[5 * 8 + 4] = 1; // bucket 5's α, bit 32
            let mut s = f.new_sketch();
            let decoded = s.decode_paper_model(&bytes);
            if Arc::ptr_eq(f, &narrow) {
                assert_eq!(decoded.unwrap_err(), PayloadError::AlphaOutOfRange { bucket: 5 });
                assert!(s.is_empty(), "refused before anything is overwritten");
            } else {
                decoded.unwrap();
                let (packed, highs) = s.view().planes();
                assert_eq!((packed[5], highs[5]), (0, 1));
                assert_eq!(paper_model(&s), bytes);
            }
            let short = s.decode_paper_model(&bytes[1..]);
            let expected = f.geometry().cube_sketch_bytes();
            assert_eq!(short.unwrap_err(), PayloadError::Length { expected, got: expected - 1 });
        }
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
        assert_eq!(a.words, b.words);
    }

    #[test]
    fn prepared_kernel_equals_singles_with_duplicates() {
        // Duplicate contributions cancel inside the kernel's accumulators.
        let f = family(10_000, 19);
        let mut a = f.new_sketch();
        let mut b = f.new_sketch();
        let updates: Vec<u64> = (0..150).map(|i| (i * 13) % 50).collect(); // heavy dups
        a.update_batch(&updates);
        for &u in &updates {
            b.update(u);
        }
        assert_eq!(a.words, b.words);
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
            assert_eq!(a.words, b.words, "len={len}");
        }
    }

    /// Whether the CPU reports AVX-512F and AVX-512DQ, read from the
    /// operating system's own flag list where there is one: independent of
    /// the run-time detection the family's choice rests on.
    fn host_reports_avx512() -> bool {
        if !cfg!(target_arch = "x86_64") {
            return false;
        }
        match std::fs::read_to_string("/proc/cpuinfo") {
            Ok(info) => info.lines().find(|l| l.starts_with("flags")).is_some_and(|line| {
                let flags: Vec<&str> = line.split_whitespace().collect();
                flags.contains(&"avx512f") && flags.contains(&"avx512dq")
            }),
            Err(_) => avx512_detected(),
        }
    }

    /// The vector kernel is what an xxHash64 family whose indices pack
    /// runs on a host that reports the features — a silent fallback to the
    /// scalar kernel fails here — and is not what a `PairwiseHash` family
    /// or a `2^32`-long vector runs anywhere.
    #[test]
    fn the_vector_kernel_is_selected_where_it_applies() {
        let vector = if host_reports_avx512() { Kernel::Avx512 } else { Kernel::Scalar };
        for vector_len in [2, 8192 * 8191 / 2, (1 << 32) - 1] {
            assert_eq!(family(vector_len, 1).kernel(), vector, "vector_len {vector_len}");
        }
        assert_eq!(family(1 << 32, 1).kernel(), Kernel::Scalar);
        assert_eq!(CubeSketchFamily::<PairwiseHash>::for_vector(1000, 1).kernel(), Kernel::Scalar);
        assert_eq!(format!("{} {}", Kernel::Avx512, Kernel::Scalar), "avx512 scalar");
    }

    #[test]
    fn insert_delete_pairs_cancel_before_hashing() {
        // The gutter regime: a batch full of insert/delete pairs for the
        // same edges must leave the sketch exactly as if only the unpaired
        // toggle were applied.
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
        assert_eq!(batched.words, reference.words);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::words;
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The rows around the vector kernel's eight register rows, and every
    /// vector tail: one to nine rows, batches of 1–17 records (twice the
    /// last one, for a duplicate), at one, three and seven columns.
    #[test]
    fn kernels_agree_around_the_vector_rows_and_tails() {
        for rows in 1..=9u32 {
            for columns in [1, 3, 7] {
                let geometry = SketchGeometry::with_columns(1 << rows, columns);
                for len in 1..=17u64 {
                    let mut updates: Vec<u64> =
                        (0..len).map(|k| (k * 0x9E37_79B9) % geometry.vector_len).collect();
                    assert_kernel_equals_singles::<Xxh64Hasher>(geometry, rows as u64, &updates);
                    updates.push(updates[0]);
                    assert_kernel_equals_singles::<Xxh64Hasher>(geometry, rows as u64, &updates);
                }
            }
        }
    }

    /// A record that lands exactly on row 8 — the first row past the
    /// vector kernel's registers — and one on the last row, in every
    /// position of batches of 1–17 records: at 9 rows (where the two are
    /// the same row), 10 and 16.
    #[test]
    fn kernels_agree_on_records_at_row_8_and_the_last_row() {
        for rows in [9u32, 10, 16] {
            let geometry = SketchGeometry::with_columns(1 << rows, 3);
            let f = CubeSketchFamily::<Xxh64Hasher>::new(geometry, 41);
            for depth in [8, rows as usize - 1] {
                let deep = index_at_depth(&f, depth);
                for len in 1..=17u64 {
                    for at in 0..len as usize {
                        let mut updates: Vec<u64> = (0..len).map(|k| k * 3).collect();
                        updates[at] = deep;
                        assert_kernel_equals_singles::<Xxh64Hasher>(geometry, 41, &updates);
                    }
                }
            }
        }
    }

    /// One index below the packed word's limit and at it: at
    /// `vector_len = 2^32 − 1` the top index packs `idx + 1 = 2^32 − 1`
    /// and the vector kernel runs where the host has it; at `2^32` the
    /// family keeps the scalar kernel. Batches from one record to a
    /// gutter's, from the top of the vector, with repeats.
    #[test]
    fn kernels_agree_at_the_packing_limit() {
        for (vector_len, packs) in [((1u64 << 32) - 1, true), (1 << 32, false)] {
            let geometry = SketchGeometry::with_columns(vector_len, 3);
            let f = CubeSketchFamily::<Xxh64Hasher>::new(geometry, 5);
            assert_eq!(f.kernel() == Kernel::Avx512, packs && avx512_detected(), "{vector_len}");
            for len in [1u64, 2, 3, 7, 8, 9, 16, 17, 446] {
                let updates: Vec<u64> = (0..len).map(|k| vector_len - 1 - k * k % 61).collect();
                assert_kernel_equals_singles::<Xxh64Hasher>(geometry, 5, &updates);
            }
        }
    }

    /// Both kernels against singles on the same inputs: the scalar kernel
    /// called directly, so every host runs the reference, and the family's
    /// own through `update_batch` — the AVX-512 kernel wherever the family
    /// selects it.
    fn assert_kernel_equals_singles<H: Hasher64>(
        geometry: SketchGeometry,
        seed: u64,
        updates: &[u64],
    ) {
        let f = CubeSketchFamily::<H>::new(geometry, seed);
        let mut scalar = f.new_sketch();
        let mut batched = f.new_sketch();
        let mut singles = f.new_sketch();
        with_premixed(updates, |batch| {
            scalar.view_mut().update_batch_with(Kernel::Scalar, batch, &mut LaneAccumulators::new())
        });
        batched.update_batch(updates);
        for &u in updates {
            singles.update(u);
        }
        let bytes = words::<H>;
        let reference = bytes(&singles);
        let n = updates.len();
        assert_eq!(
            bytes(&scalar),
            reference,
            "scalar kernel != singles ({geometry:?}, {n} updates)"
        );
        let kernel = f.kernel();
        assert_eq!(
            bytes(&batched),
            reference,
            "update_batch ({kernel}) != singles ({geometry:?}, {n} updates)"
        );
    }

    /// An index of `f`'s vector, counting down from the top, whose column-0
    /// hash puts it at exactly `depth` (clamped at the last row).
    fn index_at_depth<H: Hasher64>(f: &CubeSketchFamily<H>, depth: usize) -> u64 {
        let rows = f.geometry().num_rows as usize;
        let top = f.geometry().vector_len - 1;
        (0..)
            .map(|k| top - k)
            .find(|&idx| {
                let h = f.hash[0].finish(H::premix(idx + 1));
                super::depth(h, last_row_bit(rows)) == depth
            })
            .expect("some index lands at every depth")
    }

    fn assert_sample_equals_query<H: Hasher64>(
        geometry: SketchGeometry,
        seed: u64,
        updates: &[u64],
    ) {
        let f = CubeSketchFamily::<H>::new(geometry, seed);
        let mut acc = LaneAccumulators::new();
        let (sampled, built) = with_premixed(updates, |batch| {
            let mut built = f.new_sketch();
            built.update_batch_premixed(batch, &mut acc);
            (f.sample_premixed(batch, &mut acc), built)
        });
        assert_eq!(sampled, built.query(), "{geometry:?}, {} updates", updates.len());
    }

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
            prop_assert_eq!(words(&a), words(&c));
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

            prop_assert_eq!(words(&sa), words(&sd), "merge(S(A), S(B)) != S(A symdiff B)");

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

        /// The batch kernels (premix, scalar lane passes or
        /// eight-lane vectors) are bit-identical to per-update singles:
        /// across column counts on both sides of the lane width and every
        /// remainder, vectors from one row (every hash clamps at the last
        /// row) to 2^40 (rows > 32), lengths `2^rows` and `2^rows − 1` (at
        /// 32 rows the packed word's limit, one each side), batches on both
        /// sides of `KERNEL_MIN_BATCH`, every vector tail and gutter-sized,
        /// drawn from domains narrow enough to be mostly duplicates, under
        /// both hash families.
        #[test]
        fn batch_kernel_equals_singles(
            seed in any::<u64>(),
            columns in 1u32..=17,
            rows in 1u32..=40,
            trim in 0u64..=1,
            domain_bits in 0u32..=40,
            short_len in 0usize..=17,
            gutter_sized in proptest::bool::ANY,
            raw in proptest::collection::vec(any::<u64>(), 200)
        ) {
            let geometry = SketchGeometry::with_columns((1 << rows) - trim, columns);
            prop_assert_eq!(geometry.num_rows, rows);
            // The narrow domain sits at the top of the vector, so the
            // encodings are as wide as the geometry allows.
            let domain = (1u64 << domain_bits.min(rows)).min(geometry.vector_len);
            let len = if gutter_sized { raw.len() } else { short_len };
            let updates: Vec<u64> =
                raw[..len].iter().map(|r| geometry.vector_len - 1 - r % domain).collect();
            assert_kernel_equals_singles::<Xxh64Hasher>(geometry, seed, &updates);
            assert_kernel_equals_singles::<gz_hash::PairwiseHash>(geometry, seed, &updates);
        }

        /// The column-at-a-time sample is `query()` of the slice the kernel
        /// builds from the same batch: at one to seven columns, one row to
        /// 40, empty batches (`Zero`), batches narrow enough to be mostly
        /// repeats, and batches wide enough that every column fails, under
        /// both hash families.
        #[test]
        fn sample_premixed_equals_query_of_the_built_slice(
            seed in any::<u64>(),
            columns in 1u32..=7,
            rows in 1u32..=40,
            domain_bits in 0u32..=40,
            len in 0usize..=300,
            raw in proptest::collection::vec(any::<u64>(), 300)
        ) {
            let geometry = SketchGeometry::with_columns(1 << rows, columns);
            let domain = 1u64 << domain_bits.min(rows);
            let updates: Vec<u64> =
                raw[..len].iter().map(|r| geometry.vector_len - 1 - r % domain).collect();
            assert_sample_equals_query::<Xxh64Hasher>(geometry, seed, &updates);
            assert_sample_equals_query::<gz_hash::PairwiseHash>(geometry, seed, &updates);
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
            prop_assert_eq!(words(&a), words(&b));
        }
    }
}
