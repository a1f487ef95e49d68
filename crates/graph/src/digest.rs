//! The graph digest: an XOR-linear fingerprint of a stream's update
//! multiset, independent of how the stream was sketched.
//!
//! An odd sketch (Mitzenmacher, Pagh and Pham): a fixed array of
//! [`GRAPH_DIGEST_BITS`] bits, each applied record — one endpoint's side of
//! an update, `(node, edge index)` — flipping the bit a hash of the pair
//! chooses. An insert and its delete cancel, as they do in a CubeSketch,
//! while an update's two records (one per endpoint) do not cancel each
//! other. The XOR of two digests is the digest of the symmetric difference
//! of their record multisets, and its Hamming weight `z` estimates how many
//! records that difference holds: `ln(1 − 2z/n) / ln(1 − 2/n)` for `n`
//! bits. Nothing about columns, rounds, bucket layout, store, shard count
//! or flush route enters it.

use crate::edge::{edge_index, Edge, VertexId};
use std::fmt;

/// Bits in a graph digest.
pub const GRAPH_DIGEST_BITS: usize = 4096;

/// Bytes in a serialized graph digest.
pub const GRAPH_DIGEST_BYTES: usize = GRAPH_DIGEST_BITS / 8;

const WORDS: usize = GRAPH_DIGEST_BITS / 64;

/// An odd sketch of a multiset of `(node, edge index)` records (module
/// docs).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GraphDigest([u64; WORDS]);

impl GraphDigest {
    /// The digest of no records.
    pub const ZERO: GraphDigest = GraphDigest([0; WORDS]);

    /// Flip the bit of record `(node, index)`: one hash, one word.
    #[inline]
    pub fn flip(&mut self, node: VertexId, index: u64) {
        let bit = (gz_hash::SplitMix64::derive(index, u64::from(node)) >> 52) as usize;
        self.0[bit / 64] ^= 1 << (bit % 64);
    }

    /// Flip both records of an update `(u, v)` in a `num_nodes`-vertex
    /// graph — what applying it to a whole system does. A self-loop flips
    /// nothing; no store applies one.
    pub fn flip_update(&mut self, u: VertexId, v: VertexId, num_nodes: u64) {
        if u != v {
            let index = edge_index(Edge::new(u, v), num_nodes);
            self.flip(u, index);
            self.flip(v, index);
        }
    }

    /// The digest of a stream of `(u, v, is_delete)` updates: what every
    /// deployment fed that stream reads, whatever its configuration.
    pub fn of_updates(
        updates: impl IntoIterator<Item = (VertexId, VertexId, bool)>,
        num_nodes: u64,
    ) -> GraphDigest {
        let mut digest = GraphDigest::ZERO;
        for (u, v, _) in updates {
            digest.flip_update(u, v, num_nodes);
        }
        digest
    }

    /// The digest of the symmetric difference of two record multisets.
    pub fn xor(&self, other: &GraphDigest) -> GraphDigest {
        GraphDigest(std::array::from_fn(|i| self.0[i] ^ other.0[i]))
    }

    /// XOR `other` into this digest.
    pub fn merge(&mut self, other: &GraphDigest) {
        *self = self.xor(other);
    }

    /// Bits set.
    pub fn weight(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Estimated number of records this digest holds an odd number of
    /// times (the odd-sketch size estimate; infinite once half the bits
    /// are set, where the sketch is saturated).
    pub fn estimated_records(&self) -> f64 {
        let n = GRAPH_DIGEST_BITS as f64;
        let z = f64::from(self.weight());
        if 2.0 * z >= n {
            return f64::INFINITY;
        }
        (1.0 - 2.0 * z / n).ln() / (1.0 - 2.0 / n).ln()
    }

    /// Estimated number of updates by which the streams behind two digests
    /// differ: two records an update.
    pub fn estimated_updates_apart(&self, other: &GraphDigest) -> f64 {
        self.xor(other).estimated_records() / 2.0
    }

    /// Little-endian words, for files and frames.
    pub fn to_bytes(&self) -> [u8; GRAPH_DIGEST_BYTES] {
        let mut out = [0u8; GRAPH_DIGEST_BYTES];
        for (chunk, w) in out.chunks_exact_mut(8).zip(&self.0) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8; GRAPH_DIGEST_BYTES]) -> GraphDigest {
        let mut words = [0u64; WORDS];
        for (w, chunk) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        GraphDigest(words)
    }

    /// An 8-byte name for the digest (its bytes' xxHash64), for printing.
    pub fn fingerprint(&self) -> u64 {
        gz_hash::xxh64(&self.to_bytes(), 0)
    }
}

impl Default for GraphDigest {
    fn default() -> Self {
        GraphDigest::ZERO
    }
}

impl fmt::Display for GraphDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x} (weight {}/{GRAPH_DIGEST_BITS})", self.fingerprint(), self.weight())
    }
}

impl fmt::Debug for GraphDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GraphDigest({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_deletes_cancel_but_endpoints_do_not() {
        let mut d = GraphDigest::ZERO;
        d.flip_update(3, 9, 64);
        assert_eq!(d.weight(), 2, "one record a side");
        d.flip_update(9, 3, 64);
        assert_eq!(d, GraphDigest::ZERO, "the delete cancels the insert");
        d.flip_update(5, 5, 64);
        assert_eq!(d, GraphDigest::ZERO, "a self-loop is no record");
    }

    #[test]
    fn the_xor_estimates_the_updates_apart() {
        let stream: Vec<(u32, u32, bool)> = (0..5000u32)
            .map(|i| (i % 997, (i * 7 + 1) % 1000, false))
            .filter(|e| e.0 != e.1)
            .collect();
        let full = GraphDigest::of_updates(stream.iter().copied(), 1000);
        for dropped in [1usize, 10, 100] {
            let partial = GraphDigest::of_updates(stream[dropped..].iter().copied(), 1000);
            let apart = full.estimated_updates_apart(&partial);
            let tolerance = 0.5 + dropped as f64 * 0.15;
            assert!((apart - dropped as f64).abs() <= tolerance, "{dropped}: {apart}");
        }
        assert_eq!(full.estimated_updates_apart(&full), 0.0);
    }

    #[test]
    fn bytes_round_trip_and_order_does_not_matter() {
        let stream: Vec<(u32, u32, bool)> = (1..300u32).map(|i| (i, i / 2, false)).collect();
        let forward = GraphDigest::of_updates(stream.iter().copied(), 300);
        let backward = GraphDigest::of_updates(stream.iter().rev().copied(), 300);
        assert_eq!(forward, backward);
        assert_eq!(GraphDigest::from_bytes(&forward.to_bytes()), forward);
        assert!(forward.to_string().contains("/4096"));
    }
}
