//! StreamingCC: the prior-art baseline (Ahn–Guha–McGregor emulation over the
//! general-purpose ℓ0-sampler; paper §2.2 and §3).
//!
//! Identical Boruvka structure to GraphZeppelin but with the Cormode–Firmani
//! sampler underneath: vectors over Z with `+1/−1` characteristic-vector
//! entries, updates dominated by modular exponentiation, and (once vectors
//! exceed `n² ≥ 2^61`) 128-bit arithmetic. The paper's §3 back-of-envelope —
//! tens of updates per second at V = 10^6 — is what the Figure 4 benchmark
//! measures against CubeSketch; this type exists so the *system-level*
//! comparison can also be run end-to-end at small scale.

use crate::boruvka::{boruvka_rounds, BoruvkaOutcome};
use crate::config::paper_rounds;
use crate::error::GzError;
use crate::node_sketch::NodeSketch;
use crate::store::SliceSource;
use gz_hash::{SplitMix64, Xxh64Hasher};
use gz_sketch::standard::{AnyStandardFamily, AnyStandardSketch};

/// Per-round families shared by all node sketches.
struct Params {
    num_nodes: u64,
    families: Vec<AnyStandardFamily<Xxh64Hasher>>,
}

/// The StreamingCC baseline system (unbuffered, single-threaded — the paper
/// argues the sampler itself is the bottleneck, and that is what this type
/// demonstrates).
pub struct StreamingCc {
    params: Params,
    sketches: Vec<NodeSketch<AnyStandardSketch<Xxh64Hasher>>>,
    updates: u64,
}

impl StreamingCc {
    /// Build the baseline for `num_nodes` vertices.
    pub fn new(num_nodes: u64, seed: u64) -> Result<Self, GzError> {
        if num_nodes < 2 {
            return Err(GzError::InvalidConfig("need at least 2 nodes".into()));
        }
        let vector_len = gz_graph::edge_index_count(num_nodes).max(1);
        let rounds = paper_rounds(num_nodes);
        let families: Vec<AnyStandardFamily<Xxh64Hasher>> = (0..rounds as u64)
            .map(|r| AnyStandardFamily::for_vector(vector_len, SplitMix64::derive(seed, r)))
            .collect();
        let sketches = (0..num_nodes)
            .map(|_| NodeSketch::new_with(families.len(), |r| families[r].new_sketch()))
            .collect();
        Ok(StreamingCc { params: Params { num_nodes, families }, sketches, updates: 0 })
    }

    /// Ingest one stream update.
    ///
    /// Characteristic-vector signs (paper §2.2): for edge `(j,k)` with
    /// `j < k`, node `j`'s vector gets `+Δ` and node `k`'s gets `−Δ`.
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) {
        assert!(u != v, "self-loop");
        assert!((u as u64) < self.params.num_nodes && (v as u64) < self.params.num_nodes);
        let edge = gz_graph::Edge::new(u, v);
        let idx = gz_graph::edge_index(edge, self.params.num_nodes);
        let delta = if is_delete { -1 } else { 1 };
        self.sketches[edge.u() as usize].update_signed(idx, delta);
        self.sketches[edge.v() as usize].update_signed(idx, -delta);
        self.updates += 1;
    }

    /// Insert an edge.
    pub fn insert(&mut self, u: u32, v: u32) {
        self.update(u, v, false);
    }

    /// Delete an edge.
    pub fn delete(&mut self, u: u32, v: u32) {
        self.update(u, v, true);
    }

    /// Number of updates ingested.
    pub fn updates_ingested(&self) -> u64 {
        self.updates
    }

    /// Compute a spanning forest (non-destructive: the round-driven engine
    /// borrows the resident sketches in place and clones only round slices
    /// into per-supernode accumulators — no `V × full sketch` rebuild).
    pub fn spanning_forest(&self) -> Result<BoruvkaOutcome, GzError> {
        let mut source = SliceSource::new(&self.sketches);
        boruvka_rounds(&mut source, self.params.num_nodes, self.params.families.len())
    }

    /// Component labels.
    pub fn connected_components(&self) -> Result<Vec<u32>, GzError> {
        Ok(self.spanning_forest()?.labels)
    }

    /// Sketch bytes under the paper's accounting (3 words per bucket).
    pub fn sketch_bytes(&self) -> usize {
        self.sketches.iter().map(|s| s.payload_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gz_graph::{connected_components_dsu, AdjacencyList};

    #[test]
    fn matches_oracle_on_small_graphs() {
        let edges = [(0u32, 1u32), (1, 2), (4, 5), (6, 7), (7, 4)];
        let mut cc = StreamingCc::new(8, 3).unwrap();
        for &(a, b) in &edges {
            cc.insert(a, b);
        }
        let labels = cc.connected_components().unwrap();
        let g = AdjacencyList::from_edges(8, edges.iter().copied());
        assert_eq!(labels, connected_components_dsu(&g));
    }

    #[test]
    fn deletions_work() {
        let mut cc = StreamingCc::new(6, 9).unwrap();
        cc.insert(0, 1);
        cc.insert(1, 2);
        cc.delete(1, 2);
        let labels = cc.connected_components().unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn internal_edges_cancel_over_z() {
        // The ±1 sign convention must make intra-component edges cancel
        // when supernodes merge — exactly what Boruvka relies on. A triangle
        // collapses to one component with no stray samples.
        let mut cc = StreamingCc::new(5, 17).unwrap();
        cc.insert(0, 1);
        cc.insert(1, 2);
        cc.insert(0, 2);
        let outcome = cc.spanning_forest().unwrap();
        assert_eq!(outcome.forest.len(), 2);
        assert_eq!(outcome.num_components(), 3); // {0,1,2}, {3}, {4}
    }

    #[test]
    fn sketch_bytes_larger_than_cubesketch() {
        // Paper Figure 5: the general sampler is ≥ 2× larger, both at the
        // paper's geometry.
        let cc = StreamingCc::new(64, 1).unwrap();
        let params = crate::node_sketch::SketchParams::new(
            64,
            paper_rounds(64),
            crate::config::PAPER_COLUMNS,
            1,
        );
        let cube_total = params.node_sketch_bytes() * 64;
        assert!(
            cc.sketch_bytes() >= 2 * cube_total,
            "standard {} vs cube {cube_total}",
            cc.sketch_bytes()
        );
    }

    #[test]
    fn rejects_tiny_graphs() {
        assert!(StreamingCc::new(1, 0).is_err());
    }
}
