//! Sketch-based k-edge-connectivity certificates — the "edge- or
//! vertex-connectivity" application the paper names for CubeSketch (§3.1),
//! after Ahn–Guha–McGregor's k-forest construction.
//!
//! Maintain `k` independent systems (layers) on the same stream. After the
//! stream, *peel* forests: `F₁` is a spanning forest of layer 1; toggle
//! `F₁`'s edges in layer 2 (linearity makes deletion a toggle) and recover
//! `F₂`, a spanning forest of `G − F₁`; and so on, toggling each layer's
//! peeled edges back afterwards. The union `H = F₁ ∪ … ∪ F_k` is a *sparse
//! certificate*: AGM's theorem states every cut of size `≤ k` in `G` has the
//! same size in `H`, so in particular
//!
//! > `G` is k-edge-connected  ⇔  `H` is k-edge-connected,
//!
//! and `H` has at most `k·(V−1)` edges, small enough to check exactly.
//! Total space is `k·V·polylog(V)` — still sublinear in the graph.

use crate::config::GzConfig;
use crate::error::GzError;
use crate::system::GraphZeppelin;
use gz_graph::bridges::is_two_edge_connected;
use gz_graph::{AdjacencyList, Edge};
use gz_hash::SplitMix64;

/// Streaming k-edge-connectivity sketcher: `k` independent systems.
pub struct KForestSketcher {
    num_nodes: u64,
    layers: Vec<GraphZeppelin>,
}

/// The peeled certificate: `k` edge-disjoint forests.
#[derive(Debug, Clone)]
pub struct ForestCertificate {
    /// Vertex universe size.
    pub num_nodes: u64,
    /// `forests[i]` is a spanning forest of `G − (forests[0] ∪ … ∪ forests[i−1])`.
    pub forests: Vec<Vec<Edge>>,
}

impl ForestCertificate {
    /// All certificate edges (the sparse subgraph `H`).
    pub fn union_edges(&self) -> Vec<Edge> {
        let mut all: Vec<Edge> = self.forests.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Exact 2-edge-connectivity of the certificate — by AGM's theorem,
    /// equal to the input graph's 2-edge-connectivity when `k ≥ 2`.
    pub fn is_two_edge_connected(&self) -> bool {
        assert!(self.forests.len() >= 2, "need k ≥ 2 layers for a 2-connectivity answer");
        let edges = self.union_edges();
        let graph = AdjacencyList::from_edges(
            self.num_nodes as usize,
            edges.iter().map(|e| (e.u(), e.v())),
        );
        is_two_edge_connected(&graph)
    }
}

impl KForestSketcher {
    /// Build a sketcher with `k` layers for up to `num_nodes` vertices.
    pub fn new(num_nodes: u64, k: usize, seed: u64) -> Result<Self, GzError> {
        if num_nodes < 2 {
            return Err(GzError::InvalidConfig("need at least 2 nodes".into()));
        }
        if k == 0 {
            return Err(GzError::InvalidConfig("need at least one forest layer".into()));
        }
        let layers = (0..k as u64)
            .map(|i| {
                let mut config = GzConfig::in_ram(num_nodes);
                config.seed = SplitMix64::derive(seed, i);
                GraphZeppelin::new(config)
            })
            .collect::<Result<_, _>>()?;
        Ok(KForestSketcher { num_nodes, layers })
    }

    /// Apply one stream update to every layer.
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) {
        for layer in &mut self.layers {
            layer.update(u, v, is_delete);
        }
    }

    /// Insert an edge.
    pub fn insert(&mut self, u: u32, v: u32) {
        self.update(u, v, false);
    }

    /// Delete an edge.
    pub fn delete(&mut self, u: u32, v: u32) {
        self.update(u, v, true);
    }

    /// Peel the k forests. Each layer gets the edges already peeled toggled
    /// out for its query and back in after it, so every layer ends with the
    /// sketch state it started with.
    pub fn certificate(&mut self) -> Result<ForestCertificate, GzError> {
        let mut peeled: Vec<Edge> = Vec::new();
        let mut forests = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            let toggle = |layer: &mut GraphZeppelin| {
                for e in &peeled {
                    layer.edge_update(e.u(), e.v());
                }
            };
            toggle(layer);
            let forest = layer.spanning_forest();
            toggle(layer);
            let forest = forest?.forest;
            peeled.extend_from_slice(&forest);
            forests.push(forest);
        }
        Ok(ForestCertificate { num_nodes: self.num_nodes, forests })
    }

    /// Is the graph 2-edge-connected? (Requires `k ≥ 2`.)
    pub fn is_two_edge_connected(&mut self) -> Result<bool, GzError> {
        Ok(self.certificate()?.is_two_edge_connected())
    }

    /// Total sketch bytes across layers (`k ×` the connectivity structure).
    pub fn sketch_bytes(&self) -> usize {
        self.layers.iter().map(GraphZeppelin::sketch_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gz_dsu::Dsu;

    fn sketcher_with(num_nodes: u64, k: usize, edges: &[(u32, u32)]) -> KForestSketcher {
        let mut s = KForestSketcher::new(num_nodes, k, 31).unwrap();
        for &(a, b) in edges {
            s.insert(a, b);
        }
        s
    }

    /// Structural invariants of a peeled certificate.
    fn check_certificate(cert: &ForestCertificate, graph_edges: &[(u32, u32)]) {
        let g = AdjacencyList::from_edges(cert.num_nodes as usize, graph_edges.iter().copied());
        let mut peeled = AdjacencyList::new(cert.num_nodes as usize);
        let mut remaining = g.clone();
        for forest in &cert.forests {
            // Each forest: acyclic, edges exist in the remaining graph, and
            // it spans the remaining graph's components.
            let mut dsu = Dsu::new(cert.num_nodes as usize);
            for &e in forest {
                assert!(remaining.contains(e), "{e} not in remaining graph");
                assert!(!peeled.contains(e), "{e} peeled twice");
                assert!(dsu.union(e.u(), e.v()), "cycle in forest");
            }
            assert_eq!(
                dsu.normalized_labels(),
                gz_graph::connected_components_dsu(&remaining),
                "forest does not span the remaining graph"
            );
            for &e in forest {
                remaining.remove(e);
                peeled.insert(e);
            }
        }
    }

    #[test]
    fn cycle_peels_into_tree_plus_closing_edge() {
        let n = 8u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let mut s = sketcher_with(n as u64, 2, &edges);
        let cert = s.certificate().unwrap();
        check_certificate(&cert, &edges);
        assert_eq!(cert.forests[0].len(), 7, "spanning tree of the cycle");
        assert_eq!(cert.forests[1].len(), 1, "the closing edge");
        assert!(cert.is_two_edge_connected());
    }

    #[test]
    fn path_is_not_two_edge_connected() {
        let edges: Vec<(u32, u32)> = (0..7u32).map(|i| (i, i + 1)).collect();
        let mut s = sketcher_with(8, 2, &edges);
        assert!(!s.is_two_edge_connected().unwrap());
    }

    #[test]
    fn complete_graph_is_two_edge_connected() {
        let n = 7u32;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        let mut s = sketcher_with(n as u64, 2, &edges);
        let cert = s.certificate().unwrap();
        check_certificate(&cert, &edges);
        assert!(cert.is_two_edge_connected());
        // Certificate is sparse: ≤ k(V−1) edges even though G is dense.
        assert!(cert.union_edges().len() <= 2 * (n as usize - 1));
    }

    #[test]
    fn deletions_affect_connectivity_verdict() {
        let n = 6u32;
        let cycle: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let mut s = sketcher_with(n as u64, 2, &cycle);
        assert!(s.is_two_edge_connected().unwrap());
        s.delete(0, 1); // now a path
        assert!(!s.is_two_edge_connected().unwrap());
    }

    #[test]
    fn matches_exact_two_edge_connectivity_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 14u32;
            let mut edges = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen::<f64>() < 0.3 {
                        edges.push((a, b));
                    }
                }
            }
            let mut s = sketcher_with(n as u64, 2, &edges);
            let cert = s.certificate().unwrap();
            check_certificate(&cert, &edges);
            let g = AdjacencyList::from_edges(n as usize, edges.iter().copied());
            assert_eq!(cert.is_two_edge_connected(), is_two_edge_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn three_layers_peel_disjoint_forests() {
        let n = 10u32;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if (a + 2 * b) % 3 != 0 {
                    edges.push((a, b));
                }
            }
        }
        let mut s = sketcher_with(n as u64, 3, &edges);
        let cert = s.certificate().unwrap();
        check_certificate(&cert, &edges);
        assert_eq!(cert.forests.len(), 3);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(KForestSketcher::new(1, 2, 0).is_err());
        assert!(KForestSketcher::new(8, 0, 0).is_err());
    }

    #[test]
    fn peeling_leaves_every_layer_as_it_was() {
        let n = 10u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .filter(|&(a, b)| (a + b) % 3 != 0)
            .collect();
        let mut s = sketcher_with(n as u64, 3, &edges);
        let digests = |s: &mut KForestSketcher| -> Vec<_> {
            s.layers.iter_mut().map(|l| (l.state_digest().unwrap(), l.graph_digest())).collect()
        };
        let before = digests(&mut s);
        let cert = s.certificate().unwrap();
        assert!(cert.forests.iter().skip(1).any(|f| !f.is_empty()), "later layers toggled nothing");
        assert_eq!(digests(&mut s), before);
    }
}
