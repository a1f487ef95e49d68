//! Streaming bipartiteness testing — one of the further sketch applications
//! the paper names for CubeSketch (§3.1: "CubeSketch may be useful for other
//! sketching algorithms for problems such as … testing bipartiteness").
//!
//! The classic reduction (Ahn–Guha–McGregor): build the **bipartite double
//! cover** `G̃` of `G` — vertices `{v, v'}`, each edge `(u,v)` becoming
//! `(u, v')` and `(u', v)`. A component `C` of `G` with sides `A` and `B`
//! lifts to the two components `A ∪ B'` and `A' ∪ B` of `G̃`; a component
//! with an odd cycle lifts to the one component `C ∪ C'`.
//!
//! So one system on `G̃` (2V vertices, 2 updates per stream update) answers
//! everything. Its labels are minimum member ids, so `G`'s label of `v` is
//! `min(label(v), label(v'))` in both cases, and the component labelled `l`
//! is odd exactly when `l` and `l'` share a component of `G̃`.

use crate::config::GzConfig;
use crate::error::GzError;
use crate::system::GraphZeppelin;

/// Streaming bipartiteness tester over edge insertions and deletions.
pub struct BipartitenessTester {
    /// System on the double cover `G̃` (vertex `v'` is `v + num_nodes`).
    cover: GraphZeppelin,
    num_nodes: u64,
}

/// Answer of a bipartiteness query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartitenessAnswer {
    /// Whether the whole graph is bipartite.
    pub bipartite: bool,
    /// Components of `G` (labels normalized to minimum member).
    pub component_labels: Vec<u32>,
    /// Labels (component representatives in `G`) of components that contain
    /// an odd cycle. Empty iff `bipartite`.
    pub odd_components: Vec<u32>,
}

impl BipartitenessTester {
    /// Build a tester for graphs on up to `num_nodes` vertices.
    pub fn new(num_nodes: u64, seed: u64) -> Result<Self, GzError> {
        let mut config = GzConfig::in_ram(num_nodes * 2);
        config.seed = seed ^ 0xD0B1_E007;
        config.num_workers = 2;
        Ok(BipartitenessTester { cover: GraphZeppelin::new(config)?, num_nodes })
    }

    /// Apply one stream update to the cover: `(u, v')` and `(u', v)`.
    pub fn update(&mut self, u: u32, v: u32, is_delete: bool) {
        assert!(u != v, "self-loop");
        assert!((u as u64) < self.num_nodes && (v as u64) < self.num_nodes);
        let shift = self.num_nodes as u32;
        self.cover.update(u, v + shift, is_delete);
        self.cover.update(u + shift, v, is_delete);
    }

    /// Insert an edge.
    pub fn insert(&mut self, u: u32, v: u32) {
        self.update(u, v, false);
    }

    /// Delete an edge.
    pub fn delete(&mut self, u: u32, v: u32) {
        self.update(u, v, true);
    }

    /// Query: is the current graph bipartite, and which components are odd?
    pub fn query(&mut self) -> Result<BipartitenessAnswer, GzError> {
        let cover_cc = self.cover.connected_components()?;
        let shift = self.num_nodes as u32;
        let component_labels: Vec<u32> =
            (0..shift).map(|v| cover_cc.label(v).min(cover_cc.label(v + shift))).collect();
        // Each component is listed once, at the vertex its label names, so
        // the list ascends.
        let odd_components: Vec<u32> = (0..shift)
            .filter(|&v| component_labels[v as usize] == v && cover_cc.same_component(v, v + shift))
            .collect();
        Ok(BipartitenessAnswer {
            bipartite: odd_components.is_empty(),
            component_labels,
            odd_components,
        })
    }

    /// Sketch bytes of the cover system, the tester's whole sketch state.
    pub fn sketch_bytes(&self) -> usize {
        self.cover.sketch_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tester(n: u64) -> BipartitenessTester {
        BipartitenessTester::new(n, 11).unwrap()
    }

    #[test]
    fn empty_graph_is_bipartite() {
        let mut t = tester(8);
        let a = t.query().unwrap();
        assert!(a.bipartite);
        assert!(a.odd_components.is_empty());
    }

    #[test]
    fn even_cycle_is_bipartite() {
        let mut t = tester(8);
        for i in 0..6u32 {
            t.insert(i, (i + 1) % 6);
        }
        assert!(t.query().unwrap().bipartite);
    }

    #[test]
    fn odd_cycle_is_not_bipartite() {
        let mut t = tester(8);
        for i in 0..5u32 {
            t.insert(i, (i + 1) % 5);
        }
        let a = t.query().unwrap();
        assert!(!a.bipartite);
        assert_eq!(a.odd_components, vec![0], "the 5-cycle's component is odd");
    }

    #[test]
    fn deletion_restores_bipartiteness() {
        let mut t = tester(8);
        // Odd cycle 0-1-2-0.
        t.insert(0, 1);
        t.insert(1, 2);
        t.insert(2, 0);
        assert!(!t.query().unwrap().bipartite);
        // Break the triangle.
        t.delete(2, 0);
        assert!(t.query().unwrap().bipartite);
    }

    #[test]
    fn mixed_components_identified() {
        let mut t = tester(16);
        // Component A: square (bipartite). Component B: triangle (odd).
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            t.insert(a, b);
        }
        for &(a, b) in &[(8u32, 9u32), (9, 10), (10, 8)] {
            t.insert(a, b);
        }
        let ans = t.query().unwrap();
        assert!(!ans.bipartite);
        assert_eq!(ans.odd_components, vec![8]);
    }

    #[test]
    fn matches_two_coloring_oracle_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        /// Exact odd components by BFS 2-coloring: the minimum member of
        /// each component holding an odd cycle.
        fn oracle(n: usize, edges: &std::collections::HashSet<(u32, u32)>) -> Vec<u32> {
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in edges {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
            let mut color = vec![-1i8; n];
            let mut odd = Vec::new();
            for s in 0..n {
                if color[s] != -1 {
                    continue;
                }
                // `s` is the smallest vertex of its component.
                color[s] = 0;
                let mut is_odd = false;
                let mut queue = std::collections::VecDeque::from([s as u32]);
                while let Some(x) = queue.pop_front() {
                    for &y in &adj[x as usize] {
                        if color[y as usize] == -1 {
                            color[y as usize] = 1 - color[x as usize];
                            queue.push_back(y);
                        } else if color[y as usize] == color[x as usize] {
                            is_odd = true;
                        }
                    }
                }
                if is_odd {
                    odd.push(s as u32);
                }
            }
            odd
        }

        let n = 24u32;
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut t = BipartitenessTester::new(n as u64, seed).unwrap();
            let mut edges = std::collections::HashSet::new();
            for _ in 0..40 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                if edges.contains(&key) {
                    edges.remove(&key);
                    t.delete(a, b);
                } else {
                    edges.insert(key);
                    t.insert(a, b);
                }
            }
            let ans = t.query().unwrap();
            let odd = oracle(n as usize, &edges);
            assert_eq!(ans.bipartite, odd.is_empty(), "seed {seed}");
            assert_eq!(ans.odd_components, odd, "seed {seed}");
            let mut dsu = gz_dsu::Dsu::new(n as usize);
            for &(a, b) in &edges {
                dsu.union(a, b);
            }
            assert_eq!(ans.component_labels, dsu.normalized_labels(), "seed {seed}");
        }
    }

    #[test]
    fn sketch_bytes_are_the_cover_systems() {
        for n in [2u64, 8, 24] {
            let cover = GraphZeppelin::new(GzConfig::in_ram(2 * n)).unwrap();
            assert_eq!(
                BipartitenessTester::new(n, 3).unwrap().sketch_bytes(),
                cover.sketch_bytes()
            );
        }
    }
}
