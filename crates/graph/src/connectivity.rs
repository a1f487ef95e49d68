//! Deterministic connected-components oracles.
//!
//! Every experiment that checks GraphZeppelin's answers (the §6.3 reliability
//! harness, the integration tests) needs an exact algorithm to compare
//! against. Two independent implementations are provided — a DSU scan (the
//! moral equivalent of the Kruskal pass the paper uses) and BFS — and they
//! are property-tested against each other so a bug in one cannot silently
//! validate the sketch system.

use crate::adjacency_list::AdjacencyList;
use crate::edge::{Edge, VertexId};
use gz_dsu::Dsu;

/// Connected components via a DSU over all edges.
///
/// Returns labels normalized to the minimum vertex id in each component.
pub fn connected_components_dsu(g: &AdjacencyList) -> Vec<u32> {
    let mut dsu = Dsu::new(g.num_vertices());
    for e in g.edges() {
        dsu.union(e.u(), e.v());
    }
    dsu.normalized_labels()
}

/// Connected components via BFS.
///
/// Returns labels normalized to the minimum vertex id in each component
/// (BFS from vertices in increasing order guarantees this directly).
pub fn connected_components_bfs(g: &AdjacencyList) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as u32 {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = start;
        queue.push_back(start);
        while let Some(x) = queue.pop_front() {
            for &y in g.neighbors(x) {
                if label[y as usize] == u32::MAX {
                    label[y as usize] = start;
                    queue.push_back(y);
                }
            }
        }
    }
    label
}

/// A deterministic spanning forest (Kruskal order: edges in canonical order).
///
/// The streaming problem's output format (paper Problem 1) is an insert-only
/// edge stream defining a spanning forest; this oracle produces one so tests
/// can validate *forests*, not just partitions.
pub fn spanning_forest(g: &AdjacencyList) -> Vec<Edge> {
    let mut dsu = Dsu::new(g.num_vertices());
    let mut forest = Vec::new();
    for e in g.edges() {
        if dsu.union(e.u(), e.v()) {
            forest.push(e);
        }
    }
    forest
}

/// Check that `forest` is a spanning forest of `g`: acyclic, uses only edges
/// of `g`, and induces exactly `g`'s connectivity partition.
pub fn is_spanning_forest(g: &AdjacencyList, forest: &[Edge]) -> bool {
    let mut dsu = Dsu::new(g.num_vertices());
    for &e in forest {
        if !g.contains(e) {
            return false; // uses a non-edge
        }
        if !dsu.union(e.u(), e.v()) {
            return false; // cycle
        }
    }
    dsu.normalized_labels() == connected_components_dsu(g)
}

/// Number of connected components implied by a normalized labeling.
pub fn count_components(labels: &[u32]) -> usize {
    let mut roots: Vec<u32> = labels.to_vec();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// Verify a partition against ground truth: `labels` must induce the same
/// partition as `truth` (labels themselves may differ as long as the grouping
/// is identical after normalization).
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Map each label to the first index at which it appears; two labelings
    // describe the same partition iff these firsts-of-class sequences agree.
    fn canon(labels: &[u32]) -> Vec<u32> {
        let mut first = std::collections::HashMap::new();
        labels.iter().enumerate().map(|(i, &l)| *first.entry(l).or_insert(i as u32)).collect()
    }
    canon(a) == canon(b)
}

/// Convenience: normalized component labels for a vertex set given an edge
/// list (used by the baselines and experiments).
pub fn components_from_edges(
    num_vertices: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Vec<u32> {
    let mut dsu = Dsu::new(num_vertices);
    for (a, b) in edges {
        if a != b {
            dsu.union(a, b);
        }
    }
    dsu.normalized_labels()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> AdjacencyList {
        AdjacencyList::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn bfs_and_dsu_agree_on_path() {
        let g = path_graph(50);
        assert_eq!(connected_components_bfs(&g), connected_components_dsu(&g));
        assert_eq!(count_components(&connected_components_bfs(&g)), 1);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = AdjacencyList::new(4);
        let labels = connected_components_dsu(&g);
        assert_eq!(labels, vec![0, 1, 2, 3]);
        assert_eq!(count_components(&labels), 4);
    }

    #[test]
    fn spanning_forest_of_cycle_drops_one_edge() {
        let g = AdjacencyList::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let f = spanning_forest(&g);
        assert_eq!(f.len(), 3);
        assert!(is_spanning_forest(&g, &f));
    }

    #[test]
    fn forest_validation_rejects_cycles_and_non_edges() {
        let g = AdjacencyList::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let cycle = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(0, 1)];
        assert!(!is_spanning_forest(&g, &cycle));
        let non_edge = vec![Edge::new(0, 3)];
        assert!(!is_spanning_forest(&g, &non_edge));
        let incomplete: Vec<Edge> = vec![Edge::new(0, 1)];
        assert!(!is_spanning_forest(&g, &incomplete), "must span");
    }

    #[test]
    fn same_partition_ignores_label_values() {
        assert!(same_partition(&[0, 0, 2, 2], &[7, 7, 1, 1]));
        assert!(!same_partition(&[0, 0, 2, 2], &[0, 1, 2, 2]));
        assert!(!same_partition(&[0], &[0, 0]));
    }

    #[test]
    fn components_from_edges_matches_adjacency() {
        let edges = [(0u32, 1u32), (2, 3), (3, 4)];
        let g = AdjacencyList::from_edges(6, edges);
        assert_eq!(components_from_edges(6, edges), connected_components_dsu(&g));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bfs_equals_dsu(
            n in 1usize..60,
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120)
        ) {
            let edges: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .filter(|(a, b)| a != b)
                .collect();
            let g = AdjacencyList::from_edges(n, edges);
            prop_assert_eq!(connected_components_bfs(&g), connected_components_dsu(&g));
        }

        #[test]
        fn spanning_forest_always_valid(
            n in 1usize..50,
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..100)
        ) {
            let edges: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .filter(|(a, b)| a != b)
                .collect();
            let g = AdjacencyList::from_edges(n, edges);
            let f = spanning_forest(&g);
            prop_assert!(is_spanning_forest(&g, &f));
            // Forest size = V - #components.
            let c = count_components(&connected_components_dsu(&g));
            prop_assert_eq!(f.len(), n - c);
        }
    }
}
