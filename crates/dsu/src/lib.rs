//! Disjoint-set union (union–find) substrate.
//!
//! Boruvka's algorithm — the query phase of GraphZeppelin (paper §4.2, Fig. 9)
//! — tracks which vertices have merged into which supernode with a DSU. The
//! paper's I/O analysis charges `log*(V)` per merge (Lemma 5); this module
//! provides that structure.

/// Union–find over `n` elements with union by rank and path compression.
///
/// Amortized cost per operation is `O(α(n))`; the paper's external-memory
/// accounting treats each merge as `log*(V)` I/Os, which this structure also
/// satisfies.
///
/// ```
/// let mut dsu = gz_dsu::Dsu::new(4);
/// assert!(dsu.union(0, 1));
/// assert!(!dsu.union(1, 0), "already joined");
/// assert!(dsu.connected(0, 1));
/// assert_eq!(dsu.component_count(), 3);
/// assert_eq!(dsu.normalized_labels(), vec![0, 0, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Dsu {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl Dsu {
    /// Create a DSU with `n` singleton components.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "DSU supports up to 2^32 elements");
        Dsu { parent: (0..n as u32).collect(), rank: vec![0; n], components: n }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure tracks no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of current components.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Find the representative of `x`, compressing the path.
    #[inline]
    pub fn find(&mut self, x: u32) -> u32 {
        debug_assert!((x as usize) < self.parent.len());
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression: point every node on the walk at the root.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Find without mutation (no compression) — usable through `&self`.
    #[inline]
    pub fn find_const(&self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    /// Merge the components of `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) =
            if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are currently in the same component.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Component label for every element, normalized so labels are the
    /// minimum element id in each component. Two DSUs describe the same
    /// partition iff their normalized labelings are equal.
    pub fn normalized_labels(&mut self) -> Vec<u32> {
        let n = self.parent.len();
        let mut min_of_root = vec![u32::MAX; n];
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if x < min_of_root[r] {
                min_of_root[r] = x;
            }
        }
        (0..n as u32).map(|x| min_of_root[self.find_const(x) as usize]).collect()
    }

    /// Group elements by component: returns the list of components, each a
    /// sorted vector of member ids, ordered by smallest member.
    pub fn components(&mut self) -> Vec<Vec<u32>> {
        let labels = self.normalized_labels();
        let mut map: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
        for (x, &l) in labels.iter().enumerate() {
            map.entry(l).or_default().push(x as u32);
        }
        map.into_values().collect()
    }

    /// Iterator over current component representatives (roots).
    pub fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.parent.iter().enumerate().filter(|(i, &p)| p == *i as u32).map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut d = Dsu::new(5);
        assert_eq!(d.component_count(), 5);
        for i in 0..5 {
            assert_eq!(d.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = Dsu::new(6);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0), "repeat union must be a no-op");
        assert_eq!(d.component_count(), 4);
        assert!(d.connected(0, 1));
        assert!(!d.connected(0, 2));
        assert!(d.union(1, 3));
        assert!(d.connected(0, 2));
        assert_eq!(d.component_count(), 3);
    }

    #[test]
    fn chain_compresses() {
        let mut d = Dsu::new(1000);
        for i in 0..999 {
            d.union(i, i + 1);
        }
        assert_eq!(d.component_count(), 1);
        let r = d.find(0);
        for i in 0..1000 {
            assert_eq!(d.find(i), r);
        }
    }

    #[test]
    fn normalized_labels_minimum_member() {
        let mut d = Dsu::new(5);
        d.union(4, 2);
        d.union(2, 3);
        let labels = d.normalized_labels();
        assert_eq!(labels, vec![0, 1, 2, 2, 2]);
    }

    #[test]
    fn components_sorted() {
        let mut d = Dsu::new(6);
        d.union(5, 0);
        d.union(1, 3);
        let comps = d.components();
        assert_eq!(comps, vec![vec![0, 5], vec![1, 3], vec![2], vec![4]]);
    }

    #[test]
    fn roots_match_component_count() {
        let mut d = Dsu::new(10);
        d.union(0, 9);
        d.union(3, 4);
        d.union(4, 5);
        assert_eq!(d.roots().count(), d.component_count());
    }

    #[test]
    fn empty_dsu() {
        let d = Dsu::new(0);
        assert!(d.is_empty());
        assert_eq!(d.component_count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation: naive label propagation.
    fn naive_partition(n: usize, unions: &[(u32, u32)]) -> Vec<u32> {
        let mut label: Vec<u32> = (0..n as u32).collect();
        // Iterate to fixpoint; O(n * |unions|) but fine for test sizes.
        loop {
            let mut changed = false;
            for &(a, b) in unions {
                let (la, lb) = (label[a as usize], label[b as usize]);
                let m = la.min(lb);
                for l in label.iter_mut() {
                    if *l == la.max(lb) && la != lb {
                        *l = m;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        label
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_naive(
            n in 1usize..40,
            pairs in proptest::collection::vec((0u32..40, 0u32..40), 0..60)
        ) {
            let pairs: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let mut d = Dsu::new(n);
            for &(a, b) in &pairs {
                d.union(a, b);
            }
            prop_assert_eq!(d.normalized_labels(), naive_partition(n, &pairs));
        }

        #[test]
        fn component_count_decreases_by_successful_unions(
            n in 1usize..60,
            pairs in proptest::collection::vec((0u32..60, 0u32..60), 0..80)
        ) {
            let mut d = Dsu::new(n);
            let mut successes = 0;
            for (a, b) in pairs {
                if d.union(a % n as u32, b % n as u32) {
                    successes += 1;
                }
            }
            prop_assert_eq!(d.component_count(), n - successes);
        }
    }
}
