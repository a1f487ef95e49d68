//! The exact reference every answer is checked against.
//!
//! The generated stream is toggled into an exact edge set (a bit per vertex
//! pair — sketches live over Z_2, so an update is a toggle whatever its
//! insert/delete tag says), and the component partition of that set is
//! computed with `gz_dsu` wherever a workload asks a question; answers are
//! held against it with `gz_graph`'s `same_partition`. The system under test
//! never sees this: it gets the stream file or the frames.

use gz_dsu::Dsu;
use gz_stream::EdgeUpdate;

pub struct EdgeSet {
    num_nodes: usize,
    /// Words per adjacency row; bit `v` of row `u` is edge `(u, v)`, `u < v`.
    row_words: usize,
    bits: Vec<u64>,
}

impl EdgeSet {
    pub fn new(num_nodes: u64) -> EdgeSet {
        let num_nodes = num_nodes as usize;
        let row_words = num_nodes.div_ceil(64);
        EdgeSet { num_nodes, row_words, bits: vec![0; num_nodes * row_words] }
    }

    pub fn toggle(&mut self, u: u32, v: u32) {
        let (lo, hi) = if u < v { (u as usize, v as usize) } else { (v as usize, u as usize) };
        self.bits[lo * self.row_words + hi / 64] ^= 1 << (hi % 64);
    }

    pub fn toggle_all(&mut self, updates: &[EdgeUpdate]) {
        for up in updates {
            self.toggle(up.u, up.v);
        }
    }

    /// Component label per vertex (minimum member id) of the current set.
    pub fn partition(&self) -> Vec<u32> {
        let mut dsu = Dsu::new(self.num_nodes);
        for (u, row) in self.bits.chunks_exact(self.row_words).enumerate() {
            for (w, &word) in row.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    dsu.union(u as u32, (w * 64) as u32 + word.trailing_zeros());
                    word &= word - 1;
                }
            }
        }
        dsu.normalized_labels()
    }
}

/// Reference partitions of `updates` at each of `offsets` (ascending update
/// counts).
pub fn partitions_at(num_nodes: u64, updates: &[EdgeUpdate], offsets: &[usize]) -> Vec<Vec<u32>> {
    let mut set = EdgeSet::new(num_nodes);
    let mut at = 0;
    offsets
        .iter()
        .map(|&offset| {
            set.toggle_all(&updates[at..offset]);
            at = offset;
            set.partition()
        })
        .collect()
}

/// Shape check for a mid-run reply: one label per vertex, each a vertex id.
pub fn well_formed(labels: &[u32], num_nodes: u64) -> bool {
    labels.len() as u64 == num_nodes && labels.iter().all(|&l| (l as u64) < num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggles_cancel_and_partitions_follow() {
        let ups = [
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(2, 1),
            EdgeUpdate::insert(4, 5),
            EdgeUpdate::delete(1, 0),
            EdgeUpdate::insert(0, 1), // re-insert after delete
            EdgeUpdate::insert(5, 4), // second toggle removes it
        ];
        let parts = partitions_at(6, &ups, &[3, 4, 6]);
        assert_eq!(parts[0], vec![0, 0, 0, 3, 4, 4]);
        assert_eq!(parts[1], vec![0, 1, 1, 3, 4, 4]);
        assert_eq!(parts[2], vec![0, 0, 0, 3, 4, 5]);
    }

    #[test]
    fn replies_must_label_every_vertex_with_a_vertex() {
        assert!(well_formed(&[0, 0, 2], 3));
        assert!(!well_formed(&[0, 0, 3], 3));
        assert!(!well_formed(&[0, 0], 3));
    }
}
