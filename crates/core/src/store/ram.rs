//! The in-RAM store's name: a [`SketchStore`](super::SketchStore) built
//! without a file (one node a group, every group resident; `store::disk`),
//! under the name the repository benchmark's store probe imports. Its unit
//! tests run the one store through its file-less constructors.

pub use super::SketchStore as RamStore;

#[cfg(test)]
mod tests {
    use crate::config::LockingStrategy;
    use crate::node_sketch::{encode_other, update_index, SketchParams};
    use crate::store::{NodeSet, SketchStore};
    use gz_sketch::SampleResult;
    use std::sync::Arc;

    /// A store of every node of `params` without a file.
    fn ram(params: &Arc<SketchParams>, locking: LockingStrategy) -> SketchStore {
        SketchStore::for_nodes(Arc::clone(params), locking, NodeSet::all(params.num_nodes))
    }

    /// A 32-node store without a file, as the RAM unit tests use.
    fn store(locking: LockingStrategy) -> SketchStore {
        ram(&Arc::new(SketchParams::new(32, 4, 7, 99)), locking)
    }

    #[test]
    fn batch_application_direct_vs_delta_identical() {
        // Four threads share 64 batches for eight nodes — deletes and
        // repeats included — applied to one store per discipline: the lock
        // scope decides who waits, never what is merged, so the stacks end
        // bit-identical.
        let (a, b) = (store(LockingStrategy::Direct), store(LockingStrategy::DeltaSketch));
        let batches: Vec<(u32, Vec<u32>)> = (0..64u32)
            .map(|i| {
                let node = i % 8;
                let others = (0..5).map(|j| (node + 1 + (i + j) % 31) % 32);
                (
                    node,
                    others
                        .zip([false, true].into_iter().cycle())
                        .map(|(o, d)| encode_other(o, d))
                        .collect(),
                )
            })
            .collect();
        std::thread::scope(|scope| {
            for first in 0..4 {
                let (a, b, batches) = (&a, &b, &batches);
                scope.spawn(move || {
                    for (node, records) in batches.iter().skip(first).step_by(4) {
                        a.apply_batch(*node, records);
                        b.apply_batch(*node, records);
                    }
                });
            }
        });
        for (node, (x, y)) in a.snapshot().iter().zip(b.snapshot().iter()).enumerate() {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            crate::node_sketch::assert_rounds_bitwise_equal(x, y, &format!("node {node}"));
        }
    }

    #[test]
    fn toggle_semantics() {
        let s = store(LockingStrategy::DeltaSketch);
        // (0,5) toggled twice cancels; (0,9) stays.
        s.apply_batch(0, &[encode_other(5, false), encode_other(9, false)]);
        s.apply_batch(0, &[encode_other(5, true)]);
        let snap = s.snapshot();
        let sketch = snap[0].as_ref().unwrap();
        assert_eq!(sketch.sample_round(0), SampleResult::Index(update_index(0, 9, 32)));
    }

    #[test]
    fn self_loops_ignored() {
        let s = store(LockingStrategy::Direct);
        s.apply_batch(3, &[encode_other(3, false)]);
        let snap = s.snapshot();
        assert_eq!(snap[3].as_ref().unwrap().sample_round(0), SampleResult::Zero);
    }

    #[test]
    fn concurrent_batches_linearize() {
        let s = Arc::new(store(LockingStrategy::DeltaSketch));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    // Each thread toggles a disjoint set of edges at node 0.
                    let records: Vec<u32> =
                        (0..3).map(|i| encode_other(1 + t * 3 + i, false)).collect();
                    s.apply_batch(0, &records);
                });
            }
        });
        // All 24 edges present: query returns some (0, x) edge.
        let snap = s.snapshot();
        match snap[0].as_ref().unwrap().sample_round(0) {
            SampleResult::Index(idx) => {
                let e = gz_graph::index_to_edge(idx, 32);
                assert_eq!(e.u(), 0);
                assert!((1..25).contains(&e.v()));
            }
            other => panic!("expected a sample, got {other:?}"),
        }
    }

    #[test]
    fn scratch_pool_recycles() {
        let s = store(LockingStrategy::DeltaSketch);
        for i in 0..10 {
            s.apply_batch(i % 4, &[encode_other(20 + i, false)]);
        }
        // Single-threaded: the pool should hold exactly one scratch.
        assert_eq!(s.parked_scratch(), 1);
    }

    #[test]
    fn recycled_scratch_carries_no_state_across_batches() {
        // The reuse discipline's core invariant: a batch applied through a
        // recycled scratch yields bytes identical to a store whose scratch
        // was fresh — nothing from earlier batches bleeds through.
        let reused = store(LockingStrategy::DeltaSketch);
        let fresh = store(LockingStrategy::DeltaSketch);
        // Warm the pool on `reused` with unrelated traffic to other nodes.
        for i in 0..6 {
            reused.apply_batch(i % 3, &[encode_other(10 + i, false)]);
            fresh.apply_batch(i % 3, &[encode_other(10 + i, false)]);
        }
        assert_eq!(reused.parked_scratch(), 1, "pool warmed");
        let records: Vec<u32> = (1..8).map(|o| encode_other(o + 20, false)).collect();
        reused.apply_batch(5, &records);
        fresh.apply_batch(5, &records);
        let (a, b) = (reused.snapshot(), fresh.snapshot());
        for (node, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            crate::node_sketch::assert_rounds_bitwise_equal(
                x.as_ref().unwrap(),
                y.as_ref().unwrap(),
                &format!("node {node}"),
            );
        }
    }

    #[test]
    fn dup_heavy_batch_matches_singles_bitwise() {
        // Gutter regime: insert/delete pairs for the same edge inside one
        // batch must leave state bit-identical to per-record application.
        let batched = store(LockingStrategy::DeltaSketch);
        let singles = store(LockingStrategy::Direct);
        let mut records = Vec::new();
        for o in 1..10u32 {
            records.push(encode_other(o, false)); // insert
            records.push(encode_other(o, true)); // delete: cancels pre-hash
        }
        records.push(encode_other(17, false));
        batched.apply_batch(0, &records);
        for &r in &records {
            singles.apply_batch(0, &[r]);
        }
        let (a, b) = (batched.snapshot(), singles.snapshot());
        crate::node_sketch::assert_rounds_bitwise_equal(
            a[0].as_ref().unwrap(),
            b[0].as_ref().unwrap(),
            "node 0",
        );
    }

    #[test]
    fn sketch_bytes_scales_with_nodes() {
        let params = Arc::new(SketchParams::new(32, 4, 7, 1));
        let per_node = params.node_sketch_resident_bytes();
        let s = ram(&params, LockingStrategy::Direct);
        assert_eq!(s.sketch_bytes(), per_node * 32);
    }

    #[test]
    fn strided_store_matches_full_store_on_owned_nodes() {
        let params = Arc::new(SketchParams::new(32, 4, 7, 99));
        let full = ram(&params, LockingStrategy::DeltaSketch);
        let shard = SketchStore::for_nodes(
            Arc::clone(&params),
            LockingStrategy::DeltaSketch,
            NodeSet::strided(32, 1, 4),
        );
        // Apply the same owned-node batches to both.
        for node in [1u32, 5, 9, 29] {
            let records = [encode_other((node + 2) % 32, false), encode_other(0, false)];
            full.apply_batch(node, &records);
            shard.apply_batch(node, &records);
        }
        let full_snap = full.snapshot();
        for (node, sketch) in shard.node_set().iter().zip(shard.snapshot()) {
            let sketch = sketch.unwrap();
            let reference = full_snap[node as usize].as_ref().unwrap();
            for r in 0..sketch.num_rounds() {
                assert_eq!(sketch.sample_round(r), reference.sample_round(r), "node {node}");
            }
        }
    }

    #[test]
    fn strided_store_allocates_owned_nodes_only() {
        let params = Arc::new(SketchParams::new(64, 4, 7, 1));
        let per_node = params.node_sketch_resident_bytes();
        let shard = SketchStore::for_nodes(
            Arc::clone(&params),
            LockingStrategy::Direct,
            NodeSet::strided(64, 3, 4),
        );
        assert_eq!(shard.sketch_bytes(), per_node * 16, "16 of 64 nodes owned");
    }

    #[test]
    fn a_group_is_allocated_at_its_first_dense_touch() {
        // At τ > 0 every vertex starts sparse and its one-node group holds
        // nothing until the vertex promotes — as a paged group is nothing
        // but zeros in the file until faulted — and reading the store
        // (snapshot, digest, round stream) allocates nothing. At τ = 0 every
        // vertex is born dense, so every group is allocated up front.
        let params = Arc::new(SketchParams::new(64, 4, 7, 99));
        let all = NodeSet::all(64);
        let s = SketchStore::for_nodes_with_threshold(
            Arc::clone(&params),
            LockingStrategy::DeltaSketch,
            all,
            8,
        );
        for node in 0..64u32 {
            s.apply_batch(node, &[encode_other((node + 1) % 64, false)]);
        }
        assert_eq!(s.rep_stats().promoted, 0);
        assert_eq!(s.resident_stacks(), 0, "no promotion, no dense stack");
        let records: Vec<u32> = (10..20).map(|other| encode_other(other, false)).collect();
        s.apply_batch(3, &records);
        assert_eq!(s.rep_stats().promoted, 1);
        s.snapshot();
        s.state_digest().unwrap();
        s.stream_round(0, &|_| true, &mut |_, _| {}).unwrap();
        assert_eq!(s.resident_stacks(), 1, "one promotion, one stack");
        let dense = SketchStore::for_nodes(params, LockingStrategy::DeltaSketch, all);
        assert_eq!(dense.resident_stacks(), 64);
    }
}
