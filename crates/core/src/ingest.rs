//! The parallel ingestion pipeline (paper §5.1, Figures 7–8).
//!
//! Graph Workers pop per-node batches from the work queue and apply them to
//! the sketch store. Two levels of parallelism, as in the paper:
//!
//! - **batch-level**: `g` workers process different nodes' batches
//!   concurrently, on either store: the batch kernel runs outside every
//!   store lock, and two batches contend only for the XOR-merge into one
//!   node (RAM) or one node group (disk);
//!   a flush whose store is in this process applies what the gutters still
//!   hold the same way, on a fork-join pool instead of through the queue
//!   (DESIGN.md §4);
//! - **sketch-level**: a worker may split the `O(log V)` independent
//!   subsketches of one node sketch across a thread group. The paper found
//!   group size 1 best on its hardware, which is the default, but the knob
//!   exists for the §6.4 ablation.

use crate::store::SketchStore;
pub use gz_gutters::IngestCounters;
use gz_gutters::WorkQueue;
use gz_sketch::cube::{with_premixed, LaneAccumulators};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A pool of Graph Worker threads draining a [`WorkQueue`] into a
/// [`SketchStore`].
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    counters: Arc<IngestCounters>,
}

impl WorkerPool {
    /// Spawn `num_workers` workers. Each applies whole batches; with
    /// `group_threads > 1` a worker fans one batch out over that many
    /// scoped threads by splitting sketch rounds.
    pub fn spawn(
        num_workers: usize,
        group_threads: usize,
        queue: Arc<WorkQueue>,
        store: Arc<SketchStore>,
    ) -> Self {
        let counters = Arc::new(IngestCounters::default());
        let handles = (0..num_workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let store = Arc::clone(&store);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    while let Some(batch) = queue.pop() {
                        // Acknowledge on every exit from this iteration: a
                        // worker that panics mid-batch must not leave its
                        // batch outstanding, or `WorkQueue::wait_idle`
                        // (every flush) would block forever.
                        let _done = TaskDone(&queue);
                        apply_batch(&store, batch.node, &batch.others, group_threads);
                        counters.record_batches(1, batch.others.len() as u64);
                    }
                })
            })
            .collect();
        WorkerPool { handles, counters }
    }

    /// Shared counters.
    pub fn counters(&self) -> Arc<IngestCounters> {
        Arc::clone(&self.counters)
    }

    /// Join all workers (the queue must already be closed).
    pub fn join(self) {
        for h in self.handles {
            h.join().expect("graph worker panicked");
        }
    }
}

/// Calls [`WorkQueue::task_done`] when dropped.
struct TaskDone<'q>(&'q WorkQueue);

impl Drop for TaskDone<'_> {
    fn drop(&mut self) {
        self.0.task_done();
    }
}

/// Apply one batch, optionally with sketch-level parallelism: the one entry
/// into the store for a Graph Worker popping the queue and for a flush
/// applying a gutter in place — so the one place each record also flips its
/// bit of the store's graph digest ([`SketchStore::graph_digest`]).
pub(crate) fn apply_batch(store: &SketchStore, node: u32, records: &[u32], group_threads: usize) {
    store.graph().record(node, records, store.params().num_nodes);
    if group_threads <= 1 {
        store.apply_batch(node, records);
    } else {
        apply_batch_grouped(store, node, records, group_threads);
    }
}

/// Sketch-level parallel application (the delta-sketch discipline, on
/// either store): decode the batch to indices once (into the per-worker
/// thread-local scratch, same as the serial path), premix once (it is
/// round-independent, so the whole thread group reads one buffer), build
/// the delta sketch with rounds split across a scoped thread group — each
/// round applied through the batch kernel — then lock only for the merge.
/// The delta sketch comes from the store's reusable scratch pool, so no
/// node-sized allocation happens per batch.
fn apply_batch_grouped(store: &SketchStore, node: u32, records: &[u32], group_threads: usize) {
    let num_nodes = store.params().num_nodes;
    crate::store::with_index_scratch(|indices| {
        crate::store::decode_records_into(node, records, num_nodes, indices);

        let mut scratch = store.scratch().checkout();
        let rounds = scratch.rounds_mut();
        let per_chunk = rounds.len().div_ceil(group_threads);
        with_premixed(indices, |batch| {
            std::thread::scope(|scope| {
                for chunk in rounds.chunks_mut(per_chunk.max(1)) {
                    scope.spawn(move || {
                        let mut acc = LaneAccumulators::new();
                        for sketch in chunk.iter_mut() {
                            sketch.update_batch_premixed(batch, &mut acc);
                        }
                    });
                }
            });
        });
        store.merge_delta(node, &scratch);
        store.scratch().recycle(scratch);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GzConfig, LockingStrategy};
    use crate::node_sketch::{encode_other, SketchParams};
    use crate::store::ram::RamStore;
    use gz_gutters::Batch;
    use gz_sketch::SampleResult;

    fn ram_store(num_nodes: u64) -> Arc<SketchStore> {
        let params = Arc::new(SketchParams::new(num_nodes, 4, 7, 5));
        Arc::new(SketchStore::Ram(RamStore::new(params, LockingStrategy::DeltaSketch)))
    }

    #[test]
    fn workers_drain_and_apply() {
        let store = ram_store(16);
        let queue = Arc::new(WorkQueue::for_workers(2));
        let pool = WorkerPool::spawn(2, 1, Arc::clone(&queue), Arc::clone(&store));
        for node in 0..16u32 {
            queue.push(Batch { node, others: vec![encode_other((node + 1) % 16, false)] });
        }
        queue.wait_idle();
        queue.close();
        let counters = pool.counters();
        pool.join();
        assert_eq!(counters.batches(), 16);
        assert_eq!(counters.records(), 16);
        // Every node sketch should hold its one edge.
        let snap = store.snapshot();
        for (node, s) in snap.iter().enumerate() {
            let got = s.as_ref().unwrap().sample_round(0);
            assert!(matches!(got, SampleResult::Index(_)), "node {node}: {got:?}");
        }
    }

    #[test]
    fn grouped_application_matches_serial() {
        let serial = ram_store(32);
        let grouped = ram_store(32);
        let records: Vec<u32> = (1..20u32).map(|o| encode_other(o, false)).collect();

        apply_batch(&serial, 0, &records, 1);
        apply_batch(&grouped, 0, &records, 3);

        let (a, b) = (serial.snapshot(), grouped.snapshot());
        let (a, b) = (a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
        for r in 0..a.num_rounds() {
            assert_eq!(a.sample_round(r), b.sample_round(r), "round {r}");
        }
    }

    #[test]
    fn every_route_into_the_kernel_builds_the_same_stack() {
        // One batch — duplicates, deletes and a self-loop included — through
        // every entry the kernel has: the stack-level premix-once path, each
        // round premixing for itself, the serial store path, the grouped
        // path at 1–3 threads (five rounds, so the groups are uneven), and
        // per-record singles as the reference. Byte-equal stacks throughout.
        use crate::node_sketch::assert_rounds_bitwise_equal;
        let (num_nodes, node) = (64u64, 9u32);
        let params = Arc::new(SketchParams::new(num_nodes, 5, 7, 5));
        let records: Vec<u32> =
            (0..150u32).map(|i| encode_other((i * 11 + i / 5) % 40, i % 3 == 0)).collect();
        assert!(records.iter().any(|&r| crate::node_sketch::decode_other(r).0 == node));

        let mut decoded = Vec::new();
        crate::store::decode_records_into(node, &records, num_nodes, &mut decoded);
        let mut reference = params.new_node_sketch();
        for &idx in &decoded {
            reference.update_signed(idx, 1);
        }
        let mut stack = params.new_node_sketch();
        stack.update_batch(&decoded);
        assert_rounds_bitwise_equal(&stack, &reference, "stack-level kernel");

        let mut per_round = params.new_node_sketch();
        for sketch in per_round.rounds_mut() {
            sketch.update_batch(&decoded);
        }
        assert_rounds_bitwise_equal(&per_round, &reference, "per-round kernel");

        let stored = |apply: &dyn Fn(&SketchStore)| {
            let store =
                SketchStore::Ram(RamStore::new(Arc::clone(&params), LockingStrategy::DeltaSketch));
            apply(&store);
            store.snapshot()[node as usize].clone().unwrap()
        };
        let serial = stored(&|store| store.apply_batch(node, &records));
        assert_rounds_bitwise_equal(&serial, &reference, "serial store path");
        for group_threads in 1..=3 {
            let grouped =
                stored(&|store| apply_batch_grouped(store, node, &records, group_threads));
            assert_rounds_bitwise_equal(&grouped, &reference, &format!("group of {group_threads}"));
        }
    }

    #[test]
    fn grouped_application_reuses_store_scratch() {
        // The grouped path must draw its delta sketch from the store's
        // scratch pool (no per-batch node-sketch allocation) and recycle it
        // zeroed: repeated grouped batches leave exactly one pooled scratch
        // and state identical to the serial path.
        let grouped = ram_store(32);
        let serial = ram_store(32);
        for node in 0..6u32 {
            let records: Vec<u32> = (1..12).map(|o| encode_other((node + o) % 32, false)).collect();
            apply_batch(&grouped, node, &records, 3);
            apply_batch(&serial, node, &records, 1);
        }
        assert_eq!(grouped.scratch().parked(), 1, "scratch checked out and recycled per batch");
        let (a, b) = (grouped.snapshot(), serial.snapshot());
        for (node, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            crate::node_sketch::assert_rounds_bitwise_equal(
                x.as_ref().unwrap(),
                y.as_ref().unwrap(),
                &format!("node {node}"),
            );
        }
    }

    #[test]
    fn grouped_application_on_disk_matches_serial_ram() {
        // The grouped path is store-agnostic: on a disk store cached two
        // groups deep it builds the same delta and merges it under the
        // group's lock — state bit-identical to the serial RAM store.
        use crate::store::{disk::DiskStore, NodeSet};
        let params = Arc::new(SketchParams::new(32, 4, 7, 5));
        let path = gz_testutil::TempPath::new("gz-ingest-grouped-disk", ".bin");
        let disk = SketchStore::Disk(
            DiskStore::for_nodes(Arc::clone(&params), NodeSet::all(32), path.to_path_buf(), 64, 2)
                .unwrap(),
        );
        let serial = ram_store(32);
        for node in 0..12u32 {
            let records: Vec<u32> = (1..12).map(|o| encode_other((node + o) % 32, false)).collect();
            apply_batch(&disk, node % 6, &records, 3);
            apply_batch(&serial, node % 6, &records, 1);
        }
        assert_eq!(disk.scratch().parked(), 1, "scratch checked out and recycled per batch");
        for (node, (x, y)) in disk.snapshot().iter().zip(serial.snapshot().iter()).enumerate() {
            crate::node_sketch::assert_rounds_bitwise_equal(
                x.as_ref().unwrap(),
                y.as_ref().unwrap(),
                &format!("node {node}"),
            );
        }
    }

    #[test]
    fn a_panicking_worker_still_acknowledges_its_batch() {
        // Node 99 is outside the 16-node store, so applying its batch
        // panics. The batch must still be acknowledged, or every later
        // flush would wait for it forever; the panic itself surfaces at
        // join.
        let store = ram_store(16);
        let queue = Arc::new(WorkQueue::for_workers(1));
        let pool = WorkerPool::spawn(1, 1, Arc::clone(&queue), store);
        queue.push(Batch { node: 99, others: vec![encode_other(1, false)] });
        let (idle, woke) = std::sync::mpsc::channel();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                queue.wait_idle();
                idle.send(()).ok();
            })
        };
        woke.recv_timeout(std::time::Duration::from_secs(30))
            .expect("wait_idle must return once the worker has died");
        waiter.join().unwrap();
        queue.close();
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.join()));
        assert!(joined.is_err(), "join reports the worker's panic");
    }

    #[test]
    fn pool_survives_empty_close() {
        let store = ram_store(4);
        let queue = Arc::new(WorkQueue::for_workers(3));
        let pool = WorkerPool::spawn(3, 1, Arc::clone(&queue), store);
        queue.close();
        pool.join();
    }

    #[test]
    fn config_default_group_threads_is_one() {
        // Paper §6.4: "a group size of one gives the best performance".
        assert_eq!(GzConfig::in_ram(64).group_threads, 1);
    }
}
