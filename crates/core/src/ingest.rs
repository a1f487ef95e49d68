//! The Graph Workers (paper §5.1, Figures 7–8).
//!
//! Graph Workers pop per-node batches from the work queue and apply them to
//! the sketch store: `g` workers process different nodes' batches
//! concurrently, on either store — the batch kernel runs outside every store
//! lock, and two batches contend only for the XOR-merge into one node (RAM)
//! or one node group (disk). A flush whose store is in this process applies
//! what the gutters still hold the same way, on a fork-join pool instead of
//! through the queue (DESIGN.md §4). Each batch is one worker's: the paper
//! found a sketch-level thread group of one best (§6.4), and that is the
//! only size there is.

use crate::store::SketchStore;
pub use gz_gutters::IngestCounters;
use gz_gutters::WorkQueue;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A pool of Graph Worker threads draining a [`WorkQueue`] into a
/// [`SketchStore`].
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `num_workers` workers, each applying whole batches.
    pub fn spawn(num_workers: usize, queue: Arc<WorkQueue>, store: Arc<SketchStore>) -> Self {
        let handles = (0..num_workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    while let Some(batch) = queue.pop() {
                        // Acknowledge on every exit from this iteration: a
                        // worker that panics mid-batch must not leave its
                        // batch outstanding, or `WorkQueue::wait_idle`
                        // (every flush) would block forever.
                        let _done = TaskDone(&queue);
                        apply_batch(&store, batch.node, &batch.others);
                    }
                })
            })
            .collect();
        WorkerPool { handles }
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

/// Apply one batch: the one entry into the store for a Graph Worker
/// popping the queue and for a flush applying a gutter in place — so the one
/// place each record also flips its bit of the store's graph digest
/// ([`SketchStore::graph_digest`]).
pub(crate) fn apply_batch(store: &SketchStore, node: u32, records: &[u32]) {
    store.graph().record(node, records, store.params().num_nodes);
    store.apply_batch(node, records);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LockingStrategy;
    use crate::node_sketch::{encode_other, SketchParams};
    use gz_gutters::Batch;
    use gz_sketch::SampleResult;

    fn ram_store(num_nodes: u64) -> Arc<SketchStore> {
        let params = Arc::new(SketchParams::new(num_nodes, 4, 7, 5));
        let all = crate::store::NodeSet::all(num_nodes);
        Arc::new(SketchStore::for_nodes(params, LockingStrategy::DeltaSketch, all))
    }

    #[test]
    fn workers_drain_and_apply() {
        let store = ram_store(16);
        let queue = Arc::new(WorkQueue::for_workers(2));
        let pool = WorkerPool::spawn(2, Arc::clone(&queue), Arc::clone(&store));
        for node in 0..16u32 {
            queue.push(Batch { node, others: vec![encode_other((node + 1) % 16, false)] });
        }
        queue.wait_idle();
        queue.close();
        pool.join();
        // Every node sketch should hold its one edge.
        let snap = store.snapshot();
        for (node, s) in snap.iter().enumerate() {
            let got = s.as_ref().unwrap().sample_round(0);
            assert!(matches!(got, SampleResult::Index(_)), "node {node}: {got:?}");
        }
    }

    #[test]
    fn every_route_into_the_kernel_builds_the_same_stack() {
        // One batch — duplicates, deletes and a self-loop included — through
        // every entry the kernel has: the stack-level premix-once path, each
        // round premixing for itself, the store path, and per-record singles
        // as the reference. Byte-equal stacks throughout.
        use crate::node_sketch::assert_rounds_bitwise_equal;
        let (num_nodes, node) = (64u64, 9u32);
        let params = Arc::new(SketchParams::new(num_nodes, 5, 7, 5));
        let records: Vec<u32> =
            (0..150u32).map(|i| encode_other((i * 11 + i / 5) % 40, i % 3 == 0)).collect();
        assert!(records.contains(&node));

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
        for r in 0..per_round.num_rounds() {
            per_round.round_mut(r).update_batch(&decoded);
        }
        assert_rounds_bitwise_equal(&per_round, &reference, "per-round kernel");

        let stored = |apply: &dyn Fn(&SketchStore)| {
            let all = crate::store::NodeSet::all(num_nodes);
            let store =
                SketchStore::for_nodes(Arc::clone(&params), LockingStrategy::DeltaSketch, all);
            apply(&store);
            store.snapshot()[node as usize].clone().unwrap()
        };
        let serial = stored(&|store| store.apply_batch(node, &records));
        assert_rounds_bitwise_equal(&serial, &reference, "store path");
    }

    #[test]
    fn a_panicking_worker_still_acknowledges_its_batch() {
        // Node 99 is outside the 16-node store, so applying its batch
        // panics. The batch must still be acknowledged, or every later
        // flush would wait for it forever; the panic itself surfaces at
        // join.
        let store = ram_store(16);
        let queue = Arc::new(WorkQueue::for_workers(1));
        let pool = WorkerPool::spawn(1, Arc::clone(&queue), store);
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
        let pool = WorkerPool::spawn(3, Arc::clone(&queue), store);
        queue.close();
        pool.join();
    }
}
