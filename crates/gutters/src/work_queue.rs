//! The bounded work queue between the buffering system and Graph Workers.
//!
//! Paper §5.1: "The work queue can hold up to 8·g batches, where g is the
//! number of Graph Workers. A moderate work queue capacity of 8g limits the
//! time either the buffering system or graph workers spend waiting on the
//! queue … while keeping the memory usage of the work queue low."
//!
//! Producers block while the queue is full; consumers block while it is
//! empty. Closing the queue wakes all consumers, which drain remaining
//! batches and then observe `None`.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// A batch of updates bound for a single graph node (paper Figure 8's
/// `get_batch` payload): the list of *other endpoints* of edges incident to
/// `node`, each representing one toggle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Destination graph node whose sketches this batch updates.
    pub node: u32,
    /// Other endpoint of each buffered edge update.
    pub others: Vec<u32>,
}

struct Inner {
    queue: VecDeque<Batch>,
    closed: bool,
    /// Items pushed but not yet acknowledged via [`WorkQueue::task_done`].
    outstanding: usize,
}

/// Bounded blocking MPMC queue of [`Batch`]es.
///
/// Also tracks *outstanding work*: each pushed batch stays outstanding until
/// a consumer calls [`WorkQueue::task_done`], which is what lets the query
/// path's `cleanup()` (paper Figure 9) wait until every buffered update has
/// actually been applied to the sketches.
pub struct WorkQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    all_done: Condvar,
    capacity: usize,
}

impl WorkQueue {
    /// Queue with the paper's capacity rule: 8 batches per worker.
    pub fn for_workers(num_workers: usize) -> Self {
        Self::with_capacity(8 * num_workers.max(1))
    }

    /// Queue with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        WorkQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                outstanding: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            all_done: Condvar::new(),
            capacity,
        }
    }

    /// Push a batch, blocking while the queue is full. Returns `false` if
    /// the queue has been closed (the batch is dropped).
    pub fn push(&self, item: Batch) -> bool {
        let mut inner = self.inner.lock();
        while inner.queue.len() >= self.capacity && !inner.closed {
            self.not_full.wait(&mut inner);
        }
        if inner.closed {
            return false;
        }
        inner.queue.push_back(item);
        inner.outstanding += 1;
        drop(inner);
        self.not_empty.notify_one();
        true
    }

    /// Acknowledge that a popped batch has been fully processed.
    pub fn task_done(&self) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.outstanding > 0, "task_done without outstanding work");
        inner.outstanding = inner.outstanding.saturating_sub(1);
        if inner.outstanding == 0 {
            drop(inner);
            self.all_done.notify_all();
        }
    }

    /// Block until every pushed batch has been acknowledged via
    /// [`Self::task_done`]. (The producer must not be pushing concurrently,
    /// which matches the query path: `force_flush` happens-before
    /// `wait_idle`.)
    pub fn wait_idle(&self) {
        let mut inner = self.inner.lock();
        while inner.outstanding > 0 {
            self.all_done.wait(&mut inner);
        }
    }

    /// Number of pushed-but-unacknowledged batches.
    pub fn outstanding(&self) -> usize {
        self.inner.lock().outstanding
    }

    /// Pop a batch, blocking while the queue is empty. Returns `None` once
    /// the queue is closed *and* drained.
    pub fn pop(&self) -> Option<Batch> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<Batch> {
        let mut inner = self.inner.lock();
        let item = inner.queue.pop_front();
        if item.is_some() {
            drop(inner);
            self.not_full.notify_one();
        }
        item
    }

    /// Close the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of queued batches.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True if no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of queued batches.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn batch(node: u32) -> Batch {
        Batch { node, others: vec![node + 1] }
    }

    #[test]
    fn fifo_order() {
        let q = WorkQueue::with_capacity(4);
        assert!(q.push(batch(1)));
        assert!(q.push(batch(2)));
        assert_eq!(q.pop().unwrap().node, 1);
        assert_eq!(q.pop().unwrap().node, 2);
    }

    #[test]
    fn capacity_rule() {
        assert_eq!(WorkQueue::for_workers(6).capacity(), 48);
        assert_eq!(WorkQueue::for_workers(0).capacity(), 8);
    }

    #[test]
    fn close_drains_then_none() {
        let q = WorkQueue::with_capacity(4);
        q.push(batch(7));
        q.close();
        assert!(!q.push(batch(8)), "push after close must fail");
        assert_eq!(q.pop().unwrap().node, 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn try_pop_nonblocking() {
        let q = WorkQueue::with_capacity(2);
        assert!(q.try_pop().is_none());
        q.push(batch(1));
        assert_eq!(q.try_pop().unwrap().node, 1);
    }

    #[test]
    fn blocking_producer_unblocked_by_consumer() {
        let q = Arc::new(WorkQueue::with_capacity(1));
        q.push(batch(1));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(batch(2)));
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap().node, 1);
        assert!(producer.join().unwrap());
        assert_eq!(q.pop().unwrap().node, 2);
    }

    #[test]
    fn multi_producer_multi_consumer_delivers_everything() {
        let q = Arc::new(WorkQueue::with_capacity(8));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        assert!(q.push(Batch { node: p * 1000 + i, others: vec![] }));
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(b) = q.pop() {
                        got.push(b.node);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expected: Vec<u32> =
            (0..4u32).flat_map(|p| (0..250).map(move |i| p * 1000 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn wait_idle_blocks_until_all_acknowledged() {
        let q = Arc::new(WorkQueue::with_capacity(16));
        for i in 0..10 {
            q.push(batch(i));
        }
        assert_eq!(q.outstanding(), 10);
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            let mut n = 0;
            while let Some(_b) = q2.try_pop() {
                std::thread::sleep(std::time::Duration::from_millis(1));
                q2.task_done();
                n += 1;
            }
            n
        });
        q.wait_idle();
        assert_eq!(q.outstanding(), 0);
        assert_eq!(worker.join().unwrap(), 10);
    }

    #[test]
    fn wait_idle_returns_immediately_when_empty() {
        let q = WorkQueue::with_capacity(2);
        q.wait_idle(); // must not hang
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q = Arc::new(WorkQueue::with_capacity(2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }
}
