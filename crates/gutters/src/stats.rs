//! I/O accounting.
//!
//! The paper's hybrid streaming model charges one I/O per block-sized disk
//! access (§2.1). Since this reproduction models "sketches on SSD" with
//! explicit file-backed stores rather than cgroup-forced swap, every
//! block access is counted here, which is what lets the experiment suite
//! verify the I/O-complexity claims (Observation 1 vs Lemma 4) directly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe I/O counters. Cheap to share via `Arc`.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    sparse_promotions: AtomicU64,
    submissions: AtomicU64,
    completions: AtomicU64,
    depth_sum: AtomicU64,
    depth_max: AtomicU64,
    // Fault-tolerance accounting (sharded recovery, DESIGN.md §14).
    checkpoints: AtomicU64,
    replays: AtomicU64,
    batches_replayed: AtomicU64,
    reconnect_attempts: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of `bytes`.
    #[inline]
    pub fn record_read(&self, bytes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a write of `bytes`.
    #[inline]
    pub fn record_write(&self, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Number of read operations.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of write operations.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total operations (reads + writes) — the hybrid model's I/O count.
    pub fn total_ops(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Record one sparse→dense promotion (hybrid representation).
    #[inline]
    pub fn record_promotion(&self) {
        self.sparse_promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one submission batch handed to the kernel (an
    /// `io_uring_enter`, or a single positioned syscall on the pread path)
    /// with `in_flight` operations pending once it returned. Tracks how
    /// deep the I/O pipeline actually runs: `submissions` counts batches,
    /// `depth_sum / submissions` is the mean post-submit depth, and
    /// `depth_max` the deepest point observed.
    #[inline]
    pub fn record_batch(&self, in_flight: u64) {
        self.submissions.fetch_add(1, Ordering::Relaxed);
        self.depth_sum.fetch_add(in_flight, Ordering::Relaxed);
        self.depth_max.fetch_max(in_flight, Ordering::Relaxed);
    }

    /// Record `n` operation completions reaped from the kernel.
    #[inline]
    pub fn record_completions(&self, n: u64) {
        self.completions.fetch_add(n, Ordering::Relaxed);
    }

    /// Submission batches handed to the kernel.
    pub fn submissions(&self) -> u64 {
        self.submissions.load(Ordering::Relaxed)
    }

    /// Operation completions reaped.
    pub fn completions(&self) -> u64 {
        self.completions.load(Ordering::Relaxed)
    }

    /// Deepest in-flight depth observed right after a submission batch.
    pub fn max_depth(&self) -> u64 {
        self.depth_max.load(Ordering::Relaxed)
    }

    /// Mean in-flight depth right after a submission batch (0.0 before any
    /// batch was recorded).
    pub fn mean_depth(&self) -> f64 {
        let subs = self.submissions();
        if subs == 0 {
            return 0.0;
        }
        self.depth_sum.load(Ordering::Relaxed) as f64 / subs as f64
    }

    /// Sparse→dense promotions performed.
    pub fn sparse_promotions(&self) -> u64 {
        self.sparse_promotions.load(Ordering::Relaxed)
    }

    /// Record one durable shard checkpoint written (a `CheckpointAck`).
    #[inline]
    pub fn record_checkpoint(&self) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one recovery replay of `batches` logged batches into a
    /// restarted worker.
    #[inline]
    pub fn record_replay(&self, batches: u64) {
        self.replays.fetch_add(1, Ordering::Relaxed);
        self.batches_replayed.fetch_add(batches, Ordering::Relaxed);
    }

    /// Record one reconnect/re-spawn attempt toward a dead worker.
    #[inline]
    pub fn record_reconnect_attempt(&self) {
        self.reconnect_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Durable shard checkpoints written.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Recovery replays performed (one per revived worker).
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Batches re-shipped from the replay log across all replays.
    pub fn batches_replayed(&self) -> u64 {
        self.batches_replayed.load(Ordering::Relaxed)
    }

    /// Reconnect/re-spawn attempts toward dead workers.
    pub fn reconnect_attempts(&self) -> u64 {
        self.reconnect_attempts.load(Ordering::Relaxed)
    }

    /// Fold another counter set into this one (every counter, one atomic
    /// add each; the depth high-water mark by maximum). The disk store's
    /// round stream counts into one local `IoStats` per query worker and
    /// merges it once, so concurrent readers neither race nor contend on
    /// the shared counters per read.
    pub fn merge_from(&self, other: &IoStats) {
        self.reads.fetch_add(other.reads(), Ordering::Relaxed);
        self.writes.fetch_add(other.writes(), Ordering::Relaxed);
        self.bytes_read.fetch_add(other.bytes_read(), Ordering::Relaxed);
        self.bytes_written.fetch_add(other.bytes_written(), Ordering::Relaxed);
        self.sparse_promotions.fetch_add(other.sparse_promotions(), Ordering::Relaxed);
        self.submissions.fetch_add(other.submissions(), Ordering::Relaxed);
        self.completions.fetch_add(other.completions(), Ordering::Relaxed);
        self.depth_sum.fetch_add(other.depth_sum.load(Ordering::Relaxed), Ordering::Relaxed);
        // Depth is a high-water mark, not a flow: the merged maximum is the
        // max over workers, while sums and counts add exactly.
        self.depth_max.fetch_max(other.max_depth(), Ordering::Relaxed);
        self.checkpoints.fetch_add(other.checkpoints(), Ordering::Relaxed);
        self.replays.fetch_add(other.replays(), Ordering::Relaxed);
        self.batches_replayed.fetch_add(other.batches_replayed(), Ordering::Relaxed);
        self.reconnect_attempts.fetch_add(other.reconnect_attempts(), Ordering::Relaxed);
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.sparse_promotions.store(0, Ordering::Relaxed);
        self.submissions.store(0, Ordering::Relaxed);
        self.completions.store(0, Ordering::Relaxed);
        self.depth_sum.store(0, Ordering::Relaxed);
        self.depth_max.store(0, Ordering::Relaxed);
        self.checkpoints.store(0, Ordering::Relaxed);
        self.replays.store(0, Ordering::Relaxed);
        self.batches_replayed.store(0, Ordering::Relaxed);
        self.reconnect_attempts.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the four traffic counters (reads, writes, bytes_read,
    /// bytes_written).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (self.reads(), self.writes(), self.bytes_read(), self.bytes_written())
    }
}

/// Connection-level counters for a long-running serve front door
/// (DESIGN.md §15). Connection handlers record into a local instance and
/// merge once when the connection ends — the same per-worker discipline as
/// [`IoStats`] — so the daemon-wide totals sum exactly without contending
/// on every frame.
#[derive(Debug, Default)]
pub struct ServeStats {
    accepted: AtomicU64,
    shed: AtomicU64,
    killed_malformed: AtomicU64,
    timed_out: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

impl ServeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one connection admitted past the client limit check.
    #[inline]
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection shed with a `Busy` reply at admission.
    #[inline]
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection killed for a malformed or protocol-violating
    /// frame.
    #[inline]
    pub fn record_killed_malformed(&self) {
        self.killed_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection dropped for missing a read or write deadline.
    #[inline]
    pub fn record_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` frames decoded from clients.
    #[inline]
    pub fn record_frames_in(&self, n: u64) {
        self.frames_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` frames written to clients.
    #[inline]
    pub fn record_frames_out(&self, n: u64) {
        self.frames_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Connections admitted.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections shed with `Busy`.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Connections killed for malformed frames.
    pub fn killed_malformed(&self) -> u64 {
        self.killed_malformed.load(Ordering::Relaxed)
    }

    /// Connections dropped on a missed deadline.
    pub fn timed_out(&self) -> u64 {
        self.timed_out.load(Ordering::Relaxed)
    }

    /// Frames received.
    pub fn frames_in(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed)
    }

    /// Frames sent.
    pub fn frames_out(&self) -> u64 {
        self.frames_out.load(Ordering::Relaxed)
    }

    /// Fold another counter set into this one, one atomic add each —
    /// exact-sum merge under concurrency.
    pub fn merge_from(&self, other: &ServeStats) {
        self.accepted.fetch_add(other.accepted(), Ordering::Relaxed);
        self.shed.fetch_add(other.shed(), Ordering::Relaxed);
        self.killed_malformed.fetch_add(other.killed_malformed(), Ordering::Relaxed);
        self.timed_out.fetch_add(other.timed_out(), Ordering::Relaxed);
        self.frames_in.fetch_add(other.frames_in(), Ordering::Relaxed);
        self.frames_out.fetch_add(other.frames_out(), Ordering::Relaxed);
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.accepted.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.killed_malformed.store(0, Ordering::Relaxed);
        self.timed_out.store(0, Ordering::Relaxed);
        self.frames_in.store(0, Ordering::Relaxed);
        self.frames_out.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accepted={} shed={} killed_malformed={} timed_out={} frames_in={} frames_out={}",
            self.accepted(),
            self.shed(),
            self.killed_malformed(),
            self.timed_out(),
            self.frames_in(),
            self.frames_out()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(100);
        s.record_read(50);
        s.record_write(16_384);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.bytes_read(), 150);
        assert_eq!(s.bytes_written(), 16_384);
        assert_eq!(s.total_ops(), 3);
    }

    #[test]
    fn hybrid_counters_accumulate_merge_and_reset() {
        let s = IoStats::new();
        s.record_promotion();
        s.record_promotion();
        assert_eq!(s.sparse_promotions(), 2);
        let t = IoStats::new();
        t.merge_from(&s);
        assert_eq!(t.sparse_promotions(), 2);
        t.reset();
        assert_eq!(t.sparse_promotions(), 0);
    }

    #[test]
    fn recovery_counters_accumulate_merge_and_reset() {
        let s = IoStats::new();
        s.record_checkpoint();
        s.record_checkpoint();
        s.record_replay(5);
        s.record_replay(0);
        s.record_reconnect_attempt();
        assert_eq!(s.checkpoints(), 2);
        assert_eq!(s.replays(), 2);
        assert_eq!(s.batches_replayed(), 5);
        assert_eq!(s.reconnect_attempts(), 1);
        let t = IoStats::new();
        t.record_replay(3);
        t.merge_from(&s);
        assert_eq!(t.checkpoints(), 2);
        assert_eq!(t.replays(), 3);
        assert_eq!(t.batches_replayed(), 8);
        assert_eq!(t.reconnect_attempts(), 1);
        t.reset();
        assert_eq!(
            (t.checkpoints(), t.replays(), t.batches_replayed(), t.reconnect_attempts()),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_write(1);
        s.reset();
        assert_eq!(s.snapshot(), (0, 0, 0, 0));
    }

    #[test]
    fn per_worker_merge_sums_exactly() {
        // The parallel-reader discipline: each worker records into a local
        // IoStats and merges once; concurrent merges must sum exactly.
        let shared = std::sync::Arc::new(IoStats::new());
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    let local = IoStats::new();
                    for i in 0..500 {
                        local.record_read(w * 1000 + i);
                    }
                    local.record_write(7);
                    shared.merge_from(&local);
                });
            }
        });
        assert_eq!(shared.reads(), 8 * 500);
        assert_eq!(shared.writes(), 8);
        let expected: u64 = (0..8u64).map(|w| (0..500).map(|i| w * 1000 + i).sum::<u64>()).sum();
        assert_eq!(shared.bytes_read(), expected);
        assert_eq!(shared.bytes_written(), 8 * 7);
    }

    #[test]
    fn batch_depth_accumulates_and_resets() {
        let s = IoStats::new();
        assert_eq!(s.mean_depth(), 0.0, "no batches yet");
        s.record_batch(4);
        s.record_batch(8);
        s.record_batch(2);
        s.record_completions(14);
        assert_eq!(s.submissions(), 3);
        assert_eq!(s.completions(), 14);
        assert_eq!(s.max_depth(), 8);
        assert!((s.mean_depth() - 14.0 / 3.0).abs() < 1e-9);
        s.reset();
        assert_eq!(s.submissions(), 0);
        assert_eq!(s.completions(), 0);
        assert_eq!(s.max_depth(), 0);
        assert_eq!(s.mean_depth(), 0.0);
    }

    #[test]
    fn per_worker_batch_merge_sums_exactly() {
        // The batch-depth counters obey the same per-worker merge
        // discipline as reads/writes: every worker records into a local
        // IoStats and merges once, and concurrent merges must sum exactly
        // (max_depth takes the max over workers instead).
        let shared = std::sync::Arc::new(IoStats::new());
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    let local = IoStats::new();
                    for i in 0..100 {
                        local.record_batch(w + 1 + (i % 3));
                        local.record_completions(w + 1 + (i % 3));
                    }
                    shared.merge_from(&local);
                });
            }
        });
        assert_eq!(shared.submissions(), 8 * 100);
        let expected: u64 =
            (0..8u64).map(|w| (0..100u64).map(|i| w + 1 + (i % 3)).sum::<u64>()).sum();
        assert_eq!(shared.completions(), expected);
        // Deepest batch across all workers: w = 7, i % 3 = 2 → 10.
        assert_eq!(shared.max_depth(), 10);
        assert!((shared.mean_depth() - expected as f64 / 800.0).abs() < 1e-9);
    }

    #[test]
    fn serve_counters_accumulate_merge_and_reset() {
        let s = ServeStats::new();
        s.record_accepted();
        s.record_accepted();
        s.record_shed();
        s.record_killed_malformed();
        s.record_timed_out();
        s.record_frames_in(10);
        s.record_frames_out(7);
        assert_eq!((s.accepted(), s.shed(), s.killed_malformed(), s.timed_out()), (2, 1, 1, 1));
        assert_eq!((s.frames_in(), s.frames_out()), (10, 7));
        assert_eq!(
            s.to_string(),
            "accepted=2 shed=1 killed_malformed=1 timed_out=1 frames_in=10 frames_out=7"
        );
        let t = ServeStats::new();
        t.record_shed();
        t.merge_from(&s);
        assert_eq!((t.accepted(), t.shed()), (2, 2));
        assert_eq!((t.frames_in(), t.frames_out()), (10, 7));
        t.reset();
        assert_eq!((t.accepted(), t.shed(), t.killed_malformed(), t.timed_out()), (0, 0, 0, 0));
        assert_eq!((t.frames_in(), t.frames_out()), (0, 0));
    }

    #[test]
    fn serve_per_connection_merge_sums_exactly() {
        // Per-connection ServeStats merged once at connection end must sum
        // exactly under concurrency — the daemon's `--stats` totals are
        // only trustworthy if no frame is lost or double-counted.
        let shared = std::sync::Arc::new(ServeStats::new());
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    let local = ServeStats::new();
                    local.record_accepted();
                    for i in 0..500 {
                        local.record_frames_in(w + i);
                        local.record_frames_out(1);
                    }
                    if w % 2 == 0 {
                        local.record_killed_malformed();
                    } else {
                        local.record_timed_out();
                    }
                    shared.merge_from(&local);
                });
            }
        });
        assert_eq!(shared.accepted(), 8);
        assert_eq!(shared.killed_malformed(), 4);
        assert_eq!(shared.timed_out(), 4);
        let expected: u64 = (0..8u64).map(|w| (0..500u64).map(|i| w + i).sum::<u64>()).sum();
        assert_eq!(shared.frames_in(), expected);
        assert_eq!(shared.frames_out(), 8 * 500);
    }

    #[test]
    fn concurrent_updates_all_counted() {
        let s = std::sync::Arc::new(IoStats::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(1);
                    }
                });
            }
        });
        assert_eq!(s.reads(), 8000);
        assert_eq!(s.bytes_read(), 8000);
    }
}
