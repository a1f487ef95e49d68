//! Counters: the one place a counter set is declared.
//!
//! The paper's hybrid streaming model charges one I/O per block-sized disk
//! access (§2.1). Since this reproduction models "sketches on SSD" with
//! explicit file-backed stores rather than cgroup-forced swap, every
//! block access is counted here ([`IoStats`]), which is what lets the
//! experiment suite verify the I/O-complexity claims (Observation 1 vs
//! Lemma 4) directly. The daemons' connection, link, recovery and ingest
//! counters are declared through the same form, `counter_set!`: a set is
//! a list of named [`Counter`]s, each folding by `Sum` or `Max`, and gets
//! its getters, exact [`CounterSet::merge_from`], [`CounterSet::reset`] and
//! `key=value` `Display` from that list. Recorders that touch more than
//! one counter are ordinary methods on top.
//!
//! The discipline every set is used under: a worker (a query thread, a
//! connection) records into a set of its own and merges it once when it is
//! done, so shared totals sum exactly without contending per event.

use std::sync::atomic::{AtomicU64, Ordering};

/// One relaxed atomic counter: it publishes no other data, so no ordering
/// stronger than `Relaxed` is needed on any access.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water mark to at least `n`.
    #[inline]
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn fold(&self, fold: Fold, other: &Counter) {
        match fold {
            Fold::Sum => self.add(other.get()),
            Fold::Max => self.raise_to(other.get()),
        }
    }
}

/// How a counter folds when one set is merged into another: flows add
/// exactly, a high-water mark takes the maximum over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// `self += other`.
    Sum,
    /// `self = max(self, other)`.
    Max,
}

/// What every set declared through `counter_set!` can do.
pub trait CounterSet: Default {
    /// Every counter with its key and fold rule, in declaration order.
    fn counters(&self) -> Vec<(&'static str, Fold, &Counter)>;

    /// Fold another set into this one, one atomic operation per counter and
    /// nothing else — query workers and connections call it on their way
    /// out.
    fn merge_from(&self, other: &Self);

    /// Reset every counter to zero.
    fn reset(&self) {
        for (_, _, counter) in self.counters() {
            counter.0.store(0, Ordering::Relaxed);
        }
    }

    /// `key=value` pairs separated by single spaces, in declaration order —
    /// the shape `--stats` lines print and scripts parse by key.
    fn fmt_pairs(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (key, _, counter)) in self.counters().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{key}={}", counter.get())?;
        }
        Ok(())
    }
}

/// Declare a counter set: `name { field: Sum | Max, ... }`. Each field is a
/// public [`Counter`] (record with `set.field.add(n)`) and a getter of the
/// same name; the set is a [`CounterSet`] and prints as `key=value` pairs.
macro_rules! counter_set {
    ($(#[$doc:meta])* $name:ident { $($(#[$fdoc:meta])* $field:ident: $fold:ident),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: Counter,)+
        }

        impl $name {
            /// Fresh zeroed counters.
            pub fn new() -> Self {
                Self::default()
            }

            $($(#[$fdoc])* pub fn $field(&self) -> u64 {
                self.$field.get()
            })+
        }

        impl CounterSet for $name {
            fn counters(&self) -> Vec<(&'static str, Fold, &Counter)> {
                vec![$((stringify!($field), Fold::$fold, &self.$field),)+]
            }

            fn merge_from(&self, other: &Self) {
                $(self.$field.fold(Fold::$fold, &other.$field);)+
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.fmt_pairs(f)
            }
        }
    };
}

counter_set! {
    /// Disk I/O counters of a sketch store or gutter tree. Cheap to share
    /// via `Arc`; the disk store's round stream counts into one local
    /// `IoStats` per query worker and merges it once.
    IoStats {
        /// Number of read operations.
        reads: Sum,
        /// Number of write operations.
        writes: Sum,
        /// Total bytes read.
        bytes_read: Sum,
        /// Total bytes written.
        bytes_written: Sum,
    }
}

impl IoStats {
    /// Record a read of `bytes`.
    #[inline]
    pub fn record_read(&self, bytes: u64) {
        self.reads.add(1);
        self.bytes_read.add(bytes);
    }

    /// Record a write of `bytes`.
    #[inline]
    pub fn record_write(&self, bytes: u64) {
        self.writes.add(1);
        self.bytes_written.add(bytes);
    }

    /// Total operations (reads + writes) — the hybrid model's I/O count.
    pub fn total_ops(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Operations in flight per syscall: 1.0 once any I/O has happened,
    /// since every read and write is one positioned syscall of its own, and
    /// 0.0 before. Kept for its one caller, the repository benchmark's
    /// `store.io_mean_depth` row (`benchmark/src/batch.rs:200`), a
    /// benchmark pin.
    pub fn mean_depth(&self) -> f64 {
        if self.total_ops() == 0 {
            0.0
        } else {
            1.0
        }
    }

    /// Snapshot of the four traffic counters (reads, writes, bytes_read,
    /// bytes_written).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (self.reads(), self.writes(), self.bytes_read(), self.bytes_written())
    }
}

counter_set! {
    /// What a recovering shard transport did to keep its workers caught up
    /// (DESIGN.md §14).
    RecoveryStats {
        /// Durable shard checkpoints acknowledged.
        checkpoints: Sum,
        /// Recovery replays performed (one per revived worker).
        replays: Sum,
        /// Batches re-shipped from the replay log across all replays.
        batches_replayed: Sum,
        /// Reconnect/re-spawn attempts toward dead workers.
        reconnect_attempts: Sum,
    }
}

impl RecoveryStats {
    /// Record one replay of `batches` logged batches into a restarted
    /// worker.
    pub fn record_replay(&self, batches: u64) {
        self.replays.add(1);
        self.batches_replayed.add(batches);
    }
}

counter_set! {
    /// Traffic over one framed link, counted where a frame is read or
    /// written. A link owns its set; whoever owns the link folds it into a
    /// wider total when the connection ends.
    LinkStats {
        /// Frames received.
        frames_in: Sum,
        /// Frames sent.
        frames_out: Sum,
        /// Bytes of the frames received, headers included.
        bytes_in: Sum,
        /// Bytes of the frames sent, headers included.
        bytes_out: Sum,
    }
}

counter_set! {
    /// Daemon-wide counters of the `gz serve` front door (DESIGN.md §15):
    /// what became of each connection, and the traffic of all of them.
    ServeStats {
        /// Connections admitted past the client limit check.
        accepted: Sum,
        /// Connections shed with a `Busy` reply at admission.
        shed: Sum,
        /// Connections killed for a malformed or protocol-violating frame.
        killed_malformed: Sum,
        /// Connections dropped for missing a read or write deadline.
        timed_out: Sum,
        /// Frames received.
        frames_in: Sum,
        /// Frames sent.
        frames_out: Sum,
        /// Bytes of the frames received.
        bytes_in: Sum,
        /// Bytes of the frames sent.
        bytes_out: Sum,
    }
}

impl ServeStats {
    /// Fold a finished connection's traffic in.
    pub fn record_link(&self, link: &LinkStats) {
        self.frames_in.add(link.frames_in());
        self.frames_out.add(link.frames_out());
        self.bytes_in.add(link.bytes_in());
        self.bytes_out.add(link.bytes_out());
    }
}

counter_set! {
    /// What a shard worker served over one coordinator connection.
    ShardServeStats {
        /// `Batch` messages received.
        batches: Sum,
        /// Update records inside those batches.
        records: Sum,
        /// `Flush` round trips served.
        flushes: Sum,
        /// `StateDigest`/`GatherRound` round trips served.
        gathers: Sum,
        /// `SealEpoch` round trips served.
        seals: Sum,
        /// Durable checkpoints written (`CheckpointShard` round trips, plus
        /// the one a clean `Shutdown` cuts).
        checkpoints: Sum,
    }
}

counter_set! {
    /// What a shard router moved toward its shards' stores, and what its
    /// flushes cost.
    IngestCounters {
        /// Batches routed; a gutter a flush applies in place counts as the
        /// batch it stands for.
        batches: Sum,
        /// Individual update records inside those batches.
        records: Sum,
        /// Flushes that found records buffered.
        flushes: Sum,
        /// Nanoseconds those flushes took, waiting out the work queue included.
        flush_ns: Sum,
        /// The longest of them.
        flush_ns_max: Max,
    }
}

impl IngestCounters {
    /// Record `batches` batches holding `records` records between them.
    pub fn record_batches(&self, batches: u64, records: u64) {
        self.batches.add(batches);
        self.records.add(records);
    }

    /// Record one flush that began at `started`.
    pub fn record_flush(&self, started: std::time::Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.flushes.add(1);
        self.flush_ns.add(ns);
        self.flush_ns_max.raise_to(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-worker discipline, on any set: `WORKERS` threads record
    /// `ROUNDS` values into a local set each and merge once, concurrently.
    /// Every `Sum` counter must equal the serial sum and every `Max` counter
    /// the maximum, and `reset` must zero them all.
    fn merges_exactly<S: CounterSet + Sync>() {
        const WORKERS: u64 = 8;
        const ROUNDS: u64 = 500;
        // Distinct per (worker, round, field), so a swapped or dropped
        // field cannot cancel out.
        let value = |w: u64, i: u64, field: usize| w * 1000 + i + 7 * field as u64;
        let shared = S::default();
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let shared = &shared;
                scope.spawn(move || {
                    let local = S::default();
                    for i in 0..ROUNDS {
                        for (field, (_, fold, counter)) in local.counters().into_iter().enumerate()
                        {
                            match fold {
                                Fold::Sum => counter.add(value(w, i, field)),
                                Fold::Max => counter.raise_to(value(w, i, field)),
                            }
                        }
                    }
                    shared.merge_from(&local);
                });
            }
        });
        for (field, (key, fold, counter)) in shared.counters().into_iter().enumerate() {
            let all = (0..WORKERS).flat_map(|w| (0..ROUNDS).map(move |i| value(w, i, field)));
            let want = match fold {
                Fold::Sum => all.sum::<u64>(),
                Fold::Max => all.max().unwrap(),
            };
            assert_eq!(counter.get(), want, "{key} ({fold:?})");
        }
        shared.reset();
        assert!(shared.counters().iter().all(|(_, _, c)| c.get() == 0), "reset left a counter");
    }

    /// One test per declared set, so a failure names the set.
    macro_rules! merges_exactly {
        ($($test:ident: $set:ty),+ $(,)?) => {
            $(#[test]
            fn $test() {
                merges_exactly::<$set>();
            })+
        };
    }

    merges_exactly! {
        io_stats_merge_exactly_and_reset: IoStats,
        recovery_stats_merge_exactly_and_reset: RecoveryStats,
        link_stats_merge_exactly_and_reset: LinkStats,
        serve_stats_merge_exactly_and_reset: ServeStats,
        shard_serve_stats_merge_exactly_and_reset: ShardServeStats,
        ingest_counters_merge_exactly_and_reset: IngestCounters,
    }

    #[test]
    fn compound_recorders_touch_the_counters_they_name() {
        let s = IoStats::new();
        assert_eq!(s.mean_depth(), 0.0, "no I/O yet");
        s.record_read(100);
        s.record_read(50);
        s.record_write(16_384);
        assert_eq!(s.snapshot(), (2, 1, 150, 16_384));
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.mean_depth(), 1.0, "one operation per syscall");

        let r = RecoveryStats::new();
        r.record_replay(5);
        r.record_replay(0);
        assert_eq!((r.replays(), r.batches_replayed()), (2, 5));

        let ingest = IngestCounters::new();
        ingest.record_batches(2, 30);
        let started = std::time::Instant::now();
        ingest.record_flush(started);
        ingest.record_flush(started);
        assert_eq!((ingest.batches(), ingest.records(), ingest.flushes()), (2, 30, 2));
        assert!(ingest.flush_ns_max() <= ingest.flush_ns());

        let link = LinkStats::new();
        link.frames_in.add(3);
        link.bytes_out.add(40);
        let serve = ServeStats::new();
        serve.accepted.add(1);
        serve.record_link(&link);
        serve.record_link(&link);
        assert_eq!((serve.frames_in(), serve.frames_out()), (6, 0));
        assert_eq!((serve.bytes_in(), serve.bytes_out()), (0, 80));
    }

    #[test]
    fn a_set_prints_as_key_value_pairs_in_declaration_order() {
        let s = ServeStats::new();
        s.accepted.add(2);
        s.shed.add(1);
        s.frames_in.add(10);
        s.bytes_out.add(99);
        assert_eq!(
            s.to_string(),
            "accepted=2 shed=1 killed_malformed=0 timed_out=0 frames_in=10 frames_out=0 \
             bytes_in=0 bytes_out=99"
        );
    }

    #[test]
    fn concurrent_updates_all_counted() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.record_read(1);
                    }
                });
            }
        });
        assert_eq!((s.reads(), s.bytes_read()), (8000, 8000));
    }
}
