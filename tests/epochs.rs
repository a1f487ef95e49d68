//! Epoch-versioned query tests: the keystone invariant is that a query
//! pinned to epoch E is *bit-identical* to a stop-the-world query issued at
//! the moment E was sealed — labels, forest (with edge order), rounds used,
//! and sketch-failure counts — no matter how much the stream moves while
//! the query runs, which store serves the rounds (RAM or disk), how the
//! vertex set is sharded, or how many threads fold the answer. The
//! satellite half pins reclamation: an epoch's copy-on-write overlay is
//! bounded by the touched set, captures each group at most once, and does
//! not accumulate across seal/query/drop cycles.

use graph_zeppelin::{
    BoruvkaOutcome, GraphZeppelin, GzConfig, ShardConfig, ShardedGraphZeppelin, StoreBackend,
};
use gz_gutters::WorkerPool;
use gz_testutil::TempDir;

fn ingest_single(gz: &mut GraphZeppelin, updates: &[(u32, u32, bool)]) {
    for &(u, v, d) in updates {
        gz.update(u, v, d);
    }
}

fn ingest_sharded(gz: &mut ShardedGraphZeppelin, updates: &[(u32, u32, bool)]) {
    for &(u, v, d) in updates {
        gz.update(u, v, d).expect("routed update");
    }
}

/// The concurrent-ingest stress test: a query thread folds a pinned epoch
/// while the owning thread keeps landing batches — ≥ 10 of them, each
/// force-flushed so the store really does move under the reader — and every
/// fold must still match the answer recorded at the seal.
#[test]
fn epoch_query_is_stable_under_concurrent_ingest() {
    let n = 64u64;
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    for i in 0..n as u32 - 1 {
        if i % 3 != 0 {
            gz.edge_update(i, i + 1);
        }
    }

    let epoch = gz.begin_epoch().expect("seal");
    let reference = gz.spanning_forest().expect("stop-the-world reference");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            // Repeated folds while batches land: each must pin the seal.
            for pass in 0..6 {
                let got = epoch.spanning_forest().expect("epoch query");
                assert_eq!(got.labels, reference.labels, "labels moved (pass {pass})");
                assert_eq!(got.forest, reference.forest, "forest moved (pass {pass})");
                assert_eq!(got.rounds_used, reference.rounds_used, "rounds moved (pass {pass})");
                assert_eq!(
                    got.sketch_failures, reference.sketch_failures,
                    "failures moved (pass {pass})"
                );
            }
        });

        // 12 concurrent batches rewriting much of the graph.
        for batch in 0..12u32 {
            for i in 0..16u32 {
                let u = (batch * 5 + i * 7) % n as u32;
                let v = (batch * 11 + i * 13 + 1) % n as u32;
                if u != v {
                    gz.edge_update(u, v);
                }
            }
            gz.flush();
        }
        handle.join().expect("query thread");
    });

    assert!(epoch.captured_groups() > 0, "concurrent batches must have captured pre-images");
    // The live system answers for the moved stream, not the seal.
    let live = gz.spanning_forest().expect("live query");
    assert_ne!(live.labels, reference.labels, "stream should have moved");
}

/// Same stress against a shard fleet: the `ShardedEpoch` handle folds the
/// in-process shards' stores through its sealed overlays while the
/// coordinator keeps routing batches into them — and the pinned answer
/// still must not move.
#[test]
fn sharded_epoch_query_is_stable_under_concurrent_ingest() {
    let n = 48u64;
    let mut gz =
        ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).expect("sharded system");
    for i in 0..n as u32 - 1 {
        if i % 4 != 0 {
            gz.update(i, i + 1, false).expect("routed update");
        }
    }

    let epoch = gz.begin_epoch().expect("seal");
    let reference = gz.spanning_forest().expect("stop-the-world reference");

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            for pass in 0..4 {
                let got = epoch.spanning_forest().expect("epoch query");
                assert_eq!(got.labels, reference.labels, "labels moved (pass {pass})");
                assert_eq!(got.forest, reference.forest, "forest moved (pass {pass})");
            }
        });

        for batch in 0..10u32 {
            for i in 0..12u32 {
                let u = (batch * 7 + i * 5) % n as u32;
                let v = (batch * 3 + i * 11 + 1) % n as u32;
                if u != v {
                    gz.update(u, v, false).expect("routed update");
                }
            }
            gz.flush().expect("flush");
        }
        handle.join().expect("query thread");
    });

    drop(epoch);
    let live = gz.spanning_forest().expect("live query");
    assert_ne!(live.labels, reference.labels, "stream should have moved");
    gz.shutdown().expect("clean shutdown");
}

/// Reclamation: the overlay starts empty, grows only on first-touch (each
/// group captured at most once per epoch, so re-dirtying the same groups is
/// free), and a fresh epoch after the old one drops starts from zero again
/// — repeated seal/ingest/query/drop cycles hold resident bytes flat
/// instead of accumulating.
#[test]
fn epoch_overlay_is_bounded_and_reclaimed() {
    let n = 32u64;
    let everything: Vec<(u32, u32, bool)> = (0..n as u32 - 1).map(|i| (i, i + 1, false)).collect();

    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    ingest_single(&mut gz, &everything);

    let mut per_cycle = Vec::new();
    for cycle in 0..4 {
        let epoch = gz.begin_epoch().expect("seal");
        assert_eq!(epoch.overlay_resident_bytes(), 0, "fresh epoch holds nothing (cycle {cycle})");
        assert_eq!(epoch.captured_groups(), 0, "fresh epoch pins nothing (cycle {cycle})");
        let reference = gz.spanning_forest().expect("reference");

        // Dirty every node the stream knows about.
        ingest_single(&mut gz, &everything);
        gz.flush();
        let first_touch = epoch.overlay_resident_bytes();
        assert!(first_touch > 0, "post-seal writes must capture (cycle {cycle})");

        // Re-dirtying the same groups must not grow the overlay: capture
        // happens at most once per (epoch, group).
        ingest_single(&mut gz, &everything);
        gz.flush();
        assert_eq!(
            epoch.overlay_resident_bytes(),
            first_touch,
            "re-dirtying captured groups grew the overlay (cycle {cycle})"
        );

        let got = epoch.spanning_forest().expect("epoch query");
        assert_eq!(got.labels, reference.labels, "cycle {cycle}");
        per_cycle.push(first_touch);
        // `epoch` drops here: the captured pre-images are freed.
    }

    // No cross-cycle accumulation: every cycle captured exactly the same
    // amount, because each epoch starts from an empty overlay.
    assert!(per_cycle.windows(2).all(|w| w[0] == w[1]), "resident bytes drifted: {per_cycle:?}");
}

/// With no epoch live (all handles dropped), ingestion must not capture
/// anything — the copy-on-write machinery gets out of the way entirely.
#[test]
fn dropped_epochs_stop_capturing() {
    let n = 16u64;
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    gz.edge_update(0, 1);

    let epoch = gz.begin_epoch().expect("seal");
    let second = gz.begin_epoch().expect("second seal");
    assert!(second.id() > epoch.id(), "epoch ids are monotonic");
    drop(epoch);
    drop(second);

    // Both readers are gone; a later epoch sees a quiet overlay even
    // though the stream keeps moving between its seal and its queries.
    let third = gz.begin_epoch().expect("third seal");
    for i in 0..n as u32 - 1 {
        gz.edge_update(i, i + 1);
    }
    gz.flush();
    assert!(third.captured_groups() > 0, "live epoch still captures");
}

/// The four fields of an outcome that are an answer.
fn assert_same_answer(a: &BoruvkaOutcome, b: &BoruvkaOutcome) {
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.forest, b.forest);
    assert_eq!(a.rounds_used, b.rounds_used);
    assert_eq!(a.sketch_failures, b.sketch_failures);
}

/// `n` inserts at stride `step` around a ring: every vertex is touched.
fn ring(n: u64, step: u32) -> Vec<(u32, u32, bool)> {
    (0..n as u32).map(|v| (v, (v + step) % n as u32, false)).collect()
}

/// An epoch let go before the next seal — what `gz serve`'s staleness cache
/// does — leaves that seal's flush, which applies a batch to every vertex
/// here, cloning no pre-image: the store's capture count stands still, and
/// so it does across live queries. Only a handle somebody else still holds
/// makes a flush capture, and that handle keeps answering with its sealed
/// bits.
#[test]
fn reseal_captures_nothing_unless_a_query_still_holds_the_old_epoch() {
    let n = 32u64;
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");

    ingest_single(&mut gz, &ring(n, 1));
    drop(gz.begin_epoch().expect("first seal"));
    ingest_single(&mut gz, &ring(n, 2));
    drop(gz.begin_epoch().expect("reseal after the first epoch was let go"));
    ingest_single(&mut gz, &ring(n, 4));
    gz.spanning_forest().expect("a live query flushes too");
    assert_eq!(
        gz.store().epoch_captures(),
        0,
        "a flush captured pre-images for an epoch nobody was holding"
    );

    let held = gz.begin_epoch().expect("a query elsewhere pins the sealed state");
    let sealed = held.spanning_forest().expect("sealed answer");
    ingest_single(&mut gz, &ring(n, 3));
    drop(gz.begin_epoch().expect("reseal under the held handle"));
    assert_eq!(held.captured_groups(), n as usize, "the held epoch captured every vertex once");
    assert_eq!(gz.store().epoch_captures(), n, "and nothing else did");
    let again = held.spanning_forest().expect("held epoch still answers");
    assert_same_answer(&again, &sealed);
}

/// The same contract one layer up, over three in-process shards.
#[test]
fn sharded_reseal_captures_nothing_unless_a_query_still_holds_the_old_epoch() {
    let n = 30u64;
    let mut gz =
        ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).expect("sharded system");

    gz.ingest(ring(n, 1)).expect("ingest");
    drop(gz.begin_epoch().expect("first seal"));
    gz.ingest(ring(n, 2)).expect("ingest");
    drop(gz.begin_epoch().expect("reseal after the first epoch was let go"));
    gz.ingest(ring(n, 4)).expect("ingest");
    gz.spanning_forest().expect("a live query flushes too");
    assert_eq!(
        gz.epoch_captures().expect("in-process shards"),
        Some(0),
        "a flush captured pre-images for an epoch nobody was holding"
    );

    let held = gz.begin_epoch().expect("a query elsewhere pins the sealed state");
    let sealed = held.spanning_forest().expect("sealed answer");
    gz.ingest(ring(n, 3)).expect("ingest");
    drop(gz.begin_epoch().expect("reseal under the held handle"));
    assert_eq!(gz.epoch_captures().expect("in-process shards"), Some(n));
    let again = held.spanning_forest().expect("held epoch still answers");
    assert_same_answer(&again, &sealed);
    drop(held);
    gz.shutdown().expect("clean shutdown");
}

/// A flush that applies the gutters in place is still a copy-on-write
/// writer: under a held epoch it captures exactly the vertices it touches —
/// one batch each, none through the work queue — and the epoch keeps
/// answering its sealed cut.
#[test]
fn in_place_flush_under_a_held_epoch_captures_exactly_what_it_touches() {
    let n = 32u64;
    let path = [(3u32, 4u32, false), (4, 5, false), (5, 6, true), (20, 21, false)];
    let touched = 6; // vertices 3, 4, 5, 6, 20, 21

    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("system");
    ingest_single(&mut gz, &ring(n, 1));
    let held = gz.begin_epoch().expect("seal");
    let sealed = held.spanning_forest().expect("sealed answer");
    let (batches, flushes) = (gz.batches_applied(), gz.ingest_counters().flushes());
    ingest_single(&mut gz, &path);
    gz.flush();
    assert_eq!(gz.batches_applied() - batches, touched, "one batch per touched gutter");
    assert_eq!(gz.ingest_counters().flushes() - flushes, 1);
    assert_eq!(gz.store().epoch_captures(), touched);
    assert_eq!(held.captured_groups(), touched as usize);
    assert_same_answer(&held.spanning_forest().expect("held epoch still answers"), &sealed);

    let mut gz = ShardedGraphZeppelin::in_process(ShardConfig::in_ram(n, 3)).expect("sharded");
    gz.ingest(ring(n, 1)).expect("ingest");
    let held = gz.begin_epoch().expect("seal");
    let sealed = held.spanning_forest().expect("sealed answer");
    let shipped = gz.batches_shipped();
    gz.ingest(path).expect("ingest");
    gz.flush().expect("flush");
    assert_eq!(gz.batches_shipped() - shipped, touched, "one batch per touched gutter");
    assert_eq!(gz.epoch_captures().expect("in-process shards"), Some(touched));
    assert_same_answer(&held.spanning_forest().expect("held epoch still answers"), &sealed);
    drop(held);
    gz.shutdown().expect("clean shutdown");
}

/// Runs `body` on a thread of its own and fails if it has not finished
/// within two minutes, so a dispatch that deadlocks fails the test instead
/// of hanging the suite. A panic in `body` is re-raised here.
fn within_deadline(what: &str, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        done.send(()).ok();
    });
    match finished.recv_timeout(std::time::Duration::from_secs(120)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what}: still running"),
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Fold ten times on a scoped thread through `fold` while `step` lands
/// sixteen updates touching vertices 0..32, two at a time, on this one;
/// every fold must answer `sealed`.
fn fold_during_churn(
    fold: impl Fn() -> BoruvkaOutcome + Sync,
    sealed: &BoruvkaOutcome,
    mut step: impl FnMut(&[(u32, u32, bool)]),
) {
    let churn: Vec<(u32, u32, bool)> = (0..16u32).map(|i| (i, i + 16, false)).collect();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let folds = scope.spawn(|| {
            start.wait();
            for _ in 0..10 {
                assert_same_answer(&fold(), sealed);
            }
        });
        start.wait();
        for pair in churn.chunks(2) {
            step(pair);
        }
        folds.join().expect("fold thread");
    });
}

/// One pool per system, shared by everything stop-the-world: a scoped
/// thread folds a sealed epoch on the owner's pool while the owner ingests
/// and flushes in place on that same pool, for pools {1, 2, 4} workers
/// wide, single-node and over three in-process shards. Every fold answers
/// the oracle at the seal, the copy-on-write count is exactly the 32
/// vertices touched since, and nothing deadlocks.
#[test]
fn epoch_folds_and_in_place_flushes_share_the_system_pool() {
    let n = 48u64;
    for workers in [1usize, 2, 4] {
        within_deadline(&format!("single node, {workers} workers"), move || {
            let mut config = GzConfig::in_ram(n);
            config.num_workers = workers;
            let mut gz = GraphZeppelin::new(config).expect("system");
            ingest_single(&mut gz, &ring(n, 1));
            let epoch = gz.begin_epoch().expect("seal");
            let sealed = gz.spanning_forest_oracle().expect("oracle at the seal");
            fold_during_churn(
                || epoch.spanning_forest().expect("fold"),
                &sealed,
                |pair| {
                    ingest_single(&mut gz, pair);
                    gz.flush();
                },
            );
            assert_eq!(gz.store().epoch_captures(), 32);
        });
        within_deadline(&format!("3 shards, {workers} workers"), move || {
            let mut config = ShardConfig::in_ram(n, 3);
            config.workers_per_shard = workers;
            let mut gz = ShardedGraphZeppelin::in_process(config).expect("sharded system");
            gz.ingest(ring(n, 1)).expect("ingest");
            let epoch = gz.begin_epoch().expect("seal");
            let sealed = gz.spanning_forest_oracle().expect("oracle at the seal");
            fold_during_churn(
                || epoch.spanning_forest().expect("fold"),
                &sealed,
                |pair| {
                    gz.ingest(pair.iter().copied()).expect("ingest");
                    gz.flush().expect("flush");
                },
            );
            assert_eq!(gz.epoch_captures().expect("in-process shards"), Some(32));
            drop(epoch);
            gz.shutdown().expect("clean shutdown");
        });
    }
}

mod epoch_equivalence_proptests {
    use super::*;
    use proptest::prelude::*;

    fn toggles(n: u64, raw: Vec<(u32, u32)>) -> Vec<(u32, u32, bool)> {
        raw.into_iter()
            .map(|(a, b)| ((a as u64 % n) as u32, (b as u64 % n) as u32))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a, b, false))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// The keystone: on arbitrary toggle streams split at an arbitrary
        /// point, "query at epoch E" equals "stop-the-world query right
        /// after E's flush" bit for bit — labels, forest, rounds used,
        /// sketch failures — across Ram/Disk stores × shard counts {1, 3}
        /// × both shard query routes (in-place fold, gather fold) × τ ∈
        /// {0, 64} × epoch folds on pools {1, 4} workers wide, with the
        /// suffix of the stream ingested between the seal and the epoch
        /// queries; fleets' own pools cycle through {1, 2, 4} workers.
        #[test]
        fn epoch_query_equals_stop_the_world_at_seal(
            n in 4u64..24,
            raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..100),
            split in 0usize..100
        ) {
            let updates = toggles(n, raw);
            let cut = split.min(updates.len());
            let (prefix, suffix) = updates.split_at(cut);
            let pools = [1usize, 4].map(|threads| (threads, WorkerPool::new(threads)));

            // RAM store.
            let mut ram = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
            ingest_single(&mut ram, prefix);
            let epoch = ram.begin_epoch().unwrap();
            let reference = ram.spanning_forest().unwrap();
            ingest_single(&mut ram, suffix);
            ram.flush();
            for (threads, pool) in &pools {
                let got = epoch.spanning_forest_with_pool(pool).unwrap();
                prop_assert_eq!(&reference.labels, &got.labels, "ram labels t={}", threads);
                prop_assert_eq!(&reference.forest, &got.forest, "ram forest t={}", threads);
                prop_assert_eq!(reference.rounds_used, got.rounds_used, "ram rounds t={}", threads);
                prop_assert_eq!(
                    reference.sketch_failures, got.sketch_failures,
                    "ram failures t={}", threads
                );
            }
            drop(epoch);

            // Disk store under a tight cache: captures ride the clean→dirty
            // transition and epoch reads prefer the overlay.
            let dir = TempDir::new("gz-epoch-prop");
            let mut disk_cfg = GzConfig::in_ram(n);
            disk_cfg.store = StoreBackend::Disk {
                dir: dir.path().to_path_buf(),
                block_bytes: 512,
                cache_groups: 2,
            };
            let mut disk = GraphZeppelin::new(disk_cfg).unwrap();
            ingest_single(&mut disk, prefix);
            let epoch = disk.begin_epoch().unwrap();
            let disk_reference = disk.spanning_forest().unwrap();
            prop_assert_eq!(&reference.labels, &disk_reference.labels, "disk seal-time labels");
            ingest_single(&mut disk, suffix);
            disk.flush();
            for (threads, pool) in &pools {
                let got = epoch.spanning_forest_with_pool(pool).unwrap();
                prop_assert_eq!(&reference.labels, &got.labels, "disk labels t={}", threads);
                prop_assert_eq!(&reference.forest, &got.forest, "disk forest t={}", threads);
                prop_assert_eq!(
                    reference.rounds_used, got.rounds_used,
                    "disk rounds t={}", threads
                );
                prop_assert_eq!(
                    reference.sketch_failures, got.sketch_failures,
                    "disk failures t={}", threads
                );
            }
            drop(epoch);

            // Shard fleets, on both query routes: in-process shards fold
            // each round in place from their own stores, `local_socket`
            // shards ship serialized round slices the coordinator validates
            // and deserializes. Same sealed values, so the same bits — both
            // against the single-node reference, hence against each other —
            // across Ram/Disk shard stores × τ ∈ {0, 64} (τ = 64 keeps every
            // vertex an exact set here), with the epoch pinned while the
            // suffix is ingested, and live once it is in.
            type Maker = fn(ShardConfig) -> Result<ShardedGraphZeppelin, graph_zeppelin::GzError>;
            let routes: [(&str, Maker); 2] = [
                ("in-place", ShardedGraphZeppelin::in_process),
                ("gather", ShardedGraphZeppelin::local_socket),
            ];
            let mut live_reference = None;
            let mut widths = [1usize, 2, 4].into_iter().cycle();
            for shards in [1u32, 3] {
                for (on_disk, tau) in [(false, 0u32), (false, 64), (true, 0), (true, 64)] {
                    for (route, make) in routes {
                        let dir = TempDir::new("gz-epoch-prop-shards");
                        let mut config = ShardConfig::in_ram(n, shards);
                        config.sketch_threshold = tau;
                        config.workers_per_shard = widths.next().unwrap();
                        if on_disk {
                            config.store = StoreBackend::Disk {
                                dir: dir.path().to_path_buf(),
                                block_bytes: 512,
                                cache_groups: 2,
                            };
                        }
                        let mut gz = make(config).unwrap();
                        let what = format!("{route} {shards} shards disk={on_disk} tau={tau}");
                        ingest_sharded(&mut gz, prefix);
                        let epoch = gz.begin_epoch().unwrap();
                        ingest_sharded(&mut gz, suffix);
                        gz.flush().unwrap();
                        for (threads, pool) in &pools {
                            let got = epoch.spanning_forest_with_pool(pool).unwrap();
                            prop_assert_eq!(
                                &reference.labels, &got.labels, "labels {} t={}", what, threads
                            );
                            prop_assert_eq!(
                                &reference.forest, &got.forest, "forest {} t={}", what, threads
                            );
                            prop_assert_eq!(
                                reference.rounds_used, got.rounds_used,
                                "rounds {} t={}", what, threads
                            );
                            prop_assert_eq!(
                                reference.sketch_failures, got.sketch_failures,
                                "failures {} t={}", what, threads
                            );
                        }
                        drop(epoch);
                        let got = gz.spanning_forest().unwrap();
                        let want = live_reference.get_or_insert_with(|| got.clone());
                        prop_assert_eq!(&want.labels, &got.labels, "live labels {}", what);
                        prop_assert_eq!(&want.forest, &got.forest, "live forest {}", what);
                        prop_assert_eq!(want.rounds_used, got.rounds_used, "live rounds {}", what);
                        prop_assert_eq!(
                            want.sketch_failures, got.sketch_failures, "live failures {}", what
                        );
                        gz.shutdown().unwrap();
                    }
                }
            }
        }
    }
}
