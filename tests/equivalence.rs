//! Equivalence tests: every deployment configuration of GraphZeppelin must
//! produce the *same sketch state* for the same stream — linearity makes the
//! system's answers independent of buffering, store placement, worker count
//! (which is also the width of the pool every flush and query runs on), and
//! (with the sharding subsystem) of how the vertex set is partitioned and
//! which transport carries the batches.

use graph_zeppelin::config::{default_rounds, paper_rounds};
use graph_zeppelin::{
    BoruvkaOutcome, BufferStrategy, GraphDigest, GraphZeppelin, GutterCapacity, GzConfig,
    ShardConfig, ShardedGraphZeppelin, StoreBackend,
};
use gz_stream::{Dataset, StreamifyConfig, UpdateKind};
use gz_testutil::TempDir;

fn ingested(config: GzConfig, updates: &[gz_stream::EdgeUpdate]) -> GraphZeppelin {
    let mut gz = GraphZeppelin::new(config).expect("valid config");
    for upd in updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    gz
}

fn labels_for(config: GzConfig, updates: &[gz_stream::EdgeUpdate]) -> Vec<u32> {
    ingested(config, updates).connected_components().expect("query").labels().to_vec()
}

fn shared_stream() -> (u64, Vec<gz_stream::EdgeUpdate>) {
    let dataset = Dataset::kron(7);
    let stream = dataset.stream(77, &StreamifyConfig::default());
    (dataset.num_vertices, stream.updates)
}

#[test]
fn buffering_strategies_equivalent() {
    let (v, updates) = shared_stream();
    let dir = TempDir::new("gz-equiv-buf");

    let mut leaf = GzConfig::in_ram(v);
    leaf.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(0.5) };

    let mut tiny = GzConfig::in_ram(v);
    tiny.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(3) };

    let mut tree = GzConfig::in_ram(v);
    tree.buffering = BufferStrategy::GutterTree {
        buffer_bytes: 1 << 14,
        fanout: 8,
        leaf_capacity: GutterCapacity::SketchFactor(1.0),
        dir: dir.path().to_path_buf(),
    };

    let a = labels_for(leaf, &updates);
    let b = labels_for(tiny, &updates);
    let c = labels_for(tree, &updates);
    assert_eq!(a, b, "leaf vs tiny-gutter");
    assert_eq!(a, c, "leaf vs gutter-tree");
}

#[test]
fn store_backends_equivalent() {
    let (v, updates) = shared_stream();
    let dir = TempDir::new("gz-equiv-store");

    let ram = GzConfig::in_ram(v);
    let mut disk = GzConfig::in_ram(v);
    disk.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 4096, cache_groups: 4 };

    assert_eq!(labels_for(ram, &updates), labels_for(disk, &updates));
}

/// Ingest `updates` and return the sketch state's digest with the labels.
fn state_and_labels(config: GzConfig, updates: &[gz_stream::EdgeUpdate]) -> (u64, Vec<u32>) {
    let mut gz = ingested(config, updates);
    (digest(&mut gz), gz.connected_components().expect("query").labels().to_vec())
}

/// Flush, then the digest of the whole sketch state.
fn digest(gz: &mut GraphZeppelin) -> u64 {
    gz.state_digest().expect("state digest")
}

/// A disk store of one-node groups cached two deep: with 128 vertices
/// every forced flush evicts, whatever the worker count.
fn starved_disk(v: u64, dir: &TempDir) -> GzConfig {
    let mut config = GzConfig::in_ram(v);
    config.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 4096, cache_groups: 2 };
    config
}

#[test]
fn worker_counts_equivalent() {
    let (v, updates) = shared_stream();
    let mut one = GzConfig::in_ram(v);
    one.num_workers = 1;
    let reference = state_and_labels(one, &updates);
    let mut eight = GzConfig::in_ram(v);
    eight.num_workers = 8;
    assert_eq!(reference, state_and_labels(eight, &updates));

    // Graph Workers overlap on the disk store too (per-group locks under
    // a bookkeeping-only cache lock): same bytes at any width.
    for workers in [1, 2, 4] {
        let dir = TempDir::new("gz-equiv-disk-workers");
        let mut disk = starved_disk(v, &dir);
        disk.num_workers = workers;
        let mut gz = ingested(disk, &updates);
        let state = digest(&mut gz);
        let io = gz.store_io().expect("disk store counts its I/O");
        assert!(io.writes() > 0, "{workers} workers: the starved cache must have evicted");
        assert_eq!(reference.0, state, "{workers} disk workers: state digest");
        let labels = gz.connected_components().expect("query").labels().to_vec();
        assert_eq!(reference.1, labels, "{workers} disk workers: labels");
    }
}

#[test]
fn update_order_irrelevant() {
    // Linearity: any permutation of the same update multiset yields the
    // same sketches, hence the same answers.
    let (v, mut updates) = shared_stream();
    let forward = labels_for(GzConfig::in_ram(v), &updates);
    updates.reverse();
    let backward = labels_for(GzConfig::in_ram(v), &updates);
    assert_eq!(forward, backward);
}

/// Which transport a sharded configuration runs over.
#[derive(Clone, Copy, Debug)]
enum Transport {
    /// Shard pipelines owned by the coordinator (queue pushes).
    InProcess,
    /// Worker threads behind Unix-socket pairs speaking the wire protocol.
    Socket,
}

fn sharded_system(config: ShardConfig, transport: Transport) -> ShardedGraphZeppelin {
    match transport {
        Transport::InProcess => ShardedGraphZeppelin::in_process(config),
        Transport::Socket => ShardedGraphZeppelin::local_socket(config),
    }
    .expect("sharded system")
}

#[test]
fn sharded_configurations_bit_identical_to_unsharded() {
    // Shard counts × transports: the sketch state (its digest) and the
    // connected-components output must be *bit-identical* to the unsharded
    // system on the same stream — the §8 partitioning claim, checked at
    // the byte level rather than up to answer equality.
    let (v, updates) = shared_stream();

    let mut single = GraphZeppelin::new(GzConfig::in_ram(v)).expect("single-node system");
    for upd in &updates {
        single.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    let reference_state = digest(&mut single);
    let reference_labels = single.connected_components().expect("query").labels().to_vec();

    for shards in [1u32, 2, 3, 7] {
        for transport in [Transport::InProcess, Transport::Socket] {
            let mut gz = sharded_system(ShardConfig::in_ram(v, shards), transport);
            for upd in &updates {
                gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete).expect("routed update");
            }
            assert_eq!(
                gz.state_digest().expect("state digest"),
                reference_state,
                "sketch state diverged: {shards} shards over {transport:?}"
            );
            assert_eq!(
                gz.connected_components().expect("query"),
                reference_labels,
                "labels diverged: {shards} shards over {transport:?}"
            );
            gz.shutdown().expect("clean shutdown");
        }
    }
}

#[test]
fn sharded_disk_store_bit_identical_to_unsharded() {
    // The per-shard pipeline's store is pluggable; a disk-backed shard
    // fleet must still reconstruct the exact single-node state.
    let (v, updates) = shared_stream();
    let dir = TempDir::new("gz-equiv-shard-disk");

    let mut single = GraphZeppelin::new(GzConfig::in_ram(v)).expect("single-node system");
    for upd in &updates {
        single.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }

    let mut config = ShardConfig::in_ram(v, 3);
    config.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 4096, cache_groups: 8 };
    let mut sharded = sharded_system(config, Transport::InProcess);
    for upd in &updates {
        sharded.update(upd.u, upd.v, upd.kind == UpdateKind::Delete).expect("routed update");
    }
    assert_eq!(sharded.state_digest().expect("state digest"), digest(&mut single));
}

#[test]
fn state_digest_sees_every_update_and_no_cancelled_pair() {
    // What the digest comparisons above rest on: drop any one update from
    // a stream and the digest changes; add an insert/delete pair of an edge
    // the stream never touches and it does not, single-node or sharded. The
    // stream ends on an isolated edge, whose two endpoints hold the same
    // stack: a digest blind to node ids would miss its loss.
    let n = 24u64;
    let mut updates: Vec<(u32, u32, bool)> =
        (0..30u32).map(|i| (i % 20, (i * 7 + 3) % 20, false)).filter(|(u, v, _)| u != v).collect();
    updates.extend([(4, 11, true), (3, 10, true), (21, 22, false)]);
    let single = |stream: &[(u32, u32, bool)]| {
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).expect("single-node system");
        gz.ingest(stream.iter().copied());
        digest(&mut gz)
    };
    let full = single(&updates);
    for (i, update) in updates.iter().enumerate() {
        let mut dropped = updates.clone();
        dropped.remove(i);
        assert_ne!(single(&dropped), full, "update {i} {update:?} dropped");
    }

    let mut padded = updates.clone();
    padded.insert(5, (20, 23, false));
    padded.push((20, 23, true));
    assert_eq!(single(&padded), full, "a cancelled pair of a fresh edge");
    for transport in [Transport::InProcess, Transport::Socket] {
        let mut sharded = sharded_system(ShardConfig::in_ram(n, 3), transport);
        sharded.ingest(padded.iter().copied()).expect("routed updates");
        assert_eq!(sharded.state_digest().expect("digest"), full, "3 shards over {transport:?}");
        sharded.shutdown().expect("clean shutdown");
    }
}

#[test]
fn the_graph_digest_is_blind_to_the_sketch_geometry() {
    // Columns, rounds and the sketch bits they shape never enter the graph
    // digest: at three and seven columns, the default round budget and the
    // paper's, and every vertex dense or exact-set, it is the stream's —
    // the value `GraphDigest::of_updates` computes with no sketch at all.
    // The family's kernel (AVX-512 where the host has it, the scalar one
    // elsewhere) runs after the flip, so it cannot move it either.
    let (v, updates) = shared_stream();
    let want = GraphDigest::of_updates(
        updates.iter().map(|u| (u.u, u.v, u.kind == UpdateKind::Delete)),
        v,
    );
    assert!(want.estimated_records() > 100.0, "the stream sets a useful share of the bits");
    for (columns, rounds, tau) in [
        (3, default_rounds(v), 0),
        (7, default_rounds(v), 0),
        (3, paper_rounds(v), 64),
        (7, paper_rounds(v), 64),
    ] {
        let mut config = GzConfig::in_ram(v);
        config.num_rounds = Some(rounds);
        (config.num_columns, config.sketch_threshold) = (columns, tau);
        let mut gz = ingested(config, &updates);
        let what = format!("{columns} columns, {rounds} rounds, tau {tau}");
        assert_eq!(gz.graph_digest(), want, "{what}");
    }

    // At V = 2^17 the vector is past 2^32: the family keeps the α-high
    // plane and runs the scalar kernel on every host. A hub of 200 leaves
    // promotes (τ = 64) and replays through it; the leaves stay exact sets.
    let v = 1u64 << 17;
    let hub: Vec<(u32, u32, bool)> =
        (1..=200u32).map(|leaf| (7, leaf * 613, false)).chain([(7, 613, true)]).collect();
    let mut config = GzConfig::in_ram(v);
    config.sketch_threshold = 64;
    let mut gz = GraphZeppelin::new(config).expect("wide system");
    assert_eq!(gz.params().kernel(), gz_sketch::Kernel::Scalar);
    gz.ingest(hub.iter().copied());
    assert_eq!(gz.graph_digest(), GraphDigest::of_updates(hub, v), "the wide family");
    assert_eq!(gz.rep_stats().promoted, 1, "the hub went dense");
}

#[test]
fn the_default_round_budget_answers_as_the_papers_does() {
    // Round `r` hashes under `derive(seed, r)` whatever the round count, so a
    // default stack is the first `default_rounds(V)` rounds of the paper's
    // `paper_rounds(V)`, and a query that finishes inside the smaller budget
    // reads the same bits under either: every field of the outcome, the
    // failure counts and the query's footprint included, is the same.
    let (v, updates) = shared_stream();
    let (paper, default) = (paper_rounds(v), default_rounds(v));
    assert!(default < paper, "V = {v}: {default} vs {paper} rounds");
    let same_outcome = |a: &BoruvkaOutcome, b: &BoruvkaOutcome, what: &str| {
        assert!(a.rounds_used <= default as usize, "{what}: used {} rounds", a.rounds_used);
        assert_eq!(a.labels, b.labels, "{what}: labels");
        assert_eq!(a.forest, b.forest, "{what}: forest");
        assert_eq!(a.rounds_used, b.rounds_used, "{what}: rounds");
        assert_eq!(a.sketch_failures, b.sketch_failures, "{what}: failures");
        assert_eq!(a.sketch_samples, b.sketch_samples, "{what}: samples");
        assert_eq!(a.peak_sketch_bytes, b.peak_sketch_bytes, "{what}: peak bytes");
    };
    // Groups of one node at either round count, so a disk read window holds
    // the same slices whatever the stack depth. And one worker: on disk the
    // workers claim groups as they come free, and how many accumulators a
    // supernode gets depends on which worker claimed which member, so only a
    // one-worker fold has a reproducible peak.
    let store_in = |dir: &TempDir, on_disk: bool| match on_disk {
        true => {
            StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 4096, cache_groups: 2 }
        }
        false => StoreBackend::Ram,
    };
    for (on_disk, tau) in [(false, 0u32), (false, 64), (true, 0), (true, 64)] {
        let [at_paper, at_default] = [Some(paper), None].map(|num_rounds| {
            let dir = TempDir::new("gz-equiv-rounds");
            let mut config = GzConfig::in_ram(v);
            config.num_rounds = num_rounds;
            config.num_workers = 1;
            config.store = store_in(&dir, on_disk);
            config.sketch_threshold = tau;
            ingested(config, &updates).spanning_forest().expect("query")
        });
        same_outcome(&at_paper, &at_default, &format!("single node, disk {on_disk}, tau {tau}"));

        for shards in [1u32, 3] {
            let [at_paper, at_default] = [Some(paper), None].map(|num_rounds| {
                let dir = TempDir::new("gz-equiv-rounds-shards");
                let mut config = ShardConfig::in_ram(v, shards);
                config.num_rounds = num_rounds;
                config.workers_per_shard = 1;
                config.store = store_in(&dir, on_disk);
                config.sketch_threshold = tau;
                let mut gz = sharded_system(config, Transport::InProcess);
                for upd in &updates {
                    gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete).expect("routed update");
                }
                let outcome = gz.spanning_forest().expect("query");
                gz.shutdown().expect("clean shutdown");
                outcome
            });
            let what = format!("{shards} shards, disk {on_disk}, tau {tau}");
            same_outcome(&at_paper, &at_default, &what);
        }
    }
}

#[test]
fn in_place_flush_bit_identical_to_the_queue_route() {
    // A flush applies what the gutters hold where it lies; the reference
    // never lets a flush find anything: one-record gutters send every record
    // down the overflow path, gutter → queue → Graph Worker. Default gutters
    // (nothing overflows on this stream) and 40-record ones (both routes in
    // one run) must leave the same bytes and the same answer, single-node
    // and sharded, whether the shards are in this process (applied in place)
    // or behind sockets (sent as batches). So must a gutter tree three levels
    // deep (fan-out 4: the pool claims level 2), two (fan-out 8: the level
    // of two nodes above 128 leaves folds into the root) and one (fan-out ≥
    // V: the root is partitioned in RAM), as the router lane of every fleet.
    // Over a store of three-node groups the leaf gutters count a group's
    // records together and emit the group whole.
    let (v, updates) = shared_stream();
    let mut queue_only = GzConfig::in_ram(v);
    queue_only.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(1) };
    let mut reference = ingested(queue_only, &updates);
    let want_state = digest(&mut reference);
    // The graph digest is the stream's, whatever the route: the same value
    // as the one computed from the updates alone, on every configuration
    // below.
    let want_graph = GraphDigest::of_updates(
        updates.iter().map(|u| (u.u, u.v, u.kind == UpdateKind::Delete)),
        v,
    );
    assert_eq!(reference.graph_digest(), want_graph, "queue route: graph digest");
    let want = reference.spanning_forest().expect("reference query");
    assert_eq!(reference.ingest_counters().flushes(), 0, "the reference never flushes a record");
    assert_eq!(reference.ingest_counters().records(), 2 * updates.len() as u64);
    let same_answer = |got: graph_zeppelin::BoruvkaOutcome, what: &str| {
        assert_eq!(got.labels, want.labels, "{what}: labels");
        assert_eq!(got.forest, want.forest, "{what}: forest");
        assert_eq!(got.rounds_used, want.rounds_used, "{what}: rounds");
        assert_eq!(got.sketch_failures, want.sketch_failures, "{what}: failures");
    };

    // One-node groups (4 KiB blocks), and groups of three nodes, where a
    // leaf gutter group fills and leaves whole.
    let group_bytes = 3 * ShardConfig::in_ram(v, 1).params().node_sketch_resident_bytes();
    let store_in = |dir: &TempDir, store: Store| {
        let dir = dir.path().to_path_buf();
        match store {
            Store::Ram => StoreBackend::Ram,
            Store::OneNodeGroups => StoreBackend::Disk { dir, block_bytes: 4096, cache_groups: 2 },
            Store::ThreeNodeGroups => {
                StoreBackend::Disk { dir, block_bytes: group_bytes, cache_groups: 2 }
            }
        }
    };
    let fleets = [
        (1u32, Transport::InProcess),
        (3, Transport::InProcess),
        (1, Transport::Socket),
        (3, Transport::Socket),
    ];
    let lane =
        |workers: usize, store: Store, tau: u32, buffering: &dyn Fn(&TempDir) -> BufferStrategy| {
            let dir = TempDir::new("gz-equiv-inplace");
            let mut config = GzConfig::in_ram(v);
            config.num_workers = workers;
            config.store = store_in(&dir, store);
            config.sketch_threshold = tau;
            config.buffering = buffering(&dir);
            let what = format!("{workers} workers, {store:?}, tau {tau}, {:?}", config.buffering);
            let mut gz = ingested(config, &updates);
            assert_eq!(digest(&mut gz), want_state, "single node, {what}: state");
            assert_eq!(gz.graph_digest(), want_graph, "single node, {what}: graph digest");
            let counters = gz.ingest_counters();
            assert_eq!(counters.flushes(), 1, "single node, {what}: one flush found records");
            assert_eq!(counters.records(), 2 * updates.len() as u64, "single node, {what}");
            same_answer(gz.spanning_forest().expect("query"), &format!("single node, {what}"));

            for (shards, transport) in fleets {
                let what = format!("{shards} shards over {transport:?}, {what}");
                let dir = TempDir::new("gz-equiv-inplace-shards");
                let mut config = ShardConfig::in_ram(v, shards);
                config.workers_per_shard = workers;
                config.store = store_in(&dir, store);
                config.sketch_threshold = tau;
                config.buffering = buffering(&dir);
                let mut gz = sharded_system(config, transport);
                for upd in &updates {
                    gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete).expect("routed update");
                }
                assert_eq!(gz.state_digest().expect("digest"), want_state, "{what}: state");
                let graph = gz.graph_digest().expect("graph digest");
                assert_eq!(graph, want_graph, "{what}: graph digest");
                assert_eq!(gz.ingest_counters().records(), 2 * updates.len() as u64, "{what}");
                same_answer(gz.spanning_forest().expect("query"), &what);
                gz.shutdown().expect("clean shutdown");
            }
        };
    let tree = |fanout: usize, dir: &TempDir| BufferStrategy::GutterTree {
        buffer_bytes: 1 << 14,
        fanout,
        leaf_capacity: GutterCapacity::SketchFactor(1.0),
        dir: dir.path().to_path_buf(),
    };
    let leaf = |capacity| BufferStrategy::LeafOnly { capacity };
    let bufferings: [&dyn Fn(&TempDir) -> BufferStrategy; 5] = [
        &|_| leaf(GutterCapacity::SketchFactor(0.5)),
        &|_| leaf(GutterCapacity::Updates(40)),
        &|dir| tree(4, dir),
        &|dir| tree(8, dir),
        &|dir| tree(v as usize, dir),
    ];
    for buffering in bufferings {
        for workers in [1usize, 2, 4] {
            for store in [Store::Ram, Store::OneNodeGroups] {
                lane(workers, store, 0, buffering);
                lane(workers, store, 64, buffering);
            }
        }
    }
    // Three-node groups: every lane's leaf gutters emit whole groups, and
    // even one-record gutters leave a group's last records to the flush.
    let group_bufferings: [&dyn Fn(&TempDir) -> BufferStrategy; 3] =
        [&|_| leaf(GutterCapacity::Updates(1)), &|_| leaf(GutterCapacity::Updates(40)), &|_| {
            leaf(GutterCapacity::SketchFactor(0.5))
        }];
    for buffering in group_bufferings {
        for workers in [1usize, 2, 4] {
            lane(workers, Store::ThreeNodeGroups, 0, buffering);
            lane(workers, Store::ThreeNodeGroups, 64, buffering);
        }
    }
}

/// Where [`in_place_flush_bit_identical_to_the_queue_route`] keeps its
/// sketches.
#[derive(Debug, Clone, Copy)]
enum Store {
    Ram,
    OneNodeGroups,
    ThreeNodeGroups,
}

mod hybrid_representation_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The hybrid fold's own oracle chain: the in-place sparse fold
        /// (what every hybrid query runs) == `synthesize_round` + merge
        /// (each sparse vertex inflated to a slice per round, the path it
        /// replaced) == the τ = 0 dense system — labels, forest,
        /// `rounds_used` and `sketch_failures` — on RAM and disk stores,
        /// pools {1, 4} workers wide, over insert/optional-delete streams
        /// that keep vertices hovering at τ. The lattice lane holds the
        /// in-place fold to the dense answer on every other configuration.
        #[test]
        fn in_place_sparse_fold_matches_synthesis_and_dense(
            n in 4u64..28,
            raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 4..120)
        ) {
            use graph_zeppelin::boruvka::{boruvka_rounds_with_pool, BoruvkaOutcome};
            use graph_zeppelin::{MaterializedSource, NodeSketch};

            let mut updates = Vec::new();
            for (a, b, pair) in raw {
                let (a, b) = ((a as u64 % n) as u32, (b as u64 % n) as u32);
                if a != b {
                    updates.push((a, b, false));
                    updates.extend(pair.then_some((a, b, true)));
                }
            }
            let answer = |o: &BoruvkaOutcome| {
                (o.labels.clone(), o.forest.clone(), o.rounds_used, o.sketch_failures)
            };
            let mut dense = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
            dense.ingest(updates.iter().copied());
            let want = answer(&dense.spanning_forest().unwrap());

            for threads in [1usize, 4] {
                for on_disk in [false, true] {
                    let what = format!("disk={on_disk} threads={threads}");
                    let dir = TempDir::new("gz-equiv-inplace-prop");
                    let mut config = GzConfig::in_ram(n);
                    config.sketch_threshold = 6;
                    config.num_workers = threads;
                    if on_disk {
                        config.store = StoreBackend::Disk {
                            dir: dir.path().to_path_buf(),
                            block_bytes: 512,
                            cache_groups: 2,
                        };
                    }
                    let mut gz = GraphZeppelin::new(config).unwrap();
                    gz.ingest(updates.iter().copied());
                    prop_assert_eq!(&answer(&gz.spanning_forest().unwrap()), &want, "{}", &what);

                    // The replaced path, rebuilt from public parts: every
                    // still-sparse vertex becomes one synthesized slice per
                    // round, and the engine merges slices as it always has.
                    let params = std::sync::Arc::clone(gz.params());
                    let mut stacks = gz.store().snapshot();
                    let mut sparse = 0;
                    gz.store().for_each_sparse(&|_| true, None, &mut |node, set| {
                        sparse += 1;
                        let rounds = (0..params.rounds()).map(|r| set.synthesize_round(node, &params, r));
                        stacks[node as usize] = Some(NodeSketch::from_rounds(&params, rounds));
                    });
                    prop_assert_eq!(sparse, gz.rep_stats().sparse);
                    let mut synthesized = MaterializedSource::new(stacks);
                    let pool = gz_gutters::WorkerPool::new(threads);
                    let oracle =
                        boruvka_rounds_with_pool(&mut synthesized, n, params.rounds(), &pool)
                            .unwrap();
                    prop_assert_eq!(&answer(&oracle), &want, "synthesized {}", &what);
                }
            }
        }
    }
}

/// The pinned tests' fixed stream: 3000 inserts and deletes over 100
/// vertices from a xorshift generator.
fn pinned_stream() -> (u64, Vec<(u32, u32, bool)>) {
    let n = 100u64;
    let mut x = 0x2545_F491u32;
    let mut present = std::collections::HashSet::new();
    let mut stream = Vec::new();
    while stream.len() < 3000 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let (u, v) = (x % n as u32, (x >> 8) % n as u32);
        if u != v {
            let deleted = !present.insert((u.min(v), u.max(v)));
            if deleted {
                present.remove(&(u.min(v), u.max(v)));
            }
            stream.push((u, v, deleted));
        }
    }
    (n, stream)
}

#[test]
fn the_facade_digests_are_pinned_on_a_fixed_stream() {
    // The pinned stream through the facade's three stock shapes: leaf
    // gutters into RAM, a gutter tree into a disk store, and the hybrid
    // store. The graph digest's fingerprint is the value this stream gave
    // before the facade ran on a shard, and the state digest hashes the
    // stacks' resident words: moving either means the facade's bytes
    // moved.
    let (n, stream) = pinned_stream();
    let dir = TempDir::new("gz-equiv-pinned");
    let mut hybrid = GzConfig::in_ram(n);
    hybrid.sketch_threshold = 8;
    for config in [GzConfig::in_ram(n), GzConfig::on_disk(n, dir.path().to_path_buf()), hybrid] {
        let what = format!("{:?} into {:?}", config.buffering, config.store);
        let mut gz = GraphZeppelin::new(config).expect("valid config");
        gz.ingest(stream.iter().copied());
        assert_eq!(
            gz.state_digest().expect("state digest"),
            0xC535_0916_8D2D_A32E,
            "{what}: state digest"
        );
        assert_eq!(gz.graph_digest().fingerprint(), 0x45A7_155B_6EA1_DC8C, "{what}: graph digest");
    }
}

#[test]
fn a_checkpoint_saved_from_the_disk_store_is_pinned() {
    // The disk store keeps its own file layout; a checkpoint holds the
    // resident words whatever the store's layout. The length and xxh64 of
    // the file the pinned stream leaves, saved from the on-disk
    // configuration: its 572-byte header and 100 stacks of 3 120 bytes.
    let (n, stream) = pinned_stream();
    let dir = TempDir::new("gz-equiv-pinned-ckpt");
    let mut gz = GraphZeppelin::new(GzConfig::on_disk(n, dir.path().to_path_buf())).unwrap();
    gz.ingest(stream.iter().copied());
    let path = dir.join("pinned.gzc");
    gz.save_checkpoint(&path).expect("save");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), 572 + 312_000, "checkpoint length");
    assert_eq!(gz_hash::xxh64(&bytes, 0), 0x10F9_4229_A9FF_1171, "checkpoint bytes");
}
