//! Hybrid-model I/O integration tests: the buffering layer must deliver the
//! paper's amortization (Lemma 4) and the unbuffered path must exhibit
//! Observation 1's Ω(1) I/Os per update.

use graph_zeppelin::{
    BufferStrategy, GraphZeppelin, GutterCapacity, GzConfig, ShardConfig, ShardedGraphZeppelin,
    StoreBackend,
};
use gz_stream::{Dataset, StreamifyConfig, UpdateKind};
use gz_testutil::TempDir;

fn scratch(tag: &str) -> TempDir {
    TempDir::new(&format!("gz-hybrid-{tag}"))
}

fn run_stream(config: GzConfig, updates: &[gz_stream::EdgeUpdate]) -> GraphZeppelin {
    let mut gz = GraphZeppelin::new(config).expect("valid config");
    for upd in updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    gz.flush();
    gz
}

#[test]
fn buffering_amortizes_store_io() {
    let dataset = Dataset::kron(7);
    let stream = dataset.stream(3, &StreamifyConfig::default());
    let dir = scratch("amortize");

    let disk = |buffering: BufferStrategy| {
        let mut c = GzConfig::in_ram(dataset.num_vertices);
        c.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 1 << 13,
            cache_groups: 4,
        };
        c.buffering = buffering;
        c
    };

    let unbuffered = run_stream(
        disk(BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(1) }),
        &stream.updates,
    );
    let buffered = run_stream(
        disk(BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(2.0) }),
        &stream.updates,
    );

    let io_unbuffered = unbuffered.store_io().unwrap().total_ops();
    let io_buffered = buffered.store_io().unwrap().total_ops();
    let n = stream.updates.len() as u64;

    // Observation 1: unbuffered ≈ Ω(1) I/Os per update (2 node sketches per
    // update, tight cache).
    assert!(io_unbuffered >= n, "unbuffered: {io_unbuffered} ops for {n} updates (expected ≥ n)");
    // Lemma 4: buffered is amortized far below one op per update.
    assert!((io_buffered as f64) < 0.5 * n as f64, "buffered: {io_buffered} ops for {n} updates");
}

#[test]
fn a_group_emission_faults_its_group_once() {
    // One Graph Worker, a cache of one group, gutters of three records. A
    // visit toggles the six edges among the four nodes of a group, so each
    // of them receives three records. Over a store of four-node groups the
    // leaf gutters count the group's twelve records together and emit its
    // four batches at once: one fault a visit. Over one-node groups each
    // node is its own group and faults once a visit. Consecutive visits are
    // to different groups, so every emission misses the one-group cache.
    let v = 64u64;
    let node_bytes = ShardConfig::in_ram(v, 1).params().node_sketch_resident_bytes();
    let visits = [0u32, 1, 2, 0, 3, 1, 15, 2];
    let edges = || {
        visits.iter().flat_map(|&group| {
            let nodes = 4 * group..4 * group + 4;
            nodes.clone().flat_map(move |a| (a + 1..4 * group + 4).map(move |b| (a, b, false)))
        })
    };
    let mut reference = GraphZeppelin::new(GzConfig::in_ram(v)).unwrap();
    reference.ingest(edges());
    let want = reference.state_digest().unwrap();
    for group_nodes in [4usize, 1] {
        let dir = scratch("group-emission");
        let mut config = GzConfig::in_ram(v);
        config.num_workers = 1;
        config.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: group_nodes * node_bytes,
            cache_groups: 1,
        };
        config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(3) };
        let mut gz = GraphZeppelin::new(config).unwrap();
        assert_eq!(gz.store().group_size() as usize, group_nodes);
        gz.ingest(edges());
        gz.flush();
        let emissions = (visits.len() * 4 / group_nodes) as u64;
        let io = gz.store_io().unwrap();
        let what = format!("{group_nodes}-node groups");
        assert_eq!(gz.ingest_counters().batches(), 4 * visits.len() as u64, "{what}");
        assert_eq!(gz.ingest_counters().flushes(), 0, "{what}: every record left with its group");
        assert_eq!(io.reads(), emissions, "{what}: one fault an emission");
        assert_eq!(io.bytes_read(), emissions * (group_nodes * node_bytes) as u64, "{what}");
        assert_eq!(gz.state_digest().unwrap(), want, "{what}: state");
    }
}

#[test]
fn gutter_tree_writes_are_batched() {
    let dataset = Dataset::kron(7);
    let stream = dataset.stream(4, &StreamifyConfig::default());
    let dir = scratch("tree");
    let mut c = GzConfig::in_ram(dataset.num_vertices);
    c.buffering = BufferStrategy::GutterTree {
        buffer_bytes: 1 << 14,
        fanout: 8,
        leaf_capacity: GutterCapacity::SketchFactor(1.0),
        dir: dir.path().to_path_buf(),
    };
    let gz = run_stream(c, &stream.updates);
    let tree_io = gz.gutter_io().expect("gutter tree counters");
    let n = stream.updates.len() as u64;
    // Each update enters the tree once (two directed records), and the tree
    // moves records in buffer-sized chunks: ops ≪ records.
    assert!(tree_io.total_ops() < n / 2, "tree: {} ops for {n} updates", tree_io.total_ops());
    // And a record is written at most once per internal level: 8 bytes into
    // the last of this depth-2 tree (128 leaves at fan-out 8 would be three
    // levels deep, but a top level of two nodes folds into the root). The
    // flush hands the leaves their records in place, so no record is
    // written to a leaf only to be read back, and no level-1 node fills
    // between flushes here: every record is written exactly once.
    let record_volume = 2 * n * 8;
    assert!(
        tree_io.bytes_written() <= record_volume,
        "tree wrote {} bytes for {record_volume} bytes of records",
        tree_io.bytes_written()
    );
}

#[test]
fn streaming_query_io_bounded_under_constrained_cache() {
    // The low-RAM query path at a pinned cache budget (cache_groups = 2):
    // a streaming query issues at most one group read per (group, round)
    // pair — `num_groups × rounds_used` reads — and moves strictly fewer
    // bytes than the oracle's full-store scan, while returning
    // bit-identical answers.
    let dataset = Dataset::kron(6);
    let stream = dataset.stream(5, &StreamifyConfig::default());
    let dir = scratch("stream-query");
    let mut c = GzConfig::in_ram(dataset.num_vertices);
    c.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 1 << 13, cache_groups: 2 };
    let mut gz = run_stream(c, &stream.updates);
    let io = gz.store_io().unwrap();

    let (reads_before, bytes_before) = (io.reads(), io.bytes_read());
    let streamed = gz.spanning_forest().unwrap();
    let stream_reads = io.reads() - reads_before;
    let stream_bytes = io.bytes_read() - bytes_before;

    let groups = gz.store().num_groups() as u64;
    assert!(groups > 2, "want more groups ({groups}) than the cache budget");
    assert!(
        stream_reads <= groups * streamed.rounds_used as u64,
        "streaming query did {stream_reads} group-reads; \
         bound is {groups} groups × {} rounds",
        streamed.rounds_used
    );

    let bytes_before = io.bytes_read();
    let oracle = gz.spanning_forest_oracle().unwrap();
    let oracle_bytes = io.bytes_read() - bytes_before;
    assert_eq!(oracle.labels, streamed.labels, "query must match the oracle");
    assert_eq!(oracle.forest, streamed.forest, "query must match the oracle");
    assert_eq!(oracle.rounds_used, streamed.rounds_used, "query must match the oracle");
    assert_eq!(oracle.sketch_failures, streamed.sketch_failures, "query must match the oracle");
    assert!(
        stream_bytes < oracle_bytes,
        "streaming read {stream_bytes} bytes, the oracle {oracle_bytes}"
    );
    assert!(
        streamed.peak_sketch_bytes < oracle.peak_sketch_bytes,
        "streaming resident {} must undercut the oracle's {}",
        streamed.peak_sketch_bytes,
        oracle.peak_sketch_bytes
    );
}

#[test]
fn query_scans_disk_store_once_per_snapshot() {
    let dataset = Dataset::kron(6);
    let stream = dataset.stream(5, &StreamifyConfig::default());
    let dir = scratch("query");
    let mut c = GzConfig::in_ram(dataset.num_vertices);
    c.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 1 << 13, cache_groups: 2 };
    let mut gz = run_stream(c, &stream.updates);
    let io = gz.store_io().unwrap();
    let before = io.bytes_read();
    let _ = gz.connected_components().unwrap();
    let after = io.bytes_read();
    // The snapshot reads each node group at most once: bounded by the full
    // store size (plus a cache's worth of slack).
    let store_bytes = gz.sketch_bytes() as u64;
    assert!(
        after - before <= store_bytes + store_bytes / 4,
        "query read {} bytes for a {}-byte store",
        after - before,
        store_bytes
    );
}

/// The disk-query suite on a deliberately cache-starved store (512-byte
/// blocks, two cached groups), so queries stream groups off the file rather
/// than hitting the LRU, on a one-worker pool (the claim loop run by a lone
/// worker) and on two: the oracle's answer and the same sketch state
/// digest — live, and pinned to an epoch while ingestion continues past the
/// seal.
#[test]
fn cache_starved_disk_queries_match_the_oracle_live_and_pinned() {
    let dataset = Dataset::kron(7);
    let stream = dataset.stream(31, &StreamifyConfig::default());
    let updates: Vec<(u32, u32, bool)> =
        stream.updates.iter().map(|u| (u.u, u.v, u.kind == UpdateKind::Delete)).collect();
    let (sealed, tail) = updates.split_at(updates.len() * 3 / 4);
    let disk_config = |dir: &TempDir, workers: usize| {
        let mut config = GzConfig::in_ram(dataset.num_vertices);
        config.store =
            StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 512, cache_groups: 2 };
        config.num_workers = workers;
        config
    };

    let reference_dir = scratch("starved-ref");
    let mut reference = GraphZeppelin::new(disk_config(&reference_dir, 1)).unwrap();
    reference.ingest(sealed.iter().copied());
    let oracle = reference.spanning_forest_oracle().expect("oracle query");
    let reference_state = reference.state_digest().expect("state digest");

    for workers in [1, 2] {
        let dir = scratch("starved");
        let mut gz = GraphZeppelin::new(disk_config(&dir, workers)).unwrap();
        gz.ingest(sealed.iter().copied());
        let live = gz.spanning_forest().expect("streaming query");
        assert_eq!(reference_state, gz.state_digest().unwrap(), "{workers} workers: state");
        assert!(gz.store_io().unwrap().reads() > 0, "groups must have streamed off disk");

        let epoch = gz.begin_epoch().expect("seal");
        gz.ingest(tail.iter().copied());
        gz.flush();
        let pinned = epoch.spanning_forest().expect("epoch query");
        for (what, got) in [("live", live), ("pinned", pinned)] {
            let what = format!("{workers} workers, {what}");
            assert_eq!(oracle.labels, got.labels, "{what}: labels");
            assert_eq!(oracle.forest, got.forest, "{what}: forest");
            assert_eq!(oracle.rounds_used, got.rounds_used, "{what}: rounds");
            assert_eq!(oracle.sketch_failures, got.sketch_failures, "{what}: failures");
        }
    }
}

/// Two graphs with known answers for two systems that share everything but
/// their updates: a 255-edge path over 256 vertices (one component) and a
/// 128-edge perfect matching (128 components).
const PATH_EDGES: std::ops::Range<u32> = 0..255;
const MATCHING_EDGES: std::ops::Range<u32> = 0..128;

#[test]
fn two_systems_with_one_seed_keep_their_own_files_in_one_directory() {
    // Same seed, same directory, same process: each system's sketch file
    // and gutter tree must still be its own, so neither truncates, reads
    // or deletes the other's bytes.
    let dir = scratch("shared-dir");
    let config = || {
        let mut config = GzConfig::on_disk(256, dir.path().to_path_buf());
        config.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 4096,
            cache_groups: 2,
        };
        config
    };
    let mut path = GraphZeppelin::new(config()).unwrap();
    let mut matching = GraphZeppelin::new(config()).unwrap();
    path.ingest(PATH_EDGES.map(|v| (v, v + 1, false)));
    matching.ingest(MATCHING_EDGES.map(|i| (2 * i, 2 * i + 1, false)));
    for (what, gz, truth) in [("path", &mut path, 1), ("matching", &mut matching, 128)] {
        assert_eq!(gz.spanning_forest().unwrap().num_components(), truth, "{what}: live");
        assert_eq!(gz.spanning_forest_oracle().unwrap().num_components(), truth, "{what}: oracle");
    }
}

#[test]
fn two_shard_fleets_with_one_seed_keep_their_own_files_in_one_directory() {
    let dir = scratch("shared-dir-shards");
    let config = || {
        let mut config = ShardConfig::in_ram(256, 3);
        config.store = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 4096,
            cache_groups: 2,
        };
        config
    };
    // Each fleet's state digest reads every node of its own files back
    // and must equal a single-node RAM system's on the same edges.
    let in_ram = |edges: &mut dyn Iterator<Item = (u32, u32, bool)>| {
        let mut single = GraphZeppelin::new(GzConfig::in_ram(256)).unwrap();
        single.ingest(edges);
        single.state_digest().unwrap()
    };
    let path_edges = || PATH_EDGES.map(|v| (v, v + 1, false));
    let matching_edges = || MATCHING_EDGES.map(|i| (2 * i, 2 * i + 1, false));
    let mut path = ShardedGraphZeppelin::in_process(config()).unwrap();
    let mut matching = ShardedGraphZeppelin::in_process(config()).unwrap();
    path.ingest(path_edges()).unwrap();
    matching.ingest(matching_edges()).unwrap();
    let fleets = [
        ("path", &mut path, 1, in_ram(&mut path_edges())),
        ("matching", &mut matching, 128, in_ram(&mut matching_edges())),
    ];
    for (what, gz, truth, digest) in fleets {
        assert_eq!(gz.spanning_forest().unwrap().num_components(), truth, "{what}: live");
        assert_eq!(gz.state_digest().unwrap(), digest, "{what}: state digest");
    }
    path.shutdown().unwrap();
    matching.shutdown().unwrap();
}
