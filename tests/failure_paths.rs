//! Failure-path integration tests: the system must degrade *detectably*,
//! never silently.

use graph_zeppelin::boruvka::boruvka_spanning_forest;
use graph_zeppelin::node_sketch::{update_index, SketchParams};
use graph_zeppelin::{
    GraphZeppelin, GzConfig, GzError, ShardConfig, ShardTransport, ShardedGraphZeppelin,
    SocketTransport, Stream,
};
use gz_stream::wire::WireMessage;

#[test]
fn exhausted_round_budget_reports_algorithm_failure() {
    // One Boruvka round cannot resolve a long path; the API must surface
    // the paper's `algorithm_fails` outcome as a typed error.
    let mut config = GzConfig::in_ram(64);
    config.num_rounds = Some(1);
    let mut gz = GraphZeppelin::new(config).unwrap();
    for i in 0..63u32 {
        gz.edge_update(i, i + 1);
    }
    match gz.connected_components() {
        Err(GzError::AlgorithmFailure { rounds_used, unresolved }) => {
            assert_eq!(rounds_used, 1);
            assert!(unresolved > 0);
        }
        other => panic!("expected AlgorithmFailure, got {other:?}"),
    }
}

#[test]
fn error_messages_are_informative() {
    let err = GzError::AlgorithmFailure { rounds_used: 3, unresolved: 7 };
    let msg = err.to_string();
    assert!(msg.contains('3') && msg.contains('7'));
}

#[test]
fn corrupted_sketches_fail_loudly_not_silently() {
    // Simulate memory corruption: build per-vertex sketches, overwrite one
    // vertex's sketch with a *different vertex's* sketch (so bucket
    // checksums remain internally valid but the graph they describe is
    // inconsistent), and check Boruvka either fails or returns a partition
    // — never panics or loops forever.
    let num_nodes = 16u64;
    let params = SketchParams::new(num_nodes, 8, 7, 44);
    let mut sketches: Vec<Option<_>> =
        (0..num_nodes).map(|_| Some(params.new_node_sketch())).collect();
    // Path graph 0-1-...-15.
    for i in 0..15u32 {
        let idx = update_index(i, i + 1, num_nodes);
        sketches[i as usize].as_mut().unwrap().update_signed(idx, 1);
        sketches[i as usize + 1].as_mut().unwrap().update_signed(idx, 1);
    }
    // Corrupt: vertex 3's sketch replaced by a copy of vertex 12's.
    let stolen = sketches[12].clone();
    sketches[3] = stolen;

    match boruvka_spanning_forest(sketches, num_nodes, 8) {
        Ok(outcome) => {
            // If it "succeeds", the answer is some partition of the right
            // size — the failure mode is a wrong answer (probability-bounded
            // in normal operation), not UB.
            assert_eq!(outcome.labels.len(), num_nodes as usize);
        }
        Err(GzError::AlgorithmFailure { .. }) => {}
        Err(other) => panic!("unexpected error kind: {other}"),
    }
}

/// Bad configs are refused at construction, on both facades — among them
/// round and column counts a checkpoint header may not carry, so a system
/// never builds state its own restore would refuse; the bound is named.
#[test]
fn invalid_configs_rejected_up_front() {
    assert!(matches!(GraphZeppelin::new(GzConfig::in_ram(0)), Err(GzError::InvalidConfig(_))));
    let mut c = GzConfig::in_ram(64);
    c.num_workers = 0;
    assert!(matches!(GraphZeppelin::new(c), Err(GzError::InvalidConfig(_))));
    for (rounds, columns, bound) in [
        (Some(0), 3, "rounds 0 outside [1, 4096]"),
        (Some(4097), 3, "rounds 4097 outside [1, 4096]"),
        (None, 0, "columns 0 outside [1, 1048576]"),
        (None, (1 << 20) + 1, "columns 1048577 outside [1, 1048576]"),
    ] {
        let mut single = GzConfig::in_ram(64);
        (single.num_rounds, single.num_columns) = (rounds, columns);
        let mut sharded = ShardConfig::in_ram(64, 2);
        (sharded.num_rounds, sharded.num_columns) = (rounds, columns);
        for refused in
            [GraphZeppelin::new(single).err(), ShardedGraphZeppelin::in_process(sharded).err()]
        {
            match refused {
                Some(GzError::InvalidConfig(msg)) => assert_eq!(msg, bound),
                other => panic!("{bound}: expected a refused config, got {other:?}"),
            }
        }
    }
}

#[test]
fn disk_store_with_unwritable_dir_errors() {
    let mut c = GzConfig::in_ram(32);
    c.store = graph_zeppelin::StoreBackend::Disk {
        dir: std::path::PathBuf::from("/nonexistent_gz_dir_for_tests"),
        block_bytes: 4096,
        cache_groups: 2,
    };
    assert!(matches!(GraphZeppelin::new(c), Err(GzError::Io(_))));
}

/// Truncates the backing file of the disk store in `dir` to nothing.
fn truncator(dir: &std::path::Path) -> impl Fn() -> std::io::Result<()> {
    let sketch_file = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.file_name().unwrap().to_str().unwrap().starts_with("gz_sketches_"))
        .expect("the disk store's backing file");
    move || std::fs::OpenOptions::new().write(true).open(&sketch_file)?.set_len(0)
}

#[test]
fn a_failing_sketch_file_is_an_error_not_a_hang() {
    // Truncate the backing file behind a small-cache on-disk system. Done
    // before ingestion, group faults past the new end of file fail inside
    // the Graph Workers: the batches they were applying are lost, so the
    // query must say so — an `Err`, promptly — where it used to wait
    // forever on workers that had died holding their batches. Done after
    // ingestion and a query, it is the next query's own round reads that
    // fail, and every worker of the system's pool (one, or two sharing the
    // claim loop) must stop.
    for workers in [1, 2] {
        for truncate_after_ingest in [false, true] {
            let lane = format!("{workers} workers, after ingest {truncate_after_ingest}");
            let dir = gz_testutil::TempDir::new("gz-failure-truncated");
            let n = 64u32;
            let mut config = GzConfig::in_ram(n as u64);
            config.num_workers = workers;
            config.store = graph_zeppelin::StoreBackend::Disk {
                dir: dir.path().to_path_buf(),
                block_bytes: 512,
                cache_groups: 2,
            };
            let mut gz = GraphZeppelin::new(config).unwrap();
            let truncate = truncator(dir.path());

            let (answer, answered) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                if !truncate_after_ingest {
                    truncate().unwrap();
                }
                for i in 0..n - 1 {
                    gz.edge_update(i, i + 1);
                }
                if truncate_after_ingest {
                    // A first query leaves nothing dirty in the cache, so
                    // the next one only reads.
                    assert_eq!(gz.connected_components().unwrap().num_components(), 1);
                    truncate().unwrap();
                }
                answer.send(gz.connected_components().map(|cc| cc.num_components())).ok();
            });
            match answered.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(Err(GzError::Io(e))) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{lane}: {e}");
                }
                Ok(other) => panic!("{lane}: expected an I/O error, got {other:?}"),
                Err(_) => panic!("{lane}: the query hung on a failed read"),
            }
        }
    }
}

#[test]
fn a_failing_sketch_file_fails_a_restore_with_its_error() {
    // A restore writes every stack into the target's store, faulting its
    // groups in from the file: past the end of a truncated one, the read's
    // error is the restore's, typed, where the store used to panic.
    let dir = gz_testutil::TempDir::new("gz-failure-restore");
    let n = 64u32;
    let mut source = GraphZeppelin::new(GzConfig::in_ram(n as u64)).unwrap();
    source.ingest((0..n - 1).map(|i| (i, i + 1, false)));
    let checkpoint = dir.join("source.gzc");
    source.save_checkpoint(&checkpoint).unwrap();

    let mut config = ShardConfig::in_ram(n as u64, 1);
    let store_dir = dir.path().to_path_buf();
    config.store =
        graph_zeppelin::StoreBackend::Disk { dir: store_dir, block_bytes: 512, cache_groups: 2 };
    let mut target = ShardedGraphZeppelin::in_process(config).unwrap();
    truncator(dir.path())().unwrap();
    match target.resume_shards_from(&[checkpoint], None) {
        Err(GzError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        other => panic!("expected an I/O error, got {other:?}"),
    }
}

#[test]
fn zero_budget_boruvka_fails_cleanly() {
    let params = SketchParams::new(8, 4, 7, 1);
    let mut sketches: Vec<Option<_>> = (0..8).map(|_| Some(params.new_node_sketch())).collect();
    let idx = update_index(0, 1, 8);
    sketches[0].as_mut().unwrap().update_signed(idx, 1);
    sketches[1].as_mut().unwrap().update_signed(idx, 1);
    assert!(matches!(
        boruvka_spanning_forest(sketches, 8, 0),
        Err(GzError::AlgorithmFailure { rounds_used: 0, .. })
    ));
}

#[test]
fn a_shard_answering_out_of_turn_is_a_named_protocol_error() {
    // A worker that acks the handshake, then answers every request with
    // the wrong frame: the coordinator must say which shard answered what
    // with what (round numbers included), not hang or fold garbage.
    let (ours, mut theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let worker = std::thread::spawn(move || {
        for reply in [
            WireMessage::HelloAck { params_digest: 7, group_nodes: 1 },
            WireMessage::EpochReleased,
            WireMessage::RoundSketches { round: 3, entries: vec![] },
        ] {
            WireMessage::read_from(&mut theirs).unwrap();
            reply.write_to(&mut theirs).unwrap();
        }
    });
    let mut transport = SocketTransport::handshake(vec![Stream::Unix(ours)], 7).unwrap();
    let message = |result: Result<(), GzError>| match result {
        Err(GzError::Protocol(msg)) => msg,
        other => panic!("expected a protocol error, got {other:?}"),
    };
    assert_eq!(message(transport.flush()), "shard 0 answered Flush with EpochReleased");
    assert_eq!(
        message(transport.gather_round(2, None).map(drop)),
        "shard 0 answered GatherRound(2) with RoundSketches(3)"
    );
    worker.join().unwrap();
}
