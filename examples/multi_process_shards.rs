//! Multi-process sharded ingestion: the paper's §8 cluster outlook as a
//! runnable demo.
//!
//! The example re-executes itself as shard-worker OS processes (so it is
//! self-contained under `cargo run --example`): each worker binds an
//! ephemeral TCP port, announces it on stdout, builds its shard pipeline,
//! and serves the wire-protocol event loop. The parent process plays the
//! coordinator — routing a Kronecker stream through the batching
//! [`ShardRouter`]-backed system over [`SocketTransport`] — then verifies
//! that the distributed sketch state (its 8-byte state digest, XORed from
//! one `StateDigestReply` a worker), the fleet's graph digest and the
//! connected-components answer are **bit-identical** to a single-node
//! [`GraphZeppelin`] fed the same stream.
//!
//! ```sh
//! cargo run --release -p gz_bench --example multi_process_shards
//! ```
//!
//! The same topology can be assembled by hand with the CLI:
//!
//! ```sh
//! gz shard-worker --listen 127.0.0.1:7001 --nodes 256 --shards 2 --index 0 &
//! gz shard-worker --listen 127.0.0.1:7002 --nodes 256 --shards 2 --index 1 &
//! gz components stream.gzs --shards 2 --connect 127.0.0.1:7001,127.0.0.1:7002
//! ```

use graph_zeppelin::{
    serve_shard_connection, GraphZeppelin, GzConfig, Link, ShardConfig, ShardPipeline,
    ShardedGraphZeppelin, SocketTransport, Stream, TransportTimeouts,
};
use gz_stream::{Dataset, StreamifyConfig, UpdateKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};

const KRON_SCALE: u32 = 7;
const NUM_NODES: u64 = 1 << KRON_SCALE;
const NUM_SHARDS: u32 = 3;
const SEED: u64 = 0xC0FFEE;

fn shard_config() -> ShardConfig {
    let mut config = ShardConfig::in_ram(NUM_NODES, NUM_SHARDS);
    config.seed = SEED;
    config
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 3 && args[1] == "shard-worker" {
        run_worker(args[2].parse().expect("shard index"));
    } else {
        run_coordinator();
    }
}

/// Child role: serve one shard over TCP until the coordinator shuts us down.
fn run_worker(index: u32) {
    let config = shard_config();
    let pipeline = ShardPipeline::new(&config, index).expect("shard pipeline");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().expect("local addr").port();
    // The parent parses this line to learn our ephemeral port.
    println!("PORT {port}");
    std::io::stdout().flush().expect("flush");

    let (stream, _) = listener.accept().expect("accept");
    let stream = Stream::tcp(stream, &TransportTimeouts::default()).expect("nodelay");
    let mut link = Link::new(stream);
    let stats =
        serve_shard_connection(&mut link, &pipeline, config.params_digest()).expect("serve shard");
    println!(
        "DONE shard {index}: {} batches / {} records applied, {} flushes, {} gathers \
         (digests and query rounds)",
        stats.batches(),
        stats.records(),
        stats.flushes(),
        stats.gathers()
    );
}

/// Parent role: spawn the workers, ingest, query, verify bit-identity.
fn run_coordinator() {
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for index in 0..NUM_SHARDS {
        let mut child = Command::new(&exe)
            .arg("shard-worker")
            .arg(index.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn shard worker");
        let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read port line");
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("bad port announcement: {line:?}"));
        addrs.push(format!("127.0.0.1:{port}"));
        children.push((child, reader));
    }
    println!("spawned {NUM_SHARDS} shard-worker processes at {addrs:?}");

    // One stream, two systems.
    let dataset = Dataset::kron(KRON_SCALE);
    let stream = dataset.stream(SEED, &StreamifyConfig::default());
    println!("streaming {} ({} updates)", dataset.name, stream.updates.len());

    let config = shard_config();
    let transport = SocketTransport::connect_tcp(&addrs, config.params_digest())
        .expect("connect to shard workers");
    let mut sharded =
        ShardedGraphZeppelin::with_transport(config, Box::new(transport)).expect("coordinator");

    let mut single_config = GzConfig::in_ram(NUM_NODES);
    single_config.seed = SEED;
    let mut single = GraphZeppelin::new(single_config).expect("single-node system");

    for upd in &stream.updates {
        let is_delete = upd.kind == UpdateKind::Delete;
        sharded.update(upd.u, upd.v, is_delete).expect("sharded update");
        single.update(upd.u, upd.v, is_delete);
    }

    // The §8 claim, checked at the bit level: the workers' state digests
    // XOR to the single-node system's, so every node's sketch stack is the
    // one the single-node system holds.
    let digest = sharded.state_digest().expect("sharded state digest");
    let reference = single.state_digest().expect("single-node state digest");
    assert_eq!(digest, reference, "distributed sketch state must be bit-identical");
    // And the workers' graph digests XOR to the single-node system's: the
    // fleet saw exactly the stream the single node did.
    let graph = sharded.graph_digest().expect("sharded graph digest");
    assert_eq!(graph, single.graph_digest(), "the fleet's graph digest must match");

    let sharded_labels = sharded.connected_components().expect("sharded query");
    let single_labels = single.connected_components().expect("single query").labels().to_vec();
    assert_eq!(sharded_labels, single_labels, "answers must match");

    let components = sharded_labels.iter().collect::<std::collections::HashSet<_>>().len();
    println!(
        "{} updates over {} worker processes: {} components, {} batches shipped",
        sharded.updates_ingested(),
        NUM_SHARDS,
        components,
        sharded.batches_shipped(),
    );
    println!(
        "sketch state bit-identical to the single-node system across {NUM_NODES} nodes \
         (state digest {digest:#018x}, graph digest {graph})"
    );

    sharded.shutdown().expect("shutdown");
    for (mut child, mut reader) in children {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("drain child stdout");
        let status = child.wait().expect("wait for child");
        assert!(status.success(), "shard worker exited with {status}");
        print!("{rest}");
    }
    println!("all shard workers exited cleanly");
}
