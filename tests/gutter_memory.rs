//! Leaf gutters hold what they buffer: ingesting a sparse stream into the
//! in-RAM single node, or through a shard router's lanes, raises the peak
//! resident set by far less than a page per touched vertex. And sketches
//! hold one packed word a bucket: a flushed, all-dense RAM store raises it
//! by well under the paper's 12-bytes-a-bucket model.
//!
//! Its own binary, so `VmHWM` is this test's alone; each lane runs in a
//! child process of this binary, so one lane's freed heap pages cannot hide
//! the other's growth.

use graph_zeppelin::{GraphZeppelin, GzConfig, ShardConfig, ShardedGraphZeppelin};
use gz_graph::connectivity::connected_components_dsu;
use gz_graph::AdjacencyList;
use gz_stream::{Dataset, EdgeUpdate, GeneratorSpec, StreamifyConfig, UpdateKind};
use gz_testutil::{peak_rss_bytes, reset_peak_rss};
use std::process::Command;

const NODES: u64 = 16_384;
const EDGES: u64 = 50_000;
const THRESHOLD: u32 = 64;
/// Gutters that reserved their whole emit threshold on a vertex's first
/// record would fault in ≥ 64 MiB here: a page for each of the 16 384
/// vertices the stream touches.
const BOUND: u64 = 16 << 20;
/// Set in a child process to the lane it runs.
const LANE_VAR: &str = "GZ_GUTTER_MEMORY_LANE";
const LANES: [&str; 3] = ["single-node", "router", "dense-store"];
/// Vertices of the dense-store lane: kron13's universe.
const DENSE_NODES: u32 = 8192;

/// `sparse_churn`'s shape at a quarter of its edges: a preferential-attachment
/// graph under heavy churn, and its final graph's components.
fn stream() -> (Vec<EdgeUpdate>, Vec<u32>) {
    let dataset = Dataset {
        name: "pa".into(),
        num_vertices: NODES,
        nominal_edges: EDGES,
        spec: GeneratorSpec::Preferential { nodes: NODES, edges: EDGES },
    };
    let config = StreamifyConfig { churn_prob: 0.8, ..StreamifyConfig::default() };
    let updates = dataset.stream(11, &config).updates;
    let mut graph = AdjacencyList::new(NODES as usize);
    for upd in &updates {
        graph.toggle(upd.edge());
    }
    (updates, connected_components_dsu(&graph))
}

fn triples(updates: &[EdgeUpdate]) -> impl Iterator<Item = (u32, u32, bool)> + '_ {
    updates.iter().map(|upd| (upd.u, upd.v, upd.kind == UpdateKind::Delete))
}

/// Ingest and flush `lane`'s system; its peak growth in bytes and its labels.
fn run_lane(lane: &str, updates: &[EdgeUpdate]) -> (u64, Vec<u32>) {
    match lane {
        "single-node" => {
            let mut config = GzConfig::in_ram(NODES);
            config.sketch_threshold = THRESHOLD;
            let mut gz = GraphZeppelin::new(config).unwrap();
            assert!(reset_peak_rss(), "the kernel refuses to reset VmHWM");
            let before = peak_rss_bytes().unwrap();
            gz.ingest(triples(updates));
            gz.flush();
            let grew = peak_rss_bytes().unwrap() - before;
            (grew, gz.connected_components().unwrap().labels().to_vec())
        }
        "router" => {
            let mut config = ShardConfig::in_ram(NODES, 1);
            config.sketch_threshold = THRESHOLD;
            let mut gz = ShardedGraphZeppelin::in_process(config).unwrap();
            assert!(reset_peak_rss(), "the kernel refuses to reset VmHWM");
            let before = peak_rss_bytes().unwrap();
            gz.ingest(triples(updates)).unwrap();
            gz.flush().unwrap();
            let grew = peak_rss_bytes().unwrap() - before;
            let labels = gz.connected_components().unwrap();
            gz.shutdown().unwrap();
            (grew, labels)
        }
        other => panic!("no lane {other}"),
    }
}

/// Build an always-dense RAM store at `DENSE_NODES`, touch every vertex's
/// stack (six records each, so every round's columns are written) and
/// flush: the peak grows by the store's resident bytes (`sketch_bytes()`),
/// which must stay well under the paper's 12 bytes a bucket
/// (`node_sketch_bytes()` a vertex). Buckets that kept α as a whole `u64`
/// beside γ — 12 resident bytes — would break that bound.
fn dense_store_lane() {
    assert!(reset_peak_rss(), "the kernel refuses to reset VmHWM");
    let before = peak_rss_bytes().unwrap();
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(DENSE_NODES as u64)).unwrap();
    for u in 0..DENSE_NODES {
        for step in 1..=3 {
            gz.edge_update(u, (u + step) % DENSE_NODES);
        }
    }
    gz.flush();
    let grew = peak_rss_bytes().unwrap() - before;
    let resident = DENSE_NODES as u64 * gz.params().node_sketch_resident_bytes() as u64;
    assert_eq!(gz.sketch_bytes() as u64, resident);
    let model = DENSE_NODES as u64 * gz.params().node_sketch_bytes() as u64;
    eprintln!("dense-store: VmHWM +{grew} bytes against a {model}-byte 12-bytes-a-bucket model");
    assert!(grew < model / 5 * 4, "a dense store raised the peak by {grew} bytes of {model}");
    assert_eq!(gz.connected_components().unwrap().num_components(), 1);
}

#[test]
fn buffering_grows_the_peak_by_far_less_than_a_page_per_vertex() {
    if peak_rss_bytes().is_none() || !reset_peak_rss() {
        eprintln!("skipped: this kernel reports or resets no VmHWM in /proc/self");
        return;
    }
    if std::env::var(LANE_VAR).as_deref() == Ok("dense-store") {
        return dense_store_lane();
    }
    if let Ok(lane) = std::env::var(LANE_VAR) {
        let (updates, truth) = stream();
        let (grew, labels) = run_lane(&lane, &updates);
        eprintln!("{lane}: VmHWM +{grew} bytes over {} updates", updates.len());
        assert_eq!(labels, truth, "{lane}: labels");
        assert!(grew < BOUND, "{lane}: ingest raised the peak by {grew} bytes");
        return;
    }
    for lane in LANES {
        let status = Command::new(std::env::current_exe().unwrap())
            .args([
                "buffering_grows_the_peak_by_far_less_than_a_page_per_vertex",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(LANE_VAR, lane)
            .status()
            .unwrap();
        assert!(status.success(), "{lane} lane failed: {status}");
    }
}
