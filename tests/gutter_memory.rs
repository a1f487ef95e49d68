//! Leaf gutters hold what they buffer: ingesting a sparse stream into the
//! in-RAM single node, or through a shard router's lanes, raises the peak
//! resident set by far less than a page per touched vertex.
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
const LANES: [&str; 2] = ["single-node", "router"];

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

#[test]
fn buffering_grows_the_peak_by_far_less_than_a_page_per_vertex() {
    if peak_rss_bytes().is_none() || !reset_peak_rss() {
        eprintln!("skipped: this kernel reports or resets no VmHWM in /proc/self");
        return;
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
