//! End-to-end integration: full streams through the full pipeline, checked
//! against exact connectivity on the final graph.

use graph_zeppelin::{GraphZeppelin, GzConfig};
use gz_graph::connectivity::{connected_components_dsu, is_spanning_forest};
use gz_graph::AdjacencyList;
use gz_stream::{Dataset, StreamifyConfig, UpdateKind};
use gz_testutil::{TempDir, TempPath};

/// Stream a dataset through a GraphZeppelin instance and return
/// (final-graph oracle, gz labels, gz forest validity).
fn run_dataset(
    dataset: &Dataset,
    config: GzConfig,
    stream_seed: u64,
) -> (Vec<u32>, Vec<u32>, bool) {
    let stream = dataset.stream(stream_seed, &StreamifyConfig::default());
    let mut gz = GraphZeppelin::new(config).expect("valid config");
    let mut oracle = AdjacencyList::new(dataset.num_vertices as usize);
    for upd in &stream.updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
        oracle.toggle(upd.edge());
    }
    let cc = gz.connected_components().expect("query failed");
    let forest_ok = is_spanning_forest(&oracle, cc.spanning_forest());
    (connected_components_dsu(&oracle), cc.labels().to_vec(), forest_ok)
}

#[test]
fn dense_kron_stream_matches_oracle() {
    let dataset = Dataset::kron(8);
    let (truth, labels, forest_ok) =
        run_dataset(&dataset, GzConfig::in_ram(dataset.num_vertices), 1);
    assert_eq!(labels, truth);
    assert!(forest_ok, "returned forest is not a spanning forest");
}

#[test]
fn sparse_er_stream_matches_oracle() {
    let dataset = gz_stream::catalog::tiny_standins()
        .into_iter()
        .find(|d| d.name.starts_with("p2p"))
        .unwrap();
    let (truth, labels, forest_ok) =
        run_dataset(&dataset, GzConfig::in_ram(dataset.num_vertices), 2);
    assert_eq!(labels, truth);
    assert!(forest_ok);
}

#[test]
fn skewed_powerlaw_stream_matches_oracle() {
    let dataset = Dataset {
        name: "powerlaw-test".into(),
        num_vertices: 600,
        nominal_edges: 6000,
        spec: gz_stream::GeneratorSpec::Preferential { nodes: 600, edges: 6000 },
    };
    let (truth, labels, forest_ok) =
        run_dataset(&dataset, GzConfig::in_ram(dataset.num_vertices), 3);
    assert_eq!(labels, truth);
    assert!(forest_ok);
}

#[test]
fn many_workers_still_correct() {
    let dataset = Dataset::kron(7);
    let mut config = GzConfig::in_ram(dataset.num_vertices);
    config.num_workers = 8;
    let (truth, labels, _) = run_dataset(&dataset, config, 4);
    assert_eq!(labels, truth);
}

#[test]
fn on_disk_pipeline_matches_oracle() {
    let dataset = Dataset::kron(7);
    let dir = TempDir::new("gz-e2e");
    let config = GzConfig::on_disk(dataset.num_vertices, dir.path().to_path_buf());
    let (truth, labels, forest_ok) = run_dataset(&dataset, config, 6);
    assert_eq!(labels, truth);
    assert!(forest_ok);
}

#[test]
fn stream_file_round_trip_preserves_answers() {
    // Write the stream to the binary format, read it back, and make sure
    // the replayed stream produces identical components.
    let dataset = Dataset::kron(6);
    let stream = dataset.stream(9, &StreamifyConfig::default());
    let path = TempPath::new("gz-e2e-stream", ".gzs");
    gz_stream::format::write_stream(path.path(), dataset.num_vertices, &stream.updates).unwrap();

    let reader = gz_stream::format::StreamReader::open(path.path()).unwrap();
    let replayed: Vec<_> = reader.collect::<std::io::Result<_>>().unwrap();
    assert_eq!(replayed, stream.updates);

    let mut gz = GraphZeppelin::new(GzConfig::in_ram(dataset.num_vertices)).unwrap();
    let mut oracle = AdjacencyList::new(dataset.num_vertices as usize);
    for upd in &replayed {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
        oracle.toggle(upd.edge());
    }
    assert_eq!(gz.connected_components().unwrap().labels(), &connected_components_dsu(&oracle)[..]);
}

#[test]
fn repeated_full_cycles_insert_delete_everything() {
    // Insert a whole graph, delete all of it, insert it again: the final
    // answer must reflect only the final state.
    let dataset = Dataset::kron(6);
    let edges = dataset.generate(11);
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(dataset.num_vertices)).unwrap();
    for e in &edges {
        gz.update(e.u(), e.v(), false);
    }
    for e in &edges {
        gz.update(e.u(), e.v(), true);
    }
    let empty = gz.connected_components().unwrap();
    assert_eq!(empty.num_components(), dataset.num_vertices as usize);

    for e in &edges {
        gz.update(e.u(), e.v(), false);
    }
    let full = gz.connected_components().unwrap();
    let oracle = AdjacencyList::from_edges(
        dataset.num_vertices as usize,
        edges.iter().map(|e| (e.u(), e.v())),
    );
    assert_eq!(full.labels(), &connected_components_dsu(&oracle)[..]);
}
