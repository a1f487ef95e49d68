//! Tour of the sketch extensions the paper names beyond connectivity
//! (§3.1: bipartiteness, edge connectivity; §8: distributed partitioning;
//! plus checkpoint/restore). Each answer is asserted as well as printed.
//!
//! ```sh
//! cargo run --release -p gz_bench --example extensions_tour
//! ```

use graph_zeppelin::{
    BipartitenessTester, GraphZeppelin, GzConfig, KForestSketcher, ShardedGraphZeppelin,
};

fn main() {
    let n = 64u64;

    // --- Bipartiteness on a dynamic graph -------------------------------
    let mut bip = BipartitenessTester::new(n, 1).unwrap();
    for i in 0..16u32 {
        bip.insert(i, (i + 1) % 16); // 16-cycle: even, bipartite
    }
    let bipartite = |bip: &mut BipartitenessTester, what: &str, expected: bool| {
        let answer = bip.query().unwrap().bipartite;
        println!("{what:<29}{answer}");
        assert_eq!(answer, expected, "{what}");
    };
    bipartite(&mut bip, "16-cycle bipartite?", true);
    bip.insert(0, 2); // chord creates a 3-cycle
    bipartite(&mut bip, "...after odd chord (0,2)?", false);
    bip.delete(0, 2);
    bipartite(&mut bip, "...after deleting the chord?", true);

    // --- k-edge-connectivity certificate --------------------------------
    // (universe sized to the graph: 2-edge-connectivity is a whole-graph
    // property, so isolated spare vertices would make it trivially false)
    let mut kec = KForestSketcher::new(20, 2, 2).unwrap();
    for i in 0..20u32 {
        kec.insert(i, (i + 1) % 20); // a 20-cycle is 2-edge-connected
    }
    let connected = kec.is_two_edge_connected().unwrap();
    println!("\n20-cycle 2-edge-connected?   {connected}");
    assert!(connected);
    kec.delete(0, 1); // now a path: every edge a bridge
    let connected = kec.is_two_edge_connected().unwrap();
    println!("...after deleting one edge?  {connected}");
    assert!(!connected);
    let cert = kec.certificate().unwrap();
    let (forests, edges) = (cert.forests.len(), cert.union_edges().len());
    println!("certificate: {forests} forests, {edges} edges total (graph had 19)");
    assert_eq!((forests, edges), (2, 19));

    // --- Sharded ingestion (cluster model) -------------------------------
    // Updates flow through the batching router into four shard pipelines;
    // `examples/multi_process_shards.rs` runs the same coordinator against
    // worker OS processes over the socket transport.
    let mut sharded = ShardedGraphZeppelin::new(n, 4, 4).unwrap();
    let updates: Vec<(u32, u32, bool)> =
        (0..40u32).map(|i| (i % 32, (i * 7 + 1) % 32, false)).filter(|&(a, b, _)| a != b).collect();
    sharded.ingest(updates.iter().copied()).unwrap();
    println!(
        "\nsharded across {} shards: {} components ({} batches shipped)",
        sharded.num_shards(),
        sharded
            .connected_components()
            .unwrap()
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len(),
        sharded.batches_shipped(),
    );

    // --- Checkpoint / restore --------------------------------------------
    let path = std::env::temp_dir().join(format!("gz_tour_{}.gzc", std::process::id()));
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(n)).unwrap();
    gz.edge_update(1, 2);
    gz.edge_update(2, 3);
    gz.save_checkpoint(&path).unwrap();
    let mut restored = GraphZeppelin::restore(&path).unwrap();
    restored.edge_update(3, 4); // continue streaming after restart
    let cc = restored.connected_components().unwrap();
    println!("\ncheckpoint restored: vertices 1 and 4 connected? {}", cc.same_component(1, 4));
    assert!(cc.same_component(1, 4));
    std::fs::remove_file(&path).ok();
}
