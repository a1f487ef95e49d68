//! Figure 12: GraphZeppelin remains fast when its data structures live on
//! disk.
//!
//! (a/b) ingestion rate with file-backed sketches: gutter-tree buffering vs
//! leaf-only gutters, against the in-RAM configuration (the paper's "29%
//! penalty" headline) and against the baselines' in-RAM rates for reference.
//! (c) connected-components time after ingestion, per system.
//!
//! The paper forces Aspen/Terrace to swap with cgroups and watches them
//! collapse; our substitution measures, instead, the *random block accesses
//! per update* each baseline would incur out-of-core (see the `io` figure),
//! and keeps this figure to directly measured quantities.

use crate::harness::{
    fmt_rate, kron_workload, paging_disk_store, rate, run_baseline, run_graphzeppelin, scratch_dir,
    time, Scale, Table,
};
use graph_zeppelin::{BufferStrategy, GraphZeppelin, GutterCapacity, GzConfig};
use gz_baselines::{AspenLike, DynamicGraphSystem, TerraceLike};

/// Build the on-disk GZ config used throughout this figure.
fn disk_config(num_nodes: u64, dir: std::path::PathBuf, gutter_tree: bool) -> GzConfig {
    let mut c = GzConfig::in_ram(num_nodes);
    // The store really pages (the paper's 16 GB RAM limit analogue).
    c.store = paging_disk_store(&c, dir.clone(), 1 << 16);
    c.buffering = if gutter_tree {
        BufferStrategy::GutterTree {
            buffer_bytes: 1 << 18,
            fanout: 16,
            leaf_capacity: GutterCapacity::SketchFactor(2.0),
            dir,
        }
    } else {
        BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(2.0) }
    };
    c
}

/// Run the figure.
pub fn run(scale: Scale) {
    println!("== Figure 12: ingestion and query with data structures on disk ==\n");
    let kron = scale.reference_kron();
    let w = kron_workload(kron, 11);
    let dir = scratch_dir("fig12");
    println!("workload: kron{kron} ({} nodes, {} updates)\n", w.num_nodes, w.updates.len());

    let mut t = Table::new(&["system", "placement", "ingest rate", "CC time"]);

    // GraphZeppelin in RAM (reference point for the disk penalty).
    let mut gz_ram = GraphZeppelin::new(GzConfig::in_ram(w.num_nodes)).unwrap();
    let d_ram = run_graphzeppelin(&mut gz_ram, &w.updates);
    let (cc_ram, q_ram) = time(|| gz_ram.connected_components().unwrap());
    let ram_rate = rate(w.updates.len(), d_ram);
    t.row(vec!["graphzeppelin".into(), "RAM".into(), fmt_rate(ram_rate), format!("{:.2?}", q_ram)]);

    // GraphZeppelin on disk, gutter tree.
    let mut gz_tree =
        GraphZeppelin::new(disk_config(w.num_nodes, dir.path().to_path_buf(), true)).unwrap();
    let d_tree = run_graphzeppelin(&mut gz_tree, &w.updates);
    let (cc_tree, q_tree) = time(|| gz_tree.connected_components().unwrap());
    let tree_rate = rate(w.updates.len(), d_tree);
    t.row(vec![
        "graphzeppelin".into(),
        "disk (gutter tree)".into(),
        fmt_rate(tree_rate),
        format!("{:.2?}", q_tree),
    ]);

    // GraphZeppelin on disk, leaf-only gutters.
    let mut gz_leaf =
        GraphZeppelin::new(disk_config(w.num_nodes, dir.path().to_path_buf(), false)).unwrap();
    let d_leaf = run_graphzeppelin(&mut gz_leaf, &w.updates);
    let (cc_leaf, q_leaf) = time(|| gz_leaf.connected_components().unwrap());
    t.row(vec![
        "graphzeppelin".into(),
        "disk (leaf-only)".into(),
        fmt_rate(rate(w.updates.len(), d_leaf)),
        format!("{:.2?}", q_leaf),
    ]);

    // Baselines (in RAM; see module docs for the out-of-core substitution).
    let mut aspen = AspenLike::new(w.num_nodes as usize);
    let d_aspen = run_baseline(&mut aspen, &w.updates, 100_000);
    let (cc_aspen, q_aspen) = time(|| aspen.connected_components());
    t.row(vec![
        "aspen-like".into(),
        "RAM (reference)".into(),
        fmt_rate(rate(w.updates.len(), d_aspen)),
        format!("{:.2?}", q_aspen),
    ]);

    let mut terrace = TerraceLike::new(w.num_nodes as usize);
    let d_terrace = run_baseline(&mut terrace, &w.updates, 100_000);
    let (cc_terrace, q_terrace) = time(|| terrace.connected_components());
    t.row(vec![
        "terrace-like".into(),
        "RAM (reference)".into(),
        fmt_rate(rate(w.updates.len(), d_terrace)),
        format!("{:.2?}", q_terrace),
    ]);

    t.print();
    println!(
        "\nGZ disk penalty (gutter tree vs RAM): {:.0}% — paper reports 29% on kron18.",
        (1.0 - tree_rate / ram_rate) * 100.0
    );
    // Answers must agree across placements and with the baselines.
    assert_eq!(cc_ram.labels(), cc_tree.labels());
    assert_eq!(cc_ram.labels(), cc_leaf.labels());
    assert_eq!(cc_aspen, cc_terrace);
    println!(
        "all systems agree on the final components: {} components.\n",
        cc_ram.num_components()
    );
    let _ = (cc_aspen, cc_tree, cc_leaf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_and_ram_configs_agree_on_answers() {
        let w = kron_workload(7, 3);
        let dir = scratch_dir("fig12_test");
        let mut ram = GraphZeppelin::new(GzConfig::in_ram(w.num_nodes)).unwrap();
        let mut disk =
            GraphZeppelin::new(disk_config(w.num_nodes, dir.path().to_path_buf(), true)).unwrap();
        run_graphzeppelin(&mut ram, &w.updates);
        run_graphzeppelin(&mut disk, &w.updates);
        assert_eq!(
            ram.connected_components().unwrap().labels(),
            disk.connected_components().unwrap().labels()
        );
        drop(disk);
    }
}
