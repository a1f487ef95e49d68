//! Figure 16: query latency every 10% of the stream.
//!
//! (a) in memory: GraphZeppelin with tiny (100-update) leaf buffers vs the
//! baselines. Paper shape: the explicit systems answer faster on the sparse
//! early prefixes, but their BFS cost grows with density while GZ's
//! Boruvka-over-sketches cost is density-independent — GZ wins by ~70% of
//! the stream.
//!
//! (b) on disk: GZ's query time stays flat; Aspen's blows up once the graph
//! exceeds RAM (our substitution reports GZ-on-disk measured, baselines in
//! RAM for reference).

use crate::harness::{
    batch_for_baselines, fmt_rate, kron_workload, paging_disk_store, rate, scratch_dir, time,
    Scale, Table,
};
use graph_zeppelin::{BufferStrategy, GraphZeppelin, GutterCapacity, GzConfig};
use gz_baselines::{AspenLike, DynamicGraphSystem, TerraceLike};
use gz_stream::UpdateKind;

/// Run the periodic-query experiment.
pub fn run(scale: Scale) {
    println!("== Figure 16: query latency every 10% of the stream ==\n");
    let kron = match scale {
        Scale::Small => 9,
        Scale::Medium => 11,
    };
    let w = kron_workload(kron, 33);
    println!("workload: kron{kron} ({} updates), queries at each decile\n", w.updates.len());

    // (a) in-memory: GZ with 100-update buffers (the paper's 400-byte
    // gutters), baselines stepped through the same prefixes.
    let mut config = GzConfig::in_ram(w.num_nodes);
    config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(100) };
    let mut gz = GraphZeppelin::new(config).unwrap();
    let mut aspen = AspenLike::new(w.num_nodes as usize);
    let mut terrace = TerraceLike::new(w.num_nodes as usize);

    let mut t = Table::new(&["% of stream", "gz query", "aspen query", "terrace query"]);
    let decile = w.updates.len() / 10;
    let mut gz_ingest_time = std::time::Duration::ZERO;
    for dec in 1..=10usize {
        let chunk = &w.updates[(dec - 1) * decile..(dec * decile).min(w.updates.len())];
        let (_, d) = time(|| {
            for upd in chunk {
                gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
            }
        });
        gz_ingest_time += d;
        for (is_delete, edges) in batch_for_baselines(chunk, 100_000) {
            if is_delete {
                aspen.batch_delete(&edges);
                terrace.batch_delete(&edges);
            } else {
                aspen.batch_insert(&edges);
                terrace.batch_insert(&edges);
            }
        }

        let (gz_cc, gz_q) = time(|| gz.connected_components().unwrap());
        let (aspen_cc, aspen_q) = time(|| aspen.connected_components());
        let (terrace_cc, terrace_q) = time(|| terrace.connected_components());
        assert_eq!(gz_cc.labels(), &aspen_cc[..], "decile {dec}: GZ vs aspen");
        assert_eq!(aspen_cc, terrace_cc, "decile {dec}: baselines disagree");

        t.row(vec![
            format!("{}%", dec * 10),
            format!("{gz_q:.2?}"),
            format!("{aspen_q:.2?}"),
            format!("{terrace_q:.2?}"),
        ]);
    }
    t.print();
    println!(
        "\n(a) paper shape: baselines fast early, growing with density; GZ flat.\n\
        GZ ingest rate with 100-update buffers: {}\n",
        fmt_rate(rate(w.updates.len(), gz_ingest_time))
    );

    // (b) on disk: GZ with file-backed sketches, 0.1× sketch buffers.
    let dir = scratch_dir("fig16");
    let mut config = GzConfig::in_ram(w.num_nodes);
    config.store = paging_disk_store(&config, dir.path().to_path_buf(), 1 << 16);
    config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::SketchFactor(0.1) };
    let mut gz_disk = GraphZeppelin::new(config).unwrap();
    let mut d = Table::new(&["% of stream", "gz-on-disk query"]);
    for dec in 1..=10usize {
        let chunk = &w.updates[(dec - 1) * decile..(dec * decile).min(w.updates.len())];
        for upd in chunk {
            gz_disk.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
        }
        let (_, q) = time(|| gz_disk.connected_components().unwrap());
        d.row(vec![format!("{}%", dec * 10), format!("{q:.2?}")]);
    }
    d.print();
    println!(
        "\n(b) paper shape: GZ's on-disk query time is flat in graph density\n\
         (24s at every decile on kron17); Aspen's final query was 5x slower.\n"
    );
    drop(gz_disk);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midstream_queries_agree_with_baseline() {
        let w = kron_workload(7, 13);
        let mut config = GzConfig::in_ram(w.num_nodes);
        config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(50) };
        let mut gz = GraphZeppelin::new(config).unwrap();
        let mut aspen = AspenLike::new(w.num_nodes as usize);
        let half = w.updates.len() / 2;
        for (i, upd) in w.updates.iter().enumerate() {
            gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
            match upd.kind {
                UpdateKind::Insert => aspen.batch_insert(&[(upd.u, upd.v)]),
                UpdateKind::Delete => aspen.batch_delete(&[(upd.u, upd.v)]),
            }
            if i == half {
                let cc = gz.connected_components().unwrap();
                assert_eq!(cc.labels(), &aspen.connected_components()[..], "mid-stream");
            }
        }
        let cc = gz.connected_components().unwrap();
        assert_eq!(cc.labels(), &aspen.connected_components()[..], "end of stream");
    }
}
