//! Out-of-core GraphZeppelin: sketches and gutters on disk.
//!
//! The paper's hybrid streaming model (§4): only polylog RAM, with the
//! `O(V log³V)` sketch state on SSD accessed in blocks. This example builds
//! the on-disk configuration, ingests a dense Kronecker stream, and reports
//! what the I/O counters saw — the measurable analogue of "GraphZeppelin
//! scales to SSD at a 29% cost to ingestion rate" — and the process's peak
//! resident set beside the store file and the cache budget it stays within.
//!
//! ```sh
//! cargo run --release -p gz_bench --example out_of_core
//! ```

use graph_zeppelin::{GraphZeppelin, GzConfig, StoreBackend};
use gz_bench::harness::paging_disk_store;
use gz_stream::{Dataset, StreamifyConfig, UpdateKind};
use std::time::Instant;

fn main() {
    let dataset = Dataset::kron(10); // 1024 vertices, ~half of all edges
    let stream = dataset.stream(42, &StreamifyConfig::default());
    println!(
        "dataset {}: {} nodes, {} stream updates",
        dataset.name,
        dataset.num_vertices,
        stream.updates.len()
    );

    // The stream generator's scratch has come and gone: start the peak
    // from what is resident now, so the one printed below is the system's.
    let peak_reset = gz_testutil::reset_peak_rss();
    let resident_before = gz_testutil::rss_bytes();
    let dir = std::env::temp_dir().join(format!("gz_out_of_core_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // File-backed sketches + on-disk gutter tree. At this size the default
    // cache would hold the whole store, so tighten it to an eighth of the
    // node groups: the store genuinely pages (the paper's limited-RAM
    // regime), and evictions write dirty groups back.
    let mut config = GzConfig::on_disk(dataset.num_vertices, dir.clone());
    let StoreBackend::Disk { block_bytes, .. } = config.store else {
        unreachable!("on_disk stores on disk")
    };
    config.store = paging_disk_store(&config, dir.clone(), block_bytes);
    let StoreBackend::Disk { cache_groups, .. } = config.store else { unreachable!() };
    let workers = config.num_workers;
    let mut gz = GraphZeppelin::new(config).expect("valid config");

    let start = Instant::now();
    for upd in &stream.updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    gz.flush();
    let ingest = start.elapsed();
    // Before the query every store read is one group fault.
    let faults = gz.store_io().expect("disk store counters").reads();

    let start = Instant::now();
    let cc = gz.connected_components().expect("query");
    let query = start.elapsed();

    println!(
        "\ningest: {:.2?} ({:.2}M updates/s)   query: {:.2?}   components: {}",
        ingest,
        stream.updates.len() as f64 / ingest.as_secs_f64() / 1e6,
        query,
        cc.num_components()
    );

    let store = gz.store_io().expect("disk store counters");
    println!(
        "\nsketch store I/O: {} reads / {} writes, {:.1} MiB total \
         ({:.4} I/Os per stream update)",
        store.reads(),
        store.writes(),
        (store.bytes_read() + store.bytes_written()) as f64 / (1 << 20) as f64,
        store.total_ops() as f64 / stream.updates.len() as f64,
    );
    if let Some(gutter) = gz.gutter_io() {
        println!(
            "gutter tree I/O:  {} reads / {} writes, {:.1} MiB total",
            gutter.reads(),
            gutter.writes(),
            (gutter.bytes_read() + gutter.bytes_written()) as f64 / (1 << 20) as f64,
        );
    }
    // The storage model's promise: what stays resident is the cache budget
    // plus buffers and one round of query state, not the store.
    let sketches = gz.store();
    let file_bytes = sketches.file_bytes().expect("configured on disk") as usize;
    let group_bytes = file_bytes / sketches.num_groups() as usize;
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    let peak = match (peak_reset, resident_before, gz_testutil::peak_rss_bytes()) {
        (true, Some(before), Some(peak)) => format!(
            "{:.1} MiB ({:.1} MiB of it resident before the system was built)",
            mib(peak as usize),
            mib(before as usize)
        ),
        (false, _, Some(peak)) => {
            format!("{:.1} MiB (with the stream generator's)", mib(peak as usize))
        }
        _ => "not reported".into(),
    };
    println!(
        "resident: VmHWM {peak} — sketch store file {:.1} MiB, cache budget {:.1} MiB \
         ({cache_groups} of {} node groups of {} nodes; {faults} group faults while ingesting)",
        mib(file_bytes),
        mib(cache_groups * group_bytes),
        sketches.num_groups(),
        sketches.group_size(),
    );
    // Loaded groups never exceed the cache plus one a worker, so more
    // faults than that means groups were evicted: the store paged.
    assert!(
        faults > (cache_groups + workers) as u64,
        "a cache of an eighth of the groups must page"
    );
    println!(
        "\nsketch state: {:.1} MiB of resident words ({:.1} MiB in the store file, whole \
         node groups) vs {:.1} MiB for a bit-matrix of the same graph",
        mib(gz.sketch_bytes()),
        mib(file_bytes),
        mib(graph_zeppelin::size_model::adjacency_matrix_bytes(dataset.num_vertices) as usize),
    );
    println!(
        "(at this toy scale the explicit matrix is smaller; the sketches' \
         V·log³V wins beyond V ≈ 2^{:.0} — paper Figure 11)",
        (graph_zeppelin::size_model::crossover_vs_matrix() as f64).log2()
    );

    drop(gz);
    std::fs::remove_dir_all(&dir).ok();
}
