//! Query-path benchmarks: sketch-space Boruvka (Figure 12c / 16's stopwatch),
//! the disk-backed query-vs-oracle comparison at a pinned cache budget
//! (bytes read off the store and peak resident sketch bytes of each), and
//! the parallel-query scaling sweep over the system's pool width
//! (`gz_query_parallel`, DESIGN.md §10), and the hybrid store's flush and
//! fold against the always-dense one (`gz_query_hybrid`, DESIGN.md §12).
//!
//! Set `GZ_BENCH_SMOKE=1` to run at tiny scale (the CI smoke mode). The
//! measured results are also exported to `BENCH_queries.json` (best/mean ns
//! per case) as the machine-readable baseline future PRs diff against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_zeppelin::{GraphZeppelin, GzConfig, StoreBackend};
use gz_bench::harness::{kron_workload, smoke};
use gz_stream::UpdateKind;
use std::time::{Duration, Instant};

fn bench_connected_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("gz_query");
    group.sample_size(10);
    let scales: &[u32] = if smoke() { &[5] } else { &[7, 9] };
    for &scale in scales {
        let w = kron_workload(scale, 3);
        let mut gz = GraphZeppelin::new(GzConfig::in_ram(w.num_nodes)).unwrap();
        for upd in &w.updates {
            gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
        }
        gz.flush();
        group.bench_with_input(BenchmarkId::from_parameter(format!("kron{scale}")), &(), |b, _| {
            b.iter(|| gz.connected_components().unwrap().num_components())
        });
    }
    group.finish();
}

fn bench_spanning_forest_empty_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("gz_query_density");
    let num_nodes = 512u64;
    // Empty graph: all components retire in round one.
    let mut empty = GraphZeppelin::new(GzConfig::in_ram(num_nodes)).unwrap();
    group.bench_function("empty", |b| {
        b.iter(|| empty.connected_components().unwrap().num_components())
    });
    // Dense graph: log V merge rounds.
    let w = kron_workload(if smoke() { 5 } else { 9 }, 4);
    let mut dense = GraphZeppelin::new(GzConfig::in_ram(w.num_nodes)).unwrap();
    for upd in &w.updates {
        dense.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    dense.flush();
    group.bench_function("dense", |b| {
        b.iter(|| dense.connected_components().unwrap().num_components())
    });
    group.finish();
}

/// The tentpole comparison: a disk-backed store at a pinned cache budget,
/// queried by the snapshot oracle (materialize `V` full sketches) versus
/// the product's streaming fold (round slices, one group at a time per
/// query worker).
/// Reports wall time through criterion plus, one-shot, the bytes read off
/// the store and the peak resident sketch bytes of each.
fn bench_disk_query_vs_oracle(c: &mut Criterion) {
    // Scale 5 is degenerate (streamify's default disconnects 32 nodes,
    // which is all of kron5): stay at ≥ 6 so the query runs merge rounds.
    let scale = if smoke() { 6 } else { 8 };
    let cache_groups = 4; // the pinned RAM budget `M`, in node groups
    let w = kron_workload(scale, 6);
    let dir = gz_testutil::TempDir::new("gz-bench-diskq");
    let mut config = GzConfig::in_ram(w.num_nodes);
    config.store =
        StoreBackend::Disk { dir: dir.path().to_path_buf(), block_bytes: 16 << 10, cache_groups };
    let mut gz = GraphZeppelin::new(config).unwrap();
    for upd in &w.updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    gz.flush();

    // One-shot measured comparison of the I/O and memory profiles.
    let io = gz.store_io().unwrap();
    let before = io.bytes_read();
    let snap = gz.spanning_forest_oracle().unwrap();
    let snap_read = io.bytes_read() - before;
    let before = io.bytes_read();
    let stream = gz.spanning_forest().unwrap();
    let stream_read = io.bytes_read() - before;
    assert_eq!(snap.labels, stream.labels, "the query must match its oracle bit-for-bit");
    assert_eq!(snap.forest, stream.forest);
    assert_eq!(snap.rounds_used, stream.rounds_used);
    assert_eq!(snap.sketch_failures, stream.sketch_failures);
    assert!(
        stream_read < snap_read,
        "streaming must read fewer bytes ({stream_read} vs {snap_read})"
    );
    assert!(
        stream.peak_sketch_bytes < snap.peak_sketch_bytes,
        "streaming must keep fewer sketch bytes resident ({} vs {})",
        stream.peak_sketch_bytes,
        snap.peak_sketch_bytes
    );
    println!(
        "gz_query_disk/kron{scale} (cache {cache_groups} groups, {} store groups, \
         {} rounds used): snapshot read {snap_read} B / peak resident {} B; \
         streaming read {stream_read} B / peak resident {} B",
        gz.store().num_groups(),
        stream.rounds_used,
        snap.peak_sketch_bytes,
        stream.peak_sketch_bytes,
    );

    // The oracle is a test reference, not a product mode: it is compared
    // once above and not timed.
    let mut group = c.benchmark_group("gz_query_disk");
    group.sample_size(10);
    group
        .bench_function("streaming", |b| b.iter(|| gz.spanning_forest().unwrap().num_components()));
    group.finish();
}

/// Build a flushed system over the kron workload at `scale` with the
/// given store, its pool `workers` wide.
fn loaded_system(scale: u32, seed: u64, store: StoreBackend, workers: usize) -> GraphZeppelin {
    let w = kron_workload(scale, seed);
    let mut config = GzConfig::in_ram(w.num_nodes);
    config.store = store;
    config.num_workers = workers;
    let mut gz = GraphZeppelin::new(config).unwrap();
    for upd in &w.updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    gz.flush();
    gz
}

/// Best-of-`samples` wall time of one streaming query on `gz`'s pool.
fn best_query_time(gz: &mut GraphZeppelin, samples: usize) -> Duration {
    let _ = gz.spanning_forest().unwrap(); // warm
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _ = criterion::black_box(gz.spanning_forest().unwrap());
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// The scaling sweep (DESIGN.md §10): the live streaming query of a system
/// whose pool is 1/2/4/8 workers wide (one loaded system per width), on
/// the RAM store and on a cache-constrained disk store (where every width,
/// 1 included, runs the same claim loop). In full mode (kron8) the bench
/// asserts the 4-wide RAM query is ≥1.5× the 1-wide one on a host with ≥ 4
/// cores — the measured table lives in EXPERIMENTS.md. Smoke mode runs the
/// sweep at tiny scale for CI coverage without asserting a ratio a loaded
/// 2-core runner cannot honor.
fn bench_parallel_query_scaling(c: &mut Criterion) {
    let scale = if smoke() { 6 } else { 8 };
    let thread_counts: &[usize] = &[1, 2, 4, 8];

    let mut group = c.benchmark_group("gz_query_parallel");
    group.sample_size(10);
    for &threads in thread_counts {
        let mut ram = loaded_system(scale, 3, StoreBackend::Ram, threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("ram/kron{scale}/t{threads}")),
            &(),
            |b, _| b.iter(|| ram.spanning_forest().unwrap().num_components()),
        );
    }
    for &threads in thread_counts {
        let dir = gz_testutil::TempDir::new("gz-bench-parq");
        let disk = StoreBackend::Disk {
            dir: dir.path().to_path_buf(),
            block_bytes: 16 << 10,
            cache_groups: 4, // the pinned RAM budget, as in gz_query_disk
        };
        let mut disk = loaded_system(scale, 3, disk, threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("disk/kron{scale}/t{threads}")),
            &(),
            |b, _| b.iter(|| disk.spanning_forest().unwrap().num_components()),
        );
    }
    group.finish();

    // One-shot measured speedup line (and, in full mode on a machine with
    // the cores to show it, the ≥1.5× assertion at 4 threads on RAM).
    let samples = if smoke() { 5 } else { 20 };
    let t1 = best_query_time(&mut loaded_system(scale, 3, StoreBackend::Ram, 1), samples);
    let t4 = best_query_time(&mut loaded_system(scale, 3, StoreBackend::Ram, 4), samples);
    let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-12);
    println!(
        "gz_query_parallel/ram/kron{scale}: 1 thread {:.3} ms, 4 threads {:.3} ms — {speedup:.2}x",
        t1.as_secs_f64() * 1e3,
        t4.as_secs_f64() * 1e3,
    );
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if !smoke() && cores >= 4 {
        assert!(
            speedup >= 1.5,
            "parallel streaming query must be ≥1.5x at 4 threads on RAM (got {speedup:.2}x)"
        );
    }
}

/// The epoch-versioned concurrent query (DESIGN.md §11): fold a sealed
/// epoch while a writer thread keeps landing batches at a pinned rate, and
/// compare against folding the same epoch quiescently. The delta is the
/// price of copy-on-write captures plus cache pressure from the writer —
/// not lock contention, since epoch reads never block ingestion.
fn bench_concurrent_query(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let scale = if smoke() { 6 } else { 8 };
    let mut gz = loaded_system(scale, 3, StoreBackend::Ram, GzConfig::in_ram(2).num_workers);
    let num_nodes = gz.params().num_nodes;
    let epoch = gz.begin_epoch().unwrap();
    let reference = gz.spanning_forest().unwrap();

    let mut group = c.benchmark_group("gz_query_concurrent");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("quiescent/kron{scale}")),
        &(),
        |b, _| b.iter(|| epoch.spanning_forest().unwrap().num_components()),
    );

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // ~256 updates per millisecond: enough churn to keep the
            // copy-on-write path hot without starving the query thread.
            let mut i = 0u64;
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..256 {
                    let u = (i.wrapping_mul(7) % num_nodes) as u32;
                    let v = (i.wrapping_mul(13).wrapping_add(1) % num_nodes) as u32;
                    if u != v {
                        gz.edge_update(u, v);
                    }
                    i += 1;
                }
                gz.flush();
                batches += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            batches
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("under-ingest/kron{scale}")),
            &(),
            |b, _| b.iter(|| epoch.spanning_forest().unwrap().num_components()),
        );
        stop.store(true, Ordering::Relaxed);
        let batches = writer.join().unwrap();
        println!(
            "gz_query_concurrent/kron{scale}: {batches} writer batches landed during the \
             measured queries; epoch pinned {} captured groups",
            epoch.captured_groups(),
        );
    });
    group.finish();

    // The epoch must still answer as of its seal, churn notwithstanding.
    let at_epoch = epoch.spanning_forest().unwrap();
    assert_eq!(at_epoch.labels, reference.labels, "epoch answer moved under concurrent ingest");
}

/// The hybrid query (DESIGN.md §12): a preferential-attachment graph at
/// V = 4096 — a few hubs promote, every other vertex stays a short exact
/// set — queried at τ = 0 (every vertex dense) and τ = 64, answers asserted
/// equal. The flush that applies the buffered stream (the batch kernel for
/// dense vertices, one sorted merge per batch for sparse ones) and the fold
/// are timed as cases of their own: the flush best-of-N over freshly
/// ingested systems, the fold under criterion with nothing left to flush.
fn bench_query_hybrid(c: &mut Criterion) {
    use gz_stream::{Dataset, GeneratorSpec};

    let nodes = if smoke() { 1u64 << 8 } else { 1 << 12 };
    let edges = 4 * nodes;
    let dataset = Dataset {
        name: format!("pa-{nodes}x{edges}"),
        num_vertices: nodes,
        nominal_edges: edges,
        spec: GeneratorSpec::Preferential { nodes, edges },
    };
    let w = gz_bench::harness::dataset_workload(&dataset, 17);
    let ingested = |tau: u32| {
        let mut config = GzConfig::in_ram(w.num_nodes);
        config.sketch_threshold = tau;
        let mut gz = GraphZeppelin::new(config).unwrap();
        for upd in &w.updates {
            gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
        }
        gz
    };

    let mut answers = Vec::new();
    let mut group = c.benchmark_group("gz_query_hybrid");
    group.sample_size(10);
    for tau in [0u32, 64] {
        let flush_name = format!("gz_query_hybrid/flush/tau{tau}");
        if criterion::selected(&flush_name) {
            let flush_ns = (0..if smoke() { 2 } else { 5 })
                .map(|_| {
                    let mut gz = ingested(tau);
                    let start = Instant::now();
                    gz.flush();
                    start.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min);
            criterion::record_custom(flush_name, flush_ns);
        }

        let mut gz = ingested(tau);
        gz.flush();
        let rep = gz.rep_stats();
        println!(
            "gz_query_hybrid/{} tau {tau}: {} promoted, {} sparse",
            w.name, rep.promoted, rep.sparse
        );
        let outcome = gz.spanning_forest().unwrap();
        answers.push((outcome.labels, outcome.forest, outcome.rounds_used));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("fold/tau{tau}")),
            &(),
            |b, _| b.iter(|| gz.spanning_forest().unwrap().num_components()),
        );
    }
    group.finish();
    assert_eq!(answers[0], answers[1], "τ = 64 must answer as τ = 0 does");
}

/// Final target: persist every measurement above as the machine-readable
/// baseline (`BENCH_queries.json`).
fn emit_bench_json(_c: &mut Criterion) {
    match gz_bench::harness::write_bench_json("queries") {
        Ok(path) => println!("bench baseline written to {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_queries.json: {e}"),
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_connected_components, bench_spanning_forest_empty_vs_dense,
        bench_disk_query_vs_oracle, bench_parallel_query_scaling, bench_concurrent_query,
        bench_query_hybrid, emit_bench_json
}
criterion_main!(benches);
