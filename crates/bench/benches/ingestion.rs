//! End-to-end ingestion benchmarks: the full pipeline on small kron streams
//! (Figure 13's stopwatch at criterion discipline), plus the sketch-update
//! kernel throughput table on the RAM store — per-update singles vs
//! gutter-sized batches (updates/sec) — and `gz_flush`, what a flush costs
//! when every
//! gutter holds a few records (a `gz serve` seal) or nearly a full batch (the
//! end of a `kron13_ram` pass), over one in-process shard behind leaf
//! gutters and behind the gutter tree `kron13_disk` runs — and
//! `gz_ingest_paged`, the store I/O of leaf gutters over a paged store at
//! full density, and `gz_gutter_pool`, the bytes leaf gutters hold per
//! buffered record.
//!
//! Set `GZ_BENCH_SMOKE=1` to run at tiny scale (the CI smoke mode); the
//! kernel comparison asserts its ≥2× batched-over-singles claim in both
//! modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graph_zeppelin::config::LockingStrategy;
use graph_zeppelin::node_sketch::{encode_other, SketchParams};
use graph_zeppelin::store::{NodeSet, SketchStore};
use graph_zeppelin::{
    BufferStrategy, GraphZeppelin, GutterCapacity, GzConfig, ShardConfig, ShardedGraphZeppelin,
};
use gz_bench::harness::{kron_workload, median, smoke};
use gz_sketch::geometry::DEFAULT_COLUMNS;
use gz_stream::UpdateKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ingest(gz: &mut GraphZeppelin, updates: &[gz_stream::EdgeUpdate]) {
    for upd in updates {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    gz.flush();
}

/// Whether the filter selects any case of `group` named in `cases`: a bench
/// that builds a dataset asks before building it.
fn any_selected(group: &str, cases: impl IntoIterator<Item = String>) -> bool {
    cases.into_iter().any(|case| criterion::selected(&format!("{group}/{case}")))
}

fn bench_ingest_by_workers(c: &mut Criterion) {
    let workers = [1usize, 2, 4];
    if !any_selected("gz_ingest_workers", workers.map(|n| n.to_string())) {
        return;
    }
    let w = kron_workload(8, 1);
    let mut group = c.benchmark_group("gz_ingest_workers");
    group.throughput(Throughput::Elements(w.updates.len() as u64));
    for workers in workers {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &w.updates, |b, updates| {
            b.iter(|| {
                let mut config = GzConfig::in_ram(w.num_nodes);
                config.num_workers = workers;
                let mut gz = GraphZeppelin::new(config).unwrap();
                ingest(&mut gz, updates);
                gz.batches_applied()
            })
        });
    }
    group.finish();
}

fn bench_ingest_by_buffering(c: &mut Criterion) {
    let cases = [
        ("unbuffered", GutterCapacity::Updates(1)),
        ("f=0.1", GutterCapacity::SketchFactor(0.1)),
        ("f=0.5", GutterCapacity::SketchFactor(0.5)),
    ];
    if !any_selected("gz_ingest_buffering", cases.map(|(name, _)| name.to_string())) {
        return;
    }
    let w = kron_workload(8, 2);
    let mut group = c.benchmark_group("gz_ingest_buffering");
    group.throughput(Throughput::Elements(w.updates.len() as u64));
    for (name, capacity) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &w.updates, |b, updates| {
            b.iter(|| {
                let mut config = GzConfig::in_ram(w.num_nodes);
                config.buffering = BufferStrategy::LeafOnly { capacity };
                let mut gz = GraphZeppelin::new(config).unwrap();
                ingest(&mut gz, updates);
                gz.batches_applied()
            })
        });
    }
    group.finish();
}

/// The tentpole measurement: sketch-update kernel throughput on a store
/// without a file at gutter-sized batches. Reports one-shot updates/sec for
/// per-update singles vs one batched `apply_batch` call, under the default
/// delta-sketch locking, and asserts the batched path is ≥2× the singles
/// path — the win the buffering system banks on. Skipped whole when the
/// bench-name filter selects neither case.
fn bench_store_update_kernel(c: &mut Criterion) {
    let names = ["singles", "batch"].map(|case| format!("gz_store_kernel/{case}"));
    if !names.iter().any(|name| criterion::selected(name)) {
        return;
    }
    let num_nodes: u64 = if smoke() { 1 << 9 } else { 1 << 12 };
    let rounds = graph_zeppelin::config::default_rounds(num_nodes);
    let params = Arc::new(SketchParams::new(num_nodes, rounds, DEFAULT_COLUMNS, 11));
    // A gutter-sized batch: what a leaf gutter at the paper's default
    // factor 0.5 hands a Graph Worker in one flush.
    let batch_len = GutterCapacity::SketchFactor(0.5).resolve(params.node_sketch_bytes());
    let records: Vec<u32> = (0..batch_len)
        .map(|i| encode_other(1 + (i as u32 % (num_nodes as u32 - 1)), false))
        .collect();
    let all = NodeSet::all(num_nodes);
    let store = SketchStore::for_nodes(Arc::clone(&params), LockingStrategy::DeltaSketch, all);
    let reps = if smoke() { 3 } else { 10 };

    let one_shot = |label: &str, f: &dyn Fn(&SketchStore)| -> f64 {
        // Warm up once (fills the scratch pool), then time `reps` passes.
        f(&store);
        let start = Instant::now();
        for _ in 0..reps {
            f(&store);
        }
        let per_sec = (reps * batch_len) as f64 / start.elapsed().as_secs_f64();
        println!(
            "gz_store_kernel/{label}: {per_sec:.0} updates/sec \
             (batch {batch_len}, {rounds} rounds, V={num_nodes})"
        );
        per_sec
    };

    let singles = one_shot("singles", &|s| {
        for &r in &records {
            s.apply_batch(0, &[r]);
        }
    });
    let batched = one_shot("batch", &|s| s.apply_batch(0, &records));
    println!("gz_store_kernel: batch {:.1}x singles", batched / singles);
    assert!(
        batched >= 2.0 * singles,
        "batched kernel must be ≥2× per-update singles ({batched:.0} vs {singles:.0} updates/sec)"
    );

    let mut group = c.benchmark_group("gz_store_kernel");
    group.throughput(Throughput::Elements(batch_len as u64));
    group.bench_with_input(BenchmarkId::from_parameter("singles"), &records, |b, records| {
        b.iter(|| {
            for &r in records {
                store.apply_batch(0, &[r]);
            }
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("batch"), &records, |b, records| {
        b.iter(|| store.apply_batch(0, records))
    });
    group.finish();
}

/// The PR's tentpole measurement: ingest sparse streams (Erdős–Rényi `gnp`
/// and preferential attachment — the regimes where almost every vertex
/// stays far below the promotion threshold) through a hybrid store
/// (τ = 32) vs the always-dense baseline (τ = 0). Reports resident sketch
/// bytes and the representation census for both, asserts the ≥5× memory
/// reduction on `gnp` plus answer equality, and records ingest time per
/// dataset × representation as criterion cases.
fn bench_ingest_hybrid(c: &mut Criterion) {
    use gz_stream::{Dataset, GeneratorSpec};

    let (nodes, edges) = if smoke() { (1u64 << 8, 512u64) } else { (1u64 << 10, 2048u64) };
    let names = ["gnp", "pa"].map(|kind| format!("{kind}-{nodes}x{edges}"));
    let reps = ["dense", "hybrid"];
    let cases = names.iter().flat_map(|name| reps.map(|rep| format!("{name}-{rep}")));
    if !any_selected("gz_ingest_hybrid", cases) {
        return;
    }
    let datasets = [
        Dataset {
            name: names[0].clone(),
            num_vertices: nodes,
            nominal_edges: edges,
            spec: GeneratorSpec::ErdosRenyi { nodes, edges },
        },
        Dataset {
            name: names[1].clone(),
            num_vertices: nodes,
            nominal_edges: edges,
            spec: GeneratorSpec::Preferential { nodes, edges },
        },
    ];

    let mut group = c.benchmark_group("gz_ingest_hybrid");
    for (idx, dataset) in datasets.iter().enumerate() {
        let w = gz_bench::harness::dataset_workload(dataset, 9 + idx as u64);
        group.throughput(Throughput::Elements(w.updates.len() as u64));

        // One-shot memory + equivalence check per dataset.
        let run = |threshold: u32| -> (GraphZeppelin, usize) {
            let mut config = GzConfig::in_ram(w.num_nodes);
            config.sketch_threshold = threshold;
            let mut gz = GraphZeppelin::new(config).unwrap();
            ingest(&mut gz, &w.updates);
            let bytes = gz.sketch_bytes();
            (gz, bytes)
        };
        let (mut dense, dense_bytes) = run(0);
        let (mut hybrid, hybrid_bytes) = run(32);
        let rep = hybrid.rep_stats();
        println!(
            "gz_ingest_hybrid/{}: dense {} vs hybrid {} ({:.1}x; {} promoted, {} sparse)",
            w.name,
            gz_bench::harness::fmt_bytes(dense_bytes as u64),
            gz_bench::harness::fmt_bytes(hybrid_bytes as u64),
            dense_bytes as f64 / hybrid_bytes.max(1) as f64,
            rep.promoted,
            rep.sparse,
        );
        assert_eq!(
            dense.connected_components().unwrap().labels(),
            hybrid.connected_components().unwrap().labels(),
            "{}: hybrid answers diverged from dense",
            w.name
        );
        if idx == 0 {
            // The ISSUE's acceptance bar: ≥5× resident-memory reduction on
            // the gnp stream.
            assert!(
                hybrid_bytes * 5 <= dense_bytes,
                "{}: hybrid {hybrid_bytes}B must be ≤ dense {dense_bytes}B / 5",
                w.name
            );
        }

        for (rep_name, threshold) in reps.into_iter().zip([0u32, 32]) {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{}-{rep_name}", w.name)),
                &w.updates,
                |b, updates| {
                    b.iter(|| {
                        let mut config = GzConfig::in_ram(w.num_nodes);
                        config.sketch_threshold = threshold;
                        let mut gz = GraphZeppelin::new(config).unwrap();
                        ingest(&mut gz, updates);
                        gz.sketch_bytes()
                    })
                },
            );
        }
    }
    group.finish();
}

/// One flush with `pending` records in every gutter (V = 4096, two workers):
/// the caller and one pool thread claim the gutters and apply them where they
/// lie, no batch built and the work queue left alone. `one-shard` is
/// `ShardedGraphZeppelin::flush` over one in-process shard — `gz serve`'s
/// seal, and `GraphZeppelin::flush`. Gutters hold 512 records, so nothing
/// overflows while they fill: the flush is all there is. `tree` is the same
/// flush behind `GzConfig::on_disk`'s gutter tree over a RAM store, so the
/// row isolates the buffering: the root cascades into the tree's last
/// internal level, whose nodes the pool then claims, each read once and
/// handed to its leaves. Median ns per flush over alternating repetitions,
/// each on fresh records; the first repetition's stores are checked
/// byte-for-byte against a system whose one-record gutters sent the same
/// records through the queue.
fn bench_flush(_c: &mut Criterion) {
    let num_nodes: u64 = if smoke() { 1 << 10 } else { 1 << 12 };
    let reps = if smoke() { 2 } else { 9 };
    let leaf_config = |capacity| {
        let mut config = GzConfig::in_ram(num_nodes);
        config.num_workers = 2;
        config.buffering = BufferStrategy::LeafOnly { capacity };
        config
    };
    let mut shard_config = ShardConfig::in_ram(num_nodes, 1);
    shard_config.workers_per_shard = 2;
    shard_config.buffering = BufferStrategy::LeafOnly { capacity: GutterCapacity::Updates(512) };
    let tree_dir = gz_bench::harness::scratch_dir("flush-tree");
    let mut tree_config = leaf_config(GutterCapacity::Updates(512));
    tree_config.buffering = GzConfig::on_disk(num_nodes, tree_dir.path().to_path_buf()).buffering;

    for pending in [16u32, 446] {
        let names = ["one-shard", "tree"].map(|route| format!("gz_flush/{pending}/{route}"));
        if !names.iter().any(|name| criterion::selected(name)) {
            continue;
        }
        // Repetition `rep` toggles, for every `u`, the `pending / 2` edges
        // `(u, u + offset)` at offsets of its own: `pending` records a gutter.
        let edges = |rep: u32| {
            let offsets = 1 + rep * pending / 2..=(rep + 1) * pending / 2;
            (0..num_nodes as u32).flat_map(move |u| {
                offsets.clone().map(move |o| (u, (u + o) % num_nodes as u32, false))
            })
        };
        assert!(u64::from(reps * pending / 2) < num_nodes, "offsets must not wrap onto `u`");
        let mut shard = ShardedGraphZeppelin::in_process(shard_config.clone()).unwrap();
        let mut tree = GraphZeppelin::new(tree_config.clone()).unwrap();
        let (mut shard_ns, mut tree_ns) = (Vec::new(), Vec::new());
        for rep in 0..reps {
            tree.ingest(edges(rep));
            assert_eq!(tree.batches_applied(), u64::from(rep) * num_nodes, "nothing overflowed");
            let started = Instant::now();
            tree.flush();
            tree_ns.push(started.elapsed().as_nanos() as f64);

            shard.ingest(edges(rep)).unwrap();
            assert_eq!(shard.batches_shipped(), u64::from(rep) * num_nodes, "nothing overflowed");
            let started = Instant::now();
            shard.flush().unwrap();
            shard_ns.push(started.elapsed().as_nanos() as f64);

            if rep == 0 {
                let mut queued =
                    GraphZeppelin::new(leaf_config(GutterCapacity::Updates(1))).unwrap();
                queued.ingest(edges(0));
                let want = queued.state_digest().unwrap();
                assert_eq!(queued.ingest_counters().flushes(), 0, "the reference only overflows");
                assert_eq!(tree.state_digest().unwrap(), want, "{pending} pending, tree");
                assert_eq!(shard.state_digest().unwrap(), want, "{pending} pending, one-shard");
            }
        }
        shard.shutdown().unwrap();
        let [shard_name, tree_name] = names;
        criterion::record_custom(shard_name, median(&mut shard_ns));
        criterion::record_custom(tree_name, median(&mut tree_ns));
    }
}

/// Leaf gutters over a paged store at full density: the whole kron12
/// stream (kron8 in smoke mode) into `GzConfig::in_ram`'s leaf gutters over
/// `GzConfig::on_disk`'s store — 176 KiB node groups, 1024 nodes cached —
/// on two workers, ingest and flush. The gutters emit whole node groups, so
/// a group is faulted once for all of its nodes' batches. Two rows, the
/// medians of three runs (one in smoke mode): `wall`, ns from the first
/// update to the end of the flush, and `read_bytes_per_update`, the store's
/// bytes read per stream update — a count, carried in the row's ns fields.
/// Every run's graph digest is the stream's: each record applied once.
fn bench_ingest_paged(_c: &mut Criterion) {
    let scale = if smoke() { 8 } else { 12 };
    let group = format!("gz_ingest_paged/kron{scale}");
    let rows = ["wall", "read_bytes_per_update"];
    if !any_selected(&group, rows.map(String::from)) {
        return;
    }
    let w = kron_workload(scale, 7);
    let want = gz_graph::GraphDigest::of_updates(
        w.updates.iter().map(|u| (u.u, u.v, u.kind == UpdateKind::Delete)),
        w.num_nodes,
    );
    let (mut wall_ns, mut read_bytes) = (Vec::new(), Vec::new());
    for _ in 0..if smoke() { 1 } else { 3 } {
        let dir = gz_bench::harness::scratch_dir("ingest-paged");
        let mut config = GzConfig::in_ram(w.num_nodes);
        config.num_workers = 2;
        config.store = GzConfig::on_disk(w.num_nodes, dir.path().to_path_buf()).store;
        let mut gz = GraphZeppelin::new(config).unwrap();
        let started = Instant::now();
        ingest(&mut gz, &w.updates);
        wall_ns.push(started.elapsed().as_nanos() as f64);
        let bytes = gz.store_io().expect("a paged store").bytes_read();
        read_bytes.push(bytes as f64 / w.updates.len() as f64);
        assert_eq!(gz.graph_digest(), want, "{group}: every record applied once");
    }
    let [wall, bytes] = rows.map(|row| format!("{group}/{row}"));
    criterion::record_custom(wall, median(&mut wall_ns));
    criterion::record_custom(bytes, median(&mut read_bytes));
}

/// Leaf gutters' chunk pool after the first half of the kron12 stream
/// (kron8 in smoke mode), ingested into `GzConfig::in_ram` with no flush.
/// One row, `bytes_per_record`: the bytes the pool has allocated (its
/// high-water mark) per record buffered — a ratio, carried in the row's ns
/// fields. A gutter is a chain of 16-record chunks, each a 64-byte cache
/// line with a 4-byte link, so the pool holds the records, their links and
/// less than one chunk a gutter, rounded up to its growth step, a slab of
/// 1024 chunks: asserted at most 1.1 × the records' bytes plus one chunk a
/// gutter and one slab.
fn bench_gutter_pool(_c: &mut Criterion) {
    let scale = if smoke() { 8 } else { 12 };
    let name = format!("gz_gutter_pool/kron{scale}/bytes_per_record");
    if !criterion::selected(&name) {
        return;
    }
    let w = kron_workload(scale, 7);
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(w.num_nodes)).unwrap();
    for upd in &w.updates[..w.updates.len() / 2] {
        gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
    }
    let pool = gz.gutter_pool().expect("leaf gutters");
    let bound = 1.1 * (4 * pool.records) as f64 + ((w.num_nodes + 1024) * (64 + 4)) as f64;
    assert!(pool.pool_peak_bytes as f64 <= bound, "{name}: {pool} past {bound} bytes");
    criterion::record_custom(name, pool.pool_peak_bytes as f64 / pool.records as f64);
}

/// Final target: persist every measurement above as the machine-readable
/// baseline (`BENCH_ingestion.json`).
fn emit_bench_json(_c: &mut Criterion) {
    match gz_bench::harness::write_bench_json("ingestion") {
        Ok(path) => println!("bench baseline written to {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_ingestion.json: {e}"),
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
    targets = bench_store_update_kernel, bench_ingest_by_workers, bench_ingest_by_buffering,
        bench_ingest_hybrid, bench_flush, bench_ingest_paged, bench_gutter_pool, emit_bench_json
}
criterion_main!(benches);
