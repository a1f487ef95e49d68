//! Sharded-ingestion benchmarks: ingestion rate vs shard count on a
//! Kronecker stream, and batched routing vs per-update routing.
//!
//! Every lane ingests as `gz serve` does: frames of [`FRAME_UPDATES`]
//! through `ShardedGraphZeppelin::ingest`, one transport lock a frame at
//! most.
//!
//! `gz_shards_batching` measures the claim the sharding refactor rests on
//! (after *Exploring the Landscape of Distributed Graph Sketching*): the
//! distributed win only materializes with real inter-shard batching.
//! `per-update` forces one-record batches through the router — the old
//! `Shard::ingest` hot path's message pattern — while `batched` uses the
//! paper's gutter sizing.
//!
//! `GZ_BENCH_SMOKE=1` (the CI's smoke run) writes `BENCH_shards.json` under
//! `target/`, never over the committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graph_zeppelin::{BufferStrategy, GutterCapacity, ShardConfig, ShardedGraphZeppelin};
use gz_bench::harness::kron_workload;
use gz_stream::UpdateKind;
use std::time::Duration;

/// The bulk frame of the repo benchmark's `serve_durable` saturate phase.
const FRAME_UPDATES: usize = 65_536;

fn tuples(updates: &[gz_stream::EdgeUpdate]) -> Vec<(u32, u32, bool)> {
    updates.iter().map(|upd| (upd.u, upd.v, upd.kind == UpdateKind::Delete)).collect()
}

fn ingest_frames(gz: &mut ShardedGraphZeppelin, updates: &[(u32, u32, bool)]) {
    for frame in updates.chunks(FRAME_UPDATES) {
        gz.ingest(frame.iter().copied()).unwrap();
    }
}

fn ingest_all(config: ShardConfig, updates: &[(u32, u32, bool)]) -> u64 {
    let mut gz = ShardedGraphZeppelin::in_process(config).unwrap();
    ingest_frames(&mut gz, updates);
    gz.flush().unwrap();
    gz.batches_shipped()
}

fn bench_ingest_by_shard_count(c: &mut Criterion) {
    let w = kron_workload(8, 1);
    let updates = tuples(&w.updates);
    let mut group = c.benchmark_group("gz_shards_ingest");
    group.throughput(Throughput::Elements(updates.len() as u64));
    for shards in [1u32, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &updates, |b, updates| {
            b.iter(|| ingest_all(ShardConfig::in_ram(w.num_nodes, shards), updates))
        });
    }
    group.finish();
}

fn bench_batched_vs_per_update_routing(c: &mut Criterion) {
    let w = kron_workload(8, 2);
    let updates = tuples(&w.updates);
    let mut group = c.benchmark_group("gz_shards_batching");
    group.throughput(Throughput::Elements(updates.len() as u64));
    let cases: Vec<(&str, GutterCapacity)> = vec![
        ("per-update", GutterCapacity::Updates(1)),
        ("batched-f0.5", GutterCapacity::SketchFactor(0.5)),
    ];
    for (name, capacity) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &updates, |b, updates| {
            b.iter(|| {
                let mut config = ShardConfig::in_ram(w.num_nodes, 4);
                config.buffering = BufferStrategy::LeafOnly { capacity };
                ingest_all(config, updates)
            })
        });
    }
    group.finish();
}

/// Final target: persist every measurement above as the machine-readable
/// baseline (`BENCH_shards.json`).
fn emit_bench_json(_c: &mut Criterion) {
    match gz_bench::harness::write_bench_json("shards") {
        Ok(path) => println!("bench baseline written to {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_shards.json: {e}"),
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ingest_by_shard_count, bench_batched_vs_per_update_routing,
        emit_bench_json
}
criterion_main!(benches);
