//! Sharded-ingestion benchmarks: ingestion rate vs shard count on a
//! Kronecker stream, batched routing vs per-update routing, and what the
//! router costs on top of the single-node facade.
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
//! `gz_shards_hop` is the pair the "one facade or two" question turns on
//! (ROADMAP, "Decided"): `GraphZeppelin::ingest` against one in-process
//! shard on the same frames, gutters only — both sides' gutters are one
//! record deeper than the busiest vertex's share of the stream, so none
//! fills and neither side waits for a Graph Worker — in ns per update,
//! median of alternating repetitions.
//!
//! Set `GZ_BENCH_SMOKE=1` to run at tiny scale (the CI format check).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graph_zeppelin::{
    BufferStrategy, GraphZeppelin, GutterCapacity, GzConfig, ShardConfig, ShardedGraphZeppelin,
};
use gz_bench::harness::{kron_workload, median, smoke};
use gz_stream::UpdateKind;
use std::time::{Duration, Instant};

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
                config.router_capacity = capacity;
                ingest_all(config, updates)
            })
        });
    }
    group.finish();
}

fn bench_router_hop(_c: &mut Criterion) {
    let w = kron_workload(if smoke() { 8 } else { 10 }, 3);
    let updates = tuples(&w.updates);
    let reps = if smoke() { 3 } else { 15 };
    let ns_per_update = |elapsed: Duration| elapsed.as_nanos() as f64 / updates.len() as f64;
    let mut records = vec![0usize; w.num_nodes as usize];
    for &(u, v, _) in &updates {
        records[u as usize] += 1;
        records[v as usize] += 1;
    }
    let capacity = GutterCapacity::Updates(records.iter().max().unwrap() + 1);
    let (mut single_ns, mut shard_ns) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let mut config = GzConfig::in_ram(w.num_nodes);
        config.buffering = BufferStrategy::LeafOnly { capacity };
        let mut single = GraphZeppelin::new(config).unwrap();
        let started = Instant::now();
        for frame in updates.chunks(FRAME_UPDATES) {
            single.ingest(frame.iter().copied());
        }
        single_ns.push(ns_per_update(started.elapsed()));
        assert_eq!(single.batches_applied(), 0, "the pair times gutters, not Graph Workers");
        single.shutdown();

        let mut config = ShardConfig::in_ram(w.num_nodes, 1);
        config.router_capacity = capacity;
        let mut shard = ShardedGraphZeppelin::in_process(config).unwrap();
        let started = Instant::now();
        ingest_frames(&mut shard, &updates);
        shard_ns.push(ns_per_update(started.elapsed()));
        assert_eq!(shard.batches_shipped(), 0, "the pair times gutters, not Graph Workers");
        shard.shutdown().unwrap();
    }
    criterion::record_custom("gz_shards_hop/single-node", median(&mut single_ns));
    criterion::record_custom("gz_shards_hop/one-shard", median(&mut shard_ns));
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
    targets = bench_ingest_by_shard_count, bench_batched_vs_per_update_routing, bench_router_hop,
        emit_bench_json
}
criterion_main!(benches);
