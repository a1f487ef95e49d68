//! Criterion micro-benchmarks for the sketch layer (paper Figure 4's
//! stopwatch, statistically disciplined). A full run rewrites
//! `BENCH_sketches.json`; set `GZ_BENCH_SMOKE=1` to run at tiny scale and
//! write it under `target/` instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gz_bench::harness::smoke;
use gz_hash::Xxh64Hasher;
use gz_sketch::cube::CubeSketchFamily;
use gz_sketch::geometry::DEFAULT_COLUMNS;
use gz_sketch::standard::AnyStandardFamily;
use gz_sketch::L0Sampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn indices(n: u64, count: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(99);
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

fn bench_cube_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("cubesketch_update");
    for exp in [4u32, 6, 9, 12] {
        let n = 10u64.pow(exp);
        let family = CubeSketchFamily::<Xxh64Hasher>::for_vector(n, 1);
        let idx = indices(n, 1024);
        group.throughput(Throughput::Elements(idx.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n=10^{exp}")),
            &idx,
            |b, idx| {
                let mut sketch = family.new_sketch();
                b.iter(|| sketch.update_batch(idx));
            },
        );
    }
    group.finish();
}

/// The batch-kernel throughput comparison at the raw sketch level
/// (updates/sec): per-update singles vs the batch kernel. Store-level
/// numbers live in the ingestion bench.
fn bench_cube_batch_kernel(c: &mut Criterion) {
    let n = 10u64.pow(if smoke() { 6 } else { 9 });
    let family = CubeSketchFamily::<Xxh64Hasher>::for_vector(n, 7);
    let batch = indices(n, if smoke() { 256 } else { 1024 });

    let mut group = c.benchmark_group("cubesketch_batch_kernel");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_with_input(BenchmarkId::from_parameter("singles"), &batch, |b, batch| {
        let mut sketch = family.new_sketch();
        b.iter(|| {
            for &i in batch {
                sketch.update(i);
            }
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("batch"), &batch, |b, batch| {
        let mut sketch = family.new_sketch();
        b.iter(|| sketch.update_batch(batch));
    });
    group.finish();
}

/// The node-stack kernel the way a store drives it (DESIGN.md §9): one
/// decoded batch into a zeroed scratch stack, the scratch XORed into the
/// target, the scratch cleared. `batch` is the product path
/// (`NodeSketch::update_batch`: one premix per stack, the host's
/// column kernel per round, singles below `KERNEL_MIN_BATCH`); `singles` builds the
/// same delta one `update_signed` at a time. Lengths 1–32 are where
/// `KERNEL_MIN_BATCH` is decided (a `gz serve` seal applies ≈16-record
/// batches); 446 is kron13's mean gutter batch, the row the lane-width
/// table in DESIGN.md §9 is read from. Every iteration takes the next of 64
/// different batches: replaying one short batch lets the branch predictor
/// learn the singles path's depth loops by heart, which no stream does.
fn bench_stack_batch_len(c: &mut Criterion) {
    let num_nodes: u64 = if smoke() { 1 << 9 } else { 1 << 13 };
    let rounds = graph_zeppelin::config::default_rounds(num_nodes);
    let params =
        graph_zeppelin::node_sketch::SketchParams::new(num_nodes, rounds, DEFAULT_COLUMNS, 7);
    let vector_len = params.families[0].geometry().vector_len;
    let lens: &[usize] =
        if smoke() { &[2, 16, 446] } else { &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 446] };

    let mut group = c.benchmark_group("cubesketch_stack_batch_len");
    group.sample_size(15);
    for &len in lens {
        let drawn = indices(vector_len, 64 * len);
        let batches: Vec<&[u64]> = drawn.chunks(len).collect();
        group.throughput(Throughput::Elements(len as u64));
        let mut target = params.new_node_sketch();
        let mut scratch = params.new_node_sketch();
        let mut turn = 0usize;
        group.bench_with_input(BenchmarkId::new("singles", len), &batches, |b, batches| {
            b.iter(|| {
                turn += 1;
                for &i in batches[turn % batches.len()] {
                    scratch.update_signed(i, 1);
                }
                target.merge(&scratch);
                scratch.clear_all();
            })
        });
        group.bench_with_input(BenchmarkId::new("batch", len), &batches, |b, batches| {
            b.iter(|| {
                turn += 1;
                scratch.update_batch(batches[turn % batches.len()]);
                target.merge(&scratch);
                scratch.clear_all();
            })
        });
    }
    group.finish();
}

fn bench_standard_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("standard_l0_update");
    group.sample_size(10);
    for exp in [4u32, 6, 9, 10, 12] {
        let n = 10u64.pow(exp);
        let family = AnyStandardFamily::<Xxh64Hasher>::for_vector(n, 1);
        let idx = indices(n, 256);
        group.throughput(Throughput::Elements(idx.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n=10^{exp}")),
            &idx,
            |b, idx| {
                let mut sketch = family.new_sketch();
                b.iter(|| {
                    for &i in idx {
                        sketch.update_signed(i, 1);
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_cube_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("cubesketch_query");
    let n = 10u64.pow(8);
    let family = CubeSketchFamily::<Xxh64Hasher>::for_vector(n, 2);
    for support in [1usize, 100, 10_000] {
        let mut sketch = family.new_sketch();
        for &i in indices(n, support).iter() {
            sketch.update(i);
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("support={support}")),
            &sketch,
            |b, s| b.iter(|| s.query()),
        );
    }
    group.finish();
}

fn bench_cube_merge(c: &mut Criterion) {
    let n = 10u64.pow(9);
    let family = CubeSketchFamily::<Xxh64Hasher>::for_vector(n, 3);
    let mut a = family.new_sketch();
    let mut b2 = family.new_sketch();
    for &i in indices(n, 500).iter() {
        a.update(i);
        b2.update(i / 2 + 1);
    }
    c.bench_function("cubesketch_merge", |bch| {
        bch.iter(|| {
            let mut x = a.clone();
            x.merge(&b2);
            x
        })
    });
}

/// Final target: persist every measurement above as the machine-readable
/// baseline (`BENCH_sketches.json`).
fn emit_bench_json(_c: &mut Criterion) {
    match gz_bench::harness::write_bench_json("sketches") {
        Ok(path) => println!("bench baseline written to {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_sketches.json: {e}"),
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_cube_updates, bench_cube_batch_kernel, bench_stack_batch_len,
        bench_standard_updates, bench_cube_query, bench_cube_merge, emit_bench_json
}
criterion_main!(benches);
