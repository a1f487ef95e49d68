//! Ablations of the design choices DESIGN.md calls out.
//!
//! - **Locking discipline** (§5.1): delta-sketch merging vs holding the
//!   node lock for the whole batch, on one RAM store under contention.
//! - **Hashing inside CubeSketch**: xxHash (production) vs the 2-universal
//!   multiply-mod-Mersenne family (theory mode).

use crate::harness::{fmt_rate, kron_workload, rate, time, Scale, Table};
use graph_zeppelin::config::{default_rounds, GutterCapacity, LockingStrategy};
use graph_zeppelin::node_sketch::{encode_other, SketchParams};
use graph_zeppelin::store::ram::RamStore;
use gz_hash::{Hasher64, PairwiseHash, Xxh64Hasher};
use gz_sketch::cube::CubeSketchFamily;
use gz_sketch::geometry::{SketchGeometry, DEFAULT_COLUMNS, PAPER_COLUMNS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Run all ablations.
pub fn run(scale: Scale) {
    println!("== Ablations ==\n");
    locking(scale);
    hashers(scale);
    baseline_arithmetic();
    columns_vs_failure();
}

/// Failure probability vs column count on one isolated sketch of a dense
/// vector: the rate drops geometrically, ≈ 0.29^columns. The paper buys
/// `log(1/δ) = 7` columns on the assumption that a column succeeds half the
/// time; the measured 71 % is why the shipped default is fewer (the
/// `reliability` figure measures the same δ inside real queries, and what the
/// round budget does with it).
fn columns_vs_failure() {
    use gz_sketch::SampleResult;

    let n = 1u64 << 16;
    let trials = 400;
    let mut t = Table::new(&["columns", "query failure rate (dense vector)"]);
    for columns in [1u32, 2, 3, 5, PAPER_COLUMNS] {
        let mut failures = 0;
        for seed in 0..trials {
            let family = CubeSketchFamily::<Xxh64Hasher>::new(
                SketchGeometry::with_columns(n, columns),
                seed,
            );
            let mut sketch = family.new_sketch();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0);
            for _ in 0..n / 4 {
                sketch.update(rng.gen_range(0..n));
            }
            if matches!(sketch.query(), SampleResult::Fail) {
                failures += 1;
            }
        }
        t.row(vec![
            format!("{columns}"),
            format!("{:.1}% ({failures}/{trials})", 100.0 * failures as f64 / trials as f64),
        ]);
    }
    println!("-- CubeSketch columns vs per-query failure rate (n = 2^16, |support| ~ n/4) --");
    t.print();
    println!(
        "paper fixes {PAPER_COLUMNS} columns (delta = 1% if a column succeeds half the time; it \
         succeeds ~71%);\nthis tree ships {DEFAULT_COLUMNS}: the failures left are absorbed by \
         Boruvka's round budget,\nwhich `repro --figure reliability` measures per column count.\n"
    );
}

/// How much faster is our Mersenne-fold baseline than the division-based
/// arithmetic the paper's baseline used? (Quantifies how conservative the
/// Figure 4 speedups are.)
fn baseline_arithmetic() {
    use gz_sketch::modular::{P89Division, P89};
    use gz_sketch::standard::StandardFamily;

    fn measure<F: gz_sketch::modular::FingerprintField>(n: u64) -> f64 {
        let family: std::sync::Arc<StandardFamily<F, Xxh64Hasher>> =
            StandardFamily::for_vector(n, 3);
        let mut sketch = family.new_sketch();
        let mut rng = SmallRng::seed_from_u64(2);
        let indices: Vec<u64> = (0..512).map(|_| rng.gen_range(0..n)).collect();
        let start = Instant::now();
        let mut total = 0usize;
        while start.elapsed().as_millis() < 250 && total < 100_000 {
            for &i in &indices {
                sketch.update(i, 1);
            }
            total += indices.len();
        }
        rate(total, start.elapsed())
    }

    let n = 10u64.pow(10); // the 128-bit regime, where the cliff lives
    let fold = measure::<P89>(n);
    let division = measure::<P89Division>(n);
    let mut t = Table::new(&["fingerprint arithmetic", "standard l0 update rate"]);
    t.row(vec!["Mersenne fold (ours)".into(), fmt_rate(fold)]);
    t.row(vec!["double-and-add division model (paper's)".into(), fmt_rate(division)]);
    println!("-- standard-l0 baseline arithmetic (vector length 10^10) --");
    t.print();
    println!(
        "our baseline is {:.0}x faster than the division model, so Figure 4's\n\
         measured speedups are a conservative lower bound on the paper's.\n",
        fold / division
    );
}

/// The kron workload cut into the gutter-sized batches a leaf gutter at the
/// default factor hands a Graph Worker, applied to one [`RamStore`] per
/// discipline by `available_workers()` threads claiming batches from a
/// shared cursor — the contention the discipline exists for.
fn locking(scale: Scale) {
    let w = kron_workload(scale.reference_kron().min(10), 3);
    let params =
        Arc::new(SketchParams::new(w.num_nodes, default_rounds(w.num_nodes), DEFAULT_COLUMNS, 3));
    let capacity = GutterCapacity::SketchFactor(0.5).resolve(params.node_sketch_bytes());
    let mut gutters = vec![Vec::new(); w.num_nodes as usize];
    let mut batches: Vec<(u32, Vec<u32>)> = Vec::new();
    for upd in &w.updates {
        let delete = upd.kind == gz_stream::UpdateKind::Delete;
        for (node, other) in [(upd.u, upd.v), (upd.v, upd.u)] {
            let gutter = &mut gutters[node as usize];
            gutter.push(encode_other(other, delete));
            if gutter.len() == capacity {
                batches.push((node, std::mem::take(gutter)));
            }
        }
    }
    batches.extend((0..).zip(gutters).filter(|(_, g)| !g.is_empty()));

    let threads = super::fig13::available_workers();
    let mut t = Table::new(&["locking", "apply rate"]);
    for (name, strategy) in [
        ("delta-sketch (paper)", LockingStrategy::DeltaSketch),
        ("direct", LockingStrategy::Direct),
    ] {
        let store = RamStore::new(Arc::clone(&params), strategy);
        let cursor = AtomicUsize::new(0);
        let (_, d) = time(|| {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        while let Some((node, records)) =
                            batches.get(cursor.fetch_add(1, Ordering::Relaxed))
                        {
                            store.apply_batch(*node, records);
                        }
                    });
                }
            })
        });
        t.row(vec![name.into(), fmt_rate(rate(w.updates.len(), d))]);
    }
    println!(
        "-- locking discipline (kron{}, {threads} threads on one RAM store, {} batches) --",
        scale.reference_kron().min(10),
        batches.len()
    );
    t.print();
    println!();
}

fn hashers(_scale: Scale) {
    fn measure<H: Hasher64>(n: u64) -> f64 {
        let family = CubeSketchFamily::<H>::new(SketchGeometry::paper(n), 9);
        let mut sketch = family.new_sketch();
        let mut rng = SmallRng::seed_from_u64(1);
        let indices: Vec<u64> = (0..8192).map(|_| rng.gen_range(0..n)).collect();
        let start = Instant::now();
        let mut total = 0usize;
        while start.elapsed().as_millis() < 150 {
            for &i in &indices {
                sketch.update(i);
            }
            total += indices.len();
        }
        rate(total, start.elapsed())
    }
    let n = 10u64.pow(8);
    let mut t = Table::new(&["hash family", "CubeSketch update rate"]);
    t.row(vec!["xxHash64 (production)".into(), fmt_rate(measure::<Xxh64Hasher>(n))]);
    t.row(vec!["2-universal mod 2^61-1 (theory)".into(), fmt_rate(measure::<PairwiseHash>(n))]);
    println!("-- CubeSketch hashing (vector length 10^8) --");
    t.print();
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_hash_mode_produces_correct_components() {
        // The theory-mode hasher must be answer-equivalent (different
        // randomness, same correctness).
        let family = CubeSketchFamily::<PairwiseHash>::for_vector(1000, 4);
        let mut s = family.new_sketch();
        s.update(123);
        s.update(999);
        s.update(123);
        assert_eq!(s.query(), gz_sketch::SampleResult::Index(999));
    }
}
