//! Figure 4: CubeSketch is faster than standard ℓ0 sketching.
//!
//! Single-threaded update rates of both samplers across vector lengths
//! 10^3…10^12, both at the paper's column count. The paper's shape: CubeSketch stays within one order of
//! magnitude across all lengths, the standard sampler decays with `log n`
//! (modular exponentiation) and falls off a cliff at `n = 10^10` where the
//! fingerprint field must widen to 128 bits.

use crate::harness::{fmt_rate, rate, time, Scale, Table};
use gz_hash::Xxh64Hasher;
use gz_sketch::cube::CubeSketchFamily;
use gz_sketch::geometry::SketchGeometry;
use gz_sketch::standard::AnyStandardFamily;
use gz_sketch::L0Sampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Measure one sampler's update rate on random indices.
fn measure_updates<S: L0Sampler>(
    sampler: &mut S,
    vector_len: u64,
    min_time: Duration,
    max_updates: usize,
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0x000F_1604);
    // Pre-draw indices so RNG cost stays out of the measurement.
    let indices: Vec<u64> = (0..8192).map(|_| rng.gen_range(0..vector_len)).collect();
    let mut total = 0usize;
    let start = std::time::Instant::now();
    while start.elapsed() < min_time && total < max_updates {
        for &i in &indices {
            sampler.update_signed(i, 1);
        }
        total += indices.len();
    }
    rate(total, start.elapsed())
}

/// Print the Figure 4 table.
pub fn run(scale: Scale) {
    println!("== Figure 4: ingestion rates, standard l0 vs CubeSketch (updates/s) ==\n");
    let exponents: Vec<u32> = match scale {
        Scale::Small => vec![3, 4, 5, 6, 8, 10, 12],
        Scale::Medium => vec![3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    };
    let (min_time, cube_cap, std_cap) = match scale {
        Scale::Small => (Duration::from_millis(120), 2_000_000, 60_000),
        Scale::Medium => (Duration::from_millis(400), 8_000_000, 200_000),
    };

    let mut t = Table::new(&["vector length", "standard l0", "CubeSketch", "speedup", "field"]);
    for exp in exponents {
        let n = 10u64.pow(exp);
        let cube_family = CubeSketchFamily::<Xxh64Hasher>::new(SketchGeometry::paper(n), 7);
        let mut cube = cube_family.new_sketch();
        let cube_rate = measure_updates(&mut cube, n, min_time, cube_cap);

        let std_family = AnyStandardFamily::<Xxh64Hasher>::for_vector(n, 7);
        let wide = std_family.is_wide();
        let mut std_sketch = std_family.new_sketch();
        let std_rate = measure_updates(&mut std_sketch, n, min_time, std_cap);

        t.row(vec![
            format!("10^{exp}"),
            fmt_rate(std_rate),
            fmt_rate(cube_rate),
            format!("{:.0}x", cube_rate / std_rate),
            if wide { "128-bit".into() } else { "64-bit".into() },
        ]);
    }
    t.print();
    println!(
        "\npaper shape: speedup grows with n (33x at 10^3 to 2350x at 10^12),\n\
         with a standard-l0 cliff at 10^10 where 128-bit arithmetic kicks in.\n"
    );
    let _ = time(|| ()); // keep the import used under all cfgs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubesketch_beats_standard_at_every_length() {
        for exp in [3u32, 6, 10] {
            let n = 10u64.pow(exp);
            let cube_family = CubeSketchFamily::<Xxh64Hasher>::new(SketchGeometry::paper(n), 7);
            let mut cube = cube_family.new_sketch();
            let cube_rate = measure_updates(&mut cube, n, Duration::from_millis(30), 200_000);
            let std_family = AnyStandardFamily::<Xxh64Hasher>::for_vector(n, 7);
            let mut std_sketch = std_family.new_sketch();
            let std_rate = measure_updates(&mut std_sketch, n, Duration::from_millis(30), 20_000);
            assert!(
                cube_rate > 2.0 * std_rate,
                "10^{exp}: cube {cube_rate:.0} vs standard {std_rate:.0}"
            );
        }
    }

    #[test]
    fn wide_field_slower_than_narrow() {
        // The 10^10 cliff: the 128-bit path must be measurably slower.
        let narrow_family = AnyStandardFamily::<Xxh64Hasher>::for_vector(10u64.pow(9), 7);
        let wide_family = AnyStandardFamily::<Xxh64Hasher>::for_vector(10u64.pow(10), 7);
        assert!(!narrow_family.is_wide() && wide_family.is_wide());
        let mut narrow = narrow_family.new_sketch();
        let mut wide = wide_family.new_sketch();
        let rn = measure_updates(&mut narrow, 10u64.pow(9), Duration::from_millis(40), 20_000);
        let rw = measure_updates(&mut wide, 10u64.pow(10), Duration::from_millis(40), 20_000);
        assert!(rn > rw, "narrow {rn:.0} vs wide {rw:.0}");
    }
}
