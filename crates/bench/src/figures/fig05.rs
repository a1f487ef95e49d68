//! Figure 5: CubeSketch is significantly smaller than standard ℓ0 sketching.
//!
//! Sketch sizes across vector lengths 10^3…10^12, from the exact geometry
//! model at the paper's column count (12-byte CubeSketch buckets vs three
//! field words for the standard sampler). The paper's shape: ~2× smaller in the 64-bit regime, ~4×
//! beyond `n = 10^10`.

use crate::harness::{fmt_bytes, Scale, Table};
use gz_sketch::geometry::SketchGeometry;

/// Print the Figure 5 table.
pub fn run(_scale: Scale) {
    println!("== Figure 5: sketch sizes, standard l0 vs CubeSketch ==\n");
    let mut t = Table::new(&["vector length", "standard l0", "CubeSketch", "size reduction"]);
    for exp in 3..=12u32 {
        let n = 10u64.pow(exp);
        let geom = SketchGeometry::paper(n);
        let std_bytes = geom.standard_sketch_bytes() as u64;
        let cube_bytes = geom.cube_sketch_bytes() as u64;
        t.row(vec![
            format!("10^{exp}"),
            fmt_bytes(std_bytes),
            fmt_bytes(cube_bytes),
            format!("{:.1}x", std_bytes as f64 / cube_bytes as f64),
        ]);
    }
    t.print();
    println!("\npaper shape: 1.9-2.1x reduction through 10^9, 4.1x from 10^10 onward.\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_factors_match_paper_shape() {
        // 2x in the 64-bit regime…
        for exp in 3..=9u32 {
            let geom = SketchGeometry::paper(10u64.pow(exp));
            let r = geom.standard_sketch_bytes() as f64 / geom.cube_sketch_bytes() as f64;
            assert!((1.8..=2.2).contains(&r), "10^{exp}: {r}");
        }
        // …4x beyond the 128-bit switch.
        for exp in 10..=12u32 {
            let geom = SketchGeometry::paper(10u64.pow(exp));
            let r = geom.standard_sketch_bytes() as f64 / geom.cube_sketch_bytes() as f64;
            assert!((3.8..=4.2).contains(&r), "10^{exp}: {r}");
        }
    }

    #[test]
    fn absolute_sizes_within_paper_ballpark() {
        // Paper reports CubeSketch 1.21 KiB at 10^3 up to 18.8 KiB at 10^12.
        // Our geometry uses the same 12 B buckets and 7 columns; rows are
        // log2(n) rather than log2(n²), so sizes land within ~2x of the
        // paper's, with the same shape.
        let small = SketchGeometry::paper(1000).cube_sketch_bytes();
        let large = SketchGeometry::paper(10u64.pow(12)).cube_sketch_bytes();
        assert!((500..4000).contains(&small), "10^3 -> {small}B");
        assert!((2000..40_000).contains(&large), "10^12 -> {large}B");
        assert!(large > small);
    }

    #[test]
    fn runs() {
        run(Scale::Small);
    }
}
