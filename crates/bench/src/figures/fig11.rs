//! Figure 11: GraphZeppelin uses less space than Aspen or Terrace on large,
//! dense graph streams.
//!
//! Two parts, as in the paper: (a) measured memory per system per dataset;
//! (b) the crossover — GraphZeppelin's footprint grows with `V·log²V` while
//! the explicit systems grow with `E = Θ(V²)` on dense graphs, so beyond
//! some scale GraphZeppelin wins. At the paper's 64 GB budget the crossover
//! fell between kron17 and kron18; at reproduction scale we measure the
//! curves directly and extrapolate with each system's measured bytes/edge.
//! [`run`] checks the projection's crossovers against the paper's and
//! returns the verdict as `repro`'s exit code.

use crate::harness::{fmt_bytes, Scale, Table};
use graph_zeppelin::size_model::gz_sketch_bytes;
use gz_baselines::{AspenLike, DynamicGraphSystem, TerraceLike};

/// Whether GraphZeppelin's `gz` bytes are below a baseline's: each table
/// says against whom, since the two crossovers fall at different scales.
fn smaller(gz: u64, baseline: u64) -> String {
    if gz < baseline { "yes" } else { "not yet" }.into()
}

/// Whether a projection row for kron`kron` has the paper's shape:
/// GraphZeppelin below Terrace-like from kron15 on and not at kron13, below
/// Aspen-like at kron18 and not at or below kron16 (kron17 either way: the
/// paper's Aspen crossover falls between kron17 and kron18).
fn paper_shape(kron: u32, below_terrace: bool, below_aspen: bool) -> bool {
    let aspen = match kron {
        18 => below_aspen,
        17 => true,
        _ => !below_aspen,
    };
    below_terrace == (kron >= 15) && aspen
}

/// Per-dataset measured memory plus paper-scale projection; true if the
/// projection has the paper's shape (`paper_shape`: both crossovers).
pub fn run(scale: Scale) -> bool {
    println!("== Figure 11: memory footprint, Aspen-like vs Terrace-like vs GraphZeppelin ==\n");
    let mut t = Table::new(&[
        "dataset",
        "edges",
        "aspen-like",
        "terrace-like",
        "graphzeppelin",
        "< terrace-like?",
        "< aspen-like?",
    ]);

    let mut aspen_bpe = 5.0f64; // measured below, defaults conservative
    let mut terrace_bpe = 25.0f64;

    for s in scale.kron_scales() {
        let dataset = gz_stream::Dataset::kron(s);
        let edges = dataset.generate(7);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.u(), e.v())).collect();

        let mut aspen = AspenLike::new(dataset.num_vertices as usize);
        aspen.batch_insert(&pairs);
        let mut terrace = TerraceLike::new(dataset.num_vertices as usize);
        terrace.batch_insert(&pairs);

        let gz = gz_sketch_bytes(dataset.num_vertices);
        let (a, tr) = (aspen.memory_bytes() as u64, terrace.memory_bytes() as u64);
        aspen_bpe = a as f64 / edges.len() as f64;
        terrace_bpe = tr as f64 / edges.len() as f64;

        t.row(vec![
            dataset.name.clone(),
            format!("{:.2e}", edges.len() as f64),
            fmt_bytes(a),
            fmt_bytes(tr),
            fmt_bytes(gz),
            smaller(gz, tr),
            smaller(gz, a),
        ]);
    }
    t.print();

    println!(
        "\nprojection to paper scale (aspen {aspen_bpe:.1} B/edge, terrace \
         {terrace_bpe:.1} B/edge measured; GZ from the exact sketch model):\n"
    );
    let mut p = Table::new(&[
        "dataset",
        "aspen-like",
        "terrace-like",
        "graphzeppelin",
        "< terrace-like?",
        "< aspen-like?",
    ]);
    let mut holds = true;
    for s in [13u32, 15, 16, 17, 18] {
        let d = gz_stream::Dataset::kron(s);
        let a = (d.nominal_edges as f64 * aspen_bpe) as u64;
        let tr = (d.nominal_edges as f64 * terrace_bpe) as u64;
        let gz = gz_sketch_bytes(d.num_vertices);
        holds &= paper_shape(s, gz < tr, gz < a);
        p.row(vec![
            d.name.clone(),
            fmt_bytes(a),
            fmt_bytes(tr),
            fmt_bytes(gz),
            smaller(gz, tr),
            smaller(gz, a),
        ]);
    }
    p.print();
    println!(
        "\npaper shape: GZ smaller than Terrace from kron15, smaller than Aspen\n\
         by kron17/kron18 (space budget 32-64 GiB crossover): {}.\n",
        if holds { "holds" } else { "FAILS" }
    );
    holds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gz_memory_independent_of_density() {
        // The headline property: GZ's footprint depends on V only.
        let v = 1u64 << 12;
        assert_eq!(gz_sketch_bytes(v), gz_sketch_bytes(v));
        // Explicit systems grow with E: a denser graph costs Aspen more.
        let sparse = gz_stream::gnp::gnm_edges(512, 2_000, 3);
        let dense = gz_stream::gnp::gnm_edges(512, 60_000, 3);
        let mut a1 = AspenLike::new(512);
        a1.batch_insert(&sparse.iter().map(|e| (e.u(), e.v())).collect::<Vec<_>>());
        let mut a2 = AspenLike::new(512);
        a2.batch_insert(&dense.iter().map(|e| (e.u(), e.v())).collect::<Vec<_>>());
        assert!(a2.memory_bytes() > 5 * a1.memory_bytes());
    }

    #[test]
    fn the_paper_shape_is_both_crossovers() {
        // The paper's rows: Terrace lost from kron15, Aspen only at kron18.
        let paper = |k: u32| (k >= 15, k == 18);
        assert!([13, 15, 16, 17, 18].iter().all(|&k| paper_shape(k, paper(k).0, paper(k).1)));
        assert!(paper_shape(17, true, true), "Aspen may fall at kron17 already");
        assert!(!paper_shape(13, true, false), "GZ below Terrace at kron13");
        assert!(!paper_shape(15, false, false), "GZ not below Terrace at kron15");
        assert!(!paper_shape(16, true, true), "GZ below Aspen at kron16");
        assert!(!paper_shape(18, true, false), "GZ not below Aspen at kron18");
    }

    #[test]
    fn runs() {
        assert!(run(Scale::Small));
    }

    #[test]
    fn crossover_exists_at_paper_scale() {
        // With ~4-6 B/edge for Aspen and dense kron graphs, GZ must win by
        // kron18 and must NOT win at kron13 — the paper's crossover shape.
        let bpe = 4.0;
        let k13 = gz_stream::Dataset::kron(13);
        let k18 = gz_stream::Dataset::kron(18);
        assert!(gz_sketch_bytes(k13.num_vertices) as f64 > k13.nominal_edges as f64 * bpe);
        assert!((gz_sketch_bytes(k18.num_vertices) as f64) < k18.nominal_edges as f64 * bpe);
    }
}
