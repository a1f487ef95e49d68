//! Integration-level reliability trials (§6.3, scaled down for CI).

use gz_bench::figures::reliability::{trial_sweep, CellReport};
use gz_sketch::geometry::DEFAULT_COLUMNS;
use gz_stream::Dataset;

/// One dataset at the shipped geometry, always-dense.
fn default_cell(dataset: &Dataset, trials: usize, checkpoints: usize) -> CellReport {
    trial_sweep(dataset, trials, checkpoints, &[(DEFAULT_COLUMNS, 0)]).remove(0)
}

#[test]
fn kron_trials_zero_failures() {
    let report = default_cell(&Dataset::kron(7), 6, 3);
    assert!(report.clean(), "{report:?}");
    // 3 checkpoints per trial, plus possibly one end-of-stream check when
    // the stream length is not a checkpoint multiple.
    assert!((18..=24).contains(&report.checks), "{report:?}");
}

#[test]
fn sparse_standin_trials_zero_failures() {
    let d = gz_stream::catalog::tiny_standins().remove(0);
    let report = default_cell(&d, 4, 3);
    assert!(report.clean(), "{report:?}");
}

#[test]
fn dense_powerlaw_standin_trials_zero_failures() {
    // The densest stand-in (google-plus shape) exercises heavy skew.
    let d = gz_stream::catalog::tiny_standins()
        .into_iter()
        .find(|d| d.name.starts_with("google"))
        .unwrap();
    // Shrink further for CI cost: density is what matters.
    let d = Dataset {
        name: d.name,
        num_vertices: 300,
        nominal_edges: 9000,
        spec: gz_stream::GeneratorSpec::Preferential { nodes: 300, edges: 9000 },
    };
    let report = default_cell(&d, 4, 3);
    assert!(report.clean(), "{report:?}");
}
