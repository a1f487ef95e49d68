//! §6.3: GraphZeppelin is reliable — and how much of the sketch that takes.
//!
//! The paper runs 1000 correctness checks per dataset (kron17 plus the four
//! real-world graphs) against an adjacency-matrix mirror and observes zero
//! failures despite the algorithm's nonzero failure probability. This module
//! reruns that protocol with the column count as an axis: every trial uses
//! fresh sketch randomness, replays a stream into GraphZeppelin at each
//! `(columns, τ)` cell and into a bit-matrix, and compares partitions at
//! several checkpoints. Beside the paper's one number (wrong answers) each
//! cell reports what §6.3 only asserts: the per-sketch failure rate δ as
//! measured inside real queries, and how far into the round budget the
//! queries went to absorb it.

use crate::harness::{dataset_workload, Scale, Table};
use graph_zeppelin::{GraphZeppelin, GzConfig, GzError};
use gz_graph::connectivity::same_partition;
use gz_graph::AdjacencyMatrix;
use gz_sketch::geometry::{DEFAULT_COLUMNS, PAPER_COLUMNS};
use gz_stream::{Dataset, UpdateKind};

/// Column counts swept: one, two, the shipped default's neighbourhood, and
/// the paper's.
const COLUMN_AXIS: [u32; 5] = [1, 2, 3, 4, PAPER_COLUMNS];

/// Hybrid thresholds swept: always-dense, and a τ that leaves the sparse
/// stand-ins' vertices as exact sets and promotes the dense ones mid-stream,
/// so promotion-by-replay is under the same check.
const THRESHOLD_AXIS: [u32; 2] = [0, 64];

/// One `(columns, τ)` cell of one dataset's trial sweep.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CellReport {
    /// CubeSketch columns the cell ran with.
    pub columns: u32,
    /// Hybrid threshold τ the cell ran with.
    pub threshold: u32,
    /// Checks executed (checkpoints × trials).
    pub checks: usize,
    /// Queries that answered with the wrong partition (expected: 0 — a
    /// checksum collision, not a sampling failure).
    pub wrong_partitions: usize,
    /// Queries that ran out of rounds ([`GzError::AlgorithmFailure`]).
    pub algorithm_failures: usize,
    /// Sketch queries that failed and cost their component a round.
    pub sketch_failures: usize,
    /// Sketch queries of a non-empty cut; `sketch_failures / sketch_samples`
    /// is the measured δ.
    pub sketch_samples: usize,
    /// Most Borůvka rounds any one query used.
    pub max_rounds_used: usize,
    /// Rounds every vertex is provisioned with (`⌈log_{3/2} V⌉`).
    pub rounds_provisioned: u32,
}

impl CellReport {
    /// Measured per-sketch failure rate.
    pub fn delta(&self) -> f64 {
        self.sketch_failures as f64 / self.sketch_samples.max(1) as f64
    }

    /// True when no query was wrong and none ran out of rounds.
    pub fn clean(&self) -> bool {
        self.wrong_partitions == 0 && self.algorithm_failures == 0
    }
}

/// Run `trials` correctness trials of one dataset at every `(columns, τ)`
/// cell. A trial's stream and its ground truth are generated once and shared
/// by the cells; each cell gets sketch randomness fresh to the trial.
pub fn trial_sweep(
    dataset: &Dataset,
    trials: usize,
    checkpoints: usize,
    cells: &[(u32, u32)],
) -> Vec<CellReport> {
    let mut reports: Vec<CellReport> = cells
        .iter()
        .map(|&(columns, threshold)| CellReport {
            columns,
            threshold,
            rounds_provisioned: graph_zeppelin::config::default_rounds(dataset.num_vertices),
            ..CellReport::default()
        })
        .collect();
    for trial in 0..trials as u64 {
        let w = dataset_workload(dataset, 1000 + trial);
        let step = (w.updates.len() / checkpoints).max(1);
        let is_check = |i: usize| (i + 1).is_multiple_of(step) || i + 1 == w.updates.len();

        let mut mirror = AdjacencyMatrix::new(w.num_nodes);
        let mut truths = Vec::new();
        for (i, upd) in w.updates.iter().enumerate() {
            mirror.toggle(upd.edge());
            if is_check(i) {
                truths.push(mirror.connected_components());
            }
        }

        for report in &mut reports {
            let mut config = GzConfig::in_ram(w.num_nodes);
            config.seed = 0xBEEF_0000 ^ trial; // fresh sketch randomness per trial
            config.num_workers = 2;
            config.num_columns = report.columns;
            config.sketch_threshold = report.threshold;
            let mut gz = GraphZeppelin::new(config).unwrap();
            let mut truth = truths.iter();
            for (i, upd) in w.updates.iter().enumerate() {
                gz.update(upd.u, upd.v, upd.kind == UpdateKind::Delete);
                if !is_check(i) {
                    continue;
                }
                let truth = truth.next().expect("one ground truth per checkpoint");
                report.checks += 1;
                match gz.spanning_forest() {
                    Ok(outcome) => {
                        if !same_partition(&outcome.labels, truth) {
                            report.wrong_partitions += 1;
                        }
                        report.sketch_failures += outcome.sketch_failures;
                        report.sketch_samples += outcome.sketch_samples;
                        report.max_rounds_used = report.max_rounds_used.max(outcome.rounds_used);
                    }
                    Err(GzError::AlgorithmFailure { rounds_used, .. }) => {
                        report.algorithm_failures += 1;
                        report.max_rounds_used = report.max_rounds_used.max(rounds_used);
                    }
                    Err(e) => panic!("{}: query failed outside the algorithm: {e}", w.name),
                }
            }
        }
    }
    reports
}

/// Run the reliability experiment. Returns false if any query answered with
/// a wrong partition, or if one ran out of rounds at the shipped column count
/// or above (the one- and two-column rows are there to show where the round
/// budget stops absorbing δ, and may).
pub fn run(scale: Scale) -> bool {
    println!("== §6.3 reliability: columns vs adjacency-matrix ground truth ==\n");
    let trials = scale.reliability_trials();
    let mut datasets = vec![Dataset::kron(match scale {
        Scale::Small => 7,
        Scale::Medium => 9,
    })];
    datasets.extend(gz_stream::catalog::tiny_standins());
    let cells: Vec<(u32, u32)> =
        COLUMN_AXIS.iter().flat_map(|&c| THRESHOLD_AXIS.map(|tau| (c, tau))).collect();

    let mut rows = Vec::new();
    for d in &datasets {
        // `cells` lists each column count's dense run, then its hybrid one.
        let mut reports = trial_sweep(d, trials, 4, &cells).into_iter();
        while let (Some(dense), Some(hybrid)) = (reports.next(), reports.next()) {
            rows.push((d.name.clone(), dense, hybrid));
        }
    }
    rows.sort_by_key(|(_, dense, _)| dense.columns); // stable: datasets keep their order

    let hybrid_header = format!("tau {} vs tau {}", THRESHOLD_AXIS[1], THRESHOLD_AXIS[0]);
    let mut t = Table::new(&[
        "columns",
        "dataset",
        "checks",
        "wrong",
        "out of rounds",
        "sketch failures / samples",
        "measured delta",
        "max rounds used / provisioned",
        &hybrid_header,
    ]);
    let (mut checks, mut wrong, mut failures, mut gated_failures) = (0, 0, 0, 0);
    for (name, dense, hybrid) in &rows {
        let out_of_rounds = dense.algorithm_failures + hybrid.algorithm_failures;
        checks += dense.checks + hybrid.checks;
        wrong += dense.wrong_partitions + hybrid.wrong_partitions;
        failures += out_of_rounds;
        if dense.columns >= DEFAULT_COLUMNS {
            gated_failures += out_of_rounds;
        }
        // Promotion-by-replay builds the bits an always-dense run holds, so
        // the hybrid run's queries should count exactly what the dense run's
        // did; the row carries the dense counts and says so.
        let same = CellReport { threshold: hybrid.threshold, ..*dense } == *hybrid;
        t.row(vec![
            match dense.columns {
                c if c == DEFAULT_COLUMNS => format!("{c} (default)"),
                c if c == PAPER_COLUMNS => format!("{c} (paper)"),
                c => format!("{c}"),
            },
            name.clone(),
            format!("{}", dense.checks + hybrid.checks),
            format!("{}", dense.wrong_partitions + hybrid.wrong_partitions),
            format!("{out_of_rounds}"),
            format!("{} / {}", dense.sketch_failures, dense.sketch_samples),
            format!("{:.2}%", 100.0 * dense.delta()),
            format!(
                "{} / {}",
                dense.max_rounds_used.max(hybrid.max_rounds_used),
                dense.rounds_provisioned
            ),
            if same { "same counts".into() } else { format!("differs: {hybrid:?}") },
        ]);
    }
    t.print();
    println!(
        "\n{trials} trials per (columns, dataset, tau), {checks} checks in all: {wrong} wrong \
         partitions; {failures} queries out of rounds, {gated_failures} of them at \
         {DEFAULT_COLUMNS} columns or more (paper: 0 failures in 5000 trials at {PAPER_COLUMNS} \
         columns; the bound is 1/V^c).\n"
    );
    wrong == 0 && gated_failures == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_never_fails() {
        let d = Dataset::kron(6);
        let reports = trial_sweep(&d, 5, 3, &[(1, 0), (DEFAULT_COLUMNS, 0), (DEFAULT_COLUMNS, 8)]);
        for r in &reports {
            assert!(r.clean(), "observed sketch-connectivity failures: {r:?}");
            assert!(r.checks >= 15);
            assert!(r.sketch_samples > 0 && r.max_rounds_used > 0, "{r:?}");
        }
        // Same streams in every cell: one column fails an order of magnitude
        // more often than the default, whatever the seed.
        assert!(reports[0].sketch_failures >= reports[1].sketch_failures, "{reports:?}");
    }
}
