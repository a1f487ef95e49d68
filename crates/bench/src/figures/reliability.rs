//! §6.3: GraphZeppelin is reliable — and how much of the sketch that takes.
//!
//! The paper runs 1000 correctness checks per dataset (kron17 plus the four
//! real-world graphs) against an adjacency-matrix mirror and observes zero
//! failures despite the algorithm's nonzero failure probability. This module
//! reruns that protocol with two axes, columns and rounds: every trial uses
//! fresh sketch randomness, replays a stream into GraphZeppelin at each
//! `(columns, τ)` cell and into a bit-matrix, and compares partitions at
//! several checkpoints, where the one flushed state is queried under every
//! round budget of the axis. Beside the paper's one number (wrong answers)
//! each cell reports what §6.3 only asserts: the per-sketch failure rate δ as
//! measured inside real queries, and how far into each round budget the
//! queries went to absorb it.

use crate::harness::{dataset_workload, Scale, Table};
use graph_zeppelin::boruvka::{boruvka_rounds_with_pool, BoruvkaOutcome};
use graph_zeppelin::config::{default_rounds, log2_rounds, paper_rounds, SLACK_ROUNDS};
use graph_zeppelin::{GraphZeppelin, GzConfig, GzError, StoreRoundSource};
use gz_graph::connectivity::same_partition;
use gz_graph::AdjacencyMatrix;
use gz_gutters::WorkerPool;
use gz_sketch::geometry::{DEFAULT_COLUMNS, PAPER_COLUMNS};
use gz_stream::{Dataset, UpdateKind};

/// Column counts swept: one, two, the shipped default's neighbourhood, and
/// the paper's.
const COLUMN_AXIS: [u32; 5] = [1, 2, 3, 4, PAPER_COLUMNS];

/// Hybrid thresholds swept: always-dense, and a τ that leaves the sparse
/// stand-ins' vertices as exact sets and promotes the dense ones mid-stream,
/// so promotion-by-replay is under the same check.
const THRESHOLD_AXIS: [u32; 2] = [0, 64];

/// Where the shipped budget sits in [`round_budgets`].
const SHIPPED: usize = SLACK_ROUNDS as usize;

/// The round budgets swept for `V` vertices: `⌈log₂ V⌉ + k` for `k` in
/// `0..=SLACK_ROUNDS`, the last of which is the shipped [`default_rounds`],
/// then the paper's `⌈log_{3/2} V⌉`, which none exceeds.
pub fn round_budgets(num_vertices: u64) -> Vec<u32> {
    let (log2, paper) = (log2_rounds(num_vertices), paper_rounds(num_vertices));
    (0..=SLACK_ROUNDS).map(|k| (log2 + k).min(paper)).chain([paper]).collect()
}

/// How one round budget fared over a cell's checks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BudgetReport {
    /// Most rounds a query under this budget may run.
    pub rounds: u32,
    /// Queries that answered with the wrong partition (expected: 0 — a
    /// checksum collision, not a sampling failure).
    pub wrong_partitions: usize,
    /// Queries that ran out of rounds ([`GzError::AlgorithmFailure`]).
    pub out_of_rounds: usize,
    /// Most Borůvka rounds any one query used.
    pub max_rounds_used: usize,
}

impl BudgetReport {
    /// Count one query's outcome against the ground truth; returns the
    /// rounds it used.
    fn tally(&mut self, outcome: &Result<BoruvkaOutcome, GzError>, truth: &[u32]) -> usize {
        let rounds_used = match outcome {
            Ok(outcome) => {
                self.wrong_partitions += !same_partition(&outcome.labels, truth) as usize;
                outcome.rounds_used
            }
            Err(GzError::AlgorithmFailure { rounds_used, .. }) => {
                self.out_of_rounds += 1;
                *rounds_used
            }
            Err(e) => panic!("query failed outside the algorithm: {e}"),
        };
        self.max_rounds_used = self.max_rounds_used.max(rounds_used);
        rounds_used
    }

    /// True when no query was wrong and none ran out of rounds.
    pub fn clean(&self) -> bool {
        self.wrong_partitions == 0 && self.out_of_rounds == 0
    }

    /// Both runs of a row under one budget: counts summed, maximum kept.
    fn and(&self, other: &BudgetReport) -> BudgetReport {
        BudgetReport {
            rounds: self.rounds,
            wrong_partitions: self.wrong_partitions + other.wrong_partitions,
            out_of_rounds: self.out_of_rounds + other.out_of_rounds,
            max_rounds_used: self.max_rounds_used.max(other.max_rounds_used),
        }
    }
}

/// One `(columns, τ)` cell of one dataset's trial sweep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// CubeSketch columns the cell ran with.
    pub columns: u32,
    /// Hybrid threshold τ the cell ran with.
    pub threshold: u32,
    /// Checks executed (checkpoints × trials).
    pub checks: usize,
    /// Sketch queries that failed and cost their component a round, at the
    /// shipped budget.
    pub sketch_failures: usize,
    /// Sketch queries of a non-empty cut at the shipped budget;
    /// `sketch_failures / sketch_samples` is the measured δ.
    pub sketch_samples: usize,
    /// The checks under each of [`round_budgets`], in its order.
    pub budgets: Vec<BudgetReport>,
    /// Queries at the shipped budget by rounds used: entry `r` counts the
    /// ones that used `r` (a query out of rounds counts at the budget).
    pub rounds_used: Vec<usize>,
}

impl CellReport {
    /// Measured per-sketch failure rate.
    pub fn delta(&self) -> f64 {
        self.sketch_failures as f64 / self.sketch_samples.max(1) as f64
    }

    /// The checks under the budget a default-configured system provisions.
    pub fn shipped(&self) -> &BudgetReport {
        &self.budgets[SHIPPED]
    }

    /// True when, at the shipped budget, no query was wrong and none ran out
    /// of rounds.
    pub fn clean(&self) -> bool {
        self.shipped().clean()
    }
}

/// Run `trials` correctness trials of one dataset at every `(columns, τ)`
/// cell. A trial's stream and its ground truth are generated once and shared
/// by the cells; each cell gets sketch randomness fresh to the trial.
///
/// Every cell's system is built at the paper's round count, the deepest
/// budget, and each check queries its flushed store under every budget of
/// [`round_budgets`]. Round `r` hashes under the same seed whatever the round
/// count, so a query capped at `b` rounds reads exactly the bits a system
/// provisioned with `b` rounds holds, and answers as that system would.
pub fn trial_sweep(
    dataset: &Dataset,
    trials: usize,
    checkpoints: usize,
    cells: &[(u32, u32)],
) -> Vec<CellReport> {
    let num_vertices = dataset.num_vertices;
    let budgets = round_budgets(num_vertices);
    assert_eq!(budgets[SHIPPED], default_rounds(num_vertices));
    let deepest = paper_rounds(num_vertices);
    let mut reports: Vec<CellReport> = cells
        .iter()
        .map(|&(columns, threshold)| CellReport {
            columns,
            threshold,
            budgets: budgets
                .iter()
                .map(|&rounds| BudgetReport { rounds, ..Default::default() })
                .collect(),
            ..CellReport::default()
        })
        .collect();
    let pool = WorkerPool::new(2);
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
            config.num_rounds = Some(deepest);
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
                gz.flush();
                let query = |rounds: u32| {
                    let mut source = StoreRoundSource::new(gz.store());
                    boruvka_rounds_with_pool(&mut source, num_vertices, rounds as usize, &pool)
                };
                // A query that finished within `b` rounds never read round
                // `b`, so its outcome is the outcome under budget `b` too:
                // only budgets below what the deepest query used run again.
                let deepest_outcome = query(deepest);
                let reruns: Vec<_> = budgets
                    .iter()
                    .map(|&b| match &deepest_outcome {
                        Ok(o) if o.rounds_used <= b as usize => None,
                        _ => Some(query(b)),
                    })
                    .collect();
                let outcome = |i: usize| reruns[i].as_ref().unwrap_or(&deepest_outcome);
                for (i, budget) in report.budgets.iter_mut().enumerate() {
                    let used = budget.tally(outcome(i), truth);
                    if i == SHIPPED {
                        let histogram = &mut report.rounds_used;
                        histogram.resize(histogram.len().max(used + 1), 0);
                        histogram[used] += 1;
                    }
                }
                if let Ok(shipped) = outcome(SHIPPED) {
                    report.sketch_failures += shipped.sketch_failures;
                    report.sketch_samples += shipped.sketch_samples;
                }
            }
        }
    }
    reports
}

/// Run the reliability experiment. Returns false if any query answered with
/// a wrong partition under any budget, or if one ran out of rounds at the
/// shipped budget and the shipped column count or above (the one- and
/// two-column rows and the smaller budgets are there to show where the
/// budget stops absorbing δ, and may).
pub fn run(scale: Scale) -> bool {
    println!(
        "== §6.3 reliability: columns and round budgets vs adjacency-matrix ground truth ==\n"
    );
    let trials = scale.reliability_trials();
    let mut datasets = vec![Dataset::kron(match scale {
        Scale::Small => 7,
        Scale::Medium => 9,
    })];
    datasets.extend(gz_stream::catalog::tiny_standins());
    datasets.extend(gz_stream::catalog::long_diameter_datasets(match scale {
        Scale::Small => 1 << 10,
        Scale::Medium => 1 << 12,
    }));
    let cells: Vec<(u32, u32)> =
        COLUMN_AXIS.iter().flat_map(|&c| THRESHOLD_AXIS.map(|tau| (c, tau))).collect();

    let mut rows = Vec::new();
    for d in &datasets {
        // `cells` lists each column count's dense run, then its hybrid one.
        let mut reports = trial_sweep(d, trials, 4, &cells).into_iter();
        while let (Some(dense), Some(hybrid)) = (reports.next(), reports.next()) {
            rows.push((d, dense, hybrid));
        }
    }
    rows.sort_by_key(|(_, dense, _)| dense.columns); // stable: datasets keep their order

    let columns_label = |c: u32| match c {
        c if c == DEFAULT_COLUMNS => format!("{c} (default)"),
        c if c == PAPER_COLUMNS => format!("{c} (paper)"),
        c => format!("{c}"),
    };
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
    for (d, dense, hybrid) in &rows {
        let shipped = dense.shipped().and(hybrid.shipped());
        checks += dense.checks + hybrid.checks;
        wrong +=
            dense.budgets.iter().chain(&hybrid.budgets).map(|b| b.wrong_partitions).sum::<usize>();
        failures += shipped.out_of_rounds;
        if dense.columns >= DEFAULT_COLUMNS {
            gated_failures += shipped.out_of_rounds;
        }
        // Promotion-by-replay builds the bits an always-dense run holds, so
        // the hybrid run's queries should count exactly what the dense run's
        // did; the row carries the dense counts and says so.
        let same = CellReport { threshold: hybrid.threshold, ..dense.clone() } == *hybrid;
        t.row(vec![
            columns_label(dense.columns),
            d.name.clone(),
            format!("{}", dense.checks + hybrid.checks),
            format!("{}", shipped.wrong_partitions),
            format!("{}", shipped.out_of_rounds),
            format!("{} / {}", dense.sketch_failures, dense.sketch_samples),
            format!("{:.2}%", 100.0 * dense.delta()),
            format!("{} / {}", shipped.max_rounds_used, shipped.rounds),
            if same { "same counts".into() } else { format!("differs: {hybrid:?}") },
        ]);
    }
    t.print();
    println!(
        "\n{trials} trials per (columns, dataset, tau), {checks} checks in all, each queried \
         under every round budget below: {wrong} wrong partitions; at the shipped budget \
         {failures} queries out of rounds, {gated_failures} of them at {DEFAULT_COLUMNS} columns \
         or more (paper: 0 failures in 5000 trials at {PAPER_COLUMNS} columns; the bound is \
         1/V^c).\n"
    );

    // The round-budget axis: the same checks, capped at each budget.
    let mut budget_headers: Vec<String> = (0..=SLACK_ROUNDS)
        .map(|k| match k {
            SLACK_ROUNDS => format!("log2 V + {k} (shipped)"),
            k => format!("log2 V + {k}"),
        })
        .collect();
    budget_headers.push("paper log1.5 V".into());
    let mut headers = vec!["columns", "dataset"];
    headers.extend(budget_headers.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for (d, dense, hybrid) in &rows {
        let mut row = vec![columns_label(dense.columns), d.name.clone()];
        for (a, b) in dense.budgets.iter().zip(&hybrid.budgets) {
            let budget = a.and(b);
            let mut cell = format!("{} / {}", budget.max_rounds_used, budget.rounds);
            if budget.out_of_rounds > 0 {
                cell += &format!(", {} out", budget.out_of_rounds);
            }
            if budget.wrong_partitions > 0 {
                cell += &format!(", {} wrong", budget.wrong_partitions);
            }
            row.push(cell);
        }
        t.row(row);
    }
    println!("max rounds used / round budget, and queries out of rounds, per budget:\n");
    t.print();

    // Per dataset: the margin the shipped budget keeps over the smallest
    // clean one at the shipped column count or above, and how many rounds
    // the shipped geometry's queries used.
    println!(
        "\nper dataset: smallest k with no query out of rounds at >= {DEFAULT_COLUMNS} columns \
         (shipped k = {SLACK_ROUNDS}), and queries by rounds used at {DEFAULT_COLUMNS} columns \
         (tau 0, shipped budget)\n"
    );
    for d in &datasets {
        let gated = rows
            .iter()
            .filter(|(row, dense, _)| row.name == d.name && dense.columns >= DEFAULT_COLUMNS)
            .flat_map(|(_, dense, hybrid)| [dense, hybrid]);
        let clean_k = (0..=SHIPPED).find(|&k| gated.clone().all(|cell| cell.budgets[k].clean()));
        let default = gated.clone().find(|cell| cell.columns == DEFAULT_COLUMNS);
        let used: Vec<String> = default
            .map(|cell| &cell.rounds_used[..])
            .unwrap_or_default()
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(rounds, n)| format!("{rounds}: {n}"))
            .collect();
        println!(
            "{:<18}  k = {}  margin {}  rounds used {{{}}}",
            d.name,
            clean_k.map_or("none".into(), |k| k.to_string()),
            clean_k.map_or("-".into(), |k| (SHIPPED - k).to_string()),
            used.join(", ")
        );
    }
    println!();
    wrong == 0 && gated_failures == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_climb_from_log2_to_the_papers() {
        assert_eq!(round_budgets(128), [7, 8, 9, 10, 12]);
        assert_eq!(round_budgets(8192), [13, 14, 15, 16, 23]);
        // Where the paper's count is the smaller, no budget exceeds it.
        assert_eq!(round_budgets(16), [4, 5, 6, 7, 7]);
    }

    #[test]
    fn small_sweep_never_fails() {
        let d = Dataset::kron(6);
        let reports = trial_sweep(&d, 5, 3, &[(1, 0), (DEFAULT_COLUMNS, 0), (DEFAULT_COLUMNS, 8)]);
        for r in &reports {
            assert!(r.clean(), "observed sketch-connectivity failures: {r:?}");
            assert!(r.checks >= 15);
            assert!(r.sketch_samples > 0 && r.shipped().max_rounds_used > 0, "{r:?}");
            assert_eq!(r.rounds_used.iter().sum::<usize>(), r.checks, "{r:?}");
            assert_eq!(r.rounds_used.len(), r.shipped().max_rounds_used + 1, "{r:?}");
            // A budget never changes an answer, only whether one comes back.
            assert!(r.budgets.iter().all(|b| b.wrong_partitions == 0), "{r:?}");
            // More rounds never fail more queries.
            assert!(r.budgets.windows(2).all(|w| w[0].out_of_rounds >= w[1].out_of_rounds));
        }
        // Same streams in every cell: one column fails an order of magnitude
        // more often than the default, whatever the seed.
        assert!(reports[0].sketch_failures >= reports[1].sketch_failures, "{reports:?}");
    }
}
