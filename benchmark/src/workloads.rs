//! The four workloads: what each one feeds the system and why.
//!
//! Everything here is a function of `--seed`; the system under test only
//! ever sees the stream file (batch workloads) or frames cut from it
//! (`serve_durable`).

use gz_stream::streamify::StreamifyConfig;
use gz_stream::{Dataset, EdgeUpdate, GeneratorSpec};

/// Graph Workers (`num_workers` / `--workers`) of every system under test.
/// The reference host has two cores: two workers plus one driver thread.
pub const WORKERS: usize = 2;

/// Updates per `UpdateBatch` frame, and per timed hand-over of updates to
/// an in-process system.
pub const BATCH_UPDATES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GzConfig::in_ram`: leaf gutters, batch kernel, RAM store (with
    /// `sketch_threshold` set, mostly exact sparse sets).
    BatchRam,
    /// `GzConfig::on_disk`: gutter tree and `DiskStore`, 8× its own cache.
    BatchDisk,
    /// A real `gz serve --dir` child fed over a Unix socket.
    Serve,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    dataset: Dataset,
    churn_prob: f64,
    /// `connected_components()` calls per pass, evenly spaced (batch kinds).
    pub queries: usize,
    /// `sketch_threshold` of the system under test.
    pub sketch_threshold: u32,
}

/// Both kron13 workloads read the same file: the whole stream of a graph on
/// kron13's 8192 vertices, from kron13's generator, at a fifth of kron13's
/// density (≈3.7 M updates instead of ≈14.6 M). The full-density stream on
/// the disk store takes one run's whole budget for a single sample, and
/// generating it three times takes another; this one leaves the disk workload
/// three timed passes a run and the RAM workload five to take medians over.
const KRON13_DENSITY: f64 = 0.1;

pub const NAMES: [&str; 4] = ["kron13_ram", "kron13_disk", "sparse_churn", "serve_durable"];

impl Workload {
    /// The workload called `name`; `smoke` shrinks it to a format check
    /// whose numbers are not for claims.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        let kron = |scale: u32| Dataset::kron(if smoke { 9 } else { scale });
        let kron13 = || {
            let full = kron(13);
            Dataset {
                nominal_edges: (full.nominal_edges as f64 * KRON13_DENSITY / 0.5) as u64,
                spec: GeneratorSpec::Kronecker {
                    scale: full.num_vertices.ilog2(),
                    density: KRON13_DENSITY,
                },
                ..full
            }
        };
        let default_churn = StreamifyConfig::default().churn_prob;
        Some(match name {
            "kron13_ram" => Workload {
                name: "kron13_ram",
                kind: Kind::BatchRam,
                why: "kron13 stream at a fifth of its density, from file into GzConfig::in_ram: gutters, \
                      batch kernel and RAM store do the work; disk store, WAL and wire do none",
                dataset: kron13(),
                churn_prob: default_churn,
                queries: 2,
                sketch_threshold: 0,
            },
            "kron13_disk" => Workload {
                name: "kron13_disk",
                kind: Kind::BatchDisk,
                why: "same file into GzConfig::on_disk (store 8x its cache): gutter-tree I/O, \
                      io_backend and writeback dominate while the kernel's share shrinks",
                dataset: kron13(),
                churn_prob: default_churn,
                queries: 2,
                sketch_threshold: 0,
            },
            "sparse_churn" => {
                let (nodes, edges) = if smoke { (2048, 25_000) } else { (16_384, 200_000) };
                Workload {
                    name: "sparse_churn",
                    kind: Kind::BatchRam,
                    why: "preferential-attachment graph under heavy churn, sketch_threshold 64: \
                          most vertices stay exact sets, hubs promote, query time dominates",
                    dataset: Dataset {
                        name: "pa".into(),
                        num_vertices: nodes,
                        nominal_edges: edges,
                        spec: GeneratorSpec::Preferential { nodes, edges },
                    },
                    churn_prob: 0.8,
                    queries: 4,
                    sketch_threshold: 64,
                }
            }
            "serve_durable" => Workload {
                name: "serve_durable",
                kind: Kind::Serve,
                why: "real gz serve --dir daemon over a Unix socket: wire codec, ingest lock, \
                      WAL fsync, forced flush at seal, epoch fold and reply encode are on the path",
                dataset: kron(12),
                churn_prob: default_churn,
                queries: 0,
                sketch_threshold: 0,
            },
            _ => return None,
        })
    }

    pub fn num_nodes(&self) -> u64 {
        self.dataset.num_vertices
    }

    /// The workload's update stream for `seed`: graph and shuffle both
    /// derive from it.
    pub fn generate(&self, seed: u64) -> Vec<EdgeUpdate> {
        let config = StreamifyConfig { seed, churn_prob: self.churn_prob, ..Default::default() };
        self.dataset.stream(seed, &config).updates
    }

    /// Update counts after which a batch workload asks for components: the
    /// end of every `1/queries` of the stream.
    pub fn query_offsets(&self, num_updates: usize) -> Vec<usize> {
        (1..=self.queries).map(|k| num_updates * k / self.queries).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_resolves_and_offsets_end_at_the_stream_end() {
        for name in NAMES {
            let w = Workload::named(name, true).unwrap();
            assert_eq!(w.name, name);
            assert!(!w.why.contains('\n') && w.why.len() <= 200);
        }
        assert!(Workload::named("kron14_ram", false).is_none());
        let w = Workload::named("kron13_ram", false).unwrap();
        assert_eq!(w.query_offsets(1005), vec![502, 1005]);
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let w = Workload::named("sparse_churn", true).unwrap();
        assert_eq!(w.generate(7), w.generate(7));
        assert_ne!(w.generate(7), w.generate(8));
    }
}
