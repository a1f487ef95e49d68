//! The evaluation dataset catalog (paper §6.1, Figure 10).
//!
//! Declares every dataset the paper evaluates on, plus scaled-down kron
//! variants for laptop-scale reproduction. The four real-world graphs are
//! *synthetic stand-ins* with matched node/edge counts (see DESIGN.md §3:
//! the paper uses them only to validate correctness on sparse / skewed
//! shapes, which the stand-ins preserve).

use crate::gnp::gnm_edges;
use crate::kronecker::KroneckerGenerator;
use crate::preferential::preferential_attachment_edges;
use crate::streamify::{streamify, StreamifyConfig, StreamifyResult};
use gz_graph::Edge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How a dataset's edge set is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneratorSpec {
    /// Dense stochastic-Kronecker graph on `2^scale` vertices.
    Kronecker {
        /// log2 of the vertex count.
        scale: u32,
        /// Target edge density (fraction of `C(V,2)`).
        density: f64,
    },
    /// Uniform `G(n, m)` random graph.
    ErdosRenyi {
        /// Vertex count.
        nodes: u64,
        /// Exact edge count.
        edges: u64,
    },
    /// Preferential-attachment (heavy-tailed) graph.
    Preferential {
        /// Vertex count.
        nodes: u64,
        /// Approximate edge count.
        edges: u64,
    },
    /// One path through every vertex, in an order drawn from the seed, and
    /// closed into a cycle when `closed`: the longest diameter a connected
    /// graph on `nodes` vertices can have, which is what makes Borůvka run
    /// the most rounds.
    Path {
        /// Vertex count.
        nodes: u64,
        /// Join the path's ends.
        closed: bool,
    },
}

/// A named evaluation dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Catalog name (paper Figure 10 names where applicable).
    pub name: String,
    /// Vertex universe size.
    pub num_vertices: u64,
    /// Edge count the paper reports (or targets, for generated graphs).
    pub nominal_edges: u64,
    /// Generator.
    pub spec: GeneratorSpec,
}

impl Dataset {
    /// The paper's kron dataset at a given scale: `2^scale` vertices with
    /// half of all possible edges.
    pub fn kron(scale: u32) -> Self {
        let v = 1u64 << scale;
        Dataset {
            name: format!("kron{scale}"),
            num_vertices: v,
            nominal_edges: gz_graph::edge_index_count(v) / 2,
            spec: GeneratorSpec::Kronecker { scale, density: 0.5 },
        }
    }

    /// Generate the edge set, deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> Vec<Edge> {
        match self.spec {
            GeneratorSpec::Kronecker { scale, density } => {
                KroneckerGenerator::new(scale, density, seed).edges()
            }
            GeneratorSpec::ErdosRenyi { nodes, edges } => gnm_edges(nodes, edges, seed),
            GeneratorSpec::Preferential { nodes, edges } => {
                preferential_attachment_edges(nodes, edges, seed)
            }
            GeneratorSpec::Path { nodes, closed } => path_edges(nodes, closed, seed),
        }
    }

    /// Generate the dataset and convert it into an update stream
    /// (the full §6.1 pipeline).
    pub fn stream(&self, seed: u64, config: &StreamifyConfig) -> StreamifyResult {
        let edges = self.generate(seed);
        streamify(self.num_vertices, &edges, config)
    }

    /// Approximate density (fraction of possible edges).
    pub fn density(&self) -> f64 {
        gz_graph::stats::density(self.num_vertices, self.nominal_edges)
    }
}

/// The Figure 10 kron datasets (full paper scale). Generating kron16–18
/// requires the paper's workstation budget; the default repro scale uses
/// [`scaled_kron_datasets`].
pub fn paper_kron_datasets() -> Vec<Dataset> {
    [13u32, 15, 16, 17, 18].into_iter().map(Dataset::kron).collect()
}

/// Scaled-down kron datasets for laptop-scale reproduction: same generator
/// and density, smaller scales. Shape comparisons (who wins, crossovers)
/// are preserved.
pub fn scaled_kron_datasets(max_scale: u32) -> Vec<Dataset> {
    (8..=max_scale).step_by(2).map(Dataset::kron).collect()
}

/// Stand-ins for the paper's four real-world graphs (Figure 10 dimensions).
pub fn real_world_standins() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "p2p-gnutella".into(),
            num_vertices: 63_000,
            nominal_edges: 150_000,
            spec: GeneratorSpec::ErdosRenyi { nodes: 63_000, edges: 150_000 },
        },
        Dataset {
            name: "rec-amazon".into(),
            num_vertices: 92_000,
            nominal_edges: 130_000,
            spec: GeneratorSpec::ErdosRenyi { nodes: 92_000, edges: 130_000 },
        },
        Dataset {
            name: "google-plus".into(),
            num_vertices: 110_000,
            nominal_edges: 14_000_000,
            spec: GeneratorSpec::Preferential { nodes: 110_000, edges: 14_000_000 },
        },
        Dataset {
            name: "web-uk".into(),
            num_vertices: 130_000,
            nominal_edges: 12_000_000,
            spec: GeneratorSpec::Preferential { nodes: 130_000, edges: 12_000_000 },
        },
    ]
}

/// Scaled-down stand-ins with the same *shape* (density, skew) as the
/// real-world graphs, sized for fast tests.
pub fn tiny_standins() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "p2p-gnutella-tiny".into(),
            num_vertices: 630,
            nominal_edges: 1_500,
            spec: GeneratorSpec::ErdosRenyi { nodes: 630, edges: 1_500 },
        },
        Dataset {
            name: "rec-amazon-tiny".into(),
            num_vertices: 920,
            nominal_edges: 1_300,
            spec: GeneratorSpec::ErdosRenyi { nodes: 920, edges: 1_300 },
        },
        Dataset {
            name: "google-plus-tiny".into(),
            num_vertices: 1_100,
            nominal_edges: 140_000,
            spec: GeneratorSpec::Preferential { nodes: 1_100, edges: 140_000 },
        },
        Dataset {
            name: "web-uk-tiny".into(),
            num_vertices: 1_300,
            nominal_edges: 120_000,
            spec: GeneratorSpec::Preferential { nodes: 1_300, edges: 120_000 },
        },
    ]
}

/// A path and a cycle through `nodes` vertices: the long-diameter shapes,
/// which need the most Borůvka rounds.
pub fn long_diameter_datasets(nodes: u64) -> Vec<Dataset> {
    [("path", false), ("cycle", true)]
        .into_iter()
        .map(|(shape, closed)| Dataset {
            name: format!("{shape}{nodes}"),
            num_vertices: nodes,
            nominal_edges: nodes - 1 + closed as u64,
            spec: GeneratorSpec::Path { nodes, closed },
        })
        .collect()
}

/// The edges of a path visiting all `n` vertices in a uniformly random order
/// (Fisher–Yates from `seed`), plus the edge joining its ends when `closed`.
fn path_edges(n: u64, closed: bool, seed: u64) -> Vec<Edge> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut edges: Vec<Edge> = order.windows(2).map(|w| Edge::new(w[0], w[1])).collect();
    if closed && n > 2 {
        edges.push(Edge::new(order[0], order[order.len() - 1]));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_diameter_datasets_visit_every_vertex_once() {
        for d in long_diameter_datasets(64) {
            let edges = d.generate(5);
            assert_eq!(edges.len() as u64, d.nominal_edges, "{}", d.name);
            assert_ne!(edges, d.generate(6), "{}: the order follows the seed", d.name);
            let mut degree = vec![0u32; 64];
            for e in &edges {
                degree[e.u() as usize] += 1;
                degree[e.v() as usize] += 1;
            }
            let ends = degree.iter().filter(|&&d| d == 1).count();
            assert!(degree.iter().all(|&d| d == 1 || d == 2), "{}: {degree:?}", d.name);
            assert_eq!(ends, if d.name.starts_with("path") { 2 } else { 0 }, "{}", d.name);
        }
    }

    #[test]
    fn kron_names_and_density() {
        let d = Dataset::kron(13);
        assert_eq!(d.name, "kron13");
        assert_eq!(d.num_vertices, 1 << 13);
        assert!((d.density() - 0.5).abs() < 0.01);
    }

    #[test]
    fn paper_catalog_matches_figure10_nodes() {
        let names: Vec<(String, u64)> =
            paper_kron_datasets().into_iter().map(|d| (d.name, d.num_vertices)).collect();
        assert_eq!(
            names,
            vec![
                ("kron13".to_string(), 1 << 13),
                ("kron15".to_string(), 1 << 15),
                ("kron16".to_string(), 1 << 16),
                ("kron17".to_string(), 1 << 17),
                ("kron18".to_string(), 1 << 18),
            ]
        );
    }

    #[test]
    fn small_kron_generates_and_streams() {
        let d = Dataset::kron(8);
        let edges = d.generate(1);
        let possible = gz_graph::edge_index_count(d.num_vertices) as f64;
        let density = edges.len() as f64 / possible;
        assert!((0.4..0.6).contains(&density), "density {density}");

        let r = d.stream(1, &StreamifyConfig::default());
        assert!(r.updates.len() >= edges.len());
    }

    #[test]
    fn standins_generate_with_roughly_right_size() {
        for d in tiny_standins() {
            let edges = d.generate(3);
            let got = edges.len() as f64;
            let want = d.nominal_edges as f64;
            assert!(
                (0.8 * want..=1.05 * want + 10.0).contains(&got),
                "{}: got {got} want ~{want}",
                d.name
            );
        }
    }

    #[test]
    fn figure10_real_world_dims() {
        let dims: Vec<(String, u64, u64)> = real_world_standins()
            .into_iter()
            .map(|d| (d.name, d.num_vertices, d.nominal_edges))
            .collect();
        assert_eq!(dims[0], ("p2p-gnutella".to_string(), 63_000, 150_000));
        assert_eq!(dims[3], ("web-uk".to_string(), 130_000, 12_000_000));
    }
}
