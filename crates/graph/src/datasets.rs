//! Evaluation-workload presets (paper Table III / Table IV).
//!
//! The paper adopts five large-scale GNN workloads taken from PyTorch
//! Geometric and scaled up following SmartSage's methodology, reaching
//! 30–400 GB raw size. This module records the per-dataset parameters
//! that drive the simulation — average degree, feature dimensionality,
//! degree skew — together with the paper-reported raw sizes used by the
//! Table IV inflation experiment, and synthesizes graphs with those
//! characteristics at simulation scale (see DESIGN.md, substitutions).

use crate::csr::{CsrGraph, NodeId};
use crate::features::{FeatureTable, FEATURE_SCALAR_BYTES};
use crate::generate::{PowerLawConfig, PowerLawWiring};

/// Mixed into the synthesis seed for a spec's features, so they draw
/// from other streams than a plain [`FeatureTable::synthetic`] table
/// under the same seed.
const FEATURE_SEED_SALT: u64 = 0xFEA7;

/// The five evaluation workloads of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Social-network graph; very high degree, high-dimensional features.
    Reddit,
    /// E-commerce co-purchase graph; the paper calls its average degree
    /// and feature length "representative in common large-scale GNNs" and
    /// uses it for all single-workload experiments.
    Amazon,
    /// Recommendation graph (user–item ratings in the paper); this
    /// preset synthesizes a power-law graph like the others. Short
    /// features.
    Movielens,
    /// Citation graph (OGBN); low average degree (28), the Table IV
    /// inflation outlier.
    Ogbn,
    /// Protein-protein interaction graph; high-dimensional features.
    Ppi,
}

impl Dataset {
    /// All five workloads in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Reddit,
        Dataset::Amazon,
        Dataset::Movielens,
        Dataset::Ogbn,
        Dataset::Ppi,
    ];

    /// Lowercase display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Reddit => "reddit",
            Dataset::Amazon => "amazon",
            Dataset::Movielens => "movielens",
            Dataset::Ogbn => "OGBN",
            Dataset::Ppi => "PPI",
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters describing a workload; drives graph synthesis and the
/// analytic Table IV inflation model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which preset this spec was derived from.
    pub dataset: Dataset,
    /// Number of nodes to synthesize at simulation scale.
    pub num_nodes: usize,
    /// Target average degree (paper-scale characteristic).
    pub avg_degree: f64,
    /// Node feature dimensionality (Table III).
    pub feature_dim: usize,
    /// Power-law exponent of the degree distribution.
    pub degree_exponent: f64,
    /// Paper-reported raw dataset size in GB (Table IV, for reporting).
    pub paper_raw_gb: f64,
}

impl DatasetSpec {
    /// The preset for `dataset` at the default simulation scale
    /// (100k nodes).
    ///
    /// Average degrees and feature dimensions follow the characteristics
    /// the paper states or implies: OGBN's degree of 28 is given in
    /// §VII-F; reddit/PPI are called out as high-feature-dimension and
    /// movielens/OGBN as short-feature workloads in §VII-B; raw sizes are
    /// Table IV's.
    pub fn preset(dataset: Dataset) -> Self {
        let (avg_degree, feature_dim, exponent, paper_raw_gb) = match dataset {
            Dataset::Reddit => (492.0, 602, 2.1, 242.6),
            Dataset::Amazon => (168.0, 200, 2.2, 397.2),
            Dataset::Movielens => (96.0, 32, 2.3, 221.8),
            Dataset::Ogbn => (28.0, 32, 2.4, 30.02),
            Dataset::Ppi => (28.3, 500, 2.4, 37.1),
        };
        DatasetSpec {
            dataset,
            num_nodes: 100_000,
            avg_degree,
            feature_dim,
            degree_exponent: exponent,
            paper_raw_gb,
        }
    }

    /// Returns the spec scaled to `num_nodes` nodes (degree and feature
    /// shape unchanged).
    pub fn at_scale(mut self, num_nodes: usize) -> Self {
        self.num_nodes = num_nodes;
        self
    }

    /// Synthesizes the graph for this spec: the CSR of
    /// [`wiring`](Self::wiring).
    pub fn build_graph(&self, seed: u64) -> CsrGraph {
        self.wiring(seed).to_csr()
    }

    /// The graph of [`build_graph`](Self::build_graph) before it is
    /// wired: each node's neighbor list is drawn on demand, and no CSR
    /// is built.
    pub fn wiring(&self, seed: u64) -> PowerLawWiring {
        let mut cfg = PowerLawConfig::new(self.num_nodes, self.avg_degree);
        cfg.exponent = self.degree_exponent;
        PowerLawWiring::new(&cfg, seed ^ fnv(self.dataset.name()))
    }

    /// Synthesizes the feature table for this spec.
    pub fn build_features(&self, seed: u64) -> FeatureTable {
        FeatureTable::synthetic(self.num_nodes, self.feature_dim, seed ^ FEATURE_SEED_SALT)
    }

    /// Writes node `v`'s row of [`build_features`](Self::build_features)
    /// into `out` (`feature_dim` scalars), without building the table.
    pub fn feature_row(&self, seed: u64, v: NodeId, out: &mut [f32]) {
        FeatureTable::synthetic_row(seed ^ FEATURE_SEED_SALT, v.index(), out);
    }

    /// Bytes of one feature vector at FP-16 width.
    pub fn feature_bytes(&self) -> usize {
        self.feature_dim * FEATURE_SCALAR_BYTES
    }

    /// Raw (un-inflated) storage of a graph with these characteristics:
    /// neighbor lists at 4 B per edge endpoint plus the feature table.
    /// Used as the denominator of the Table IV inflation ratio.
    pub fn raw_bytes(&self, num_nodes: usize) -> u64 {
        let edges = (num_nodes as f64 * self.avg_degree) as u64;
        edges * 4 + (num_nodes * self.feature_bytes()) as u64
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build() {
        for d in Dataset::ALL {
            let spec = DatasetSpec::preset(d).at_scale(5_000);
            let g = spec.build_graph(1);
            assert_eq!(g.num_nodes(), 5_000, "{d}");
            let rel_err = (g.avg_degree() - spec.avg_degree).abs() / spec.avg_degree;
            assert!(rel_err < 0.15, "{d}: avg degree off by {rel_err}");
        }
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["reddit", "amazon", "movielens", "OGBN", "PPI"]);
    }

    #[test]
    fn ogbn_is_the_low_degree_outlier() {
        let degrees: Vec<f64> = Dataset::ALL
            .iter()
            .map(|&d| DatasetSpec::preset(d).avg_degree)
            .collect();
        let ogbn = DatasetSpec::preset(Dataset::Ogbn).avg_degree;
        assert!(degrees.iter().all(|&d| d >= ogbn));
    }

    #[test]
    fn feature_bytes_fp16() {
        let spec = DatasetSpec::preset(Dataset::Reddit);
        assert_eq!(spec.feature_bytes(), 1204);
    }

    #[test]
    fn raw_bytes_scales_linearly() {
        let spec = DatasetSpec::preset(Dataset::Amazon);
        let r1 = spec.raw_bytes(1_000);
        let r2 = spec.raw_bytes(2_000);
        assert!(r2 > r1 && r2 < r1 * 21 / 10, "expected ~2x growth");
    }

    #[test]
    fn distinct_datasets_get_distinct_graphs() {
        let a = DatasetSpec::preset(Dataset::Ogbn)
            .at_scale(1_000)
            .build_graph(1);
        let b = DatasetSpec::preset(Dataset::Ppi)
            .at_scale(1_000)
            .build_graph(1);
        assert_ne!(a, b);
    }

    #[test]
    fn features_match_dims() {
        let spec = DatasetSpec::preset(Dataset::Movielens).at_scale(100);
        let t = spec.build_features(7);
        assert_eq!(t.dim(), 32);
        assert_eq!(t.num_nodes(), 100);
    }
}
