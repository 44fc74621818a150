//! # beacon-graph — graph substrate for the BeaconGNN reproduction
//!
//! Provides everything the paper's data-preparation stage consumes:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency, the canonical
//!   in-memory graph representation (§II-A of the paper).
//! * [`generate`] — deterministic synthetic graph generators (uniform and
//!   Chung-Lu power-law), used to stand in for the paper's scaled-up
//!   PyTorch-Geometric datasets (see DESIGN.md, substitutions).
//! * [`DatasetSpec`] — presets for the five evaluation workloads of the
//!   paper's Table III (reddit, amazon, movielens, OGBN, PPI) carrying
//!   average degree, feature dimensionality and the paper-reported raw
//!   sizes used in the Table IV inflation experiment.
//! * [`FeatureTable`] — fixed-dimension FP16-sized node feature vectors
//!   with deterministic synthetic content.
//! * [`minibatch`] — mini-batch target-node streams.
//!
//! ## Example
//!
//! ```
//! use beacon_graph::{Dataset, DatasetSpec};
//!
//! let spec = DatasetSpec::preset(Dataset::Amazon).at_scale(10_000);
//! let graph = spec.build_graph(42);
//! assert_eq!(graph.num_nodes(), 10_000);
//! assert!(graph.avg_degree() > 1.0);
//! ```

pub mod csr;
pub mod datasets;
pub mod features;
pub mod generate;
pub mod io;
pub mod minibatch;
pub mod partition;

pub use csr::{Adjacency, CsrError, CsrGraph, CsrGraphBuilder, NodeId};
pub use datasets::{Dataset, DatasetSpec};
pub use features::FeatureTable;
pub use minibatch::MinibatchStream;
pub use partition::Partition;
