//! # beacongnn — reproduction of BeaconGNN (HPCA 2024)
//!
//! *"BeaconGNN: Large-Scale GNN Acceleration with Out-of-Order Streaming
//! In-Storage Computing"* — a software/hardware co-design that offloads
//! the entire GNN task (neighbor sampling, feature lookup, computation)
//! into an ultra-low-latency flash SSD, using:
//!
//! * **DirectGraph** — a graph format indexed by flash physical
//!   addresses ([`directgraph`]),
//! * **multi-level near-data processing** — die-level samplers
//!   ([`beacon_flash::sampler`]), channel-level command routers
//!   ([`beacon_ssd::router`]), and a bus-attached spatial accelerator
//!   ([`beacon_accel`]),
//! * **system support** — reserved-block FTL, security validation,
//!   scrubbing and wear-leveling reclamation ([`beacon_ssd`]).
//!
//! This crate is the user-facing facade: build a workload once with
//! [`Workload::builder`] + [`WorkloadBuilder::prepare`], run any of the
//! paper's eight platforms on it with [`Experiment::run`], fan whole
//! sweeps across cores deterministically with [`RunMatrix`] +
//! [`ParallelRunner`], and format paper-style comparison tables with
//! [`report`].
//!
//! ## Quickstart
//!
//! ```
//! use beacongnn::{Experiment, Platform, Workload};
//!
//! // A small amazon-like workload (the paper's default single-workload
//! // dataset), at test scale.
//! let workload = Workload::builder()
//!     .dataset(beacongnn::Dataset::Amazon)
//!     .nodes(2_000)
//!     .batch_size(32)
//!     .batches(2)
//!     .seed(42)
//!     .prepare()?;
//!
//! let cc = Experiment::new(&workload).run(Platform::Cc);
//! let bg2 = Experiment::new(&workload).run(Platform::Bg2);
//! assert!(bg2.throughput() > cc.throughput());
//! # Ok::<(), beacongnn::WorkloadError>(())
//! ```

pub mod diskcache;
pub mod matrix;
pub mod replaycache;
pub mod report;
pub mod runner;
pub mod workload;

pub use beacon_gnn::GnnModelConfig;
pub use beacon_graph::{Dataset, DatasetSpec, NodeId, Partition};
pub use beacon_platforms::{
    ArrayCascade, ArrayConfig, ArrayEngine, ArrayRunMetrics, CascadeRecording, Platform, RunMetrics,
};
pub use beacon_ssd::{FabricConfig, SsdConfig};
pub use matrix::{default_jobs, ParallelRunner, RunCell, RunMatrix, WorkloadCache};
pub use replaycache::{replay_key, ReplayCache, ReplayStats};
pub use runner::Experiment;
pub use workload::{Workload, WorkloadBuilder, WorkloadError};

// Re-export substrates for power users.
pub use beacon_accel as accel;
pub use beacon_energy as energy;
pub use beacon_flash as flash;
pub use beacon_platforms as platforms;
pub use beacon_ssd as ssd;
pub use directgraph;
pub use simkit;
