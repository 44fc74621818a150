//! # beacon-platforms — the evaluated systems and their simulator
//!
//! This crate assembles the substrates (`beacon-flash`, `beacon-ssd`,
//! `beacon-accel`, `beacon-gnn`, `directgraph`) into the eight
//! end-to-end GNN acceleration systems the paper evaluates (§VII-A) and
//! simulates them with a unified discrete-event engine:
//!
//! * [`Platform`] / [`PlatformSpec`] — CC, SmartSage, GList, and the
//!   BG-1 → BG-2 ablation chain, expressed as feature flags.
//! * [`Engine`] — the event-driven data-preparation + compute pipeline
//!   (see [`engine`] docs for the stage diagram).
//! * [`PartitionedEngine`] — the same BG-2 pipeline as N per-channel
//!   event loops under conservative lookahead (see [`partition`]),
//!   with identical output at any worker-thread count.
//! * [`ArrayEngine`] — the simulated multi-SSD array (see [`array`](mod@array)):
//!   one device lane per SSD behind a partition-aware host router,
//!   with an explicit fabric cost model and the same determinism
//!   guarantee. Both lane engines run on one lane runtime,
//!   [`simkit::sync::run_lanes`].
//! * [`RunMetrics`] — throughput, stage/command latency breakdowns, hop
//!   timelines, die/channel utilization curves, and the energy ledger:
//!   the raw material for every figure in §VII.
//! * [`motivation`] — the standalone Fig 7a die-scaling experiment.
//!
//! ## Example
//!
//! ```
//! use beacon_graph::{generate, FeatureTable, NodeId};
//! use beacon_gnn::GnnModelConfig;
//! use beacon_platforms::{Engine, Platform};
//! use beacon_ssd::SsdConfig;
//! use directgraph::{build::DirectGraphBuilder, AddrLayout};
//!
//! let cfg = generate::PowerLawConfig::new(1_000, 20.0);
//! let graph = generate::power_law(&cfg, 1);
//! let feats = FeatureTable::synthetic(1_000, 64, 1);
//! let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
//!     .build(&graph, &feats).unwrap();
//!
//! let model = GnnModelConfig::paper_default(64);
//! let batch: Vec<NodeId> = (0..8).map(NodeId::new).collect();
//! let metrics = Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 42)
//!     .run(&[batch]);
//! assert!(metrics.throughput() > 0.0);
//! ```

pub mod array;
pub mod engine;
mod lane;
pub mod metrics;
pub mod motivation;
pub mod partition;
mod pipeline;
pub mod query;
pub mod replay;
pub mod spec;

pub use array::{
    ArrayCascade, ArrayConfig, ArrayEngine, ArrayRunMetrics, DeviceMetrics, FabricLinkMetrics,
};
pub use engine::{Engine, EngineScratch};
pub use metrics::{
    AccelOccupancy, CmdBreakdown, HopWindow, PoolCounters, RunMetrics, StageBreakdown,
    TimelineBuilder,
};
pub use partition::PartitionedEngine;
pub use query::{measure_query_latency, QueryLatency};
pub use replay::CascadeRecording;
pub use spec::{
    BackendControl, ComputeLocation, Platform, PlatformSpec, SamplingLocation, TransferGranularity,
};
