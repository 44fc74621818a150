//! # simkit — deterministic discrete-event simulation kernel
//!
//! `simkit` provides the primitives that every timing model in the
//! BeaconGNN reproduction is built on:
//!
//! * [`SimTime`] / [`Duration`] — nanosecond-resolution simulated time,
//!   as newtypes so wall-clock and simulated time can never be confused.
//! * [`Calendar`] — a monotonic event calendar (priority queue) with
//!   deterministic FIFO tie-breaking for events scheduled at the same
//!   instant.
//! * [`rng`] — seedable, portable pseudo-random number generators
//!   (SplitMix64 and xoshiro256**). Simulations never touch OS entropy,
//!   so identical configurations replay identically.
//! * [`par`] — deterministic build-time parallelism: fixed-boundary
//!   chunking over scoped worker threads, byte-identical at any thread
//!   count.
//! * [`sync`] — conservative-lookahead primitives for partitioned
//!   event loops: epoch-window horizon math and a deterministically
//!   ordered cross-partition message pool.
//! * [`stats`] — streaming min/max/mean summaries, snapshotted into
//!   metric reports.
//! * [`resource`] — first-come-first-served serial and bandwidth
//!   resources with queueing-delay accounting.
//! * [`obs`] — sim-time observability: unit-keyed spans, Chrome
//!   trace-event export (Perfetto-loadable), and deterministic
//!   per-run metric reports with stable field ordering.
//!
//! ## Example
//!
//! ```
//! use simkit::{Calendar, SimTime, Duration};
//!
//! let mut cal: Calendar<&'static str> = Calendar::new();
//! cal.schedule(SimTime::ZERO + Duration::from_us(3), "read done");
//! cal.schedule(SimTime::ZERO + Duration::from_us(1), "issue");
//! let (t, ev) = cal.pop().unwrap();
//! assert_eq!(ev, "issue");
//! assert_eq!(t, SimTime::from_ns(1_000));
//! ```

pub mod calendar;
pub mod obs;
pub mod par;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use calendar::{Calendar, PoolStats};
pub use obs::latency::{ChainTable, LatencyHistogram, LatencyReport, PathAttr, QueryLat, Stage};
pub use obs::{
    ChromeTraceWriter, MetricValue, MetricsRegistry, Section, Span, SpanRecorder, UnitKind,
};
pub use resource::{BandwidthResource, SerialResource};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use sync::{EpochWindow, MessagePool};
pub use time::{Duration, SimTime};
