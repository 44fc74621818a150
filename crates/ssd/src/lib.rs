//! # beacon-ssd — the SSD controller substrate (paper §II-B2, §V-B, §VI-A/E/F)
//!
//! Everything between the host interface and the flash dies:
//!
//! * [`config`] — the full device configuration (Table II defaults plus
//!   every Fig 18 sensitivity knob) and the firmware/host cost model.
//! * [`ftl`] — a page-mapped flash translation layer with greedy garbage
//!   collection, per-block P/E accounting, and the §VI-A reserved-block
//!   interface that pins DirectGraph blocks outside regular allocation
//!   and GC.
//! * [`router`] — the channel-level command router of §V-B: per-die
//!   dispatch queues, a round-robin command issuer, and the crossbar
//!   routing function that sends sampling commands to their destination
//!   channel/die without firmware involvement.
//! * [`reliability`] — the §VI-F firmware loops: periodic data scrubbing
//!   of DirectGraph blocks and wear-leveling reclamation that migrates
//!   DirectGraph to fresh blocks, rewriting every embedded physical
//!   address.
//!
//! The §VI-D firmware GNN engine — preparation of one mini-batch
//! pipelined with computation of the previous one over two DRAM buffer
//! halves — is timed by the batch pipeline in `beacon-platforms`, which
//! every engine there runs.

pub mod bitmap;
pub mod config;
pub mod ftl;
pub mod host;
pub mod nvme;
pub mod reliability;
pub mod router;

pub use bitmap::BlockBitmap;
pub use config::{FabricConfig, FirmwareCosts, HostCosts, SsdConfig};
pub use ftl::{BlockId, Ftl, FtlError, FtlStats, Ppa};
pub use host::{HostAdapter, HostError};
pub use nvme::{NvmeCommand, QueuePair, TargetRecord};
pub use reliability::{ReclamationOutcome, ScrubReport, Scrubber};
pub use router::{CommandRouter, RouterStats};
