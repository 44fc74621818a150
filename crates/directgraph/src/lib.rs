//! # directgraph — the DirectGraph GNN storage format (paper §IV-A, §VI)
//!
//! DirectGraph is BeaconGNN's key software contribution: a graph layout in
//! which every neighbor reference is a **flash physical address**, so that
//! once the host supplies the primary-section addresses of a mini-batch's
//! target nodes, all further addressing happens inside the SSD with no
//! filesystem, NVMe-stack, or FTL translation — which is what unlocks
//! out-of-order, streaming neighbor sampling.
//!
//! The format (Fig 8 of the paper):
//!
//! * The graph is serialized into **primary** and **secondary pages**,
//!   aligned to physical flash pages.
//! * Each page holds one or more variable-length **sections**. A node's
//!   primary section carries its metadata, feature vector, the addresses
//!   of its secondary sections, and as many neighbor addresses as fit;
//!   overflow neighbors live in secondary sections.
//! * A neighbor reference is a 4-byte [`PhysAddr`]: 28 bits of flash page
//!   index + 4 bits of in-page section index for a 1 TB SSD with 4 KB
//!   pages (larger pages shift bits from page to slot index — see
//!   [`AddrLayout`]).
//! * Low-degree nodes' primary sections are compacted, several to a page
//!   (the paper's "linked array" compaction).
//!
//! This crate provides the byte-exact layout ([`layout`]), Algorithm 1
//! construction ([`build`]) and its inverse, which reads the graph back
//! out of the pages ([`decode`]), an in-memory page store standing in
//! for the flash array ([`PageStore`]), the section parser used by the
//! modeled die-level sampler ([`image`]), the firmware security
//! validation of §VI-E ([`verify`]), and the Table IV storage-inflation
//! accounting ([`inflation`]).
//!
//! ## Example
//!
//! ```
//! use beacon_graph::{Dataset, DatasetSpec};
//! use directgraph::{build::DirectGraphBuilder, AddrLayout};
//!
//! let spec = DatasetSpec::preset(Dataset::Ogbn).at_scale(500);
//! let graph = spec.build_graph(7);
//! let feats = spec.build_features(7);
//! let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
//!     .build(&graph, &feats)
//!     .unwrap();
//! // Every node is reachable through its primary-section address.
//! let target = beacon_graph::NodeId::new(0);
//! let addr = dg.directory().primary_addr(target).unwrap();
//! let section = dg.image().parse_section(addr).unwrap();
//! assert_eq!(section.node(), target);
//! ```

pub mod addr;
pub mod build;
pub mod decode;
pub mod image;
pub mod inflation;
pub mod layout;
pub mod serial;
pub mod verify;

pub use addr::{AddrLayout, PageIndex, PhysAddr};
pub use build::{BuildError, DirectGraph, DirectGraphBuilder, NodeDirectory};
pub use decode::DecodeError;
pub use image::{PageStore, PrimaryView, SecondaryView, Section, SectionParseError, SectionView};
pub use inflation::InflationReport;
pub use serial::LoadError;
pub use verify::{ValidationError, Validator};
