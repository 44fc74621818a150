//! Security validation of DirectGraph images (paper §VI-E).
//!
//! DirectGraph bypasses the host filesystem and the FTL, so the firmware
//! must keep customized commands from touching regular storage. The
//! paper's defense is three-layered, and [`Validator`] implements the
//! first two (the third — runtime header checks — lives in the modeled
//! die sampler, which refuses sections that fail to parse):
//!
//! 1. **At flush time**: every write destination and every section
//!    address embedded in page contents must fall inside the blocks
//!    allocated to this DirectGraph.
//! 2. **At mini-batch start**: the primary-section addresses of received
//!    target nodes must point into allocated blocks and at primary
//!    sections.

use std::fmt;

use beacon_graph::NodeId;

use crate::addr::{PageIndex, PhysAddr};
use crate::build::DirectGraph;
use crate::image::Section;

/// A §VI-E validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An embedded address points outside the DirectGraph allocation.
    AddressOutOfBounds {
        source_page: PageIndex,
        addr: PhysAddr,
    },
    /// A target address supplied by the host does not parse as a section.
    TargetUnparsable { node: NodeId, addr: PhysAddr },
    /// A target address parses, but not to a primary section of the
    /// claimed node.
    TargetMismatch { node: NodeId, addr: PhysAddr },
    /// A page failed to parse during flush-time verification.
    PageCorrupt { page: PageIndex, detail: String },
    /// A directory entry points at a page the image never wrote.
    DanglingDirectoryEntry { node: NodeId, addr: PhysAddr },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::AddressOutOfBounds { source_page, addr } => {
                write!(f, "page {source_page} embeds out-of-bounds address {addr}")
            }
            ValidationError::TargetUnparsable { node, addr } => {
                write!(f, "target {node} address {addr} does not parse")
            }
            ValidationError::TargetMismatch { node, addr } => {
                write!(
                    f,
                    "target {node} address {addr} resolves to a different section"
                )
            }
            ValidationError::PageCorrupt { page, detail } => {
                write!(f, "page {page} corrupt: {detail}")
            }
            ValidationError::DanglingDirectoryEntry { node, addr } => {
                write!(f, "{node}'s directory entry {addr} is unwritten")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Firmware-side validator for a DirectGraph image.
///
/// # Examples
///
/// ```
/// use beacon_graph::{DatasetSpec, Dataset, NodeId};
/// use directgraph::{build::DirectGraphBuilder, AddrLayout, Validator};
///
/// let spec = DatasetSpec::preset(Dataset::Ogbn).at_scale(200);
/// let (g, x) = (spec.build_graph(1), spec.build_features(1));
/// let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
///     .build(&g, &x).unwrap();
/// let validator = Validator::new(&dg);
/// assert!(validator.verify_image().is_ok());
/// let t = NodeId::new(0);
/// let addr = dg.directory().primary_addr(t).unwrap();
/// assert!(validator.verify_target(t, addr).is_ok());
/// ```
#[derive(Debug)]
pub struct Validator<'a> {
    dg: &'a DirectGraph,
}

impl<'a> Validator<'a> {
    /// Creates a validator over a DirectGraph image.
    pub fn new(dg: &'a DirectGraph) -> Self {
        Validator { dg }
    }

    /// Flush-time check: verifies that every directory entry points at
    /// a written page, then walks every written page and verifies that
    /// all embedded section addresses (inline neighbors, secondary
    /// pointers) stay within the allocated page set.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_image(&self) -> Result<(), ValidationError> {
        let layout = self.dg.layout();
        let directory = self.dg.directory();
        for i in 0..directory.len() {
            let node = NodeId::new(i as u32);
            let addr = directory.primary_addr(node).expect("index in range");
            if !self.dg.image().contains_page(layout.unpack(addr).0) {
                return Err(ValidationError::DanglingDirectoryEntry { node, addr });
            }
        }
        for (page_idx, _) in self.dg.image().iter_pages() {
            let sections = self.dg.image().parse_all_sections(page_idx).map_err(|e| {
                ValidationError::PageCorrupt {
                    page: page_idx,
                    detail: e.to_string(),
                }
            })?;
            for section in sections {
                let embedded: Vec<PhysAddr> = match &section {
                    Section::Primary(p) => p
                        .secondary_addrs
                        .iter()
                        .chain(p.inline_neighbors.iter())
                        .copied()
                        .collect(),
                    Section::Secondary(s) => s.neighbors.clone(),
                };
                for addr in embedded {
                    let (page, _) = layout.unpack(addr);
                    if !self.dg.image().contains_page(page) {
                        return Err(ValidationError::AddressOutOfBounds {
                            source_page: page_idx,
                            addr,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Mini-batch check: verifies a host-supplied target address points
    /// at the primary section of the claimed node.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] describing the violation.
    pub fn verify_target(&self, node: NodeId, addr: PhysAddr) -> Result<(), ValidationError> {
        let section = self
            .dg
            .image()
            .parse_section(addr)
            .map_err(|_| ValidationError::TargetUnparsable { node, addr })?;
        match section {
            Section::Primary(p) if p.node == node => Ok(()),
            _ => Err(ValidationError::TargetMismatch { node, addr }),
        }
    }

    /// Verifies a whole mini-batch of `(node, address)` targets.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_batch(
        &self,
        targets: impl IntoIterator<Item = (NodeId, PhysAddr)>,
    ) -> Result<(), ValidationError> {
        for (node, addr) in targets {
            self.verify_target(node, addr)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrLayout;
    use crate::build::DirectGraphBuilder;
    use beacon_graph::{generate, FeatureTable};

    fn small_dg() -> DirectGraph {
        let graph = generate::uniform(100, 8, 5);
        let features = FeatureTable::synthetic(100, 16, 5);
        DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &features)
            .unwrap()
    }

    #[test]
    fn well_formed_image_passes() {
        let dg = small_dg();
        assert!(Validator::new(&dg).verify_image().is_ok());
    }

    #[test]
    fn valid_batch_passes() {
        let dg = small_dg();
        let validator = Validator::new(&dg);
        let batch: Vec<_> = (0..10)
            .map(|i| {
                let v = NodeId::new(i);
                (v, dg.directory().primary_addr(v).unwrap())
            })
            .collect();
        assert!(validator.verify_batch(batch).is_ok());
    }

    #[test]
    fn bogus_target_address_rejected() {
        let dg = small_dg();
        let validator = Validator::new(&dg);
        let bogus = dg.layout().pack(PageIndex::new(999_999), 0);
        let err = validator.verify_target(NodeId::new(0), bogus).unwrap_err();
        assert!(matches!(err, ValidationError::TargetUnparsable { .. }));
    }

    #[test]
    fn mismatched_target_node_rejected() {
        let dg = small_dg();
        let validator = Validator::new(&dg);
        // Claim node 0 but hand node 1's address.
        let addr1 = dg.directory().primary_addr(NodeId::new(1)).unwrap();
        let err = validator.verify_target(NodeId::new(0), addr1).unwrap_err();
        assert!(matches!(err, ValidationError::TargetMismatch { .. }));
        assert!(err.to_string().contains("different section"));
    }

    #[test]
    fn tampered_page_detected() {
        let mut dg = small_dg();
        // Corrupt an inline-neighbor address in page 0 to point far away.
        let layout = dg.layout();
        let (page_idx, _) = layout.unpack(dg.directory().primary_addr(NodeId::new(0)).unwrap());
        let mut page = dg.image().read_page(page_idx).unwrap().to_vec();
        // The first primary section's last 4 bytes are an inline addr;
        // find section length and stomp the tail.
        let len = u16::from_le_bytes([page[2], page[3]]) as usize;
        let evil = layout.pack(PageIndex::new(1 << 20), 0);
        page[len - 4..len].copy_from_slice(&evil.to_raw().to_le_bytes());
        dg.image_mut().write_page(page_idx, page.into_boxed_slice());
        let err = Validator::new(&dg).verify_image().unwrap_err();
        assert!(matches!(err, ValidationError::AddressOutOfBounds { .. }));
    }
}
