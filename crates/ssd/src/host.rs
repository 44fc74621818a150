//! The host-side DirectGraph manipulation interface (paper §VI-A).
//!
//! Before a GNN task, the host (1) fetches a list of reserved physical
//! blocks from the firmware, (2) converts the dataset to DirectGraph
//! and flushes it page-by-page into those blocks through customized
//! NVMe commands, and (3) kicks off mini-batches by shipping target
//! `(node, primary-section address)` records. The firmware enforces the
//! §VI-E security rules at each step: flush destinations must stay
//! inside the reserved blocks, embedded section addresses must stay
//! inside the DirectGraph region, and batch targets must resolve to
//! primary sections of the claimed nodes.
//!
//! [`HostAdapter`] drives the whole flow over a modeled NVMe queue pair
//! against the device's FTL and flash page store.

use std::fmt;

use beacon_graph::NodeId;
use directgraph::{DirectGraph, PageIndex, Validator};

use crate::ftl::{BlockId, Ftl, FtlError};
use crate::nvme::{NvmeCommand, QueuePair, TargetRecord};

/// Errors from the host interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The FTL rejected an operation.
    Ftl(FtlError),
    /// A flush targeted a page outside the reserved region.
    FlushOutOfBounds { ppa: u64 },
    /// Page contents embed an address outside the DirectGraph region.
    EmbeddedAddressOutOfBounds { page: u64 },
    /// A batch target failed firmware verification.
    BadTarget { node: NodeId },
    /// The device rejected a command (NVMe status != 0).
    DeviceStatus { status: u16 },
    /// The DirectGraph has not been flushed yet.
    NotFlushed,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Ftl(e) => write!(f, "ftl: {e}"),
            HostError::FlushOutOfBounds { ppa } => {
                write!(f, "flush destination ppa {ppa} outside reserved blocks")
            }
            HostError::EmbeddedAddressOutOfBounds { page } => {
                write!(f, "page {page} embeds an out-of-region address")
            }
            HostError::BadTarget { node } => write!(f, "target {node} failed verification"),
            HostError::DeviceStatus { status } => write!(f, "device returned status {status}"),
            HostError::NotFlushed => write!(f, "DirectGraph not flushed to device"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<FtlError> for HostError {
    fn from(e: FtlError) -> Self {
        HostError::Ftl(e)
    }
}

/// NVMe status code for a security-check rejection.
const STATUS_SECURITY: u16 = 0x1C0;

/// Drives DirectGraph setup and mini-batch launch over NVMe against a
/// device model (FTL + reserved blocks + firmware checks).
///
/// # Examples
///
/// ```
/// use beacon_flash::FlashGeometry;
/// use beacon_graph::{generate, FeatureTable, NodeId};
/// use beacon_ssd::{Ftl, HostAdapter};
/// use directgraph::{build::DirectGraphBuilder, AddrLayout};
///
/// let graph = generate::uniform(50, 4, 1);
/// let feats = FeatureTable::synthetic(50, 8, 1);
/// let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
///     .build(&graph, &feats).unwrap();
///
/// let geo = FlashGeometry { blocks_per_plane: 64, ..FlashGeometry::paper_default() };
/// let ftl = Ftl::new(&geo, 0.07);
/// let mut host = HostAdapter::new(ftl, geo.pages_per_block);
/// host.setup_directgraph(&dg).unwrap();
/// let addr = dg.directory().primary_addr(NodeId::new(0)).unwrap();
/// host.start_batch(&dg, &[(NodeId::new(0), addr)]).unwrap();
/// assert_eq!(host.batches_started(), 1);
/// ```
#[derive(Debug)]
pub struct HostAdapter {
    qp: QueuePair,
    ftl: Ftl,
    pages_per_block: usize,
    reserved: Vec<BlockId>,
    flushed_pages: u64,
    batches_started: u64,
}

impl HostAdapter {
    /// Creates an adapter over a device with the given FTL.
    pub fn new(ftl: Ftl, pages_per_block: usize) -> Self {
        HostAdapter {
            qp: QueuePair::new(64),
            ftl,
            pages_per_block,
            reserved: Vec::new(),
            flushed_pages: 0,
            batches_started: 0,
        }
    }

    /// The reserved DirectGraph blocks (empty before setup).
    pub fn reserved_blocks(&self) -> &[BlockId] {
        &self.reserved
    }

    /// Pages flushed so far.
    pub fn flushed_pages(&self) -> u64 {
        self.flushed_pages
    }

    /// Mini-batches launched so far.
    pub fn batches_started(&self) -> u64 {
        self.batches_started
    }

    /// Access to the device FTL (e.g. for wear statistics).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access (regular-I/O path shares the device).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Runs the full §VI-A setup: reserve blocks sized to the image,
    /// then flush every DirectGraph page with firmware-side validation.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] on reservation failure or any §VI-E
    /// security violation.
    pub fn setup_directgraph(&mut self, dg: &DirectGraph) -> Result<(), HostError> {
        let pages = dg.image().pages_written();
        let blocks_needed = pages.div_ceil(self.pages_per_block);
        self.reserve(blocks_needed as u32)?;
        // Flush-time validation of embedded addresses (§VI-E check 1):
        // run once over the image, as the firmware would per page.
        Validator::new(dg).verify_image().map_err(|e| match e {
            directgraph::ValidationError::AddressOutOfBounds { source_page, .. } => {
                HostError::EmbeddedAddressOutOfBounds {
                    page: source_page.as_u64(),
                }
            }
            // The entry is the target address the host would ship for
            // `node`, and it cannot verify.
            directgraph::ValidationError::DanglingDirectoryEntry { node, .. } => {
                HostError::BadTarget { node }
            }
            _ => HostError::NotFlushed,
        })?;
        let page_indices: Vec<PageIndex> = dg.image().iter_pages().map(|(i, _)| i).collect();
        for (i, _page_idx) in page_indices.iter().enumerate() {
            let ppa = self.ppa_of_flushed_page(i as u64);
            self.flush_one(ppa)?;
        }
        // One P/E cycle per reserved block for the program pass.
        for b in self.reserved.clone() {
            self.ftl.record_reserved_pe(b)?;
        }
        self.flushed_pages = pages as u64;
        Ok(())
    }

    /// Launches a mini-batch: verifies every `(node, address)` target
    /// against the image (§VI-E check 2) and ships the records.
    ///
    /// # Errors
    ///
    /// Returns [`HostError::BadTarget`] for the first invalid target,
    /// or [`HostError::NotFlushed`] before setup.
    pub fn start_batch(
        &mut self,
        dg: &DirectGraph,
        targets: &[(NodeId, directgraph::PhysAddr)],
    ) -> Result<(), HostError> {
        if self.flushed_pages == 0 {
            return Err(HostError::NotFlushed);
        }
        let validator = Validator::new(dg);
        for &(node, addr) in targets {
            if validator.verify_target(node, addr).is_err() {
                // The firmware rejects the whole batch command; the
                // expected non-zero status is folded into BadTarget.
                let _ = self.roundtrip(
                    NvmeCommand::StartBatch {
                        targets: targets.len() as u32,
                    },
                    false,
                );
                return Err(HostError::BadTarget { node });
            }
        }
        let records: Vec<TargetRecord> = targets
            .iter()
            .map(|&(node, addr)| TargetRecord {
                node: node.as_u32(),
                addr,
            })
            .collect();
        let _payload = TargetRecord::encode_batch(&records);
        self.roundtrip(
            NvmeCommand::StartBatch {
                targets: targets.len() as u32,
            },
            true,
        )?;
        self.batches_started += 1;
        Ok(())
    }

    /// Device PPA backing the `i`-th flushed DirectGraph page: pages
    /// fill the reserved blocks in order.
    pub fn ppa_of_flushed_page(&self, i: u64) -> u64 {
        let block = self.reserved[(i as usize) / self.pages_per_block];
        (block.index() * self.pages_per_block) as u64 + i % self.pages_per_block as u64
    }

    fn reserve(&mut self, count: u32) -> Result<(), HostError> {
        self.roundtrip(NvmeCommand::ReserveBlocks { count }, true)?;
        self.reserved = self.ftl.reserve_blocks(count as usize)?;
        Ok(())
    }

    fn flush_one(&mut self, ppa: u64) -> Result<(), HostError> {
        // §VI-E check 1a: destination must fall in a reserved block.
        let block = BlockId::new((ppa / self.pages_per_block as u64) as u32);
        if !self.ftl.is_reserved(block) {
            self.roundtrip(NvmeCommand::FlushPage { ppa }, false)?;
            return Err(HostError::FlushOutOfBounds { ppa });
        }
        self.roundtrip(NvmeCommand::FlushPage { ppa }, true)
    }

    /// Submits a command, lets the device consume it, posts and reaps
    /// the completion. `accept` selects the device's verdict.
    fn roundtrip(&mut self, cmd: NvmeCommand, accept: bool) -> Result<(), HostError> {
        let cid = self
            .qp
            .submit(cmd)
            .map_err(|_| HostError::DeviceStatus { status: 0xFFFF })?;
        let (popped, _) = self.qp.device_pop().expect("just submitted");
        debug_assert_eq!(popped, cid);
        let status = if accept { 0 } else { STATUS_SECURITY };
        self.qp
            .device_complete(cid, status)
            .map_err(|_| HostError::DeviceStatus { status: 0xFFFE })?;
        let completion = self.qp.host_reap().expect("just completed");
        if completion.status != 0 {
            return Err(HostError::DeviceStatus {
                status: completion.status,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_flash::FlashGeometry;
    use beacon_graph::{generate, FeatureTable};
    use directgraph::{build::DirectGraphBuilder, AddrLayout};

    fn build_dg(n: usize) -> DirectGraph {
        let graph = generate::uniform(n, 5, 2);
        let feats = FeatureTable::synthetic(n, 16, 2);
        DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &feats)
            .unwrap()
    }

    fn small_device() -> (Ftl, usize) {
        let geo = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 64,
            pages_per_block: 16,
            page_size: 4096,
        };
        (Ftl::new(&geo, 0.1), geo.pages_per_block)
    }

    #[test]
    fn full_setup_flow() {
        let dg = build_dg(200);
        let (ftl, ppb) = small_device();
        let mut host = HostAdapter::new(ftl, ppb);
        host.setup_directgraph(&dg).unwrap();
        assert_eq!(host.flushed_pages(), dg.image().pages_written() as u64);
        assert!(!host.reserved_blocks().is_empty());
        // Every reserved block took its program P/E cycle.
        assert!(host.ftl().avg_pe_reserved() >= 1.0);
    }

    #[test]
    fn batch_launch_with_valid_targets() {
        let dg = build_dg(100);
        let (ftl, ppb) = small_device();
        let mut host = HostAdapter::new(ftl, ppb);
        host.setup_directgraph(&dg).unwrap();
        let targets: Vec<_> = (0..8)
            .map(|i| {
                let v = NodeId::new(i);
                (v, dg.directory().primary_addr(v).unwrap())
            })
            .collect();
        host.start_batch(&dg, &targets).unwrap();
        assert_eq!(host.batches_started(), 1);
    }

    #[test]
    fn batch_before_flush_rejected() {
        let dg = build_dg(50);
        let (ftl, ppb) = small_device();
        let mut host = HostAdapter::new(ftl, ppb);
        let addr = dg.directory().primary_addr(NodeId::new(0)).unwrap();
        assert_eq!(
            host.start_batch(&dg, &[(NodeId::new(0), addr)]),
            Err(HostError::NotFlushed)
        );
    }

    #[test]
    fn mismatched_target_rejected() {
        let dg = build_dg(100);
        let (ftl, ppb) = small_device();
        let mut host = HostAdapter::new(ftl, ppb);
        host.setup_directgraph(&dg).unwrap();
        // Claim node 0 at node 1's address.
        let wrong = dg.directory().primary_addr(NodeId::new(1)).unwrap();
        let err = host
            .start_batch(&dg, &[(NodeId::new(0), wrong)])
            .unwrap_err();
        assert_eq!(
            err,
            HostError::BadTarget {
                node: NodeId::new(0)
            }
        );
        assert_eq!(host.batches_started(), 0);
    }

    #[test]
    fn bogus_target_address_rejected() {
        let dg = build_dg(100);
        let (ftl, ppb) = small_device();
        let mut host = HostAdapter::new(ftl, ppb);
        host.setup_directgraph(&dg).unwrap();
        let bogus = dg.layout().pack(PageIndex::new(500_000), 0);
        assert!(host.start_batch(&dg, &[(NodeId::new(0), bogus)]).is_err());
    }

    #[test]
    fn flush_ppa_mapping_stays_in_reserved_blocks() {
        let dg = build_dg(300);
        let (ftl, ppb) = small_device();
        let mut host = HostAdapter::new(ftl, ppb);
        host.setup_directgraph(&dg).unwrap();
        for i in 0..host.flushed_pages() {
            let ppa = host.ppa_of_flushed_page(i);
            let block = BlockId::new((ppa / ppb as u64) as u32);
            assert!(
                host.ftl().is_reserved(block),
                "page {i} -> {ppa} not reserved"
            );
        }
    }

    #[test]
    fn device_too_small_errors_cleanly() {
        let dg = build_dg(5_000);
        let geo = FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 4,
            pages_per_block: 4,
            page_size: 4096,
        };
        let mut host = HostAdapter::new(Ftl::new(&geo, 0.1), 4);
        let err = host.setup_directgraph(&dg).unwrap_err();
        assert!(matches!(
            err,
            HostError::Ftl(FtlError::ReservationTooLarge { .. })
        ));
    }
}
