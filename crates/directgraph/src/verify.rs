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
use crate::image::{PageStore, Section, SectionParseError};

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

/// The smallest and largest raw address embedded anywhere on `page`
/// (`lo > hi` if it embeds none), or `None` if a section does not
/// parse.
fn embedded_range(image: &PageStore, page: PageIndex) -> Option<(u32, u32)> {
    let (mut lo, mut hi) = (u32::MAX, 0);
    for section in image.sections(page).ok()? {
        for bytes in section.ok()?.view().ok()?.addr_bytes() {
            for word in bytes.chunks_exact(4) {
                let raw = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
                lo = lo.min(raw);
                hi = hi.max(raw);
            }
        }
    }
    Some((lo, hi))
}

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
    /// The walk costs one range test per page, not one lookup per
    /// address: it folds each page's raw embedded addresses into a
    /// minimum and a maximum (the page index is the address's high
    /// bits, so these bound every address's page), and accepts the page
    /// when the store's written pages form one contiguous run that
    /// covers both. A page that fails the test — in a sparse or
    /// relocated store, or on a real violation — gets the exact walk:
    /// parse every section, then look up each address's page in order.
    /// A page the range test accepts would pass the exact walk too, so
    /// the first error reported is the exact walk's.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: a dangling directory entry,
    /// then, page by page in index order, an unparsable page or an
    /// out-of-bounds address.
    pub fn verify_image(&self) -> Result<(), ValidationError> {
        let layout = self.dg.layout();
        let image = self.dg.image();
        let directory = self.dg.directory();
        for i in 0..directory.len() {
            let node = NodeId::new(i as u32);
            let addr = directory.primary_addr(node).expect("index in range");
            if !image.contains_page(layout.unpack(addr).0) {
                return Err(ValidationError::DanglingDirectoryEntry { node, addr });
            }
        }
        let run = image.contiguous_run();
        for (page, _) in image.iter_pages() {
            let in_run = run.is_some_and(|(first, last)| {
                embedded_range(image, page).is_some_and(|(lo, hi)| {
                    lo > hi
                        || (first <= layout.unpack(PhysAddr::from_raw(lo)).0
                            && layout.unpack(PhysAddr::from_raw(hi)).0 <= last)
                })
            });
            if !in_run {
                self.verify_page(page)?;
            }
        }
        Ok(())
    }

    /// The exact §VI-E walk over one page: every section must parse,
    /// then every embedded address must name a written page.
    fn verify_page(&self, page: PageIndex) -> Result<(), ValidationError> {
        let image = self.dg.image();
        let corrupt = |e: SectionParseError| ValidationError::PageCorrupt {
            page,
            detail: e.to_string(),
        };
        let views = image
            .sections(page)
            .map_err(corrupt)?
            .map(|section| section?.view())
            .collect::<Result<Vec<_>, _>>()
            .map_err(corrupt)?;
        for bytes in views.iter().flat_map(|v| v.addr_bytes()) {
            for word in bytes.chunks_exact(4) {
                let raw = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
                let addr = PhysAddr::from_raw(raw);
                if !image.contains_page(self.dg.layout().unpack(addr).0) {
                    return Err(ValidationError::AddressOutOfBounds {
                        source_page: page,
                        addr,
                    });
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
    use crate::layout::PageEncoder;
    use beacon_graph::{generate, FeatureTable};
    use proptest::prelude::*;

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

    /// The per-address §VI-E walk, kept as the reference the range test
    /// must agree with: the directory check, then every page's sections
    /// parsed and every embedded address looked up, in order.
    fn reference_verify_image(dg: &DirectGraph) -> Result<(), ValidationError> {
        let layout = dg.layout();
        let directory = dg.directory();
        for i in 0..directory.len() {
            let node = NodeId::new(i as u32);
            let addr = directory.primary_addr(node).expect("index in range");
            if !dg.image().contains_page(layout.unpack(addr).0) {
                return Err(ValidationError::DanglingDirectoryEntry { node, addr });
            }
        }
        for (page_idx, _) in dg.image().iter_pages() {
            let sections = dg.image().parse_all_sections(page_idx).map_err(|e| {
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
                    if !dg.image().contains_page(layout.unpack(addr).0) {
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

    /// Rewrites the `k`-th embedded address on `page` (counted over its
    /// sections in walk order) to `to`; `false` if it embeds `k` or
    /// fewer.
    fn stomp(dg: &mut DirectGraph, page: PageIndex, k: usize, to: PhysAddr) -> bool {
        let sections = dg.image().parse_all_sections(page).unwrap();
        let mut enc = PageEncoder::new(dg.layout().page_size());
        let mut seen = 0;
        let mut hit = |addrs: &mut Vec<PhysAddr>| {
            if let Some(a) = k.checked_sub(seen).and_then(|i| addrs.get_mut(i)) {
                *a = to;
            }
            seen += addrs.len();
        };
        for section in sections {
            match section {
                Section::Primary(p) => {
                    let mut both = p.secondary_addrs.clone();
                    both.extend_from_slice(&p.inline_neighbors);
                    hit(&mut both);
                    let (secondary, inline) = both.split_at(p.secondary_addrs.len());
                    enc.push_primary(
                        p.node.as_u32(),
                        p.total_neighbors,
                        secondary,
                        &p.feature,
                        inline,
                    );
                }
                Section::Secondary(mut s) => {
                    hit(&mut s.neighbors);
                    enc.push_secondary(s.node.as_u32(), s.owner_start, &s.neighbors);
                }
            }
        }
        dg.image_mut().write_page(page, enc.finish());
        seen > k
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The range-checked walk returns exactly the per-address walk's
        /// result — the same variant, page and address — on untouched
        /// images, on images relocated onto a gapped page set (p → 2p,
        /// every page takes the exact fallback), with one to three
        /// embedded addresses stomped to an unwritten page inside a
        /// gapped store's range or to a page below or past the store,
        /// and with a dangling directory entry.
        #[test]
        fn range_checked_walk_matches_the_per_address_walk(
            (n, deg, dim, seed) in (40usize..300, 2.0f64..40.0, 8usize..128, 0u64..1_000),
            damage in 0usize..5,
            relocation in 0usize..3,
            picks in proptest::collection::vec(any::<u64>(), 1..4),
        ) {
            let graph = generate::power_law(&generate::PowerLawConfig::new(n, deg), seed);
            let features = FeatureTable::synthetic(n, dim, seed);
            let mut dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
                .build(&graph, &features)
                .unwrap();
            let layout = dg.layout();
            let pages = dg.image().pages_written() as u64;
            // 1: onto even pages only; 2: shifted up, still gap-free.
            match if damage == 1 || damage == 2 { 1 } else { relocation } {
                1 => dg.relocate_pages(|p| PageIndex::new(2 * p.as_u64())).unwrap(),
                2 => dg.relocate_pages(|p| PageIndex::new(p.as_u64() + 64)).unwrap(),
                _ => {}
            }
            let first = dg.image().iter_pages().next().unwrap().0.as_u64();
            let last = dg.image().iter_pages().last().unwrap().0.as_u64();
            let gaps = dg.image().contiguous_run().is_none();
            let mut stomped = 0;
            if damage == 2 || damage == 3 {
                for (i, &pick) in picks.iter().enumerate() {
                    // Page 2j + 1 < last lies in a gap; below `first`
                    // and past `last` lie outside the store.
                    let to = if damage == 2 && pages > 1 {
                        2 * (pick % (pages - 1)) + 1
                    } else if first > 0 && pick & 1 == 0 {
                        pick % first
                    } else {
                        last + 1 + pick % 1_000
                    };
                    let to = layout.pack(PageIndex::new(to), (pick >> 32) as usize % 4);
                    let page = dg.image().iter_pages().nth((pick >> 8) as usize % pages as usize).unwrap().0;
                    if stomp(&mut dg, page, (pick >> 16) as usize % 64 + i, to) {
                        stomped += 1;
                    }
                }
            }
            if damage == 4 {
                let node = picks[0] as usize % n;
                let mut primary: Vec<PhysAddr> = (0..n as u32)
                    .map(|i| dg.directory().primary_addr(NodeId::new(i)).unwrap())
                    .collect();
                primary[node] = layout.pack(PageIndex::new(last + 1), 0);
                dg = DirectGraph::from_parts(
                    layout,
                    dg.image().clone(),
                    DirectGraph::directory_from_raw(primary),
                    dg.stats(),
                );
            }
            let got = Validator::new(&dg).verify_image();
            let want = reference_verify_image(&dg);
            prop_assert_eq!(&got, &want, "damage {}, gaps {}", damage, gaps);
            let broken = damage == 4 || (stomped > 0 && (damage == 3 || gaps));
            prop_assert_eq!(got.is_err(), broken, "damage {}: {:?}", damage, got);
        }
    }
}
