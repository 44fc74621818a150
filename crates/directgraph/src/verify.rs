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
use crate::build::{BuildStats, DirectGraph};
use crate::image::{PageStore, Section, SectionParseError, SectionView};

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
    /// A build statistic disagrees with the count the section headers
    /// give.
    StatisticMismatch {
        statistic: &'static str,
        stored: u64,
        counted: u64,
    },
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
            ValidationError::StatisticMismatch {
                statistic,
                stored,
                counted,
            } => write!(
                f,
                "build statistic {statistic} reads {stored}, but the pages hold {counted}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Walks `page`'s sections, adding each to the statistics the section
/// headers determine (secondary sections, used bytes and edges), and
/// returns the smallest and largest raw address embedded anywhere on
/// the page (`lo > hi` if it embeds none), or `None` if a section does
/// not parse.
fn walk_page(image: &PageStore, page: PageIndex, counted: &mut BuildStats) -> Option<(u32, u32)> {
    let (mut lo, mut hi) = (u32::MAX, 0);
    for section in image.sections(page).ok()? {
        let section = section.ok()?;
        counted.used_bytes += section.length() as u64;
        let view = section.view().ok()?;
        match view {
            SectionView::Primary(p) => counted.edges += u64::from(p.total_neighbors),
            SectionView::Secondary(_) => counted.secondary_sections += 1,
        }
        for bytes in view.addr_bytes() {
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
    /// pointers) stay within the allocated page set, and last that the
    /// build statistics the section headers determine — secondary
    /// sections, used bytes (the sum of section lengths) and edges (the
    /// sum of primary neighbor counts) — match the stored ones.
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
    /// The verdict is kept on the [`DirectGraph`]: only its first check
    /// walks the image, and later ones (every simulated §VI-A flush of
    /// the same image) return the kept result.
    /// [`DirectGraph::image_mut`] and [`DirectGraph::relocate_pages`],
    /// the only ways to change an image in place, clear it.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: a dangling directory entry,
    /// then, page by page in index order, an unparsable page or an
    /// out-of-bounds address, then a mismatched statistic.
    pub fn verify_image(&self) -> Result<(), ValidationError> {
        self.dg.validated.get_or_init(|| self.walk_image()).clone()
    }

    /// The flush-time walk behind [`verify_image`](Self::verify_image).
    fn walk_image(&self) -> Result<(), ValidationError> {
        let layout = self.dg.layout();
        let image = self.dg.image();
        for (i, &addr) in self.dg.directory().addrs().iter().enumerate() {
            if !image.contains_page(layout.unpack(addr).0) {
                let node = NodeId::new(i as u32);
                return Err(ValidationError::DanglingDirectoryEntry { node, addr });
            }
        }
        let run = image.contiguous_run();
        let mut counted = BuildStats::default();
        for (page, _) in image.iter_pages() {
            let range = walk_page(image, page, &mut counted);
            let in_run = run.zip(range).is_some_and(|((first, last), (lo, hi))| {
                lo > hi
                    || (first <= layout.unpack(PhysAddr::from_raw(lo)).0
                        && layout.unpack(PhysAddr::from_raw(hi)).0 <= last)
            });
            if !in_run {
                self.verify_page(page)?;
            }
        }
        let stats = self.dg.stats();
        for (statistic, stored, counted) in [
            (
                "secondary_sections",
                stats.secondary_sections,
                counted.secondary_sections,
            ),
            ("used_bytes", stats.used_bytes, counted.used_bytes),
            ("edges", stats.edges, counted.edges),
        ] {
            if stored != counted {
                return Err(ValidationError::StatisticMismatch {
                    statistic,
                    stored,
                    counted,
                });
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

    /// Stomps the first embedded address on page 0 of `dg` to the first
    /// page past its image; returns that page.
    fn stomp_past_the_image(dg: &mut DirectGraph) -> PageIndex {
        let past = PageIndex::new(dg.image().pages_written() as u64);
        let to = dg.layout().pack(past, 0);
        assert!(stomp(dg, PageIndex::new(0), 0, to));
        past
    }

    #[test]
    fn image_mut_clears_the_kept_verdict() {
        let mut dg = small_dg();
        assert_eq!(Validator::new(&dg).verify_image(), Ok(()));
        assert_eq!(dg.validated.get(), Some(&Ok(())), "the verdict is kept");
        let past = stomp_past_the_image(&mut dg);
        let err = Validator::new(&dg).verify_image().unwrap_err();
        assert!(
            matches!(err, ValidationError::AddressOutOfBounds { addr, .. }
                if dg.layout().unpack(addr).0 == past),
            "{err}"
        );
    }

    #[test]
    fn relocation_clears_the_kept_verdict() {
        // Relocating a valid image keeps it valid, so the verdict that
        // can go stale is a failure: send the stomped address's missing
        // page onto page 0, and the relocated image validates.
        let mut dg = small_dg();
        let past = stomp_past_the_image(&mut dg);
        let err = Validator::new(&dg).verify_image().unwrap_err();
        assert!(matches!(err, ValidationError::AddressOutOfBounds { .. }));
        dg.relocate_pages(|p| if p == past { PageIndex::new(0) } else { p })
            .unwrap();
        assert_eq!(Validator::new(&dg).verify_image(), Ok(()));
    }

    #[test]
    fn statistics_off_by_one_are_rejected() {
        // 1,900-byte features on 2 KB pages: busy nodes overflow into
        // secondary sections, so every statistic is positive.
        let graph = generate::power_law(&generate::PowerLawConfig::new(100, 30.0), 5);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(2048).unwrap())
            .build(&graph, &FeatureTable::synthetic(100, 950, 5))
            .unwrap();
        assert!(Validator::new(&dg).verify_image().is_ok());
        let stats = dg.stats();
        assert!(stats.secondary_sections > 0);
        type Field = fn(&mut BuildStats) -> &mut u64;
        let fields: [(&str, Field); 3] = [
            ("secondary_sections", |s| &mut s.secondary_sections),
            ("used_bytes", |s| &mut s.used_bytes),
            ("edges", |s| &mut s.edges),
        ];
        for (statistic, field) in fields {
            let counted = *field(&mut stats.clone());
            for stored in [counted + 1, counted - 1] {
                let mut off = stats;
                *field(&mut off) = stored;
                let dg = DirectGraph::from_parts(
                    dg.layout(),
                    dg.image().clone(),
                    dg.directory().clone(),
                    off,
                );
                let err = Validator::new(&dg).verify_image().unwrap_err();
                assert_eq!(
                    err,
                    ValidationError::StatisticMismatch {
                        statistic,
                        stored,
                        counted
                    }
                );
                assert!(err.to_string().contains(statistic), "{err}");
            }
        }
    }

    /// The per-address §VI-E walk, kept as the reference the range test
    /// must agree with: the directory check, then every page's sections
    /// parsed and every embedded address looked up, in order, then the
    /// statistics recounted from the parsed sections.
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
        let mut counted = BuildStats::default();
        for (page_idx, _) in dg.image().iter_pages() {
            let sections = dg.image().parse_all_sections(page_idx).map_err(|e| {
                ValidationError::PageCorrupt {
                    page: page_idx,
                    detail: e.to_string(),
                }
            })?;
            for section in sections {
                let embedded: Vec<PhysAddr> = match &section {
                    Section::Primary(p) => {
                        counted.used_bytes += crate::layout::primary_section_size(
                            p.feature.len(),
                            p.inline_neighbors.len(),
                            p.secondary_addrs.len(),
                        ) as u64;
                        counted.edges += u64::from(p.total_neighbors);
                        p.secondary_addrs
                            .iter()
                            .chain(p.inline_neighbors.iter())
                            .copied()
                            .collect()
                    }
                    Section::Secondary(s) => {
                        counted.secondary_sections += 1;
                        counted.used_bytes +=
                            crate::layout::secondary_section_size(s.neighbors.len()) as u64;
                        s.neighbors.clone()
                    }
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
        let s = dg.stats();
        for (statistic, stored, counted) in [
            (
                "secondary_sections",
                s.secondary_sections,
                counted.secondary_sections,
            ),
            ("used_bytes", s.used_bytes, counted.used_bytes),
            ("edges", s.edges, counted.edges),
        ] {
            if stored != counted {
                return Err(ValidationError::StatisticMismatch {
                    statistic,
                    stored,
                    counted,
                });
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
