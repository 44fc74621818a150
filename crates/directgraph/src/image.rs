//! The in-memory DirectGraph page store and the section parser.
//!
//! [`PageStore`] stands in for the region of the flash array that the
//! firmware reserves for DirectGraph (§VI-A): a map from page index to
//! page bytes. The [`PageStore::parse_section`] walk reproduces the
//! die-level sampler's *section iterator* (§V-A): starting at byte 0, it
//! reads each section header and skips `length` bytes until it reaches
//! the requested slot; a zero kind byte means the slot does not exist.

use std::fmt;

use beacon_graph::NodeId;

use crate::addr::{AddrLayout, PageIndex, PhysAddr};
use crate::layout::{SectionKind, HEADER_BYTES, PRIMARY_FIXED_BYTES, SECONDARY_FIXED_BYTES};

/// A parsed DirectGraph section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Section {
    /// A node's primary section.
    Primary(PrimarySection),
    /// An overflow neighbor-list section.
    Secondary(SecondarySection),
}

impl Section {
    /// The owning node.
    pub fn node(&self) -> NodeId {
        match self {
            Section::Primary(p) => p.node,
            Section::Secondary(s) => s.node,
        }
    }

    /// The section kind.
    pub fn kind(&self) -> SectionKind {
        match self {
            Section::Primary(_) => SectionKind::Primary,
            Section::Secondary(_) => SectionKind::Secondary,
        }
    }

    /// Returns the primary view, or `None` for a secondary section.
    pub fn as_primary(&self) -> Option<&PrimarySection> {
        match self {
            Section::Primary(p) => Some(p),
            Section::Secondary(_) => None,
        }
    }

    /// Returns the secondary view, or `None` for a primary section.
    pub fn as_secondary(&self) -> Option<&SecondarySection> {
        match self {
            Section::Secondary(s) => Some(s),
            Section::Primary(_) => None,
        }
    }
}

/// A parsed primary section (metadata, feature, inline neighbors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimarySection {
    /// The owning node.
    pub node: NodeId,
    /// The node's total neighbor count across inline + secondary storage.
    pub total_neighbors: u32,
    /// Addresses of the node's secondary sections, in neighbor order.
    pub secondary_addrs: Vec<PhysAddr>,
    /// The node's feature vector bytes (FP-16 encoded).
    pub feature: Vec<u8>,
    /// Primary-section addresses of neighbors `[0, inline_count)`.
    pub inline_neighbors: Vec<PhysAddr>,
}

impl PrimarySection {
    /// Number of neighbors stored inline in this section.
    pub fn inline_count(&self) -> usize {
        self.inline_neighbors.len()
    }

    /// Number of neighbors stored in secondary sections.
    pub fn overflow_count(&self) -> usize {
        self.total_neighbors as usize - self.inline_count()
    }
}

/// A parsed secondary section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecondarySection {
    /// The owning node.
    pub node: NodeId,
    /// Index (into the owner's neighbor list) of this section's first
    /// neighbor.
    pub owner_start: u32,
    /// Primary-section addresses of the neighbors in this section.
    pub neighbors: Vec<PhysAddr>,
}

/// A zero-copy view of a parsed section: fixed fields are decoded, the
/// variable-length arrays stay as borrowed in-page byte ranges with
/// on-demand indexed decoding. This is the sampler hot path's parse —
/// [`PageStore::parse_section`] materializes the same data into owned
/// vectors (three allocations plus a feature copy per call), which the
/// per-command sampling loop cannot afford.
#[derive(Debug, Clone, Copy)]
pub enum SectionView<'a> {
    /// A node's primary section.
    Primary(PrimaryView<'a>),
    /// An overflow neighbor-list section.
    Secondary(SecondaryView<'a>),
}

/// Borrowed view of a primary section (see [`SectionView`]).
#[derive(Debug, Clone, Copy)]
pub struct PrimaryView<'a> {
    /// The owning node.
    pub node: NodeId,
    /// The node's total neighbor count across inline + secondary storage.
    pub total_neighbors: u32,
    /// Length of the feature vector in bytes.
    pub feature_bytes: usize,
    secondary: &'a [u8],
    inline: &'a [u8],
}

impl PrimaryView<'_> {
    /// Number of secondary sections.
    pub fn num_secondary(&self) -> usize {
        self.secondary.len() / 4
    }

    /// Address of secondary section `j`, in neighbor order.
    pub fn secondary_addr(&self, j: usize) -> PhysAddr {
        addr_at(self.secondary, j)
    }

    /// Number of neighbors stored inline in this section.
    pub fn inline_count(&self) -> usize {
        self.inline.len() / 4
    }

    /// Primary-section address of inline neighbor `i`.
    pub fn inline_neighbor(&self, i: usize) -> PhysAddr {
        addr_at(self.inline, i)
    }
}

/// Borrowed view of a secondary section (see [`SectionView`]).
#[derive(Debug, Clone, Copy)]
pub struct SecondaryView<'a> {
    /// The owning node.
    pub node: NodeId,
    /// Index (into the owner's neighbor list) of this section's first
    /// neighbor.
    pub owner_start: u32,
    neighbors: &'a [u8],
}

impl SecondaryView<'_> {
    /// Number of neighbors in this section.
    pub fn num_neighbors(&self) -> usize {
        self.neighbors.len() / 4
    }

    /// Primary-section address of neighbor `i`.
    pub fn neighbor(&self, i: usize) -> PhysAddr {
        addr_at(self.neighbors, i)
    }
}

#[inline]
fn addr_at(bytes: &[u8], i: usize) -> PhysAddr {
    let o = i * 4;
    PhysAddr::from_raw(u32::from_le_bytes([
        bytes[o],
        bytes[o + 1],
        bytes[o + 2],
        bytes[o + 3],
    ]))
}

/// Why a section failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionParseError {
    /// The addressed page was never written.
    PageMissing(PageIndex),
    /// The page has fewer sections than the requested slot.
    SlotNotFound { page: PageIndex, slot: usize },
    /// A section header carries an unknown kind byte.
    BadKind {
        page: PageIndex,
        offset: usize,
        kind: u8,
    },
    /// A section's declared length runs past the page end.
    Truncated { page: PageIndex, offset: usize },
}

impl fmt::Display for SectionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionParseError::PageMissing(p) => write!(f, "page {p} was never written"),
            SectionParseError::SlotNotFound { page, slot } => {
                write!(f, "page {page} has no section slot {slot}")
            }
            SectionParseError::BadKind { page, offset, kind } => {
                write!(
                    f,
                    "page {page} offset {offset}: unknown section kind {kind}"
                )
            }
            SectionParseError::Truncated { page, offset } => {
                write!(f, "page {page} offset {offset}: section overruns page")
            }
        }
    }
}

impl std::error::Error for SectionParseError {}

/// An in-memory store of DirectGraph flash pages.
///
/// # Examples
///
/// ```
/// use directgraph::{AddrLayout, PageStore, PageIndex};
/// use directgraph::layout::PageEncoder;
///
/// let layout = AddrLayout::for_page_size(4096).unwrap();
/// let mut store = PageStore::new(layout);
/// let mut enc = PageEncoder::new(4096);
/// enc.push_secondary(3, 0, &[]);
/// store.write_page(PageIndex::new(0), enc.finish());
/// let addr = layout.pack(PageIndex::new(0), 0);
/// let s = store.parse_section(addr).unwrap();
/// assert_eq!(s.node().index(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PageStore {
    layout: AddrLayout,
    /// Page index of `pages[0]`. The slot table spans only the written
    /// index range, so an image relocated far up the address space
    /// costs no more memory than one starting at page 0.
    base: u64,
    pages: Vec<Option<Box<[u8]>>>,
    written: usize,
}

impl PageStore {
    /// Creates an empty store for pages of `layout.page_size()` bytes.
    pub fn new(layout: AddrLayout) -> Self {
        PageStore {
            layout,
            base: 0,
            pages: Vec::new(),
            written: 0,
        }
    }

    /// The address layout the store interprets addresses with.
    pub fn layout(&self) -> AddrLayout {
        self.layout
    }

    /// Writes (or overwrites) a page.
    ///
    /// # Panics
    ///
    /// Panics if `page.len()` differs from the layout's page size.
    pub fn write_page(&mut self, index: PageIndex, page: Box<[u8]>) {
        assert_eq!(page.len(), self.layout.page_size(), "page size mismatch");
        let index = index.as_u64();
        if self.pages.is_empty() {
            self.base = index;
        } else if index < self.base {
            let below = (self.base - index) as usize;
            self.pages.splice(0..0, std::iter::repeat_n(None, below));
            self.base = index;
        }
        let i = (index - self.base) as usize;
        if self.pages.len() <= i {
            self.pages.resize(i + 1, None);
        }
        if self.pages[i].is_none() {
            self.written += 1;
        }
        self.pages[i] = Some(page);
    }

    /// Reads a page's bytes, or `None` if never written.
    pub fn read_page(&self, index: PageIndex) -> Option<&[u8]> {
        // Below `base` the difference wraps past every slot.
        let i = index.as_u64().wrapping_sub(self.base);
        self.pages.get(i as usize).and_then(|p| p.as_deref())
    }

    /// Bytes the slot table would take once `index` is written: one
    /// slot per index from the lowest written page to the highest.
    pub fn table_bytes_with(&self, index: PageIndex) -> u64 {
        let index = index.as_u64();
        let lo = if self.pages.is_empty() {
            index
        } else {
            self.base.min(index)
        };
        let hi = (self.base + self.pages.len() as u64)
            .saturating_sub(1)
            .max(index);
        (hi - lo + 1) * std::mem::size_of::<Option<Box<[u8]>>>() as u64
    }

    /// Number of pages written.
    pub fn pages_written(&self) -> usize {
        self.written
    }

    /// Total stored bytes (pages × page size).
    pub fn stored_bytes(&self) -> u64 {
        self.written as u64 * self.layout.page_size() as u64
    }

    /// Returns `true` if `index` holds a written page.
    pub fn contains_page(&self, index: PageIndex) -> bool {
        self.read_page(index).is_some()
    }

    /// Iterates over `(index, bytes)` of written pages.
    pub fn iter_pages(&self) -> impl Iterator<Item = (PageIndex, &[u8])> + '_ {
        self.pages.iter().enumerate().filter_map(|(i, p)| {
            p.as_deref()
                .map(|b| (PageIndex::new(self.base + i as u64), b))
        })
    }

    /// Parses the section at `addr`, walking the page's section sequence
    /// exactly as the die-level section iterator does.
    ///
    /// # Errors
    ///
    /// Returns a [`SectionParseError`] if the page is missing, the slot
    /// does not exist, or the page bytes are malformed.
    pub fn parse_section(&self, addr: PhysAddr) -> Result<Section, SectionParseError> {
        let (page, offset, len, kind, page_idx) = self.locate(addr)?;
        parse_at(page, offset, len, kind, page_idx)
    }

    /// Like [`parse_section`](PageStore::parse_section), but returns a
    /// zero-copy [`SectionView`] borrowing the page bytes instead of
    /// materializing owned vectors — the allocation-free parse the
    /// per-command sampler loop runs on. Bounds checks and error cases
    /// are identical to the owned parse.
    ///
    /// # Errors
    ///
    /// Same conditions as [`parse_section`](PageStore::parse_section).
    pub fn parse_section_view(&self, addr: PhysAddr) -> Result<SectionView<'_>, SectionParseError> {
        let (page, offset, len, kind, page_idx) = self.locate(addr)?;
        view_at(page, offset, len, kind, page_idx)
    }

    /// The shared slot walk: resolves `addr` to its section's page
    /// bytes, byte offset, declared length and kind.
    fn locate(
        &self,
        addr: PhysAddr,
    ) -> Result<(&[u8], usize, usize, SectionKind, PageIndex), SectionParseError> {
        let (page_idx, slot) = self.layout.unpack(addr);
        let page = self
            .read_page(page_idx)
            .ok_or(SectionParseError::PageMissing(page_idx))?;
        let mut offset = 0usize;
        for cur_slot in 0.. {
            if offset + HEADER_BYTES > page.len() || page[offset] == 0 {
                return Err(SectionParseError::SlotNotFound {
                    page: page_idx,
                    slot,
                });
            }
            let kind = SectionKind::from_byte(page[offset]).ok_or(SectionParseError::BadKind {
                page: page_idx,
                offset,
                kind: page[offset],
            })?;
            let len = u16::from_le_bytes([page[offset + 2], page[offset + 3]]) as usize;
            if len < HEADER_BYTES || offset + len > page.len() {
                return Err(SectionParseError::Truncated {
                    page: page_idx,
                    offset,
                });
            }
            if cur_slot == slot {
                return Ok((page, offset, len, kind, page_idx));
            }
            offset += len;
        }
        unreachable!("loop exits via return")
    }

    /// Parses *all* sections of a page, in slot order. Used by firmware
    /// scrubbing and by tests.
    ///
    /// # Errors
    ///
    /// Returns the first parse error encountered.
    pub fn parse_all_sections(
        &self,
        page_idx: PageIndex,
    ) -> Result<Vec<Section>, SectionParseError> {
        let page = self
            .read_page(page_idx)
            .ok_or(SectionParseError::PageMissing(page_idx))?;
        let mut out = Vec::new();
        let mut offset = 0usize;
        while offset + HEADER_BYTES <= page.len() && page[offset] != 0 {
            let kind = SectionKind::from_byte(page[offset]).ok_or(SectionParseError::BadKind {
                page: page_idx,
                offset,
                kind: page[offset],
            })?;
            let len = u16::from_le_bytes([page[offset + 2], page[offset + 3]]) as usize;
            if len < HEADER_BYTES || offset + len > page.len() {
                return Err(SectionParseError::Truncated {
                    page: page_idx,
                    offset,
                });
            }
            out.push(parse_at(page, offset, len, kind, page_idx)?);
            offset += len;
        }
        Ok(out)
    }
}

fn parse_at(
    page: &[u8],
    offset: usize,
    len: usize,
    kind: SectionKind,
    page_idx: PageIndex,
) -> Result<Section, SectionParseError> {
    let sec = &page[offset..offset + len];
    let node = NodeId::new(u32::from_le_bytes([sec[4], sec[5], sec[6], sec[7]]));
    let neighbor_count = u32::from_le_bytes([sec[8], sec[9], sec[10], sec[11]]);
    match kind {
        SectionKind::Primary => {
            let feature_bytes = u16::from_le_bytes([sec[12], sec[13]]) as usize;
            let num_secondary = u16::from_le_bytes([sec[14], sec[15]]) as usize;
            let mut pos = HEADER_BYTES + PRIMARY_FIXED_BYTES;
            let need = pos + num_secondary * 4 + feature_bytes;
            if need > len {
                return Err(SectionParseError::Truncated {
                    page: page_idx,
                    offset,
                });
            }
            let secondary_addrs = read_addrs(sec, pos, num_secondary);
            pos += num_secondary * 4;
            let feature = sec[pos..pos + feature_bytes].to_vec();
            pos += feature_bytes;
            let n_inline = (len - pos) / 4;
            let inline_neighbors = read_addrs(sec, pos, n_inline);
            Ok(Section::Primary(PrimarySection {
                node,
                total_neighbors: neighbor_count,
                secondary_addrs,
                feature,
                inline_neighbors,
            }))
        }
        SectionKind::Secondary => {
            let pos = HEADER_BYTES;
            if pos + SECONDARY_FIXED_BYTES + neighbor_count as usize * 4 > len {
                return Err(SectionParseError::Truncated {
                    page: page_idx,
                    offset,
                });
            }
            let owner_start =
                u32::from_le_bytes([sec[pos], sec[pos + 1], sec[pos + 2], sec[pos + 3]]);
            let neighbors = read_addrs(sec, pos + SECONDARY_FIXED_BYTES, neighbor_count as usize);
            Ok(Section::Secondary(SecondarySection {
                node,
                owner_start,
                neighbors,
            }))
        }
    }
}

fn view_at(
    page: &[u8],
    offset: usize,
    len: usize,
    kind: SectionKind,
    page_idx: PageIndex,
) -> Result<SectionView<'_>, SectionParseError> {
    let sec = &page[offset..offset + len];
    let node = NodeId::new(u32::from_le_bytes([sec[4], sec[5], sec[6], sec[7]]));
    let neighbor_count = u32::from_le_bytes([sec[8], sec[9], sec[10], sec[11]]);
    match kind {
        SectionKind::Primary => {
            let feature_bytes = u16::from_le_bytes([sec[12], sec[13]]) as usize;
            let num_secondary = u16::from_le_bytes([sec[14], sec[15]]) as usize;
            let mut pos = HEADER_BYTES + PRIMARY_FIXED_BYTES;
            let need = pos + num_secondary * 4 + feature_bytes;
            if need > len {
                return Err(SectionParseError::Truncated {
                    page: page_idx,
                    offset,
                });
            }
            let secondary = &sec[pos..pos + num_secondary * 4];
            pos += num_secondary * 4 + feature_bytes;
            let n_inline = (len - pos) / 4;
            let inline = &sec[pos..pos + n_inline * 4];
            Ok(SectionView::Primary(PrimaryView {
                node,
                total_neighbors: neighbor_count,
                feature_bytes,
                secondary,
                inline,
            }))
        }
        SectionKind::Secondary => {
            let pos = HEADER_BYTES;
            if pos + SECONDARY_FIXED_BYTES + neighbor_count as usize * 4 > len {
                return Err(SectionParseError::Truncated {
                    page: page_idx,
                    offset,
                });
            }
            let owner_start =
                u32::from_le_bytes([sec[pos], sec[pos + 1], sec[pos + 2], sec[pos + 3]]);
            let start = pos + SECONDARY_FIXED_BYTES;
            let neighbors = &sec[start..start + neighbor_count as usize * 4];
            Ok(SectionView::Secondary(SecondaryView {
                node,
                owner_start,
                neighbors,
            }))
        }
    }
}

fn read_addrs(sec: &[u8], pos: usize, n: usize) -> Vec<PhysAddr> {
    (0..n)
        .map(|i| {
            let o = pos + i * 4;
            PhysAddr::from_raw(u32::from_le_bytes([
                sec[o],
                sec[o + 1],
                sec[o + 2],
                sec[o + 3],
            ]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageEncoder;

    fn store_with_page(f: impl FnOnce(&mut PageEncoder)) -> (PageStore, AddrLayout) {
        let layout = AddrLayout::for_page_size(4096).unwrap();
        let mut store = PageStore::new(layout);
        let mut enc = PageEncoder::new(4096);
        f(&mut enc);
        store.write_page(PageIndex::new(0), enc.finish());
        (store, layout)
    }

    #[test]
    fn roundtrip_primary() {
        let (store, layout) = store_with_page(|enc| {
            enc.push_primary(
                42,
                100,
                &[PhysAddr::from_raw(0xDEAD)],
                &[1, 2, 3, 4],
                &[PhysAddr::from_raw(0xBEEF), PhysAddr::from_raw(0xCAFE)],
            );
        });
        let s = store
            .parse_section(layout.pack(PageIndex::new(0), 0))
            .unwrap();
        let p = s.as_primary().expect("primary");
        assert_eq!(p.node, NodeId::new(42));
        assert_eq!(p.total_neighbors, 100);
        assert_eq!(p.secondary_addrs, vec![PhysAddr::from_raw(0xDEAD)]);
        assert_eq!(p.feature, vec![1, 2, 3, 4]);
        assert_eq!(p.inline_neighbors.len(), 2);
        assert_eq!(p.inline_count(), 2);
        assert_eq!(p.overflow_count(), 98);
        assert_eq!(s.kind(), SectionKind::Primary);
        assert!(s.as_secondary().is_none());
    }

    #[test]
    fn roundtrip_secondary_and_multi_slot() {
        let (store, layout) = store_with_page(|enc| {
            enc.push_secondary(7, 10, &[PhysAddr::from_raw(0x11)]);
            enc.push_primary(8, 0, &[], &[], &[]);
            enc.push_secondary(9, 20, &[PhysAddr::from_raw(0x22), PhysAddr::from_raw(0x33)]);
        });
        let s0 = store
            .parse_section(layout.pack(PageIndex::new(0), 0))
            .unwrap();
        let s1 = store
            .parse_section(layout.pack(PageIndex::new(0), 1))
            .unwrap();
        let s2 = store
            .parse_section(layout.pack(PageIndex::new(0), 2))
            .unwrap();
        assert_eq!(s0.as_secondary().unwrap().owner_start, 10);
        assert_eq!(s1.node(), NodeId::new(8));
        let sec2 = s2.as_secondary().unwrap();
        assert_eq!(sec2.node, NodeId::new(9));
        assert_eq!(sec2.neighbors.len(), 2);
    }

    #[test]
    fn missing_page_and_slot_errors() {
        let (store, layout) = store_with_page(|enc| {
            enc.push_primary(1, 0, &[], &[], &[]);
        });
        assert_eq!(
            store.parse_section(layout.pack(PageIndex::new(5), 0)),
            Err(SectionParseError::PageMissing(PageIndex::new(5)))
        );
        assert_eq!(
            store.parse_section(layout.pack(PageIndex::new(0), 3)),
            Err(SectionParseError::SlotNotFound {
                page: PageIndex::new(0),
                slot: 3
            })
        );
    }

    #[test]
    fn corrupt_kind_detected() {
        let layout = AddrLayout::for_page_size(4096).unwrap();
        let mut store = PageStore::new(layout);
        let mut page = vec![0u8; 4096];
        page[0] = 9; // bogus kind
        page[2] = 16;
        store.write_page(PageIndex::new(0), page.into_boxed_slice());
        let err = store
            .parse_section(layout.pack(PageIndex::new(0), 0))
            .unwrap_err();
        assert!(matches!(err, SectionParseError::BadKind { kind: 9, .. }));
        assert!(err.to_string().contains("unknown section kind"));
    }

    #[test]
    fn truncated_length_detected() {
        let layout = AddrLayout::for_page_size(4096).unwrap();
        let mut store = PageStore::new(layout);
        let mut page = vec![0u8; 4096];
        page[0] = 1;
        page[2..4].copy_from_slice(&10_000u16.to_le_bytes()); // runs past page
        store.write_page(PageIndex::new(0), page.into_boxed_slice());
        let err = store
            .parse_section(layout.pack(PageIndex::new(0), 0))
            .unwrap_err();
        assert!(matches!(err, SectionParseError::Truncated { .. }));
    }

    #[test]
    fn parse_all_sections() {
        let (store, _) = store_with_page(|enc| {
            enc.push_primary(1, 0, &[], &[], &[]);
            enc.push_secondary(2, 0, &[]);
        });
        let all = store.parse_all_sections(PageIndex::new(0)).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].node(), NodeId::new(1));
        assert_eq!(all[1].node(), NodeId::new(2));
    }

    #[test]
    fn store_accounting() {
        let layout = AddrLayout::for_page_size(4096).unwrap();
        let mut store = PageStore::new(layout);
        assert_eq!(store.pages_written(), 0);
        store.write_page(PageIndex::new(3), vec![0u8; 4096].into_boxed_slice());
        store.write_page(PageIndex::new(3), vec![0u8; 4096].into_boxed_slice()); // overwrite
        assert_eq!(store.pages_written(), 1);
        assert_eq!(store.stored_bytes(), 4096);
        assert!(store.contains_page(PageIndex::new(3)));
        assert!(!store.contains_page(PageIndex::new(0)));
        assert_eq!(store.iter_pages().count(), 1);
    }
}
