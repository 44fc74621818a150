//! The in-memory DirectGraph page store and the section parser.
//!
//! [`PageStore`] stands in for the region of the flash array that the
//! firmware reserves for DirectGraph (§VI-A): a map from page index to
//! page bytes. One page walk reproduces the die-level sampler's
//! *section iterator* (§V-A): starting at byte 0, it reads each section
//! header and skips `length` bytes to the next; a zero kind byte ends
//! the page. The slot lookup behind [`PageStore::parse_section`] and
//! [`PageStore::parse_section_view`], [`PageStore::parse_all_sections`]
//! and the §VI-E image validator all run on it, and every parse builds
//! the zero-copy [`SectionView`] first (the owned [`Section`] is made
//! from the view).

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
    secondary: &'a [u8],
    feature: &'a [u8],
    inline: &'a [u8],
}

impl<'a> PrimaryView<'a> {
    /// The node's feature vector bytes (FP-16 encoded).
    pub fn feature(&self) -> &'a [u8] {
        self.feature
    }

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

impl<'a> SectionView<'a> {
    /// The section's embedded addresses as raw little-endian bytes, in
    /// neighbor order: a primary's secondary-section pointers then its
    /// inline neighbors, or a secondary's neighbors.
    pub(crate) fn addr_bytes(&self) -> [&'a [u8]; 2] {
        match self {
            SectionView::Primary(p) => [p.secondary, p.inline],
            SectionView::Secondary(s) => [s.neighbors, &[]],
        }
    }
}

impl From<SectionView<'_>> for Section {
    fn from(view: SectionView<'_>) -> Self {
        match view {
            SectionView::Primary(p) => Section::Primary(PrimarySection {
                node: p.node,
                total_neighbors: p.total_neighbors,
                secondary_addrs: read_addrs(p.secondary),
                feature: p.feature.to_vec(),
                inline_neighbors: read_addrs(p.inline),
            }),
            SectionView::Secondary(s) => Section::Secondary(SecondarySection {
                node: s.node,
                owner_start: s.owner_start,
                neighbors: read_addrs(s.neighbors),
            }),
        }
    }
}

fn read_addrs(bytes: &[u8]) -> Vec<PhysAddr> {
    (0..bytes.len() / 4).map(|i| addr_at(bytes, i)).collect()
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
/// Pages live in a slot table that spans the written index range, from
/// the lowest written page to the highest, so [`read_page`] and
/// [`contains_page`] are one direct index. The store also knows when
/// that range has no gaps: the §VI-E validator then checks a page's
/// embedded addresses with one range test instead of one lookup each.
///
/// [`read_page`]: PageStore::read_page
/// [`contains_page`]: PageStore::contains_page
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

    /// The first and last written page, if every index between them is
    /// written too (`None` for an empty store or one with gaps).
    pub(crate) fn contiguous_run(&self) -> Option<(PageIndex, PageIndex)> {
        (self.written > 0 && self.written == self.pages.len()).then(|| {
            let last = self.base + self.pages.len() as u64 - 1;
            (PageIndex::new(self.base), PageIndex::new(last))
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
        Ok(self.parse_section_view(addr)?.into())
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
        let (page, slot) = self.layout.unpack(addr);
        for (i, section) in self.sections(page)?.enumerate() {
            let section = section?;
            if i == slot {
                return section.view();
            }
        }
        Err(SectionParseError::SlotNotFound { page, slot })
    }

    /// Parses *all* sections of a page, in slot order. Used by
    /// relocation and by tests.
    ///
    /// # Errors
    ///
    /// Returns the first parse error encountered.
    pub fn parse_all_sections(
        &self,
        page_idx: PageIndex,
    ) -> Result<Vec<Section>, SectionParseError> {
        self.sections(page_idx)?
            .map(|section| Ok(section?.view()?.into()))
            .collect()
    }

    /// The section walk over a written page (see [`PageSections`]).
    pub(crate) fn sections(&self, page: PageIndex) -> Result<PageSections<'_>, SectionParseError> {
        let bytes = self
            .read_page(page)
            .ok_or(SectionParseError::PageMissing(page))?;
        Ok(PageSections {
            page,
            bytes,
            offset: 0,
        })
    }
}

/// The die-level section iterator over one page (§V-A): from byte 0,
/// each header's kind and length lead to the next section, and a zero
/// kind byte, or too few bytes left for a header, ends the page. An
/// unknown kind or a length that overruns the page is yielded as an
/// error and ends the walk.
pub(crate) struct PageSections<'a> {
    page: PageIndex,
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Iterator for PageSections<'a> {
    type Item = Result<RawSection<'a>, SectionParseError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (page, bytes, offset) = (self.page, self.bytes, self.offset);
        let header = bytes.get(offset..offset + HEADER_BYTES)?;
        if header[0] == 0 {
            return None;
        }
        let len = u16::from_le_bytes([header[2], header[3]]) as usize;
        let Some(kind) = SectionKind::from_byte(header[0]) else {
            self.offset = bytes.len();
            let kind = header[0];
            return Some(Err(SectionParseError::BadKind { page, offset, kind }));
        };
        match bytes.get(offset..offset + len) {
            Some(sec) if len >= HEADER_BYTES => {
                self.offset = offset + len;
                Some(Ok(RawSection {
                    page,
                    offset,
                    kind,
                    bytes: sec,
                }))
            }
            _ => {
                self.offset = bytes.len();
                Some(Err(SectionParseError::Truncated { page, offset }))
            }
        }
    }
}

/// A section the page walk found: its header is sound, its body is not
/// yet checked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawSection<'a> {
    page: PageIndex,
    offset: usize,
    kind: SectionKind,
    bytes: &'a [u8],
}

impl<'a> RawSection<'a> {
    /// Checks the body against the declared length and borrows its
    /// fields.
    #[inline]
    pub(crate) fn view(self) -> Result<SectionView<'a>, SectionParseError> {
        let sec = self.bytes;
        let len = sec.len();
        let truncated = SectionParseError::Truncated {
            page: self.page,
            offset: self.offset,
        };
        let node = NodeId::new(u32::from_le_bytes([sec[4], sec[5], sec[6], sec[7]]));
        let neighbor_count = u32::from_le_bytes([sec[8], sec[9], sec[10], sec[11]]);
        match self.kind {
            SectionKind::Primary => {
                let pos = HEADER_BYTES + PRIMARY_FIXED_BYTES;
                if pos > len {
                    return Err(truncated);
                }
                let feature_bytes = u16::from_le_bytes([sec[12], sec[13]]) as usize;
                let num_secondary = u16::from_le_bytes([sec[14], sec[15]]) as usize;
                let feature_at = pos + num_secondary * 4;
                let inline_at = feature_at + feature_bytes;
                if inline_at > len {
                    return Err(truncated);
                }
                let n_inline = (len - inline_at) / 4;
                Ok(SectionView::Primary(PrimaryView {
                    node,
                    total_neighbors: neighbor_count,
                    secondary: &sec[pos..feature_at],
                    feature: &sec[feature_at..inline_at],
                    inline: &sec[inline_at..inline_at + n_inline * 4],
                }))
            }
            SectionKind::Secondary => {
                let start = HEADER_BYTES + SECONDARY_FIXED_BYTES;
                let end = start + neighbor_count as usize * 4;
                if end > len {
                    return Err(truncated);
                }
                let owner_start = u32::from_le_bytes([sec[12], sec[13], sec[14], sec[15]]);
                Ok(SectionView::Secondary(SecondaryView {
                    node,
                    owner_start,
                    neighbors: &sec[start..end],
                }))
            }
        }
    }
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
    fn short_primary_section_is_truncated() {
        // A primary header whose length ends before the feature and
        // secondary counts at bytes 12..16.
        let layout = AddrLayout::for_page_size(4096).unwrap();
        for len in HEADER_BYTES..HEADER_BYTES + PRIMARY_FIXED_BYTES {
            let mut store = PageStore::new(layout);
            let mut page = vec![0u8; 4096];
            page[0] = 1;
            page[2..4].copy_from_slice(&(len as u16).to_le_bytes());
            store.write_page(PageIndex::new(0), page.into_boxed_slice());
            let truncated = SectionParseError::Truncated {
                page: PageIndex::new(0),
                offset: 0,
            };
            let addr = layout.pack(PageIndex::new(0), 0);
            assert_eq!(store.parse_section(addr), Err(truncated), "length {len}");
            assert!(store.parse_section_view(addr).is_err(), "length {len}");
            assert_eq!(
                store.parse_all_sections(PageIndex::new(0)),
                Err(truncated),
                "length {len}"
            );
        }
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
