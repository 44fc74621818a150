//! Byte-exact section layout (paper Fig 8).
//!
//! Every DirectGraph page is a sequence of variable-length sections, each
//! beginning with a fixed 12-byte header; a zero `kind` byte terminates
//! the sequence (pages are zero-filled). All integers are little-endian.
//!
//! ```text
//! header (both kinds), 12 bytes:
//!   +0  kind            u8   1 = primary, 2 = secondary
//!   +1  flags           u8   reserved, 0
//!   +2  length          u16  total section length in bytes (incl. header)
//!   +4  node            u32  owning node index
//!   +8  neighbor_count  u32  primary: the node's TOTAL neighbor count
//!                            secondary: neighbors in THIS section
//!
//! primary body:
//!   +12 feature_bytes   u16
//!   +14 num_secondary   u16
//!   +16 secondary addrs u32 × num_secondary   (PhysAddr)
//!   +.. feature vector  u8  × feature_bytes
//!   +.. inline neighbor addrs u32 × n_inline  (PhysAddr of the
//!        neighbor's primary section, neighbors [0, n_inline))
//!
//! secondary body:
//!   +12 owner_start     u32  index of this section's first neighbor in
//!                            the owner's neighbor list
//!   +16 neighbor addrs  u32 × neighbor_count
//! ```

use crate::addr::PhysAddr;

/// Section kind discriminants as stored in the first header byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SectionKind {
    /// A node's primary section (metadata + feature + inline neighbors).
    Primary = 1,
    /// An overflow neighbor-list section.
    Secondary = 2,
}

impl SectionKind {
    /// Decodes a header kind byte; `None` for the end-of-page marker (0)
    /// or any unknown value.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(SectionKind::Primary),
            2 => Some(SectionKind::Secondary),
            _ => None,
        }
    }
}

/// Size of the common section header, in bytes.
pub const HEADER_BYTES: usize = 12;
/// Size of the primary-section fixed body fields, in bytes.
pub const PRIMARY_FIXED_BYTES: usize = 4;
/// Size of the secondary-section fixed body fields, in bytes.
pub const SECONDARY_FIXED_BYTES: usize = 4;
/// Bytes per neighbor or secondary-section address entry.
pub const ADDR_BYTES: usize = 4;

/// Total size of a primary section with the given shape.
pub const fn primary_section_size(
    feature_bytes: usize,
    n_inline: usize,
    n_secondary: usize,
) -> usize {
    HEADER_BYTES
        + PRIMARY_FIXED_BYTES
        + ADDR_BYTES * n_secondary
        + feature_bytes
        + ADDR_BYTES * n_inline
}

/// Total size of a secondary section holding `n` neighbor addresses.
pub const fn secondary_section_size(n: usize) -> usize {
    HEADER_BYTES + SECONDARY_FIXED_BYTES + ADDR_BYTES * n
}

/// Maximum neighbors a single secondary section can hold in a page of
/// `page_size` bytes.
pub const fn secondary_capacity(page_size: usize) -> usize {
    (page_size - HEADER_BYTES - SECONDARY_FIXED_BYTES) / ADDR_BYTES
}

/// Writes a primary section at the start of `out`; returns its length.
///
/// This and [`write_secondary`] are the only writers of Fig 8's section
/// bytes: [`PageEncoder`] appends through them, and the builder's
/// node-by-node serialization writes each section straight into its page
/// at the offset placement gave it.
///
/// # Panics
///
/// Panics if the section does not fit in `out`, or if a field exceeds
/// its encoded width.
pub(crate) fn write_primary(
    out: &mut [u8],
    node: u32,
    total_neighbors: u32,
    secondary_addrs: &[PhysAddr],
    feature: &[u8],
    inline_neighbors: &[PhysAddr],
) -> usize {
    let size = primary_section_size(feature.len(), inline_neighbors.len(), secondary_addrs.len());
    assert!(size <= out.len(), "primary section does not fit");
    assert!(feature.len() <= u16::MAX as usize, "feature too large");
    assert!(
        secondary_addrs.len() <= u16::MAX as usize,
        "too many secondary sections"
    );
    let mut w = SectionWriter::header(out, SectionKind::Primary, size, node, total_neighbors);
    w.put(&(feature.len() as u16).to_le_bytes());
    w.put(&(secondary_addrs.len() as u16).to_le_bytes());
    w.addrs(secondary_addrs);
    w.put(feature);
    w.addrs(inline_neighbors);
    size
}

/// Writes a secondary section at the start of `out`; returns its length.
///
/// # Panics
///
/// Panics if the section does not fit in `out`.
pub(crate) fn write_secondary(
    out: &mut [u8],
    node: u32,
    owner_start: u32,
    neighbors: &[PhysAddr],
) -> usize {
    let size = secondary_section_size(neighbors.len());
    assert!(size <= out.len(), "secondary section does not fit");
    let mut w = SectionWriter::header(
        out,
        SectionKind::Secondary,
        size,
        node,
        neighbors.len() as u32,
    );
    w.put(&owner_start.to_le_bytes());
    w.addrs(neighbors);
    size
}

/// A cursor over one section's bytes, written field by field in order.
struct SectionWriter<'a> {
    out: &'a mut [u8],
    pos: usize,
}

impl<'a> SectionWriter<'a> {
    /// Writes the common 12-byte header of a `size`-byte section.
    fn header(out: &'a mut [u8], kind: SectionKind, size: usize, node: u32, count: u32) -> Self {
        assert!(
            size <= u16::MAX as usize,
            "section too large for length field"
        );
        let mut w = SectionWriter { out, pos: 0 };
        w.put(&[kind as u8, 0]);
        w.put(&(size as u16).to_le_bytes());
        w.put(&node.to_le_bytes());
        w.put(&count.to_le_bytes());
        w
    }

    fn put(&mut self, bytes: &[u8]) {
        self.out[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    fn addrs(&mut self, addrs: &[PhysAddr]) {
        let end = self.pos + ADDR_BYTES * addrs.len();
        for (word, a) in self.out[self.pos..end]
            .chunks_exact_mut(ADDR_BYTES)
            .zip(addrs)
        {
            word.copy_from_slice(&a.to_raw().to_le_bytes());
        }
        self.pos = end;
    }
}

/// Serializer for one flash page's sections.
///
/// Sections are appended in slot order into a zero-filled page, so the
/// bytes past the last section are zeros (the zero kind byte doubles as
/// the end-of-page marker for the section iterator).
#[derive(Debug)]
pub struct PageEncoder {
    buf: Box<[u8]>,
    used: usize,
    sections: usize,
}

impl PageEncoder {
    /// Creates an encoder for a page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        PageEncoder {
            buf: vec![0; page_size].into_boxed_slice(),
            used: 0,
            sections: 0,
        }
    }

    /// Bytes used so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.used
    }

    /// Number of sections appended so far (the next section's slot index).
    pub fn sections(&self) -> usize {
        self.sections
    }

    /// Appends a primary section; returns its slot index.
    ///
    /// # Panics
    ///
    /// Panics if the section does not fit in the remaining page space, or
    /// if a field exceeds its encoded width.
    pub fn push_primary(
        &mut self,
        node: u32,
        total_neighbors: u32,
        secondary_addrs: &[PhysAddr],
        feature: &[u8],
        inline_neighbors: &[PhysAddr],
    ) -> usize {
        self.used += write_primary(
            &mut self.buf[self.used..],
            node,
            total_neighbors,
            secondary_addrs,
            feature,
            inline_neighbors,
        );
        self.sections += 1;
        self.sections - 1
    }

    /// Appends a secondary section; returns its slot index.
    ///
    /// # Panics
    ///
    /// Panics if the section does not fit in the remaining page space.
    pub fn push_secondary(&mut self, node: u32, owner_start: u32, neighbors: &[PhysAddr]) -> usize {
        self.used += write_secondary(&mut self.buf[self.used..], node, owner_start, neighbors);
        self.sections += 1;
        self.sections - 1
    }

    /// Finalizes the page: its bytes, zeros past the last section.
    pub fn finish(self) -> Box<[u8]> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_formulas() {
        assert_eq!(primary_section_size(0, 0, 0), 16);
        assert_eq!(primary_section_size(100, 10, 2), 16 + 8 + 100 + 40);
        assert_eq!(secondary_section_size(5), 36);
        // 4 KB secondary page holds (4096-16)/4 = 1020 neighbors.
        assert_eq!(secondary_capacity(4096), 1020);
    }

    #[test]
    fn encoder_tracks_usage() {
        let mut e = PageEncoder::new(4096);
        assert_eq!(e.remaining(), 4096);
        let slot = e.push_secondary(7, 0, &[PhysAddr::from_raw(1), PhysAddr::from_raw(2)]);
        assert_eq!(slot, 0);
        assert_eq!(e.used(), secondary_section_size(2));
        assert_eq!(e.sections(), 1);
        let page = e.finish();
        assert_eq!(page.len(), 4096);
        assert_eq!(page[0], SectionKind::Secondary as u8);
        // Zero padding terminates the section walk.
        assert_eq!(page[secondary_section_size(2)], 0);
    }

    #[test]
    fn primary_bytes_layout() {
        let mut e = PageEncoder::new(4096);
        e.push_primary(
            0x01020304,
            9,
            &[PhysAddr::from_raw(0xAABBCCDD)],
            &[0x11, 0x22],
            &[PhysAddr::from_raw(0x55667788)],
        );
        let page = e.finish();
        assert_eq!(page[0], 1); // kind
        let len = u16::from_le_bytes([page[2], page[3]]) as usize;
        assert_eq!(len, primary_section_size(2, 1, 1));
        assert_eq!(
            u32::from_le_bytes([page[4], page[5], page[6], page[7]]),
            0x01020304
        );
        assert_eq!(
            u32::from_le_bytes([page[8], page[9], page[10], page[11]]),
            9
        );
        assert_eq!(u16::from_le_bytes([page[12], page[13]]), 2); // feature bytes
        assert_eq!(u16::from_le_bytes([page[14], page[15]]), 1); // num secondary
        assert_eq!(
            u32::from_le_bytes([page[16], page[17], page[18], page[19]]),
            0xAABBCCDD
        );
        assert_eq!(&page[20..22], &[0x11, 0x22]);
        assert_eq!(
            u32::from_le_bytes([page[22], page[23], page[24], page[25]]),
            0x55667788
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_panics() {
        let mut e = PageEncoder::new(64);
        e.push_secondary(0, 0, &vec![PhysAddr::from_raw(0); 100]);
    }

    #[test]
    fn kind_decoding() {
        assert_eq!(SectionKind::from_byte(1), Some(SectionKind::Primary));
        assert_eq!(SectionKind::from_byte(2), Some(SectionKind::Secondary));
        assert_eq!(SectionKind::from_byte(0), None);
        assert_eq!(SectionKind::from_byte(7), None);
    }
}
