//! DirectGraph image serialization.
//!
//! Converting a large dataset to DirectGraph is the expensive,
//! once-per-dataset step (§VI-B); this module persists the converted
//! image — page store, node directory, and build statistics — in a
//! compact binary container so it can be prepared once and reloaded
//! across runs, exactly as a deployment would flash it once and reuse
//! the reserved blocks.
//!
//! Container layout (little-endian):
//!
//! ```text
//! magic   "DGR1"                      4 B
//! page_size                           u32
//! num_nodes                           u64
//! directory: raw PhysAddr per node    num_nodes × u32
//! stats: primary_pages, secondary_pages, secondary_sections,
//!        used_bytes, edges            5 × u64
//! num_pages                           u64
//! per page: index u64 + page bytes    num_pages × (8 + page_size)
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use crate::addr::{AddrLayout, PageIndex, PhysAddr};
use crate::build::{BuildStats, DirectGraph};
use crate::image::PageStore;

const MAGIC: &[u8; 4] = b"DGR1";

/// Deserialization failures.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the DirectGraph magic.
    BadMagic([u8; 4]),
    /// The stored page size has no valid address layout.
    BadPageSize(u32),
    /// A page record exceeds the layout's index range, or the page
    /// index set is so sparse that its slot table would outgrow the
    /// page bytes read.
    PageIndexOutOfRange(u64),
    /// The page count disagrees with the stored build statistics.
    PageCountMismatch { pages: u64, stats: u64 },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o: {e}"),
            LoadError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            LoadError::BadPageSize(s) => write!(f, "unsupported page size {s}"),
            LoadError::PageIndexOutOfRange(i) => write!(f, "page index {i} out of range"),
            LoadError::PageCountMismatch { pages, stats } => write!(
                f,
                "{pages} pages stored, but the build statistics count {stats}"
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl DirectGraph {
    /// Serializes the image into `writer`.
    ///
    /// A `&mut` reference can be passed as the writer.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(MAGIC)?;
        writer.write_all(&(self.layout().page_size() as u32).to_le_bytes())?;
        let n = self.directory().len() as u64;
        writer.write_all(&n.to_le_bytes())?;
        for i in 0..self.directory().len() {
            let addr = self
                .directory()
                .primary_addr(beacon_graph::NodeId::new(i as u32))
                .expect("index in range");
            writer.write_all(&addr.to_raw().to_le_bytes())?;
        }
        let s = self.stats();
        for v in [
            s.primary_pages,
            s.secondary_pages,
            s.secondary_sections,
            s.used_bytes,
            s.edges,
        ] {
            writer.write_all(&v.to_le_bytes())?;
        }
        writer.write_all(&(self.image().pages_written() as u64).to_le_bytes())?;
        for (idx, bytes) in self.image().iter_pages() {
            writer.write_all(&idx.as_u64().to_le_bytes())?;
            writer.write_all(bytes)?;
        }
        Ok(())
    }

    /// Deserializes an image from `reader`.
    ///
    /// A `&mut` reference can be passed as the reader.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on malformed input, including a node count
    /// larger than the stream: the directory grows as entries are read,
    /// so a hostile count never allocates more than the input holds.
    pub fn load<R: Read>(mut reader: R) -> Result<DirectGraph, LoadError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(LoadError::BadMagic(magic));
        }
        let page_size = read_u32(&mut reader)?;
        let layout = AddrLayout::for_page_size(page_size as usize)
            .ok_or(LoadError::BadPageSize(page_size))?;
        let n = read_u64(&mut reader)? as usize;
        let mut primary = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            primary.push(PhysAddr::from_raw(read_u32(&mut reader)?));
        }
        let directory = DirectGraph::directory_from_raw(primary);
        let stats = BuildStats {
            primary_pages: read_u64(&mut reader)?,
            secondary_pages: read_u64(&mut reader)?,
            secondary_sections: read_u64(&mut reader)?,
            used_bytes: read_u64(&mut reader)?,
            edges: read_u64(&mut reader)?,
        };
        let num_pages = read_u64(&mut reader)?;
        if num_pages != stats.total_pages() {
            return Err(LoadError::PageCountMismatch {
                pages: num_pages,
                stats: stats.total_pages(),
            });
        }
        let mut store = PageStore::new(layout);
        let mut bytes_read = 0u64;
        for _ in 0..num_pages {
            let idx = read_u64(&mut reader)?;
            if idx > layout.max_page_index() {
                return Err(LoadError::PageIndexOutOfRange(idx));
            }
            let mut page = vec![0u8; page_size as usize];
            reader.read_exact(&mut page)?;
            bytes_read += u64::from(page_size);
            // A sparse index set may not grow the slot table past the
            // page bytes read.
            let idx = PageIndex::new(idx);
            if store.table_bytes_with(idx) > bytes_read {
                return Err(LoadError::PageIndexOutOfRange(idx.as_u64()));
            }
            store.write_page(idx, page.into_boxed_slice());
        }
        Ok(DirectGraph::from_parts(layout, store, directory, stats))
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DirectGraphBuilder;
    use beacon_graph::{generate, FeatureTable, NodeId};

    fn build_dg(n: usize) -> DirectGraph {
        let graph = generate::uniform(n, 6, 3);
        let feats = FeatureTable::synthetic(n, 24, 3);
        DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &feats)
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dg = build_dg(300);
        let mut buf = Vec::new();
        dg.save(&mut buf).unwrap();
        let loaded = DirectGraph::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.stats(), dg.stats());
        assert_eq!(loaded.directory(), dg.directory());
        assert_eq!(loaded.layout(), dg.layout());
        assert_eq!(loaded.image().pages_written(), dg.image().pages_written());
        // Spot-check sections parse identically.
        for i in (0..300).step_by(37) {
            let v = NodeId::new(i);
            let addr = dg.directory().primary_addr(v).unwrap();
            assert_eq!(
                loaded.image().parse_section(addr).unwrap(),
                dg.image().parse_section(addr).unwrap()
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = DirectGraph::load(&b"NOPE-----"[..]).unwrap_err();
        assert!(matches!(err, LoadError::BadMagic(_)));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn truncated_stream_rejected() {
        let dg = build_dg(50);
        let mut buf = Vec::new();
        dg.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = DirectGraph::load(buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
    }

    #[test]
    fn bad_page_size_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"DGR1");
        buf.extend_from_slice(&777u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = DirectGraph::load(buf.as_slice()).unwrap_err();
        assert!(matches!(err, LoadError::BadPageSize(777)));
    }

    #[test]
    fn hostile_node_count_is_an_error() {
        // A header alone claiming 2^40 (a 4 TiB directory) or 2^62 nodes
        // (beyond any allocation): the stream ends at the first entry.
        for n in [1u64 << 40, 1u64 << 62] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"DGR1");
            buf.extend_from_slice(&4096u32.to_le_bytes());
            buf.extend_from_slice(&n.to_le_bytes());
            let err = DirectGraph::load(buf.as_slice()).unwrap_err();
            assert!(matches!(err, LoadError::Io(_)), "{n}: {err}");
        }
    }

    /// A DGR1 stream with 4 KB zeroed pages at `pages`, an empty
    /// directory, and statistics counting `stat_pages` pages.
    fn pages_at(stat_pages: u64, pages: &[u64]) -> Vec<u8> {
        let mut buf = b"DGR1".to_vec();
        buf.extend_from_slice(&4096u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        for stat in [stat_pages, 0, 0, 0, 0] {
            buf.extend_from_slice(&stat.to_le_bytes());
        }
        buf.extend_from_slice(&(pages.len() as u64).to_le_bytes());
        for &idx in pages {
            buf.extend_from_slice(&idx.to_le_bytes());
            buf.extend_from_slice(&[0u8; 4096]);
        }
        buf
    }

    #[test]
    fn hostile_page_index_is_an_error() {
        let last = AddrLayout::for_page_size(4096).unwrap().max_page_index();
        // Pages at 0 and at the last index: 8 KB of pages behind a
        // 2^28-slot table.
        let err = DirectGraph::load(pages_at(2, &[0, last]).as_slice()).unwrap_err();
        assert!(
            matches!(err, LoadError::PageIndexOutOfRange(i) if i == last),
            "{err}"
        );
        // A lone page there behind zeroed statistics.
        let err = DirectGraph::load(pages_at(0, &[last]).as_slice()).unwrap_err();
        assert!(
            matches!(err, LoadError::PageCountMismatch { pages: 1, stats: 0 }),
            "{err}"
        );
    }

    #[test]
    fn relocated_image_roundtrips_at_any_offset() {
        let mut dg = build_dg(120);
        dg.relocate_pages(|p| PageIndex::new(p.as_u64() + (1 << 20)))
            .unwrap();
        let mut buf = Vec::new();
        dg.save(&mut buf).unwrap();
        let loaded = DirectGraph::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.digest(), dg.digest());
        assert_eq!(loaded.image().pages_written(), dg.image().pages_written());
    }

    /// The DGR1 stream of a small image with secondary sections, and
    /// the byte offset of each count its loader reads: the node count,
    /// the primary and secondary page statistics, and the page count.
    fn fuzz_stream() -> &'static (Vec<u8>, Vec<usize>) {
        static STREAM: std::sync::OnceLock<(Vec<u8>, Vec<usize>)> = std::sync::OnceLock::new();
        STREAM.get_or_init(|| {
            // 1,900-byte features leave room for about 30 inline
            // addresses on a 2 KB page, so busy nodes overflow.
            let (n, dim) = (100, 950);
            let graph = generate::power_law(&generate::PowerLawConfig::new(n, 30.0), 5);
            let feats = FeatureTable::synthetic(n, dim, 5);
            let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(2048).unwrap())
                .build(&graph, &feats)
                .unwrap();
            assert!(dg.stats().secondary_sections > 0);
            let mut buf = Vec::new();
            dg.save(&mut buf).unwrap();
            let stats = 4 + 4 + 8 + 4 * n;
            (buf, vec![8, stats, stats + 8, stats + 5 * 8])
        })
    }

    /// What `beacongnn inspect` does with an untrusted DGR1 file, and
    /// what a workload does with one from its disk cache: load it, then
    /// validate the image, decode its graph and parse every page's
    /// sections. Errors are fine; a panic fails the calling test.
    fn ingest(bytes: &[u8]) -> Result<(), LoadError> {
        let dg = DirectGraph::load(bytes)?;
        let _ = crate::Validator::new(&dg).verify_image();
        let _ = dg.to_csr();
        for (idx, _) in dg.image().iter_pages() {
            let _ = dg.image().parse_all_sections(idx);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A stream cut anywhere short of its end fails to load.
        #[test]
        fn truncated_streams_fail_to_load(cut in 0.0f64..1.0) {
            let bytes = &fuzz_stream().0;
            let cut = (cut * bytes.len() as f64) as usize;
            proptest::prop_assert!(ingest(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        /// One to three flipped bits anywhere never panic.
        #[test]
        fn bit_flipped_streams_never_panic(flips in proptest::collection::vec(0.0f64..1.0, 1..4)) {
            let mut bytes = fuzz_stream().0.clone();
            for f in flips {
                let bit = (f * (bytes.len() * 8) as f64) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = ingest(&bytes);
        }

        /// Random 8-byte words written over any offset never panic.
        #[test]
        fn overwritten_words_never_panic(
            words in proptest::collection::vec((0.0f64..1.0, proptest::any::<u64>()), 1..4),
        ) {
            let mut bytes = fuzz_stream().0.clone();
            for (at, word) in words {
                let at = (at * (bytes.len() - 7) as f64) as usize;
                bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
            let _ = ingest(&bytes);
        }

        /// A node or page count set past what the stream holds is an
        /// error, not a panic or a huge allocation.
        #[test]
        fn oversized_counts_fail_to_load(field in 0usize..4, value in (1u64 << 32)..u64::MAX) {
            let (bytes, counts) = fuzz_stream();
            let mut bytes = bytes.clone();
            let at = counts[field];
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            proptest::prop_assert!(ingest(&bytes).is_err(), "field {field} = {value}");
        }
    }

    #[test]
    fn page_statistics_summing_past_u64_are_an_error() {
        let (bytes, counts) = fuzz_stream();
        for field in [1, 2] {
            let mut bytes = bytes.clone();
            let at = counts[field];
            bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = ingest(&bytes).unwrap_err();
            assert!(matches!(err, LoadError::PageCountMismatch { .. }), "{err}");
        }
    }

    #[test]
    fn size_is_dominated_by_pages() {
        let dg = build_dg(200);
        let mut buf = Vec::new();
        dg.save(&mut buf).unwrap();
        let pages = dg.image().pages_written();
        assert!(buf.len() >= pages * 4096);
        assert!(buf.len() < pages * 4096 + 200 * 4 + 1024);
    }
}
