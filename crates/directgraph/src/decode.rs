//! DirectGraph decoding — the builder's inverse.
//!
//! Every neighbor reference in a DirectGraph is the flash address of the
//! neighbor's primary section (Fig 8), so the pages and the node
//! directory already hold the whole graph. [`DirectGraph::to_csr`] reads
//! it back: node by node, the primary section the directory names, then
//! that node's secondary sections in neighbor order, with every neighbor
//! address turned back into a node id. The host therefore needs no
//! second copy of the adjacency beside the image.

use std::fmt;

use beacon_graph::{CsrGraph, NodeId};

use crate::addr::PhysAddr;
use crate::build::DirectGraph;
use crate::image::{SectionParseError, SectionView};
use crate::layout::ADDR_BYTES;

/// Why an image does not decode to the graph it was built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A section the walk reads does not parse.
    Parse(SectionParseError),
    /// A directory entry or secondary pointer of `node` names a section
    /// of the wrong kind, or one another node owns.
    WrongSection { node: NodeId, addr: PhysAddr },
    /// A secondary section of `node` starts at neighbor `owner_start`,
    /// but the sections before it hold `expected` neighbors.
    OwnerStartMismatch {
        node: NodeId,
        owner_start: u32,
        expected: usize,
    },
    /// `node`'s primary section counts `total` neighbors, but its
    /// sections hold `stored`.
    NeighborCountMismatch {
        node: NodeId,
        total: u32,
        stored: usize,
    },
    /// A neighbor address of `node` names no node's primary section.
    UnknownNeighbor { node: NodeId, addr: PhysAddr },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Parse(e) => write!(f, "{e}"),
            DecodeError::WrongSection { node, addr } => {
                write!(f, "{node}'s section at {addr} is not one it owns")
            }
            DecodeError::OwnerStartMismatch {
                node,
                owner_start,
                expected,
            } => write!(
                f,
                "{node}'s secondary section starts at neighbor {owner_start}, not {expected}"
            ),
            DecodeError::NeighborCountMismatch {
                node,
                total,
                stored,
            } => write!(f, "{node} counts {total} neighbors but stores {stored}"),
            DecodeError::UnknownNeighbor { node, addr } => {
                write!(
                    f,
                    "{node}'s neighbor address {addr} names no primary section"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<SectionParseError> for DecodeError {
    fn from(e: SectionParseError) -> Self {
        DecodeError::Parse(e)
    }
}

/// Marks an inverse-table slot no directory entry names.
const NO_NODE: u32 = u32::MAX;

impl DirectGraph {
    /// The graph this image encodes, decoded from its pages: the inverse
    /// of [`DirectGraphBuilder::build`](crate::DirectGraphBuilder::build),
    /// so `to_csr()` of a built image equals the input graph, neighbor
    /// order, duplicate edges and self-loops included.
    ///
    /// The walk reads each directory entry's primary section, then that
    /// node's secondary sections in neighbor order, and checks that each
    /// section is owned by the node, that each secondary section starts
    /// where the ones before it end (`owner_start`), and that the node's
    /// sections hold exactly its `total_neighbors`. Neighbor addresses
    /// resolve through a dense inverse table with one entry per section
    /// slot of each written page, so its size follows the pages the
    /// image holds, never a count stored in it.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] in node order: a section that
    /// does not parse, is not the node's, or breaks the neighbor count,
    /// or a neighbor address that names no node's primary section.
    pub fn to_csr(&self) -> Result<CsrGraph, DecodeError> {
        let layout = self.layout();
        let store = self.image();
        let slots = layout.max_sections_per_page();
        // Each written page's rank among the written pages, over the
        // store's index span (gaps read `NO_NODE`).
        let (base, span) = store.span();
        let mut rank = vec![NO_NODE; span];
        for (r, (page, _)) in store.iter_pages().enumerate() {
            rank[(page.as_u64() - base) as usize] = r as u32;
        }
        let slot_of = |addr: PhysAddr| {
            let (page, slot) = layout.unpack(addr);
            let i = usize::try_from(page.as_u64().wrapping_sub(base)).ok()?;
            let r = *rank.get(i)?;
            (r != NO_NODE).then(|| r as usize * slots + slot)
        };

        // The inverse table: which node's primary section each slot holds,
        // as the directory claims. The walk below checks every claim.
        let directory = self.directory().addrs();
        let mut owner = vec![NO_NODE; store.pages_written() * slots];
        for (v, &addr) in directory.iter().enumerate() {
            let i = slot_of(addr).ok_or(SectionParseError::PageMissing(layout.unpack(addr).0))?;
            owner[i] = v as u32;
        }
        let resolve = |node, addr| match slot_of(addr).map(|i| owner[i]) {
            Some(u) if u != NO_NODE => Ok(NodeId::new(u)),
            _ => Err(DecodeError::UnknownNeighbor { node, addr }),
        };

        // Every stored neighbor takes an address's bytes in a page.
        let most = self
            .stats()
            .edges
            .min(store.stored_bytes() / ADDR_BYTES as u64);
        let mut adjacency = Vec::with_capacity(most as usize);
        let mut offsets = Vec::with_capacity(directory.len() + 1);
        offsets.push(0u64);
        for (v, &addr) in directory.iter().enumerate() {
            let node = NodeId::new(v as u32);
            let start = adjacency.len();
            let primary = match store.parse_section_view(addr)? {
                SectionView::Primary(p) if p.node == node => p,
                _ => return Err(DecodeError::WrongSection { node, addr }),
            };
            for i in 0..primary.inline_count() {
                adjacency.push(resolve(node, primary.inline_neighbor(i))?);
            }
            for j in 0..primary.num_secondary() {
                let at = primary.secondary_addr(j);
                let section = match store.parse_section_view(at)? {
                    SectionView::Secondary(s) if s.node == node => s,
                    _ => return Err(DecodeError::WrongSection { node, addr: at }),
                };
                let expected = adjacency.len() - start;
                if section.owner_start as usize != expected {
                    return Err(DecodeError::OwnerStartMismatch {
                        node,
                        owner_start: section.owner_start,
                        expected,
                    });
                }
                for i in 0..section.num_neighbors() {
                    adjacency.push(resolve(node, section.neighbor(i))?);
                }
            }
            let stored = adjacency.len() - start;
            if stored != primary.total_neighbors as usize {
                return Err(DecodeError::NeighborCountMismatch {
                    node,
                    total: primary.total_neighbors,
                    stored,
                });
            }
            offsets.push(adjacency.len() as u64);
        }
        // Offsets grow monotonically to the adjacency's end, and every
        // entry is a directory index: the arrays are a valid CSR.
        Ok(CsrGraph::from_raw_parts(offsets, adjacency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddrLayout, PageIndex};
    use crate::build::DirectGraphBuilder;
    use beacon_graph::{generate, CsrGraphBuilder, Dataset, DatasetSpec, FeatureTable};

    fn build(graph: &CsrGraph, dim: usize, page_size: usize) -> DirectGraph {
        DirectGraphBuilder::new(AddrLayout::for_page_size(page_size).unwrap())
            .build(graph, &FeatureTable::synthetic(graph.num_nodes(), dim, 1))
            .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// A preset image decodes to the graph it was built from.
        #[test]
        fn preset_images_decode_to_their_graph(
            preset in 0usize..5,
            nodes in 2usize..3_001,
            page_pow in 11u32..15,
            seed in proptest::any::<u64>(),
        ) {
            let spec = DatasetSpec::preset(Dataset::ALL[preset]).at_scale(nodes);
            let graph = spec.build_graph(seed);
            let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(1 << page_pow).unwrap())
                .build_with(&graph, spec.feature_dim, &|v, out| spec.feature_row(seed, v, out))
                .unwrap();
            proptest::prop_assert_eq!(
                dg.to_csr(),
                Ok(graph),
                "{} x {} at {} B pages, seed {}", spec.dataset, nodes, 1 << page_pow, seed
            );
        }

        /// So does a custom graph with zero-degree nodes (the upper half
        /// has no out-edges), self-loops, duplicate edges and hubs that
        /// overflow into secondary sections (sources skew to node 0).
        #[test]
        fn custom_images_decode_to_their_graph(
            nodes in 2usize..300,
            edges in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..3_000),
            dim in 1usize..600,
            page_pow in 11u32..15,
        ) {
            let mut b = CsrGraphBuilder::new(nodes);
            let half = (nodes / 2) as f64;
            for (from, to) in edges {
                let from = (from.powi(4) * half) as u32;
                let to = (to * nodes as f64) as u32;
                b.add_edge(NodeId::new(from), NodeId::new(to));
            }
            b.add_edge(NodeId::new(0), NodeId::new(0));
            b.add_edge(NodeId::new(0), NodeId::new(0));
            let graph = b.build();
            let dg = build(&graph, dim, 1 << page_pow);
            proptest::prop_assert_eq!(dg.to_csr(), Ok(graph));
        }
    }

    #[test]
    fn relocated_images_decode_to_the_same_graph() {
        let graph = generate::power_law(&generate::PowerLawConfig::new(300, 40.0), 9);
        let dg = build(&graph, 400, 2048);
        assert!(dg.stats().secondary_sections > 0);
        // Shifted up the address space, and spread onto even pages.
        for map in [|p: u64| p + (1 << 20), |p: u64| 2 * p] {
            let mut moved = dg.clone();
            moved
                .relocate_pages(|p| PageIndex::new(map(p.as_u64())))
                .unwrap();
            assert_eq!(moved.to_csr().as_ref(), Ok(&graph));
        }
    }

    #[test]
    fn broken_sections_are_errors() {
        let graph = generate::power_law(&generate::PowerLawConfig::new(200, 12.0), 4);
        // 400-byte features: at most 9 primary sections to a 4 KB page,
        // so slot 15 is never used.
        let dg = build(&graph, 200, 4096);
        let layout = dg.layout();
        let node = NodeId::new(0);
        let addr = dg.directory().primary_addr(node).unwrap();
        let (page, slot) = layout.unpack(addr);
        let bytes = dg.image().read_page(page).unwrap().to_vec();
        // Byte offset and length of node 0's primary section.
        let mut at = 0;
        for _ in 0..slot {
            at += u16::from_le_bytes([bytes[at + 2], bytes[at + 3]]) as usize;
        }
        let len = u16::from_le_bytes([bytes[at + 2], bytes[at + 3]]) as usize;
        assert!(graph.degree(node) > 0);
        let with = |edit: &dyn Fn(&mut [u8])| {
            let mut dg = dg.clone();
            let mut page_bytes = bytes.clone();
            edit(&mut page_bytes[at..at + len]);
            dg.image_mut()
                .write_page(page, page_bytes.into_boxed_slice());
            dg.to_csr().unwrap_err()
        };
        // The last inline neighbor names an unused slot past the page's
        // sections, then a page the image never wrote.
        for to in [
            layout.pack(page, 15),
            layout.pack(PageIndex::new(1 << 20), 0),
        ] {
            let err =
                with(&|s: &mut [u8]| s[len - 4..].copy_from_slice(&to.to_raw().to_le_bytes()));
            assert_eq!(err, DecodeError::UnknownNeighbor { node, addr: to });
        }
        // A total neighbor count one too high, and another owner.
        let total = graph.degree(node) as u32 + 1;
        let err = with(&|s: &mut [u8]| s[8..12].copy_from_slice(&total.to_le_bytes()));
        assert!(
            matches!(err, DecodeError::NeighborCountMismatch { .. }),
            "{err}"
        );
        let err = with(&|s: &mut [u8]| s[4..8].copy_from_slice(&7u32.to_le_bytes()));
        assert_eq!(err, DecodeError::WrongSection { node, addr });
        assert!(err.to_string().contains("not one it owns"), "{err}");
    }
}
