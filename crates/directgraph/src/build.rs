//! DirectGraph construction — the paper's Algorithm 1 (§VI-B).
//!
//! Construction runs in the two steps the paper describes:
//!
//! 1. **Mapping-based metadata collection** — for every node, compute the
//!    number and sizes of its primary and secondary sections from its
//!    neighbor-list length and feature length, and assign each section to
//!    a page with sufficient space (allocating fresh pages from the PPA
//!    list as needed).
//! 2. **Serialization** — encode each page in a host-side buffer, filling
//!    sections with neighbor *primary-section addresses* (resolved
//!    through the step-1 directory) and feature bytes, then flush the
//!    page to the store.
//!
//! Placement is first-fit over a bounded set of open pages per pool
//! (primary/secondary), honoring both the byte capacity and the
//! slot-index capacity (`2^slot_bits` sections per page) of the address
//! layout.

use std::fmt;

use beacon_graph::{CsrGraph, FeatureTable, NodeId};

use crate::addr::{AddrLayout, PageIndex, PhysAddr};
use crate::image::PageStore;
use crate::inflation::InflationReport;
use crate::layout::{
    primary_section_size, secondary_capacity, secondary_section_size, PageEncoder, ADDR_BYTES,
    HEADER_BYTES, PRIMARY_FIXED_BYTES,
};

/// Pages per parallel serialization work item (step 2). Fixed — never
/// derived from the thread count — so the encoded image is identical at
/// any parallelism level.
const PAGE_CHUNK: usize = 64;

/// Errors from DirectGraph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A node's feature vector alone exceeds a flash page, so no primary
    /// section can hold it.
    FeatureTooLarge {
        node: NodeId,
        feature_bytes: usize,
        page_size: usize,
    },
    /// The graph needs more pages than the address layout can index.
    AddressSpaceExhausted { needed_pages: u64, max_pages: u64 },
    /// Graph and feature table disagree on node count.
    NodeCountMismatch {
        graph_nodes: usize,
        feature_rows: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::FeatureTooLarge {
                node,
                feature_bytes,
                page_size,
            } => write!(
                f,
                "feature of {node} ({feature_bytes} B) cannot fit a {page_size} B page"
            ),
            BuildError::AddressSpaceExhausted {
                needed_pages,
                max_pages,
            } => {
                write!(
                    f,
                    "graph needs {needed_pages} pages, layout indexes {max_pages}"
                )
            }
            BuildError::NodeCountMismatch {
                graph_nodes,
                feature_rows,
            } => {
                write!(
                    f,
                    "graph has {graph_nodes} nodes but feature table {feature_rows} rows"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Maps node ids to the physical addresses of their primary sections.
///
/// The host keeps this directory (it is the only per-node metadata the
/// host needs) and ships target addresses to the SSD at each mini-batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDirectory {
    primary: Vec<PhysAddr>,
}

impl NodeDirectory {
    /// The primary-section address of `node`, or `None` if out of range.
    pub fn primary_addr(&self, node: NodeId) -> Option<PhysAddr> {
        self.primary.get(node.index()).copied()
    }

    /// Number of nodes in the directory.
    pub fn len(&self) -> usize {
        self.primary.len()
    }

    /// Returns `true` if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty()
    }
}

/// Aggregate construction statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildStats {
    /// Pages holding primary sections.
    pub primary_pages: u64,
    /// Pages holding secondary sections.
    pub secondary_pages: u64,
    /// Total secondary sections emitted.
    pub secondary_sections: u64,
    /// Section payload bytes actually used (excluding padding).
    pub used_bytes: u64,
    /// Graph edges serialized.
    pub edges: u64,
}

impl BuildStats {
    /// Total pages allocated.
    pub fn total_pages(&self) -> u64 {
        self.primary_pages + self.secondary_pages
    }
}

/// A fully constructed DirectGraph: page image + node directory + stats.
#[derive(Debug, Clone)]
pub struct DirectGraph {
    layout: AddrLayout,
    store: PageStore,
    directory: NodeDirectory,
    stats: BuildStats,
}

impl DirectGraph {
    /// Reassembles a DirectGraph from its parts (deserialization path).
    pub(crate) fn from_parts(
        layout: AddrLayout,
        store: PageStore,
        directory: NodeDirectory,
        stats: BuildStats,
    ) -> Self {
        DirectGraph {
            layout,
            store,
            directory,
            stats,
        }
    }

    /// Builds a directory from raw addresses (deserialization path).
    pub(crate) fn directory_from_raw(primary: Vec<PhysAddr>) -> NodeDirectory {
        NodeDirectory { primary }
    }

    /// The address layout the image was built with.
    pub fn layout(&self) -> AddrLayout {
        self.layout
    }

    /// The flash page image.
    pub fn image(&self) -> &PageStore {
        &self.store
    }

    /// Mutable access to the flash page image (used by error-injection
    /// tests and the scrubbing model).
    pub fn image_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }

    /// The node → primary-section-address directory.
    pub fn directory(&self) -> &NodeDirectory {
        &self.directory
    }

    /// Construction statistics.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// A 64-bit FNV-1a digest over the layout, every stored page (index
    /// and bytes), the directory, and the build statistics — the "golden
    /// image hash" used to assert byte-identical construction across
    /// build-thread counts and cache round-trips.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.layout.page_size() as u64).to_le_bytes());
        for (idx, bytes) in self.store.iter_pages() {
            eat(&idx.as_u64().to_le_bytes());
            eat(bytes);
        }
        for addr in &self.directory.primary {
            eat(&addr.to_raw().to_le_bytes());
        }
        let s = self.stats;
        for v in [
            s.primary_pages,
            s.secondary_pages,
            s.secondary_sections,
            s.used_bytes,
            s.edges,
        ] {
            eat(&v.to_le_bytes());
        }
        h
    }

    /// Computes the Table IV storage-inflation report against the raw
    /// representation (4 B per edge + FP-16 feature table).
    pub fn inflation(&self, features: &FeatureTable) -> InflationReport {
        let raw = self.stats.edges * ADDR_BYTES as u64 + features.table_bytes() as u64;
        InflationReport::new(raw, self.store.stored_bytes(), self.stats.used_bytes)
    }

    /// Migrates the whole image to new physical pages (the §VI-F
    /// wear-leveling reclamation): every page moves to `map(old_index)`
    /// and **every embedded physical address** — directory entries,
    /// inline neighbors, secondary pointers — is rewritten to the new
    /// location.
    ///
    /// # Errors
    ///
    /// Returns an error string if a page fails to parse (a corrupt image
    /// must be scrubbed before reclamation) or if `map` sends two pages
    /// to the same destination.
    pub fn relocate_pages(&mut self, map: impl Fn(PageIndex) -> PageIndex) -> Result<(), String> {
        let layout = self.layout;
        let remap_addr = |addr: PhysAddr| {
            let (page, slot) = layout.unpack(addr);
            layout.pack(map(page), slot)
        };

        let mut new_store = PageStore::new(layout);
        let mut dest_seen = std::collections::HashSet::new();
        let old_pages: Vec<PageIndex> = self.store.iter_pages().map(|(i, _)| i).collect();
        for old_idx in old_pages {
            let new_idx = map(old_idx);
            if !dest_seen.insert(new_idx) {
                return Err(format!("relocation maps two pages onto {new_idx}"));
            }
            let sections = self
                .store
                .parse_all_sections(old_idx)
                .map_err(|e| e.to_string())?;
            let mut enc = PageEncoder::new(layout.page_size());
            for section in sections {
                match section {
                    crate::image::Section::Primary(p) => {
                        let secondary: Vec<PhysAddr> =
                            p.secondary_addrs.iter().copied().map(remap_addr).collect();
                        let inline: Vec<PhysAddr> =
                            p.inline_neighbors.iter().copied().map(remap_addr).collect();
                        enc.push_primary(
                            p.node.as_u32(),
                            p.total_neighbors,
                            &secondary,
                            &p.feature,
                            &inline,
                        );
                    }
                    crate::image::Section::Secondary(s) => {
                        let neighbors: Vec<PhysAddr> =
                            s.neighbors.iter().copied().map(remap_addr).collect();
                        enc.push_secondary(s.node.as_u32(), s.owner_start, &neighbors);
                    }
                }
            }
            new_store.write_page(new_idx, enc.finish());
        }
        for addr in &mut self.directory.primary {
            *addr = remap_addr(*addr);
        }
        self.store = new_store;
        Ok(())
    }
}

/// Shape of one node's sections, computed in step 1 of Algorithm 1.
#[derive(Debug, Clone)]
struct NodePlan {
    n_inline: usize,
    /// `(owner_start, count)` per secondary section.
    sec_ranges: Vec<(u32, u32)>,
    primary_addr: PhysAddr,
    secondary_addrs: Vec<PhysAddr>,
}

/// What a page will contain, in slot order.
#[derive(Debug, Clone, Copy)]
enum SectionPlan {
    Primary { node: u32 },
    Secondary { node: u32, sec_idx: u32 },
}

/// An open page being filled by the first-fit placer.
#[derive(Debug)]
struct OpenPage {
    index: PageIndex,
    used: usize,
    slots: usize,
}

/// Builder implementing Algorithm 1.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct DirectGraphBuilder {
    layout: AddrLayout,
    max_open_pages: usize,
}

impl DirectGraphBuilder {
    /// Creates a builder for the given address layout.
    pub fn new(layout: AddrLayout) -> Self {
        DirectGraphBuilder {
            layout,
            max_open_pages: 64,
        }
    }

    /// Bounds the first-fit placer's open-page window (trade packing
    /// quality for construction speed). Default 64.
    pub fn max_open_pages(mut self, n: usize) -> Self {
        self.max_open_pages = n.max(1);
        self
    }

    /// Runs Algorithm 1 over `graph` and `features`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a feature vector cannot fit a page, the
    /// node counts disagree, or the address space is exhausted.
    pub fn build(
        &self,
        graph: &CsrGraph,
        features: &FeatureTable,
    ) -> Result<DirectGraph, BuildError> {
        if graph.num_nodes() != features.num_nodes() {
            return Err(BuildError::NodeCountMismatch {
                graph_nodes: graph.num_nodes(),
                feature_rows: features.num_nodes(),
            });
        }
        let page_size = self.layout.page_size();
        let feat_bytes = features.vector_bytes();
        let sec_cap = secondary_capacity(page_size);

        // ---- Step 1: metadata collection & placement. ----
        // Placement is inherently sequential (first-fit over a shared
        // open-page window), but cheap; it produces the per-page plan
        // that step 2 parallelizes over.
        let mut placer = Placer::new(self.layout, self.max_open_pages);
        let mut plans: Vec<NodePlan> = Vec::with_capacity(graph.num_nodes());
        let mut stats = BuildStats::default();

        for v in graph.nodes() {
            let deg = graph.degree(v);
            stats.edges += deg as u64;
            let shape = plan_shape(deg, feat_bytes, page_size, sec_cap).ok_or(
                BuildError::FeatureTooLarge {
                    node: v,
                    feature_bytes: feat_bytes,
                    page_size,
                },
            )?;

            let prim_size =
                primary_section_size(feat_bytes, shape.n_inline, shape.sec_ranges.len());
            let primary_addr = placer.place(
                Pool::Primary,
                prim_size,
                SectionPlan::Primary { node: v.as_u32() },
            )?;
            stats.used_bytes += prim_size as u64;

            let mut secondary_addrs = Vec::with_capacity(shape.sec_ranges.len());
            for (i, &(_, count)) in shape.sec_ranges.iter().enumerate() {
                let size = secondary_section_size(count as usize);
                let addr = placer.place(
                    Pool::Secondary,
                    size,
                    SectionPlan::Secondary {
                        node: v.as_u32(),
                        sec_idx: i as u32,
                    },
                )?;
                secondary_addrs.push(addr);
                stats.used_bytes += size as u64;
                stats.secondary_sections += 1;
            }

            plans.push(NodePlan {
                n_inline: shape.n_inline,
                sec_ranges: shape.sec_ranges,
                primary_addr,
                secondary_addrs,
            });
        }
        let (pages, primary_pages, secondary_pages) = placer.finish();
        stats.primary_pages = primary_pages;
        stats.secondary_pages = secondary_pages;

        let directory = NodeDirectory {
            primary: plans.iter().map(|p| p.primary_addr).collect(),
        };

        // ---- Step 2: serialization. ----
        // Every page's content is fully determined by the step-1 plan,
        // so pages encode independently on build threads, in fixed
        // chunks; results land in index order regardless of schedule.
        let mut encoded: Vec<Option<Box<[u8]>>> = Vec::with_capacity(pages.len());
        encoded.resize_with(pages.len(), || None);
        {
            let plans = &plans;
            let pages = &pages;
            let directory = &directory;
            simkit::par::for_each_chunk_mut(&mut encoded, PAGE_CHUNK, |start, chunk| {
                // One feature-encode buffer per worker chunk, reused
                // across every node on these pages.
                let mut feature = Vec::new();
                let mut inline: Vec<PhysAddr> = Vec::new();
                let mut addrs: Vec<PhysAddr> = Vec::new();
                for (k, out) in chunk.iter_mut().enumerate() {
                    let mut enc = PageEncoder::new(page_size);
                    for plan in &pages[start + k] {
                        match *plan {
                            SectionPlan::Primary { node } => {
                                let v = NodeId::new(node);
                                let np = &plans[v.index()];
                                inline.clear();
                                inline.extend(graph.neighbors(v)[..np.n_inline].iter().map(|&n| {
                                    directory.primary_addr(n).expect("neighbor in directory")
                                }));
                                encode_fp16_into(features.feature(v), &mut feature);
                                enc.push_primary(
                                    node,
                                    graph.degree(v) as u32,
                                    &np.secondary_addrs,
                                    &feature,
                                    &inline,
                                );
                            }
                            SectionPlan::Secondary { node, sec_idx } => {
                                let v = NodeId::new(node);
                                let np = &plans[v.index()];
                                let (start, count) = np.sec_ranges[sec_idx as usize];
                                addrs.clear();
                                addrs.extend(
                                    graph.neighbors(v)[start as usize..(start + count) as usize]
                                        .iter()
                                        .map(|&n| {
                                            directory
                                                .primary_addr(n)
                                                .expect("neighbor in directory")
                                        }),
                                );
                                enc.push_secondary(node, start, &addrs);
                            }
                        }
                    }
                    *out = Some(enc.finish());
                }
            });
        }
        let mut store = PageStore::new(self.layout);
        for (page_idx, bytes) in encoded.into_iter().enumerate() {
            store.write_page(
                PageIndex::new(page_idx as u64),
                bytes.expect("every planned page encoded"),
            );
        }

        Ok(DirectGraph {
            layout: self.layout,
            store,
            directory,
            stats,
        })
    }
}

/// Which page pool a section belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Primary,
    Secondary,
}

struct Placer {
    layout: AddrLayout,
    max_open: usize,
    open_primary: Vec<OpenPage>,
    open_secondary: Vec<OpenPage>,
    pages: Vec<Vec<SectionPlan>>,
    primary_pages: u64,
    secondary_pages: u64,
}

impl Placer {
    fn new(layout: AddrLayout, max_open: usize) -> Self {
        Placer {
            layout,
            max_open,
            open_primary: Vec::new(),
            open_secondary: Vec::new(),
            pages: Vec::new(),
            primary_pages: 0,
            secondary_pages: 0,
        }
    }

    fn place(
        &mut self,
        pool: Pool,
        size: usize,
        plan: SectionPlan,
    ) -> Result<PhysAddr, BuildError> {
        let max_slots = self.layout.max_sections_per_page();
        let page_size = self.layout.page_size();
        let open = match pool {
            Pool::Primary => &mut self.open_primary,
            Pool::Secondary => &mut self.open_secondary,
        };
        // First-fit over the open window.
        let found = open
            .iter_mut()
            .position(|p| page_size - p.used >= size && p.slots < max_slots);
        let (index, slot) = if let Some(i) = found {
            let p = &mut open[i];
            let slot = p.slots;
            p.used += size;
            p.slots += 1;
            let idx = p.index;
            // Close pages that can no longer take the smallest section.
            if p.slots == max_slots || page_size - p.used < HEADER_BYTES + PRIMARY_FIXED_BYTES {
                open.swap_remove(i);
            }
            (idx, slot)
        } else {
            // Allocate a fresh page from the PPA list.
            let idx = PageIndex::new(self.pages.len() as u64);
            if idx.as_u64() > self.layout.max_page_index() {
                return Err(BuildError::AddressSpaceExhausted {
                    needed_pages: idx.as_u64() + 1,
                    max_pages: self.layout.max_page_index() + 1,
                });
            }
            self.pages.push(Vec::new());
            match pool {
                Pool::Primary => self.primary_pages += 1,
                Pool::Secondary => self.secondary_pages += 1,
            }
            if open.len() >= self.max_open {
                // Drop the stalest open page to bound the window.
                open.remove(0);
            }
            open.push(OpenPage {
                index: idx,
                used: size,
                slots: 1,
            });
            (idx, 0)
        };
        self.pages[index.as_usize()].push(plan);
        Ok(self.layout.pack(index, slot))
    }

    fn finish(self) -> (Vec<Vec<SectionPlan>>, u64, u64) {
        (self.pages, self.primary_pages, self.secondary_pages)
    }
}

struct Shape {
    n_inline: usize,
    sec_ranges: Vec<(u32, u32)>,
}

/// Computes a node's section shape: how many neighbors stay inline and
/// how the overflow splits into secondary sections.
fn plan_shape(deg: usize, feat_bytes: usize, page_size: usize, sec_cap: usize) -> Option<Shape> {
    let all_inline = primary_section_size(feat_bytes, deg, 0);
    if all_inline <= page_size {
        return Some(Shape {
            n_inline: deg,
            sec_ranges: Vec::new(),
        });
    }
    // Overflow: iterate num_secondary to a fixed point, since each
    // secondary address consumes inline space.
    let fixed = HEADER_BYTES + PRIMARY_FIXED_BYTES + feat_bytes;
    if fixed > page_size {
        return None;
    }
    let mut n_sec = 1usize;
    loop {
        let addr_space = page_size - fixed;
        let n_inline = (addr_space / ADDR_BYTES).saturating_sub(n_sec);
        let remaining = deg - n_inline.min(deg);
        let needed = remaining.div_ceil(sec_cap);
        if needed <= n_sec {
            let n_inline = n_inline.min(deg);
            let mut sec_ranges = Vec::with_capacity(needed);
            let mut start = n_inline;
            while start < deg {
                let count = sec_cap.min(deg - start);
                sec_ranges.push((start as u32, count as u32));
                start += count;
            }
            return Some(Shape {
                n_inline,
                sec_ranges,
            });
        }
        n_sec = needed;
    }
}

/// Truncates f32 features to IEEE-754 half-precision bytes (the paper
/// stores features as FP-16).
#[allow(dead_code)]
fn encode_fp16(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_fp16_into(values, &mut out);
    out
}

/// [`encode_fp16`] into a caller-owned buffer (cleared first), so the
/// per-node build loop reuses one allocation instead of a fresh `Vec`
/// per node.
fn encode_fp16_into(values: &[f32], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(values.len() * 2);
    for &v in values {
        out.extend_from_slice(&f32_to_f16_bits(v).to_le_bytes());
    }
}

/// Round-to-nearest-even f32 → f16 bit conversion.
pub(crate) fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x7F_FFFF;
    if exp == 0xFF {
        // Inf/NaN.
        return sign | 0x7C00 | if frac != 0 { 0x200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow -> inf
    }
    if unbiased >= -14 {
        // Normal half.
        let half_exp = (unbiased + 15) as u32;
        let mut half = (half_exp << 10) | (frac >> 13);
        // Round to nearest even.
        let round_bits = frac & 0x1FFF;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half & 1) == 1) {
            half += 1;
        }
        return sign | half as u16;
    }
    if unbiased >= -24 {
        // Subnormal half.
        let shift = (-14 - unbiased) as u32;
        let mantissa = (frac | 0x80_0000) >> (13 + shift);
        return sign | mantissa as u16;
    }
    sign // underflow -> zero
}

/// Decodes FP-16 bytes back to f32 values (used by the functional GNN
/// path and tests).
pub fn decode_fp16(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(2)
        .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])))
        .collect()
}

pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let frac = (h & 0x3FF) as u32;
    let bits = if exp == 0 {
        if frac == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut f = frac;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            let f = (f & 0x3FF) << 13;
            let e = (127 - 15 + e + 1) as u32;
            sign | (e << 23) | f
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (frac << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_graph::{generate, Dataset, DatasetSpec};

    fn layout() -> AddrLayout {
        AddrLayout::for_page_size(4096).unwrap()
    }

    fn build_small(
        avg_degree: f64,
        feat_dim: usize,
        n: usize,
    ) -> (DirectGraph, CsrGraph, FeatureTable) {
        let cfg = generate::PowerLawConfig::new(n, avg_degree);
        let graph = generate::power_law(&cfg, 3);
        let features = FeatureTable::synthetic(n, feat_dim, 3);
        let dg = DirectGraphBuilder::new(layout())
            .build(&graph, &features)
            .unwrap();
        (dg, graph, features)
    }

    #[test]
    fn every_node_resolvable() {
        let (dg, graph, _) = build_small(20.0, 64, 800);
        for v in graph.nodes() {
            let addr = dg.directory().primary_addr(v).unwrap();
            let sec = dg.image().parse_section(addr).unwrap();
            let p = sec.as_primary().expect("primary section");
            assert_eq!(p.node, v);
            assert_eq!(p.total_neighbors as usize, graph.degree(v));
        }
    }

    #[test]
    fn inline_neighbors_point_to_real_neighbors() {
        let (dg, graph, _) = build_small(20.0, 64, 500);
        for v in graph.nodes() {
            let addr = dg.directory().primary_addr(v).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            let p = p.as_primary().unwrap();
            for (i, &naddr) in p.inline_neighbors.iter().enumerate() {
                let nsec = dg.image().parse_section(naddr).unwrap();
                assert_eq!(
                    nsec.node(),
                    graph.neighbors(v)[i],
                    "inline neighbor {i} of {v}"
                );
                assert!(nsec.as_primary().is_some());
            }
        }
    }

    #[test]
    fn secondary_sections_partition_overflow() {
        // High degree + big features force secondary sections.
        let (dg, graph, _) = build_small(400.0, 600, 300);
        let mut saw_secondary = false;
        for v in graph.nodes() {
            let addr = dg.directory().primary_addr(v).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            let p = p.as_primary().unwrap().clone();
            let mut covered = p.inline_count();
            for (i, &saddr) in p.secondary_addrs.iter().enumerate() {
                saw_secondary = true;
                let s = dg.image().parse_section(saddr).unwrap();
                let s = s.as_secondary().expect("secondary kind");
                assert_eq!(s.node, v, "secondary {i} owner");
                assert_eq!(s.owner_start as usize, covered, "contiguous coverage");
                // Each address resolves to the right neighbor's primary.
                for (j, &naddr) in s.neighbors.iter().enumerate() {
                    let n = graph.neighbors(v)[s.owner_start as usize + j];
                    assert_eq!(dg.image().parse_section(naddr).unwrap().node(), n);
                }
                covered += s.neighbors.len();
            }
            assert_eq!(covered, graph.degree(v), "full neighbor coverage for {v}");
        }
        assert!(saw_secondary, "test should exercise the overflow path");
    }

    #[test]
    fn features_roundtrip_at_fp16_precision() {
        let (dg, graph, features) = build_small(10.0, 32, 200);
        for v in graph.nodes().take(50) {
            let addr = dg.directory().primary_addr(v).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            let decoded = decode_fp16(&p.as_primary().unwrap().feature);
            let orig = features.feature(v);
            assert_eq!(decoded.len(), orig.len());
            for (d, o) in decoded.iter().zip(orig) {
                assert!((d - o).abs() < 1e-3, "fp16 roundtrip: {d} vs {o}");
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let (a, _, _) = build_small(15.0, 16, 300);
        let (b, _, _) = build_small(15.0, 16, 300);
        assert_eq!(a.directory(), b.directory());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn serialization_is_thread_count_invariant() {
        simkit::par::set_build_threads(1);
        let (reference, graph, features) = build_small(30.0, 48, 2_000);
        for threads in [2, 8] {
            simkit::par::set_build_threads(threads);
            let dg = DirectGraphBuilder::new(layout())
                .build(&graph, &features)
                .unwrap();
            assert_eq!(dg.digest(), reference.digest(), "threads={threads}");
            assert_eq!(dg.directory(), reference.directory());
            assert_eq!(dg.stats(), reference.stats());
        }
        simkit::par::set_build_threads(1);
    }

    #[test]
    fn slot_cap_respected() {
        // Tiny sections: many per page, but never more than 16 on 4 KB.
        let (dg, _, _) = build_small(2.0, 4, 2_000);
        for (idx, _) in dg.image().iter_pages() {
            let sections = dg.image().parse_all_sections(idx).unwrap();
            assert!(
                sections.len() <= 16,
                "page {idx} has {} sections",
                sections.len()
            );
        }
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let graph = generate::uniform(10, 2, 1);
        let features = FeatureTable::synthetic(9, 8, 1);
        let err = DirectGraphBuilder::new(layout())
            .build(&graph, &features)
            .unwrap_err();
        assert!(matches!(err, BuildError::NodeCountMismatch { .. }));
        assert!(err.to_string().contains("feature table"));
    }

    #[test]
    fn oversized_feature_rejected() {
        let graph = generate::uniform(4, 1, 1);
        let features = FeatureTable::synthetic(4, 3_000, 1); // 6 KB > 4 KB page
        let err = DirectGraphBuilder::new(layout())
            .build(&graph, &features)
            .unwrap_err();
        assert!(matches!(err, BuildError::FeatureTooLarge { .. }));
    }

    #[test]
    fn stats_are_consistent() {
        let (dg, graph, _) = build_small(50.0, 128, 400);
        let stats = dg.stats();
        assert_eq!(stats.edges as usize, graph.num_edges());
        assert_eq!(stats.total_pages() as usize, dg.image().pages_written());
        assert!(stats.used_bytes <= dg.image().stored_bytes());
        assert!(stats.primary_pages > 0);
    }

    #[test]
    fn paper_presets_build_end_to_end() {
        for d in [Dataset::Ogbn, Dataset::Movielens] {
            let spec = DatasetSpec::preset(d).at_scale(500);
            let graph = spec.build_graph(1);
            let features = spec.build_features(1);
            let dg = DirectGraphBuilder::new(layout())
                .build(&graph, &features)
                .unwrap();
            assert_eq!(dg.directory().len(), 500, "{d}");
        }
    }

    #[test]
    fn fp16_conversion_edge_cases() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, 1e-8, f32::INFINITY] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            if v.abs() < 6e-8 {
                assert_eq!(back, 0.0_f32.copysign(v));
            } else if v.is_infinite() {
                assert!(back.is_infinite());
            } else {
                assert!((back - v).abs() / v.abs().max(1.0) < 1e-3, "{v} -> {back}");
            }
        }
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow saturates to infinity.
        assert!(f16_bits_to_f32(f32_to_f16_bits(1e9)).is_infinite());
    }

    #[test]
    fn relocation_preserves_resolvability() {
        let (mut dg, graph, _) = build_small(25.0, 32, 400);
        let offset = 10_000u64;
        dg.relocate_pages(|p| PageIndex::new(p.as_u64() + offset))
            .unwrap();
        // Every node still resolves through the (rewritten) directory...
        for v in graph.nodes() {
            let addr = dg.directory().primary_addr(v).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            assert_eq!(p.node(), v);
            // ...and inline neighbor addresses still point at the right
            // nodes in the new location.
            for (i, &naddr) in p.as_primary().unwrap().inline_neighbors.iter().enumerate() {
                assert_eq!(
                    dg.image().parse_section(naddr).unwrap().node(),
                    graph.neighbors(v)[i]
                );
            }
        }
        // Old locations are gone.
        assert!(!dg.image().contains_page(PageIndex::new(0)));
    }

    #[test]
    fn relocation_rejects_colliding_map() {
        let (mut dg, _, _) = build_small(25.0, 32, 200);
        let err = dg.relocate_pages(|_| PageIndex::new(7)).unwrap_err();
        assert!(err.contains("two pages"), "{err}");
    }

    #[test]
    fn plan_shape_fixed_point() {
        // Degenerate: everything inline.
        let s = plan_shape(10, 64, 4096, secondary_capacity(4096)).unwrap();
        assert_eq!(s.n_inline, 10);
        assert!(s.sec_ranges.is_empty());
        // Forced overflow.
        let s = plan_shape(5_000, 1_000, 4096, secondary_capacity(4096)).unwrap();
        assert!(s.n_inline < 5_000);
        let covered: u32 = s.sec_ranges.iter().map(|&(_, c)| c).sum();
        assert_eq!(s.n_inline + covered as usize, 5_000);
        // Ranges contiguous.
        let mut expect = s.n_inline as u32;
        for &(start, count) in &s.sec_ranges {
            assert_eq!(start, expect);
            expect += count;
        }
    }
}
