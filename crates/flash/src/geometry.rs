//! Flash organization and page-to-die striping.
//!
//! A commodity SSD backend (paper Fig 2) is organized as channels ×
//! chips × dies × planes × blocks × pages. The contention points the
//! simulation cares about are the **die** (one sense at a time) and the
//! **channel bus** (one transfer at a time); planes and blocks matter
//! for capacity, erase granularity and wear accounting.

use directgraph::PageIndex;

/// Identifier of a flash die, flattened across channels.
///
/// # Examples
///
/// ```
/// use beacon_flash::{DieId, FlashGeometry};
/// let geo = FlashGeometry::paper_default();
/// let die = DieId::new(17);
/// assert_eq!(die.channel(&geo), 17 % 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DieId(u32);

impl DieId {
    /// Creates a die id from its flat index.
    pub const fn new(v: u32) -> Self {
        DieId(v)
    }

    /// The flat index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The channel this die hangs off, under `geo`'s striping.
    pub fn channel(self, geo: &FlashGeometry) -> usize {
        self.index() % geo.channels
    }

    /// The die's position within its channel.
    pub fn die_in_channel(self, geo: &FlashGeometry) -> usize {
        self.index() / geo.channels
    }
}

/// The physical location a DirectGraph page index stripes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashLocation {
    /// Channel index.
    pub channel: usize,
    /// Die index within the channel.
    pub die_in_channel: usize,
    /// Plane within the die.
    pub plane: usize,
    /// Block within the plane.
    pub block: usize,
    /// Page within the block.
    pub page_in_block: usize,
}

impl FlashLocation {
    /// The flattened die id of this location under `geo`.
    pub fn die_id(&self, geo: &FlashGeometry) -> DieId {
        DieId::new((self.die_in_channel * geo.channels + self.channel) as u32)
    }
}

/// The flash backend's organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of flash channels.
    pub channels: usize,
    /// Dies per channel.
    pub dies_per_channel: usize,
    /// Planes per die (paper Fig 10 shows a two-plane die).
    pub planes_per_die: usize,
    /// Blocks per plane.
    pub blocks_per_plane: usize,
    /// Pages per block ("hundreds of 4KB pages").
    pub pages_per_block: usize,
    /// Page size in bytes.
    pub page_size: usize,
}

impl FlashGeometry {
    /// The paper's default: 16 channels × 8 dies (128 dies total),
    /// two-plane dies, 4 KB pages, 256-page blocks.
    pub fn paper_default() -> Self {
        FlashGeometry {
            channels: 16,
            dies_per_channel: 8,
            planes_per_die: 2,
            blocks_per_plane: 1024,
            pages_per_block: 256,
            page_size: 4096,
        }
    }

    /// Total dies.
    pub fn total_dies(&self) -> usize {
        self.channels * self.dies_per_channel
    }

    /// Pages per die.
    pub fn pages_per_die(&self) -> usize {
        self.planes_per_die * self.blocks_per_plane * self.pages_per_block
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_dies() as u64 * self.pages_per_die() as u64 * self.page_size as u64
    }

    /// Maps a DirectGraph page index to its physical location.
    ///
    /// Pages stripe channel-first, then die, to maximize parallelism for
    /// consecutive page indices (the standard page-level striping of
    /// SimpleSSD-style models): page `i` lands on channel `i % C`, die
    /// `(i / C) % D`, and fills planes/blocks/pages sequentially above
    /// that.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the geometry's capacity.
    pub fn locate(&self, index: PageIndex) -> FlashLocation {
        let i = index.as_usize();
        let channel = i % self.channels;
        let rest = i / self.channels;
        let die_in_channel = rest % self.dies_per_channel;
        let rest = rest / self.dies_per_channel;
        let plane = rest % self.planes_per_die;
        let rest = rest / self.planes_per_die;
        let page_in_block = rest % self.pages_per_block;
        let block = rest / self.pages_per_block;
        assert!(
            block < self.blocks_per_plane,
            "page index {index} exceeds geometry capacity"
        );
        FlashLocation {
            channel,
            die_in_channel,
            plane,
            block,
            page_in_block,
        }
    }

    /// The flattened die id a page index stripes to: the same die as
    /// [`locate`](Self::locate)'s, since channel-first striping puts
    /// page `i` on die `i % total_dies()`.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds the geometry's capacity.
    pub fn die_of(&self, index: PageIndex) -> DieId {
        let i = index.as_usize();
        let dies = self.total_dies();
        assert!(
            i / dies < self.pages_per_die(),
            "page index {index} exceeds geometry capacity"
        );
        DieId::new((i % dies) as u32)
    }
}

impl Default for FlashGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_counts() {
        let g = FlashGeometry::paper_default();
        assert_eq!(g.total_dies(), 128);
        assert_eq!(g.pages_per_die(), 2 * 1024 * 256);
        // 128 dies x 512Ki pages x 4KB = 256 GiB.
        assert_eq!(g.capacity_bytes(), 128 * 2 * 1024 * 256 * 4096);
    }

    #[test]
    fn consecutive_pages_spread_channels_first() {
        let g = FlashGeometry::paper_default();
        for i in 0..16 {
            assert_eq!(g.locate(PageIndex::new(i)).channel, i as usize);
            assert_eq!(g.locate(PageIndex::new(i)).die_in_channel, 0);
        }
        // Page 16 wraps to channel 0, die 1.
        let loc = g.locate(PageIndex::new(16));
        assert_eq!((loc.channel, loc.die_in_channel), (0, 1));
    }

    #[test]
    fn die_id_roundtrip() {
        let g = FlashGeometry::paper_default();
        for i in [0u64, 1, 17, 127, 12345] {
            let loc = g.locate(PageIndex::new(i));
            let die = loc.die_id(&g);
            assert_eq!(die.channel(&g), loc.channel);
            assert_eq!(die.die_in_channel(&g), loc.die_in_channel);
            assert!(die.index() < g.total_dies());
        }
        let small = FlashGeometry {
            channels: 3,
            dies_per_channel: 5,
            planes_per_die: 2,
            blocks_per_plane: 7,
            pages_per_block: 11,
            page_size: 4096,
        };
        let wide = FlashGeometry {
            channels: 32,
            dies_per_channel: 16,
            ..FlashGeometry::paper_default()
        };
        for g in [FlashGeometry::paper_default(), small, wide] {
            let capacity = (g.total_dies() * g.pages_per_die()) as u64;
            let pages = [0, 1, 17, 127, 12345, 999_983, capacity / 2, capacity - 1];
            for i in pages.into_iter().filter(|&i| i < capacity) {
                let page = PageIndex::new(i);
                assert_eq!(g.die_of(page), g.locate(page).die_id(&g), "page {i}");
            }
            // The first page past capacity panics in both, with one message.
            let past = PageIndex::new(capacity);
            let message = |r: std::thread::Result<()>| {
                *r.expect_err("capacity overflow panics")
                    .downcast::<String>()
                    .expect("formatted message")
            };
            let die_of = std::panic::catch_unwind(|| {
                g.die_of(past);
            });
            let locate = std::panic::catch_unwind(|| {
                g.locate(past);
            });
            assert_eq!(message(die_of), message(locate));
        }
    }

    #[test]
    fn locations_are_unique_within_capacity() {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 2,
            pages_per_block: 2,
            page_size: 4096,
        };
        let total = g.total_dies() * g.pages_per_die();
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            let loc = g.locate(PageIndex::new(i as u64));
            assert!(seen.insert(loc), "duplicate location for page {i}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds geometry capacity")]
    fn over_capacity_panics() {
        let g = FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 1,
            pages_per_block: 1,
            page_size: 4096,
        };
        g.locate(PageIndex::new(1));
    }
}
