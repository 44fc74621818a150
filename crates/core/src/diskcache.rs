//! Persistent on-disk workload cache.
//!
//! Preparing a workload — synthesizing the graph and features, encoding
//! the DirectGraph image — is the dominant cost of starting any
//! experiment process, and it repeats identically in every process that
//! sweeps the same dataset. This module persists the shape-independent
//! part of a prepared [`Workload`](crate::Workload) — spec and
//! DirectGraph — once per graph key (dataset, nodes, page size and
//! seed), so a second process (or a second `cargo test` binary)
//! deserializes it in milliseconds instead of rebuilding. Batch size,
//! batch count and model are not stored: every workload over the key
//! draws its own mini-batches at load, as a fresh build does. Nor is a
//! CSR graph or an f32 feature table: the DirectGraph's neighbor
//! addresses and FP-16 vectors are the image's only copy of the graph
//! and the features, and a loaded image, like a freshly built one,
//! decodes the CSR or synthesizes the table only if
//! [`Workload::graph`](crate::Workload::graph) or
//! [`Workload::features`](crate::Workload::features) asks for it.
//!
//! File layout (little-endian), one file per graph key:
//!
//! ```text
//! magic   "BWC1"                         4 B
//! format_version                         u32, currently 5
//! graph key echo                         u64 len + bytes
//! dataset name                           u64 len + bytes
//! spec scale (num_nodes)                 u64
//! DirectGraph                            embedded `DirectGraph::save` stream
//! checksum                               u64 word-lane sum over everything
//!                                        after magic (see below)
//! ```
//!
//! **Versions.** Version 2 changed the checksum (below); version 3
//! stored one image per graph key, without seed, model or mini-batches;
//! version 4 dropped the f32 feature table (a `dim` and the values) that
//! followed the graph, which the loader decoded and no engine read: a
//! third of the bytes a cold `experiments all` writes. Version 5 dropped
//! the CSR graph (the offsets and adjacency arrays) that preceded the
//! DirectGraph: every edge is already one of the DirectGraph's neighbor
//! addresses, from which [`Workload::graph`](crate::Workload::graph)
//! decodes the CSR on first use, and only scaleout's partitioners and
//! the functional path ever read it. The arrays were a third of the
//! bytes again (67.8 of the 183.5 MB of a 100,000-node amazon file). A
//! file of an older version under the same key misses, and the rebuild
//! overwrites it.
//!
//! **Checksum.** Version 2 replaced version 1's byte-at-a-time FNV-1a,
//! about half the cost of loading a large workload, with a word-lane
//! sum: the payload is read as little-endian 8-byte words, word `k` of
//! each 32-byte block goes to lane `k`, and each of the four lanes
//! (seeded with different constants) steps `h ← rotl((h ⊕ w) · P, 31)`.
//! The lanes are combined under different rotations, then the trailing
//! < 32 bytes (whole words, then the zero-padded rest) and the payload
//! length are folded in with the same step. For a fixed word each step
//! is a bijection of the state, and for a fixed state a bijection of
//! the word, so a change confined to one aligned 8-byte word — any
//! single bit or byte — always changes the sum. It is an integrity
//! check against truncation and corruption, not a defence against a
//! crafted file; the loader validates every structure it decodes
//! anyway. The sum is computed incrementally, so it can be fed the
//! payload in pieces of any size.
//!
//! **Streaming.** Files are written and read through one fixed 1 MiB
//! chunk buffer that also feeds the checksum: the writer collects the
//! header fields and the DirectGraph image's `io::Write` stream in the
//! buffer and writes it out when it fills, and the reader refills it
//! from the file and decodes each field, and the image through its own
//! `io::Read` stream, straight into its final structure. Neither side
//! stages the payload, so saving or loading a workload takes one chunk
//! of memory beyond the workload itself.
//!
//! **Validation and fallback.** A load is served only if the magic,
//! format version, graph key echo and checksum all match, every
//! embedded structure decodes, and the structures end exactly where the
//! checksum starts; any mismatch — truncation, corruption, trailing
//! bytes, a cache written by an incompatible build — returns `None` and
//! the caller rebuilds from scratch. The reader decodes as it goes and
//! compares the checksum once the payload is consumed, before it returns
//! anything, so nothing from the cache is handed out unchecked. The
//! payload length comes from the file's metadata, and no count read
//! from the file allocates more than the payload bytes it still holds.
//! File names hash the graph key with FNV-1a, so a rebuild overwrites
//! an older-version file written under the same key. Files named by an
//! older key are never read: versions 1 and 2 named each file by the
//! full builder fingerprint (batch size, batch count and model
//! included), and deleting `target/workload-cache` reclaims them.
//!
//! **Invalidation rule.** [`FORMAT_VERSION`] must be bumped whenever
//! the *meaning* of a graph key changes: generator stream layout,
//! feature synthesis, DirectGraph placement, or this container format
//! itself. The key captures builder parameters, not code — the version
//! captures the code. Mini-batch drawing and the default model need no
//! bump: they are not stored, so every load draws them with this
//! build's code.
//!
//! **Location.** The `BEACON_WORKLOAD_CACHE` environment variable picks
//! the directory; `0`, `off`, or empty disables persistence entirely;
//! unset defaults to `target/workload-cache` in the workspace. Writes
//! go to a temp file and are atomically renamed into place, so
//! concurrent processes never observe partial files.
//!
//! Only workload images persist. Sampling cascades are recorded
//! afresh in each process and kept in memory (see
//! [`crate::replaycache`]).

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use beacon_graph::{Dataset, DatasetSpec};
use directgraph::DirectGraph;

use crate::workload::Image;

const MAGIC: &[u8; 4] = b"BWC1";

/// Container+pipeline version; see the module docs for the bump rule
/// and what each version changed.
pub const FORMAT_VERSION: u32 = 5;

/// Bytes the reader and the writer stage between the file and the
/// decoded structures.
const CHUNK: usize = 1 << 20;

static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime disk-cache traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCacheStats {
    /// Loads served from a valid cache file.
    pub hits: u64,
    /// Lookups that fell through to a fresh build (missing, disabled,
    /// or invalid file).
    pub misses: u64,
}

/// Returns the hit/miss counters accumulated by this process.
pub fn stats() -> DiskCacheStats {
    DiskCacheStats {
        hits: DISK_HITS.load(Ordering::Relaxed),
        misses: DISK_MISSES.load(Ordering::Relaxed),
    }
}

/// Resolves the cache directory from the environment: an explicit path
/// from `BEACON_WORKLOAD_CACHE`, `None` when disabled (`0`, `off`, or
/// empty), or the workspace-local default when unset.
pub(crate) fn default_dir() -> Option<PathBuf> {
    match std::env::var("BEACON_WORKLOAD_CACHE") {
        Ok(v) => {
            let v = v.trim();
            if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
                None
            } else {
                Some(PathBuf::from(v))
            }
        }
        Err(_) => Some(PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/workload-cache"
        ))),
    }
}

/// The cache file path for a graph key inside `dir`.
pub(crate) fn file_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("bwc1-{:016x}.bin", fnv1a(key.as_bytes())))
}

/// Attempts to load the image for graph key `key` from `dir`.
///
/// Returns `None` — after counting a miss — on any validation failure,
/// so callers can always fall back to a fresh build.
pub(crate) fn load(dir: &Path, key: &str) -> Option<Image> {
    let result = try_load(&file_path(dir, key), key);
    match &result {
        Some(_) => DISK_HITS.fetch_add(1, Ordering::Relaxed),
        None => DISK_MISSES.fetch_add(1, Ordering::Relaxed),
    };
    result
}

/// Best-effort save of `image` under graph key `key` in `dir`. I/O
/// failures are swallowed: a cache that cannot be written only costs
/// the next process a rebuild.
pub(crate) fn save(dir: &Path, key: &str, image: &Image) {
    let _ = try_save(dir, key, image);
}

fn try_save(dir: &Path, key: &str, image: &Image) -> io::Result<()> {
    let path = file_path(dir, key);
    publish(dir, &path, key, |out| {
        out.put_bytes(image.spec.dataset.name().as_bytes())?;
        out.write_all(&(image.spec.num_nodes as u64).to_le_bytes())?;
        image.dg.save(out)
    })
}

fn try_load(path: &Path, key: &str) -> Option<Image> {
    let mut src = open(path, key)?;
    let name = src.blob()?;
    let dataset = *Dataset::ALL
        .iter()
        .find(|d| d.name().as_bytes() == name.as_slice())?;
    let num_nodes = src.u64()? as usize;
    let spec = DatasetSpec::preset(dataset).at_scale(num_nodes);

    // Corruption (the checksum is compared last) or version drift
    // FORMAT_VERSION failed to capture: a miss, not a panic.
    let dg = DirectGraph::load(&mut src).ok()?;
    src.finish()?;

    if dg.directory().len() != num_nodes {
        return None;
    }
    Some(Image {
        spec,
        graph: OnceLock::new(),
        features: OnceLock::new(),
        dg,
    })
}

/// Opens the container at `path`: checks its magic, [`FORMAT_VERSION`]
/// and key echo, and returns a reader just past the header whose
/// payload ends where the file's last 8 bytes (the checksum) begin.
/// `None` on any mismatch.
fn open(path: &Path, key: &str) -> Option<Source<File>> {
    let mut file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    let mut head = [0u8; 4];
    file.read_exact(&mut head).ok()?;
    if &head != MAGIC {
        return None;
    }
    let payload = len.checked_sub((MAGIC.len() + 8) as u64)?;
    let mut src = Source::new(file, payload);
    if src.u32()? != FORMAT_VERSION || src.blob()? != key.as_bytes() {
        return None;
    }
    Some(src)
}

/// Streams the magic, the header for `key`, the payload `body` writes
/// and the payload's checksum to a temp file in `dir`, then renames it
/// to `path`. The rename is the atomic publish: readers see either the
/// old file or the complete new one, never a partial write.
fn publish(
    dir: &Path,
    path: &Path,
    key: &str,
    body: impl FnOnce(&mut Sink<&mut File>) -> io::Result<()>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!("tmp-{}-{name}", std::process::id()));
    let write = || -> io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(MAGIC)?;
        let mut sink = Sink::new(&mut file);
        sink.write_all(&FORMAT_VERSION.to_le_bytes())?;
        sink.put_bytes(key.as_bytes())?;
        body(&mut sink)?;
        let sum = sink.finish()?;
        file.write_all(&sum.to_le_bytes())?;
        file.sync_all()
    };
    let result = write().and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The checksummed payload writer: bytes collect in one [`CHUNK`]-byte
/// buffer, and each full buffer goes to the checksum and then to `out`.
struct Sink<W: Write> {
    out: W,
    buf: Vec<u8>,
    sum: Checksum,
}

impl<W: Write> Sink<W> {
    fn new(out: W) -> Self {
        Sink {
            out,
            buf: Vec::with_capacity(CHUNK),
            sum: Checksum::new(),
        }
    }

    /// Writes out the buffered bytes.
    fn spill(&mut self) -> io::Result<()> {
        self.sum.update(&self.buf);
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Makes room for `n ≤ CHUNK` more buffered bytes.
    fn reserve(&mut self, n: usize) -> io::Result<()> {
        if self.buf.len() + n > CHUNK {
            self.spill()?;
        }
        Ok(())
    }

    /// A `u64` length, then `bytes`.
    fn put_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(&(bytes.len() as u64).to_le_bytes())?;
        self.write_all(bytes)
    }

    /// Writes out the last bytes and returns the payload checksum.
    fn finish(mut self) -> io::Result<u64> {
        self.spill()?;
        Ok(self.sum.finish())
    }
}

impl<W: Write> Write for Sink<W> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = bytes.len().min(CHUNK);
        self.reserve(n)?;
        self.buf.extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    /// A no-op: [`Sink::finish`] writes the last chunk, after which the
    /// checksum follows.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The checksummed payload reader: refills one [`CHUNK`]-byte buffer
/// from `inner`, feeds each refill to the checksum, and never reads
/// past the payload's `unread` bytes.
struct Source<R: Read> {
    inner: R,
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    /// Payload bytes not yet read from `inner`.
    unread: u64,
    sum: Checksum,
}

impl<R: Read> Source<R> {
    /// A reader of the `payload` bytes `inner` holds before its 8-byte
    /// checksum.
    fn new(inner: R, payload: u64) -> Self {
        Source {
            inner,
            buf: vec![0u8; CHUNK].into_boxed_slice(),
            pos: 0,
            end: 0,
            unread: payload,
            sum: Checksum::new(),
        }
    }

    /// Payload bytes not yet decoded.
    fn left(&self) -> u64 {
        self.unread + (self.end - self.pos) as u64
    }

    /// Buffers at least `n ≤ CHUNK` bytes; `None` if the payload (or
    /// the file) ends first.
    fn fill(&mut self, n: usize) -> Option<()> {
        if self.end - self.pos >= n {
            return Some(());
        }
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        let want = (CHUNK - self.end).min(usize::try_from(self.unread).unwrap_or(usize::MAX));
        let fresh = &mut self.buf[self.end..self.end + want];
        self.inner.read_exact(fresh).ok()?;
        self.sum.update(fresh);
        self.end += want;
        self.unread -= want as u64;
        (self.end >= n).then_some(())
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.fill(N)?;
        let bytes = self.buf[self.pos..self.pos + N].try_into().ok()?;
        self.pos += N;
        Some(bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take()?))
    }

    /// A `u64` length, then that many bytes.
    fn blob(&mut self) -> Option<Vec<u8>> {
        self.array(|[b]| b)
    }

    /// A `u64` count, then that many `N`-byte items decoded into one
    /// `Vec`. `None` if fewer than `count × N` payload bytes remain, so
    /// the result never outgrows the file.
    fn array<const N: usize, T>(&mut self, decode: impl Fn([u8; N]) -> T) -> Option<Vec<T>> {
        let count = usize::try_from(self.u64()?).ok()?;
        if count.checked_mul(N)? as u64 > self.left() {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            self.fill(N)?;
            let n = ((self.end - self.pos) / N).min(count - out.len());
            let bytes = &self.buf[self.pos..self.pos + n * N];
            out.extend(
                bytes
                    .chunks_exact(N)
                    .map(|c| decode(c.try_into().expect("chunks_exact yields N bytes"))),
            );
            self.pos += n * N;
        }
        Some(out)
    }

    /// Ends the read: `Some` only if the payload is fully consumed and
    /// its checksum matches the stored one.
    fn finish(mut self) -> Option<()> {
        if self.left() != 0 {
            return None;
        }
        let mut stored = [0u8; 8];
        self.inner.read_exact(&mut stored).ok()?;
        (self.sum.finish() == u64::from_le_bytes(stored)).then_some(())
    }
}

impl<R: Read> Read for Source<R> {
    /// Reads payload bytes; the end of the payload reads as end of file.
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() || self.fill(1).is_none() {
            return Ok(0);
        }
        let n = out.len().min(self.end - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// FNV-1a: names cache files by key (in every format version).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const LANE_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const LANE_ROTATIONS: [u32; 4] = [1, 7, 12, 18];
const MIX_PRIME: u64 = 0x9E37_79B1_85EB_CA87;

/// One checksum step. Odd-multiplier multiplication and rotation are
/// bijections, so for a fixed `word` this permutes `h`, and for a fixed
/// `h` it permutes `word`.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MIX_PRIME).rotate_left(31)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The container payload checksum (see the module docs), fed in pieces
/// of any size: four word lanes over each 32-byte block, combined, then
/// the tail and the length. `tail` holds the bytes of a block not yet
/// complete.
#[derive(Debug, Clone)]
struct Checksum {
    lanes: [u64; 4],
    tail: [u8; 32],
    tail_len: usize,
    len: u64,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            tail: [0; 32],
            tail_len: 0,
            len: 0,
        }
    }

    fn block(&mut self, block: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let n = (32 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&bytes[..n]);
            self.tail_len += n;
            bytes = &bytes[n..];
            if self.tail_len < 32 {
                return;
            }
            let block = self.tail;
            self.block(&block);
            self.tail_len = 0;
        }
        let blocks = bytes.chunks_exact(32);
        let rest = blocks.remainder();
        for block in blocks {
            self.block(block);
        }
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut h = self
            .lanes
            .iter()
            .zip(LANE_ROTATIONS)
            .fold(0, |h, (&lane, r)| h ^ lane.rotate_left(r));
        for word in self.tail[..self.tail_len].chunks(8) {
            h = mix(h, le_word(word));
        }
        mix(h, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadBuilder};

    /// The one-shot form of the payload checksum.
    fn checksum(bytes: &[u8]) -> u64 {
        let mut sum = Checksum::new();
        sum.update(bytes);
        sum.finish()
    }

    fn builder() -> WorkloadBuilder {
        Workload::builder()
            .dataset(crate::Dataset::Ogbn)
            .nodes(400)
            .batch_size(8)
            .batches(2)
            .seed(19)
    }

    /// The test builder's graph key and image.
    fn image() -> (String, Image) {
        let mut b = builder();
        (b.graph_key().unwrap(), b.image().unwrap())
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("beacon-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_identical(a: &Image, b: &Image) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.graph.get(), b.graph.get());
        assert_eq!(a.features.get(), b.features.get());
        assert_eq!(a.dg.digest(), b.dg.digest());
        assert_eq!(a.dg.stats(), b.dg.stats());
        assert_eq!(a.dg.directory(), b.dg.directory());
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let dir = tempdir("roundtrip");
        let (key, image) = image();
        save(&dir, &key, &image);
        let loaded = load(&dir, &key).expect("fresh save must load");
        assert_identical(&image, &loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The exact bytes of one BWC1 file (FNV-1a of the whole file): any
    /// change to the writer must reproduce them, or bump
    /// [`FORMAT_VERSION`].
    #[test]
    fn container_bytes_are_pinned() {
        let dir = tempdir("pin");
        let (key, image) = image();
        save(&dir, &key, &image);
        let bwc1 = std::fs::read(file_path(&dir, &key)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            (bwc1.len(), fnv1a(&bwc1)),
            (104_327, 0xa68c_8fd4_8f28_4511),
            "BWC1 bytes"
        );
    }

    #[test]
    fn missing_and_wrong_key_miss() {
        let dir = tempdir("misskey");
        assert!(load(&dir, "no such key").is_none());
        let (key, image) = image();
        save(&dir, &key, &image);
        // A different graph key maps to a different file name; even a
        // forced collision is rejected by the key echo.
        let other = file_path(&dir, "other-key");
        std::fs::copy(file_path(&dir, &key), &other).unwrap();
        assert!(load(&dir, "other-key").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_truncated_and_version_mismatched_files_fall_back() {
        let dir = tempdir("corrupt");
        let (key, image) = image();
        save(&dir, &key, &image);
        let path = file_path(&dir, &key);
        let pristine = std::fs::read(&path).unwrap();

        // Truncation at several depths (header, mid-payload, checksum).
        for cut in [3, 20, pristine.len() / 2, pristine.len() - 4] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(load(&dir, &key).is_none(), "truncated at {cut}");
        }
        // Bit flip in the middle of the payload breaks the checksum.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(load(&dir, &key).is_none(), "bit flip must fail checksum");
        // Version bump with a recomputed checksum still misses.
        let mut reversioned = pristine.clone();
        reversioned[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_end = reversioned.len() - 8;
        let sum = checksum(&reversioned[4..body_end]);
        reversioned[body_end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &reversioned).unwrap();
        assert!(load(&dir, &key).is_none(), "future version must miss");
        // And the pristine bytes still load (the harness itself works).
        std::fs::write(&path, &pristine).unwrap();
        assert!(load(&dir, &key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_detects_bit_flips_word_swaps_and_truncation() {
        let mut rng = simkit::SplitMix64::new(0xB3C1);
        for len in 0..=200usize {
            let random: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for payload in [vec![0u8; len], random.clone()] {
                let sum = checksum(&payload);
                let mut flipped = payload.clone();
                for bit in 0..len * 8 {
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(checksum(&flipped), sum, "len {len}: bit {bit}");
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
                if len > 0 {
                    assert_ne!(checksum(&payload[..len - 1]), sum, "len {len}: last byte");
                }
            }
            let sum = checksum(&random);
            for at in (0..len.saturating_sub(15)).step_by(8) {
                let mut swapped = random.clone();
                swapped[at..at + 16].rotate_left(8);
                assert_ne!(swapped, random, "len {len}: words at {at} are equal");
                assert_ne!(checksum(&swapped), sum, "len {len}: swap at {at}");
            }
        }
    }

    /// A reader over `payload` followed by its checksum.
    fn source(payload: &[u8]) -> Source<std::io::Chain<&[u8], std::io::Cursor<[u8; 8]>>> {
        let trailer = std::io::Cursor::new(checksum(payload).to_le_bytes());
        Source::new(payload.chain(trailer), payload.len() as u64)
    }

    /// Writes `items` in the [`Source::array`] encoding: a `u64` count,
    /// then each item's bytes.
    fn put_array<const N: usize, T: Copy>(
        sink: &mut Sink<&mut Vec<u8>>,
        items: &[T],
        encode: impl Fn(T) -> [u8; N],
    ) {
        sink.write_all(&(items.len() as u64).to_le_bytes()).unwrap();
        for &item in items {
            sink.write_all(&encode(item)).unwrap();
        }
    }

    #[test]
    fn array_counts_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        let mut sink = Sink::new(&mut buf);
        put_array(&mut sink, &[7u32, 8, 9], u32::to_le_bytes);
        sink.finish().unwrap();
        let mut src = source(&buf);
        assert_eq!(src.array(u32::from_le_bytes), Some(vec![7, 8, 9]));
        assert_eq!(src.left(), 0);
        assert_eq!(src.finish(), Some(()));
        // A count whose byte length overflows, and one past the input.
        for count in [1u64 << 62, 4] {
            buf[..8].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                source(&buf).array(u32::from_le_bytes),
                None,
                "count {count}"
            );
        }
    }

    #[test]
    fn older_version_files_miss_and_are_overwritten_by_the_rebuild() {
        let dir = tempdir("older");
        let key = builder().graph_key().unwrap();
        crate::WorkloadCache::with_disk_dir(&dir)
            .get_or_prepare(builder())
            .unwrap();
        let path = file_path(&dir, &key);
        let current = std::fs::read(&path).unwrap();
        // The same payload under an older version at the same file name:
        // version 1 with its FNV-1a trailer, and versions 3 and 4, the
        // last to store the feature table and the graph arrays, with the
        // word-lane sum.
        let versions = [
            (1u32, fnv1a as fn(&[u8]) -> u64),
            (3, checksum),
            (4, checksum),
        ];
        for (version, sum) in versions {
            let mut old = current.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            let body_end = old.len() - 8;
            let sum = sum(&old[4..body_end]);
            old[body_end..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            assert!(
                load(&dir, &key).is_none(),
                "a version-{version} file must miss"
            );

            crate::WorkloadCache::with_disk_dir(&dir)
                .get_or_prepare(builder())
                .unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), current, "rebuild overwrites");
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                1,
                "nothing left behind"
            );
            assert!(load(&dir, &key).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_values_resolve_to_none() {
        // Can't mutate the process environment safely under parallel
        // tests; exercise the parsing contract directly.
        for v in ["0", "off", "OFF", "  ", ""] {
            let v = v.trim();
            let disabled = v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off");
            assert!(disabled, "{v:?} should disable the cache");
        }
    }

    /// The BWC1 file of the test image, with the byte offset and stored
    /// value of every count field its decoder reads.
    struct Fixture {
        key: String,
        bytes: Vec<u8>,
        counts: Vec<(&'static str, usize)>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let dir = tempdir("files");
            let (key, image) = image();
            save(&dir, &key, &image);
            let bytes = std::fs::read(file_path(&dir, &key)).unwrap();
            let _ = std::fs::remove_dir_all(&dir);

            let n = image.dg.directory().len();
            let name = image.spec.dataset.name().len();
            let mut at = 4 + 4;
            let mut counts = vec![("graph key", at)];
            at += 8 + key.len();
            counts.push(("dataset name", at));
            at += 8 + name + 8 + 4 + 4;
            counts.push(("DirectGraph nodes", at));
            at += 8 + 4 * n + 5 * 8;
            counts.push(("DirectGraph pages", at));

            // Each offset holds the count it names.
            let want = [key.len(), name, n, image.dg.image().pages_written()];
            for ((field, at), want) in counts.iter().zip(want) {
                assert_eq!(u64_at(&bytes, *at), want as u64, "BWC1 {field}");
            }
            assert_eq!(counts.len(), 4);
            Fixture { key, bytes, counts }
        })
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// Writes `bytes` as the test image's BWC1 file into a fresh
    /// directory and loads it back; `true` if the load succeeded. A
    /// failed load must count a miss.
    fn loads(tag: &str, bytes: &[u8]) -> bool {
        let f = fixture();
        let dir = tempdir(tag);
        std::fs::write(file_path(&dir, &f.key), bytes).unwrap();
        let misses = stats().misses;
        let loaded = load(&dir, &f.key).is_some();
        assert!(
            loaded || stats().misses > misses,
            "{tag}: a failed load counts a miss"
        );
        let _ = std::fs::remove_dir_all(&dir);
        loaded
    }

    #[test]
    fn pristine_files_load() {
        assert!(loads("pristine", &fixture().bytes));
    }

    /// A file whose DirectGraph names no primary section at one
    /// neighbor address, under a recomputed checksum, still loads; its
    /// workloads' graph is regenerated from the spec, with no panic.
    #[test]
    fn undecodable_images_load_and_regenerate_their_graph() {
        let f = fixture();
        let (_, image) = image();
        let dg = &image.dg;
        // Node 0's primary section: its page follows the DirectGraph
        // page count and the page's index, and its last 4 bytes are an
        // inline neighbor address.
        let node = beacon_graph::NodeId::new(0);
        assert!(image.spec.build_graph(19).degree(node) > 0);
        let (page, slot) = dg
            .layout()
            .unpack(dg.directory().primary_addr(node).unwrap());
        let page_size = dg.layout().page_size();
        let pages = f.counts.last().unwrap().1 + 8;
        let mut at = pages + page.as_usize() * (8 + page_size) + 8;
        for _ in 0..=slot {
            at += u16::from_le_bytes([f.bytes[at + 2], f.bytes[at + 3]]) as usize;
        }
        let mut bytes = f.bytes.clone();
        bytes[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
        let end = bytes.len() - 8;
        let sum = checksum(&bytes[4..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());

        let dir = tempdir("undecodable");
        std::fs::write(file_path(&dir, &f.key), &bytes).unwrap();
        let loaded = load(&dir, &f.key).expect("the damaged image loads");
        assert!(loaded.dg.to_csr().is_err());
        let w = crate::WorkloadCache::with_disk_dir(&dir)
            .get_or_prepare(builder())
            .unwrap();
        assert_eq!(w.directgraph().digest(), loaded.dg.digest(), "not rebuilt");
        assert_eq!(w.graph(), &image.spec.build_graph(19));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_bytes_miss() {
        let mut bytes = fixture().bytes.clone();
        let end = bytes.len() - 8;
        bytes.splice(end..end, [0u8; 8]);
        let sum = checksum(&bytes[4..end + 8]);
        bytes[end + 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(!loads("trailing", &bytes));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// A file cut anywhere short of its end misses.
        #[test]
        fn truncated_files_miss(cut in 0.0f64..1.0) {
            let bytes = &fixture().bytes;
            let cut = (cut * bytes.len() as f64) as usize;
            proptest::prop_assert!(!loads("truncated", &bytes[..cut]), "cut at {cut}");
        }

        /// One to three flipped bits anywhere, the magic and the
        /// checksum included, make the file miss.
        #[test]
        fn bit_flipped_files_miss(flips in proptest::collection::vec(0.0f64..1.0, 1..4)) {
            let mut bytes = fixture().bytes.clone();
            let bits: std::collections::BTreeSet<usize> =
                flips.iter().map(|f| (f * (bytes.len() * 8) as f64) as usize).collect();
            for &bit in &bits {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            proptest::prop_assert!(!loads("flipped", &bytes), "bits {bits:?}");
        }

        /// A count field set past the bytes the file holds, under a
        /// recomputed checksum, is rejected by the decoder, which
        /// allocates nothing for it.
        #[test]
        fn oversized_counts_miss(field in 0usize..64, value in (1u64 << 32)..u64::MAX) {
            let f = fixture();
            let (name, at) = f.counts[field % f.counts.len()];
            let mut bytes = f.bytes.clone();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let end = bytes.len() - 8;
            let sum = checksum(&bytes[4..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());
            proptest::prop_assert!(!loads("oversized", &bytes), "{name} = {value}");
        }

        /// The incremental checksum, fed in pieces split anywhere —
        /// inside an 8-byte word, inside a 32-byte block, or empty —
        /// equals the one-shot sum.
        #[test]
        fn incremental_checksum_matches_one_shot(
            len in 0usize..300,
            cuts in proptest::collection::vec(0usize..300, 0..8),
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = simkit::SplitMix64::new(seed);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut sum = Checksum::new();
            let mut from = 0;
            for cut in cuts {
                sum.update(&bytes[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(sum.finish(), checksum(&bytes));
        }
    }

    #[test]
    fn chunk_seams_round_trip() {
        // Arrays that straddle the reader's and writer's chunk
        // boundaries, with item widths 1, 4 and 8 behind odd offsets.
        let mut buf = Vec::new();
        let mut sink = Sink::new(&mut buf);
        let bytes: Vec<u8> = (0..CHUNK + 3).map(|i| i as u8).collect();
        let words: Vec<u32> = (0..CHUNK as u32 / 3).collect();
        let longs: Vec<u64> = (0..CHUNK as u64 / 5).map(|i| i << 33).collect();
        sink.write_all(&[9]).unwrap();
        sink.put_bytes(&bytes).unwrap();
        put_array(&mut sink, &words, u32::to_le_bytes);
        put_array(&mut sink, &longs, u64::to_le_bytes);
        let sum = sink.finish().unwrap();
        assert_eq!(sum, checksum(&buf));
        let mut src = source(&buf);
        let mut odd = [0u8];
        src.read_exact(&mut odd).unwrap();
        assert_eq!(odd, [9]);
        assert_eq!(src.blob().as_deref(), Some(&bytes[..]));
        assert_eq!(src.array(u32::from_le_bytes), Some(words));
        assert_eq!(src.array(u64::from_le_bytes), Some(longs));
        assert_eq!(src.finish(), Some(()));
    }
}
