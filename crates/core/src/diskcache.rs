//! Persistent on-disk workload cache.
//!
//! Preparing a workload — synthesizing the graph and features, encoding
//! the DirectGraph image — is the dominant cost of starting any
//! experiment process, and it repeats identically in every process that
//! sweeps the same dataset. This module persists fully prepared
//! [`Workload`]s keyed by [`Workload::fingerprint`] so a second
//! process (or a second `cargo test` binary) deserializes in
//! milliseconds instead of rebuilding.
//!
//! File layout (little-endian), one file per fingerprint:
//!
//! ```text
//! magic   "BWC1"                         4 B
//! format_version                         u32, currently 2
//! fingerprint echo                       u64 len + bytes
//! seed                                   u64
//! model: hops u8, fanout u16,
//!        feature_dim u64, hidden_dim u64
//! dataset name                           u64 len + bytes
//! spec scale (num_nodes)                 u64
//! batches: count, then per batch         u64 len + u32 node ids
//! graph: offsets (u64 len + u64s),
//!        adjacency (u64 len + u32s)
//! features: dim u64, values u64 len + f32 bits
//! DirectGraph                            embedded `DirectGraph::save` stream
//! checksum                               u64 word-lane sum over everything
//!                                        after magic (see below)
//! ```
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
//! chunk buffer that also feeds the checksum: the writer encodes each
//! array into the buffer and writes it out when it fills, and the
//! reader refills it from the file and decodes each array straight into
//! its final `Vec` (the DirectGraph image through its own
//! `io::Read`/`io::Write` stream). Neither side stages the payload, so
//! saving or loading a workload takes one chunk of memory beyond the
//! workload itself.
//!
//! **Validation and fallback.** A load is served only if the magic,
//! format version, fingerprint echo and checksum all match, every
//! embedded structure decodes, and the structures end exactly where the
//! checksum starts; any mismatch — truncation, corruption, trailing
//! bytes, a cache written by an incompatible build — returns `None` and
//! the caller rebuilds from scratch. The reader decodes as it goes and
//! compares the checksum once the payload is consumed, before it returns
//! anything, so nothing from the cache is handed out unchecked. The
//! payload length comes from the file's metadata, and no count read
//! from the file allocates more than the payload bytes it still holds.
//! File names hash the fingerprint with FNV-1a in every version, so a
//! rebuild overwrites a stale-version file rather than leaving it
//! behind.
//!
//! **Invalidation rule.** [`FORMAT_VERSION`] must be bumped whenever
//! the *meaning* of a fingerprint changes: generator stream layout,
//! feature synthesis, DirectGraph placement, mini-batch drawing, or
//! this container format itself. The fingerprint captures builder
//! parameters, not code — the version captures the code.
//!
//! **Location.** The `BEACON_WORKLOAD_CACHE` environment variable picks
//! the directory; `0`, `off`, or empty disables persistence entirely;
//! unset defaults to `target/workload-cache` in the workspace. Writes
//! go to a temp file and are atomically renamed into place, so
//! concurrent processes never observe partial files.
//!
//! **Cascade recordings.** The same directory also holds `brc1-` files:
//! serialized [`CascadeRecording`]s keyed by the record/replay cache
//! (see [`crate::replaycache`]), in an identical container (magic
//! `BRC1`, the shared [`FORMAT_VERSION`], key echo, checksum, atomic
//! publish) whose payload is the recording's byte stream. Workloads and
//! the cascades recorded from them invalidate together.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use beacon_gnn::GnnModelConfig;
use beacon_graph::{CsrGraph, Dataset, DatasetSpec, FeatureTable, NodeId};
use beacon_platforms::CascadeRecording;
use directgraph::DirectGraph;

use crate::workload::Workload;

const MAGIC: &[u8; 4] = b"BWC1";
const RECORDING_MAGIC: &[u8; 4] = b"BRC1";

/// Container+pipeline version; see the module docs for the bump rule.
/// Version 2 changed the payload checksum.
pub const FORMAT_VERSION: u32 = 2;

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

/// The cache file path for a fingerprint inside `dir`.
pub(crate) fn file_path(dir: &Path, fingerprint: &str) -> PathBuf {
    dir.join(format!("bwc1-{:016x}.bin", fnv1a(fingerprint.as_bytes())))
}

/// Attempts to load the workload for `fingerprint` from `dir`.
///
/// Returns `None` — after counting a miss — on any validation failure,
/// so callers can always fall back to a fresh build.
pub(crate) fn load(dir: &Path, fingerprint: &str) -> Option<Workload> {
    let result = try_load(&file_path(dir, fingerprint), fingerprint);
    match &result {
        Some(_) => DISK_HITS.fetch_add(1, Ordering::Relaxed),
        None => DISK_MISSES.fetch_add(1, Ordering::Relaxed),
    };
    result
}

/// Best-effort save of `workload` under `fingerprint` in `dir`. I/O
/// failures are swallowed: a cache that cannot be written only costs
/// the next process a rebuild.
pub(crate) fn save(dir: &Path, fingerprint: &str, workload: &Workload) {
    let _ = try_save(dir, fingerprint, workload);
}

fn try_save(dir: &Path, fingerprint: &str, w: &Workload) -> io::Result<()> {
    let path = file_path(dir, fingerprint);
    publish(dir, &path, MAGIC, fingerprint, |out| {
        let (m, g, f) = (w.model(), w.graph(), w.features());
        out.write_all(&w.seed().to_le_bytes())?;
        out.write_all(&[m.hops])?;
        out.write_all(&m.fanout.to_le_bytes())?;
        out.write_all(&(m.feature_dim as u64).to_le_bytes())?;
        out.write_all(&(m.hidden_dim as u64).to_le_bytes())?;
        out.put_bytes(w.spec().dataset.name().as_bytes())?;
        out.write_all(&(w.spec().num_nodes as u64).to_le_bytes())?;
        out.write_all(&(w.batches().len() as u64).to_le_bytes())?;
        for batch in w.batches() {
            out.put_array(batch, |v| v.as_u32().to_le_bytes())?;
        }
        out.put_array(g.offsets(), u64::to_le_bytes)?;
        out.put_array(g.adjacency(), |v| v.as_u32().to_le_bytes())?;
        out.write_all(&(f.dim() as u64).to_le_bytes())?;
        out.put_array(f.values(), |x| x.to_bits().to_le_bytes())?;
        w.directgraph().save(out)
    })
}

fn try_load(path: &Path, fingerprint: &str) -> Option<Workload> {
    let mut src = open(path, MAGIC, fingerprint)?;
    let seed = src.u64()?;
    let model = GnnModelConfig {
        hops: src.u8()?,
        fanout: src.u16()?,
        feature_dim: src.u64()? as usize,
        hidden_dim: src.u64()? as usize,
    };
    let name = src.blob()?;
    let dataset = *Dataset::ALL
        .iter()
        .find(|d| d.name().as_bytes() == name.as_slice())?;
    let num_nodes = src.u64()? as usize;
    let spec = DatasetSpec::preset(dataset).at_scale(num_nodes);

    // Each batch holds at least its 8-byte length.
    let count = src.u64()?;
    if count > src.left() / 8 {
        return None;
    }
    let batches = (0..count)
        .map(|_| src.array(node_id))
        .collect::<Option<Vec<_>>>()?;
    let offsets = src.array(u64::from_le_bytes)?;
    let adjacency = src.array(node_id)?;
    // Corruption (the checksum is compared last) or version drift
    // FORMAT_VERSION failed to capture: a miss, not a panic.
    let graph = CsrGraph::try_from_raw_parts(offsets, adjacency).ok()?;

    let dim = src.u64()? as usize;
    let values = src.array(|b| f32::from_bits(u32::from_le_bytes(b)))?;
    if dim == 0 || !values.len().is_multiple_of(dim) {
        return None;
    }
    let features = FeatureTable::from_rows(dim, values);

    let dg = DirectGraph::load(&mut src).ok()?;
    src.finish()?;

    if graph.num_nodes() != num_nodes
        || features.num_nodes() != num_nodes
        || dg.directory().len() != num_nodes
        || batches.iter().flatten().any(|v| v.index() >= num_nodes)
    {
        return None;
    }
    Some(Workload::from_parts(
        spec,
        graph,
        features,
        dg,
        model,
        batches,
        seed,
        Some(fingerprint.to_string()),
    ))
}

fn node_id(bytes: [u8; 4]) -> NodeId {
    NodeId::new(u32::from_le_bytes(bytes))
}

/// The cascade-recording cache file path for a replay key inside `dir`.
///
/// Recordings live beside the BWC1 workload files in the same
/// directory, under their own `brc1-` prefix, and follow the same
/// container discipline: magic, [`FORMAT_VERSION`], key echo, payload
/// checksum, atomic temp-file publish. The shared version constant is
/// deliberate — anything that invalidates a cached workload (generator
/// streams, DirectGraph placement, batch drawing) also invalidates any
/// cascade recorded from it.
pub(crate) fn recording_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("brc1-{:016x}.bin", fnv1a(key.as_bytes())))
}

/// Attempts to load the cascade recording for `key` from `dir`.
/// Returns `None` on any validation failure; callers re-record.
pub(crate) fn load_recording(dir: &Path, key: &str) -> Option<CascadeRecording> {
    let mut src = open(&recording_path(dir, key), RECORDING_MAGIC, key)?;
    let body = src.blob()?;
    src.finish()?;
    CascadeRecording::from_bytes(&body)
}

/// Best-effort save of `recording` under `key` in `dir`; I/O failures
/// only cost the next process a re-record.
pub(crate) fn save_recording(dir: &Path, key: &str, recording: &CascadeRecording) {
    let path = recording_path(dir, key);
    let _ = publish(dir, &path, RECORDING_MAGIC, key, |out| {
        out.put_bytes(&recording.to_bytes())
    });
}

/// Opens the container at `path`: checks its magic, [`FORMAT_VERSION`]
/// and key echo, and returns a reader just past the header whose
/// payload ends where the file's last 8 bytes (the checksum) begin.
/// `None` on any mismatch.
fn open(path: &Path, magic: &[u8; 4], key: &str) -> Option<Source<File>> {
    let mut file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    let mut head = [0u8; 4];
    file.read_exact(&mut head).ok()?;
    if &head != magic {
        return None;
    }
    let payload = len.checked_sub((magic.len() + 8) as u64)?;
    let mut src = Source::new(file, payload);
    if src.u32()? != FORMAT_VERSION || src.blob()? != key.as_bytes() {
        return None;
    }
    Some(src)
}

/// Streams `magic`, the header for `key`, the payload `body` writes and
/// the payload's checksum to a temp file in `dir`, then renames it to
/// `path`. The rename is the atomic publish: readers see either the old
/// file or the complete new one, never a partial write.
fn publish(
    dir: &Path,
    path: &Path,
    magic: &[u8; 4],
    key: &str,
    body: impl FnOnce(&mut Sink<&mut File>) -> io::Result<()>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!("tmp-{}-{name}", std::process::id()));
    let write = || -> io::Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(magic)?;
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

    /// The [`Source::array`] encoding: a `u64` count, then each item's
    /// bytes, encoded straight into the buffer.
    fn put_array<T: Copy, const N: usize>(
        &mut self,
        items: &[T],
        encode: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        self.write_all(&(items.len() as u64).to_le_bytes())?;
        for group in items.chunks(CHUNK / N) {
            self.reserve(group.len() * N)?;
            for &item in group {
                self.buf.extend_from_slice(&encode(item));
            }
        }
        Ok(())
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

    fn u8(&mut self) -> Option<u8> {
        Some(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take()?))
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
    use crate::workload::WorkloadBuilder;

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

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("beacon-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_identical(a: &Workload, b: &Workload) {
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.model(), b.model());
        assert_eq!(a.spec(), b.spec());
        assert_eq!(a.batches(), b.batches());
        assert_eq!(a.graph(), b.graph());
        assert_eq!(
            a.features()
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.features()
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(a.directgraph().digest(), b.directgraph().digest());
        assert_eq!(a.directgraph().stats(), b.directgraph().stats());
        assert_eq!(a.directgraph().directory(), b.directgraph().directory());
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let dir = tempdir("roundtrip");
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
        let loaded = load(&dir, &key).expect("fresh save must load");
        assert_identical(&w, &loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The replay cache's canonical recording of `w`: BG-2 on the
    /// paper-default device at the workload's page size.
    fn recording_of(w: &Workload) -> CascadeRecording {
        use beacon_platforms::{Engine, EngineScratch, Platform};
        let page_size = w.directgraph().layout().page_size();
        let ssd = beacon_ssd::SsdConfig::paper_default().with_page_size(page_size);
        Engine::new(Platform::Bg2, ssd, w.model(), w.directgraph(), w.seed())
            .record_cascade(&mut EngineScratch::default(), w.batches())
            .1
    }

    /// The exact bytes of one BWC1 and one BRC1 file (FNV-1a of each
    /// whole file): any change to the writer must reproduce them, or
    /// bump [`FORMAT_VERSION`].
    #[test]
    fn container_bytes_are_pinned() {
        let dir = tempdir("pin");
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
        save_recording(&dir, "pin", &recording_of(&w));
        let bwc1 = std::fs::read(file_path(&dir, &key)).unwrap();
        let brc1 = std::fs::read(recording_path(&dir, "pin")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            (bwc1.len(), fnv1a(&bwc1)),
            (203_758, 0xb6b5_bc2d_9533_a255),
            "BWC1 bytes"
        );
        assert_eq!(
            (brc1.len(), fnv1a(&brc1)),
            (25_659, 0x7dd0_c7f8_776f_8ef6),
            "BRC1 bytes"
        );
    }

    #[test]
    fn missing_and_wrong_key_miss() {
        let dir = tempdir("misskey");
        assert!(load(&dir, "no such key").is_none());
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
        // A different fingerprint maps to a different file name; even a
        // forced collision is rejected by the fingerprint echo.
        let other = file_path(&dir, "other-key");
        std::fs::copy(file_path(&dir, &key), &other).unwrap();
        assert!(load(&dir, "other-key").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_truncated_and_version_mismatched_files_fall_back() {
        let dir = tempdir("corrupt");
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
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

    #[test]
    fn array_counts_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        let mut sink = Sink::new(&mut buf);
        sink.put_array(&[7u32, 8, 9], u32::to_le_bytes).unwrap();
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
    fn version_1_file_misses_and_is_overwritten_by_the_rebuild() {
        let dir = tempdir("v1");
        let key = builder().fingerprint().unwrap();
        crate::WorkloadCache::with_disk_dir(&dir)
            .get_or_prepare(builder())
            .unwrap();
        let path = file_path(&dir, &key);
        let current = std::fs::read(&path).unwrap();
        // The same payload as a version-1 build wrote it: version 1 and
        // an FNV-1a trailer, at the same file name.
        let mut v1 = current.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body_end = v1.len() - 8;
        let sum = fnv1a(&v1[4..body_end]);
        v1[body_end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        assert!(load(&dir, &key).is_none(), "a version-1 file must miss");

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

    /// The BWC1 file of the test workload and the BRC1 file of its
    /// recording, each with the byte offset and stored value of every
    /// count field its decoder reads.
    struct Files {
        key: String,
        bwc1: Vec<u8>,
        bwc1_counts: Vec<(&'static str, usize)>,
        brc1: Vec<u8>,
        brc1_counts: Vec<(&'static str, usize)>,
    }

    fn files() -> &'static Files {
        static FILES: std::sync::OnceLock<Files> = std::sync::OnceLock::new();
        FILES.get_or_init(|| {
            let dir = tempdir("files");
            let b = builder();
            let key = b.fingerprint().unwrap();
            let w = b.prepare().unwrap();
            save(&dir, &key, &w);
            save_recording(&dir, &key, &recording_of(&w));
            let bwc1 = std::fs::read(file_path(&dir, &key)).unwrap();
            let brc1 = std::fs::read(recording_path(&dir, &key)).unwrap();
            let _ = std::fs::remove_dir_all(&dir);

            let (g, n) = (w.graph(), w.graph().num_nodes());
            let name = w.spec().dataset.name().len();
            let mut at = 4 + 4 + (8 + key.len()) + 8 + (1 + 2 + 8 + 8) + (8 + name) + 8;
            let mut bwc1_counts = vec![("batch count", at)];
            at += 8;
            for batch in w.batches() {
                bwc1_counts.push(("batch length", at));
                at += 8 + 4 * batch.len();
            }
            bwc1_counts.push(("offsets", at));
            at += 8 + 8 * g.offsets().len();
            bwc1_counts.push(("adjacency", at));
            at += 8 + 4 * g.adjacency().len() + 8;
            bwc1_counts.push(("features", at));
            at += 8 + 4 * w.features().values().len() + 4 + 4;
            bwc1_counts.push(("DirectGraph nodes", at));
            at += 8 + 4 * n + 5 * 8;
            bwc1_counts.push(("DirectGraph pages", at));
            let at = 4 + 4 + 8 + key.len();
            let brc1_counts = vec![
                ("recording body", at),
                ("recorded commands", at + 8),
                ("recorded batches", at + 16),
            ];

            // Each offset holds the count it names.
            let want = [
                w.batches().len(),
                w.batches()[0].len(),
                w.batches()[1].len(),
            ]
            .into_iter()
            .chain([g.offsets().len(), g.adjacency().len()])
            .chain([w.features().values().len(), n])
            .chain([w.directgraph().image().pages_written()]);
            for ((field, at), want) in bwc1_counts.iter().zip(want) {
                assert_eq!(u64_at(&bwc1, *at), want as u64, "BWC1 {field}");
            }
            assert_eq!(bwc1_counts.len(), 8);
            assert_eq!(
                u64_at(&brc1, brc1_counts[0].1),
                (brc1.len() - at - 16) as u64
            );
            Files {
                key,
                bwc1,
                bwc1_counts,
                brc1,
                brc1_counts,
            }
        })
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// Writes `bytes` as the test workload's BWC1 file (`recording`:
    /// its BRC1 file) into a fresh directory and loads it back; `true`
    /// if the load succeeded. A failed workload load must count a miss.
    fn loads(tag: &str, bytes: &[u8], recording: bool) -> bool {
        let f = files();
        let dir = tempdir(tag);
        let loaded = if recording {
            std::fs::write(recording_path(&dir, &f.key), bytes).unwrap();
            load_recording(&dir, &f.key).is_some()
        } else {
            std::fs::write(file_path(&dir, &f.key), bytes).unwrap();
            let misses = stats().misses;
            let loaded = load(&dir, &f.key).is_some();
            assert!(
                loaded || stats().misses > misses,
                "{tag}: a failed load counts a miss"
            );
            loaded
        };
        let _ = std::fs::remove_dir_all(&dir);
        loaded
    }

    /// The fixture file and its count fields.
    fn file(recording: bool) -> (&'static [u8], &'static [(&'static str, usize)]) {
        let f = files();
        if recording {
            (&f.brc1, &f.brc1_counts)
        } else {
            (&f.bwc1, &f.bwc1_counts)
        }
    }

    #[test]
    fn pristine_files_load() {
        assert!(loads("pristine", file(false).0, false));
        assert!(loads("pristine-rec", file(true).0, true));
    }

    #[test]
    fn trailing_bytes_miss() {
        for recording in [false, true] {
            let mut bytes = file(recording).0.to_vec();
            let end = bytes.len() - 8;
            bytes.splice(end..end, [0u8; 8]);
            let sum = checksum(&bytes[4..end + 8]);
            bytes[end + 8..].copy_from_slice(&sum.to_le_bytes());
            assert!(
                !loads("trailing", &bytes, recording),
                "recording {recording}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// A file cut anywhere short of its end misses.
        #[test]
        fn truncated_files_miss(
            cut in 0.0f64..1.0,
            recording in proptest::any::<bool>(),
        ) {
            let bytes = file(recording).0;
            let cut = (cut * bytes.len() as f64) as usize;
            proptest::prop_assert!(!loads("truncated", &bytes[..cut], recording), "cut at {cut}");
        }

        /// One to three flipped bits anywhere, the magic and the
        /// checksum included, make the file miss.
        #[test]
        fn bit_flipped_files_miss(
            flips in proptest::collection::vec(0.0f64..1.0, 1..4),
            recording in proptest::any::<bool>(),
        ) {
            let mut bytes = file(recording).0.to_vec();
            let bits: std::collections::BTreeSet<usize> =
                flips.iter().map(|f| (f * (bytes.len() * 8) as f64) as usize).collect();
            for &bit in &bits {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            proptest::prop_assert!(!loads("flipped", &bytes, recording), "bits {bits:?}");
        }

        /// A count field set past the bytes the file holds, under a
        /// recomputed checksum, is rejected by the decoder, which
        /// allocates nothing for it.
        #[test]
        fn oversized_counts_miss(
            field in 0usize..64,
            value in (1u64 << 32)..u64::MAX,
            recording in proptest::any::<bool>(),
        ) {
            let (pristine, counts) = file(recording);
            let (name, at) = counts[field % counts.len()];
            let mut bytes = pristine.to_vec();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let end = bytes.len() - 8;
            let sum = checksum(&bytes[4..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());
            proptest::prop_assert!(!loads("oversized", &bytes, recording), "{name} = {value}");
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
        sink.put_array(&words, u32::to_le_bytes).unwrap();
        sink.put_array(&longs, u64::to_le_bytes).unwrap();
        let sum = sink.finish().unwrap();
        assert_eq!(sum, checksum(&buf));
        let mut src = source(&buf);
        assert_eq!(src.u8(), Some(9));
        assert_eq!(src.blob().as_deref(), Some(&bytes[..]));
        assert_eq!(src.array(u32::from_le_bytes), Some(words));
        assert_eq!(src.array(u64::from_le_bytes), Some(longs));
        assert_eq!(src.finish(), Some(()));
    }
}
