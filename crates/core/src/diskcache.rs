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
//! anyway.
//!
//! **Validation and fallback.** A load is served only if the magic,
//! format version, checksum, and fingerprint echo all match and every
//! embedded structure parses; any mismatch — truncation, corruption, a
//! cache written by an incompatible build — returns `None` and the
//! caller rebuilds from scratch. Nothing in the cache is trusted
//! without the checksum, and no count read from it allocates more than
//! the bytes the file still holds. File names hash the fingerprint with
//! FNV-1a in every version, so a rebuild overwrites a stale-version file
//! rather than leaving it behind.
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
//! publish). Workloads and the cascades recorded from them invalidate
//! together.

use std::io::Write as _;
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

fn try_save(dir: &Path, fingerprint: &str, w: &Workload) -> std::io::Result<()> {
    let (m, g, f) = (w.model(), w.graph(), w.features());
    let name = w.spec().dataset.name().as_bytes();
    let len = header_len(fingerprint)
        + 8
        + (1 + 2 + 8 + 8)
        + (8 + name.len())
        + 8
        + 8
        + w.batches().iter().map(|b| 8 + 4 * b.len()).sum::<usize>()
        + (8 + 8 * g.offsets().len())
        + (8 + 4 * g.adjacency().len())
        + 8
        + (8 + 4 * f.values().len())
        + w.directgraph().saved_len();
    let mut payload = header(fingerprint, len);
    payload.extend_from_slice(&w.seed().to_le_bytes());
    payload.push(m.hops);
    payload.extend_from_slice(&m.fanout.to_le_bytes());
    payload.extend_from_slice(&(m.feature_dim as u64).to_le_bytes());
    payload.extend_from_slice(&(m.hidden_dim as u64).to_le_bytes());
    put_bytes(&mut payload, name);
    payload.extend_from_slice(&(w.spec().num_nodes as u64).to_le_bytes());
    payload.extend_from_slice(&(w.batches().len() as u64).to_le_bytes());
    for batch in w.batches() {
        put_array(&mut payload, batch, |v| v.as_u32().to_le_bytes());
    }
    put_array(&mut payload, g.offsets(), u64::to_le_bytes);
    put_array(&mut payload, g.adjacency(), |v| v.as_u32().to_le_bytes());
    payload.extend_from_slice(&(f.dim() as u64).to_le_bytes());
    put_array(&mut payload, f.values(), |x| x.to_bits().to_le_bytes());
    w.directgraph().save(&mut payload)?;
    debug_assert_eq!(payload.len(), len, "BWC1 payload size");
    publish(dir, MAGIC, &payload, &file_path(dir, fingerprint))
}

fn try_load(path: &Path, fingerprint: &str) -> Option<Workload> {
    let bytes = std::fs::read(path).ok()?;
    let mut cur = open(&bytes, MAGIC, fingerprint)?;
    let seed = cur.u64()?;
    let model = GnnModelConfig {
        hops: cur.u8()?,
        fanout: cur.u16()?,
        feature_dim: cur.u64()? as usize,
        hidden_dim: cur.u64()? as usize,
    };
    let name = cur.bytes()?.to_vec();
    let dataset = *Dataset::ALL
        .iter()
        .find(|d| d.name().as_bytes() == name.as_slice())?;
    let num_nodes = cur.u64()? as usize;
    let spec = DatasetSpec::preset(dataset).at_scale(num_nodes);

    // Each batch reads at least its 8-byte count, so a hostile batch
    // count runs out of bytes rather than memory.
    let batches = (0..cur.u64()?)
        .map(|_| cur.array(|b| NodeId::new(u32::from_le_bytes(b))))
        .collect::<Option<Vec<_>>>()?;
    let offsets = cur.array(u64::from_le_bytes)?;
    let adjacency = cur.array(|b| NodeId::new(u32::from_le_bytes(b)))?;
    // Validate the CSR invariants before from_raw_parts (which panics
    // on violation); the checksum rules out corruption, so a failure
    // here means version drift FORMAT_VERSION failed to capture — treat
    // it as a miss rather than bringing the process down.
    if offsets.is_empty()
        || offsets[0] != 0
        || offsets.windows(2).any(|w| w[0] > w[1])
        || *offsets.last()? != adjacency.len() as u64
        || adjacency.iter().any(|v| v.index() >= offsets.len() - 1)
    {
        return None;
    }
    let graph = CsrGraph::from_raw_parts(offsets, adjacency);

    let dim = cur.u64()? as usize;
    let values = cur.array(|b| f32::from_bits(u32::from_le_bytes(b)))?;
    if dim == 0 || !values.len().is_multiple_of(dim) {
        return None;
    }
    let features = FeatureTable::from_rows(dim, values);

    let dg = DirectGraph::load(cur.buf).ok()?;

    if graph.num_nodes() != num_nodes
        || features.num_nodes() != num_nodes
        || dg.directory().len() != num_nodes
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
    let bytes = std::fs::read(recording_path(dir, key)).ok()?;
    let mut cur = open(&bytes, RECORDING_MAGIC, key)?;
    let body = cur.bytes()?;
    if !cur.buf.is_empty() {
        return None;
    }
    CascadeRecording::from_bytes(body)
}

/// Best-effort save of `recording` under `key` in `dir`; I/O failures
/// only cost the next process a re-record.
pub(crate) fn save_recording(dir: &Path, key: &str, recording: &CascadeRecording) {
    let _ = try_save_recording(dir, key, recording);
}

fn try_save_recording(dir: &Path, key: &str, recording: &CascadeRecording) -> std::io::Result<()> {
    let body = recording.to_bytes();
    let mut payload = header(key, header_len(key) + 8 + body.len());
    put_bytes(&mut payload, &body);
    publish(dir, RECORDING_MAGIC, &payload, &recording_path(dir, key))
}

/// Bytes of the header every payload opens with: [`FORMAT_VERSION`] and
/// the key echo.
fn header_len(key: &str) -> usize {
    4 + 8 + key.len()
}

/// A payload buffer of `capacity` bytes holding the header for `key`.
fn header(key: &str, capacity: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(capacity);
    payload.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_bytes(&mut payload, key.as_bytes());
    payload
}

/// Checks a container's magic, checksum, [`FORMAT_VERSION`] and key
/// echo, and returns a cursor just past the header; `None` on any
/// mismatch.
fn open<'a>(bytes: &'a [u8], magic: &[u8; 4], key: &str) -> Option<Cursor<'a>> {
    let body = bytes.strip_prefix(magic)?;
    let (payload, stored) = body.split_at_checked(body.len().checked_sub(8)?)?;
    if checksum(payload) != u64::from_le_bytes(stored.try_into().ok()?) {
        return None;
    }
    let mut cur = Cursor { buf: payload };
    if cur.u32()? != FORMAT_VERSION || cur.bytes()? != key.as_bytes() {
        return None;
    }
    Some(cur)
}

/// Writes `magic`, `payload` and the payload's checksum to a temp file in
/// `dir`, then renames it to `path`. The rename is the atomic publish:
/// readers see either the old file or the complete new one, never a
/// partial write.
fn publish(dir: &Path, magic: &[u8; 4], payload: &[u8], path: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!("tmp-{}-{name}", std::process::id()));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(magic)?;
        file.write_all(payload)?;
        file.write_all(&checksum(payload).to_le_bytes())?;
        file.sync_all()?;
    }
    let result = std::fs::rename(&tmp, path);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.buf.split_at_checked(n)?;
        self.buf = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// A `u64` count, then that many `N`-byte items decoded in one pass.
    /// `None` if fewer than `count × N` bytes remain, so the result never
    /// outgrows the input.
    fn array<const N: usize, T>(&mut self, decode: impl Fn([u8; N]) -> T) -> Option<Vec<T>> {
        let count = usize::try_from(self.u64()?).ok()?;
        let bytes = self.take(count.checked_mul(N)?)?;
        Some(
            bytes
                .chunks_exact(N)
                .map(|c| decode(c.try_into().expect("chunks_exact yields N bytes")))
                .collect(),
        )
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The [`Cursor::array`] encoding: a `u64` count, then each item's bytes.
fn put_array<T: Copy, const N: usize>(
    out: &mut Vec<u8>,
    items: &[T],
    encode: impl Fn(T) -> [u8; N],
) {
    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
    for &item in items {
        out.extend_from_slice(&encode(item));
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

/// The container payload checksum (see the module docs): four word lanes
/// over each 32-byte block, combined, then the tail and the length.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let blocks = bytes.chunks_exact(32);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }
    let mut h = lanes
        .iter()
        .zip(LANE_ROTATIONS)
        .fold(0, |h, (&lane, r)| h ^ lane.rotate_left(r));
    for word in tail.chunks(8) {
        h = mix(h, le_word(word));
    }
    mix(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadBuilder;

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

    #[test]
    fn array_counts_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        put_array(&mut buf, &[7u32, 8, 9], u32::to_le_bytes);
        let mut cur = Cursor { buf: &buf };
        assert_eq!(cur.array(u32::from_le_bytes), Some(vec![7, 8, 9]));
        assert!(cur.buf.is_empty());
        // A count whose byte length overflows, and one past the input.
        for count in [1u64 << 62, 4] {
            buf[..8].copy_from_slice(&count.to_le_bytes());
            let mut cur = Cursor { buf: &buf };
            assert_eq!(cur.array(u32::from_le_bytes), None, "count {count}");
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
}
