//! Deterministic parallel experiment execution.
//!
//! Paper reproductions sweep a cross product of platforms × workloads ×
//! device configurations, and every cell is an independent
//! single-threaded simulation — embarrassingly parallel, as long as
//! nothing about the *schedule* leaks into the results. This module
//! keeps the two concerns apart:
//!
//! * **Identity** — a [`RunCell`] owns everything one simulation needs
//!   (platform, shared [`Workload`], [`SsdConfig`], seed, optional
//!   latency tracking). Seeds are either inherited from the workload
//!   (matching [`Experiment`](crate::Experiment) bit-for-bit) or derived
//!   from the *cell's identity* via [`RunCell::derive_seed`] — never
//!   from the position a cell happens to run in.
//! * **Schedule** — [`RunMatrix::run_parallel`] fans cells out over
//!   scoped worker threads ([`simkit::par::map_indexed`]) and writes each
//!   result into the cell's own indexed slot. Workers steal cells from a
//!   shared counter, so the schedule varies run to run, but no cell can
//!   observe it: output order and content are byte-identical at any
//!   `--jobs` count, including 1.
//!
//! Every simulated cell, matrix or [`Experiment::run`](crate::Experiment::run),
//! executes through [`ReplayCache`]'s one executor, which decides per
//! cell whether to record, replay or run in full.
//!
//! Shared immutable inputs (the DirectGraph image, CSR graph and
//! feature table inside a [`Workload`]) are reference-counted with
//! [`Arc`], so a 64-cell sweep holds one dataset in memory, not 64.
//! [`WorkloadCache`] completes the picture for sweeps that vary only
//! the device configuration: each distinct workload is prepared once.

use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Arc;

use beacon_platforms::{Engine, EngineScratch, Platform, RunMetrics};
use beacon_ssd::SsdConfig;
use simkit::Duration;

use crate::diskcache;
use crate::oncemap::OnceMap;
use crate::replaycache::ReplayCache;
use crate::workload::{Workload, WorkloadBuilder, WorkloadError};

// The whole module rests on experiment inputs being freely shareable
// across worker threads; fail compilation, not runtime, if a field
// ever loses that property.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Workload>();
    assert_send_sync::<RunMetrics>();
    assert_send_sync::<RunCell>();
    assert_send_sync::<RunMatrix>();
};

/// FNV-1a over `bytes`, continuing from hash state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: spreads related FNV states far apart so
/// per-die XOR-derived TRNG streams (see `Engine::new`) never overlap
/// between neighboring cells.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One independent simulation: a platform over a shared workload under
/// a device configuration, with an explicit seed.
///
/// `W` is how the cell holds its workload: an [`Arc`] for the cells a
/// [`RunMatrix`] owns, a borrow for [`Experiment`](crate::Experiment)'s
/// one-cell runs, so both go through the same executor.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use beacongnn::{Platform, RunCell, Workload};
///
/// let w = Arc::new(Workload::builder().nodes(800).batch_size(8).batches(1).prepare()?);
/// let metrics = RunCell::new(Platform::Bg2, Arc::clone(&w)).execute();
/// assert_eq!(metrics.platform, "BG-2");
/// # Ok::<(), beacongnn::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RunCell<W = Arc<Workload>> {
    /// The platform to simulate.
    pub platform: Platform,
    /// The shared, immutable workload.
    pub workload: W,
    /// The device configuration (page size forced to the workload's).
    pub ssd: SsdConfig,
    /// Die-TRNG seed for this cell.
    pub seed: u64,
    /// Per-query latency tracking's window epoch, or `None` for an
    /// untracked run (see [`RunCell::latency`]).
    pub latency: Option<Duration>,
}

impl RunCell {
    /// A cell with the paper-default SSD and the workload's own seed —
    /// exactly what `Experiment::new(&w).run(platform)` simulates.
    pub fn new(platform: Platform, workload: Arc<Workload>) -> Self {
        let ssd =
            SsdConfig::paper_default().with_page_size(workload.directgraph().layout().page_size());
        let seed = workload.seed();
        RunCell {
            platform,
            workload,
            ssd,
            seed,
            latency: None,
        }
    }
}

impl<W: Deref<Target = Workload>> RunCell<W> {
    /// Overrides the device configuration; the page size is forced to
    /// match the workload's DirectGraph layout.
    pub fn ssd(mut self, ssd: SsdConfig) -> Self {
        self.ssd = ssd.with_page_size(self.workload.directgraph().layout().page_size());
        self
    }

    /// Overrides the seed explicitly.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Tracks per-query latency: the cell's metrics carry the latency
    /// histogram, tail percentiles and critical-path attribution, with
    /// per-window percentile rows every `epoch` of sim time. Timing is
    /// unchanged; latency tracking is bookkeeping only.
    pub fn latency(mut self, epoch: Duration) -> Self {
        self.latency = Some(epoch);
        self
    }

    /// Derives this cell's seed from its *identity* — platform name,
    /// device configuration, workload seed and a caller salt (e.g. the
    /// replica number of a seed sweep). Two cells with the same
    /// identity get the same seed no matter how many sibling cells
    /// exist or in what order any runner executes them, which is what
    /// keeps seed sweeps reproducible under `--jobs N`.
    pub fn derive_seed(mut self, salt: u64) -> Self {
        let mut h = 0xCBF2_9CE4_8422_2325; // FNV offset basis
        h = fnv1a(h, self.platform.spec().name.as_bytes());
        h = fnv1a(h, format!("{:?}", self.ssd).as_bytes());
        h = fnv1a(h, &self.workload.seed().to_le_bytes());
        h = fnv1a(h, &salt.to_le_bytes());
        self.seed = mix(h);
        self
    }

    /// Runs the simulation in full (never through a replay cache).
    pub fn execute(&self) -> RunMetrics {
        let mut scratch = EngineScratch::new();
        self.execute_with(&mut scratch)
    }

    /// Runs the simulation with caller-owned scratch buffers, so a
    /// worker executing many cells reuses one warm calendar and
    /// outcome pool instead of growing fresh ones per cell. Results are
    /// bit-identical to [`RunCell::execute`].
    pub fn execute_with(&self, scratch: &mut EngineScratch) -> RunMetrics {
        self.engine().run_with(scratch, self.workload.batches())
    }

    /// The cell's engine, latency tracking included when requested.
    pub(crate) fn engine(&self) -> Engine<'_> {
        let engine = Engine::new(
            self.platform,
            self.ssd,
            self.workload.model(),
            self.workload.directgraph(),
            self.seed,
        );
        match self.latency {
            Some(epoch) => engine.with_latency(epoch),
            None => engine,
        }
    }
}

/// An ordered collection of independent [`RunCell`]s.
///
/// Results always come back in cell order regardless of how the matrix
/// is executed.
#[derive(Debug, Clone, Default)]
pub struct RunMatrix {
    cells: Vec<RunCell>,
}

impl RunMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a cell; returns its index (= its slot in the results).
    pub fn push(&mut self, cell: RunCell) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Appends one default cell per platform (shared workload,
    /// paper-default SSD, workload seed).
    pub fn add_platforms(&mut self, platforms: &[Platform], workload: &Arc<Workload>) {
        for &p in platforms {
            self.push(RunCell::new(p, Arc::clone(workload)));
        }
    }

    /// Appends `replicas` cells of one platform with identity-derived
    /// seeds (salted by replica number).
    pub fn add_seed_sweep(
        &mut self,
        platform: Platform,
        workload: &Arc<Workload>,
        replicas: usize,
    ) {
        for r in 0..replicas {
            self.push(RunCell::new(platform, Arc::clone(workload)).derive_seed(r as u64));
        }
    }

    /// The cells, in result order.
    pub fn cells(&self) -> &[RunCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Executes every cell on the calling thread, in order, sharing one
    /// warm scratch across cells: [`RunMatrix::run_parallel`] at one job.
    pub fn run_sequential(&self) -> Vec<RunMetrics> {
        self.run_parallel(1)
    }

    /// [`RunMatrix::run_sequential`] against a caller-owned
    /// [`ReplayCache`] (tests inject isolated or disabled caches).
    pub fn run_sequential_with(&self, cache: &ReplayCache) -> Vec<RunMetrics> {
        self.run_parallel_with(1, cache)
    }

    /// Executes the matrix on `jobs` worker threads (clamped to 1 and
    /// to the cell count) through [`ReplayCache::global`], and returns
    /// the metrics in cell order.
    ///
    /// Workers pull cell indices from a shared counter, so an unlucky
    /// long cell does not stall a whole stripe, and each keeps one warm
    /// scratch for every cell it takes. Every cell's seed is fixed before
    /// execution starts and cells share no mutable state, so the result
    /// is bit-identical at any job count. Cells whose replay key
    /// (workload fingerprint + seed) is shared by other cells — or
    /// already recorded — **replay** one cascade recording under their
    /// own platform/SSD timing instead of re-running the sampler (see
    /// [`crate::replaycache`]); replay is byte-identical to the full
    /// path, so results never depend on whether a cell replayed.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any cell's simulation.
    pub fn run_parallel(&self, jobs: usize) -> Vec<RunMetrics> {
        self.run_parallel_with(jobs, ReplayCache::global())
    }

    /// [`RunMatrix::run_parallel`] against a caller-owned
    /// [`ReplayCache`]. The replay plan is fixed before any worker
    /// starts, so the schedule cannot influence which cells replay.
    pub fn run_parallel_with(&self, jobs: usize, cache: &ReplayCache) -> Vec<RunMetrics> {
        cache.run(&self.cells, jobs)
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Prepares each distinct workload once and hands out [`Arc`] clones.
///
/// Sweeps that vary only the device configuration (core counts, channel
/// counts, page-size-compatible knobs, …) would otherwise synthesize
/// and convert the same dataset per point — by far the most expensive
/// part of an experiment. Builders carrying a custom graph bypass the
/// cache (their identity is the graph itself).
///
/// The cache is internally synchronized and can be shared across
/// threads (e.g. as a `static`). The map lock is only ever held for a
/// key lookup — multi-second workload builds happen outside it, each
/// under its own per-key lock, so parallel workers preparing *distinct*
/// workloads never serialize on each other (this was the root cause of
/// the sweep's negative parallel speedup).
///
/// Below the in-memory map sits an optional **persistent layer** (see
/// [`crate::diskcache`]): on an in-memory miss the per-key build first
/// tries to deserialize a previously saved workload from disk, and a
/// fresh build is saved back best-effort. [`WorkloadCache::new`]
/// resolves the directory from `BEACON_WORKLOAD_CACHE` (default
/// `target/workload-cache`; `0`/`off`/empty disables);
/// [`WorkloadCache::in_memory`] opts out entirely and
/// [`WorkloadCache::with_disk_dir`] pins an explicit directory (used by
/// tests, which must not share a process-global path).
#[derive(Debug, Default)]
pub struct WorkloadCache {
    map: OnceMap<Workload>,
    disk: Option<PathBuf>,
}

impl WorkloadCache {
    /// An empty cache with the environment-resolved persistent layer.
    pub fn new() -> Self {
        Self::with_disk(diskcache::default_dir())
    }

    /// An empty cache without a persistent layer.
    pub fn in_memory() -> Self {
        Self::with_disk(None)
    }

    /// An empty cache persisting to `dir`.
    pub fn with_disk_dir(dir: impl Into<PathBuf>) -> Self {
        Self::with_disk(Some(dir.into()))
    }

    fn with_disk(disk: Option<PathBuf>) -> Self {
        WorkloadCache {
            map: OnceMap::default(),
            disk,
        }
    }

    /// The persistent layer's directory, if one is configured.
    pub fn disk_dir(&self) -> Option<&std::path::Path> {
        self.disk.as_deref()
    }

    /// Returns the cached workload for `builder`'s parameters, preparing
    /// and inserting it on first use. Concurrent callers with the same
    /// parameters share one build; callers with different parameters
    /// build concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if preparation fails. Nothing is cached
    /// in that case — the slot is removed so a later caller can retry.
    pub fn get_or_prepare(&self, builder: WorkloadBuilder) -> Result<Arc<Workload>, WorkloadError> {
        let Some(key) = builder.fingerprint() else {
            return Ok(Arc::new(builder.prepare()?));
        };
        self.map.get_or_try_build(&key, || {
            // In-memory miss: a sibling process may have already built
            // and persisted this workload.
            if let Some(w) = self
                .disk
                .as_deref()
                .and_then(|dir| diskcache::load(dir, &key))
            {
                return Ok(w);
            }
            let w = builder.prepare()?;
            if let Some(dir) = &self.disk {
                diskcache::save(dir, &key, &w);
            }
            Ok(w)
        })
    }

    /// Number of distinct workloads currently cached (slots still being
    /// built do not count).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached workload (outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Duration;

    fn small_workload() -> Arc<Workload> {
        Arc::new(
            Workload::builder()
                .nodes(1_000)
                .batch_size(16)
                .batches(2)
                .seed(3)
                .prepare()
                .unwrap(),
        )
    }

    /// The deterministic signature of one run.
    fn key(m: &RunMetrics) -> (Duration, u64, u64, String) {
        (
            m.makespan,
            m.nodes_visited,
            m.flash_reads,
            format!("{:?}", m.energy),
        )
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let w = small_workload();
        let mut matrix = RunMatrix::new();
        matrix.add_platforms(&[Platform::Cc, Platform::Bg1, Platform::Bg2], &w);
        matrix.add_seed_sweep(Platform::Bg2, &w, 3);
        let seq = matrix.run_sequential();
        for jobs in [2, 4, 7] {
            let par = matrix.run_parallel(jobs);
            assert_eq!(par.len(), seq.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(key(s), key(p), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn cell_matches_legacy_experiment_path() {
        let w = small_workload();
        let legacy = crate::Experiment::new(w.as_ref()).run(Platform::Bg2);
        let cell = RunCell::new(Platform::Bg2, Arc::clone(&w)).execute();
        assert_eq!(key(&legacy), key(&cell));
    }

    #[test]
    fn derived_seeds_are_schedule_independent() {
        let w = small_workload();
        // The same identity in two differently shaped matrices.
        let a = RunCell::new(Platform::Bg2, Arc::clone(&w)).derive_seed(1);
        let mut big = RunMatrix::new();
        big.add_platforms(&[Platform::Cc, Platform::Glist], &w);
        big.add_seed_sweep(Platform::Bg2, &w, 2);
        let b = &big.cells()[3]; // replica 1 of the sweep
        assert_eq!(a.seed, b.seed);
        // Distinct identities get distinct seeds.
        assert_ne!(a.seed, big.cells()[2].seed);
        assert_ne!(a.seed, w.seed());
    }

    #[test]
    fn runner_clamps_jobs_and_handles_empty() {
        let w = small_workload();
        let mut matrix = RunMatrix::new();
        matrix.add_platforms(&[Platform::Bg2], &w);
        assert_eq!(
            key(&matrix.run_parallel(0)[0]),
            key(&matrix.run_sequential()[0])
        );
        assert!(RunMatrix::new().run_parallel(4).is_empty());
        assert!(RunMatrix::new().is_empty());
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn workload_cache_prepares_once() {
        let cache = WorkloadCache::new();
        let b = || {
            Workload::builder()
                .nodes(500)
                .batch_size(8)
                .batches(1)
                .seed(7)
        };
        let first = cache.get_or_prepare(b()).unwrap();
        let second = cache.get_or_prepare(b()).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "same parameters must share one workload"
        );
        assert_eq!(cache.len(), 1);
        // A different parameter is a different entry.
        let third = cache.get_or_prepare(b().seed(8)).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(first.graph().num_nodes(), 500);
    }

    #[test]
    fn cache_builds_once_under_concurrent_same_key_requests() {
        let cache = WorkloadCache::new();
        let b = || {
            Workload::builder()
                .nodes(600)
                .batch_size(8)
                .batches(1)
                .seed(11)
        };
        let results: Vec<Arc<Workload>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_prepare(b()).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for w in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0], w),
                "racing same-key requests must share one build"
            );
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_layer_shares_builds_across_cache_instances() {
        let dir = std::env::temp_dir().join(format!("beacon-matrix-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = || {
            Workload::builder()
                .dataset(crate::Dataset::Movielens)
                .nodes(400)
                .batch_size(8)
                .batches(1)
                .seed(23)
        };
        // First "process": builds fresh and persists.
        let first = WorkloadCache::with_disk_dir(&dir);
        assert_eq!(first.disk_dir(), Some(dir.as_path()));
        let a = first.get_or_prepare(b()).unwrap();
        // Second "process": fresh in-memory map, same directory — must
        // load the identical workload instead of rebuilding.
        let hits_before = diskcache::stats().hits;
        let second = WorkloadCache::with_disk_dir(&dir);
        let c = second.get_or_prepare(b()).unwrap();
        assert_eq!(diskcache::stats().hits, hits_before + 1);
        assert_eq!(a.directgraph().digest(), c.directgraph().digest());
        assert_eq!(a.batches(), c.batches());
        assert_eq!(a.graph(), c.graph());
        // In-memory caches stay independent objects.
        assert!(!Arc::ptr_eq(&a, &c));
        // An in-memory cache has no persistent layer.
        assert_eq!(WorkloadCache::in_memory().disk_dir(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_graph_bypasses_cache() {
        use beacon_graph::FeatureTable;
        let cache = WorkloadCache::new();
        let graph = beacon_graph::DatasetSpec::preset(crate::Dataset::Amazon)
            .at_scale(200)
            .build_graph(5);
        let features = FeatureTable::synthetic(200, 16, 5);
        let w = cache
            .get_or_prepare(
                Workload::builder()
                    .custom_graph(graph, features)
                    .batch_size(4)
                    .batches(1),
            )
            .unwrap();
        assert_eq!(w.graph().num_nodes(), 200);
        assert!(cache.is_empty(), "custom graphs must not be cached");
    }
}
