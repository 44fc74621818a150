//! Record-once / replay-many execution of experiment matrices.
//!
//! Sampling cascades are *content-keyed*: every die draw is a pure
//! function of (graph image, batch targets, model, run seed), so the
//! cascade a cell produces is identical on every platform and under
//! every device configuration. That makes the cascade a cacheable
//! artifact — record it once from a canonical engine, then **replay**
//! it under each cell's own platform/SSD timing without re-running the
//! sampler. `Engine::replay_with` is byte-identical to a full run (a
//! property-tested invariant), so replaying is purely a performance
//! decision: it can never change a result, a digest, or a figure row.
//!
//! ## Key derivation
//!
//! A cell is replayable iff its workload has a
//! [`Workload::fingerprint`] (caller-supplied graphs do not). The
//! replay key is
//!
//! ```text
//! <workload fingerprint>|seed=<cell seed>
//! ```
//!
//! The fingerprint already covers everything sampling-relevant —
//! dataset, scale, batch drawing, page size, model — and the cell seed
//! covers the draw streams. Platform and `SsdConfig` are deliberately
//! *absent*: the cascade does not depend on them.
//!
//! ## Fallback rules
//!
//! A cell runs the untouched full path (counted in
//! [`ReplayStats::fallbacks`] while the cache is active) when:
//!
//! * its workload has no fingerprint (custom graph), or
//! * its key appears only once among the cells run together (always so
//!   for a one-cell run such as [`Experiment::run`](crate::Experiment::run))
//!   *and* this cache holds no recording for it yet (recording would
//!   cost more than it saves), or
//! * replay is disabled (`BEACON_REPLAY=0`/`off`, or a
//!   [`ReplayCache::disabled`] instance).
//!
//! ## Lifetime
//!
//! Recordings live only in the cache that recorded them, for as long as
//! it lives: a new process records each cascade it needs once, from
//! this build's own sampler, so there is no recording file to version
//! or validate. Only workload images persist (see
//! [`crate::diskcache`]).
//!
//! ## Exact-cell memo
//!
//! Replay re-times a cascade, so it still pays the event-driven
//! simulation — the irreducible cost of producing a *new* timing. But
//! the experiment suite also re-runs cells that are identical in every
//! timing-relevant respect (same platform, same device configuration,
//! same workload, same seed): Fig 15's utilization runs repeat Fig 14's
//! amazon cells, the default point of every Fig 18 sweep repeats the
//! paper-default cell, and so on. Since the engine is deterministic
//! (registry JSON is byte-identical run-to-run, a property-tested
//! invariant), such a cell's full [`RunMetrics`] is itself a replayable
//! artifact: the cache memoizes it under
//!
//! ```text
//! <replay key>|platform=<name>|ssd=<device configuration>[|lat=<epoch ns>]
//! ```
//!
//! (the `lat` suffix marks latency-tracked cells) and serves later
//! identical cells by cloning — counted in
//! [`ReplayStats::memo_hits`]. The memo is populated by full runs and
//! replays alike (so cross-figure deduplication needs no recording),
//! and by each recording run under its canonical cell's key, which a
//! keyed cell checks again once it holds the recording. It lives in
//! memory only and obeys the same kill switches as replay.

use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use beacon_platforms::{CascadeRecording, EngineScratch, Platform, RunMetrics};
use beacon_ssd::SsdConfig;

use crate::matrix::RunCell;
use crate::oncemap::OnceMap;
use crate::workload::Workload;

/// `BEACON_REPLAY` environment resolution, done once per process.
fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("BEACON_REPLAY") {
        Ok(v) => {
            let v = v.trim();
            !(v == "0" || v.eq_ignore_ascii_case("off"))
        }
        Err(_) => true,
    })
}

/// The replay key for a (workload, cell seed) pair, or `None` when the
/// workload carries no stable identity.
pub fn replay_key(workload: &Workload, seed: u64) -> Option<String> {
    let fp = workload.fingerprint()?;
    Some(format!("{fp}|seed={seed}"))
}

/// Traffic counters of one [`ReplayCache`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Cells replayed from an already-cached recording.
    pub hits: u64,
    /// Recordings performed (the miss path: no recording in this
    /// cache yet).
    pub records: u64,
    /// Cells that ran the untouched full path while the cache was
    /// active (no fingerprint, or a single-use key not worth recording).
    pub fallbacks: u64,
    /// Cells served by cloning the memoized metrics of an identical,
    /// already-executed cell (same platform, device config, workload
    /// and seed).
    pub memo_hits: u64,
}

/// Caches one [`CascadeRecording`] per replay key and executes cells
/// by replaying it.
///
/// Internally synchronized; the process-wide instance behind
/// [`ReplayCache::global`] is what [`crate::RunMatrix::run_parallel`]
/// and [`crate::Experiment::run`] consult. Tests inject their own
/// instances ([`ReplayCache::in_memory`], [`ReplayCache::disabled`]) so
/// they never mutate process-global state.
#[derive(Debug, Default)]
pub struct ReplayCache {
    /// Recordings by replay key; concurrent workers needing the *same*
    /// key record once and wait, distinct keys record concurrently.
    map: OnceMap<CascadeRecording>,
    memo: Mutex<HashMap<String, Arc<RunMetrics>>>,
    /// Instance-level switch; the effective state also requires the
    /// environment switch (see [`ReplayCache::is_active`]).
    enabled: bool,
    hits: AtomicU64,
    records: AtomicU64,
    fallbacks: AtomicU64,
    memo_hits: AtomicU64,
}

impl ReplayCache {
    /// An enabled cache.
    pub fn in_memory() -> Self {
        ReplayCache {
            enabled: true,
            ..Self::default()
        }
    }

    /// A cache that never records or replays: every cell runs the full
    /// path, uncounted. Used to measure or pin the non-replay baseline.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// The process-wide cache used by the default matrix entry points.
    pub fn global() -> &'static ReplayCache {
        static GLOBAL: OnceLock<ReplayCache> = OnceLock::new();
        GLOBAL.get_or_init(ReplayCache::in_memory)
    }

    /// Whether this instance will record/replay: it is not
    /// [`ReplayCache::disabled`], and `BEACON_REPLAY=0` has not
    /// disabled replay for the whole process.
    pub fn is_active(&self) -> bool {
        self.enabled && env_enabled()
    }

    /// This instance's traffic counters.
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            hits: self.hits.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
        }
    }

    /// The memo key of one fully-specified cell, or `None` when the
    /// memo cannot serve it (cache inactive, or no workload
    /// fingerprint). `SsdConfig`'s `Debug` form is the same identity
    /// string [`RunCell::derive_seed`](crate::RunCell::derive_seed)
    /// hashes. Latency-tracked cells key under a `|lat=` variant so a
    /// plain run's memoized metrics (whose latency report is disabled)
    /// are never served to a latency request, or vice versa.
    fn memo_key<W: Deref<Target = Workload>>(&self, cell: &RunCell<W>) -> Option<String> {
        if !self.is_active() {
            return None;
        }
        let key = replay_key(&cell.workload, cell.seed)?;
        let mut key = format!(
            "{key}|platform={}|ssd={:?}",
            cell.platform.spec().name,
            cell.ssd
        );
        if let Some(epoch) = cell.latency {
            key.push_str(&format!("|lat={}", epoch.as_ns()));
        }
        Some(key)
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<RunMetrics>>> {
        self.memo.lock().expect("replay memo poisoned")
    }

    /// Executes `cells` on up to `jobs` workers and returns their
    /// metrics in cell order: the one executor behind every matrix and
    /// every [`Experiment::run`](crate::Experiment::run). The plan is
    /// fixed first, so the schedule cannot influence what replays.
    pub(crate) fn run<W>(&self, cells: &[RunCell<W>], jobs: usize) -> Vec<RunMetrics>
    where
        W: Deref<Target = Workload> + Sync,
    {
        let plan = self.plan(cells);
        simkit::par::map_indexed(jobs, cells.len(), EngineScratch::new, |scratch, i| {
            self.execute_cell(&cells[i], plan[i].as_deref(), scratch)
        })
    }

    /// Decides, before any cell executes, which cells replay: for each
    /// cell either `Some(key)` (record-once/replay-many) or `None` (full
    /// run). A key qualifies when ≥ 2 cells share it — the record cost
    /// amortizes inside this run — or this cache already holds its
    /// recording. This is the only place that chooses
    /// between record, replay and full run; since replay is
    /// byte-identical to a full run, the plan only ever affects
    /// wall-clock, not results.
    fn plan<W: Deref<Target = Workload>>(&self, cells: &[RunCell<W>]) -> Vec<Option<String>> {
        if !self.is_active() {
            return vec![None; cells.len()];
        }
        let keys: Vec<Option<String>> = cells
            .iter()
            .map(|c| replay_key(&c.workload, c.seed))
            .collect();
        let mut counts: HashMap<String, usize> = HashMap::new();
        for k in keys.iter().flatten() {
            *counts.entry(k.clone()).or_insert(0) += 1;
        }
        keys.into_iter()
            .map(|k| k.filter(|k| counts[k.as_str()] >= 2 || self.map.is_ready(k)))
            .collect()
    }

    /// Executes one cell under the plan: serving identical
    /// already-executed cells from the memo, replaying via the cached
    /// recording when `key` is set, and running the untouched full path
    /// otherwise (memoizing either outcome for later identical cells).
    fn execute_cell<W: Deref<Target = Workload>>(
        &self,
        cell: &RunCell<W>,
        key: Option<&str>,
        scratch: &mut EngineScratch,
    ) -> RunMetrics {
        let memo_key = self.memo_key(cell);
        let memoized = || {
            let key = memo_key.as_deref()?;
            let m = self.memo().get(key).cloned()?;
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            Some((*m).clone())
        };
        if let Some(m) = memoized() {
            return m;
        }
        let batches = cell.workload.batches();
        let metrics = match key {
            None => {
                if self.is_active() {
                    self.fallbacks.fetch_add(1, Ordering::Relaxed);
                }
                cell.engine().run_with(scratch, batches)
            }
            Some(key) => {
                let recording = self.get_or_record(key, &cell.workload, cell.seed, scratch);
                // Recording memoizes the canonical cell, which may be
                // this one, whichever cell recorded.
                if let Some(m) = memoized() {
                    return m;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                cell.engine().replay_with(scratch, &recording, batches)
            }
        };
        // Concurrent duplicates are harmless: the engine is
        // deterministic, so any racer's result equals the one that sticks.
        if let Some(mk) = memo_key {
            self.memo()
                .entry(mk)
                .or_insert_with(|| Arc::new(metrics.clone()));
        }
        metrics
    }

    /// Records the workload's sampling cascade into this cache so that
    /// later cells over the same workload and seed replay instead of
    /// running the sampler, even one at a time. Returns whether a
    /// recording is now available — `false` when the cache is inactive
    /// or the workload has no fingerprint.
    pub fn prime_recording(&self, workload: &Workload, seed: u64) -> bool {
        let key = replay_key(workload, seed).filter(|_| self.is_active());
        if let Some(key) = &key {
            self.get_or_record(key, workload, seed, &mut EngineScratch::new());
        }
        key.is_some()
    }

    /// Returns the recording for `key`, recording it from a canonical
    /// cell on first use and memoizing that run's metrics, which equal a
    /// plain run's. Concurrent callers with the same key share one
    /// recording; distinct keys record concurrently.
    fn get_or_record(
        &self,
        key: &str,
        workload: &Workload,
        seed: u64,
        scratch: &mut EngineScratch,
    ) -> Arc<CascadeRecording> {
        let recorded = self.map.get_or_try_build(key, || {
            // Record from the canonical cell: BG-2 (the only platform
            // whose command stream is channel-separable and
            // barrier-free) under the paper-default device at the
            // workload's page size, untracked. The cascade is
            // platform/timing-independent, so *which* canonical config
            // records it cannot matter — this one is just the cheapest
            // well-defined choice.
            self.records.fetch_add(1, Ordering::Relaxed);
            let canonical = RunCell {
                platform: Platform::Bg2,
                workload,
                ssd: SsdConfig::paper_default()
                    .with_page_size(workload.directgraph().layout().page_size()),
                seed,
                latency: None,
            };
            let (metrics, recording) = canonical
                .engine()
                .record_cascade(scratch, workload.batches());
            if let Some(mk) = self.memo_key(&canonical) {
                self.memo().entry(mk).or_insert(Arc::new(metrics));
            }
            Ok::<_, Infallible>(recording)
        });
        let Ok(recording) = recorded;
        recording
    }

    /// Number of recordings currently resident in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no recordings are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
