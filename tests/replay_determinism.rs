//! Record-once / replay-many determinism: replaying a cascade recording
//! must be **byte-identical** to the full execution path — same metrics
//! registry JSON for every cell, at every worker count. This is the
//! invariant that makes replay a pure performance decision.

use std::sync::Arc;

use beacongnn::{Dataset, Platform, ReplayCache, RunCell, RunMatrix, SsdConfig, Workload};
use proptest::prelude::*;

/// Windowing epoch of the latency-tracked cells.
const EPOCH: simkit::Duration = simkit::Duration::from_us(200);

fn workload(nodes: usize, batch: usize, seed: u64) -> Arc<Workload> {
    preset_workload(Dataset::Amazon, nodes, batch, seed)
}

fn preset_workload(dataset: Dataset, nodes: usize, batch: usize, seed: u64) -> Arc<Workload> {
    Arc::new(
        Workload::builder()
            .dataset(dataset)
            .nodes(nodes)
            .batch_size(batch)
            .batches(2)
            .seed(seed)
            .prepare()
            .unwrap(),
    )
}

/// A fig14-style platform comparison crossed with a fig18-style device
/// sweep, all sharing one workload: the shape the replay cache exists
/// for (one cascade, many timings).
fn figure_style_matrix(w: &Arc<Workload>) -> RunMatrix {
    let mut m = RunMatrix::new();
    m.add_platforms(&[Platform::Cc, Platform::Bg1, Platform::Bg2], w);
    for &cores in &[2usize, 8] {
        let ssd = SsdConfig::paper_default().with_cores(cores);
        m.push(RunCell::new(Platform::Bg2, Arc::clone(w)).ssd(ssd));
    }
    m
}

fn registries(results: &[beacongnn::RunMetrics]) -> Vec<String> {
    results
        .iter()
        .map(|m| m.metrics_registry().to_json_string())
        .collect()
}

/// Whether every cell's latency report, per-query rows and windows
/// included, matches between two runs of one matrix.
fn same_latency(a: &[beacongnn::RunMetrics], b: &[beacongnn::RunMetrics]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.latency == b.latency)
}

/// One drawn device: channels, dies per channel, cores, channel
/// bandwidth in MB/s, traditional (20 µs) flash, DRAM bypass.
type SsdDraw = (usize, usize, usize, u64, bool, bool);

fn ssd_config((channels, dies, cores, mbps, traditional, bypass): SsdDraw) -> SsdConfig {
    let base = if traditional {
        SsdConfig::traditional()
    } else {
        SsdConfig::paper_default()
    };
    base.with_channels(channels)
        .with_dies_per_channel(dies)
        .with_cores(cores)
        .with_channel_bandwidth(mbps * 1_000_000)
        .with_dram_bypass(bypass)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full-run vs replay vs memo byte identity at jobs 1, 2 and 8, over
    /// random dataset presets, workload shapes and seeds, with all eight
    /// platforms each under its own random device and each drawn with or
    /// without latency tracking. Latency-tracked cells must also
    /// reproduce the full run's latency report.
    #[test]
    fn replay_is_byte_identical_at_every_jobs_count(
        dataset in 0usize..5,
        nodes in 300usize..900,
        batch in 4usize..12,
        seed in 0u64..1_000,
        ssds in proptest::collection::vec(
            (1usize..9, 1usize..5, 1usize..5, 333u64..2400, any::<bool>(), any::<bool>()),
            8..9,
        ),
        tracked in proptest::collection::vec(any::<bool>(), 8..9),
    ) {
        let w = preset_workload(Dataset::ALL[dataset], nodes, batch, seed);
        let mut matrix = RunMatrix::new();
        for ((&p, &draw), &lat) in Platform::ALL.iter().zip(&ssds).zip(&tracked) {
            let cell = RunCell::new(p, Arc::clone(&w)).ssd(ssd_config(draw));
            matrix.push(if lat { cell.latency(EPOCH) } else { cell });
        }
        let full_runs: Vec<_> = matrix.cells().iter().map(RunCell::execute).collect();
        for (m, &lat) in full_runs.iter().zip(&tracked) {
            prop_assert_eq!(m.latency.is_enabled(), lat);
        }
        let full = registries(&full_runs);
        for jobs in [1usize, 2, 8] {
            let cache = ReplayCache::in_memory();
            let replayed = matrix.run_parallel_with(jobs, &cache);
            prop_assert_eq!(&full, &registries(&replayed), "jobs={}", jobs);
            prop_assert!(same_latency(&full_runs, &replayed), "jobs={}", jobs);
            let stats = cache.stats();
            prop_assert_eq!(stats.records, 1, "one shared key records once");
            prop_assert_eq!(stats.hits, matrix.len() as u64);
            prop_assert_eq!(stats.fallbacks, 0);

            // A second pass through the same cache is served entirely
            // from the exact-cell memo: no recording, no replay.
            let memoized = matrix.run_parallel_with(jobs, &cache);
            prop_assert_eq!(&full, &registries(&memoized), "memo pass, jobs={}", jobs);
            prop_assert!(same_latency(&full_runs, &memoized), "memo pass, jobs={}", jobs);
            let again = cache.stats();
            prop_assert_eq!(again.memo_hits, matrix.len() as u64);
            prop_assert_eq!(again.records, stats.records);
            prop_assert_eq!(again.hits, stats.hits);
        }
    }
}

#[test]
fn key_breaking_cells_fall_back_to_the_full_path() {
    use beacon_graph::FeatureTable;
    // A custom-graph workload has no fingerprint, hence no replay key:
    // its cells must run the untouched full path (and be counted), even
    // when they sit in a matrix next to replayable cells.
    let graph = beacon_graph::DatasetSpec::preset(Dataset::Amazon)
        .at_scale(300)
        .build_graph(5);
    let features = FeatureTable::synthetic(300, 16, 5);
    let custom = Arc::new(
        Workload::builder()
            .custom_graph(graph, features)
            .batch_size(4)
            .batches(1)
            .prepare()
            .unwrap(),
    );
    assert!(custom.fingerprint().is_none());
    let keyed = workload(500, 8, 3);

    let mut matrix = RunMatrix::new();
    matrix.add_platforms(&[Platform::Cc, Platform::Bg2], &keyed);
    matrix.add_platforms(&[Platform::Cc, Platform::Bg2], &custom);

    let full = registries(&matrix.run_sequential_with(&ReplayCache::disabled()));
    let cache = ReplayCache::in_memory();
    let mixed = registries(&matrix.run_sequential_with(&cache));
    assert_eq!(mixed, full);
    let stats = cache.stats();
    assert_eq!(stats.fallbacks, 2, "both custom-graph cells fall back");
    assert_eq!(stats.records, 1);
    // The keyed BG-2 cell is the recording run, served from the memo.
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.memo_hits, 1);
}

#[test]
fn single_use_keys_skip_recording_unless_already_recorded() {
    let w = workload(500, 8, 29);
    // A seed sweep: every cell has a distinct key, so recording would
    // cost more than it saves — all cells run full.
    let mut sweep = RunMatrix::new();
    sweep.add_seed_sweep(Platform::Bg2, &w, 3);
    let cache = ReplayCache::in_memory();
    let full = registries(&sweep.run_sequential_with(&ReplayCache::disabled()));
    assert_eq!(registries(&sweep.run_sequential_with(&cache)), full);
    let stats = cache.stats();
    assert_eq!(stats.records, 0);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.fallbacks, 3);

    // But once a recording exists (here: from a multi-cell matrix using
    // the workload's own seed), a later single-cell matrix replays it.
    let mut pair = RunMatrix::new();
    pair.add_platforms(&[Platform::Cc, Platform::Bg2], &w);
    pair.run_sequential_with(&cache);
    assert_eq!(cache.stats().records, 1);
    let mut single = RunMatrix::new();
    single.push(RunCell::new(Platform::Glist, Arc::clone(&w)));
    let lone = registries(&single.run_sequential_with(&cache));
    assert_eq!(
        lone,
        registries(&single.run_sequential_with(&ReplayCache::disabled()))
    );
    assert_eq!(cache.stats().records, 1, "no re-record for a cached key");
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(
        cache.stats().memo_hits,
        1,
        "the pair's BG-2 cell is the recording run"
    );
}

#[test]
fn disabled_cache_never_records_or_counts() {
    let w = workload(400, 4, 11);
    let matrix = figure_style_matrix(&w);
    let cache = ReplayCache::disabled();
    assert!(!cache.is_active());
    matrix.run_sequential_with(&cache);
    assert_eq!(cache.stats(), Default::default());
    assert!(cache.is_empty());
}
