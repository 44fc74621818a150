//! # beacon-bench — the evaluation harness (paper §VII)
//!
//! One function per table/figure, each returning structured results so
//! the `experiments` binary (its figure text and `--csv` files alike)
//! and the regression tests all share the same code path. See
//! DESIGN.md's experiment index for the mapping.
//!
//! Scales: the paper runs hundred-GB datasets on a simulated 1 TB SSD;
//! this harness defaults to 10–20k-node synthetic graphs with matched
//! degree/feature shape (see DESIGN.md, substitutions). All figures are
//! *normalized*, so shapes — who wins, by what factor, where crossovers
//! fall — are the reproduction target, not absolute values.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use beacon_energy::EnergyCosts;
use beacon_graph::{CsrGraph, Partition};
use beacon_platforms::motivation::{die_scaling_sweep, DieScalingPoint};
use beacon_platforms::{ArrayConfig, ArrayRunMetrics, Platform, RunMetrics};
use beacon_ssd::FabricConfig;
use beacongnn::{
    Dataset, Experiment, RunCell, RunMatrix, SsdConfig, Workload, WorkloadBuilder, WorkloadCache,
};
use simkit::Duration;

/// Default node scale for harness workloads.
pub const DEFAULT_NODES: usize = 12_000;
/// Default mini-batch size (the paper's largest sweep point).
pub const DEFAULT_BATCH: usize = 256;
/// Default batches per run.
pub const DEFAULT_BATCHES: usize = 3;
/// Default seed.
pub const SEED: u64 = 2024;

/// Worker-thread count used by every matrix-backed figure (default 1 =
/// sequential). Cell seeds are fixed before execution, so results are
/// byte-identical at any setting; this only trades wall-clock time.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker-thread count for matrix-backed figures.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The worker-thread count currently in effect.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

/// Executes a figure's cells as one matrix under the harness-wide jobs
/// setting; metrics come back in cell order.
fn run_cells(cells: impl IntoIterator<Item = RunCell>) -> Vec<RunMetrics> {
    let mut matrix = RunMatrix::new();
    for cell in cells {
        matrix.push(cell);
    }
    matrix.run_parallel(jobs())
}

/// The process-wide workload cache: figures that share a dataset, scale
/// and page size (most of them reuse amazon at harness scale) prepare
/// its image exactly once, whatever their batch shape, and share it via
/// `Arc`.
fn cache() -> &'static WorkloadCache {
    static CACHE: OnceLock<WorkloadCache> = OnceLock::new();
    CACHE.get_or_init(WorkloadCache::new)
}

/// The harness workload builder with an explicit batch count.
fn builder(dataset: Dataset, nodes: usize, batch: usize, batches: usize) -> WorkloadBuilder {
    Workload::builder()
        .dataset(dataset)
        .nodes(nodes)
        .batch_size(batch)
        .batches(batches)
        .seed(SEED)
}

/// Prepares (or fetches from the cache) a workload with an explicit
/// batch count.
fn workload_with(dataset: Dataset, nodes: usize, batch: usize, batches: usize) -> Arc<Workload> {
    cache()
        .get_or_prepare(builder(dataset, nodes, batch, batches))
        .expect("harness workload prepares")
}

/// Prepares the standard workload for `dataset` at harness scale.
/// Cached: every call for the same dataset and scale shares one
/// prepared image.
pub fn workload(dataset: Dataset, nodes: usize, batch: usize) -> Arc<Workload> {
    workload_with(dataset, nodes, batch, DEFAULT_BATCHES)
}

// ---------------------------------------------------------------------
// Fig 7a — motivation: ULL die scaling under page-granular transfer.
// ---------------------------------------------------------------------

/// Runs the Fig 7a die-scaling sweep on ULL flash.
pub fn fig7a() -> Vec<DieScalingPoint> {
    die_scaling_sweep(&beacon_flash::FlashTiming::ull(), 8, 4096, 400)
}

// ---------------------------------------------------------------------
// Fig 7b — motivation: the inter-hop barrier idles flash resources.
// ---------------------------------------------------------------------

/// One Fig 7b measurement: how much die time the hop-by-hop barrier
/// wastes, measured as the utilization gap between BG-SP (barriered)
/// and BG-DGSP (out-of-order) with identical hardware.
#[derive(Debug, Clone, Copy)]
pub struct BarrierIdleRow {
    /// Mini-batch size.
    pub batch_size: usize,
    /// BG-SP mean die utilization.
    pub barriered_util: f64,
    /// BG-DGSP mean die utilization.
    pub out_of_order_util: f64,
    /// Prep-time inflation caused by the barrier (BG-SP / BG-DGSP).
    pub prep_inflation: f64,
}

/// Runs the Fig 7b barrier-cost sweep over batch sizes.
pub fn fig7b(nodes: usize) -> Vec<BarrierIdleRow> {
    let sizes = [32usize, 64, 128, 256];
    let results = run_cells(sizes.iter().flat_map(|&batch_size| {
        let w = workload_with(Dataset::Amazon, nodes, batch_size, 2);
        [Platform::BgSp, Platform::BgDgsp].map(|p| RunCell::new(p, Arc::clone(&w)))
    }));
    sizes
        .iter()
        .zip(results.chunks(2))
        .map(|(&batch_size, pair)| {
            let (sp, dgsp) = (&pair[0], &pair[1]);
            BarrierIdleRow {
                batch_size,
                barriered_util: sp.die_utilization(),
                out_of_order_util: dgsp.die_utilization(),
                prep_inflation: sp.prep_time.as_ns() as f64 / dgsp.prep_time.as_ns() as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig 14 — normalized throughput across platforms × workloads.
// ---------------------------------------------------------------------

/// One Fig 14 cell.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Workload.
    pub dataset: Dataset,
    /// Platform.
    pub platform: Platform,
    /// Throughput normalized to CC on the same workload.
    pub normalized: f64,
    /// Absolute throughput in targets/second.
    pub targets_per_sec: f64,
}

/// Builds the Fig 14 matrix: all eight platforms × all five workloads,
/// dataset-major (the same cell order [`fig14`] reports).
pub fn fig14_matrix(nodes: usize, batch: usize) -> RunMatrix {
    let mut matrix = RunMatrix::new();
    for dataset in Dataset::ALL {
        let w = workload(dataset, nodes, batch);
        matrix.add_platforms(&Platform::ALL, &w);
    }
    matrix
}

/// Folds one-per-cell metrics of [`fig14_matrix`] into Fig 14 rows.
fn fig14_rows(results: &[RunMetrics]) -> Vec<Fig14Row> {
    let nplat = Platform::ALL.len();
    let cc_idx = Platform::ALL
        .iter()
        .position(|&p| p == Platform::Cc)
        .expect("CC baseline in platform list");
    let mut rows = Vec::with_capacity(results.len());
    for (di, dataset) in Dataset::ALL.into_iter().enumerate() {
        let chunk = &results[di * nplat..(di + 1) * nplat];
        let cc = chunk[cc_idx].throughput();
        for (p, m) in Platform::ALL.into_iter().zip(chunk) {
            let t = m.throughput();
            rows.push(Fig14Row {
                dataset,
                platform: p,
                normalized: t / cc,
                targets_per_sec: t,
            });
        }
    }
    rows
}

/// Runs all eight platforms on all five workloads.
pub fn fig14(nodes: usize, batch: usize) -> Vec<Fig14Row> {
    fig14_rows(&fig14_matrix(nodes, batch).run_parallel(jobs()))
}

/// The geometric-mean normalized throughput of `platform` across all
/// datasets in `rows`.
pub fn geomean_normalized(rows: &[Fig14Row], platform: Platform) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| r.platform == platform)
        .map(|r| r.normalized)
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

// ---------------------------------------------------------------------
// Fig 15 — flash resource utilization + stage latency breakdown.
// ---------------------------------------------------------------------

/// Fig 15a–e: per-slice active die/channel curves for one platform.
#[derive(Debug, Clone)]
pub struct UtilizationCurves {
    /// Platform.
    pub platform: Platform,
    /// Mean active dies per time slice.
    pub dies: Vec<f64>,
    /// Mean active channels per time slice.
    pub channels: Vec<f64>,
    /// Slice width used.
    pub slice: Duration,
    /// Mean die utilization (fraction of all dies).
    pub die_utilization: f64,
    /// Mean channel utilization (fraction of all channels).
    pub channel_utilization: f64,
}

/// Runs each of `platforms` on `dataset`, as one matrix, and returns
/// their metrics in `platforms` order: the cells behind Fig 15's
/// utilization curves, Fig 15f's stage breakdown
/// ([`RunMetrics::stages`]), Fig 16's hop timeline
/// ([`RunMetrics::hop_windows`]), Fig 17's command breakdown
/// ([`RunMetrics::cmd_breakdown`]), Fig 19's energy and the
/// observability smoke's matrix summary.
pub fn platform_runs(
    platforms: &[Platform],
    dataset: Dataset,
    nodes: usize,
    batch: usize,
) -> Vec<RunMetrics> {
    let w = workload(dataset, nodes, batch);
    run_cells(platforms.iter().map(|&p| RunCell::new(p, Arc::clone(&w))))
}

/// Runs each platform on amazon and extracts its utilization curves.
pub fn fig15_curves(platforms: &[Platform], nodes: usize, batch: usize) -> Vec<UtilizationCurves> {
    let slice = Duration::from_us(50);
    platforms
        .iter()
        .zip(platform_runs(platforms, Dataset::Amazon, nodes, batch))
        .map(|(&platform, m)| UtilizationCurves {
            platform,
            dies: m.die_timeline.curve(slice),
            channels: m.channel_timeline.curve(slice),
            slice,
            die_utilization: m.die_utilization(),
            channel_utilization: m.channel_utilization(),
        })
        .collect()
}

/// Fig 15a–e's per-workload claim: BG-2's die/channel utilization per
/// dataset. The paper observes reddit/PPI die-starved (long features
/// saturate channel transfer) and movielens/OGBN channel-starved (short
/// features transfer quickly), with amazon highest on both.
pub fn fig15_dataset_utilization(nodes: usize, batch: usize) -> Vec<(Dataset, f64, f64)> {
    let cells = Dataset::ALL.map(|d| RunCell::new(Platform::Bg2, workload(d, nodes, batch)));
    Dataset::ALL
        .into_iter()
        .zip(run_cells(cells))
        .map(|(d, m)| (d, m.die_utilization(), m.channel_utilization()))
        .collect()
}

// ---------------------------------------------------------------------
// Fig 16 — hop timeline.
// ---------------------------------------------------------------------

/// Fraction of hop-window time that overlaps an adjacent hop (0 for a
/// strictly barriered platform).
pub fn hop_overlap_fraction(m: &RunMetrics) -> f64 {
    let mut overlap = Duration::ZERO;
    let mut total = Duration::ZERO;
    for w in m.hop_windows.windows(2) {
        total += w[1].span();
        if w[1].start < w[0].end {
            overlap += w[0].end - w[1].start;
        }
    }
    if total.is_zero() {
        return 0.0;
    }
    overlap.as_ns() as f64 / total.as_ns() as f64
}

// ---------------------------------------------------------------------
// Fig 18 — sensitivity sweeps (batch, bandwidth, cores, channels,
// dies, page size).
// ---------------------------------------------------------------------

/// Which Fig 18 sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Fig 18a: mini-batch size 32–256.
    BatchSize,
    /// Fig 18b: channel bandwidth 333–2400 MB/s.
    ChannelBandwidth,
    /// Fig 18c: controller cores 1–8.
    Cores,
    /// Fig 18d: flash channels (dies/channel fixed).
    Channels,
    /// Fig 18e: dies per channel.
    DiesPerChannel,
    /// Fig 18f: flash page size 2–16 KB.
    PageSize,
}

impl Sweep {
    /// All six sweeps in figure order.
    pub const ALL: [Sweep; 6] = [
        Sweep::BatchSize,
        Sweep::ChannelBandwidth,
        Sweep::Cores,
        Sweep::Channels,
        Sweep::DiesPerChannel,
        Sweep::PageSize,
    ];

    /// Figure-matching display name.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::BatchSize => "batch size",
            Sweep::ChannelBandwidth => "channel bandwidth (MB/s)",
            Sweep::Cores => "controller cores",
            Sweep::Channels => "flash channels",
            Sweep::DiesPerChannel => "dies per channel",
            Sweep::PageSize => "page size (B)",
        }
    }

    /// The paper's sweep points.
    pub fn points(self) -> Vec<u64> {
        match self {
            Sweep::BatchSize => vec![32, 64, 128, 256],
            Sweep::ChannelBandwidth => vec![333, 800, 1600, 2400],
            Sweep::Cores => vec![1, 2, 4, 8],
            Sweep::Channels => vec![4, 8, 16, 32],
            Sweep::DiesPerChannel => vec![2, 4, 8, 16],
            Sweep::PageSize => vec![2048, 4096, 8192, 16384],
        }
    }
}

/// One sensitivity measurement.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Platform.
    pub platform: Platform,
    /// Sweep-point value.
    pub point: u64,
    /// Absolute throughput at this point.
    pub targets_per_sec: f64,
}

/// Runs a Fig 18 sweep over the BG chain.
///
/// Device-only sweeps (bandwidth, cores, channels, dies) reuse one
/// cached workload across all points; batch-size and page-size points
/// change the workload itself and each prepare their own (also cached,
/// so repeated figure runs stay cheap).
pub fn fig18(sweep: Sweep, nodes: usize) -> Vec<SweepRow> {
    let points = sweep.points();
    let mut cells = Vec::new();
    for &point in &points {
        // Batch size and page size change the workload itself (page size
        // the DirectGraph image too); the other sweeps vary the device.
        let w = match sweep {
            Sweep::BatchSize => workload(Dataset::Amazon, nodes, point as usize),
            Sweep::PageSize => {
                let b = builder(Dataset::Amazon, nodes, DEFAULT_BATCH, DEFAULT_BATCHES);
                cache()
                    .get_or_prepare(b.page_size(point as usize))
                    .expect("prepare")
            }
            _ => workload(Dataset::Amazon, nodes, DEFAULT_BATCH),
        };
        // `RunCell::ssd` takes the page size from the workload.
        let base = SsdConfig::paper_default();
        let ssd = match sweep {
            Sweep::BatchSize | Sweep::PageSize => base,
            Sweep::ChannelBandwidth => base.with_channel_bandwidth(point * 1_000_000),
            Sweep::Cores => base.with_cores(point as usize),
            Sweep::Channels => base.with_channels(point as usize),
            Sweep::DiesPerChannel => base.with_dies_per_channel(point as usize),
        };
        for p in Platform::BG_CHAIN {
            cells.push(RunCell::new(p, Arc::clone(&w)).ssd(ssd));
        }
    }
    let results = run_cells(cells);
    let nplat = Platform::BG_CHAIN.len();
    points
        .iter()
        .enumerate()
        .flat_map(|(pi, &point)| {
            Platform::BG_CHAIN
                .into_iter()
                .zip(&results[pi * nplat..(pi + 1) * nplat])
                .map(move |(platform, m)| SweepRow {
                    platform,
                    point,
                    targets_per_sec: m.throughput(),
                })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig 19 — energy breakdown and efficiency.
// ---------------------------------------------------------------------

/// One platform's energy results on amazon.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Platform.
    pub platform: Platform,
    /// Component breakdown.
    pub breakdown: beacon_energy::EnergyBreakdown,
    /// Targets per joule.
    pub efficiency: f64,
    /// Average power in watts over the run.
    pub avg_power: f64,
}

/// Runs the Fig 19 energy comparison on amazon.
pub fn fig19(nodes: usize, batch: usize) -> Vec<EnergyRow> {
    let costs = EnergyCosts::default_costs();
    Platform::ALL
        .into_iter()
        .zip(platform_runs(&Platform::ALL, Dataset::Amazon, nodes, batch))
        .map(|(p, m)| {
            let b = m.energy.breakdown(&costs);
            EnergyRow {
                platform: p,
                breakdown: b,
                efficiency: b.efficiency(m.targets),
                avg_power: b.avg_power(m.makespan),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §VII-E — traditional (20 µs) SSD.
// ---------------------------------------------------------------------

/// Runs the BG chain (plus CC) on all datasets with 20 µs flash,
/// returning average normalized throughput per platform.
pub fn traditional_ssd(nodes: usize, batch: usize) -> Vec<(Platform, f64)> {
    let mut sums: Vec<(Platform, f64)> = Platform::BG_CHAIN.iter().map(|&p| (p, 0.0)).collect();
    let n = Dataset::ALL.len() as f64;
    let results = run_cells(Dataset::ALL.into_iter().flat_map(|dataset| {
        let w = workload(dataset, nodes, batch);
        std::iter::once(Platform::Cc)
            .chain(Platform::BG_CHAIN)
            .map(move |p| RunCell::new(p, Arc::clone(&w)).ssd(SsdConfig::traditional()))
    }));
    let stride = 1 + Platform::BG_CHAIN.len();
    for chunk in results.chunks(stride) {
        let cc = chunk[0].throughput();
        for ((_, sum), m) in sums.iter_mut().zip(&chunk[1..]) {
            *sum += m.throughput() / cc / n;
        }
    }
    sums
}

// ---------------------------------------------------------------------
// Table IV — DirectGraph storage inflation.
// ---------------------------------------------------------------------

/// One Table IV row.
#[derive(Debug, Clone)]
pub struct InflationRow {
    /// Dataset.
    pub dataset: Dataset,
    /// Paper-reported raw size (GB), for the table's first row.
    pub paper_raw_gb: f64,
    /// Measured inflation ratio at harness scale.
    pub inflation: f64,
    /// Page utilization of the converted image.
    pub page_utilization: f64,
}

/// Computes DirectGraph inflation for all five datasets.
pub fn table4(nodes: usize) -> Vec<InflationRow> {
    Dataset::ALL
        .iter()
        .map(|&dataset| {
            let w = workload(dataset, nodes, 1);
            let report = w.directgraph().inflation(w.spec().feature_bytes());
            InflationRow {
                dataset,
                paper_raw_gb: w.spec().paper_raw_gb,
                inflation: report.inflation_ratio(),
                page_utilization: report.page_utilization(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §VIII extensions: GNN queries, storage arrays, DRAM mitigation.
// ---------------------------------------------------------------------

/// One platform's query-latency measurement (§VIII "support for GNN
/// query").
#[derive(Debug, Clone, Copy)]
pub struct QueryRow {
    /// Platform.
    pub platform: Platform,
    /// Mean latency of a single-target query.
    pub mean: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

/// Measures single-target query latency across platforms.
pub fn query_latency(nodes: usize, queries: usize) -> Vec<QueryRow> {
    let w = workload(Dataset::Amazon, nodes, 1);
    let qs: Vec<Vec<beacongnn::NodeId>> = (0..queries)
        .map(|i| vec![beacongnn::NodeId::new((i % nodes) as u32)])
        .collect();
    Platform::ALL
        .iter()
        .map(|&p| {
            let lat = beacon_platforms::measure_query_latency(
                p,
                SsdConfig::paper_default(),
                w.model(),
                w.directgraph(),
                &qs,
                SEED,
            );
            QueryRow {
                platform: p,
                mean: lat.mean,
                max: lat.max,
            }
        })
        .collect()
}

/// Graph partition strategy of the array's host router (see
/// [`Partition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Node-id modulo: zero metadata, worst cut.
    Hash,
    /// Contiguous id ranges: preserves id-order locality.
    Range,
    /// Greedy BFS region growing: locality-aware.
    BfsGrow,
}

impl PartitionStrategy {
    /// All strategies in report order.
    pub const ALL: [PartitionStrategy; 3] = [
        PartitionStrategy::Hash,
        PartitionStrategy::Range,
        PartitionStrategy::BfsGrow,
    ];

    /// Column name used in the scale-out report.
    pub fn name(self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
            PartitionStrategy::Range => "range",
            PartitionStrategy::BfsGrow => "bfs_grow",
        }
    }

    /// Builds the partition over `graph`.
    pub fn build(self, graph: &CsrGraph, k: u32) -> Partition {
        match self {
            PartitionStrategy::Hash => Partition::hash(graph, k),
            PartitionStrategy::Range => Partition::range(graph, k),
            PartitionStrategy::BfsGrow => Partition::bfs_grow(graph, k),
        }
    }
}

/// Device counts swept by the scale-out figure.
pub const SCALEOUT_DEVICES: [usize; 5] = [1, 2, 4, 8, 16];

/// The fabrics the scale-out figure sweeps: the §VIII PCIe-P2P
/// baseline, NVMe-oF (more bandwidth, much higher hop latency), and a
/// deliberately thin 1 GB/s link that exposes fabric saturation.
pub fn scaleout_fabrics() -> Vec<(&'static str, FabricConfig)> {
    vec![
        ("pcie_p2p", FabricConfig::pcie_p2p()),
        ("nvme_of", FabricConfig::nvme_of()),
        (
            "thin_1gbps",
            FabricConfig::pcie_p2p().with_bandwidth(1_000_000_000),
        ),
    ]
}

/// One simulated scale-out measurement.
#[derive(Debug, Clone)]
pub struct ScaleoutRow {
    /// Devices in the array.
    pub devices: usize,
    /// Partition strategy of the host router.
    pub strategy: PartitionStrategy,
    /// Fabric name (see [`scaleout_fabrics`]).
    pub fabric: &'static str,
    /// Per-link fabric bandwidth in GB/s.
    pub fabric_gbps: f64,
    /// Array throughput, targets/second.
    pub targets_per_sec: f64,
    /// Scaling efficiency (1.0 = linear).
    pub efficiency: f64,
    /// Static cut fraction of the partition over the source graph.
    pub cut_fraction: f64,
    /// Fraction of *sampled* edges that crossed devices at run time.
    pub cross_fraction: f64,
    /// Total cross-device fabric traffic in MB (command hops + feature
    /// returns).
    pub fabric_mb: f64,
}

/// The scale-out figure's full result: the sweep grid plus one showcase
/// run whose per-device/fabric-link metrics registry backs `--metrics`.
#[derive(Debug, Clone)]
pub struct ScaleoutReport {
    /// Devices × strategy × fabric grid, in sweep order.
    pub rows: Vec<ScaleoutRow>,
    /// The 8-device bfs_grow PCIe-P2P cell's full metrics.
    pub showcase: ArrayRunMetrics,
}

/// Runs the §VIII scale-out sweep: BG-2 on 1–16 simulated devices
/// under each partition strategy and fabric. The sampling cascade is
/// recorded once from the serial engine and replayed per cell (it
/// depends on none of the swept parameters), so the sweep costs one
/// full simulation plus cheap timing replays. The partitions are built
/// first; the cells then spread over the harness-wide jobs setting,
/// each running its device lanes inline on its worker. Rows come back
/// in sweep order at any jobs count.
pub fn scaleout(nodes: usize, batch: usize) -> ScaleoutReport {
    let w = workload(Dataset::Amazon, nodes, batch);
    let exp = Experiment::new(&w);
    let cascade = exp
        .array_engine(Platform::Bg2, ArrayConfig::pcie_p2p(1))
        .record(w.batches());
    let parts: Vec<_> = SCALEOUT_DEVICES
        .iter()
        .flat_map(|&devices| PartitionStrategy::ALL.map(|strategy| (devices, strategy)))
        .map(|(devices, strategy)| {
            let part = strategy.build(w.graph(), devices as u32);
            let cut = part.cut_fraction(w.graph());
            (devices, strategy, part, cut)
        })
        .collect();
    let fabrics = scaleout_fabrics();
    let cells = parts.len() * fabrics.len();
    let run = |_: &mut (), i: usize| {
        let (devices, strategy, ref part, cut) = parts[i / fabrics.len()];
        let (fabric, cfg) = fabrics[i % fabrics.len()];
        let m = exp
            .array_engine(
                Platform::Bg2,
                ArrayConfig::pcie_p2p(devices).with_fabric(cfg),
            )
            .run_recorded(&cascade, part);
        let row = ScaleoutRow {
            devices,
            strategy,
            fabric,
            fabric_gbps: cfg.bandwidth as f64 / 1e9,
            targets_per_sec: m.throughput(),
            efficiency: m.efficiency(),
            cut_fraction: cut,
            cross_fraction: m.cross_fraction(),
            fabric_mb: m.fabric_bytes() as f64 / 1e6,
        };
        let showcase =
            devices == 8 && strategy == PartitionStrategy::BfsGrow && fabric == "pcie_p2p";
        (row, showcase.then_some(m))
    };
    let runs = simkit::par::map_indexed(jobs(), cells, || (), run);
    let (rows, showcase): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    ScaleoutReport {
        rows,
        showcase: showcase
            .into_iter()
            .flatten()
            .next()
            .expect("8-device bfs_grow pcie_p2p cell in sweep"),
    }
}

/// §VIII DRAM-bottleneck ablation: BG-2 throughput on a scaled-up
/// backend (32 channels × 16 dies, where aggregate flash throughput
/// exceeds the DRAM's) with baseline DRAM, HBM, and flash→SRAM bypass.
pub fn dram_ablation(nodes: usize, batch: usize) -> Vec<(&'static str, f64)> {
    let w = workload(Dataset::Amazon, nodes, batch);
    let base = SsdConfig::paper_default()
        .with_channels(32)
        .with_dies_per_channel(16);
    let configs = [
        ("32ch x 16die, baseline DRAM", base),
        ("32ch x 16die, HBM", base.with_hbm()),
        (
            "32ch x 16die, flash->SRAM bypass",
            base.with_dram_bypass(true),
        ),
    ];
    let cells = configs.map(|(_, ssd)| RunCell::new(Platform::Bg2, Arc::clone(&w)).ssd(ssd));
    // Report the data-preparation rate: at this geometry the backend
    // outruns the mini-batch computation, so end-to-end throughput
    // would mask the DRAM effect §VIII describes.
    configs
        .iter()
        .zip(run_cells(cells))
        .map(|(&(name, _), m)| (name, m.targets as f64 / m.prep_time.as_secs_f64()))
        .collect()
}

/// §VI-G: the cost acceleration mode imposes on regular storage I/O.
///
/// A regular request arriving mid-batch defers to the batch boundary;
/// with arrivals uniform over the batch window, the expected extra
/// latency is half the batch's makespan (plus the device's ordinary
/// service time). This measures that deferral window per batch size.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceRow {
    /// Mini-batch size.
    pub batch_size: usize,
    /// One batch's makespan (the deferral window).
    pub batch_window: Duration,
    /// Expected added latency for a uniformly arriving regular request.
    pub expected_deferral: Duration,
}

// ---------------------------------------------------------------------
// Observability smoke — one observed run + a parallel matrix summary.
// ---------------------------------------------------------------------

/// Runs one platform with the sim-time observability layer enabled on
/// the cached workload. Timing matches the unobserved run; only the
/// returned metrics carry spans and router/FTL/occupancy statistics.
pub fn observed_run(
    platform: Platform,
    dataset: Dataset,
    nodes: usize,
    batch: usize,
    span_capacity: usize,
) -> RunMetrics {
    let w = workload(dataset, nodes, batch);
    Experiment::new(&w).run_observed(platform, span_capacity)
}

/// Builds the observability smoke report: the observed run's full
/// metrics registry plus a `matrix` section summarizing all eight
/// platforms on the same workload, executed through the parallel
/// runner at the configured job count.
///
/// Every value derives from the simulation alone — no wall-clock, no
/// host topology — so the report is byte-identical at any `--jobs`.
pub fn obs_report(
    platform: Platform,
    dataset: Dataset,
    nodes: usize,
    batch: usize,
) -> (RunMetrics, simkit::MetricsRegistry) {
    let m = observed_run(platform, dataset, nodes, batch, 1 << 20);
    let mut reg = m.metrics_registry();

    let results = platform_runs(&Platform::ALL, dataset, nodes, batch);
    let sec = reg.section("matrix");
    sec.set_str("dataset", dataset.name());
    sec.set_u64("cells", results.len() as u64);
    for (p, r) in Platform::ALL.iter().zip(&results) {
        sec.set_f64(&format!("{p}_throughput"), r.throughput());
        sec.set_duration(&format!("{p}_makespan"), r.makespan);
    }
    (m, reg)
}

// ---------------------------------------------------------------------
// Latency figure — per-query tail latency vs arrival intensity.
// ---------------------------------------------------------------------

/// Platforms compared by the latency figure: BG-2 against the
/// software-defined baseline (CC) and the barriered in-storage design
/// (BG-1).
pub const LATENCY_PLATFORMS: [Platform; 3] = [Platform::Cc, Platform::Bg1, Platform::Bg2];

/// Arrival intensities (mini-batch sizes) swept by the latency figure.
pub const LATENCY_BATCHES: [usize; 4] = [32, 64, 128, 256];

/// Windowing epoch of the latency report's time series.
pub const LATENCY_EPOCH: Duration = Duration::from_ms(1);

/// One latency-figure cell: a platform at one arrival intensity, with
/// its tail percentiles and the critical-path split between queueing
/// and the dominant service stage.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Platform.
    pub platform: Platform,
    /// Mini-batch size (the arrival-intensity knob: every query in a
    /// batch is submitted at once, so larger batches mean more
    /// contention per query).
    pub batch_size: usize,
    /// Mean per-query latency.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// Tail percentiles.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Worst query.
    pub max_ns: u64,
    /// Queueing share of the summed critical paths.
    pub queue_frac: f64,
    /// The non-queue stage owning the largest critical-path share.
    pub dominant: &'static str,
    /// That stage's share of the summed critical paths.
    pub dominant_frac: f64,
}

fn latency_row(platform: Platform, batch_size: usize, m: &RunMetrics) -> LatencyRow {
    use simkit::Stage;
    let lat = &m.latency;
    let h = lat.histogram();
    let total = Stage::ALL
        .iter()
        .map(|&s| lat.stage_total_ns(s))
        .sum::<u64>()
        .max(1) as f64;
    let (dominant, dom_ns) = Stage::ALL
        .iter()
        .filter(|&&s| s != Stage::Queue)
        .map(|&s| (s.as_str(), lat.stage_total_ns(s)))
        .max_by_key(|&(_, ns)| ns)
        .unwrap_or(("other", 0));
    LatencyRow {
        platform,
        batch_size,
        mean_ns: h.mean_ns().unwrap_or(0.0),
        p50_ns: h.percentile_ns(50, 100).unwrap_or(0),
        p99_ns: h.percentile_ns(99, 100).unwrap_or(0),
        p999_ns: h.percentile_ns(999, 1000).unwrap_or(0),
        max_ns: h.max_ns().unwrap_or(0),
        queue_frac: lat.stage_total_ns(Stage::Queue) as f64 / total,
        dominant,
        dominant_frac: dom_ns as f64 / total,
    }
}

/// Runs the latency figure: [`LATENCY_PLATFORMS`] at each arrival
/// intensity of [`LATENCY_BATCHES`], with per-query latency tracking
/// on, as one matrix. Each intensity's sampling cascade is recorded
/// once and replayed per platform (replay is byte-identical to the full
/// path, so whether `BEACON_REPLAY` is on changes only the wall-clock).
pub fn latency_figure(nodes: usize) -> Vec<LatencyRow> {
    let cells = LATENCY_BATCHES.iter().flat_map(|&batch| {
        let w = workload_with(Dataset::Amazon, nodes, batch, 2);
        LATENCY_PLATFORMS.map(|p| RunCell::new(p, Arc::clone(&w)).latency(LATENCY_EPOCH))
    });
    let rows = LATENCY_BATCHES
        .iter()
        .flat_map(|&batch| LATENCY_PLATFORMS.map(|p| (p, batch)));
    rows.zip(run_cells(cells))
        .map(|((p, batch), m)| latency_row(p, batch, &m))
        .collect()
}

/// The latency figure's showcase cell — BG-2 at the highest swept
/// intensity — whose full metrics (per-query rows, windowed
/// histograms, registry sections) back the `experiments latency`
/// export flags.
pub fn latency_showcase(nodes: usize) -> RunMetrics {
    let batch = LATENCY_BATCHES[LATENCY_BATCHES.len() - 1];
    let w = workload_with(Dataset::Amazon, nodes, batch, 2);
    let cell = RunCell::new(Platform::Bg2, w).latency(LATENCY_EPOCH);
    run_cells([cell]).pop().expect("one cell, one result")
}

/// Measures the §VI-G deferral window across batch sizes on BG-2.
pub fn interference(nodes: usize) -> Vec<InterferenceRow> {
    let sizes = [32usize, 64, 128, 256];
    let cells = sizes.map(|batch| {
        RunCell::new(
            Platform::Bg2,
            workload_with(Dataset::Amazon, nodes, batch, 1),
        )
    });
    sizes
        .into_iter()
        .zip(run_cells(cells))
        .map(|(batch_size, m)| InterferenceRow {
            batch_size,
            batch_window: m.makespan,
            expected_deferral: m.makespan / 2,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_shape() {
        let sweep = fig7a();
        assert_eq!(sweep.len(), 8);
        let gain = sweep[7].throughput / sweep[0].throughput;
        assert!((1.3..=1.8).contains(&gain), "8-die gain {gain:.2}");
    }

    #[test]
    fn fig14_small_scale_ordering() {
        let runs = platform_runs(&[Platform::Cc, Platform::Bg2], Dataset::Amazon, 3_000, 64);
        let (cc, bg2) = (runs[0].throughput(), runs[1].throughput());
        assert!(bg2 > 4.0 * cc, "BG-2/CC = {:.1}", bg2 / cc);
    }

    #[test]
    fn sweep_points_match_paper() {
        assert_eq!(Sweep::BatchSize.points(), vec![32, 64, 128, 256]);
        assert_eq!(Sweep::ChannelBandwidth.points(), vec![333, 800, 1600, 2400]);
        assert_eq!(Sweep::PageSize.points(), vec![2048, 4096, 8192, 16384]);
        for s in Sweep::ALL {
            assert!(!s.name().is_empty());
            assert!(!s.points().is_empty());
        }
    }

    #[test]
    fn hop_overlap_discriminates_platforms() {
        let runs = platform_runs(&[Platform::Bg1, Platform::Bg2], Dataset::Amazon, 2_000, 32);
        let (barrier, ooo) = (&runs[0], &runs[1]);
        assert_eq!(hop_overlap_fraction(barrier), 0.0);
        assert!(
            hop_overlap_fraction(ooo) > 0.1,
            "{}",
            hop_overlap_fraction(ooo)
        );
    }

    #[test]
    fn fig15_dataset_claims() {
        // Paper §VII-B: reddit/PPI have low DIE utilization even on
        // BG-2 (feature transfer dominates); movielens/OGBN have low
        // CHANNEL utilization (short features); amazon is the balanced
        // representative.
        let rows = fig15_dataset_utilization(3_000, 64);
        let get = |d: Dataset| {
            rows.iter()
                .find(|r| r.0 == d)
                .expect("all datasets present")
        };
        let amazon = get(Dataset::Amazon);
        for starved in [Dataset::Reddit, Dataset::Ppi] {
            assert!(
                get(starved).1 < amazon.1,
                "{starved} die util {:.2} should trail amazon {:.2}",
                get(starved).1,
                amazon.1
            );
        }
        for starved in [Dataset::Movielens, Dataset::Ogbn] {
            assert!(
                get(starved).2 < amazon.2,
                "{starved} channel util {:.2} should trail amazon {:.2}",
                get(starved).2,
                amazon.2
            );
        }
    }

    #[test]
    fn table4_ogbn_is_outlier() {
        let rows = table4(3_000);
        let ogbn = rows.iter().find(|r| r.dataset == Dataset::Ogbn).unwrap();
        for r in &rows {
            if r.dataset != Dataset::Ogbn {
                assert!(
                    ogbn.inflation > r.inflation,
                    "OGBN ({:.3}) should exceed {} ({:.3})",
                    ogbn.inflation,
                    r.dataset,
                    r.inflation
                );
            }
        }
    }

    #[test]
    fn scaleout_grid_shape_and_identities() {
        let report = scaleout(2_000, 32);
        assert_eq!(
            report.rows.len(),
            SCALEOUT_DEVICES.len() * PartitionStrategy::ALL.len() * scaleout_fabrics().len()
        );
        for r in &report.rows {
            assert!(r.targets_per_sec > 0.0, "{r:?}");
            if r.devices == 1 {
                // One device is the serial engine verbatim: perfectly
                // efficient, nothing crosses the fabric.
                assert!((r.efficiency - 1.0).abs() < 1e-9, "{r:?}");
                assert_eq!(r.fabric_mb, 0.0, "{r:?}");
                assert_eq!(r.cross_fraction, 0.0, "{r:?}");
            } else {
                assert!(r.efficiency > 0.0 && r.efficiency <= 1.5, "{r:?}");
            }
        }
        assert_eq!(report.showcase.devices, 8);
        assert!(report.showcase.rounds > 0);
    }

    #[test]
    fn geomean_helper() {
        let rows = vec![
            Fig14Row {
                dataset: Dataset::Amazon,
                platform: Platform::Bg2,
                normalized: 4.0,
                targets_per_sec: 1.0,
            },
            Fig14Row {
                dataset: Dataset::Ppi,
                platform: Platform::Bg2,
                normalized: 16.0,
                targets_per_sec: 1.0,
            },
        ];
        assert!((geomean_normalized(&rows, Platform::Bg2) - 8.0).abs() < 1e-9);
        assert_eq!(geomean_normalized(&rows, Platform::Cc), 0.0);
    }
}
