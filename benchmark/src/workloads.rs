//! The four workloads.
//!
//! Each builds its inputs from the seed through the `beacongnn` public
//! API, runs closed-loop iterations on one thread, and checks its own
//! outputs. Every cache an iteration uses is created here and dropped
//! with it: `ReplayCache::in_memory()` / `disabled()` and
//! `WorkloadCache::with_disk_dir` on a directory the workload owns. The
//! process-wide replay cache and the default workload cache directory
//! are never touched, so no result depends on an earlier run.
//!
//! One code path serves both passes: with the tracer off an iteration
//! makes the same calls a user of the API would; with it on, the
//! iteration is decomposed into direct calls, each inside a span named
//! after the layer it enters.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use beacongnn::directgraph::{AddrLayout, DirectGraphBuilder};
use beacongnn::platforms::{Engine, EngineScratch, PartitionedEngine};
use beacongnn::simkit::{Duration, Stage};
use beacongnn::{
    diskcache, ArrayCascade, ArrayConfig, ArrayEngine, Dataset, DatasetSpec, Experiment,
    FabricConfig, Partition, Platform, ReplayCache, RunCell, RunMatrix, RunMetrics, SsdConfig,
    Workload, WorkloadBuilder, WorkloadCache,
};

use crate::metrics::{paper_err_pct, platform_key, LAYERS};
use crate::trace::Tracer;

/// The workloads, in the fixed order the default invocation runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Platforms,
    Scaleout,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Sweep, Kind::Platforms, Kind::Scaleout, Kind::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Platforms => "platforms",
            Kind::Scaleout => "scaleout",
            Kind::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn datasets(self) -> &'static [Dataset] {
        match self {
            Kind::Platforms => &Dataset::ALL,
            _ => &[Dataset::Amazon],
        }
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark measures; tests
/// run the same code at a tiny scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub nodes: usize,
    pub batch: usize,
    pub batches: usize,
    pub ingest_nodes: usize,
    pub ingest_batches: usize,
}

impl Scale {
    /// The experiment harness's default scale (12 000 nodes, batch
    /// 256 × 3), so simulated results cross-check with EXPERIMENTS.md.
    /// `ingest` uses the dataset presets' own default scale, 100 000
    /// nodes: its resident working set (~0.5 GB) exceeds the CPU caches
    /// and is 2–9× the other workloads'.
    pub const FULL: Scale = Scale {
        nodes: 12_000,
        batch: 256,
        batches: 3,
        ingest_nodes: 100_000,
        ingest_batches: 2,
    };

    fn nodes_of(self, kind: Kind) -> usize {
        match kind {
            Kind::Ingest => self.ingest_nodes,
            _ => self.nodes,
        }
    }

    fn builder(self, kind: Kind, dataset: Dataset, seed: u64) -> WorkloadBuilder {
        let batches = match kind {
            Kind::Ingest => self.ingest_batches,
            _ => self.batches,
        };
        Workload::builder()
            .dataset(dataset)
            .nodes(self.nodes_of(kind))
            .batch_size(self.batch)
            .batches(batches)
            .seed(seed)
    }
}

/// Operations attempted and failed, the iteration's simulation digest,
/// and exact per-layer counts keyed by their metric name.
#[derive(Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Host seconds per matrix cell (traced pass only).
    pub cell_secs: Vec<f64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            digest: FNV_OFFSET,
            values: BTreeMap::new(),
            cell_secs: Vec::new(),
        }
    }
}

impl Tally {
    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts `n` simulated cells that ran to completion.
    pub fn cells(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.values.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a run's simulated results into the digest and its event
    /// calendar counters into the calendar layer.
    fn run(&mut self, m: &RunMetrics) {
        for v in [
            m.makespan.as_ns(),
            m.targets,
            m.nodes_visited,
            m.flash_reads,
            m.sampler_executed,
            m.pools.events_processed,
        ] {
            self.fold(&v.to_le_bytes());
        }
        let p = &m.pools;
        self.max(
            "simkit.calendar.wheel_high_water",
            p.calendar_wheel_high_water as f64,
        );
        self.max(
            "simkit.calendar.far_high_water",
            p.calendar_far_high_water as f64,
        );
        self.add(
            "simkit.calendar.slots_allocated",
            p.event_slots_allocated as f64,
        );
        self.add("simkit.calendar.slots_reused", p.event_slots_reused as f64);
    }

    /// Adds another tally's operations (values and digest are per pass).
    pub fn absorb_ops(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The paper-default SSD at the workload's page size.
fn device(w: &Workload) -> SsdConfig {
    SsdConfig::paper_default().with_page_size(w.directgraph().layout().page_size())
}

fn prepare(builder: WorkloadBuilder) -> Arc<Workload> {
    Arc::new(builder.prepare().expect("benchmark workload prepares"))
}

/// Fig 18's device sweep: 16 SSD points, four per knob.
fn sweep_points() -> Vec<(String, SsdConfig)> {
    let d = SsdConfig::paper_default();
    let mut points = Vec::new();
    for c in [1, 2, 4, 8] {
        points.push((format!("cores{c}"), d.with_cores(c)));
    }
    for ch in [4, 8, 16, 32] {
        points.push((format!("ch{ch}"), d.with_channels(ch)));
    }
    for dies in [2, 4, 8, 16] {
        points.push((format!("dies{dies}"), d.with_dies_per_channel(dies)));
    }
    for mbps in [333, 800, 1600, 2400] {
        points.push((
            format!("bw{mbps}"),
            d.with_channel_bandwidth(mbps * 1_000_000),
        ));
    }
    points
}

const DEVICES: [usize; 5] = [1, 2, 4, 8, 16];

const STRATEGIES: [&str; 3] = ["hash", "range", "bfs_grow"];

fn partition(strategy: &str, w: &Workload, devices: usize) -> Partition {
    let k = devices as u32;
    match strategy {
        "hash" => Partition::hash(w.graph(), k),
        "range" => Partition::range(w.graph(), k),
        _ => Partition::bfs_grow(w.graph(), k),
    }
}

fn fabrics() -> [(&'static str, FabricConfig); 2] {
    [
        ("pcie_p2p", FabricConfig::pcie_p2p()),
        ("nvme_of", FabricConfig::nvme_of()),
    ]
}

/// The latency runs' windowing epoch (the latency figure's).
const LAT_EPOCH: Duration = Duration::from_ms(1);
/// Span capacity of observed runs (the observability figure's).
const OBS_SPANS: usize = 1 << 20;
const INGEST_PLATFORMS: [Platform; 3] = [Platform::Cc, Platform::Bg1, Platform::Bg2];

fn registry_json(m: &RunMetrics) -> String {
    m.metrics_registry().to_json_string()
}

pub struct Sweep {
    w: Arc<Workload>,
    matrix: RunMatrix,
    labels: Vec<String>,
}

pub struct Platforms {
    workloads: Vec<Arc<Workload>>,
    matrix: RunMatrix,
    targets: u64,
}

pub struct Scaleout {
    w: Arc<Workload>,
    parts: Vec<(usize, &'static str, Partition)>,
}

/// The disk-cache workload. Owns its cache directory and removes it on
/// drop.
pub struct Ingest {
    dir: PathBuf,
    builder: WorkloadBuilder,
    built_digest: u64,
    file_bytes: u64,
}

impl Drop for Ingest {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A prepared workload.
pub enum Input {
    Sweep(Sweep),
    Platforms(Platforms),
    Scaleout(Scaleout),
    Ingest(Ingest),
}

/// A directory under `base` that no other input of this process uses.
fn fresh_dir(base: &Path, what: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = base.join(format!("{what}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Input {
    /// Prepares `kind`'s inputs from `seed`. Returns them with the host
    /// seconds the preparation took. `ingest` keeps its disk cache under
    /// `dir`.
    pub fn setup(kind: Kind, scale: Scale, seed: u64, dir: &Path) -> (Input, f64) {
        let ingest_dir = (kind == Kind::Ingest).then(|| fresh_dir(dir, "ingest"));
        let t0 = Instant::now();
        let input = match kind {
            Kind::Sweep => {
                let w = prepare(scale.builder(kind, Dataset::Amazon, seed));
                let mut matrix = RunMatrix::new();
                let mut labels = Vec::new();
                for (point, ssd) in sweep_points() {
                    for p in Platform::BG_CHAIN {
                        matrix.push(RunCell::new(p, Arc::clone(&w)).ssd(ssd));
                        labels.push(format!("{p}@{point}"));
                    }
                }
                Input::Sweep(Sweep { w, matrix, labels })
            }
            Kind::Platforms => {
                let mut matrix = RunMatrix::new();
                let mut workloads = Vec::new();
                for &d in kind.datasets() {
                    let w = prepare(scale.builder(kind, d, seed));
                    matrix.add_platforms(&Platform::ALL, &w);
                    workloads.push(w);
                }
                let targets = (scale.batch * scale.batches) as u64;
                Input::Platforms(Platforms {
                    workloads,
                    matrix,
                    targets,
                })
            }
            Kind::Scaleout => {
                let w = prepare(scale.builder(kind, Dataset::Amazon, seed));
                let mut parts = Vec::new();
                for devices in DEVICES {
                    for name in STRATEGIES {
                        parts.push((devices, name, partition(name, &w, devices)));
                    }
                }
                Input::Scaleout(Scaleout { w, parts })
            }
            Kind::Ingest => {
                let dir = ingest_dir.expect("ingest directory chosen above");
                let builder = scale.builder(kind, Dataset::Amazon, seed);
                let w = WorkloadCache::with_disk_dir(&dir)
                    .get_or_prepare(builder.clone())
                    .expect("benchmark workload prepares");
                let secs = t0.elapsed().as_secs_f64();
                let ingest = Ingest {
                    built_digest: w.directgraph().digest(),
                    file_bytes: dir_bytes(&dir),
                    dir,
                    builder,
                };
                return (Input::Ingest(ingest), secs);
            }
        };
        (input, t0.elapsed().as_secs_f64())
    }

    /// Runs one iteration, counting its cells and checks into `y`.
    pub fn iterate(&self, t: &mut Tracer, y: &mut Tally) {
        match self {
            Input::Sweep(s) => s.iterate(t, y),
            Input::Platforms(p) => p.iterate(t, y),
            Input::Scaleout(s) => s.iterate(t, y),
            Input::Ingest(i) => i.iterate(t, y),
        }
    }

    /// Checks outputs against reference paths (untimed, once per run).
    pub fn check(&self, y: &mut Tally) {
        match self {
            Input::Sweep(s) => s.check(y),
            Input::Platforms(_) => {}
            Input::Scaleout(s) => s.check(y),
            Input::Ingest(i) => i.check(y),
        }
    }

    /// Extra measurements for the traced pass: the bases of the
    /// per-layer ratios (sampler share, t2 speed-up, lane and
    /// bookkeeping overheads).
    pub fn probe(&self, t: &mut Tracer) {
        match self {
            Input::Sweep(_) => {}
            Input::Platforms(p) => p.probe(t),
            Input::Scaleout(s) => s.probe(t),
            Input::Ingest(i) => i.probe(t),
        }
    }

    /// DirectGraph digests of the prepared images, in dataset order.
    fn image_digests(&self) -> Vec<u64> {
        match self {
            Input::Sweep(s) => vec![s.w.directgraph().digest()],
            Input::Platforms(p) => p
                .workloads
                .iter()
                .map(|w| w.directgraph().digest())
                .collect(),
            Input::Scaleout(s) => vec![s.w.directgraph().digest()],
            Input::Ingest(i) => vec![i.built_digest],
        }
    }

    /// Repeats the preparation as direct calls, one span per layer
    /// (graph synthesis, features, DirectGraph encode, partitioning, the
    /// disk-cache save), and checks the decomposed build reproduces the
    /// prepared images.
    pub fn setup_probe(
        &self,
        kind: Kind,
        scale: Scale,
        seed: u64,
        dir: &Path,
        t: &mut Tracer,
        y: &mut Tally,
    ) {
        let layout = AddrLayout::for_page_size(4096).expect("4 KB pages have a layout");
        let want = self.image_digests();
        for (i, &d) in kind.datasets().iter().enumerate() {
            let spec = DatasetSpec::preset(d).at_scale(scale.nodes_of(kind));
            let graph = t.span("graph.generate", d.name(), || spec.build_graph(seed));
            let features = t.span("graph.features", d.name(), || spec.build_features(seed));
            let dg = t.span("directgraph.encode", d.name(), || {
                DirectGraphBuilder::new(layout)
                    .build(&graph, &features)
                    .expect("benchmark graph encodes")
            });
            y.add("directgraph.pages", dg.stats().total_pages() as f64);
            let digest = dg.digest();
            y.check(want.get(i) == Some(&digest), || {
                format!(
                    "{}: decomposed build of {d} differs from the prepared image",
                    kind.name()
                )
            });
        }
        if let Input::Scaleout(s) = self {
            for devices in DEVICES {
                for name in STRATEGIES {
                    t.span("graph.partition", format!("{devices}x{name}"), || {
                        partition(name, &s.w, devices)
                    });
                }
            }
        }
        if let Input::Ingest(i) = self {
            let cold = fresh_dir(dir, "ingest-probe");
            t.span("core.diskcache.cold_prepare", "amazon", || {
                WorkloadCache::with_disk_dir(&cold)
                    .get_or_prepare(i.builder.clone())
                    .expect("benchmark workload prepares")
            });
            let _ = std::fs::remove_dir_all(&cold);
            y.add("core.diskcache.bytes", i.file_bytes as f64);
        }
    }
}

impl Sweep {
    fn iterate(&self, t: &mut Tracer, y: &mut Tally) {
        let cache = ReplayCache::in_memory();
        let results = if t.is_on() {
            // Record once, then each cell as a one-cell matrix on the
            // same cache: the matrix path, split at cell boundaries.
            t.span("core.replay.record", "BG-2@default", || {
                cache.prime_recording(&self.w, self.w.seed())
            });
            let mut results = Vec::new();
            for (cell, label) in self.matrix.cells().iter().zip(&self.labels) {
                let memo_before = cache.stats().memo_hits;
                let mut one = RunMatrix::new();
                one.push(cell.clone());
                let id = t.open("core.replay.cell_replay", label.as_str());
                let m = one
                    .run_sequential_with(&cache)
                    .pop()
                    .expect("one cell, one result");
                t.close(id);
                if cache.stats().memo_hits > memo_before {
                    t.rename(id, "core.replay.cell_memo");
                } else {
                    y.add("platforms.engine.events", m.pools.events_processed as f64);
                }
                y.add(platform_key(cell.platform), t.secs(id));
                y.cell_secs.push(t.secs(id));
                results.push(m);
            }
            results
        } else {
            self.matrix.run_sequential_with(&cache)
        };
        y.cells(results.len());
        for m in &results {
            y.run(m);
        }
        let s = cache.stats();
        y.check(s.records == 1 && s.fallbacks == 0, || {
            format!("sweep: one recording and no fallbacks expected, got {s:?}")
        });
        y.add("core.replay.hits", s.hits as f64);
        y.add("core.replay.records", s.records as f64);
        y.add("core.replay.memo_hits", s.memo_hits as f64);
        y.add("core.replay.fallbacks", s.fallbacks as f64);
    }

    /// Replayed and memo-served cells must match a full run byte for
    /// byte. Samples the first cell, the first memo-served cell, and
    /// cells spread over the matrix.
    fn check(&self, y: &mut Tally) {
        let cells = self.matrix.cells();
        let out = self.matrix.run_sequential_with(&ReplayCache::in_memory());
        let mut seen = HashSet::new();
        let first_memo = cells
            .iter()
            .position(|c| !seen.insert(format!("{}|{:?}", c.platform, c.ssd)))
            .unwrap_or(1);
        let n = cells.len();
        let mut sample = vec![0, first_memo, n / 4, n / 2, n - 1];
        sample.sort_unstable();
        sample.dedup();
        for i in sample {
            let full = cells[i].execute();
            y.check(registry_json(&out[i]) == registry_json(&full), || {
                format!("sweep: cell {} differs from its full run", self.labels[i])
            });
        }
    }
}

impl Platforms {
    fn iterate(&self, t: &mut Tracer, y: &mut Tally) {
        let results = if t.is_on() {
            let mut scratch = EngineScratch::new();
            let mut results = Vec::new();
            for cell in self.matrix.cells() {
                let label = format!("{}@{}", cell.platform, cell.workload.spec().dataset);
                let id = t.open("platforms.engine.run", label);
                let m = cell.execute_with(&mut scratch);
                t.close(id);
                y.add("platforms.engine.events", m.pools.events_processed as f64);
                y.add(platform_key(cell.platform), t.secs(id));
                y.cell_secs.push(t.secs(id));
                results.push(m);
            }
            results
        } else {
            self.matrix.run_sequential_with(&ReplayCache::disabled())
        };
        y.cells(results.len());
        for m in &results {
            y.run(m);
        }
        let bad = results.iter().filter(|m| m.targets != self.targets).count();
        y.check(bad == 0, || {
            format!(
                "platforms: {bad} cells processed other than {} targets",
                self.targets
            )
        });
        // Fig 14: each platform's throughput normalized to CC (the
        // first platform) per dataset, geomean over the datasets.
        let nplat = Platform::ALL.len();
        let geomean = |p: Platform| {
            let i = Platform::ALL
                .iter()
                .position(|&q| q == p)
                .expect("listed platform");
            let logs: f64 = results
                .chunks(nplat)
                .map(|ds| (ds[i].throughput() / ds[0].throughput()).ln())
                .sum();
            (logs / (results.len() / nplat) as f64).exp()
        };
        y.add("model.paper_err_pct", paper_err_pct(geomean));
    }

    /// Runs every cell in full and then replays it from a recording of
    /// its dataset, back to back so slow phases of the host hit both
    /// alike: the difference is the die sampler's time.
    fn probe(&self, t: &mut Tracer) {
        let mut scratch = EngineScratch::new();
        let nplat = Platform::ALL.len();
        for (w, cells) in self.workloads.iter().zip(self.matrix.cells().chunks(nplat)) {
            let (_, rec) = t.span("flash.probe.record", w.spec().dataset.name(), || {
                Engine::new(
                    Platform::Bg2,
                    device(w),
                    w.model(),
                    w.directgraph(),
                    w.seed(),
                )
                .record_cascade(&mut scratch, w.batches())
            });
            for cell in cells {
                let label = format!("{}@{}", cell.platform, w.spec().dataset);
                t.span("flash.probe.full_run", label.as_str(), || {
                    cell.execute_with(&mut scratch)
                });
                t.span("platforms.engine.replay", label, || {
                    Engine::new(
                        cell.platform,
                        cell.ssd,
                        w.model(),
                        w.directgraph(),
                        cell.seed,
                    )
                    .replay_with(&mut scratch, &rec, w.batches())
                });
            }
        }
    }
}

impl Scaleout {
    /// The BG-2 array engine on `devices` SSDs joined by `fabric`, at
    /// `threads` device workers.
    fn array(&self, devices: usize, fabric: FabricConfig, threads: usize) -> ArrayEngine<'_> {
        Experiment::new(&self.w)
            .array_engine(
                Platform::Bg2,
                ArrayConfig::pcie_p2p(devices).with_fabric(fabric),
            )
            .threads(threads)
    }

    fn record(&self) -> ArrayCascade {
        self.array(1, FabricConfig::pcie_p2p(), 1)
            .record(self.w.batches())
    }

    fn partitioned(&self, threads: usize) -> RunMetrics {
        let w = &self.w;
        PartitionedEngine::new(
            Platform::Bg2,
            device(w),
            w.model(),
            w.directgraph(),
            w.seed(),
        )
        .threads(threads)
        .run(w.batches())
    }

    fn serial(&self) -> RunMetrics {
        let w = &self.w;
        Engine::new(
            Platform::Bg2,
            device(w),
            w.model(),
            w.directgraph(),
            w.seed(),
        )
        .run(w.batches())
    }

    fn iterate(&self, t: &mut Tracer, y: &mut Tally) {
        let cascade = t.span("platforms.array.record", "BG-2", || self.record());
        let serial = cascade.single_metrics();
        y.run(serial);
        for (devices, strategy, part) in &self.parts {
            for (fabric_name, fabric) in fabrics() {
                let label = format!("{devices}x{strategy}@{fabric_name}");
                let id = t.open("platforms.array.replay", label.as_str());
                let m = self.array(*devices, fabric, 1).run_recorded(&cascade, part);
                t.close(id);
                let nodes: u64 = m.per_device.iter().map(|d| d.nodes_visited).sum();
                let reads: u64 = m.per_device.iter().map(|d| d.flash_reads).sum();
                y.check(
                    nodes == serial.nodes_visited && reads == serial.flash_reads,
                    || format!("scaleout {label}: per-device work does not sum to the serial run"),
                );
                if *devices > 1 {
                    // A 1-device array returns the recorded serial run
                    // verbatim; only real lane replays count as events.
                    let events: u64 = m.per_device.iter().map(|d| d.events_processed).sum();
                    y.add("platforms.array.events", events as f64);
                }
                y.add("platforms.array.rounds", m.rounds as f64);
                y.add("platforms.array.messages", m.messages as f64);
                y.run(&m.metrics);
            }
        }
        let pm = t.span("platforms.partition.t1", "BG-2", || self.partitioned(1));
        y.run(&pm);
        y.cells(self.parts.len() * fabrics().len() + 2);
    }

    fn check(&self, y: &mut Tally) {
        let (_, _, one_part) = &self.parts[0];
        let one = self
            .array(1, FabricConfig::pcie_p2p(), 1)
            .run_recorded(&self.record(), one_part);
        y.check(
            registry_json(&one.metrics) == registry_json(&self.serial()),
            || "scaleout: the 1-device array differs from the serial engine".into(),
        );
        y.check(
            registry_json(&self.partitioned(1)) == registry_json(&self.partitioned(2)),
            || "scaleout: partitioned runs differ between 1 and 2 threads".into(),
        );
    }

    /// Replays each array cell on 1 and then 2 threads, and runs the
    /// serial engine and the partitioned engine on 1 and 2 threads, each
    /// pair back to back so slow phases of the host hit both alike.
    fn probe(&self, t: &mut Tracer) {
        let cascade = t.span("platforms.array.probe_record", "BG-2", || self.record());
        for (devices, strategy, part) in &self.parts {
            for (fabric_name, fabric) in fabrics() {
                let label = format!("{devices}x{strategy}@{fabric_name}");
                t.span("platforms.array.probe_t1", label.as_str(), || {
                    self.array(*devices, fabric, 1).run_recorded(&cascade, part)
                });
                t.span("platforms.array.replay_t2", label, || {
                    self.array(*devices, fabric, 2).run_recorded(&cascade, part)
                });
            }
        }
        t.span("platforms.engine.run", "BG-2 serial", || self.serial());
        t.span("platforms.partition.probe_t1", "BG-2", || {
            self.partitioned(1)
        });
        t.span("platforms.partition.t2", "BG-2", || self.partitioned(2));
    }
}

/// One run of `p` on `w`, plain or with latency tracking.
fn ingest_run(w: &Workload, p: Platform, latency: bool) -> RunMetrics {
    let engine = Engine::new(p, device(w), w.model(), w.directgraph(), w.seed());
    let engine = if latency {
        engine.with_latency(LAT_EPOCH)
    } else {
        engine
    };
    engine.run(w.batches())
}

impl Ingest {
    fn load(&self, t: &mut Tracer, span: &'static str) -> Arc<Workload> {
        t.span(span, "amazon", || {
            WorkloadCache::with_disk_dir(&self.dir)
                .get_or_prepare(self.builder.clone())
                .expect("benchmark workload loads")
        })
    }

    fn iterate(&self, t: &mut Tracer, y: &mut Tally) {
        let hits = diskcache::stats().hits;
        let w = self.load(t, "core.diskcache.load");
        y.check(diskcache::stats().hits == hits + 1, || {
            "ingest: the workload was rebuilt instead of loaded from disk".into()
        });
        fn render(t: &mut Tracer, y: &mut Tally, p: Platform, m: &RunMetrics) {
            let json = t.span("simkit.obs.render", p.name(), || registry_json(m));
            y.add("simkit.obs.report_bytes", json.len() as f64);
            y.fold(json.as_bytes());
        }
        for p in INGEST_PLATFORMS {
            let m = t.span("platforms.lat.run", p.name(), || ingest_run(&w, p, true));
            let lat = &m.latency;
            let staged: u64 = Stage::ALL.iter().map(|&s| lat.stage_total_ns(s)).sum();
            y.check(staged == lat.histogram().sum_ns(), || {
                format!("ingest {p}: latency stage totals do not sum to the latency total")
            });
            y.add("platforms.lat.queries", lat.histogram().count() as f64);
            y.run(&m);
            render(t, y, p, &m);
        }
        for p in INGEST_PLATFORMS {
            let m = t.span("simkit.obs.observed_run", p.name(), || {
                Experiment::new(&w).run_observed(p, OBS_SPANS)
            });
            y.run(&m);
            render(t, y, p, &m);
        }
        y.cells(2 * INGEST_PLATFORMS.len());
    }

    fn check(&self, y: &mut Tally) {
        let w = self.load(&mut Tracer::off(), "");
        y.check(w.directgraph().digest() == self.built_digest, || {
            "ingest: the image loaded from disk differs from the one built".into()
        });
    }

    /// A plain, a latency-tracked and an observed run of each platform,
    /// back to back so slow phases of the host hit all three alike: the
    /// plain run is the base of the bookkeeping overheads.
    fn probe(&self, t: &mut Tracer) {
        let w = self.load(t, "core.diskcache.probe_load");
        for p in INGEST_PLATFORMS {
            t.span("platforms.engine.run", p.name(), || {
                ingest_run(&w, p, false)
            });
            t.span("platforms.lat.probe_run", p.name(), || {
                ingest_run(&w, p, true)
            });
            t.span("simkit.obs.probe_observed_run", p.name(), || {
                Experiment::new(&w).run_observed(p, OBS_SPANS)
            });
        }
    }
}

/// Folds a traced pass into the per-layer metrics: self times by span
/// name, the tally's exact counts, and the ratios derived from them.
/// `iteration_s` is the traced iteration's wall time and `untraced_s`
/// the untraced median it is compared with.
pub fn layers(
    kind: Kind,
    t: &Tracer,
    y: &Tally,
    iteration_s: f64,
    untraced_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|m| (m.name, 0.0)).collect();
    let selfs = t.self_secs_by_name();
    for (span, secs) in &selfs {
        if let Some(v) = out.get_mut(format!("{span}_s").as_str()) {
            *v = *secs;
        }
    }
    for (&key, &v) in &y.values {
        *out.get_mut(key)
            .unwrap_or_else(|| panic!("unlisted layer metric {key}")) = v;
    }
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let pct_over = |a: f64, b: f64| if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 };
    let engine_run = get("platforms.engine.run");

    if kind == Kind::Ingest {
        let built = get("graph.generate") + get("graph.features") + get("directgraph.encode");
        out.insert(
            "core.diskcache.save_s",
            get("core.diskcache.cold_prepare") - built,
        );
        out.insert(
            "platforms.lat.overhead_pct",
            pct_over(get("platforms.lat.probe_run"), engine_run),
        );
        out.insert(
            "simkit.obs.overhead_pct",
            pct_over(get("simkit.obs.probe_observed_run"), engine_run),
        );
    }
    if kind == Kind::Platforms {
        let full = get("flash.probe.full_run");
        let sampler = full - get("platforms.engine.replay");
        out.insert("flash.sampler_s", sampler);
        out.insert("flash.sampler_share", ratio(sampler, full));
    }
    let drain = match kind {
        Kind::Sweep => get("core.replay.cell_replay"),
        Kind::Platforms => engine_run,
        _ => 0.0,
    };
    out.insert(
        "platforms.engine.ns_per_event",
        ratio(drain * 1e9, out["platforms.engine.events"]),
    );
    if kind == Kind::Sweep {
        let cells = y.cell_secs.len() as f64;
        let reused = out["core.replay.hits"] + out["core.replay.memo_hits"];
        out.insert("core.replay.reuse_ratio", ratio(reused, cells));
    }
    if !y.cell_secs.is_empty() {
        let s = crate::stats::Summary::of(&y.cell_secs);
        out.insert("core.matrix.cell_p50_ms", s.median * 1e3);
        out.insert("core.matrix.cell_max_ms", s.max * 1e3);
    }
    if kind == Kind::Scaleout {
        let replay = get("platforms.array.replay");
        out.insert(
            "platforms.array.ns_per_event",
            ratio(replay * 1e9, out["platforms.array.events"]),
        );
        out.insert(
            "platforms.array.t2_speedup",
            ratio(
                get("platforms.array.probe_t1"),
                get("platforms.array.replay_t2"),
            ),
        );
        out.insert(
            "platforms.partition.lane_overhead",
            ratio(get("platforms.partition.probe_t1"), engine_run),
        );
    }
    out.insert("trace_overhead_pct", pct_over(iteration_s, untraced_s));
    out.insert("trace.coverage_pct", t.layer_coverage() * 100.0);
    out
}
