//! Experiment runner: platforms × workloads × device configs.

use beacon_graph::Partition;
use beacon_platforms::{
    ArrayConfig, ArrayEngine, ArrayRunMetrics, Engine, PartitionedEngine, Platform, RunMetrics,
};
use beacon_ssd::SsdConfig;

use crate::replaycache::ReplayCache;
use crate::workload::Workload;

/// Runs platforms on a prepared workload under a device configuration.
///
/// # Examples
///
/// ```
/// use beacongnn::{Experiment, Platform, Workload};
///
/// let w = Workload::builder().nodes(800).batch_size(8).batches(1).prepare()?;
/// let metrics = Experiment::new(&w).run(Platform::Bg1);
/// assert_eq!(metrics.platform, "BG-1");
/// # Ok::<(), beacongnn::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Experiment<'a> {
    workload: &'a Workload,
    ssd: SsdConfig,
    seed: u64,
}

impl<'a> Experiment<'a> {
    /// Creates an experiment over `workload` with the paper-default SSD,
    /// matched to the workload's page size.
    pub fn new(workload: &'a Workload) -> Self {
        let ssd =
            SsdConfig::paper_default().with_page_size(workload.directgraph().layout().page_size());
        Experiment {
            workload,
            ssd,
            seed: workload.seed(),
        }
    }

    /// Overrides the device configuration (sensitivity sweeps). The
    /// page size is forced to match the workload's DirectGraph layout.
    pub fn ssd(mut self, ssd: SsdConfig) -> Self {
        self.ssd = ssd.with_page_size(self.workload.directgraph().layout().page_size());
        self
    }

    /// Overrides the simulation seed (die TRNG streams).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The device configuration in effect.
    pub fn config(&self) -> SsdConfig {
        self.ssd
    }

    /// Runs one platform end-to-end.
    ///
    /// The run is served through [`ReplayCache::global`]: an identical
    /// earlier run (same platform, device configuration, workload and
    /// seed — whether from an [`Experiment`] or a matrix cell) returns
    /// its memoized metrics, a workload whose cascade is already
    /// recorded replays it under this configuration, and anything else
    /// executes the full engine. All three paths are byte-identical
    /// (property-tested); set `BEACON_REPLAY=0` to force full
    /// execution.
    pub fn run(&self, platform: Platform) -> RunMetrics {
        ReplayCache::global().run_single(platform, self.ssd, self.workload, self.seed)
    }

    /// Runs one platform on the partitioned per-channel engine with
    /// `threads` worker threads (see
    /// [`PartitionedEngine`](beacon_platforms::PartitionedEngine)).
    /// Results are byte-identical at any thread count; platforms whose
    /// pipeline is not channel-separable (everything except BG-2) fall
    /// back to the serial engine and match [`Experiment::run`] exactly.
    pub fn run_partitioned(&self, platform: Platform, threads: usize) -> RunMetrics {
        PartitionedEngine::new(
            platform,
            self.ssd,
            self.workload.model(),
            self.workload.directgraph(),
            self.seed,
        )
        .threads(threads)
        .run(self.workload.batches())
    }

    /// Builds the multi-SSD array engine for one platform (see
    /// [`ArrayEngine`]): the graph shards across `array.ssds` devices
    /// and cross-partition expansions ride the configured fabric. Use
    /// [`ArrayEngine::record`] + [`ArrayEngine::run_recorded`] to reuse
    /// one recorded cascade across device counts, partitions, fabrics
    /// and thread counts.
    pub fn array_engine(&self, platform: Platform, array: ArrayConfig) -> ArrayEngine<'a> {
        ArrayEngine::new(
            platform,
            array,
            self.ssd,
            self.workload.model(),
            self.workload.directgraph(),
            self.seed,
        )
    }

    /// Records and replays one platform on a multi-SSD array in a
    /// single call: the workload's target batches route to the devices
    /// owning them under `partition`, device lanes replay in parallel
    /// on `threads` workers, and the report is byte-identical at any
    /// thread count.
    pub fn run_array(
        &self,
        platform: Platform,
        array: ArrayConfig,
        threads: usize,
        partition: &Partition,
    ) -> ArrayRunMetrics {
        self.array_engine(platform, array)
            .threads(threads)
            .run(partition, self.workload.batches())
    }

    /// Runs one platform with the sim-time observability layer enabled:
    /// the returned metrics carry up to `span_capacity` spans (die
    /// sense, channel transfer, batch pipeline stages), the router
    /// mirror statistics (BG-2), and the FTL setup-replay statistics.
    ///
    /// Timing is identical to [`Experiment::run`]; observability is
    /// bookkeeping only.
    pub fn run_observed(&self, platform: Platform, span_capacity: usize) -> RunMetrics {
        Engine::new(
            platform,
            self.ssd,
            self.workload.model(),
            self.workload.directgraph(),
            self.seed,
        )
        .with_obs(span_capacity)
        .run(self.workload.batches())
    }

    /// Runs one platform with per-query latency tracking enabled: the
    /// returned metrics carry the streaming latency histogram, tail
    /// percentiles and per-query critical-path stage attribution (the
    /// `latency` and `latency_breakdown` registry sections), with
    /// per-window percentile rows every `epoch` of sim time.
    ///
    /// Timing is identical to [`Experiment::run`]; latency tracking is
    /// bookkeeping only. The run is served through
    /// [`ReplayCache::global`] like [`Experiment::run`] — a cached
    /// cascade replays (byte-identical, property-tested) and identical
    /// latency runs are memoized under their own variant key, so a
    /// plain run's metrics (whose latency report is disabled) are never
    /// served here.
    pub fn run_latency(&self, platform: Platform, epoch: simkit::Duration) -> RunMetrics {
        ReplayCache::global().run_single_lat(platform, self.ssd, self.workload, self.seed, epoch)
    }

    /// Records this experiment's sampling cascade into the global
    /// replay cache (or loads a previously persisted recording), so
    /// that subsequent [`Experiment::run`] / [`Experiment::run_latency`]
    /// calls over the same workload and seed replay it instead of
    /// re-running the sampler. Returns whether a recording is
    /// available; `false` when replay is disabled or the workload has
    /// no fingerprint. Worth calling once before sweeping several
    /// platforms or device configurations over one workload.
    pub fn prime_replay(&self) -> bool {
        ReplayCache::global().prime_recording(self.workload, self.seed)
    }

    /// Runs several platforms and returns `(platform, metrics)` pairs.
    pub fn run_all(&self, platforms: &[Platform]) -> Vec<(Platform, RunMetrics)> {
        platforms.iter().map(|&p| (p, self.run(p))).collect()
    }

    /// Runs `platforms` and returns their throughputs normalized to the
    /// first entry (the paper normalizes to CC).
    pub fn normalized_throughput(&self, platforms: &[Platform]) -> Vec<(Platform, f64)> {
        let runs = self.run_all(platforms);
        let base = runs.first().map(|(_, m)| m.throughput()).unwrap_or(1.0);
        runs.into_iter()
            .map(|(p, m)| (p, m.throughput() / base))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn small_workload() -> Workload {
        Workload::builder()
            .nodes(1_000)
            .batch_size(16)
            .batches(1)
            .seed(3)
            .prepare()
            .unwrap()
    }

    #[test]
    fn run_produces_metrics() {
        let w = small_workload();
        let m = Experiment::new(&w).run(Platform::Bg2);
        assert_eq!(m.platform, "BG-2");
        assert_eq!(m.targets, 16);
        assert!(m.throughput() > 0.0);
    }

    #[test]
    fn normalized_throughput_base_is_one() {
        let w = small_workload();
        let norm = Experiment::new(&w).normalized_throughput(&[
            Platform::Cc,
            Platform::Bg1,
            Platform::Bg2,
        ]);
        assert_eq!(norm[0].1, 1.0);
        assert!(norm[2].1 > norm[0].1);
    }

    #[test]
    fn ssd_override_keeps_workload_page_size() {
        let w = small_workload();
        let exp = Experiment::new(&w).ssd(SsdConfig::paper_default().with_page_size(16384));
        assert_eq!(exp.config().geometry.page_size, 4096);
    }

    #[test]
    fn seed_statistics_are_tight() {
        // Sampling randomness should move throughput only slightly —
        // the workload shape, not the draw, determines performance.
        let w = small_workload();
        let samples: Vec<f64> = (0..4u64)
            .map(|i| {
                Experiment::new(&w)
                    .seed(w.seed() ^ (i << 13))
                    .run(Platform::Bg2)
                    .throughput()
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / 4.0;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 3.0;
        let cv = var.sqrt() / mean;
        assert!(mean > 0.0);
        assert!(cv < 0.15, "run-to-run CV {cv:.3} too high");
    }

    #[test]
    fn run_array_matches_serial_on_one_device() {
        let w = small_workload();
        let exp = Experiment::new(&w);
        let single = exp.run(Platform::Bg2);
        let array = exp.run_array(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(1),
            1,
            &Partition::hash(w.graph(), 1),
        );
        assert_eq!(array.metrics.makespan, single.makespan);
        assert_eq!(array.metrics.flash_reads, single.flash_reads);
        assert!((array.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_array_shards_work_across_devices() {
        let w = small_workload();
        let exp = Experiment::new(&w);
        let single = exp.run(Platform::Bg2);
        let array = exp.run_array(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(4),
            2,
            &Partition::hash(w.graph(), 4),
        );
        assert_eq!(array.devices, 4);
        assert_eq!(
            array.per_device.iter().map(|d| d.flash_reads).sum::<u64>(),
            single.flash_reads
        );
        assert!(array.cross_edges > 0);
    }

    #[test]
    fn sweeping_cores_changes_firmware_platforms_only() {
        let w = small_workload();
        let few = Experiment::new(&w)
            .ssd(SsdConfig::paper_default().with_cores(1))
            .run(Platform::Bg2);
        let many = Experiment::new(&w)
            .ssd(SsdConfig::paper_default().with_cores(8))
            .run(Platform::Bg2);
        // BG-2 removes firmware from the sampling path: core count must
        // not matter (Fig 18c).
        let ratio = many.throughput() / few.throughput();
        assert!(
            (0.95..=1.05).contains(&ratio),
            "BG-2 core sensitivity {ratio:.3}"
        );
    }
}
