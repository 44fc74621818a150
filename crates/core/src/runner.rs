//! Experiment runner: platforms × workloads × device configs.

use beacon_platforms::{ArrayConfig, ArrayEngine, Platform, RunMetrics};
use beacon_ssd::SsdConfig;

use crate::matrix::RunCell;
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

    /// One platform's cell, with the workload borrowed.
    fn cell(&self, platform: Platform) -> RunCell<&'a Workload> {
        RunCell {
            platform,
            workload: self.workload,
            ssd: self.ssd,
            seed: self.seed,
            latency: None,
        }
    }

    /// Runs one platform end-to-end.
    ///
    /// The run is a one-cell plan on [`ReplayCache::global`], the same
    /// executor every [`RunMatrix`](crate::RunMatrix) uses: an identical
    /// earlier cell (same platform, device configuration, workload and
    /// seed) returns its memoized metrics, a workload whose cascade is
    /// already recorded replays it under this configuration, and
    /// anything else executes the full engine. All three paths are
    /// byte-identical (property-tested); set `BEACON_REPLAY=0` to force
    /// full execution.
    pub fn run(&self, platform: Platform) -> RunMetrics {
        let mut runs = ReplayCache::global().run(&[self.cell(platform)], 1);
        runs.pop().expect("one cell, one result")
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

    /// Runs one platform with the sim-time observability layer enabled:
    /// the returned metrics carry up to `span_capacity` spans (die
    /// sense, channel transfer, batch pipeline stages), the router
    /// mirror statistics (BG-2), and the FTL setup-replay statistics.
    ///
    /// Timing is identical to [`Experiment::run`]; observability is
    /// bookkeeping only. The run is always a direct engine run, never
    /// served by the replay cache.
    pub fn run_observed(&self, platform: Platform, span_capacity: usize) -> RunMetrics {
        self.cell(platform)
            .engine()
            .with_obs(span_capacity)
            .run(self.workload.batches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use beacon_graph::Partition;

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
        let array = exp
            .array_engine(Platform::Bg2, ArrayConfig::pcie_p2p(1))
            .run(&Partition::hash(w.graph(), 1), w.batches());
        assert_eq!(array.metrics.makespan, single.makespan);
        assert_eq!(array.metrics.flash_reads, single.flash_reads);
        assert!((array.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_array_shards_work_across_devices() {
        let w = small_workload();
        let exp = Experiment::new(&w);
        let single = exp.run(Platform::Bg2);
        let array = exp
            .array_engine(Platform::Bg2, ArrayConfig::pcie_p2p(4))
            .run(&Partition::hash(w.graph(), 4), w.batches());
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
