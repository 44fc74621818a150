//! Run metrics: everything the paper's figures are drawn from.

use beacon_energy::EnergyLedger;
use beacon_ssd::{FtlStats, RouterStats};
use simkit::obs::{MetricsRegistry, SpanRecorder};
use simkit::stats::Summary;
use simkit::{Duration, LatencyReport, PoolStats, SimTime};

/// Per-command latency phases (paper Fig 17). Lifetime runs from when
/// the command's address is available at the frontend controller to when
/// its result is available there.
#[derive(Debug, Clone, Default)]
pub struct CmdBreakdown {
    /// Queueing before the die starts sensing.
    pub wait_before_flash: Summary,
    /// Die sense + on-die processing + channel transfer.
    pub flash: Summary,
    /// From transfer completion to result fully processed.
    pub wait_after_flash: Summary,
}

impl CmdBreakdown {
    /// Records one command's phase durations.
    pub fn record(&mut self, wait_before: Duration, flash: Duration, wait_after: Duration) {
        self.wait_before_flash.record_duration(wait_before);
        self.flash.record_duration(flash);
        self.wait_after_flash.record_duration(wait_after);
    }

    /// Mean total lifetime in nanoseconds (0 when empty).
    pub fn mean_lifetime_ns(&self) -> f64 {
        self.wait_before_flash.mean().unwrap_or(0.0)
            + self.flash.mean().unwrap_or(0.0)
            + self.wait_after_flash.mean().unwrap_or(0.0)
    }

    /// `(wait_before, flash, wait_after)` fractions of the mean
    /// lifetime.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.mean_lifetime_ns();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.wait_before_flash.mean().unwrap_or(0.0) / total,
            self.flash.mean().unwrap_or(0.0) / total,
            self.wait_after_flash.mean().unwrap_or(0.0) / total,
        )
    }
}

/// Busy time per resource class (paper Fig 15f's stage breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Flash die sense time.
    pub flash_read: Duration,
    /// Flash channel transfer time.
    pub channel: Duration,
    /// Embedded-core (firmware) busy time.
    pub firmware: Duration,
    /// SSD DRAM busy time.
    pub dram: Duration,
    /// PCIe busy time.
    pub pcie: Duration,
    /// Host CPU busy time.
    pub host: Duration,
    /// Accelerator busy time.
    pub accel: Duration,
}

/// One hop's activity window in the data-preparation stage (Fig 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopWindow {
    /// Hop id (0 = targets; `hops` = final feature retrieval).
    pub hop: u8,
    /// First command of this hop entering the backend.
    pub start: SimTime,
    /// Last command of this hop fully processed.
    pub end: SimTime,
}

impl HopWindow {
    /// Window length.
    pub fn span(&self) -> Duration {
        self.end - self.start
    }
}

/// Builds per-slice active-unit curves (Fig 15a–e) from unordered busy
/// intervals.
#[derive(Debug, Clone, Default)]
pub struct TimelineBuilder {
    intervals: Vec<(SimTime, SimTime)>,
    busy: Duration,
}

impl TimelineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one busy interval of one unit.
    ///
    /// Contiguous extensions of the most recent interval (the common
    /// case: back-to-back grants on a serially reused unit) are merged
    /// in place rather than appended, and the busy total is maintained
    /// incrementally so neither query re-walks the interval list.
    pub fn push(&mut self, start: SimTime, end: SimTime) {
        debug_assert!(start <= end);
        self.busy += end - start;
        if let Some(last) = self.intervals.last_mut() {
            if last.1 == start {
                last.1 = end;
                return;
            }
        }
        self.intervals.push((start, end));
    }

    /// Appends another builder's intervals in their recorded order —
    /// the merge step for per-partition timelines. The busy total is
    /// exact; interval boundaries follow the concatenated push order
    /// (contiguous merging applies only at the seam).
    pub fn absorb(&mut self, other: &TimelineBuilder) {
        for &(s, e) in &other.intervals {
            self.push(s, e);
        }
    }

    /// Total busy unit-time recorded.
    pub fn busy_total(&self) -> Duration {
        self.busy
    }

    /// Number of intervals recorded.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns `true` if no intervals were recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Produces the mean number of simultaneously busy units per
    /// `slice`-wide window over `[0, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is zero.
    pub fn curve(&self, slice: Duration, end: SimTime) -> Vec<f64> {
        assert!(!slice.is_zero(), "slice must be positive");
        let nslices = (end.as_ns()).div_ceil(slice.as_ns()).max(1) as usize;
        let mut acc = vec![0u64; nslices];
        for &(s, e) in &self.intervals {
            let mut t = s;
            let e = e.min(end);
            while t < e {
                let idx = (t.as_ns() / slice.as_ns()) as usize;
                let slice_end = SimTime::from_ns((idx as u64 + 1) * slice.as_ns()).min(e);
                if idx < nslices {
                    acc[idx] += (slice_end - t).as_ns();
                }
                t = slice_end;
            }
        }
        acc.into_iter()
            .map(|ns| ns as f64 / slice.as_ns() as f64)
            .collect()
    }

    /// Mean busy units over `[0, end]`.
    pub fn mean_active(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total().as_ns() as f64 / end.as_ns() as f64
    }
}

/// Concurrency counters of the engine's event calendar and outcome
/// pool (populated per run).
///
/// `*_allocated` is the run's peak number of entries in use at once
/// (pending events, live sample outcomes) and `*_reused` the schedules
/// or acquisitions beyond that peak. They describe the run's
/// concurrency demand, not how warm the executing worker's scratch
/// happened to be — so they are byte-identical at any worker count and
/// under record/replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Events dispatched by the engine's drain loop.
    pub events_processed: u64,
    /// Peak number of pending calendar events at once.
    pub event_slots_allocated: u64,
    /// Calendar schedules beyond that peak.
    pub event_slots_reused: u64,
    /// Peak sample-outcome slots in use.
    pub outcome_slots_allocated: u64,
    /// Sample-outcome acquisitions beyond that peak.
    pub outcome_slots_reused: u64,
    /// Peak number of pending events inside the watermark's aligned
    /// 8,192-ns window, excluding those at the watermark (max across
    /// lanes for lane runs). Diagnostic only — not part of the
    /// serialized metrics registry.
    pub calendar_wheel_high_water: u64,
    /// Peak number of pending events beyond that window (max across
    /// lanes for lane runs). Diagnostic only — not part of the
    /// serialized metrics registry.
    pub calendar_far_high_water: u64,
}

impl PoolCounters {
    /// Fills the calendar fields from one run's calendar statistics.
    pub(crate) fn record_calendar(&mut self, cal: PoolStats) {
        self.event_slots_allocated = cal.live_high_water;
        self.event_slots_reused = cal.schedules - cal.live_high_water;
        self.calendar_wheel_high_water = cal.wheel_high_water;
        self.calendar_far_high_water = cal.far_high_water;
    }
}

/// Sustained occupancy of the accelerator arrays over the compute
/// window: delivered work (MACs / reduce ops) divided by the array's
/// peak capacity over the total compute time. Both are in `[0, 1]` and
/// include the time the *other* array holds the pipeline, so they read
/// as "fraction of the compute window this array did useful work".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccelOccupancy {
    /// Systolic (GEMM) array occupancy.
    pub systolic: f64,
    /// Vector (aggregation) array occupancy.
    pub vector: f64,
}

impl AccelOccupancy {
    /// Sustained occupancy of `accel` over `compute` of total compute
    /// time, given the MACs and reduce ops `energy` delivered.
    pub fn sustained(
        accel: &beacon_accel::AcceleratorConfig,
        compute: Duration,
        energy: &EnergyLedger,
    ) -> Self {
        let cw = compute.as_secs_f64();
        let peak_macs =
            cw * accel.systolic.clock_hz() as f64 * accel.systolic.macs_per_cycle() as f64;
        let peak_reduce = cw * accel.vector.clock_hz() as f64 * accel.vector.lanes() as f64;
        let share = |work: u64, peak: f64| if peak > 0.0 { work as f64 / peak } else { 0.0 };
        AccelOccupancy {
            systolic: share(energy.macs, peak_macs),
            vector: share(energy.reduce_ops, peak_reduce),
        }
    }
}

/// The complete result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Platform display name.
    pub platform: &'static str,
    /// Target nodes processed.
    pub targets: u64,
    /// Mini-batches processed.
    pub batches: u64,
    /// Nodes visited during data preparation (subgraph vertices).
    pub nodes_visited: u64,
    /// Flash page reads issued.
    pub flash_reads: u64,
    /// Sampling commands aborted by the on-die §VI-E check (missing or
    /// malformed sections); their subtrees are dropped and control
    /// returns to firmware.
    pub sampler_faults: u64,
    /// End-to-end makespan (prep ∥ compute pipeline).
    pub makespan: Duration,
    /// Total data-preparation time (sum over batches).
    pub prep_time: Duration,
    /// Total computation time (sum over batches).
    pub compute_time: Duration,
    /// Per-command latency phases.
    pub cmd_breakdown: CmdBreakdown,
    /// Busy time per resource class.
    pub stages: StageBreakdown,
    /// Hop activity windows of the *first* batch (Fig 16 plots one
    /// batch's data preparation).
    pub hop_windows: Vec<HopWindow>,
    /// Die busy intervals (Fig 15 curves).
    pub die_timeline: TimelineBuilder,
    /// Channel busy intervals (Fig 15 curves).
    pub channel_timeline: TimelineBuilder,
    /// Raw energy quantities.
    pub energy: EnergyLedger,
    /// Die count of the simulated backend (for utilization fractions).
    pub total_dies: usize,
    /// Channel count of the simulated backend.
    pub total_channels: usize,
    /// Event/outcome pool recycling behaviour of this run.
    pub pools: PoolCounters,
    /// Observability spans (empty unless enabled via
    /// [`Engine::with_obs`](crate::Engine::with_obs); export with
    /// [`simkit::ChromeTraceWriter`]).
    pub spans: SpanRecorder,
    /// Sampling commands executed by the on-die samplers (sampler
    /// hits), summed over dies.
    pub sampler_executed: u64,
    /// Command-router traffic statistics, mirrored from the functional
    /// [`beacon_ssd::CommandRouter`] on hardware-router platforms when
    /// observability is enabled; `None` otherwise.
    pub router: Option<RouterStats>,
    /// FTL write/GC statistics from replaying the DirectGraph flush,
    /// collected only when observability is enabled; `None` otherwise.
    pub ftl: Option<FtlStats>,
    /// Accelerator array occupancy over the compute window.
    pub accel_occupancy: AccelOccupancy,
    /// Per-query latency report (disabled/empty unless enabled via
    /// [`Engine::with_latency`](crate::Engine::with_latency) or the
    /// partitioned/array equivalents).
    pub latency: LatencyReport,
}

impl RunMetrics {
    /// Throughput in target nodes per second.
    pub fn throughput(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.targets as f64 / self.makespan.as_secs_f64()
    }

    /// A one-paragraph human-readable summary of the run.
    pub fn summary(&self) -> String {
        let (wb, fl, wa) = self.cmd_breakdown.fractions();
        format!(
            "{}: {} targets in {} ({:.0} targets/s); prep {} ∥ compute {}; \
             {} flash reads over {} dies ({:.0}% busy) and {} channels ({:.0}% busy); \
             command lifetime {:.1}us (wait-before {:.0}% / flash {:.0}% / wait-after {:.0}%){}",
            self.platform,
            self.targets,
            self.makespan,
            self.throughput(),
            self.prep_time,
            self.compute_time,
            self.flash_reads,
            self.total_dies,
            self.die_utilization() * 100.0,
            self.total_channels,
            self.channel_utilization() * 100.0,
            self.cmd_breakdown.mean_lifetime_ns() / 1_000.0,
            wb * 100.0,
            fl * 100.0,
            wa * 100.0,
            if self.sampler_faults > 0 {
                format!("; {} sampler faults", self.sampler_faults)
            } else {
                String::new()
            },
        )
    }

    /// Snapshots the whole run into a [`MetricsRegistry`] — the
    /// structured per-run report behind `--metrics`.
    ///
    /// Section and field order is fixed; every value derives from the
    /// simulation alone (no wall-clock, no host identity), so two
    /// identical runs serialize byte-identically at any `--jobs`.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();

        let run = reg.section("run");
        run.set_u64("schema_version", 1);
        run.set_str("platform", self.platform);
        run.set_u64("targets", self.targets);
        run.set_u64("batches", self.batches);
        run.set_u64("nodes_visited", self.nodes_visited);
        run.set_u64("flash_reads", self.flash_reads);
        run.set_u64("sampler_executed", self.sampler_executed);
        run.set_u64("sampler_faults", self.sampler_faults);
        run.set_duration("makespan", self.makespan);
        run.set_duration("prep_time", self.prep_time);
        run.set_duration("compute_time", self.compute_time);
        run.set_f64("throughput_targets_per_s", self.throughput());

        let cmd = reg.section("command_breakdown");
        cmd.set_summary(
            "wait_before_flash_ns",
            &self.cmd_breakdown.wait_before_flash,
        );
        cmd.set_summary("flash_ns", &self.cmd_breakdown.flash);
        cmd.set_summary("wait_after_flash_ns", &self.cmd_breakdown.wait_after_flash);
        cmd.set_f64("mean_lifetime_ns", self.cmd_breakdown.mean_lifetime_ns());
        let (wb, fl, wa) = self.cmd_breakdown.fractions();
        cmd.set_f64("frac_wait_before", wb);
        cmd.set_f64("frac_flash", fl);
        cmd.set_f64("frac_wait_after", wa);

        let stages = reg.section("stages");
        stages.set_duration("flash_read", self.stages.flash_read);
        stages.set_duration("channel", self.stages.channel);
        stages.set_duration("firmware", self.stages.firmware);
        stages.set_duration("dram", self.stages.dram);
        stages.set_duration("pcie", self.stages.pcie);
        stages.set_duration("host", self.stages.host);
        stages.set_duration("accel", self.stages.accel);

        let du = self.die_utilization();
        let cu = self.channel_utilization();
        let dies = reg.section("die_utilization");
        dies.set_u64("total_dies", self.total_dies as u64);
        dies.set_u64("busy_ns", self.die_timeline.busy_total().as_ns());
        dies.set_u64("intervals", self.die_timeline.len() as u64);
        dies.set_f64("utilization", du);
        let chans = reg.section("channel_utilization");
        chans.set_u64("total_channels", self.total_channels as u64);
        chans.set_u64("busy_ns", self.channel_timeline.busy_total().as_ns());
        chans.set_u64("intervals", self.channel_timeline.len() as u64);
        chans.set_f64("utilization", cu);

        let hops = reg.section("hops");
        hops.set_u64("windows", self.hop_windows.len() as u64);
        for w in &self.hop_windows {
            hops.set_u64(&format!("hop{}_start_ns", w.hop), w.start.as_ns());
            hops.set_u64(&format!("hop{}_end_ns", w.hop), w.end.as_ns());
        }

        let router = reg.section("router");
        router.set_bool("present", self.router.is_some());
        self.router.unwrap_or_default().record_into(router);

        let ftl = reg.section("ftl");
        ftl.set_bool("present", self.ftl.is_some());
        self.ftl.unwrap_or_default().record_into(ftl);

        let accel = reg.section("accelerator");
        accel.set_f64("systolic_occupancy", self.accel_occupancy.systolic);
        accel.set_f64("vector_occupancy", self.accel_occupancy.vector);
        accel.set_u64("macs", self.energy.macs);
        accel.set_u64("reduce_ops", self.energy.reduce_ops);
        accel.set_duration("compute_time", self.compute_time);

        let energy = reg.section("energy");
        energy.set_u64("flash_page_reads", self.energy.flash_page_reads);
        energy.set_u64("channel_bytes", self.energy.channel_bytes);
        energy.set_u64("dram_bytes", self.energy.dram_bytes);
        energy.set_u64("pcie_bytes", self.energy.pcie_bytes);
        energy.set_duration("core_busy", self.energy.core_busy);
        energy.set_duration("host_cpu_busy", self.energy.host_cpu_busy);
        energy.set_u64("macs", self.energy.macs);
        energy.set_u64("reduce_ops", self.energy.reduce_ops);
        energy.set_u64("sampler_cmds", self.energy.sampler_cmds);
        energy.set_u64("router_cmds", self.energy.router_cmds);

        let pools = reg.section("pools");
        pools.set_u64("events_processed", self.pools.events_processed);
        pools.set_u64("event_slots_allocated", self.pools.event_slots_allocated);
        pools.set_u64("event_slots_reused", self.pools.event_slots_reused);
        pools.set_u64(
            "outcome_slots_allocated",
            self.pools.outcome_slots_allocated,
        );
        pools.set_u64("outcome_slots_reused", self.pools.outcome_slots_reused);

        let trace = reg.section("trace");
        trace.set_u64("spans", self.spans.len() as u64);
        trace.set_u64("spans_dropped", self.spans.dropped());

        // Per-query latency: tail percentiles and critical-path stage
        // totals. Rendered even when tracking was off (`enabled` tells
        // the two apart) so the report schema is shape-stable.
        let lat = reg.section("latency");
        self.latency.render_latency(lat);
        let lb = reg.section("latency_breakdown");
        self.latency.render_breakdown(lb);

        // The functional sampling cascade, as the record/replay layer
        // sees it. Every value here is *path-invariant*: a replayed run
        // reports exactly what its full-run twin would, so the section
        // never breaks replay byte-identity. (Cache hit/miss/fallback
        // counts are per cache, not per run — see `beacongnn::ReplayStats`.)
        let replay = reg.section("replay");
        replay.set_u64("cascade_commands", self.sampler_executed);
        replay.set_u64("cascade_roots", self.targets);
        replay.set_u64("cascade_faults", self.sampler_faults);
        replay.set_u64(
            "cascade_edges",
            self.nodes_visited.saturating_sub(self.targets),
        );

        reg
    }

    /// Mean die utilization over the prep window, in `[0, 1]`.
    pub fn die_utilization(&self) -> f64 {
        let end = SimTime::ZERO + self.prep_time;
        if self.total_dies == 0 || end == SimTime::ZERO {
            return 0.0;
        }
        self.die_timeline.mean_active(end) / self.total_dies as f64
    }

    /// Mean channel utilization over the prep window, in `[0, 1]`.
    pub fn channel_utilization(&self) -> f64 {
        let end = SimTime::ZERO + self.prep_time;
        if self.total_channels == 0 || end == SimTime::ZERO {
            return 0.0;
        }
        self.channel_timeline.mean_active(end) / self.total_channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cmd_breakdown_fractions_sum_to_one() {
        let mut b = CmdBreakdown::default();
        b.record(
            Duration::from_us(2),
            Duration::from_us(5),
            Duration::from_us(3),
        );
        b.record(
            Duration::from_us(4),
            Duration::from_us(5),
            Duration::from_us(1),
        );
        let (w, f, a) = b.fractions();
        assert!((w + f + a - 1.0).abs() < 1e-12);
        assert!((b.mean_lifetime_ns() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = CmdBreakdown::default();
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0));
        assert_eq!(b.mean_lifetime_ns(), 0.0);
    }

    #[test]
    fn timeline_curve_integrates_overlap() {
        let mut tl = TimelineBuilder::new();
        tl.push(SimTime::from_ns(0), SimTime::from_ns(10));
        tl.push(SimTime::from_ns(5), SimTime::from_ns(15));
        let curve = tl.curve(Duration::from_ns(10), SimTime::from_ns(20));
        assert_eq!(curve.len(), 2);
        assert!((curve[0] - 1.5).abs() < 1e-12); // 10 + 5 busy-ns / 10
        assert!((curve[1] - 0.5).abs() < 1e-12);
        assert_eq!(tl.busy_total(), Duration::from_ns(20));
        assert!((tl.mean_active(SimTime::from_ns(20)) - 1.0).abs() < 1e-12);
        assert_eq!(tl.len(), 2);
        assert!(!tl.is_empty());
    }

    proptest! {
        /// Slicing loses no busy time: for random intervals pushed into
        /// two builders, one absorbed into the other, the curve's sum
        /// times the slice width equals the busy total.
        #[test]
        fn timeline_integral_matches_busy_total(
            left in proptest::collection::vec((0u64..200, 1u64..100), 0..30),
            right in proptest::collection::vec((0u64..200, 1u64..100), 1..30),
            slice in 1u64..50,
        ) {
            let fill = |intervals: &[(u64, u64)]| {
                let mut tl = TimelineBuilder::new();
                for &(start, len) in intervals {
                    tl.push(SimTime::from_ns(start), SimTime::from_ns(start + len));
                }
                tl
            };
            let mut tl = fill(&left);
            tl.absorb(&fill(&right));
            let end = left.iter().chain(&right).map(|&(s, l)| s + l).max().unwrap();
            let curve = tl.curve(Duration::from_ns(slice), SimTime::from_ns(end));
            let integral = curve.iter().sum::<f64>() * slice as f64;
            let busy = tl.busy_total().as_ns() as f64;
            prop_assert!(
                (integral - busy).abs() < 1e-6 * busy.max(1.0),
                "integral {} vs busy total {}",
                integral,
                busy
            );
        }
    }

    #[test]
    fn hop_window_span() {
        let w = HopWindow {
            hop: 1,
            start: SimTime::from_ns(10),
            end: SimTime::from_ns(30),
        };
        assert_eq!(w.span(), Duration::from_ns(20));
    }
}
