//! Lane-side state shared by the two lane engines: the per-batch
//! broadcast and the metric accumulators that every lane keeps and the
//! merge folds in fixed lane order.
//!
//! [`PartitionedEngine`](crate::PartitionedEngine) (one lane per flash
//! channel) and [`ArrayEngine`](crate::ArrayEngine) (one lane per SSD)
//! both run on [`simkit::sync::run_lanes`]; this module is the part of
//! their lanes that is not engine-specific.

use beacon_energy::EnergyLedger;
use simkit::{Duration, PoolStats, SerialResource, SimTime};

use crate::metrics::{CmdBreakdown, HopWindow, PoolCounters, TimelineBuilder};

/// What the coordinator broadcasts to every lane once per batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchBroadcast {
    /// Record hop windows (the first batch only, as in the serial
    /// engine).
    pub record_hops: bool,
}

/// Metric accumulators of one lane, and — after [`absorb`](Self::absorb)
/// — of a whole lane set.
pub(crate) struct LaneStats {
    /// Whether [`hop_started`](Self::hop_started) /
    /// [`hop_retired`](Self::hop_retired) record this batch.
    pub record_hops: bool,
    hop_first: Vec<Option<SimTime>>,
    hop_last: Vec<Option<SimTime>>,
    pub cmd_breakdown: CmdBreakdown,
    pub die_timeline: TimelineBuilder,
    pub channel_timeline: TimelineBuilder,
    pub nodes_visited: u64,
    pub flash_reads: u64,
    pub sampler_faults: u64,
    pub router_cmds: u64,
    pub channel_bytes: u64,
    /// DRAM staging bytes the lane moved itself (array lanes own their
    /// device's DRAM; channel lanes leave staging to the coordinator).
    pub dram_bytes: u64,
    /// `events_processed` counts live; the calendar and outcome-pool
    /// fields are filled by [`seal`](Self::seal) and the engine.
    pub pools: PoolCounters,
    /// Die busy time (set by [`seal`](Self::seal)).
    pub flash_busy: Duration,
    /// Channel busy time (set by [`seal`](Self::seal)).
    pub channel_busy: Duration,
    /// Latest command retirement.
    pub prep_end: SimTime,
}

/// Widens `slot` by `t` with `pick` (`min` for a window start, `max`
/// for its end); `None` is the empty window.
fn widen(slot: &mut Option<SimTime>, t: Option<SimTime>, pick: fn(SimTime, SimTime) -> SimTime) {
    *slot = match (*slot, t) {
        (Some(a), Some(b)) => Some(pick(a, b)),
        (a, b) => a.or(b),
    };
}

impl LaneStats {
    /// Empty accumulators tracking `hops` hop windows.
    pub fn new(hops: usize) -> Self {
        LaneStats {
            record_hops: true,
            hop_first: vec![None; hops],
            hop_last: vec![None; hops],
            cmd_breakdown: CmdBreakdown::default(),
            die_timeline: TimelineBuilder::new(),
            channel_timeline: TimelineBuilder::new(),
            nodes_visited: 0,
            flash_reads: 0,
            sampler_faults: 0,
            router_cmds: 0,
            channel_bytes: 0,
            dram_bytes: 0,
            pools: PoolCounters::default(),
            flash_busy: Duration::ZERO,
            channel_busy: Duration::ZERO,
            prep_end: SimTime::ZERO,
        }
    }

    /// A command of `hop` entered the backend at `now`.
    pub fn hop_started(&mut self, hop: u8, now: SimTime) {
        if self.record_hops {
            widen(&mut self.hop_first[hop as usize], Some(now), SimTime::min);
        }
    }

    /// A command of `hop` retired at `now`.
    pub fn hop_retired(&mut self, hop: u8, now: SimTime) {
        if self.record_hops {
            widen(&mut self.hop_last[hop as usize], Some(now), SimTime::max);
        }
    }

    /// Records the end-of-run counters of the lane's calendar and its
    /// dies' and channels' busy totals.
    pub fn seal(&mut self, cal: PoolStats, dies: &[SerialResource], chans: &[SerialResource]) {
        self.pools.record_calendar(cal);
        self.flash_busy = dies.iter().map(SerialResource::busy_total).sum();
        self.channel_busy = chans.iter().map(SerialResource::busy_total).sum();
    }

    /// Folds one sealed lane into these totals. Call in fixed lane
    /// order: timelines concatenate and command summaries merge in
    /// that order.
    pub fn absorb(&mut self, lane: &LaneStats) {
        let cb = &mut self.cmd_breakdown;
        cb.wait_before_flash
            .merge(&lane.cmd_breakdown.wait_before_flash);
        cb.flash.merge(&lane.cmd_breakdown.flash);
        cb.wait_after_flash
            .merge(&lane.cmd_breakdown.wait_after_flash);
        self.die_timeline.absorb(&lane.die_timeline);
        self.channel_timeline.absorb(&lane.channel_timeline);
        for (mine, &theirs) in self.hop_first.iter_mut().zip(&lane.hop_first) {
            widen(mine, theirs, SimTime::min);
        }
        for (mine, &theirs) in self.hop_last.iter_mut().zip(&lane.hop_last) {
            widen(mine, theirs, SimTime::max);
        }
        self.nodes_visited += lane.nodes_visited;
        self.flash_reads += lane.flash_reads;
        self.sampler_faults += lane.sampler_faults;
        self.router_cmds += lane.router_cmds;
        self.channel_bytes += lane.channel_bytes;
        self.dram_bytes += lane.dram_bytes;
        let (p, q) = (&mut self.pools, &lane.pools);
        p.events_processed += q.events_processed;
        p.event_slots_allocated += q.event_slots_allocated;
        p.event_slots_reused += q.event_slots_reused;
        p.outcome_slots_allocated += q.outcome_slots_allocated;
        p.outcome_slots_reused += q.outcome_slots_reused;
        p.calendar_wheel_high_water = p.calendar_wheel_high_water.max(q.calendar_wheel_high_water);
        p.calendar_far_high_water = p.calendar_far_high_water.max(q.calendar_far_high_water);
        self.flash_busy += lane.flash_busy;
        self.channel_busy += lane.channel_busy;
    }

    /// The recorded hop activity windows, in hop order.
    pub fn hop_windows(&self) -> Vec<HopWindow> {
        self.hop_first
            .iter()
            .zip(&self.hop_last)
            .enumerate()
            .filter_map(|(h, (f, l))| {
                f.zip(*l).map(|(start, end)| HopWindow {
                    hop: h as u8,
                    start,
                    end,
                })
            })
            .collect()
    }

    /// Charges the backend work these stats count to `energy`.
    pub fn charge_energy(&self, energy: &mut EnergyLedger) {
        energy.flash_page_reads += self.flash_reads;
        energy.sampler_cmds += self.flash_reads;
        energy.router_cmds += self.router_cmds;
        energy.channel_bytes += self.channel_bytes;
        energy.dram_bytes += self.dram_bytes;
    }
}
