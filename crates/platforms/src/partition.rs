//! Partitioned per-channel event loops with conservative lookahead.
//!
//! [`PartitionedEngine`] runs one simulation as N independent event
//! loops — one *lane* per flash channel — instead of the single serial
//! calendar of [`Engine`](crate::Engine). BeaconGNN's BG-2 pipeline
//! makes this natural: with the hardware command router in control and
//! die-level sampling, a command's whole lifetime (router issue → die
//! sense → channel transfer → router parse) touches only the resources
//! of one channel; lanes interact solely when
//!
//! * a sampled child command targets a die on another channel (router
//!   crossbar forward), or
//! * a retrieved feature vector is staged in the shared SSD DRAM.
//!
//! Both interactions go through the lane runtime
//! [`simkit::sync::run_lanes`]: lanes advance in
//! bulk-synchronous rounds bounded by a shared horizon (the next
//! multiple of [`SsdConfig::router_epoch`] above the earliest pending
//! event), and everything that crosses a lane boundary is buffered as a
//! message, globally sorted by `(time, key)` with a deterministic
//! per-command key, and delivered at the round barrier.
//!
//! ## Semantics: a partition-count-invariant model, not a bit-replay
//! ## of the serial engine
//!
//! The partitioned model is its own timing semantics for BG-2:
//! cross-channel forwards and DRAM-staging completions are quantized to
//! epoch boundaries (the crossbar batches inter-channel traffic), and
//! same-instant ties are broken by the `(time, key)` order rather than
//! the serial engine's global insertion order. Those rules are a pure
//! function of the simulated configuration — **thread count and
//! partition count are invisible**, so any `threads(n)` produces
//! byte-identical output to `threads(1)`, which runs the identical
//! round protocol inline with no worker threads. The serial
//! [`Engine`](crate::Engine) remains untouched and bit-stable;
//! platforms whose spec keeps firmware, the host, or a hop barrier in
//! the control path (everything except BG-2) are not
//! channel-separable, and [`PartitionedEngine::new`] rejects them.
//!
//! The engine is timing-only: it records no spans and tracks no
//! per-query latency (the serial engine does both).
//!
//! Determinism argument, in full:
//!
//! 1. Within a round, a lane only reads lane-local state plus the
//!    shared horizon, so its event order is the serial order of its own
//!    calendar — independent of other lanes and of scheduling.
//! 2. The horizon is a pure function of the earliest pending event
//!    ([`EpochWindow::horizon_for`]), itself a minimum over lane-local
//!    values.
//! 3. Cross-lane messages are sorted by `(time, key)` before any is
//!    applied; keys (mini-batch slot × sampling-tree index) are unique,
//!    so the sorted order is total and worker interleaving cannot show.
//! 4. Shared resources (DRAM) are acquired only by the coordinator, in
//!    that sorted order.

use beacon_energy::EnergyLedger;
use beacon_flash::{DieSampler, GnnDieConfig, SampleCommand};
use beacon_gnn::GnnModelConfig;
use beacon_graph::NodeId;
use beacon_ssd::SsdConfig;
use directgraph::DirectGraph;
use simkit::obs::SpanRecorder;
use simkit::sync::{self, Deliveries, EpochWindow, MessagePool, Rounds};
use simkit::{BandwidthResource, Calendar, ChainTable, Duration, SerialResource, SimTime};

use crate::engine::{FlashServiceMemo, OutcomePool, ON_DIE_SAMPLE_TIME};
use crate::lane::{BatchBroadcast, LaneStats};
use crate::metrics::{RunMetrics, StageBreakdown};
use crate::pipeline::Pipeline;
use crate::spec::{Platform, PlatformSpec};

/// The deterministic identity of one sampling command: mini-batch slot
/// in the high 64 bits, position in that target's sampling tree in the
/// low 64. Unique per in-flight command, totally ordering same-instant
/// messages.
fn cmd_key(subgraph: u32, tree_index: u64) -> u128 {
    ((subgraph as u128) << 64) | tree_index as u128
}

/// A command inside a lane. `tree_index` is the node's position in its
/// target's sampling tree (root 0; child *i* of node *t* is
/// `t*(fanout+1) + i + 1`) — the root of the message key. The wrapping
/// arithmetic only matters for configurations absurdly deeper than the
/// paper's 2-hop/fanout-10 model, where key collisions would merely
/// perturb same-instant tie order, still deterministically.
#[derive(Debug, Clone, Copy)]
struct LCmd {
    sample: SampleCommand,
    tree_index: u64,
    /// Frontend arrival (lifetime start, for wait accounting).
    created: SimTime,
}

impl LCmd {
    fn key(&self) -> u128 {
        cmd_key(self.sample.subgraph, self.tree_index)
    }
}

/// Lane-local pipeline events. The lane pipeline collapses the serial
/// engine's generic step machinery to BG-2's fixed shape:
/// router issue (`Arrive`→`Die`), die sense + on-die sampling
/// (`Die`→`Xfer`), channel transfer (`Xfer`→`Done`, which carries the
/// trailing router parse), then either an inline finish or a
/// DRAM-staging round trip through the coordinator (`Finish`).
#[derive(Debug, Clone, Copy)]
enum LaneEvent {
    Arrive(LCmd),
    Die(LCmd),
    Xfer(LCmd, SimTime, u32),
    Done(LCmd, SimTime, Duration, u32),
    Finish(u32),
}

/// A command parked in the lane while its feature bytes cross the
/// shared DRAM (coordinator-side); resumed by a `Finish` delivery.
#[derive(Debug, Clone, Copy)]
struct Parked {
    cmd: LCmd,
    xfer_end: SimTime,
    chan_wait: Duration,
    oi: u32,
}

/// Cross-lane messages, carried in a [`MessagePool`] keyed by
/// `(time, cmd_key)`.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Stage `bytes` of features in shared DRAM; resume `parked` on
    /// `lane` when the transfer completes.
    DramReq { lane: u32, parked: u32, bytes: u64 },
    /// Router crossbar forward of a sampled child to another channel.
    Spawn {
        lane: u32,
        sample: SampleCommand,
        tree_index: u64,
    },
}

/// One channel's event loop: the channel bus, its dies and samplers, a
/// private calendar, and lane-local metric accumulators that merge in
/// fixed lane order after the run.
struct ChannelLane<'a> {
    channel: usize,
    ssd: SsdConfig,
    dg: &'a DirectGraph,
    /// `fanout + 1`, the tree-index radix.
    radix: u64,

    dies: Vec<SerialResource>,
    chan: SerialResource,
    samplers: Vec<DieSampler>,
    calendar: Calendar<LaneEvent>,
    /// Memoized flash service times (shared formulae with the serial
    /// engine; one table per lane is cheap and keeps lanes `Send`).
    memo: FlashServiceMemo,
    outcomes: OutcomePool,
    parked: Vec<Parked>,
    parked_free: Vec<u32>,
    outbox: MessagePool<Msg>,

    stats: LaneStats,
}

impl<'a> ChannelLane<'a> {
    fn new(
        channel: usize,
        ssd: SsdConfig,
        die_cfg: GnnDieConfig,
        dg: &'a DirectGraph,
        seed: u64,
        hops: usize,
    ) -> Self {
        let geo = &ssd.geometry;
        // Samplers draw from command content, not die identity, so all
        // dies share the run seed and the cascade is partition-invariant.
        let samplers = (0..geo.dies_per_channel)
            .map(|_| DieSampler::new(die_cfg, seed))
            .collect();
        ChannelLane {
            channel,
            dg,
            radix: die_cfg.fanout as u64 + 1,
            dies: vec![SerialResource::new(); geo.dies_per_channel],
            chan: SerialResource::new(),
            samplers,
            calendar: Calendar::new(),
            memo: FlashServiceMemo::new(ssd.timing, ON_DIE_SAMPLE_TIME, geo.page_size),
            outcomes: OutcomePool::default(),
            parked: Vec::new(),
            parked_free: Vec::new(),
            outbox: MessagePool::new(),
            stats: LaneStats::new(hops),
            ssd,
        }
    }

    /// Global die index of a command's target page.
    fn die_of(&self, sample: &SampleCommand) -> usize {
        let (page, _) = self.dg.layout().unpack(sample.target);
        self.ssd.geometry.die_of(page).index()
    }

    fn on_arrive(&mut self, cmd: LCmd, now: SimTime) {
        self.stats.hop_started(cmd.sample.hop, now);
        self.stats.router_cmds += 1;
        self.calendar
            .schedule(now + self.ssd.router_latency, LaneEvent::Die(cmd));
    }

    fn on_die(&mut self, cmd: LCmd, now: SimTime) {
        let die = self.die_of(&cmd.sample);
        let local = die / self.ssd.geometry.channels;
        let grant = self.dies[local].acquire(now, self.memo.die_service);
        self.stats.die_timeline.push(die, grant.start, grant.end);
        self.stats.flash_reads += 1;
        let oi = self.outcomes.acquire();
        if self.samplers[local]
            .execute_into(
                &cmd.sample,
                self.dg.image(),
                &mut self.outcomes.slots[oi as usize],
            )
            .is_err()
        {
            self.stats.sampler_faults += 1;
        }
        self.stats
            .cmd_breakdown
            .wait_before_flash
            .record_duration(grant.start.saturating_duration_since(cmd.created));
        self.calendar
            .schedule(grant.end, LaneEvent::Xfer(cmd, grant.start, oi));
    }

    fn on_xfer(&mut self, cmd: LCmd, die_start: SimTime, oi: u32, now: SimTime) {
        let bytes = self.outcomes.get(oi).result_bytes() as u64;
        let service = self.memo.xfer_service(bytes);
        let grant = self.chan.acquire(now, service);
        self.stats
            .channel_timeline
            .push(self.channel, grant.start, grant.end);
        self.stats.channel_bytes += bytes;
        let chan_wait = grant.start.saturating_duration_since(now);
        self.stats
            .cmd_breakdown
            .flash
            .record_duration((now - die_start) + (grant.end - grant.start));
        // Trailing router parse is a fixed, contention-free hop.
        self.calendar.schedule(
            grant.end + self.ssd.router_latency,
            LaneEvent::Done(cmd, grant.end, chan_wait, oi),
        );
    }

    fn on_done(
        &mut self,
        cmd: LCmd,
        xfer_end: SimTime,
        chan_wait: Duration,
        oi: u32,
        now: SimTime,
    ) {
        let fb = self.outcomes.get(oi).feature_bytes as u64;
        if fb > 0 && !self.ssd.dram_bypass {
            let slot = match self.parked_free.pop() {
                Some(s) => {
                    self.parked[s as usize] = Parked {
                        cmd,
                        xfer_end,
                        chan_wait,
                        oi,
                    };
                    s
                }
                None => {
                    let s = u32::try_from(self.parked.len()).expect("parked overflow");
                    self.parked.push(Parked {
                        cmd,
                        xfer_end,
                        chan_wait,
                        oi,
                    });
                    s
                }
            };
            self.outbox.push(
                now,
                cmd.key(),
                Msg::DramReq {
                    lane: self.channel as u32,
                    parked: slot,
                    bytes: fb,
                },
            );
        } else {
            self.finish(cmd, xfer_end, chan_wait, oi, now);
        }
    }

    fn on_finish(&mut self, slot: u32, now: SimTime) {
        let p = self.parked[slot as usize];
        self.parked_free.push(slot);
        self.finish(p.cmd, p.xfer_end, p.chan_wait, p.oi, now);
    }

    fn finish(&mut self, cmd: LCmd, xfer_end: SimTime, chan_wait: Duration, oi: u32, now: SimTime) {
        self.stats
            .cmd_breakdown
            .wait_after_flash
            .record_duration(chan_wait + now.saturating_duration_since(xfer_end));
        self.stats.hop_retired(cmd.sample.hop, now);
        if self.outcomes.get(oi).visited.is_some() {
            self.stats.nodes_visited += 1;
        }
        let channels = self.ssd.geometry.channels;
        for i in 0..self.outcomes.get(oi).new_commands.len() {
            let child = self.outcomes.get(oi).new_commands[i];
            let ti = cmd
                .tree_index
                .wrapping_mul(self.radix)
                .wrapping_add(i as u64 + 1);
            let lane = self.die_of(&child) % channels;
            if lane == self.channel {
                self.calendar.schedule(
                    now,
                    LaneEvent::Arrive(LCmd {
                        sample: child,
                        tree_index: ti,
                        created: now,
                    }),
                );
            } else {
                self.outbox.push(
                    now,
                    cmd_key(child.subgraph, ti),
                    Msg::Spawn {
                        lane: lane as u32,
                        sample: child,
                        tree_index: ti,
                    },
                );
            }
        }
        self.outcomes.release(oi);
        self.stats.prep_end = self.stats.prep_end.max(now);
    }
}

impl sync::Lane for ChannelLane<'_> {
    type Delivery = LaneEvent;
    type Msg = Msg;
    type Broadcast = BatchBroadcast;

    fn deliver(&mut self, at: SimTime, ev: LaneEvent) {
        self.calendar.schedule(at, ev);
    }

    fn drain(&mut self, horizon: SimTime, batch: BatchBroadcast) {
        self.stats.record_hops = batch.record_hops;
        while self.calendar.peek_time().is_some_and(|t| t < horizon) {
            let (now, ev) = self.calendar.pop().expect("peeked event");
            self.stats.pools.events_processed += 1;
            match ev {
                LaneEvent::Arrive(cmd) => self.on_arrive(cmd, now),
                LaneEvent::Die(cmd) => self.on_die(cmd, now),
                LaneEvent::Xfer(cmd, die_start, oi) => self.on_xfer(cmd, die_start, oi, now),
                LaneEvent::Done(cmd, xfer_end, chan_wait, oi) => {
                    self.on_done(cmd, xfer_end, chan_wait, oi, now)
                }
                LaneEvent::Finish(p) => self.on_finish(p, now),
            }
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    fn prep_end(&self) -> SimTime {
        self.stats.prep_end
    }

    fn outbox(&mut self) -> &mut MessagePool<Msg> {
        &mut self.outbox
    }
}

/// Coordinator-side state: the shared DRAM lanes may not touch, plus
/// the §VI-D batch pipeline.
struct Coordinator {
    dram: BandwidthResource,
    energy: EnergyLedger,
    pipe: Pipeline,
}

impl Coordinator {
    /// Applies one cross-lane message; the runtime hands them over in
    /// globally sorted `(time, key)` order, so DRAM grants are issued
    /// in that order. Completions and crossbar forwards are quantized
    /// to epoch boundaries and posted to the target lane.
    fn apply(&mut self, at: SimTime, msg: Msg, out: &mut Deliveries<'_, LaneEvent>) {
        match msg {
            Msg::DramReq {
                lane,
                parked,
                bytes,
            } => {
                let grant = self.dram.transfer(at, bytes);
                self.energy.dram_bytes += bytes;
                // A completion may not land in a drained epoch: post it
                // at the horizon at the earliest.
                let deliver_at = grant.end.max(out.horizon());
                out.post(lane as usize, deliver_at, LaneEvent::Finish(parked));
            }
            Msg::Spawn {
                lane,
                sample,
                tree_index,
            } => {
                let arrive = out.window().next_boundary(at);
                let cmd = LCmd {
                    sample,
                    tree_index,
                    created: arrive,
                };
                out.post(lane as usize, arrive, LaneEvent::Arrive(cmd));
            }
        }
    }
}

/// The partitioned BG-2 engine. Construct like [`Engine`](crate::Engine),
/// pick a worker-thread count, and [`run`](PartitionedEngine::run):
///
/// ```
/// use beacon_graph::{generate, FeatureTable, NodeId};
/// use beacon_gnn::GnnModelConfig;
/// use beacon_platforms::{PartitionedEngine, Platform};
/// use beacon_ssd::SsdConfig;
/// use directgraph::{build::DirectGraphBuilder, AddrLayout};
///
/// let cfg = generate::PowerLawConfig::new(1_000, 20.0);
/// let graph = generate::power_law(&cfg, 1);
/// let feats = FeatureTable::synthetic(1_000, 64, 1);
/// let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
///     .build(&graph, &feats).unwrap();
///
/// let model = GnnModelConfig::paper_default(64);
/// let batch: Vec<NodeId> = (0..8).map(NodeId::new).collect();
/// let serial = PartitionedEngine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 42)
///     .run(&[batch.clone()]);
/// let parallel = PartitionedEngine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 42)
///     .threads(4)
///     .run(&[batch]);
/// assert_eq!(serial.makespan, parallel.makespan);
/// assert_eq!(serial.nodes_visited, parallel.nodes_visited);
/// ```
pub struct PartitionedEngine<'a> {
    platform: Platform,
    ssd: SsdConfig,
    model: GnnModelConfig,
    dg: &'a DirectGraph,
    seed: u64,
    threads: usize,
}

impl<'a> PartitionedEngine<'a> {
    /// Creates a partitioned engine (one worker thread — the serial
    /// round protocol — until [`threads`](Self::threads) raises it).
    ///
    /// # Panics
    ///
    /// Panics if the platform is not channel-separable (only BG-2's
    /// pipeline decomposes into independent channel lanes), or if the
    /// SSD geometry's page size differs from the DirectGraph layout's
    /// (same contract as [`Engine::new`](crate::Engine::new)).
    pub fn new(
        platform: Platform,
        ssd: SsdConfig,
        model: GnnModelConfig,
        dg: &'a DirectGraph,
        seed: u64,
    ) -> Self {
        assert!(
            platform.spec().channel_separable(),
            "partitioned runs require a channel-separable platform (BG-2)"
        );
        assert_eq!(
            ssd.geometry.page_size,
            dg.layout().page_size(),
            "SSD geometry and DirectGraph layout disagree on page size"
        );
        PartitionedEngine {
            platform,
            ssd,
            model,
            dg,
            seed,
            threads: 1,
        }
    }

    /// Sets the worker-thread count. Output is byte-identical at any
    /// value; values above the channel count are clamped, and below 2
    /// the round protocol runs inline with no threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the workload under the round protocol.
    pub fn run(self, batches: &[Vec<NodeId>]) -> RunMetrics {
        let spec = self.platform.spec();
        let lanes_n = self.ssd.geometry.channels;
        let die_cfg = GnnDieConfig {
            num_hops: self.model.hops,
            fanout: self.model.fanout,
            feature_bytes: self.model.feature_bytes() as u16,
        };
        let hops = self.model.hops as usize + 2;
        let mut lanes: Vec<ChannelLane<'a>> = (0..lanes_n)
            .map(|c| ChannelLane::new(c, self.ssd, die_cfg, self.dg, self.seed, hops))
            .collect();
        let mut coord = Coordinator {
            dram: BandwidthResource::new(self.ssd.dram_bandwidth),
            energy: EnergyLedger::new(),
            pipe: Pipeline::new(&spec, self.model, &self.ssd, 1, None),
        };

        let window = EpochWindow::new(self.ssd.router_epoch);
        sync::run_lanes(&mut lanes, window, self.threads, |rounds| {
            self.run_batches(rounds, &mut coord, batches)
        });
        self.merge(&spec, coord, lanes)
    }

    /// Runs each batch's preparation as a round loop between the
    /// pipeline's open and close.
    fn run_batches(
        &self,
        rounds: &mut Rounds<'_, ChannelLane<'a>>,
        coord: &mut Coordinator,
        batches: &[Vec<NodeId>],
    ) {
        for (bi, batch) in batches.iter().enumerate() {
            rounds.broadcast(BatchBroadcast {
                record_hops: bi == 0,
            });
            let (_, start) = coord.pipe.open(batch.len(), &mut coord.energy);
            let channels = self.ssd.geometry.channels;
            for (slot, &target) in batch.iter().enumerate() {
                let addr = self
                    .dg
                    .directory()
                    .primary_addr(target)
                    .expect("target node in DirectGraph directory");
                let sample = SampleCommand::root(addr, slot as u32);
                let (page, _) = self.dg.layout().unpack(sample.target);
                let lane = self.ssd.geometry.die_of(page).index() % channels;
                let cmd = LCmd {
                    sample,
                    tree_index: 0,
                    created: start,
                };
                rounds.post(lane, start, LaneEvent::Arrive(cmd));
            }
            rounds.run_until_idle(start, |at, msg, out| coord.apply(at, msg, out));
            let prep_end = rounds.prep_end().max(start);
            let work = [(0, batch.len() as u64, SimTime::ZERO)];
            let mut obs = SpanRecorder::disabled();
            let c = &mut *coord;
            c.pipe.close(prep_end, work, None, &mut c.energy, &mut obs);
        }
    }

    /// Folds lane-local accumulators (in fixed channel order) and the
    /// coordinator into one [`RunMetrics`].
    fn merge(
        &self,
        spec: &PlatformSpec,
        coord: Coordinator,
        mut lanes: Vec<ChannelLane<'a>>,
    ) -> RunMetrics {
        let mut totals = LaneStats::new(self.model.hops as usize + 2);
        let mut sampler_executed = 0u64;
        for lane in &mut lanes {
            let chans = std::slice::from_ref(&lane.chan);
            let stats = &mut lane.stats;
            stats.seal(lane.calendar.pool_stats(), &lane.dies, chans);
            stats.pools.outcome_slots_allocated = lane.outcomes.allocated;
            stats.pools.outcome_slots_reused = lane.outcomes.reused;
            totals.absorb(stats);
            sampler_executed += lane.samplers.iter().map(DieSampler::executed).sum::<u64>();
        }
        let mut energy = coord.energy;
        totals.charge_energy(&mut energy);
        let run = coord.pipe.finish(
            &energy,
            &ChainTable::default(),
            &totals.die_timeline,
            &totals.channel_timeline,
        );

        let stages = StageBreakdown {
            flash_read: totals.flash_busy,
            channel: totals.channel_busy,
            firmware: Duration::ZERO,
            dram: coord.dram.busy_total(),
            pcie: Duration::ZERO,
            host: Duration::ZERO,
            accel: run.compute_time,
        };

        RunMetrics {
            platform: spec.name,
            nodes_visited: totals.nodes_visited,
            flash_reads: totals.flash_reads,
            sampler_faults: totals.sampler_faults,
            hop_windows: totals.hop_windows(),
            cmd_breakdown: totals.cmd_breakdown,
            stages,
            energy,
            total_dies: self.ssd.geometry.total_dies(),
            total_channels: self.ssd.geometry.channels,
            pools: totals.pools,
            spans: SpanRecorder::disabled(),
            sampler_executed,
            router: None,
            ftl: None,
            ..run
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use beacon_graph::{generate, FeatureTable};
    use directgraph::{build::DirectGraphBuilder, AddrLayout};

    fn make_dg(n: usize, deg: f64, feat: usize) -> DirectGraph {
        let cfg = generate::PowerLawConfig::new(n, deg);
        let graph = generate::power_law(&cfg, 7);
        let features = FeatureTable::synthetic(n, feat, 7);
        DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &features)
            .unwrap()
    }

    fn batches(n: usize, size: usize, nodes: u32) -> Vec<Vec<NodeId>> {
        (0..n)
            .map(|b| {
                (0..size)
                    .map(|i| NodeId::new(((b * size + i) % nodes as usize) as u32))
                    .collect()
            })
            .collect()
    }

    fn digest(m: &RunMetrics) -> String {
        m.metrics_registry().to_json_string()
    }

    #[test]
    fn thread_count_is_invisible() {
        let dg = make_dg(2_000, 25.0, 128);
        let model = GnnModelConfig::paper_default(128);
        let ssd = SsdConfig::paper_default();
        let b = batches(2, 48, 2_000);
        let reference = digest(&PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, 42).run(&b));
        for threads in [2, 4, 8, 32] {
            let m = PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, 42)
                .threads(threads)
                .run(&b);
            assert_eq!(digest(&m), reference, "threads={threads}");
        }
    }

    #[test]
    fn partitioned_tracks_serial_engine_closely() {
        // The partitioned model quantizes cross-channel forwards and
        // DRAM completions to epoch boundaries, so it is not bit-equal
        // to the serial engine — but it must stay a faithful model:
        // identical work counts, and makespan within a few percent.
        let dg = make_dg(3_000, 30.0, 200);
        let model = GnnModelConfig::paper_default(200);
        let ssd = SsdConfig::paper_default();
        let b = batches(2, 64, 3_000);
        let serial = Engine::new(Platform::Bg2, ssd, model, &dg, 42).run(&b);
        let part = PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, 42).run(&b);
        assert_eq!(part.targets, serial.targets);
        assert_eq!(part.flash_reads, serial.flash_reads);
        assert_eq!(part.nodes_visited, serial.nodes_visited);
        assert_eq!(part.energy.channel_bytes, serial.energy.channel_bytes);
        assert_eq!(part.energy.router_cmds, serial.energy.router_cmds);
        let ratio = part.makespan.as_ns() as f64 / serial.makespan.as_ns() as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "partitioned makespan drifted {ratio:.4}x from serial"
        );
    }

    /// Channel separability is what [`PartitionedEngine::new`] asserts,
    /// and only BG-2 has it.
    #[test]
    fn only_bg2_is_partitionable() {
        let partitionable: Vec<Platform> = Platform::ALL
            .into_iter()
            .filter(|p| p.spec().channel_separable())
            .collect();
        assert_eq!(partitionable, vec![Platform::Bg2]);
    }

    /// Any other platform (BG-1, the firmware path, here) is rejected at
    /// construction.
    #[test]
    #[should_panic(expected = "channel-separable")]
    fn non_bg2_platforms_are_rejected() {
        let dg = make_dg(800, 15.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let _ = PartitionedEngine::new(Platform::Bg1, SsdConfig::paper_default(), model, &dg, 7);
    }

    #[test]
    fn single_channel_geometry_still_runs() {
        let dg = make_dg(800, 15.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default().with_channels(1);
        let b = batches(1, 8, 800);
        let a = PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, 3).run(&b);
        let c = PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, 3)
            .threads(4)
            .run(&b);
        assert!(a.makespan > Duration::ZERO);
        assert_eq!(digest(&a), digest(&c));
    }

    #[test]
    fn epoch_window_shifts_timing_but_not_work() {
        let dg = make_dg(1_500, 20.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let b = batches(1, 32, 1_500);
        let fine = PartitionedEngine::new(
            Platform::Bg2,
            SsdConfig::paper_default().with_router_epoch(Duration::from_ns(100)),
            model,
            &dg,
            9,
        )
        .run(&b);
        let coarse = PartitionedEngine::new(
            Platform::Bg2,
            SsdConfig::paper_default().with_router_epoch(Duration::from_us(5)),
            model,
            &dg,
            9,
        )
        .run(&b);
        assert_eq!(fine.flash_reads, coarse.flash_reads);
        assert_eq!(fine.nodes_visited, coarse.nodes_visited);
        // Coarser batching can only delay cross-channel work.
        assert!(coarse.makespan >= fine.makespan);
    }
}
