//! Computational storage arrays (paper §VIII, "practicality and future
//! proof").
//!
//! The paper expects BeaconGNN to scale out: multiple BeaconGNN SSDs in
//! an array, communicating over direct P2P links, with capacity and
//! compute growing linearly. [`ArrayEngine`] models that array as a
//! discrete-event multi-SSD simulation with one *device lane* per SSD,
//! advanced by the same lane runtime ([`simkit::sync::run_lanes`]) as
//! the per-channel [`PartitionedEngine`](crate::PartitionedEngine). The
//! partition-aware host router dispatches each mini-batch target to its
//! owning device, and cross-partition expansions ride the explicit
//! fabric cost model of [`FabricConfig`].
//!
//! ## Recorded-cascade replay
//!
//! The die samplers are stateful (each die's TRNG advances across
//! commands in execution order), so re-running sampling per device
//! would change the sampled subgraphs with the device count. Instead
//! the array simulation is a two-phase *record/replay*:
//!
//! 1. [`ArrayEngine::record`] runs the serial single-SSD engine once
//!    and logs the functional sampling cascade — every flash command
//!    with its content, die, transfer bytes, visited node and children
//!    ([`CascadeRecording`](crate::replay): one record per command,
//!    children consecutive, child index > parent index). The same
//!    recording type also drives [`Engine::replay_with`]'s single-SSD
//!    timing replay across the experiment matrix.
//! 2. [`ArrayEngine::run_recorded`] re-times that fixed command set on
//!    N devices. A prepass assigns every record an *owner* device (the
//!    partition of its visited node; secondary-section records inherit
//!    their parent's owner) and a *home* device (the owner of its root
//!    target, where aggregation happens). Each device lane replays its
//!    records through the BG-2 pipeline shape — router issue, die
//!    sense, channel transfer, router parse, DRAM staging — on its own
//!    full SSD backend. A child owned by another device becomes a
//!    fabric command hop; a feature retrieved away from its home device
//!    becomes a fabric feature return that gates the home device's
//!    compute start.
//!
//! Because the command set is fixed by the recording, per-device work
//! counts sum to the single-device engine's counts *by construction*,
//! and a 1-device array returns the serial engine's metrics verbatim.
//!
//! ## Determinism
//!
//! The lane runtime is the per-channel engine's, lifted from channels
//! to devices: lanes drain events strictly below a shared horizon (the
//! next multiple of the fabric hop latency — the minimum cross-device
//! delay — above the earliest pending event), and everything crossing a
//! device boundary is buffered, globally sorted by `(time, record
//! index)`, and applied by the coordinator alone: fabric link grants in
//! sorted order, deliveries quantized to the next window boundary.
//! Thread count is invisible; any [`threads`](ArrayEngine::threads)
//! value produces byte-identical reports.

use beacon_energy::EnergyLedger;
use beacon_gnn::GnnModelConfig;
use beacon_graph::{NodeId, Partition};
use beacon_ssd::{FabricConfig, SsdConfig};
use directgraph::DirectGraph;
use simkit::obs::SpanRecorder;
use simkit::sync::{self, Deliveries, EpochWindow, MessagePool, Rounds};
use simkit::{
    BandwidthResource, Calendar, ChainTable, Duration, PathArena, PathAttr, SerialResource,
    SimTime, Stage, NO_PATH,
};

use crate::engine::{Engine, EngineScratch, FlashServiceMemo, ON_DIE_SAMPLE_TIME};
use crate::lane::{BatchBroadcast, LaneStats};
use crate::metrics::{RunMetrics, StageBreakdown};
use crate::pipeline::Pipeline;
use crate::replay::{CascadeRec, CascadeRecording};
use crate::spec::Platform;

/// Bytes of one cross-device command hop (a forwarded sampling
/// command: packed address + hop/count/subgraph header).
const CMD_HOP_BYTES: u64 = 16;

/// Configuration of a BeaconGNN storage array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayConfig {
    /// SSDs in the array.
    pub ssds: usize,
    /// The inter-device fabric (per-link bandwidth + hop latency).
    pub fabric: FabricConfig,
}

impl ArrayConfig {
    /// A PCIe-P2P array of `ssds` devices at 4 GB/s per link.
    pub fn pcie_p2p(ssds: usize) -> Self {
        ArrayConfig {
            ssds,
            fabric: FabricConfig::pcie_p2p(),
        }
    }

    /// An NVMe-oF array of `ssds` devices (10 GB/s links, 5 µs hops).
    pub fn nvme_of(ssds: usize) -> Self {
        ArrayConfig {
            ssds,
            fabric: FabricConfig::nvme_of(),
        }
    }

    /// Replaces the fabric model.
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }
}

/// A recorded sampling cascade plus the serial single-SSD run that
/// produced it: the input to [`ArrayEngine::run_recorded`].
///
/// Recording depends only on the workload (platform, SSD, model, graph,
/// seed, batches) — not on the array size, fabric, or partition — so
/// one cascade can be replayed across a whole device-count × partition
/// × fabric sweep.
pub struct ArrayCascade {
    recording: CascadeRecording,
    single: RunMetrics,
    batches: Vec<Vec<NodeId>>,
}

impl ArrayCascade {
    /// The serial single-SSD run's metrics (the array's baseline).
    pub fn single_metrics(&self) -> &RunMetrics {
        &self.single
    }

    /// The shared cascade recording (also replayable through
    /// [`Engine::replay_with`](crate::Engine)).
    pub fn recording(&self) -> &CascadeRecording {
        &self.recording
    }

    /// Flash commands recorded.
    pub fn commands(&self) -> usize {
        self.recording.commands()
    }
}

/// Per-device work and busy-time counters of one array run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceMetrics {
    /// Device index.
    pub device: usize,
    /// Mini-batch targets homed on this device.
    pub targets: u64,
    /// Flash page reads this device served.
    pub flash_reads: u64,
    /// Nodes visited by commands owned by this device.
    pub nodes_visited: u64,
    /// Sampling commands the §VI-E check aborted on this device.
    pub sampler_faults: u64,
    /// Bytes its flash channels moved.
    pub channel_bytes: u64,
    /// Events its lane processed.
    pub events_processed: u64,
    /// Die busy time summed over its dies.
    pub die_busy: Duration,
    /// Channel busy time summed over its channels.
    pub channel_busy: Duration,
    /// Its DRAM's busy time (feature staging).
    pub dram_busy: Duration,
    /// Its accelerator's compute time over all batches.
    pub compute_time: Duration,
}

/// Per-link fabric counters of one array run (one egress link per
/// device).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricLinkMetrics {
    /// Source device of this egress link.
    pub device: usize,
    /// Bytes the link carried (command hops + feature returns).
    pub bytes: u64,
    /// Messages the link carried.
    pub messages: u64,
    /// Link busy time.
    pub busy: Duration,
}

/// The complete result of one simulated array run: the merged
/// array-level [`RunMetrics`] plus per-device and fabric-link
/// breakdowns and the partition's traffic statistics.
#[derive(Debug, Clone)]
pub struct ArrayRunMetrics {
    /// Devices in the array.
    pub devices: usize,
    /// Merged array-level metrics (targets, makespan, timelines, …).
    pub metrics: RunMetrics,
    /// Single-SSD throughput of the recorded baseline run.
    pub single_throughput: f64,
    /// Per-device breakdown, in device order.
    pub per_device: Vec<DeviceMetrics>,
    /// Per-link fabric counters, in device order.
    pub links: Vec<FabricLinkMetrics>,
    /// Sampled edges (visited child commands) in the cascade.
    pub total_edges: u64,
    /// Sampled edges whose child was owned by a different device than
    /// its parent (each one crossed the fabric as a command hop).
    pub cross_edges: u64,
    /// Feature bytes retrieved away from their home device (each byte
    /// crossed the fabric as a feature return).
    pub cross_feature_bytes: u64,
    /// Rounds of the conservative-lookahead protocol.
    pub rounds: u64,
    /// Cross-device messages delivered.
    pub messages: u64,
}

impl ArrayRunMetrics {
    /// Array throughput in target nodes per second.
    pub fn throughput(&self) -> f64 {
        self.metrics.throughput()
    }

    /// Scaling efficiency: achieved speedup over ideal (`1.0` =
    /// linear).
    pub fn efficiency(&self) -> f64 {
        if self.single_throughput == 0.0 || self.devices == 0 {
            return 0.0;
        }
        (self.throughput() / self.single_throughput) / self.devices as f64
    }

    /// Fraction of sampled edges that crossed devices.
    pub fn cross_fraction(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.cross_edges as f64 / self.total_edges as f64
        }
    }

    /// Total bytes the fabric carried.
    pub fn fabric_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Snapshots the run into a [`simkit::MetricsRegistry`]: the merged
    /// [`RunMetrics`] sections followed by an `array` section, one
    /// `device_<i>` section per device, and one `fabric_link_<i>`
    /// section per egress link. Section and field order is fixed, so
    /// two identical runs serialize byte-identically at any thread
    /// count.
    pub fn metrics_registry(&self) -> simkit::MetricsRegistry {
        let mut reg = self.metrics.metrics_registry();
        let a = reg.section("array");
        a.set_u64("devices", self.devices as u64);
        a.set_f64("single_throughput_targets_per_s", self.single_throughput);
        a.set_f64("efficiency", self.efficiency());
        a.set_u64("total_edges", self.total_edges);
        a.set_u64("cross_edges", self.cross_edges);
        a.set_f64("cross_fraction", self.cross_fraction());
        a.set_u64("cross_feature_bytes", self.cross_feature_bytes);
        a.set_u64("fabric_bytes", self.fabric_bytes());
        a.set_u64("rounds", self.rounds);
        a.set_u64("messages", self.messages);
        for d in &self.per_device {
            let s = reg.section(&format!("device_{}", d.device));
            s.set_u64("targets", d.targets);
            s.set_u64("flash_reads", d.flash_reads);
            s.set_u64("nodes_visited", d.nodes_visited);
            s.set_u64("sampler_faults", d.sampler_faults);
            s.set_u64("channel_bytes", d.channel_bytes);
            s.set_u64("events_processed", d.events_processed);
            s.set_duration("die_busy", d.die_busy);
            s.set_duration("channel_busy", d.channel_busy);
            s.set_duration("dram_busy", d.dram_busy);
            s.set_duration("compute_time", d.compute_time);
        }
        for l in &self.links {
            let s = reg.section(&format!("fabric_link_{}", l.device));
            s.set_u64("bytes", l.bytes);
            s.set_u64("messages", l.messages);
            s.set_duration("busy", l.busy);
        }
        reg
    }
}

/// Owner/home assignment and cross-traffic statistics of one cascade
/// under one partition.
struct Prepass {
    /// Owning device of each record (partition of its visited node;
    /// secondary-section records inherit their parent's owner).
    owner: Vec<u32>,
    /// Home device of each record (owner of its root target).
    home: Vec<u32>,
    /// Global query index of each record's root target (roots are
    /// numbered sequentially across batches; children inherit).
    qid: Vec<u32>,
    total_edges: u64,
    cross_edges: u64,
    cross_feature_bytes: u64,
}

fn prepass(log: &CascadeRecording, batches: &[Vec<NodeId>], partition: &Partition) -> Prepass {
    let recs = &log.recs;
    let mut owner = vec![0u32; recs.len()];
    let mut home = vec![0u32; recs.len()];
    let mut qid = vec![0u32; recs.len()];
    let mut total_edges = 0u64;
    let mut cross_edges = 0u64;
    let mut cross_feature_bytes = 0u64;
    // Roots first: a root's visited node is its target.
    let mut next_qid = 0u32;
    for (bi, batch) in batches.iter().enumerate() {
        let base = log.batch_roots[bi] as usize;
        for (j, &target) in batch.iter().enumerate() {
            let p = partition.part_of(target);
            owner[base + j] = p;
            home[base + j] = p;
            qid[base + j] = next_qid;
            next_qid += 1;
        }
    }
    // One forward pass assigns children (every child index is greater
    // than its parent's, so parents are always resolved first).
    for i in 0..recs.len() {
        let (po, ph, pq) = (owner[i], home[i], qid[i]);
        let cs = recs[i].children_start as usize;
        for c in cs..cs + recs[i].children_len as usize {
            let visited = recs[c].visited;
            let co = if visited != u32::MAX {
                total_edges += 1;
                let p = partition.part_of(NodeId::new(visited));
                if p != po {
                    cross_edges += 1;
                }
                p
            } else {
                po
            };
            owner[c] = co;
            home[c] = ph;
            qid[c] = pq;
        }
    }
    for (i, r) in recs.iter().enumerate() {
        if r.feature_bytes > 0 && owner[i] != home[i] {
            cross_feature_bytes += r.feature_bytes as u64;
        }
    }
    Prepass {
        owner,
        home,
        qid,
        total_edges,
        cross_edges,
        cross_feature_bytes,
    }
}

/// Read-only replay context shared by every lane and the coordinator.
#[derive(Clone, Copy)]
struct ReplayCtx<'c> {
    recs: &'c [CascadeRec],
    owner: &'c [u32],
    home: &'c [u32],
    qid: &'c [u32],
}

/// Device-lane pipeline events. `Arrive` carries only the record index
/// (the arrival instant is the command's lifetime start); later stages
/// thread the timing they need for the latency breakdown.
#[derive(Debug, Clone, Copy)]
enum DevEvent {
    Arrive(u32),
    Die(u32, SimTime),
    Xfer(u32, SimTime),
    Done(u32, SimTime, Duration),
    Finish(u32, SimTime, Duration),
}

/// Cross-device messages. Keys are `(record index << 1) | type bit`,
/// so spawn and feature keys never collide and the global sort is
/// total.
#[derive(Debug, Clone, Copy)]
enum AMsg {
    /// Forward a sampled child command to its owning device.
    Spawn {
        from: u32,
        to: u32,
        rec: u32,
        /// Inherited critical-path attribution (zeroed when latency
        /// tracking is off).
        path: PathAttr,
    },
    /// Return retrieved feature bytes to the record's home device.
    Feature {
        from: u32,
        to: u32,
        rec: u32,
        bytes: u64,
        /// The retrieving command's attribution at retirement, so the
        /// fabric return extends its query's chain.
        path: PathAttr,
    },
}

fn spawn_key(rec: u32) -> u128 {
    (rec as u128) << 1
}

fn feature_key(rec: u32) -> u128 {
    ((rec as u128) << 1) | 1
}

/// An inbound delivery queued for a device lane: the event plus its
/// inherited path attribution (`None` when latency tracking is off).
type ADelivery = (DevEvent, Option<PathAttr>);

/// One device's event loop: a full SSD backend (all channels, dies and
/// DRAM), a private calendar, and lane-local metric accumulators that
/// merge in fixed device order after the run.
struct DevLane<'c> {
    dev: usize,
    ssd: SsdConfig,
    ctx: ReplayCtx<'c>,
    dies: Vec<SerialResource>,
    chans: Vec<SerialResource>,
    dram: BandwidthResource,
    calendar: Calendar<DevEvent>,
    memo: FlashServiceMemo,
    outbox: MessagePool<AMsg>,
    stats: LaneStats,

    /// Per-query latency tracking (off by default; see
    /// [`ArrayEngine::with_latency`]).
    lat_on: bool,
    /// Attributions of this device's in-flight records.
    arena: PathArena,
    /// Record index → arena handle ([`NO_PATH`] when idle; empty when
    /// tracking is off).
    lat_of: Vec<u32>,
    /// Winning chain per global query id (merged in device order).
    chains: ChainTable,
}

impl<'c> DevLane<'c> {
    fn new(
        dev: usize,
        ssd: SsdConfig,
        ctx: ReplayCtx<'c>,
        hops: usize,
        lat: Option<(usize, usize)>,
    ) -> Self {
        let geo = &ssd.geometry;
        DevLane {
            dev,
            ctx,
            dies: vec![SerialResource::new(); geo.total_dies()],
            chans: vec![SerialResource::new(); geo.channels],
            dram: BandwidthResource::new(ssd.dram_bandwidth),
            calendar: Calendar::new(),
            memo: FlashServiceMemo::new(ssd.timing, ON_DIE_SAMPLE_TIME, geo.page_size),
            outbox: MessagePool::new(),
            stats: LaneStats::new(hops),
            lat_on: lat.is_some(),
            arena: PathArena::default(),
            lat_of: lat.map_or_else(Vec::new, |(recs, _)| vec![NO_PATH; recs]),
            chains: ChainTable::new(lat.map_or(0, |(_, queries)| queries)),
            ssd,
        }
    }

    /// The arena handle of an in-flight record ([`NO_PATH`] when
    /// tracking is off).
    fn lat(&self, rec: u32) -> u32 {
        if self.lat_on {
            self.lat_of[rec as usize]
        } else {
            NO_PATH
        }
    }

    fn on_arrive(&mut self, ctx: &ReplayCtx<'_>, rec: u32, now: SimTime) {
        self.stats.hop_started(ctx.recs[rec as usize].hop, now);
        self.stats.router_cmds += 1;
        let h = self.lat(rec);
        if h != NO_PATH {
            self.arena
                .get_mut(h)
                .add(Stage::Other, self.ssd.router_latency);
        }
        self.calendar
            .schedule(now + self.ssd.router_latency, DevEvent::Die(rec, now));
    }

    fn on_die(&mut self, ctx: &ReplayCtx<'_>, rec: u32, created: SimTime, now: SimTime) {
        let r = &ctx.recs[rec as usize];
        let grant = self.dies[r.die as usize].acquire(now, self.memo.die_service);
        self.stats.die_timeline.push(grant.start, grant.end);
        self.stats.flash_reads += 1;
        if r.fault {
            self.stats.sampler_faults += 1;
        }
        self.stats
            .cmd_breakdown
            .wait_before_flash
            .record_duration(grant.start.saturating_duration_since(created));
        let h = self.lat(rec);
        if h != NO_PATH {
            let p = self.arena.get_mut(h);
            p.add(Stage::Queue, grant.start.saturating_duration_since(now));
            p.add(Stage::DieSense, grant.end - grant.start);
        }
        self.calendar
            .schedule(grant.end, DevEvent::Xfer(rec, grant.start));
    }

    fn on_xfer(&mut self, ctx: &ReplayCtx<'_>, rec: u32, die_start: SimTime, now: SimTime) {
        let r = &ctx.recs[rec as usize];
        let bytes = r.result_bytes as u64;
        let service = self.memo.xfer_service(bytes);
        let chan = r.die as usize % self.ssd.geometry.channels;
        let grant = self.chans[chan].acquire(now, service);
        self.stats.channel_timeline.push(grant.start, grant.end);
        self.stats.channel_bytes += bytes;
        let chan_wait = grant.start.saturating_duration_since(now);
        self.stats
            .cmd_breakdown
            .flash
            .record_duration((now - die_start) + (grant.end - grant.start));
        let h = self.lat(rec);
        if h != NO_PATH {
            let p = self.arena.get_mut(h);
            p.add(Stage::Queue, chan_wait);
            p.add(Stage::Channel, grant.end - grant.start);
            p.add(Stage::Other, self.ssd.router_latency);
        }
        // Trailing router parse is a fixed, contention-free hop.
        self.calendar.schedule(
            grant.end + self.ssd.router_latency,
            DevEvent::Done(rec, grant.end, chan_wait),
        );
    }

    fn on_done(
        &mut self,
        ctx: &ReplayCtx<'_>,
        rec: u32,
        xfer_end: SimTime,
        chan_wait: Duration,
        now: SimTime,
    ) {
        let fb = ctx.recs[rec as usize].feature_bytes as u64;
        if fb > 0 && !self.ssd.dram_bypass {
            // Stage in this device's own DRAM; the lane owns it, so the
            // transfer is lane-local (unlike the per-channel engine's
            // shared-DRAM coordinator round trip).
            let grant = self.dram.transfer(now, fb);
            self.stats.dram_bytes += fb;
            let h = self.lat(rec);
            if h != NO_PATH {
                let p = self.arena.get_mut(h);
                p.add(Stage::Queue, grant.start.saturating_duration_since(now));
                p.add(Stage::Dram, grant.end - grant.start);
            }
            self.calendar
                .schedule(grant.end, DevEvent::Finish(rec, xfer_end, chan_wait));
        } else {
            self.finish(ctx, rec, xfer_end, chan_wait, now);
        }
    }

    fn finish(
        &mut self,
        ctx: &ReplayCtx<'_>,
        rec: u32,
        xfer_end: SimTime,
        chan_wait: Duration,
        now: SimTime,
    ) {
        let ri = rec as usize;
        let r = &ctx.recs[ri];
        self.stats
            .cmd_breakdown
            .wait_after_flash
            .record_duration(chan_wait + now.saturating_duration_since(xfer_end));
        self.stats.hop_retired(r.hop, now);
        if r.visited != u32::MAX {
            self.stats.nodes_visited += 1;
        }
        // At retirement the record's chain competes for its query's
        // longest path, and children inherit the attribution so far.
        let inherit = {
            let h = self.lat(rec);
            if h != NO_PATH {
                let p = *self.arena.get(h);
                self.chains.observe(ctx.qid[ri] as usize, now, &p);
                self.arena.release(h);
                self.lat_of[ri] = NO_PATH;
                p
            } else {
                PathAttr::default()
            }
        };
        let me = self.dev as u32;
        let cs = r.children_start;
        for c in cs..cs + r.children_len {
            let to = ctx.owner[c as usize];
            if to == me {
                if self.lat_on {
                    self.lat_of[c as usize] = self.arena.alloc(inherit);
                }
                self.calendar.schedule(now, DevEvent::Arrive(c));
            } else {
                self.outbox.push(
                    now,
                    spawn_key(c),
                    AMsg::Spawn {
                        from: me,
                        to,
                        rec: c,
                        path: inherit,
                    },
                );
            }
        }
        if r.feature_bytes > 0 && ctx.home[ri] != me {
            self.outbox.push(
                now,
                feature_key(rec),
                AMsg::Feature {
                    from: me,
                    to: ctx.home[ri],
                    rec,
                    bytes: r.feature_bytes as u64,
                    path: inherit,
                },
            );
        }
        self.stats.prep_end = self.stats.prep_end.max(now);
    }
}

impl sync::Lane for DevLane<'_> {
    type Delivery = ADelivery;
    type Msg = AMsg;
    type Broadcast = BatchBroadcast;

    fn deliver(&mut self, at: SimTime, (ev, path): ADelivery) {
        // An inbound arrival materializes its inherited path in this
        // device's arena.
        if let (Some(p), DevEvent::Arrive(rec)) = (path, ev) {
            self.lat_of[rec as usize] = self.arena.alloc(p);
        }
        self.calendar.schedule(at, ev);
    }

    fn drain(&mut self, horizon: SimTime, batch: BatchBroadcast) {
        self.stats.record_hops = batch.record_hops;
        let ctx = self.ctx;
        while self.calendar.peek_time().is_some_and(|t| t < horizon) {
            let (now, ev) = self.calendar.pop().expect("peeked event");
            self.stats.pools.events_processed += 1;
            match ev {
                DevEvent::Arrive(rec) => self.on_arrive(&ctx, rec, now),
                DevEvent::Die(rec, created) => self.on_die(&ctx, rec, created, now),
                DevEvent::Xfer(rec, die_start) => self.on_xfer(&ctx, rec, die_start, now),
                DevEvent::Done(rec, xfer_end, chan_wait) => {
                    self.on_done(&ctx, rec, xfer_end, chan_wait, now)
                }
                DevEvent::Finish(rec, xfer_end, chan_wait) => {
                    self.finish(&ctx, rec, xfer_end, chan_wait, now)
                }
            }
        }
    }

    fn next_time(&self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    fn prep_end(&self) -> SimTime {
        self.stats.prep_end
    }

    fn outbox(&mut self) -> &mut MessagePool<AMsg> {
        &mut self.outbox
    }
}

/// Coordinator-side state: the fabric links (which lanes may not
/// touch) plus the §VI-D batch pipeline, one accelerator per device.
struct ACoordinator {
    links: Vec<BandwidthResource>,
    hop_latency: Duration,
    link_bytes: Vec<u64>,
    link_msgs: Vec<u64>,
    /// Per home device: when the last inbound feature return of the
    /// current batch lands (gates that device's compute start).
    feature_ready: Vec<SimTime>,
    energy: EnergyLedger,
    pipe: Pipeline,
    lat_on: bool,
    /// Chains extended by cross-device feature returns (the fabric leg
    /// from the retrieving device back to the query's home device).
    lat_chains: ChainTable,
}

impl ACoordinator {
    /// Applies one cross-device message; the runtime hands them over in
    /// globally sorted `(time, key)` order, so fabric-link grants are
    /// issued in that order. Command hops are quantized to the next
    /// lookahead boundary and posted to the owning lane; feature
    /// returns fold into the home device's batch-level readiness.
    fn apply(
        &mut self,
        ctx: &ReplayCtx<'_>,
        at: SimTime,
        msg: AMsg,
        out: &mut Deliveries<'_, ADelivery>,
    ) {
        match msg {
            AMsg::Spawn {
                from,
                to,
                rec,
                path,
            } => {
                let grant = self.links[from as usize].transfer(at, CMD_HOP_BYTES);
                self.link_bytes[from as usize] += CMD_HOP_BYTES;
                self.link_msgs[from as usize] += 1;
                let arrive = out.window().quantize(at, grant.end + self.hop_latency);
                let path = self.lat_on.then(|| {
                    let mut p = path;
                    p.add(Stage::Queue, grant.start.saturating_duration_since(at));
                    p.add(Stage::Fabric, (grant.end - grant.start) + self.hop_latency);
                    p.add(
                        Stage::Queue,
                        arrive.saturating_duration_since(grant.end + self.hop_latency),
                    );
                    p
                });
                out.post(to as usize, arrive, (DevEvent::Arrive(rec), path));
            }
            AMsg::Feature {
                from,
                to,
                rec,
                bytes,
                path,
            } => {
                let grant = self.links[from as usize].transfer(at, bytes);
                self.link_bytes[from as usize] += bytes;
                self.link_msgs[from as usize] += 1;
                let ready = grant.end + self.hop_latency;
                if self.lat_on {
                    // The return leg extends the retrieving chain to
                    // the home device, competing for the query's
                    // longest path.
                    let mut p = path;
                    p.add(Stage::Queue, grant.start.saturating_duration_since(at));
                    p.add(Stage::Fabric, (grant.end - grant.start) + self.hop_latency);
                    self.lat_chains
                        .observe(ctx.qid[rec as usize] as usize, ready, &p);
                }
                let slot = &mut self.feature_ready[to as usize];
                *slot = (*slot).max(ready);
            }
        }
    }
}

/// The simulated multi-SSD array engine: N device lanes behind a
/// partition-aware host router, advanced under conservative lookahead
/// with the fabric hop latency as the window.
///
/// ```
/// use beacon_graph::{generate, FeatureTable, NodeId, Partition};
/// use beacon_gnn::GnnModelConfig;
/// use beacon_platforms::{ArrayConfig, ArrayEngine, Platform};
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
/// let batches = vec![(0..16).map(NodeId::new).collect::<Vec<_>>()];
/// let part = Partition::hash(&graph, 4);
/// let engine = ArrayEngine::new(
///     Platform::Bg2, ArrayConfig::pcie_p2p(4), SsdConfig::paper_default(), model, &dg, 42);
/// let serial = engine.run(&part, &batches);
/// let threaded = ArrayEngine::new(
///     Platform::Bg2, ArrayConfig::pcie_p2p(4), SsdConfig::paper_default(), model, &dg, 42)
///     .threads(4)
///     .run(&part, &batches);
/// assert_eq!(serial.metrics.makespan, threaded.metrics.makespan);
/// ```
pub struct ArrayEngine<'a> {
    platform: Platform,
    array: ArrayConfig,
    ssd: SsdConfig,
    model: GnnModelConfig,
    dg: &'a DirectGraph,
    seed: u64,
    threads: usize,
    lat_epoch: Option<Duration>,
}

impl<'a> ArrayEngine<'a> {
    /// Creates an array engine (serial round protocol until
    /// [`threads`](Self::threads) raises it).
    ///
    /// # Panics
    ///
    /// Panics if the array is empty, the fabric hop latency is zero
    /// (it is the lookahead window), or the SSD geometry's page size
    /// differs from the DirectGraph layout's.
    pub fn new(
        platform: Platform,
        array: ArrayConfig,
        ssd: SsdConfig,
        model: GnnModelConfig,
        dg: &'a DirectGraph,
        seed: u64,
    ) -> Self {
        assert!(array.ssds >= 1, "array needs at least one SSD");
        assert!(
            !array.fabric.hop_latency.is_zero(),
            "fabric hop latency must be positive (it is the lookahead window)"
        );
        assert_eq!(
            ssd.geometry.page_size,
            dg.layout().page_size(),
            "SSD geometry and DirectGraph layout disagree on page size"
        );
        ArrayEngine {
            platform,
            array,
            ssd,
            model,
            dg,
            seed,
            threads: 1,
            lat_epoch: None,
        }
    }

    /// Sets the device-worker thread count. Output is byte-identical
    /// at any value; values above the device count are clamped, and
    /// below 2 the round protocol runs inline with no threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables per-query latency tracking (see
    /// [`Engine::with_latency`](crate::Engine::with_latency)): chains
    /// are followed per device lane — fabric hops included — and merged
    /// in device order, so [`RunMetrics::latency`] is byte-identical at
    /// any thread count. Also applies to the recording run, so a
    /// 1-device array returns the serial engine's latency report
    /// verbatim. `epoch` is the windowed time-series granularity
    /// ([`Duration::ZERO`] for a single window).
    pub fn with_latency(mut self, epoch: Duration) -> Self {
        self.lat_epoch = Some(epoch);
        self
    }

    /// Phase 1: runs the serial single-SSD engine once and records the
    /// sampling cascade. The result is reusable across device counts,
    /// partitions, fabrics and thread counts (it depends on neither).
    ///
    /// On platforms that are not channel-separable the cascade is
    /// empty and only a 1-device replay (the serial metrics verbatim)
    /// is possible.
    pub fn record(&self, batches: &[Vec<NodeId>]) -> ArrayCascade {
        let mut scratch = EngineScratch::new();
        let mut engine = Engine::new(self.platform, self.ssd, self.model, self.dg, self.seed);
        if let Some(epoch) = self.lat_epoch {
            engine = engine.with_latency(epoch);
        }
        if self.platform.spec().channel_separable() {
            let (single, recording) = engine.record_cascade(&mut scratch, batches);
            ArrayCascade {
                recording,
                single,
                batches: batches.to_vec(),
            }
        } else {
            let single = engine.run_with(&mut scratch, batches);
            ArrayCascade {
                recording: CascadeRecording::default(),
                single,
                batches: batches.to_vec(),
            }
        }
    }

    /// Record + replay in one call.
    pub fn run(&self, partition: &Partition, batches: &[Vec<NodeId>]) -> ArrayRunMetrics {
        let cascade = self.record(batches);
        self.run_recorded(&cascade, partition)
    }

    /// Phase 2: replays a recorded cascade on the array. A 1-device
    /// array returns the recorded serial run's metrics verbatim.
    ///
    /// # Panics
    ///
    /// Panics if the partition's part count differs from the array
    /// size, or if the array has more than one device and the platform
    /// is not channel-separable (only BG-2's pipeline decomposes into
    /// independent device lanes).
    pub fn run_recorded(&self, cascade: &ArrayCascade, partition: &Partition) -> ArrayRunMetrics {
        let devs = self.array.ssds;
        assert_eq!(
            partition.parts() as usize,
            devs,
            "partition/array size mismatch"
        );
        let pre = prepass(&cascade.recording, &cascade.batches, partition);
        if devs == 1 {
            let m = cascade.single.clone();
            let per_device = vec![DeviceMetrics {
                device: 0,
                targets: m.targets,
                flash_reads: m.flash_reads,
                nodes_visited: m.nodes_visited,
                sampler_faults: m.sampler_faults,
                channel_bytes: m.energy.channel_bytes,
                events_processed: m.pools.events_processed,
                die_busy: m.stages.flash_read,
                channel_busy: m.stages.channel,
                dram_busy: m.stages.dram,
                compute_time: m.compute_time,
            }];
            return ArrayRunMetrics {
                devices: 1,
                single_throughput: m.throughput(),
                metrics: m,
                per_device,
                links: vec![FabricLinkMetrics::default()],
                total_edges: pre.total_edges,
                cross_edges: 0,
                cross_feature_bytes: 0,
                rounds: 0,
                messages: 0,
            };
        }
        assert!(
            self.platform.spec().channel_separable(),
            "multi-device array replay requires a channel-separable platform (BG-2)"
        );
        self.replay(cascade, partition, pre)
    }

    fn replay(
        &self,
        cascade: &ArrayCascade,
        partition: &Partition,
        pre: Prepass,
    ) -> ArrayRunMetrics {
        let devs = self.array.ssds;
        let hops = self.model.hops as usize + 2;
        let ctx = ReplayCtx {
            recs: &cascade.recording.recs,
            owner: &pre.owner,
            home: &pre.home,
            qid: &pre.qid,
        };
        let lat = self.lat_epoch.map(|_| {
            (
                cascade.recording.recs.len(),
                cascade.batches.iter().map(Vec::len).sum::<usize>(),
            )
        });
        let mut lanes: Vec<DevLane> = (0..devs)
            .map(|d| DevLane::new(d, self.ssd, ctx, hops, lat))
            .collect();
        let mut coord = ACoordinator {
            links: (0..devs)
                .map(|_| BandwidthResource::new(self.array.fabric.bandwidth))
                .collect(),
            hop_latency: self.array.fabric.hop_latency,
            link_bytes: vec![0; devs],
            link_msgs: vec![0; devs],
            feature_ready: vec![SimTime::ZERO; devs],
            energy: EnergyLedger::new(),
            pipe: Pipeline::new(
                &self.platform.spec(),
                self.model,
                &self.ssd,
                devs,
                self.lat_epoch,
            ),
            lat_on: self.lat_epoch.is_some(),
            lat_chains: ChainTable::new(lat.map_or(0, |(_, queries)| queries)),
        };

        let window = EpochWindow::new(self.array.fabric.hop_latency);
        let stats = sync::run_lanes(&mut lanes, window, self.threads, |rounds| {
            self.run_batches(cascade, partition, &ctx, rounds, &mut coord)
        });
        self.merge(cascade, partition, &pre, coord, lanes, stats)
    }

    /// Runs each batch's preparation as a round loop between the
    /// pipeline's open and close; each device then computes the targets
    /// homed on it, gated by its inbound feature returns.
    fn run_batches(
        &self,
        cascade: &ArrayCascade,
        partition: &Partition,
        ctx: &ReplayCtx<'_>,
        rounds: &mut Rounds<'_, DevLane<'_>>,
        coord: &mut ACoordinator,
    ) {
        let devs = self.array.ssds;
        for (bi, batch) in cascade.batches.iter().enumerate() {
            rounds.broadcast(BatchBroadcast {
                record_hops: bi == 0,
                ..BatchBroadcast::default()
            });
            // BG-2 is direct-graph: one customized NVMe command per
            // device carries its shard of primary-section addresses
            // (host→device is the host PCIe link, not the fabric).
            let (_, start) = coord.pipe.open(batch.len(), &mut coord.energy);
            coord.feature_ready.fill(SimTime::ZERO);

            let base = cascade.recording.batch_roots[bi];
            let root_path = coord.lat_on.then(PathAttr::default);
            for rec in base..base + batch.len() as u32 {
                let owner = ctx.owner[rec as usize] as usize;
                rounds.post(owner, start, (DevEvent::Arrive(rec), root_path));
            }
            rounds.run_until_idle(start, |at, msg, out| coord.apply(ctx, at, msg, out));
            let prep_end = rounds.prep_end().max(start);

            let mut home_counts = vec![0u64; devs];
            for &t in batch {
                home_counts[partition.part_of(t) as usize] += 1;
            }
            let c = &mut *coord;
            let work = (0..devs)
                .filter(|&d| home_counts[d] > 0)
                .map(|d| (d, home_counts[d], c.feature_ready[d]));
            let mut obs = SpanRecorder::disabled();
            c.pipe.close(prep_end, work, None, &mut c.energy, &mut obs);
        }
    }

    /// Folds lane-local accumulators (in fixed device order) and the
    /// coordinator into the merged [`RunMetrics`] plus per-device and
    /// fabric-link breakdowns.
    fn merge(
        &self,
        cascade: &ArrayCascade,
        partition: &Partition,
        pre: &Prepass,
        coord: ACoordinator,
        mut lanes: Vec<DevLane<'_>>,
        rounds: sync::RoundStats,
    ) -> ArrayRunMetrics {
        let spec = self.platform.spec();
        let devs = self.array.ssds;
        // Chain tables fold commutatively, but keep the fixed device
        // order anyway (cheap, and self-evidently stable).
        let mut chains = ChainTable::default();
        chains.absorb(&coord.lat_chains);
        for lane in &lanes {
            chains.absorb(&lane.chains);
        }
        // Each query retires on its target's home device.
        let targets = cascade.batches.concat();
        let home = |q: usize| partition.part_of(targets[q]) as usize;
        let per_accel = coord.pipe.per_accelerator();
        let run = coord.pipe.finish(&coord.energy, &chains, home);

        let mut totals = LaneStats::new(self.model.hops as usize + 2);
        let mut per_device = Vec::with_capacity(devs);
        let mut dram_busy = Duration::ZERO;
        for lane in &mut lanes {
            let stats = &mut lane.stats;
            stats.seal(lane.calendar.pool_stats(), &lane.dies, &lane.chans);
            totals.absorb(stats);
            dram_busy += lane.dram.busy_total();
            let (compute_time, targets) = per_accel[lane.dev];
            per_device.push(DeviceMetrics {
                device: lane.dev,
                targets,
                flash_reads: stats.flash_reads,
                nodes_visited: stats.nodes_visited,
                sampler_faults: stats.sampler_faults,
                channel_bytes: stats.channel_bytes,
                events_processed: stats.pools.events_processed,
                die_busy: stats.flash_busy,
                channel_busy: stats.channel_busy,
                dram_busy: lane.dram.busy_total(),
                compute_time,
            });
        }
        let mut energy = coord.energy;
        totals.charge_energy(&mut energy);

        let links: Vec<FabricLinkMetrics> = (0..devs)
            .map(|d| FabricLinkMetrics {
                device: d,
                bytes: coord.link_bytes[d],
                messages: coord.link_msgs[d],
                busy: coord.links[d].busy_total(),
            })
            .collect();
        let fabric_busy: Duration = links.iter().map(|l| l.busy).sum();

        let stages = StageBreakdown {
            flash_read: totals.flash_busy,
            channel: totals.channel_busy,
            firmware: Duration::ZERO,
            dram: dram_busy,
            // Cross-device traffic rides PCIe-P2P / NVMe-oF links.
            pcie: fabric_busy,
            host: Duration::ZERO,
            accel: run.compute_time,
        };

        let metrics = RunMetrics {
            platform: spec.name,
            nodes_visited: totals.nodes_visited,
            flash_reads: totals.flash_reads,
            sampler_faults: totals.sampler_faults,
            hop_windows: totals.hop_windows(),
            cmd_breakdown: totals.cmd_breakdown,
            stages,
            die_timeline: totals.die_timeline,
            channel_timeline: totals.channel_timeline,
            energy,
            total_dies: self.ssd.geometry.total_dies() * devs,
            total_channels: self.ssd.geometry.channels * devs,
            pools: totals.pools,
            spans: SpanRecorder::disabled(),
            sampler_executed: cascade.single.sampler_executed,
            router: None,
            ftl: None,
            ..run
        };

        ArrayRunMetrics {
            devices: devs,
            metrics,
            single_throughput: cascade.single.throughput(),
            per_device,
            links,
            total_edges: pre.total_edges,
            cross_edges: pre.cross_edges,
            cross_feature_bytes: pre.cross_feature_bytes,
            rounds: rounds.rounds,
            messages: rounds.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_graph::{generate, FeatureTable};
    use directgraph::{build::DirectGraphBuilder, AddrLayout};

    fn setup() -> (DirectGraph, GnnModelConfig, Vec<Vec<NodeId>>) {
        let cfg = generate::PowerLawConfig::new(3_000, 25.0);
        let graph = generate::power_law(&cfg, 5);
        let feats = FeatureTable::synthetic(3_000, 100, 5);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &feats)
            .unwrap();
        let batches = vec![(0..64).map(NodeId::new).collect()];
        (dg, GnnModelConfig::paper_default(100), batches)
    }

    fn clustered_dg(clusters: usize, per: usize) -> (beacon_graph::CsrGraph, DirectGraph) {
        let n = clusters * per;
        let mut b = beacon_graph::CsrGraphBuilder::new(n);
        let mut rng = simkit::SplitMix64::new(4);
        for c in 0..clusters {
            let base = c * per;
            for i in 0..per {
                for _ in 0..8 {
                    let j = rng.next_bounded(per as u64) as usize;
                    if i != j {
                        b.add_edge(
                            NodeId::new((base + i) as u32),
                            NodeId::new((base + j) as u32),
                        );
                    }
                }
            }
        }
        let graph = b.build();
        let feats = beacon_graph::FeatureTable::synthetic(n, 64, 4);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &feats)
            .unwrap();
        (graph, dg)
    }

    /// A node-count-only graph for id-based partitions (hash and range
    /// partitioning never look at edges).
    fn trivial_graph(n: u32) -> beacon_graph::CsrGraph {
        beacon_graph::CsrGraphBuilder::new(n as usize).build()
    }

    fn digest(m: &ArrayRunMetrics) -> String {
        m.metrics_registry().to_json_string()
    }

    #[test]
    fn array_thread_count_is_invisible() {
        let (dg, model, batches) = setup();
        let part = Partition::hash(&trivial_graph(3_000), 4);
        let engine = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(4),
            SsdConfig::paper_default(),
            model,
            &dg,
            7,
        );
        let cascade = engine.record(&batches);
        let reference = digest(&engine.run_recorded(&cascade, &part));
        for threads in [2, 8] {
            let m = ArrayEngine::new(
                Platform::Bg2,
                ArrayConfig::pcie_p2p(4),
                SsdConfig::paper_default(),
                model,
                &dg,
                7,
            )
            .threads(threads)
            .run_recorded(&cascade, &part);
            assert_eq!(digest(&m), reference, "threads={threads}");
        }
    }

    #[test]
    fn one_device_array_is_serial_engine_exactly() {
        let (dg, model, batches) = setup();
        let serial =
            Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 7).run(&batches);
        let part = Partition::hash(&trivial_graph(3_000), 1);
        let array = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(1),
            SsdConfig::paper_default(),
            model,
            &dg,
            7,
        )
        .run(&part, &batches);
        assert_eq!(
            array.metrics.metrics_registry().to_json_string(),
            serial.metrics_registry().to_json_string()
        );
        assert_eq!(array.devices, 1);
        assert_eq!(array.cross_edges, 0);
        assert!((array.efficiency() - 1.0).abs() < 1e-12);
    }

    /// Every registry section of `m` except `pools` (host bookkeeping:
    /// event and slot counts, which the lane's fused schedule changes).
    fn sections_but_pools(m: &RunMetrics) -> Vec<(String, simkit::obs::Section)> {
        m.metrics_registry()
            .iter()
            .filter(|&(name, _)| name != "pools")
            .map(|(name, section)| (name.to_string(), section.clone()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// `run_recorded` returns the recorded serial run verbatim at one
        /// device, so nothing else pins the lane replay (`DevLane`) to the
        /// serial engine there. This calls the lane replay itself at one
        /// device, over random graph shapes, the paper default, seven
        /// one-knob variants and one random device, each with latency
        /// tracking off and on, and expects the serial BG-2 engine's
        /// registry in every section but `pools`.
        #[test]
        fn one_device_lane_replay_matches_the_serial_engine(
            (nodes, avg_degree, dim, batch, seed) in
                (300usize..1_500, 2u32..30, 8usize..200, 4usize..48, 0u64..1_000),
            (channels, dies, cores, mbps, traditional, bypass) in
                (1usize..33, 1usize..17, 1usize..9, 333u64..2_400, proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
        ) {
            let graph = generate::power_law(
                &generate::PowerLawConfig::new(nodes, avg_degree as f64),
                seed,
            );
            let feats = FeatureTable::synthetic(nodes, dim, seed);
            let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
                .build(&graph, &feats)
                .unwrap();
            let model = GnnModelConfig::paper_default(dim);
            let batches: Vec<Vec<NodeId>> = (0..2)
                .map(|b| (0..batch).map(|i| NodeId::new((b * batch + i) as u32)).collect())
                .collect();
            let base = SsdConfig::paper_default();
            let random = if traditional { SsdConfig::traditional() } else { base }
                .with_channels(channels)
                .with_dies_per_channel(dies)
                .with_cores(cores)
                .with_channel_bandwidth(mbps * 1_000_000)
                .with_dram_bypass(bypass);
            let configs = [
                base,
                base.with_channels(4),
                base.with_channels(4).with_dies_per_channel(2),
                base.with_channel_bandwidth(333_000_000),
                base.with_cores(1),
                SsdConfig::traditional(),
                base.with_dram_bypass(true),
                base.with_channels(32).with_dies_per_channel(16),
                random,
            ];
            let part = Partition::hash(&graph, 1);
            for ssd in configs {
                for epoch in [None, Some(Duration::from_us(100))] {
                    let mut serial = Engine::new(Platform::Bg2, ssd, model, &dg, seed);
                    let mut array =
                        ArrayEngine::new(Platform::Bg2, ArrayConfig::pcie_p2p(1), ssd, model, &dg, seed);
                    if let Some(epoch) = epoch {
                        serial = serial.with_latency(epoch);
                        array = array.with_latency(epoch);
                    }
                    let serial = serial.run(&batches);
                    let cascade = array.record(&batches);
                    let pre = prepass(&cascade.recording, &cascade.batches, &part);
                    let lane = array.replay(&cascade, &part, pre);
                    proptest::prop_assert_eq!(lane.devices, 1);
                    proptest::prop_assert_eq!(
                        sections_but_pools(&lane.metrics),
                        sections_but_pools(&serial),
                        "{:?}, latency {:?}", ssd, epoch
                    );
                }
            }
        }
    }

    #[test]
    fn device_work_sums_to_single_engine() {
        let (dg, model, batches) = setup();
        let part = Partition::hash(&trivial_graph(3_000), 4);
        let engine = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(4),
            SsdConfig::paper_default(),
            model,
            &dg,
            7,
        );
        let cascade = engine.record(&batches);
        let single = cascade.single_metrics();
        let (s_reads, s_visited, s_bytes, s_faults, s_targets) = (
            single.flash_reads,
            single.nodes_visited,
            single.energy.channel_bytes,
            single.sampler_faults,
            single.targets,
        );
        let m = engine.run_recorded(&cascade, &part);
        assert_eq!(
            m.per_device.iter().map(|d| d.flash_reads).sum::<u64>(),
            s_reads
        );
        assert_eq!(
            m.per_device.iter().map(|d| d.nodes_visited).sum::<u64>(),
            s_visited
        );
        assert_eq!(
            m.per_device.iter().map(|d| d.channel_bytes).sum::<u64>(),
            s_bytes
        );
        assert_eq!(
            m.per_device.iter().map(|d| d.sampler_faults).sum::<u64>(),
            s_faults
        );
        assert_eq!(
            m.per_device.iter().map(|d| d.targets).sum::<u64>(),
            s_targets
        );
        assert_eq!(m.metrics.flash_reads, s_reads);
        assert_eq!(m.metrics.nodes_visited, s_visited);
        // Every device did some work under a hash partition.
        assert!(m.per_device.iter().all(|d| d.flash_reads > 0));
        // Fabric carried the cross traffic the prepass counted.
        assert_eq!(
            m.fabric_bytes(),
            m.cross_edges * CMD_HOP_BYTES + m.cross_feature_bytes
        );
        // More devices cut more sampled edges.
        let cross = |devs: usize| {
            ArrayEngine::new(
                Platform::Bg2,
                ArrayConfig::pcie_p2p(devs),
                SsdConfig::paper_default(),
                model,
                &dg,
                7,
            )
            .run_recorded(
                &cascade,
                &Partition::hash(&trivial_graph(3_000), devs as u32),
            )
            .cross_fraction()
        };
        assert!(cross(8) > cross(2));
    }

    #[test]
    fn thin_fabric_stretches_makespan() {
        let (dg, model, batches) = setup();
        let part = Partition::hash(&trivial_graph(3_000), 4);
        let engine = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(4),
            SsdConfig::paper_default(),
            model,
            &dg,
            7,
        );
        let cascade = engine.record(&batches);
        let ample = engine.run_recorded(&cascade, &part);
        let thin = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(4)
                .with_fabric(FabricConfig::pcie_p2p().with_bandwidth(50_000_000)),
            SsdConfig::paper_default(),
            model,
            &dg,
            7,
        )
        .run_recorded(&cascade, &part);
        // Same command set, same fabric traffic — only slower links.
        assert_eq!(thin.fabric_bytes(), ample.fabric_bytes());
        assert!(
            thin.metrics.makespan > ample.metrics.makespan,
            "thin {} vs ample {}",
            thin.metrics.makespan,
            ample.metrics.makespan
        );
    }

    #[test]
    fn locality_partition_cuts_fabric_traffic_in_replay() {
        let (graph, dg) = clustered_dg(4, 500);
        let model = GnnModelConfig::paper_default(64);
        let batches: Vec<Vec<NodeId>> =
            vec![(0..64u32).map(|i| NodeId::new(i * 31 % 2_000)).collect()];
        let engine = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(4),
            SsdConfig::paper_default(),
            model,
            &dg,
            3,
        );
        let cascade = engine.record(&batches);
        let hash = engine.run_recorded(&cascade, &Partition::hash(&graph, 4));
        let local = engine.run_recorded(&cascade, &Partition::bfs_grow(&graph, 4));
        assert!(
            local.fabric_bytes() < hash.fabric_bytes() / 2,
            "bfs {} vs hash {}",
            local.fabric_bytes(),
            hash.fabric_bytes()
        );
        assert!(local.cross_fraction() < hash.cross_fraction());
        // Work totals are partition-invariant (same recorded cascade).
        assert_eq!(hash.metrics.flash_reads, local.metrics.flash_reads);
    }

    #[test]
    fn array_metrics_registry_has_device_and_fabric_sections() {
        let (dg, model, batches) = setup();
        let part = Partition::hash(&trivial_graph(3_000), 2);
        let m = ArrayEngine::new(
            Platform::Bg2,
            ArrayConfig::pcie_p2p(2),
            SsdConfig::paper_default(),
            model,
            &dg,
            7,
        )
        .run(&part, &batches);
        let reg = m.metrics_registry();
        let names = reg.section_names();
        assert!(names.contains(&"array"));
        assert!(names.contains(&"device_0"));
        assert!(names.contains(&"device_1"));
        assert!(names.contains(&"fabric_link_0"));
        assert!(names.contains(&"fabric_link_1"));
    }
}
