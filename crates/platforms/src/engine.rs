//! The unified event-driven data-preparation + compute engine.
//!
//! All eight platforms run through this engine; the [`PlatformSpec`]
//! flags select, per pipeline stage, which resources a command touches
//! and at what cost:
//!
//! ```text
//!            ┌ pre-steps ─┐   ┌──── flash ────┐   ┌── post-steps ──┐
//!  Arrive ──▶ host/core/   ──▶ die sense (+on- ──▶ DRAM / core /    ──▶ Done
//!  (lifetime  router issue     die sampling),      PCIe / host /        │
//!   start)    costs            channel transfer    router parse         ▼
//!                                                                children, or
//!                                                                hop barrier
//! ```
//!
//! Every resource (die, channel bus, embedded core, host core, DRAM,
//! PCIe) is a first-come-first-served [`SerialResource`] /
//! [`BandwidthResource`]; each acquisition happens at its own event so
//! FCFS order is respected across the whole pipeline. The functional
//! side — which neighbors get sampled, which secondary pages get read —
//! executes against the real DirectGraph image via the die-sampler
//! model, so timing and semantics stay consistent.

use beacon_energy::EnergyLedger;
use beacon_flash::{DieSampler, GnnDieConfig, SampleCommand, SampleOutcome};
use beacon_gnn::GnnModelConfig;
use beacon_graph::NodeId;
use beacon_ssd::{CommandRouter, Ftl, FtlStats, HostAdapter, SsdConfig};
use directgraph::DirectGraph;
use simkit::obs::{SpanRecorder, UnitKind};
use simkit::resource::Grant;
use simkit::{
    BandwidthResource, Calendar, ChainTable, Duration, PathAttr, SerialResource, SimTime, Stage,
};

use crate::metrics::{
    CmdBreakdown, HopWindow, PoolCounters, RunMetrics, StageBreakdown, TimelineBuilder,
};
use crate::pipeline::Pipeline;
use crate::replay::{CascadeRecorder, CascadeRecording};
use crate::spec::{BackendControl, Platform, PlatformSpec, SamplingLocation, TransferGranularity};

/// Fixed on-die time for the sampler logic (section walk, TRNG draws,
/// command generation) on die-sampling platforms.
pub(crate) const ON_DIE_SAMPLE_TIME: Duration = Duration::from_ns(300);
/// Bytes of one node-id record shipped to the host per sampled node on
/// hop-barrier platforms.
pub(crate) const NODE_ID_BYTES: u64 = 8;

/// What a command reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmdKind {
    /// A node visit: the page holding the node's record. In-SSD
    /// platforms read the same physical pages whether or not they use
    /// DirectGraph (node records co-locate the neighbor list and
    /// feature); what DirectGraph changes is the *addressing path* —
    /// matching the paper's observation that BG-DG improves only
    /// marginally over BG-1.
    Visit,
    /// A host-issued feature-table page read (CC/SmartSage, where
    /// feature lookup stays on the host — the traffic GList/BG-1
    /// eliminate by offloading it).
    FeatureRead,
}

/// Sentinel for [`Cmd::rec`]: the command has no cascade record (plain
/// runs, and host-derived feature reads which are re-derived rather
/// than recorded).
const NO_REC: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Cmd {
    sample: SampleCommand,
    kind: CmdKind,
    /// Index of this command's record in the active
    /// [`CascadeRecording`] — assigned at spawn when recording, carried
    /// in from the recording when replaying, [`NO_REC`] otherwise. It
    /// lives on the command (not a slot sidecar) so it survives
    /// hop-barrier buffering, where commands wait without a state slot.
    rec: u32,
}

/// A single post-issue processing step on a named resource.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Embedded-core work.
    Core(Duration),
    /// Host-CPU work.
    Host(Duration),
    /// SSD DRAM transfer.
    Dram(u64),
    /// PCIe transfer.
    Pcie(u64),
    /// Fixed latency with no resource contention (router hop, NVMe
    /// round-trip wire time).
    Fixed(Duration),
}

impl Step {
    /// Packs the step into one word: resource tag in the low three
    /// bits, payload (nanoseconds or byte count) in the upper 61. No
    /// modeled duration or transfer approaches 2^61, so the packing is
    /// lossless; it exists purely to shrink the event structs the
    /// calendar buckets and drain loop copy around.
    fn pack(self) -> u64 {
        let (tag, payload) = match self {
            Step::Core(d) => (0, d.as_ns()),
            Step::Host(d) => (1, d.as_ns()),
            Step::Dram(b) => (2, b),
            Step::Pcie(b) => (3, b),
            Step::Fixed(d) => (4, d.as_ns()),
        };
        debug_assert!(payload < (1 << 61), "step payload overflows packing");
        (payload << 3) | tag
    }

    fn unpack(word: u64) -> Step {
        let payload = word >> 3;
        match word & 0b111 {
            0 => Step::Core(Duration::from_ns(payload)),
            1 => Step::Host(Duration::from_ns(payload)),
            2 => Step::Dram(payload),
            3 => Step::Pcie(payload),
            _ => Step::Fixed(Duration::from_ns(payload)),
        }
    }
}

/// A small inline FIFO of pipeline steps.
///
/// No command ever queues more than four steps (see
/// [`Engine::post_steps`]), so the steps live inline in the event
/// instead of a heap-allocated `VecDeque` per command — packed one
/// word per step so the whole queue is 42 bytes instead of 82.
#[derive(Debug, Clone, Copy)]
struct StepQueue {
    steps: [u64; StepQueue::CAP],
    head: u8,
    len: u8,
}

impl StepQueue {
    const CAP: usize = 5;

    fn new() -> Self {
        StepQueue {
            steps: [0; Self::CAP],
            head: 0,
            len: 0,
        }
    }

    /// Appends a step. Steps are only pushed before the first pop, so
    /// `head + len` never wraps.
    fn push_back(&mut self, step: Step) {
        let idx = self.head as usize + self.len as usize;
        assert!(idx < Self::CAP, "step queue overflow");
        self.steps[idx] = step.pack();
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<Step> {
        if self.len == 0 {
            return None;
        }
        let step = Step::unpack(self.steps[self.head as usize]);
        self.head += 1;
        self.len -= 1;
        Some(step)
    }
}

/// Index of a [`SampleOutcome`] in the engine's outcome pool. Events
/// carry this instead of a `Box<SampleOutcome>` so every event is a
/// small `Copy` value and the per-command heap allocation disappears.
type OutcomeIdx = u32;

// Flat event-kind discriminants. A calendar event is one packed word —
// kind in the low three bits, payload (a `CmdStates` slot index, or the
// hop number for `EV_RELEASE_HOP`) in the upper bits — so the calendar
// buckets hold plain `u64`s instead of a 70-byte enum and the drain
// loop's dispatch is a branch-predictable jump on three bits.
/// Command address available at the frontend (lifetime start).
const EV_ARRIVE: u64 = 0;
/// Pre-issue steps remaining before the die request.
const EV_PRE: u64 = 1;
/// Request the target die.
const EV_DIE_REQ: u64 = 2;
/// Request the channel bus after sensing.
const EV_XFER_REQ: u64 = 3;
/// Post-transfer steps remaining before completion.
const EV_POST: u64 = 4;
/// Hop barrier released: buffered commands of this hop may arrive.
const EV_RELEASE_HOP: u64 = 5;

/// Packs an event kind and payload into one calendar word.
#[inline(always)]
fn ev(kind: u64, payload: u32) -> u64 {
    ((payload as u64) << 3) | kind
}

/// Per-command in-flight state, struct-of-arrays.
///
/// Each spawned command holds exactly one slot from `Arrive` until its
/// `Post` chain completes, and has exactly one event in flight at any
/// moment, so the pool's size is bounded by peak command concurrency.
/// Fields that are dead in a given phase are reused rather than
/// duplicated: `tmark` carries the die-grant start between `DieReq` and
/// `XferReq`, then the transfer end between `XferReq` and the final
/// `Post`. The SoA split keeps the hot pops (which touch only `cmd` and
/// one or two sidecar fields per phase) from dragging the whole
/// 100-byte AoS record through the cache.
#[derive(Debug, Default)]
struct CmdStates {
    cmd: Vec<Cmd>,
    /// Arrival time (lifetime start) for wait-phase accounting.
    created: Vec<SimTime>,
    /// Phase-dependent timestamp: die-grant start, then transfer end.
    tmark: Vec<SimTime>,
    /// Channel-queue wait incurred at the transfer stage.
    chan_wait: Vec<Duration>,
    /// Outcome-pool slot held from `DieReq` to the final `Post`.
    oi: Vec<OutcomeIdx>,
    /// Target die index (striping math runs once per command).
    die: Vec<u32>,
    /// Remaining pre/post pipeline steps.
    steps: Vec<StepQueue>,
    free: Vec<u32>,
}

impl CmdStates {
    fn acquire(&mut self, cmd: Cmd) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.cmd[i as usize] = cmd;
                i
            }
            None => {
                let i = u32::try_from(self.cmd.len()).expect("command state pool overflow");
                self.cmd.push(cmd);
                self.created.push(SimTime::ZERO);
                self.tmark.push(SimTime::ZERO);
                self.chan_wait.push(Duration::ZERO);
                self.oi.push(0);
                self.die.push(0);
                self.steps.push(StepQueue::new());
                i
            }
        }
    }

    fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

/// Memoized flash service times for the sense/transfer hot path.
///
/// Die service is one constant per run (read latency plus the on-die
/// sampling time where applicable). Channel service depends only on the
/// transferred byte count, which is bounded by the page size for every
/// modeled transfer, so a flat table keyed by `bytes` replaces the
/// per-event `command_overhead + transfer_time(bytes)` division chain.
#[derive(Debug)]
pub(crate) struct FlashServiceMemo {
    /// `read_latency` (+ `ON_DIE_SAMPLE_TIME` on die-sampling specs).
    pub(crate) die_service: Duration,
    /// `command_overhead + transfer_time(bytes)` for `0..=page_size`.
    services: Vec<Duration>,
    timing: beacon_flash::FlashTiming,
}

impl FlashServiceMemo {
    pub(crate) fn new(
        timing: beacon_flash::FlashTiming,
        on_die: Duration,
        page_size: usize,
    ) -> Self {
        let services = (0..=page_size as u64)
            .map(|b| timing.command_overhead + timing.transfer_time(b))
            .collect();
        FlashServiceMemo {
            die_service: timing.read_latency + on_die,
            services,
            timing,
        }
    }

    #[inline(always)]
    pub(crate) fn xfer_service(&self, bytes: u64) -> Duration {
        match self.services.get(bytes as usize) {
            Some(&d) => d,
            None => self.timing.command_overhead + self.timing.transfer_time(bytes),
        }
    }
}

/// Slab of [`SampleOutcome`]s with a free list.
///
/// Each flash command holds one outcome from `DieReq` until its `Post`
/// chain completes; releasing clears the outcome but keeps its
/// `new_commands` allocation, so in steady state the sampler writes
/// into recycled vectors and the hot path never touches the allocator.
#[derive(Debug, Default)]
pub(crate) struct OutcomePool {
    pub(crate) slots: Vec<SampleOutcome>,
    free: Vec<OutcomeIdx>,
    pub(crate) allocated: u64,
    pub(crate) reused: u64,
    in_use: u64,
    pub(crate) in_use_high_water: u64,
}

impl OutcomePool {
    pub(crate) fn acquire(&mut self) -> OutcomeIdx {
        let idx = match self.free.pop() {
            Some(i) => {
                self.reused += 1;
                i
            }
            None => {
                let i = OutcomeIdx::try_from(self.slots.len()).expect("outcome pool overflow");
                self.slots.push(SampleOutcome {
                    visited: None,
                    feature_bytes: 0,
                    new_commands: Vec::new(),
                });
                self.allocated += 1;
                i
            }
        };
        self.in_use += 1;
        self.in_use_high_water = self.in_use_high_water.max(self.in_use);
        idx
    }

    pub(crate) fn release(&mut self, idx: OutcomeIdx) {
        let o = &mut self.slots[idx as usize];
        o.visited = None;
        o.feature_bytes = 0;
        o.new_commands.clear();
        self.free.push(idx);
        self.in_use -= 1;
    }

    pub(crate) fn get(&self, idx: OutcomeIdx) -> &SampleOutcome {
        &self.slots[idx as usize]
    }

    fn reset_stats(&mut self) {
        self.allocated = 0;
        self.reused = 0;
        self.in_use_high_water = self.in_use;
    }
}

/// Reusable per-worker simulation buffers: the event calendar (with its
/// bucket capacity), the sample-outcome pool, and the hop-release scratch.
///
/// One scratch serves any number of sequential [`Engine::run_with`]
/// calls; after the first run its pools are warm and subsequent runs
/// allocate nothing in the event loop. Sharing a scratch never changes
/// results — a run with a reused scratch is bit-identical to one with a
/// fresh scratch (the calendar is reset between runs).
#[derive(Debug, Default)]
pub struct EngineScratch {
    calendar: Calendar<u64>,
    outcomes: OutcomePool,
    states: CmdStates,
    release_buf: Vec<Cmd>,
    span_stage: Vec<simkit::obs::Span>,
}

impl EngineScratch {
    /// Creates an empty scratch; pools grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One platform simulation over a prepared DirectGraph image.
pub struct Engine<'a> {
    spec: PlatformSpec,
    ssd: SsdConfig,
    model: GnnModelConfig,
    dg: &'a DirectGraph,

    dies: Vec<SerialResource>,
    channels: Vec<SerialResource>,
    cores: Vec<SerialResource>,
    host_cores: Vec<SerialResource>,
    dram: BandwidthResource,
    pcie: BandwidthResource,
    samplers: Vec<DieSampler>,

    calendar: Calendar<u64>,
    outcomes: OutcomePool,
    states: CmdStates,
    release_buf: Vec<Cmd>,
    /// Staging buffer for hot-loop observability spans, flushed once
    /// per batch via [`SpanRecorder::record_batch`].
    span_stage: Vec<simkit::obs::Span>,
    /// Memoized flash service times (die sense + channel transfer).
    memo: FlashServiceMemo,
    events_processed: u64,

    // Per-batch state.
    outstanding: u64,
    hop_outstanding: Vec<u64>,
    hop_buffers: Vec<Vec<Cmd>>,
    hop_released: Vec<bool>,
    prep_end: SimTime,

    // Metrics.
    cmd_breakdown: CmdBreakdown,
    die_timeline: TimelineBuilder,
    channel_timeline: TimelineBuilder,
    hop_first: Vec<Option<SimTime>>,
    hop_last: Vec<Option<SimTime>>,
    record_hops: bool,
    energy: EnergyLedger,
    nodes_visited: u64,
    flash_reads: u64,
    sampler_faults: u64,
    channel_bytes_accum: u64,
    /// First page index of the conventional feature-table region (used
    /// only by host-feature-lookup platforms).
    feature_page_base: u64,
    /// Observability spans (disabled by default; one branch per site).
    obs: SpanRecorder,
    /// Functional command-router mirror, instantiated only on
    /// hardware-router platforms with observability enabled. Commands
    /// are routed at spawn and popped at their die grant — pure
    /// bookkeeping that feeds `RouterStats`; the timing model is
    /// untouched.
    router: Option<CommandRouter>,
    /// Cascade recorder, installed only by [`Engine::record_cascade`].
    /// Plain runs never touch it (one `is_some` branch per site), so
    /// recording cannot perturb ordinary timing or digests.
    cascade: Option<CascadeRecorder>,
    /// Recording being replayed, installed only by
    /// [`Engine::replay_with`]. When set, `on_die_req` copies each
    /// `Visit` command's outcome from its record instead of running the
    /// die sampler; everything else — resources, queueing, steps —
    /// executes verbatim, so replayed metrics are byte-identical to a
    /// full run's.
    replay: Option<&'a CascadeRecording>,
    /// Visit commands served from the replay recording (mirrors the
    /// samplers' `executed` counters, faults included).
    replay_executed: u64,

    // Per-query latency tracking (off by default; every site is behind
    // one `lat_on` branch, like the span recorder's `is_enabled`).
    lat_on: bool,
    /// Windowed time-series epoch width (zero disables windows).
    lat_epoch: Duration,
    /// Per-slot critical-path attribution, parallel to `states`.
    lat_paths: Vec<PathAttr>,
    /// Attribution of hop-barrier-buffered commands (spawn time +
    /// inherited path), parallel to `hop_buffers` — buffered commands
    /// hold no state slot, so the path cannot ride in `lat_paths`.
    lat_hop_bufs: Vec<Vec<(SimTime, PathAttr)>>,
    /// Path staged for inheritance by commands spawned from the command
    /// currently retiring (children and host feature reads).
    lat_inherit: PathAttr,
    /// Per-query best-chain reduction, keyed by global query id.
    lat_chains: ChainTable,
    /// Global query-id base of the batch currently in preparation.
    lat_qid_base: u32,
}

impl<'a> Engine<'a> {
    /// Creates an engine for one platform over a DirectGraph image.
    ///
    /// # Panics
    ///
    /// Panics if the SSD geometry's page size differs from the
    /// DirectGraph layout's.
    pub fn new(
        platform: Platform,
        ssd: SsdConfig,
        model: GnnModelConfig,
        dg: &'a DirectGraph,
        seed: u64,
    ) -> Self {
        assert_eq!(
            ssd.geometry.page_size,
            dg.layout().page_size(),
            "SSD geometry and DirectGraph layout disagree on page size"
        );
        let spec = platform.spec();
        let geo = &ssd.geometry;
        let die_cfg = GnnDieConfig {
            num_hops: model.hops,
            fanout: model.fanout,
            feature_bytes: model.feature_bytes() as u16,
        };
        let samplers = (0..geo.total_dies())
            .map(|_| DieSampler::new(die_cfg, seed))
            .collect();
        let hops = model.hops as usize + 2;
        let on_die = match spec.sampling {
            SamplingLocation::Die => ON_DIE_SAMPLE_TIME,
            _ => Duration::ZERO,
        };
        let memo = FlashServiceMemo::new(ssd.timing, on_die, geo.page_size);
        Engine {
            spec,
            model,
            dg,
            dies: vec![SerialResource::new(); geo.total_dies()],
            channels: vec![SerialResource::new(); geo.channels],
            cores: vec![SerialResource::new(); ssd.cores],
            host_cores: vec![SerialResource::new(); ssd.host.cores],
            dram: BandwidthResource::new(ssd.dram_bandwidth),
            pcie: BandwidthResource::new(ssd.pcie_bandwidth),
            samplers,
            calendar: Calendar::new(),
            outcomes: OutcomePool::default(),
            states: CmdStates::default(),
            release_buf: Vec::new(),
            span_stage: Vec::new(),
            memo,
            events_processed: 0,
            outstanding: 0,
            hop_outstanding: vec![0; hops],
            hop_buffers: vec![Vec::new(); hops],
            hop_released: vec![false; hops],
            prep_end: SimTime::ZERO,
            cmd_breakdown: CmdBreakdown::default(),
            die_timeline: TimelineBuilder::new(),
            channel_timeline: TimelineBuilder::new(),
            hop_first: vec![None; hops],
            hop_last: vec![None; hops],
            record_hops: true,
            energy: EnergyLedger::new(),
            nodes_visited: 0,
            flash_reads: 0,
            sampler_faults: 0,
            channel_bytes_accum: 0,
            feature_page_base: dg.image().pages_written() as u64 + 64,
            obs: SpanRecorder::disabled(),
            router: None,
            cascade: None,
            replay: None,
            replay_executed: 0,
            lat_on: false,
            lat_epoch: Duration::ZERO,
            lat_paths: Vec::new(),
            lat_hop_bufs: vec![Vec::new(); hops],
            lat_inherit: PathAttr::default(),
            lat_chains: ChainTable::default(),
            lat_qid_base: 0,
            ssd,
        }
    }

    /// Enables per-query latency tracking: end-to-end latency and
    /// critical-path stage attribution for every target node, reported
    /// through [`RunMetrics::latency`]. `epoch` is the windowed
    /// time-series bucket width ([`Duration::ZERO`] disables windows).
    ///
    /// Tracking is pure bookkeeping on the side of the event loop —
    /// simulated timing, metrics and digests are identical with it on
    /// or off, and a replayed run produces a byte-identical report.
    pub fn with_latency(mut self, epoch: Duration) -> Self {
        self.lat_on = true;
        self.lat_epoch = epoch;
        self
    }

    /// Enables the observability layer, retaining up to `capacity`
    /// spans (die senses, channel transfers, batch phases, compute
    /// windows, command completions — export with
    /// [`simkit::ChromeTraceWriter`]).
    ///
    /// Enabling observability also activates the side collectors that
    /// are too costly (or pointless) on plain runs: the functional
    /// command-router mirror on hardware-router platforms (feeding
    /// [`RunMetrics::router`]) and the FTL setup replay (feeding
    /// [`RunMetrics::ftl`]). None of them perturb simulated timing —
    /// an observed run's `RunMetrics` core figures are identical to an
    /// unobserved run's.
    pub fn with_obs(mut self, capacity: usize) -> Self {
        self.obs = SpanRecorder::with_capacity(capacity);
        if capacity > 0 && self.spec.backend_control == BackendControl::HardwareRouter {
            self.router = Some(CommandRouter::new(&self.ssd.geometry, self.dg.layout()));
        }
        self
    }

    /// Conventional feature-table page of `node`: vectors pack
    /// sequentially after the graph region, striping across dies like
    /// any other page.
    fn feature_page_of(&self, node: u32) -> u64 {
        let per_page =
            (self.ssd.geometry.page_size / self.model.feature_bytes().max(1)).max(1) as u64;
        self.feature_page_base + node as u64 / per_page
    }

    fn spawn_feature_read(&mut self, node: NodeId, hop: u8, subgraph: u32, at: SimTime) {
        let page = directgraph::PageIndex::new(self.feature_page_of(node.as_u32()));
        let addr = self.dg.layout().pack(page, 0);
        let cmd = Cmd {
            sample: SampleCommand {
                target: addr,
                hop,
                count: 0,
                subgraph,
                parent: node.as_u32(),
            },
            kind: CmdKind::FeatureRead,
            rec: NO_REC,
        };
        self.spawn(cmd, at, None);
    }

    /// Runs the full workload: `batches` mini-batches of targets, with
    /// data preparation of batch *i+1* pipelined against computation of
    /// batch *i* (§VI-D).
    pub fn run(self, batches: &[Vec<NodeId>]) -> RunMetrics {
        let mut scratch = EngineScratch::new();
        self.run_with(&mut scratch, batches)
    }

    /// Like [`Engine::run`], but borrows its calendar, drain buffer and
    /// outcome pool from `scratch` so consecutive runs on one worker
    /// reuse warm allocations. Results are identical to [`Engine::run`].
    pub fn run_with(mut self, scratch: &mut EngineScratch, batches: &[Vec<NodeId>]) -> RunMetrics {
        self.run_scoped(scratch, batches)
    }

    /// Like [`Engine::run_with`], but also records the functional
    /// sampling cascade — every flash command with its content, die,
    /// transfer bytes, visited node and children — as a
    /// [`CascadeRecording`] reusable by [`Engine::replay_with`] on any
    /// platform/`SsdConfig` and by the array replay
    /// (`crate::array::ArrayEngine`). Timing and metrics are identical
    /// to an unrecorded run.
    ///
    /// # Panics
    ///
    /// Panics unless the spec is channel-separable
    /// ([`PlatformSpec::channel_separable`]): hop barriers and
    /// host-issued feature reads spawn commands outside the cascade's
    /// parent/child structure.
    pub fn record_cascade(
        mut self,
        scratch: &mut EngineScratch,
        batches: &[Vec<NodeId>],
    ) -> (RunMetrics, CascadeRecording) {
        assert!(
            self.spec.channel_separable(),
            "cascade recording requires a channel-separable spec"
        );
        self.cascade = Some(CascadeRecorder::default());
        let metrics = self.run_scoped(scratch, batches);
        let rec = self.cascade.take().expect("recorder installed above");
        (metrics, rec.finish())
    }

    /// Re-times a recorded cascade under *this* engine's platform and
    /// `SsdConfig` without re-running the die samplers: each `Visit`
    /// command's functional outcome (visited node, feature bytes,
    /// children) is copied from its record while every resource
    /// acquisition, queueing decision and pipeline step executes
    /// exactly as in a full run. Because sampler draws are keyed on
    /// command content (see `beacon_flash::draw_stream_seed`), the
    /// recording is valid for any timing configuration over the same
    /// (DirectGraph, batches, model, seed) — and the returned metrics
    /// are byte-identical to what [`Engine::run_with`] would produce.
    ///
    /// # Panics
    ///
    /// Panics if `recording`'s shape does not match `batches` (batch
    /// count, per-batch root counts, root slots), or — during the
    /// replay itself — if a root record's target disagrees with the
    /// live DirectGraph directory (a recording from a different
    /// workload).
    pub fn replay_with(
        mut self,
        scratch: &mut EngineScratch,
        recording: &'a CascadeRecording,
        batches: &[Vec<NodeId>],
    ) -> RunMetrics {
        assert!(
            recording.matches_batches(batches),
            "cascade recording does not match the batches being replayed"
        );
        self.replay = Some(recording);
        self.run_scoped(scratch, batches)
    }

    fn run_scoped(&mut self, scratch: &mut EngineScratch, batches: &[Vec<NodeId>]) -> RunMetrics {
        scratch.calendar.reset();
        scratch.release_buf.clear();
        scratch.span_stage.clear();
        scratch.outcomes.reset_stats();
        std::mem::swap(&mut self.calendar, &mut scratch.calendar);
        std::mem::swap(&mut self.outcomes, &mut scratch.outcomes);
        std::mem::swap(&mut self.states, &mut scratch.states);
        std::mem::swap(&mut self.release_buf, &mut scratch.release_buf);
        std::mem::swap(&mut self.span_stage, &mut scratch.span_stage);
        let metrics = self.run_inner(batches);
        std::mem::swap(&mut self.calendar, &mut scratch.calendar);
        std::mem::swap(&mut self.outcomes, &mut scratch.outcomes);
        std::mem::swap(&mut self.states, &mut scratch.states);
        std::mem::swap(&mut self.release_buf, &mut scratch.release_buf);
        std::mem::swap(&mut self.span_stage, &mut scratch.span_stage);
        metrics
    }

    fn run_inner(&mut self, batches: &[Vec<NodeId>]) -> RunMetrics {
        let lat_epoch = self.lat_on.then_some(self.lat_epoch);
        let mut pipe = Pipeline::new(&self.spec, self.model, &self.ssd, 1, lat_epoch);
        if self.lat_on {
            let total: usize = batches.iter().map(Vec::len).sum();
            self.lat_chains.reset(total);
            self.lat_qid_base = 0;
        }

        for (bi, batch) in batches.iter().enumerate() {
            self.record_hops = bi == 0;
            let (prep_start, submit) = pipe.open(batch.len(), &mut self.energy);
            let prep_end = self.run_prep(bi, batch, prep_start, submit);
            pipe.close(
                prep_end,
                [(0, batch.len() as u64, SimTime::ZERO)],
                Some(&mut self.pcie),
                &mut self.energy,
                &mut self.obs,
            );
            self.lat_qid_base += batch.len() as u32;
        }

        // Energy from resource busy totals.
        self.energy.core_busy = self
            .cores
            .iter()
            .map(SerialResource::busy_total)
            .sum::<Duration>();
        self.energy.host_cpu_busy = self
            .host_cores
            .iter()
            .map(SerialResource::busy_total)
            .sum::<Duration>();
        self.energy.channel_bytes = self.channel_bytes_accum;
        let run = pipe.finish(
            &self.energy,
            &self.lat_chains,
            &self.die_timeline,
            &self.channel_timeline,
        );

        let stages = StageBreakdown {
            flash_read: self.dies.iter().map(SerialResource::busy_total).sum(),
            channel: self.channels.iter().map(SerialResource::busy_total).sum(),
            firmware: self.cores.iter().map(SerialResource::busy_total).sum(),
            dram: self.dram.busy_total(),
            pcie: self.pcie.busy_total(),
            host: self.host_cores.iter().map(SerialResource::busy_total).sum(),
            accel: run.compute_time,
        };

        let hop_windows = self
            .hop_first
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
            .collect();

        // Registry pool counters are *cold-equivalent*: allocated = the
        // run's peak in use, reused = acquisitions beyond that peak.
        // Unlike raw allocation counts they do not depend on how warm
        // the scratch happened to be, so they are byte-identical across
        // schedules and worker counts.
        let outcome_acquires = self.outcomes.allocated + self.outcomes.reused;
        let mut pools = PoolCounters {
            events_processed: self.events_processed,
            outcome_slots_allocated: self.outcomes.in_use_high_water,
            outcome_slots_reused: outcome_acquires - self.outcomes.in_use_high_water,
            ..PoolCounters::default()
        };
        pools.record_calendar(self.calendar.pool_stats());

        // FTL statistics come from replaying the DirectGraph setup
        // flush — observability runs only (the plain path never builds
        // an FTL).
        let ftl = if self.obs.is_enabled() {
            Self::replay_ftl_setup(self.dg, &self.ssd)
        } else {
            None
        };

        RunMetrics {
            platform: self.spec.name,
            nodes_visited: self.nodes_visited,
            flash_reads: self.flash_reads,
            sampler_faults: self.sampler_faults,
            cmd_breakdown: std::mem::take(&mut self.cmd_breakdown),
            stages,
            hop_windows,
            energy: std::mem::replace(&mut self.energy, EnergyLedger::new()),
            total_dies: self.ssd.geometry.total_dies(),
            total_channels: self.ssd.geometry.channels,
            pools,
            spans: std::mem::replace(&mut self.obs, SpanRecorder::disabled()),
            sampler_executed: self.samplers.iter().map(DieSampler::executed).sum::<u64>()
                + self.replay_executed,
            router: self.router.as_ref().map(CommandRouter::stats),
            ftl,
            ..run
        }
    }

    /// Replays the §VI-A DirectGraph flush through a functional FTL to
    /// recover host-write / GC / erase statistics. The FTL is built over
    /// a capacity-shrunken copy of the run geometry (same channel/die
    /// shape and page size, just enough blocks for the image plus
    /// headroom) so the replay stays cheap at any configured capacity;
    /// the statistics only depend on image size and block geometry.
    fn replay_ftl_setup(dg: &DirectGraph, ssd: &SsdConfig) -> Option<FtlStats> {
        let mut geo = ssd.geometry;
        let pages = dg.image().pages_written();
        let blocks_needed = pages.div_ceil(geo.pages_per_block).max(1);
        let planes = geo.total_dies() * geo.planes_per_die;
        geo.blocks_per_plane = (2 * blocks_needed + 16).div_ceil(planes).max(1);
        let ftl = Ftl::new(&geo, 0.07);
        let mut host = HostAdapter::new(ftl, geo.pages_per_block);
        host.setup_directgraph(dg).ok()?;
        Some(host.ftl().stats())
    }

    /// Simulates batch `bi`'s data preparation, which starts at `t0`
    /// and reaches the device at `start`; returns the completion time.
    fn run_prep(&mut self, bi: usize, batch: &[NodeId], t0: SimTime, start: SimTime) -> SimTime {
        if let Some(c) = self.cascade.as_mut() {
            c.start_batch();
        }
        for s in &mut self.hop_outstanding {
            *s = 0;
        }
        for b in &mut self.hop_buffers {
            b.clear();
        }
        for r in &mut self.hop_released {
            *r = false;
        }
        self.hop_released[0] = true;
        self.outstanding = 0;
        self.prep_end = t0;

        if self.lat_on {
            // Roots start with an empty path; the chain clock starts at
            // `start` (the host handed the batch to the device).
            self.lat_inherit = PathAttr::default();
        }

        let root_base = self.replay.map(|r| r.batch_roots[bi]);
        for (slot, &target) in batch.iter().enumerate() {
            let addr = self
                .dg
                .directory()
                .primary_addr(target)
                .expect("target node in DirectGraph directory");
            let root = SampleCommand::root(addr, slot as u32);
            let rec = match root_base {
                Some(base) => {
                    let rid = base + slot as u32;
                    // A recording keyed to a *different* workload would
                    // silently replay the wrong cascade; the root
                    // targets pin it to this DirectGraph image.
                    assert_eq!(
                        self.replay.expect("replay active").command(rid).target,
                        addr,
                        "cascade recording disagrees with the DirectGraph directory"
                    );
                    rid
                }
                None => NO_REC,
            };
            self.spawn(
                Cmd {
                    sample: root,
                    kind: CmdKind::Visit,
                    rec,
                },
                start,
                None,
            );
        }
        self.drain();
        // Flush the spans the handlers staged during the drain, in
        // exactly the order they were staged — identical sequence
        // numbering to per-call recording, one push loop per batch.
        self.obs.record_batch(&mut self.span_stage);
        self.prep_end
    }

    /// Registers a command as outstanding and schedules (or buffers) its
    /// arrival. `src_channel` is the channel the command was generated
    /// on (None for host-injected roots) — it only feeds the
    /// observability router mirror's cross-channel statistic.
    fn spawn(&mut self, mut cmd: Cmd, at: SimTime, src_channel: Option<usize>) {
        if let Some(router) = self.router.as_mut() {
            router.route_from(cmd.sample, src_channel);
        }
        let hop = cmd.sample.hop as usize;
        self.outstanding += 1;
        self.hop_outstanding[hop] += 1;
        if self.spec.hop_barrier && !self.hop_released[hop] {
            // Barrier-buffered commands take no state slot yet; the
            // slot is acquired when the hop releases and the command
            // actually enters the pipeline. (`cmd.rec` rides along in
            // the buffered command.)
            self.hop_buffers[hop].push(cmd);
            if self.lat_on {
                self.lat_hop_bufs[hop].push((at, self.lat_inherit));
            }
        } else {
            if let Some(c) = self.cascade.as_mut() {
                // Records are appended in spawn order, so a record's
                // children (spawned back-to-back from its completion)
                // occupy consecutive indices after it.
                cmd.rec = c.append(&cmd.sample);
            }
            let si = self.states.acquire(cmd);
            if self.lat_on {
                let p = self.lat_inherit;
                self.lat_set_path(si, p);
            }
            self.calendar.schedule(at, ev(EV_ARRIVE, si));
        }
    }

    /// Installs a command's inherited path at its state slot, growing
    /// the sidecar to match a warm scratch's slot range.
    fn lat_set_path(&mut self, si: u32, p: PathAttr) {
        let i = si as usize;
        if self.lat_paths.len() <= i {
            self.lat_paths.resize(i + 1, PathAttr::default());
        }
        self.lat_paths[i] = p;
    }

    fn drain(&mut self) {
        // One-at-a-time pop loop. Handlers frequently schedule
        // follow-up events at the current instant; those carry higher
        // sequence numbers than anything already queued, so popping
        // directly delivers the exact order the old batch-drain loop
        // (and any serial reference) produces — without staging every
        // event through an intermediate buffer first.
        let mut processed = 0u64;
        while let Some((now, word)) = self.calendar.pop() {
            processed += 1;
            let payload = (word >> 3) as u32;
            match word & 0b111 {
                EV_ARRIVE => self.on_arrive(payload, now),
                EV_PRE => self.on_pre(payload, now),
                EV_DIE_REQ => self.on_die_req(payload, now),
                EV_XFER_REQ => self.on_xfer_req(payload, now),
                EV_POST => self.on_post(payload, now),
                _ => self.on_release_hop(payload as u8, now),
            }
        }
        self.events_processed += processed;
    }

    fn on_arrive(&mut self, si: u32, now: SimTime) {
        let cmd = self.states.cmd[si as usize];
        self.states.created[si as usize] = now;
        if self.record_hops {
            let h = cmd.sample.hop as usize;
            self.hop_first[h] = Some(self.hop_first[h].map_or(now, |t| t.min(now)));
        }
        let mut pre = StepQueue::new();
        if cmd.kind == CmdKind::FeatureRead {
            // Host-issued feature-table read.
            pre.push_back(Step::Host(self.ssd.host.storage_stack_per_io));
            pre.push_back(Step::Fixed(self.ssd.host.nvme_roundtrip / 2));
            pre.push_back(Step::Core(
                self.ssd.firmware.nvme_command
                    + self.ssd.firmware.ftl_lookup
                    + self.ssd.firmware.flash_issue,
            ));
            self.states.steps[si as usize] = pre;
            self.calendar.schedule(now, ev(EV_PRE, si));
            return;
        }
        match self.spec.sampling {
            SamplingLocation::HostCpu => {
                // Each read is a host-issued NVMe I/O: storage stack on a
                // host core, wire round trip, poller + FTL + issue on an
                // embedded core.
                pre.push_back(Step::Host(self.ssd.host.storage_stack_per_io));
                pre.push_back(Step::Fixed(self.ssd.host.nvme_roundtrip / 2));
                pre.push_back(Step::Core(
                    self.ssd.firmware.nvme_command
                        + self.ssd.firmware.ftl_lookup
                        + self.ssd.firmware.flash_issue,
                ));
            }
            SamplingLocation::Firmware | SamplingLocation::Die => match self.spec.backend_control {
                BackendControl::Firmware => {
                    let ftl = if self.spec.direct_graph {
                        Duration::ZERO
                    } else {
                        self.ssd.firmware.ftl_lookup
                    };
                    pre.push_back(Step::Core(self.ssd.firmware.flash_issue + ftl));
                }
                BackendControl::HardwareRouter => {
                    self.energy.router_cmds += 1;
                    pre.push_back(Step::Fixed(self.ssd.router_latency));
                }
            },
        }
        self.states.steps[si as usize] = pre;
        self.calendar.schedule(now, ev(EV_PRE, si));
    }

    fn on_pre(&mut self, si: u32, now: SimTime) {
        match self.states.steps[si as usize].pop_front() {
            None => {
                self.calendar.schedule(now, ev(EV_DIE_REQ, si));
            }
            Some(step) => {
                let g = self.exec_step(step, now);
                if self.lat_on {
                    let p = &mut self.lat_paths[si as usize];
                    p.add(Stage::Queue, g.start.saturating_duration_since(now));
                    p.add(Self::step_stage(step), g.end - g.start);
                }
                self.calendar.schedule(g.end, ev(EV_PRE, si));
            }
        }
    }

    /// The critical-path stage a pipeline step's service time lands in.
    fn step_stage(step: Step) -> Stage {
        match step {
            Step::Core(_) => Stage::Firmware,
            Step::Host(_) => Stage::Host,
            Step::Dram(_) => Stage::Dram,
            Step::Pcie(_) => Stage::Pcie,
            Step::Fixed(_) => Stage::Other,
        }
    }

    fn on_die_req(&mut self, si: u32, now: SimTime) {
        let cmd = self.states.cmd[si as usize];
        let die = self.die_of(cmd);
        let grant = self.dies[die].acquire(now, self.memo.die_service);
        self.die_timeline.push(die, grant.start, grant.end);
        if self.lat_on {
            let p = &mut self.lat_paths[si as usize];
            p.add(Stage::Queue, grant.start.saturating_duration_since(now));
            p.add(Stage::DieSense, grant.end - grant.start);
        }
        if self.obs.is_enabled() {
            self.span_stage.push(simkit::obs::Span {
                kind: UnitKind::Die,
                unit: die as u32,
                name: "sense",
                start: grant.start,
                end: grant.end,
                value: cmd.sample.hop as f64,
                seq: 0,
            });
            if let Some(router) = self.router.as_mut() {
                // Mirror the round-robin issuer: this die went idle and
                // accepted its next dispatch-queue command.
                let channel = die % self.ssd.geometry.channels;
                router.issue_for_channel(channel, |d| d.index() == die);
            }
        }
        self.flash_reads += 1;
        self.energy.flash_page_reads += 1;
        if self.spec.sampling == SamplingLocation::Die {
            self.energy.sampler_cmds += 1;
        }

        // Functional sampling executes on the die's data now (the same
        // selection semantics apply wherever sampling logically runs;
        // only the *costs* differ by platform). Feature-table reads
        // just return the vector. A §VI-E on-die check failure aborts
        // the command: its subtree is dropped, control returns to
        // firmware, and the run continues. The outcome is written into
        // a pooled slot whose command vector is recycled across
        // commands — no per-command heap allocation.
        let dg = self.dg;
        let oi = self.outcomes.acquire();
        let mut fault = false;
        match cmd.kind {
            CmdKind::FeatureRead => {
                let feature_bytes = self.model.feature_bytes();
                let out = &mut self.outcomes.slots[oi as usize];
                debug_assert!(out.visited.is_none() && out.new_commands.is_empty());
                out.feature_bytes = feature_bytes;
            }
            CmdKind::Visit => {
                if let Some(recording) = self.replay {
                    // Replay: the recorded outcome substitutes for the
                    // sampler — no page parse, no draws. A recorded
                    // fault leaves the outcome cleared, exactly like
                    // `execute_into`'s error path.
                    self.replay_executed += 1;
                    fault = recording.fill_outcome(cmd.rec, &mut self.outcomes.slots[oi as usize]);
                } else {
                    // `execute_into` leaves the outcome cleared on
                    // error — exactly the empty outcome the abort path
                    // needs.
                    fault = self.samplers[die]
                        .execute_into(
                            &cmd.sample,
                            dg.image(),
                            &mut self.outcomes.slots[oi as usize],
                        )
                        .is_err();
                }
                if fault {
                    self.sampler_faults += 1;
                }
            }
        }
        if let Some(c) = self.cascade.as_mut() {
            let r = &mut c.recs[cmd.rec as usize];
            r.die = die as u32;
            r.fault = fault;
        }
        self.cmd_breakdown.wait_before_flash.record_duration(
            grant
                .start
                .saturating_duration_since(self.states.created[si as usize]),
        );
        self.states.tmark[si as usize] = grant.start;
        self.states.oi[si as usize] = oi;
        self.states.die[si as usize] = die as u32;
        self.calendar.schedule(grant.end, ev(EV_XFER_REQ, si));
    }

    fn on_xfer_req(&mut self, si: u32, now: SimTime) {
        let cmd = self.states.cmd[si as usize];
        let die = self.states.die[si as usize] as usize;
        let die_start = self.states.tmark[si as usize];
        let oi = self.states.oi[si as usize];
        let channel = die % self.ssd.geometry.channels;
        let bytes = match self.spec.transfer {
            TransferGranularity::Page => self.ssd.geometry.page_size as u64,
            TransferGranularity::Useful => self.outcomes.get(oi).result_bytes() as u64,
        };
        let service = self.memo.xfer_service(bytes);
        let grant = self.channels[channel].acquire(now, service);
        self.channel_timeline.push(channel, grant.start, grant.end);
        if self.lat_on {
            let p = &mut self.lat_paths[si as usize];
            p.add(Stage::Queue, grant.start.saturating_duration_since(now));
            p.add(Stage::Channel, grant.end - grant.start);
        }
        if self.obs.is_enabled() {
            self.span_stage.push(simkit::obs::Span {
                kind: UnitKind::Channel,
                unit: channel as u32,
                name: "xfer",
                start: grant.start,
                end: grant.end,
                value: bytes as f64,
                seq: 0,
            });
        }
        self.channel_bytes_accum += bytes;
        if let Some(c) = self.cascade.as_mut() {
            c.recs[cmd.rec as usize].result_bytes = bytes as u32;
        }
        // The command's own flash processing: die service (sense +
        // on-die sampling, from die grant start to `now`) plus its own
        // channel transfer. Queueing for the channel counts as wait
        // (paper Fig 17's definition: flash-proper time is small).
        let chan_wait = grant.start.saturating_duration_since(now);
        self.cmd_breakdown
            .flash
            .record_duration((now - die_start) + (grant.end - grant.start));

        let steps = self.post_steps(&cmd, oi, bytes);
        self.states.steps[si as usize] = steps;
        self.states.tmark[si as usize] = grant.end;
        self.states.chan_wait[si as usize] = chan_wait;
        self.calendar.schedule(grant.end, ev(EV_POST, si));
    }

    fn post_steps(&self, cmd: &Cmd, oi: OutcomeIdx, xfer_bytes: u64) -> StepQueue {
        let outcome = self.outcomes.get(oi);
        let fw = &self.ssd.firmware;
        let mut steps = StepQueue::new();
        if cmd.kind == CmdKind::FeatureRead {
            // Feature-table page: stage in DRAM (write + read-back),
            // complete the I/O, ship the page to the host over PCIe.
            steps.push_back(Step::Dram(2 * xfer_bytes));
            steps.push_back(Step::Core(fw.flash_complete + fw.dma_config));
            steps.push_back(Step::Pcie(xfer_bytes));
            return steps;
        }
        match self.spec.transfer {
            TransferGranularity::Page => {
                // Page lands in SSD DRAM and is read back by whoever
                // samples from it — the write + read staging cost of
                // the paper's Challenge 3.
                steps.push_back(Step::Dram(2 * xfer_bytes));
                match self.spec.sampling {
                    SamplingLocation::Firmware => {
                        let work = fw.flash_complete
                            + fw.dma_config
                            + fw.sample_fixed
                            + fw.sample_per_neighbor * outcome.new_commands.len() as u64;
                        steps.push_back(Step::Core(work));
                        if self.spec.features_cross_pcie
                            && !self.spec.host_feature_lookup
                            && outcome.feature_bytes > 0
                        {
                            // Firmware extracts the vector, ships it to
                            // the host-side compute engine.
                            steps.push_back(Step::Pcie(outcome.feature_bytes as u64));
                        }
                        if self.spec.hop_barrier && !outcome.new_commands.is_empty() {
                            // Sampled ids stream back to the host.
                            steps.push_back(Step::Pcie(
                                outcome.new_commands.len() as u64 * NODE_ID_BYTES,
                            ));
                        }
                    }
                    SamplingLocation::HostCpu => {
                        steps.push_back(Step::Core(fw.flash_complete + fw.dma_config));
                        // The page crosses PCIe to the host, which
                        // samples from it in software.
                        steps.push_back(Step::Pcie(xfer_bytes));
                        steps.push_back(Step::Host(
                            self.ssd.host.sample_per_neighbor
                                * outcome.new_commands.len().max(1) as u64,
                        ));
                    }
                    SamplingLocation::Die => unreachable!("die sampling implies useful transfer"),
                }
            }
            TransferGranularity::Useful => {
                match self.spec.backend_control {
                    BackendControl::Firmware => {
                        steps.push_back(Step::Core(
                            fw.flash_complete + fw.parse_result + fw.dma_config,
                        ));
                    }
                    BackendControl::HardwareRouter => {
                        steps.push_back(Step::Fixed(self.ssd.router_latency));
                    }
                }
                if outcome.feature_bytes > 0 && !self.ssd.dram_bypass {
                    steps.push_back(Step::Dram(outcome.feature_bytes as u64));
                }
                if self.spec.features_cross_pcie && outcome.feature_bytes > 0 {
                    steps.push_back(Step::Pcie(outcome.feature_bytes as u64));
                }
                if self.spec.hop_barrier && !outcome.new_commands.is_empty() {
                    steps.push_back(Step::Pcie(
                        outcome.new_commands.len() as u64 * NODE_ID_BYTES,
                    ));
                }
            }
        }
        steps
    }

    fn on_post(&mut self, si: u32, now: SimTime) {
        if let Some(step) = self.states.steps[si as usize].pop_front() {
            let g = self.exec_step(step, now);
            if self.lat_on {
                let p = &mut self.lat_paths[si as usize];
                p.add(Stage::Queue, g.start.saturating_duration_since(now));
                p.add(Self::step_stage(step), g.end - g.start);
            }
            self.calendar.schedule(g.end, ev(EV_POST, si));
            return;
        }
        let cmd = self.states.cmd[si as usize];
        let xfer_end = self.states.tmark[si as usize];
        let chan_wait = self.states.chan_wait[si as usize];
        let oi = self.states.oi[si as usize];
        if self.lat_on {
            // The command retires here: offer its chain to the query's
            // reduction and stage its path for any spawns below
            // (children, host feature reads) to inherit.
            let p = self.lat_paths[si as usize];
            self.lat_chains
                .observe((self.lat_qid_base + cmd.sample.subgraph) as usize, now, &p);
            self.lat_inherit = p;
        }
        // Command fully processed. Channel-queue wait counts toward
        // wait_after_flash (it happens after the sense completes).
        self.cmd_breakdown
            .wait_after_flash
            .record_duration(chan_wait + now.saturating_duration_since(xfer_end));
        if self.obs.is_enabled() {
            self.span_stage.push(simkit::obs::Span {
                kind: UnitKind::Engine,
                unit: 0,
                name: "cmd_done",
                start: now,
                end: now,
                value: cmd.sample.hop as f64,
                seq: 0,
            });
        }
        if self.record_hops {
            let h = cmd.sample.hop as usize;
            self.hop_last[h] = Some(self.hop_last[h].map_or(now, |t| t.max(now)));
        }
        if let Some(node) = self.outcomes.get(oi).visited {
            self.nodes_visited += 1;
            if self.spec.host_feature_lookup {
                // Feature lookup stays on the host: fetch this node's
                // feature-table page as a separate host I/O.
                self.spawn_feature_read(node, cmd.sample.hop, cmd.sample.subgraph, now);
            }
        }
        if let Some(c) = self.cascade.as_mut() {
            let rid = cmd.rec as usize;
            let next = u32::try_from(c.recs.len()).expect("cascade log overflow");
            let out = self.outcomes.get(oi);
            let r = &mut c.recs[rid];
            r.visited = out.visited.map_or(u32::MAX, |n| n.as_u32());
            r.feature_bytes = out.feature_bytes as u32;
            r.children_start = next;
            r.children_len = out.new_commands.len() as u32;
        }
        // Children inherit this command's channel as their routing
        // source (observability only; `None` keeps the plain path free
        // of the die_of recomputation).
        let src_channel = if self.router.is_some() {
            Some(self.die_of(cmd) % self.ssd.geometry.channels)
        } else {
            None
        };
        // Under replay, children take their record indices from the
        // parent's recorded children range (same consecutive layout the
        // recorder produced).
        let child_base = match self.replay {
            Some(r) if cmd.rec != NO_REC => r.recs[cmd.rec as usize].children_start,
            _ => NO_REC,
        };
        // Index loop: `spawn` needs `&mut self`, and each child is a
        // small `Copy` record, so re-borrowing per iteration is free.
        for i in 0..self.outcomes.get(oi).new_commands.len() {
            let child = self.outcomes.get(oi).new_commands[i];
            let rec = if child_base == NO_REC {
                NO_REC
            } else {
                child_base + i as u32
            };
            self.spawn(
                Cmd {
                    sample: child,
                    kind: CmdKind::Visit,
                    rec,
                },
                now,
                src_channel,
            );
        }
        self.outcomes.release(oi);
        self.states.release(si);
        self.complete(cmd, now);
    }

    fn complete(&mut self, cmd: Cmd, now: SimTime) {
        let hop = cmd.sample.hop as usize;
        self.outstanding -= 1;
        self.hop_outstanding[hop] -= 1;
        self.prep_end = self.prep_end.max(now);

        if self.spec.hop_barrier
            && self.hop_outstanding[hop] == 0
            && self.hop_released[hop]
            && hop + 1 < self.hop_buffers.len()
            && !self.hop_released[hop + 1]
            && !self.hop_buffers[hop + 1].is_empty()
        {
            // Hop drained: host round trip (gather results, translate
            // across the host cores, command the next hop).
            let next = &self.hop_buffers[hop + 1];
            let host_work = if self.spec.direct_graph {
                Duration::ZERO
            } else {
                self.ssd.host.translate_per_node * next.len() as u64 / self.ssd.host.cores as u64
            };
            let release_at = now + self.ssd.host.nvme_roundtrip + host_work;
            self.energy.host_cpu_busy += host_work * self.ssd.host.cores as u64;
            self.calendar
                .schedule(release_at, ev(EV_RELEASE_HOP, (hop + 1) as u32));
        }
    }

    fn on_release_hop(&mut self, hop: u8, now: SimTime) {
        self.hop_released[hop as usize] = true;
        // Swap the buffer out through a reusable scratch vector so both
        // the hop buffer and the scratch keep their capacity — the old
        // `mem::take` here leaked the allocation every release.
        debug_assert!(self.release_buf.is_empty());
        std::mem::swap(&mut self.release_buf, &mut self.hop_buffers[hop as usize]);
        for i in 0..self.release_buf.len() {
            let cmd = self.release_buf[i];
            let si = self.states.acquire(cmd);
            if self.lat_on {
                // Barrier wait from spawn to release is queueing.
                let (at, mut p) = self.lat_hop_bufs[hop as usize][i];
                p.add(Stage::Queue, now.saturating_duration_since(at));
                self.lat_set_path(si, p);
            }
            self.calendar.schedule(now, ev(EV_ARRIVE, si));
        }
        self.release_buf.clear();
        if self.lat_on {
            self.lat_hop_bufs[hop as usize].clear();
        }
    }

    fn exec_step(&mut self, step: Step, now: SimTime) -> Grant {
        match step {
            Step::Core(d) => {
                let core = Self::least_loaded(&self.cores);
                self.cores[core].acquire(now, d)
            }
            Step::Host(d) => {
                let core = Self::least_loaded(&self.host_cores);
                self.host_cores[core].acquire(now, d)
            }
            Step::Dram(bytes) => {
                self.energy.dram_bytes += bytes;
                self.dram.transfer(now, bytes)
            }
            Step::Pcie(bytes) => {
                self.energy.pcie_bytes += bytes;
                self.pcie.transfer(now, bytes)
            }
            Step::Fixed(d) => Grant {
                start: now,
                end: now + d,
            },
        }
    }

    fn least_loaded(pool: &[SerialResource]) -> usize {
        pool.iter()
            .enumerate()
            .min_by_key(|(_, r)| r.next_free())
            .map(|(i, _)| i)
            .expect("resource pool is non-empty")
    }

    fn die_of(&self, cmd: Cmd) -> usize {
        let (page, _) = self.dg.layout().unpack(cmd.sample.target);
        self.ssd.geometry.die_of(page).index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run_platform(p: Platform, batches: usize, batch_size: usize) -> RunMetrics {
        let dg = make_dg(3_000, 30.0, 200);
        let model = GnnModelConfig::paper_default(200);
        let ssd = SsdConfig::paper_default();
        let targets: Vec<Vec<NodeId>> = (0..batches)
            .map(|b| {
                (0..batch_size)
                    .map(|i| NodeId::new(((b * batch_size + i) % 3_000) as u32))
                    .collect()
            })
            .collect();
        Engine::new(p, ssd, model, &dg, 42).run(&targets)
    }

    #[test]
    fn all_platforms_complete() {
        for p in Platform::ALL {
            let m = run_platform(p, 1, 16);
            assert_eq!(m.targets, 16, "{p}");
            assert!(m.makespan > Duration::ZERO, "{p}");
            assert!(m.nodes_visited >= 16, "{p}: visited {}", m.nodes_visited);
            assert!(m.throughput() > 0.0, "{p}");
        }
    }

    #[test]
    fn bg2_outperforms_cc_substantially() {
        let cc = run_platform(Platform::Cc, 2, 32);
        let bg2 = run_platform(Platform::Bg2, 2, 32);
        let speedup = bg2.throughput() / cc.throughput();
        assert!(speedup > 3.0, "BG-2 speedup over CC only {speedup:.2}x");
    }

    #[test]
    fn ablation_chain_is_monotone() {
        let tps: Vec<(Platform, f64)> = Platform::BG_CHAIN
            .iter()
            .map(|&p| (p, run_platform(p, 2, 128).throughput()))
            .collect();
        for w in tps.windows(2) {
            assert!(
                w[1].1 >= w[0].1 * 0.95,
                "{} ({:.0}) should be >= {} ({:.0})",
                w[1].0,
                w[1].1,
                w[0].0,
                w[0].1
            );
        }
    }

    #[test]
    fn die_sampling_reduces_channel_traffic() {
        let bg1 = run_platform(Platform::Bg1, 1, 16);
        let bgsp = run_platform(Platform::BgSp, 1, 16);
        assert!(
            bgsp.energy.channel_bytes < bg1.energy.channel_bytes / 3,
            "useful transfer should slash channel bytes: {} vs {}",
            bgsp.energy.channel_bytes,
            bg1.energy.channel_bytes
        );
    }

    #[test]
    fn directgraph_improves_over_bg1_marginally() {
        // Paper §VII-B: BG-DG has only a marginal improvement over BG-1
        // because whole-page transfer still dominates — same reads, no
        // barriers.
        let bg1 = run_platform(Platform::Bg1, 2, 128);
        let bgdg = run_platform(Platform::BgDg, 2, 128);
        assert_eq!(bgdg.flash_reads, bg1.flash_reads);
        let ratio = bgdg.throughput() / bg1.throughput();
        assert!(ratio >= 1.0, "BG-DG should not regress: {ratio:.2}");
        assert!(ratio < 2.0, "BG-DG over BG-1 should be modest: {ratio:.2}");
    }

    #[test]
    fn barrier_platforms_have_ordered_hops() {
        let m = run_platform(Platform::Bg1, 1, 16);
        // With a hop barrier, hop h+1's first command starts after hop
        // h's last completes.
        for w in m.hop_windows.windows(2) {
            assert!(
                w[1].start >= w[0].end,
                "hops {} and {} overlap under a barrier",
                w[0].hop,
                w[1].hop
            );
        }
    }

    #[test]
    fn out_of_order_platforms_overlap_hops() {
        let m = run_platform(Platform::Bg2, 1, 64);
        let overlapping = m.hop_windows.windows(2).any(|w| w[1].start < w[0].end);
        assert!(overlapping, "BG-2 should overlap hops: {:?}", m.hop_windows);
    }

    #[test]
    fn corrupt_sections_fault_gracefully() {
        use directgraph::PageIndex;
        let mut dg = make_dg(1_000, 20.0, 64);
        // Stomp a page so any command landing there fails the on-die
        // §VI-E check.
        let victim = PageIndex::new(3);
        let mut page = dg.image().read_page(victim).unwrap().to_vec();
        page[0] = 0xEE; // bogus section kind
        dg.image_mut().write_page(victim, page.into_boxed_slice());

        let model = GnnModelConfig::paper_default(64);
        let batch: Vec<NodeId> = (0..64).map(NodeId::new).collect();
        let m = Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 5).run(&[batch]);
        // The run completes; faulted subtrees are dropped.
        assert!(
            m.sampler_faults > 0,
            "expected faults from the corrupt page"
        );
        assert!(m.nodes_visited < 64 * model.subgraph_nodes());
        assert!(m.throughput() > 0.0);
    }

    #[test]
    fn healthy_runs_have_zero_faults() {
        let m = run_platform(Platform::Bg2, 1, 16);
        assert_eq!(m.sampler_faults, 0);
    }

    #[test]
    fn summary_is_informative() {
        let m = run_platform(Platform::Bg2, 1, 16);
        let s = m.summary();
        assert!(s.contains("BG-2"));
        assert!(s.contains("targets/s"));
        assert!(s.contains("flash reads"));
        assert!(
            !s.contains("sampler faults"),
            "healthy run mentions no faults"
        );
    }

    #[test]
    fn tracing_records_lifecycle_events() {
        let dg = make_dg(1_000, 20.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let batch: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let m = Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 1)
            .with_obs(100_000)
            .run(&[batch]);
        assert_eq!(m.spans.dropped(), 0);
        let names: std::collections::HashSet<&str> = m.spans.iter().map(|s| s.name).collect();
        for name in ["sense", "xfer", "cmd_done"] {
            assert!(names.contains(name), "missing {name}");
        }
        // One cmd_done per flash command.
        let dones = m.spans.iter().filter(|s| s.name == "cmd_done").count() as u64;
        assert_eq!(dones, m.flash_reads);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let dg = make_dg(2_000, 25.0, 128);
        let model = GnnModelConfig::paper_default(128);
        let ssd = SsdConfig::paper_default();
        let batch: Vec<NodeId> = (0..32).map(NodeId::new).collect();
        let plain =
            Engine::new(Platform::Bg2, ssd, model, &dg, 9).run(std::slice::from_ref(&batch));
        let observed = Engine::new(Platform::Bg2, ssd, model, &dg, 9)
            .with_obs(1 << 20)
            .run(&[batch]);
        // Observability must not perturb the simulation.
        assert_eq!(observed.makespan, plain.makespan);
        assert_eq!(observed.nodes_visited, plain.nodes_visited);
        assert_eq!(observed.flash_reads, plain.flash_reads);
        assert_eq!(observed.energy.channel_bytes, plain.energy.channel_bytes);
        // The plain run collects no side channels...
        assert!(plain.spans.is_empty() && plain.router.is_none() && plain.ftl.is_none());
        // ...the observed run collects all of them.
        assert!(!observed.spans.is_empty());
        let senses = observed
            .spans
            .iter()
            .filter(|s| s.kind == simkit::UnitKind::Die && s.name == "sense")
            .count() as u64;
        assert_eq!(senses, observed.flash_reads);
        let router = observed.router.expect("BG-2 mirrors the router");
        assert_eq!(router.routed, observed.flash_reads);
        assert_eq!(router.issued, observed.flash_reads);
        assert!(router.cross_channel > 0, "{router:?}");
        assert!(router.max_queue_depth >= 1);
        let ftl = observed.ftl.expect("obs runs replay the FTL setup");
        // The DirectGraph flush programs *reserved* blocks, which
        // bypass the regular write path: the setup cost shows up as
        // erases (one P/E per reserved block), not host writes.
        assert_eq!(ftl.host_writes, 0);
        assert_eq!(ftl.gc_writes, 0);
        let blocks_needed =
            dg.image()
                .pages_written()
                .div_ceil(SsdConfig::paper_default().geometry.pages_per_block) as u64;
        assert_eq!(ftl.erases, blocks_needed);
        assert!(ftl.waf() >= 1.0);
        assert_eq!(observed.sampler_executed, plain.sampler_executed);
        assert!(observed.accel_occupancy.systolic > 0.0);
        assert!(observed.accel_occupancy.systolic <= 1.0);
        assert!(observed.accel_occupancy.vector > 0.0);
        assert!(observed.accel_occupancy.vector <= 1.0);
    }

    #[test]
    fn metrics_report_is_byte_stable_and_complete() {
        let dg = make_dg(1_000, 20.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let batch: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        let run = || {
            Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 3)
                .with_obs(1 << 18)
                .run(std::slice::from_ref(&batch))
        };
        let a = run().metrics_registry().to_json_string();
        let b = run().metrics_registry().to_json_string();
        assert_eq!(a, b, "identical runs must serialize byte-identically");
        for section in [
            "\"run\"",
            "\"command_breakdown\"",
            "\"stages\"",
            "\"die_utilization\"",
            "\"channel_utilization\"",
            "\"hops\"",
            "\"router\"",
            "\"ftl\"",
            "\"accelerator\"",
            "\"energy\"",
            "\"pools\"",
            "\"trace\"",
            "\"latency\"",
            "\"latency_breakdown\"",
            "\"replay\"",
        ] {
            assert!(a.contains(section), "missing section {section}");
        }
        assert!(a.contains("\"present\": true"));
    }

    #[test]
    fn firmware_platforms_have_no_router_mirror() {
        let dg = make_dg(1_000, 20.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let batch: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let m = Engine::new(Platform::Bg1, SsdConfig::paper_default(), model, &dg, 3)
            .with_obs(1 << 16)
            .run(&[batch]);
        assert!(m.router.is_none(), "BG-1 is firmware-controlled");
        assert!(m.ftl.is_some(), "FTL replay is platform-independent");
        let reg = m.metrics_registry();
        let router = reg.get("router").unwrap();
        assert_eq!(
            router.get("present"),
            Some(&simkit::MetricValue::Bool(false))
        );
        assert_eq!(router.get("routed"), Some(&simkit::MetricValue::U64(0)));
    }

    #[test]
    fn steady_state_reuses_event_and_outcome_pools() {
        let m = run_platform(Platform::Bg2, 2, 64);
        assert!(m.pools.events_processed > 1_000, "{:?}", m.pools);
        // Pending events plateau at peak concurrency; the vast
        // majority of schedules land beyond that peak.
        assert!(
            m.pools.event_slots_reused > 4 * m.pools.event_slots_allocated,
            "event pool not recycling in steady state: {:?}",
            m.pools
        );
        // One outcome per flash command, held only across its own
        // pipeline: the pool stays small and recycles heavily.
        assert!(
            m.pools.outcome_slots_reused > 4 * m.pools.outcome_slots_allocated,
            "outcome pool not recycling in steady state: {:?}",
            m.pools
        );
    }

    #[test]
    fn shared_scratch_is_bit_identical_and_warm() {
        let dg = make_dg(2_000, 25.0, 128);
        let model = GnnModelConfig::paper_default(128);
        let ssd = SsdConfig::paper_default();
        let targets: Vec<Vec<NodeId>> = (0..2)
            .map(|b| (0..48).map(|i| NodeId::new(b * 48 + i)).collect())
            .collect();

        let fresh = Engine::new(Platform::Bg2, ssd, model, &dg, 42).run(&targets);
        let mut scratch = EngineScratch::new();
        let first =
            Engine::new(Platform::Bg2, ssd, model, &dg, 42).run_with(&mut scratch, &targets);
        let second =
            Engine::new(Platform::Bg2, ssd, model, &dg, 42).run_with(&mut scratch, &targets);

        for m in [&first, &second] {
            assert_eq!(m.makespan, fresh.makespan);
            assert_eq!(m.nodes_visited, fresh.nodes_visited);
            assert_eq!(m.flash_reads, fresh.flash_reads);
            assert_eq!(m.energy.channel_bytes, fresh.energy.channel_bytes);
        }
        // Pool counters are cold-equivalent demand, so scratch warmth is
        // invisible: cold, first-warm and second-warm runs report the
        // same registry bytes (the property the record/replay matrix
        // path depends on at any --jobs count).
        assert_eq!(
            second.pools, first.pools,
            "pool counters leaked scratch warmth"
        );
        assert_eq!(
            second.pools, fresh.pools,
            "pool counters leaked scratch warmth"
        );
        assert_eq!(second.pools.events_processed, first.pools.events_processed);
    }

    #[test]
    fn replay_is_byte_identical_on_every_platform_and_timing() {
        // One BG-2 recording re-times byte-identically on all eight
        // platforms under several device configurations — the invariant
        // the record-once/replay-many matrix path rests on.
        let dg = make_dg(2_000, 25.0, 128);
        let model = GnnModelConfig::paper_default(128);
        let batches: Vec<Vec<NodeId>> = (0..2)
            .map(|b| (0..24).map(|i| NodeId::new(b * 24 + i)).collect())
            .collect();
        let mut scratch = EngineScratch::new();
        let canonical = SsdConfig::paper_default();
        let (rec_metrics, recording) = Engine::new(Platform::Bg2, canonical, model, &dg, 42)
            .record_cascade(&mut scratch, &batches);
        assert!(recording.matches_batches(&batches));

        // The recording run itself is indistinguishable from a plain run.
        let plain = Engine::new(Platform::Bg2, canonical, model, &dg, 42).run(&batches);
        assert_eq!(
            plain.metrics_registry().to_json_string(),
            rec_metrics.metrics_registry().to_json_string()
        );

        let configs = [
            canonical,
            canonical.with_cores(7),
            canonical.with_channels(4).with_dies_per_channel(4),
        ];
        // One shared scratch serves both paths: pool counters are
        // cold-equivalent demand, so interleaving full and replayed
        // runs on the same warming scratch cannot shift a byte.
        for p in Platform::ALL {
            for ssd in configs {
                let full = Engine::new(p, ssd, model, &dg, 42).run_with(&mut scratch, &batches);
                let replayed = Engine::new(p, ssd, model, &dg, 42).replay_with(
                    &mut scratch,
                    &recording,
                    &batches,
                );
                assert_eq!(
                    full.metrics_registry().to_json_string(),
                    replayed.metrics_registry().to_json_string(),
                    "replay drifted from full run: {p} / {ssd:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match the batches")]
    fn replay_rejects_mismatched_batches() {
        let dg = make_dg(1_000, 20.0, 64);
        let model = GnnModelConfig::paper_default(64);
        let batch: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let mut scratch = EngineScratch::new();
        let (_, recording) = Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 1)
            .record_cascade(&mut scratch, std::slice::from_ref(&batch));
        let other: Vec<NodeId> = (0..9).map(NodeId::new).collect();
        Engine::new(Platform::Bg2, SsdConfig::paper_default(), model, &dg, 1).replay_with(
            &mut scratch,
            &recording,
            &[other],
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_platform(Platform::Bg2, 1, 16);
        let b = run_platform(Platform::Bg2, 1, 16);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.flash_reads, b.flash_reads);
        assert_eq!(a.nodes_visited, b.nodes_visited);
    }

    #[test]
    fn cc_spends_energy_outside_storage() {
        let m = run_platform(Platform::Cc, 1, 32);
        assert!(m.energy.pcie_bytes > 0);
        let b = m
            .energy
            .breakdown(&beacon_energy::EnergyCosts::default_costs());
        assert!(
            b.outside_storage_fraction() > 0.3,
            "{}",
            b.outside_storage_fraction()
        );
    }
}
