//! The §VI-D mini-batch pipeline, shared by every engine: batch *i*'s
//! compute overlaps batch *i+1*'s preparation over two DRAM buffer
//! halves. An engine supplies only its preparation phase (the serial
//! drain, channel rounds or device rounds) between [`Pipeline::open`]
//! and [`Pipeline::close`]:
//!
//! ```text
//! open(i)   prep_start = max(prep_end(i-1), last compute end through i-2)
//!           submit     = prep_start + NVMe command (+ host translation)
//! engine    drains batch i's sampling cascade from `submit` → prep_end(i)
//! close(i)  per accelerator d with work:
//!             start = max(prep_end(i), gate_d, compute end of d so far)
//!             [PCIe batch-feature shipment]  end = start + compute time
//! ```
//!
//! It also charges the batch-level energy terms, records the `prep`,
//! `batch_features` and `compute` spans, and builds the latency tail.

use beacon_energy::EnergyLedger;
use beacon_gnn::{GnnModelConfig, MinibatchWorkload};
use beacon_ssd::SsdConfig;
use simkit::obs::{SpanRecorder, UnitKind};
use simkit::{
    BandwidthResource, ChainTable, Duration, LatencyReport, PathAttr, QueryLat, SimTime, Stage,
};

use crate::engine::NODE_ID_BYTES;
use crate::metrics::{AccelOccupancy, RunMetrics};
use crate::spec::PlatformSpec;

/// One batch's preparation.
#[derive(Debug, Clone, Copy)]
struct Batch {
    targets: u64,
    start: SimTime,
    /// The host handed the batch to the device (end of the NVMe setup).
    submit: SimTime,
    /// Preparation end: the barrier every query's chain waits on.
    end: SimTime,
}

/// One accelerator's share of one batch (empty when it sits it out).
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    targets: u64,
    /// Inbound feature returns the compute waited for (array fabric).
    gate: SimTime,
    /// The batch-feature PCIe grant.
    pcie: Option<(SimTime, SimTime)>,
    start: SimTime,
    end: SimTime,
}

/// The §VI-D schedule of one run (see the [module docs](self)).
pub(crate) struct Pipeline {
    spec: PlatformSpec,
    model: GnnModelConfig,
    ssd: SsdConfig,
    accelerators: usize,
    /// Latency window width; `None` when tracking is off.
    lat_epoch: Option<Duration>,
    batches: Vec<Batch>,
    /// Row 0 all idle at time zero, then one row per batch.
    windows: Vec<Window>,
}

impl Pipeline {
    /// A pipeline feeding `accelerators` accelerators; `lat_epoch`
    /// turns on per-query latency.
    pub(crate) fn new(
        spec: &PlatformSpec,
        model: GnnModelConfig,
        ssd: &SsdConfig,
        accelerators: usize,
        lat_epoch: Option<Duration>,
    ) -> Self {
        Pipeline {
            spec: *spec,
            model,
            ssd: *ssd,
            accelerators,
            lat_epoch,
            batches: Vec::new(),
            windows: vec![Window::default(); accelerators],
        }
    }

    /// Row `r` of the window table: batch `r - 1`'s windows.
    fn row(&self, r: usize) -> &[Window] {
        &self.windows[r * self.accelerators..(r + 1) * self.accelerators]
    }

    /// Opens the next batch of `len` targets and returns its
    /// `(prep start, submit)` times, charging each target's node id to
    /// PCIe.
    pub(crate) fn open(&mut self, len: usize, energy: &mut EnergyLedger) -> (SimTime, SimTime) {
        let bi = self.batches.len();
        let prev_end = self.batches.last().map_or(SimTime::ZERO, |b| b.end);
        // The buffer half is free once every compute through batch
        // bi - 2 (row bi - 1) has ended.
        let buffer_free = self.row(bi.saturating_sub(1)).iter().map(|w| w.end).max();
        let start = prev_end.max(buffer_free.unwrap_or(SimTime::ZERO));
        let host = &self.ssd.host;
        let mut setup = host.nvme_roundtrip;
        if !self.spec.direct_graph {
            setup += host.translate_per_node * len as u64;
        }
        energy.pcie_bytes += len as u64 * NODE_ID_BYTES;
        let submit = start + setup;
        self.batches.push(Batch {
            targets: len as u64,
            start,
            submit,
            end: submit,
        });
        (start, submit)
    }

    /// Closes the open batch's preparation at `prep_end` and schedules
    /// its compute: each `(accelerator, targets, gate)` item computes
    /// `targets` subgraphs there, no earlier than `gate`. `pcie` is the
    /// host link, required when the spec's features cross it.
    pub(crate) fn close(
        &mut self,
        prep_end: SimTime,
        work: impl IntoIterator<Item = (usize, u64, SimTime)>,
        mut pcie: Option<&mut BandwidthResource>,
        energy: &mut EnergyLedger,
        obs: &mut SpanRecorder,
    ) {
        let bi = self.batches.len() - 1;
        let b = &mut self.batches[bi];
        b.end = prep_end;
        let tag = bi as f64;
        obs.record(UnitKind::Engine, 0, "prep", b.start, prep_end, tag);

        let first = self.windows.len();
        self.windows.extend_from_within(first - self.accelerators..);
        for w in &mut self.windows[first..] {
            let end = w.end;
            *w = Window {
                start: end,
                end,
                ..Window::default()
            };
        }
        let (model, accel) = (self.model, self.spec.accel_config());
        let feature_bytes = model.subgraph_nodes() * model.feature_bytes() as u64;
        for (d, targets, gate) in work {
            let w = &mut self.windows[first + d];
            let mut start = prep_end.max(gate).max(w.end);
            let mut pcie_grant = None;
            if self.spec.features_cross_pcie {
                // Ship the features + subgraph metadata to the discrete
                // accelerator.
                let bytes = targets * (feature_bytes + model.subgraph_nodes() * NODE_ID_BYTES);
                let link = pcie.as_deref_mut().expect("features cross the host link");
                let g = link.transfer(start, bytes);
                energy.pcie_bytes += bytes;
                obs.record(
                    UnitKind::Pcie,
                    0,
                    "batch_features",
                    g.start,
                    g.end,
                    bytes as f64,
                );
                pcie_grant = Some((g.start, g.end));
                start = g.end;
            } else if !self.ssd.dram_bypass {
                // An SSD accelerator streams the features from internal
                // DRAM (unless direct flash→SRAM I/O is on, §VIII).
                energy.dram_bytes += targets * feature_bytes;
            }
            // The paper's experiments run GNN *training*, so the
            // workload includes the backward pass.
            let wl = MinibatchWorkload::new(model, targets).with_training(true);
            let end = start + wl.compute_time(&accel);
            obs.record(UnitKind::Accelerator, d as u32, "compute", start, end, tag);
            energy.macs += wl.total_macs();
            energy.reduce_ops += wl.total_reduce_ops();
            *w = Window {
                targets,
                gate,
                pcie: pcie_grant,
                start,
                end,
            };
        }
    }

    /// Compute time and targets per accelerator.
    pub(crate) fn per_accelerator(&self) -> Vec<(Duration, u64)> {
        let mut per = vec![(Duration::ZERO, 0); self.accelerators];
        for (i, w) in self.windows.iter().enumerate() {
            let (time, targets) = &mut per[i % self.accelerators];
            *time += w.end - w.start;
            *targets += w.targets;
        }
        per
    }

    /// Ends the run with the batch-level fields of its metrics, given
    /// the final energy ledger, each query's winning preparation chain
    /// and each query's home accelerator; the engine fills in the rest.
    pub(crate) fn finish(
        self,
        energy: &EnergyLedger,
        chains: &ChainTable,
        home: impl Fn(usize) -> usize,
    ) -> RunMetrics {
        let compute_time = self.windows.iter().map(|w| w.end - w.start).sum();
        let ends = self.batches.iter().map(|b| b.end);
        let makespan = ends.chain(self.windows.iter().map(|w| w.end)).max();
        let accel = self.spec.accel_config();
        RunMetrics {
            targets: self.batches.iter().map(|b| b.targets).sum(),
            batches: self.batches.len() as u64,
            makespan: makespan.unwrap_or(SimTime::ZERO) - SimTime::ZERO,
            prep_time: self.batches.iter().map(|b| b.end - b.start).sum(),
            compute_time,
            accel_occupancy: AccelOccupancy::sustained(&accel, compute_time, energy),
            latency: match self.lat_epoch {
                Some(epoch) => self.latency(epoch, chains, home),
                None => LatencyReport::disabled(),
            },
            ..RunMetrics::default()
        }
    }

    /// Extends each query's chain through its batch's tail on its home
    /// accelerator so its stages sum exactly to `end - submit`: waits
    /// are queueing, feature returns fabric, then PCIe and compute.
    fn latency(
        &self,
        epoch: Duration,
        chains: &ChainTable,
        home: impl Fn(usize) -> usize,
    ) -> LatencyReport {
        let mut queries = Vec::new();
        for (bi, b) in self.batches.iter().enumerate() {
            for slot in 0..b.targets as u32 {
                let qid = queries.len();
                let w = &self.row(bi + 1)[home(qid)];
                let (chain_end, mut path) = match chains.get(qid) {
                    Some(&(e, p)) => (e, p),
                    // A query whose chain never retired (cannot happen
                    // for well-formed runs: every root command
                    // completes) — its whole life is queueing.
                    None => (b.submit, PathAttr::default()),
                };
                let mut t = b.end.max(chain_end);
                path.add(Stage::Queue, t - chain_end);
                let ready = t.max(w.gate);
                path.add(Stage::Fabric, ready - t);
                t = ready;
                if let Some((s, e)) = w.pcie {
                    path.add(Stage::Queue, s.saturating_duration_since(t));
                    path.add(Stage::Pcie, e - s);
                    t = t.max(e);
                }
                path.add(Stage::Queue, w.start.saturating_duration_since(t));
                path.add(Stage::Accel, w.end - w.start);
                queries.push(QueryLat {
                    batch: bi as u32,
                    slot,
                    submit: b.submit,
                    end: w.end,
                    path,
                });
            }
        }
        LatencyReport::build(epoch, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Platform;
    use proptest::prelude::*;

    fn model() -> GnnModelConfig {
        GnnModelConfig::paper_default(64)
    }

    fn bg2_pipeline(accelerators: usize) -> Pipeline {
        let ssd = SsdConfig::paper_default();
        let spec = Platform::Bg2.spec();
        Pipeline::new(&spec, model(), &ssd, accelerators, Some(Duration::ZERO))
    }

    /// Compute time of `targets` subgraphs on the BG-2 accelerator.
    fn compute_ns(targets: u64) -> u64 {
        let accel = Platform::Bg2.spec().accel_config();
        MinibatchWorkload::new(model(), targets)
            .with_training(true)
            .compute_time(&accel)
            .as_ns()
    }

    /// Drives a schedule the way an engine does: batch `b` prepares for
    /// `prep_ns[b]` after its submit, then accelerator `d` computes
    /// `targets[b][d]` subgraphs (zero: idle) gated `gate_ns[b][d]`
    /// after the prep ends. Returns the pipeline before `finish` and
    /// each batch's `(prep start, prep end)`.
    fn drive(
        accels: usize,
        prep_ns: &[u64],
        targets: &[Vec<u64>],
        gate_ns: &[Vec<u64>],
    ) -> (Pipeline, Vec<(SimTime, SimTime)>) {
        let mut pipe = bg2_pipeline(accels);
        let mut energy = EnergyLedger::new();
        let mut obs = SpanRecorder::disabled();
        let mut preps = Vec::new();
        for (b, &p) in prep_ns.iter().enumerate() {
            let len = targets[b].iter().sum::<u64>() as usize;
            let (start, submit) = pipe.open(len, &mut energy);
            let end = submit + Duration::from_ns(p);
            let work = (0..accels)
                .filter(|&d| targets[b][d] > 0)
                .map(|d| (d, targets[b][d], end + Duration::from_ns(gate_ns[b][d])));
            pipe.close(end, work, None, &mut energy, &mut obs);
            preps.push((start, end));
        }
        (pipe, preps)
    }

    /// Checks the §VI-D invariants of a driven schedule; returns whether
    /// any batch's compute overlapped the next batch's preparation.
    fn check(
        accels: usize,
        pipe: &Pipeline,
        preps: &[(SimTime, SimTime)],
        targets: &[Vec<u64>],
        gate_ns: &[Vec<u64>],
    ) -> bool {
        let win = |b: usize, d: usize| pipe.row(b + 1)[d];
        let active = |b: usize, d: usize| targets[b][d] > 0;
        let mut overlap = false;
        for (b, &(prep_start, prep_end)) in preps.iter().enumerate() {
            if b >= 2 {
                // The buffer half batch b-2 held is free only once every
                // compute scheduled through batch b-2 has ended.
                let released = (0..accels).map(|d| win(b - 2, d).end).max().unwrap();
                assert!(
                    prep_start >= released,
                    "batch {b} prep before its buffer freed"
                );
            }
            if b >= 1 {
                assert!(
                    prep_start >= preps[b - 1].1,
                    "batch {b} prep overlaps its predecessor"
                );
            }
            for d in (0..accels).filter(|&d| active(b, d)) {
                let w = win(b, d);
                assert!(
                    w.start >= prep_end,
                    "batch {b} computes before its prep ends"
                );
                assert!(w.start >= prep_end + Duration::from_ns(gate_ns[b][d]));
                // Compute order equals batch order on every accelerator.
                if let Some(prev) = (0..b).rev().find(|&p| active(p, d)) {
                    assert!(
                        w.start >= win(prev, d).end,
                        "accelerator {d} reorders batches"
                    );
                }
                if let Some(&(next_start, next_end)) = preps.get(b + 1) {
                    overlap |= w.start < next_end && w.end > next_start;
                }
            }
        }
        overlap
    }

    proptest! {
        /// The §VI-D schedule over random preparation and compute
        /// durations, 1–4 accelerators and 1–6 batches: the two-halves
        /// buffer gate, prep → compute ordering, per-accelerator batch
        /// order and the makespan hold for any mix, a prep-bound and a
        /// compute-bound run each overlap compute with the next prep,
        /// and every query's latency splits exactly into its stages.
        #[test]
        fn schedule_keeps_section_vi_d_invariants(
            accels in 1usize..5,
            batches in 1usize..7,
            prep_ns in proptest::collection::vec(0u64..400_000, 6..7),
            raw_targets in proptest::collection::vec(0u64..24, 24..25),
            raw_gates in proptest::collection::vec(0u64..200_000, 24..25),
        ) {
            // About half the shares are idle, so whole batches can go
            // without compute.
            let targets: Vec<Vec<u64>> = (0..batches)
                .map(|b| {
                    (0..accels)
                        .map(|d| raw_targets[b * 4 + d].saturating_sub(12))
                        .collect()
                })
                .collect();
            let gates: Vec<Vec<u64>> = (0..batches)
                .map(|b| (0..accels).map(|d| raw_gates[b * 4 + d]).collect())
                .collect();
            let (pipe, preps) = drive(accels, &prep_ns[..batches], &targets, &gates);
            check(accels, &pipe, &preps, &targets, &gates);
            let last = pipe.row(batches);
            let last_compute = last.iter().map(|w| w.end).max().unwrap();
            let last_prep = preps[batches - 1].1;
            // Each query computes on the accelerator its share went to.
            let homes: Vec<usize> = targets
                .iter()
                .flat_map(|t| t.iter().enumerate().flat_map(|(d, &n)| vec![d; n as usize]))
                .collect();
            let totals = pipe.finish(&EnergyLedger::new(), &ChainTable::default(), |q| homes[q]);
            prop_assert_eq!(totals.makespan, last_compute.max(last_prep) - SimTime::ZERO);
            prop_assert_eq!(totals.batches, batches as u64);
            for (qid, q) in totals.latency.queries().iter().enumerate() {
                prop_assert_eq!(q.path.total_ns(), q.latency_ns());
                // No chain retired, so the prep barrier is the chain's
                // end and the gate's offset past it is fabric time.
                let gate_ns = gates[q.batch as usize][homes[qid]];
                prop_assert_eq!(q.path.get(Stage::Fabric), gate_ns);
            }

            if batches >= 2 {
                // Accelerator 0 always has work, so every batch computes.
                let busy: Vec<Vec<u64>> = (0..batches)
                    .map(|b| (0..accels).map(|d| raw_targets[b * 4 + d] + u64::from(d == 0)).collect())
                    .collect();
                let no_gates = vec![vec![0; accels]; batches];
                let prep_bound = vec![3 * compute_ns(24); batches];
                let (pipe, preps) = drive(accels, &prep_bound, &busy, &no_gates);
                prop_assert!(check(accels, &pipe, &preps, &busy, &no_gates));
                let compute_bound = vec![compute_ns(1) / 4; batches];
                let (pipe, preps) = drive(accels, &compute_bound, &busy, &no_gates);
                prop_assert!(check(accels, &pipe, &preps, &busy, &no_gates));
            }
        }
    }

    #[test]
    fn latency_extends_chain_through_compute_tail() {
        let mut chains = ChainTable::new(2);
        let mut p = PathAttr::default();
        p.add(Stage::DieSense, Duration::from_ns(40));
        p.add(Stage::Queue, Duration::from_ns(10));
        chains.observe(0, SimTime::from_ns(150), &p);
        let mut p1 = PathAttr::default();
        p1.add(Stage::Queue, Duration::from_ns(80));
        chains.observe(1, SimTime::from_ns(180), &p1);
        let mut pipe = bg2_pipeline(1);
        pipe.batches.push(Batch {
            targets: 2,
            start: SimTime::from_ns(90),
            submit: SimTime::from_ns(100),
            end: SimTime::from_ns(200),
        });
        pipe.windows.push(Window {
            targets: 2,
            gate: SimTime::ZERO,
            pcie: Some((SimTime::from_ns(210), SimTime::from_ns(240))),
            start: SimTime::from_ns(240),
            end: SimTime::from_ns(300),
        });
        let report = pipe.latency(Duration::ZERO, &chains, |_| 0);
        assert_eq!(report.queries().len(), 2);
        for q in report.queries() {
            assert_eq!(q.submit, SimTime::from_ns(100));
            assert_eq!(q.end, SimTime::from_ns(300));
            // Stage sum covers the whole end-to-end latency exactly.
            assert_eq!(q.path.total_ns(), q.latency_ns());
        }
        let q0 = &report.queries()[0];
        assert_eq!(q0.path.get(Stage::DieSense), 40);
        assert_eq!(q0.path.get(Stage::Pcie), 30);
        assert_eq!(q0.path.get(Stage::Accel), 60);
        // 10 (chain) + 50 (barrier) + 10 (pcie wait) + 0 (accel wait).
        assert_eq!(q0.path.get(Stage::Queue), 70);
    }

    #[test]
    fn latency_handles_unobserved_chain() {
        let chains = ChainTable::new(1);
        let mut pipe = bg2_pipeline(1);
        pipe.batches.push(Batch {
            targets: 1,
            start: SimTime::ZERO,
            submit: SimTime::from_ns(10),
            end: SimTime::from_ns(50),
        });
        pipe.windows.push(Window {
            targets: 1,
            gate: SimTime::ZERO,
            pcie: None,
            start: SimTime::from_ns(60),
            end: SimTime::from_ns(90),
        });
        let report = pipe.latency(Duration::from_ns(1_000), &chains, |_| 0);
        let q = &report.queries()[0];
        assert_eq!(q.latency_ns(), 80);
        assert_eq!(q.path.total_ns(), 80);
        assert_eq!(q.path.get(Stage::Accel), 30);
        assert_eq!(report.windows().len(), 1);
    }
}
