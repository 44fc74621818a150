//! Golden digests: pins the deterministic outputs that the CI
//! determinism smokes otherwise only check for *self*-consistency
//! (jobs=1 vs jobs=4, replay on vs off). These constants are the
//! digests the current implementation produces; any simulation-visible
//! change — event ordering, timing model, sampler draw order, workload
//! synthesis — shifts them and fails here, inside plain `cargo test`,
//! without running the full figure sweep.
//!
//! If a change *intends* to alter simulated results, re-pin the
//! constants from the test failure output and say so in the commit.

use std::sync::Arc;

use beacon_bench as bench;
use beacongnn::platforms::{Engine, PartitionedEngine};
use beacongnn::{
    ArrayConfig, ArrayEngine, Dataset, Partition, Platform, RunCell, RunMatrix, SsdConfig, Workload,
};

/// FNV-1a fold over a result stream's bytes.
fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of a run-metrics stream: each cell's nodes visited, flash
/// reads and makespan, folded in cell order.
fn metrics_digest(results: &[beacongnn::RunMetrics]) -> u64 {
    results.iter().fold(FNV_OFFSET, |h, m| {
        let h = fnv1a_fold(h, &m.nodes_visited.to_le_bytes());
        let h = fnv1a_fold(h, &m.flash_reads.to_le_bytes());
        fnv1a_fold(h, &m.makespan.as_ns().to_le_bytes())
    })
}

/// The fixed smoke workload: Amazon shape, 8k nodes, two batches of
/// 128 targets, seed 7.
fn smoke_workload() -> Workload {
    Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(8_000)
        .batch_size(128)
        .batches(2)
        .seed(7)
        .prepare()
        .expect("smoke workload prepares")
}

/// Digest of a full metrics-registry JSON rendering.
fn registry_digest(reg: &simkit::MetricsRegistry) -> u64 {
    fnv1a_fold(FNV_OFFSET, reg.to_json_string().as_bytes())
}

/// The DirectGraph image digest of the fixed smoke workload: pins graph
/// synthesis, feature synthesis and page encoding.
#[test]
fn smoke_workload_digest_is_pinned() {
    let w = smoke_workload();
    assert_eq!(
        w.directgraph().digest(),
        0x26787abe61d5a557,
        "smoke workload digest drifted"
    );
}

/// The Fig 14 platform × dataset matrix at smoke scale (4k nodes,
/// batch 64), run sequentially.
#[test]
fn smoke_matrix_digest_is_pinned() {
    let matrix = bench::fig14_matrix(4_000, 64);
    let results = matrix.run_sequential();
    assert_eq!(
        metrics_digest(&results),
        0x08f95fdebcdc17d9,
        "smoke fig14-matrix digest drifted"
    );
}

/// The controller-core sensitivity matrix (BG chain × core counts) at
/// smoke scale.
#[test]
fn smoke_fig18_digest_is_pinned() {
    let w = bench::workload(Dataset::Amazon, 4_000, 64);
    let mut matrix = RunMatrix::new();
    for &cores in &[1usize, 2, 4, 8] {
        let ssd = SsdConfig::paper_default().with_cores(cores);
        for p in Platform::BG_CHAIN {
            matrix.push(RunCell::new(p, Arc::clone(&w)).ssd(ssd));
        }
    }
    let results = matrix.run_sequential();
    assert_eq!(
        metrics_digest(&results),
        0x1cf7241d101629eb,
        "smoke fig18-matrix digest drifted"
    );
}

/// The per-query latency report on the smoke-scale BG-2 cell: folds the
/// full query stream (latency + per-stage attribution) plus the derived
/// tail percentiles, so both the histogram math and the critical-path
/// split are pinned, not just the aggregate makespan.
#[test]
fn latency_report_digest_is_pinned() {
    let w = bench::workload(Dataset::Amazon, 4_000, 64);
    let mut matrix = RunMatrix::new();
    matrix.push(RunCell::new(Platform::Bg2, w).latency(simkit::Duration::from_ms(1)));
    let m = matrix.run_sequential().pop().expect("one cell, one result");
    let lat = &m.latency;
    let h = lat.histogram();
    let mut d = FNV_OFFSET;
    d = fnv1a_fold(d, &h.count().to_le_bytes());
    for q in [50, 90, 99] {
        d = fnv1a_fold(d, &h.percentile_ns(q, 100).unwrap_or(0).to_le_bytes());
    }
    d = fnv1a_fold(d, &h.percentile_ns(999, 1000).unwrap_or(0).to_le_bytes());
    d = fnv1a_fold(d, &h.max_ns().unwrap_or(0).to_le_bytes());
    for stage in simkit::Stage::ALL {
        d = fnv1a_fold(d, &lat.stage_total_ns(stage).to_le_bytes());
    }
    for q in lat.queries() {
        d = fnv1a_fold(d, &q.latency_ns().to_le_bytes());
    }
    assert_eq!(d, 0xf3d6_a300_bf3d_1676, "latency report digest drifted");
}

/// The partitioned per-channel engine's full registry (latency sections
/// included) on the smoke workload. The determinism proptests only
/// compare thread counts within one build, and the serial-engine check
/// allows a ±10% band, so this is what pins the lane round protocol's
/// timing across refactors.
#[test]
fn partitioned_engine_registry_digest_is_pinned() {
    let w = smoke_workload();
    let m = PartitionedEngine::new(
        Platform::Bg2,
        SsdConfig::paper_default(),
        w.model(),
        w.directgraph(),
        7,
    )
    .with_latency(simkit::Duration::from_ms(1))
    .run(w.batches());
    assert_eq!(
        registry_digest(&m.metrics_registry()),
        0x1d1b_23bb_3e35_60b8,
        "partitioned-engine registry digest drifted"
    );
}

/// Span capacity of the observed pins: large enough that no smoke run
/// drops a span, so the trace digest covers every recorded span.
const PIN_SPANS: usize = 1 << 22;

/// Digest of an observed run: the full registry JSON, then the Chrome
/// trace bytes its spans render to.
fn observed_digest(m: &beacongnn::RunMetrics) -> u64 {
    assert_eq!(m.spans.dropped(), 0, "pin capacity too small");
    let mut trace = Vec::new();
    simkit::ChromeTraceWriter::write(&m.spans, &mut trace).expect("in-memory trace");
    fnv1a_fold(registry_digest(&m.metrics_registry()), &trace)
}

/// The serial engine with spans and per-query latency on, on the smoke
/// workload: pins the batch pipeline's prep / batch-feature / compute
/// spans, their record order, and the latency tail, for a host-path
/// platform whose features cross PCIe (CC), the firmware path (BG-1)
/// and the router path (BG-2).
#[test]
fn observed_serial_engine_digests_are_pinned() {
    let w = smoke_workload();
    let got: Vec<String> = [Platform::Cc, Platform::Bg1, Platform::Bg2]
        .into_iter()
        .map(|p| {
            let m = Engine::new(p, SsdConfig::paper_default(), w.model(), w.directgraph(), 7)
                .with_obs(PIN_SPANS)
                .with_latency(simkit::Duration::from_ms(1))
                .run(w.batches());
            format!("{p} {:#018x}", observed_digest(&m))
        })
        .collect();
    assert_eq!(
        got,
        [
            "CC 0x390d8ad0f1604fe7",
            "BG-1 0x92c15cafded9c5e6",
            "BG-2 0x196fe1ae8e9097bb",
        ],
        "observed serial-engine digests drifted"
    );
}

/// The partitioned engine's registry and trace with spans and latency
/// on: the coordinator's batch-phase spans come before every lane's.
#[test]
fn observed_partitioned_engine_digest_is_pinned() {
    let w = smoke_workload();
    let m = PartitionedEngine::new(
        Platform::Bg2,
        SsdConfig::paper_default(),
        w.model(),
        w.directgraph(),
        7,
    )
    .with_obs(PIN_SPANS)
    .with_latency(simkit::Duration::from_ms(1))
    .run(w.batches());
    assert_eq!(
        observed_digest(&m),
        0x24f0_4488_4b63_ec8e,
        "observed partitioned-engine digest drifted"
    );
}

/// A 4-device array replay (hash partition, PCIe-P2P) of the smoke
/// workload's cascade: the merged, per-device and fabric-link registry
/// sections with latency tracking on.
#[test]
fn array_engine_registry_digest_is_pinned() {
    let w = smoke_workload();
    let engine = ArrayEngine::new(
        Platform::Bg2,
        ArrayConfig::pcie_p2p(4),
        SsdConfig::paper_default(),
        w.model(),
        w.directgraph(),
        7,
    )
    .with_latency(simkit::Duration::from_ms(1));
    let cascade = engine.record(w.batches());
    let m = engine.run_recorded(&cascade, &Partition::hash(w.graph(), 4));
    assert_eq!(
        registry_digest(&m.metrics_registry()),
        0x42a5_d780_6b6d_0d1f,
        "array-engine registry digest drifted"
    );
}

/// The Fig 7b barrier-cost sweep at harness scale — the rows behind the
/// `experiments fig7b` stdout the CI determinism smoke `cmp`s. Folding
/// the raw row values pins the same information as the rendered table
/// without coupling the test to the text formatting.
#[test]
fn fig7b_rows_digest_is_pinned() {
    let rows = bench::fig7b(bench::DEFAULT_NODES);
    let digest = rows.iter().fold(FNV_OFFSET, |h, r| {
        let h = fnv1a_fold(h, &(r.batch_size as u64).to_le_bytes());
        let h = fnv1a_fold(h, &r.barriered_util.to_bits().to_le_bytes());
        let h = fnv1a_fold(h, &r.out_of_order_util.to_bits().to_le_bytes());
        fnv1a_fold(h, &r.prep_inflation.to_bits().to_le_bytes())
    });
    assert_eq!(digest, 0x8edc98599281dc82, "fig7b row digest drifted");
}
