//! Property tests for the multi-SSD array engine's determinism
//! contract.
//!
//! The contract under test (see `beacon_platforms::array`): the array
//! replay's output — the full rendered metrics report, per-device and
//! fabric-link sections included — is a pure function of the simulated
//! configuration. Worker-thread count must be invisible, a one-device
//! array must be the serial engine verbatim, and the per-device work
//! counters must partition (not approximate) the single-engine totals,
//! across randomized graph shapes, array sizes, partitions, fabrics,
//! and seeds.

use beacon_gnn::GnnModelConfig;
use beacon_graph::{generate, CsrGraph, FeatureTable, NodeId, Partition};
use beacon_platforms::{ArrayConfig, ArrayEngine, Engine, Platform};
use beacon_ssd::{FabricConfig, SsdConfig};
use directgraph::{build::DirectGraphBuilder, AddrLayout, DirectGraph};
use proptest::prelude::*;
use simkit::Duration;

fn build(nodes: usize, degree: f64, seed: u64) -> (CsrGraph, DirectGraph) {
    let cfg = generate::PowerLawConfig::new(nodes, degree);
    let graph = generate::power_law(&cfg, seed);
    let features = FeatureTable::synthetic(nodes, 64, seed);
    let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
        .build(&graph, &features)
        .expect("synthetic graph builds");
    (graph, dg)
}

fn batches(nodes: usize, batch: usize, count: usize) -> Vec<Vec<NodeId>> {
    (0..count)
        .map(|bi| {
            (0..batch)
                .map(|i| NodeId::new(((bi * batch + i * 7) % nodes) as u32))
                .collect()
        })
        .collect()
}

fn partition_by(which: u8, graph: &CsrGraph, k: u32) -> Partition {
    match which % 3 {
        0 => Partition::hash(graph, k),
        1 => Partition::range(graph, k),
        _ => Partition::bfs_grow(graph, k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Thread count is invisible: for random small configurations the
    /// array replay renders byte-identical metric reports (per-device
    /// counters, fabric-link counters, timings, energy) at 1, 2, and 8
    /// device-lane worker threads.
    #[test]
    fn array_report_is_thread_count_invariant(
        nodes in 300usize..900,
        degree in 8u32..30,
        batch in 4usize..24,
        devices in 2usize..6,
        which in 0u8..3,
        hop_ns in 100u64..5_000,
        seed in 0u64..1_000,
    ) {
        let (graph, dg) = build(nodes, degree as f64, seed);
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default();
        let part = partition_by(which, &graph, devices as u32);
        let array = ArrayConfig::pcie_p2p(devices)
            .with_fabric(FabricConfig::pcie_p2p().with_hop_latency(Duration::from_ns(hop_ns)));
        let b = batches(nodes, batch, 2);
        let cascade = ArrayEngine::new(Platform::Bg2, array, ssd, model, &dg, seed).record(&b);
        let run = |threads: usize| {
            ArrayEngine::new(Platform::Bg2, array, ssd, model, &dg, seed)
                .threads(threads)
                .run_recorded(&cascade, &part)
                .metrics_registry()
                .to_json_string()
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(&run(threads), &reference, "threads={}", threads);
        }
    }

    /// Conservation: the per-device work counters are a partition of
    /// the single-engine totals — they sum exactly, never approximately,
    /// because both sides replay the same recorded command set.
    #[test]
    fn device_work_sums_to_single_engine(
        nodes in 300usize..900,
        batch in 8usize..32,
        devices in 2usize..8,
        which in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let (graph, dg) = build(nodes, 20.0, seed);
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default();
        let b = batches(nodes, batch, 1);
        let serial = Engine::new(Platform::Bg2, ssd, model, &dg, seed).run(&b);
        let part = partition_by(which, &graph, devices as u32);
        let engine = ArrayEngine::new(Platform::Bg2, ArrayConfig::pcie_p2p(devices), ssd, model, &dg, seed);
        let array = engine.run_recorded(&engine.record(&b), &part);
        let sum = |f: fn(&beacon_platforms::DeviceMetrics) -> u64| {
            array.per_device.iter().map(f).sum::<u64>()
        };
        prop_assert_eq!(array.per_device.len(), devices);
        prop_assert_eq!(sum(|d| d.targets), serial.targets);
        prop_assert_eq!(sum(|d| d.flash_reads), serial.flash_reads);
        prop_assert_eq!(sum(|d| d.nodes_visited), serial.nodes_visited);
        prop_assert_eq!(sum(|d| d.sampler_faults), serial.sampler_faults);
        prop_assert_eq!(array.metrics.flash_reads, serial.flash_reads);
    }

    /// A 1-device array is the serial engine verbatim: the merged
    /// metrics report matches the serial engine's byte for byte, and
    /// nothing crosses the fabric.
    #[test]
    fn one_device_array_is_serial_engine(
        nodes in 300usize..900,
        batch in 4usize..24,
        seed in 0u64..1_000,
    ) {
        let (graph, dg) = build(nodes, 16.0, seed);
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default();
        let b = batches(nodes, batch, 2);
        let serial = Engine::new(Platform::Bg2, ssd, model, &dg, seed).run(&b);
        let engine = ArrayEngine::new(Platform::Bg2, ArrayConfig::pcie_p2p(1), ssd, model, &dg, seed);
        let array = engine.run_recorded(&engine.record(&b), &Partition::hash(&graph, 1));
        prop_assert_eq!(
            array.metrics.metrics_registry().to_json_string(),
            serial.metrics_registry().to_json_string()
        );
        prop_assert_eq!(array.cross_edges, 0);
        prop_assert_eq!(array.fabric_bytes(), 0);
        prop_assert!((array.efficiency() - 1.0).abs() < 1e-12);
    }
}
