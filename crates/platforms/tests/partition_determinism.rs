//! Property tests for the partitioned engine's determinism contract.
//!
//! The contract under test (see `beacon_platforms::partition`): for a
//! partitionable platform, the partitioned engine's output — the full
//! rendered metrics report, span counts included — is a pure function of the
//! simulated configuration. Worker-thread count must be invisible, the
//! input DirectGraph must come out of the run untouched, and the model
//! must stay a faithful retiming of the serial engine (identical work
//! counts, nearby makespan), across randomized graph shapes, geometries,
//! batch shapes, epochs, and seeds.

use beacon_gnn::GnnModelConfig;
use beacon_graph::{generate, FeatureTable, NodeId};
use beacon_platforms::{Engine, PartitionedEngine, Platform, RunMetrics};
use beacon_ssd::SsdConfig;
use directgraph::{build::DirectGraphBuilder, AddrLayout, DirectGraph};
use proptest::prelude::*;
use simkit::Duration;

fn build_dg(nodes: usize, degree: f64, feat_dim: usize, seed: u64) -> DirectGraph {
    let cfg = generate::PowerLawConfig::new(nodes, degree);
    let graph = generate::power_law(&cfg, seed);
    let features = FeatureTable::synthetic(nodes, feat_dim, seed);
    DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
        .build(&graph, &features)
        .expect("synthetic graph builds")
}

fn report(m: &RunMetrics) -> String {
    m.metrics_registry().to_json_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Thread count is invisible: for random small configurations, the
    /// partitioned engine renders byte-identical metric reports
    /// (counts, timings, energy, spans) at 1, 2, and 8 worker threads,
    /// and never mutates the DirectGraph it reads.
    #[test]
    fn partitioned_output_is_thread_count_invariant(
        nodes in 300usize..900,
        degree in 8u32..30,
        batch in 4usize..24,
        batches in 1usize..3,
        channels in 1usize..6,
        dies in 1usize..4,
        epoch_ns in 100u64..2_000,
        seed in 0u64..1_000,
    ) {
        let dg = build_dg(nodes, degree as f64, 64, seed);
        let dg_digest = dg.digest();
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default()
            .with_channels(channels)
            .with_dies_per_channel(dies)
            .with_router_epoch(Duration::from_ns(epoch_ns));
        let b: Vec<Vec<NodeId>> = (0..batches)
            .map(|bi| {
                (0..batch)
                    .map(|i| NodeId::new(((bi * batch + i) % nodes) as u32))
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, seed)
                .with_obs(4096)
                .threads(threads)
                .run(&b)
        };
        let reference = report(&run(1));
        for threads in [2usize, 8] {
            prop_assert_eq!(&report(&run(threads)), &reference, "threads={}", threads);
        }
        prop_assert_eq!(dg.digest(), dg_digest, "run must not mutate the graph image");
    }

    /// Faithfulness: against the serial engine the partitioned model
    /// does the same work (targets, flash reads, visits, bytes) and its
    /// epoch retiming moves the makespan only within a narrow band.
    #[test]
    fn partitioned_work_matches_serial_engine(
        nodes in 400usize..900,
        batch in 8usize..32,
        seed in 0u64..1_000,
    ) {
        let dg = build_dg(nodes, 20.0, 64, seed);
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default();
        let b = vec![(0..batch).map(|i| NodeId::new((i % nodes) as u32)).collect::<Vec<_>>()];
        let serial = Engine::new(Platform::Bg2, ssd, model, &dg, seed).run(&b);
        let part = PartitionedEngine::new(Platform::Bg2, ssd, model, &dg, seed).run(&b);
        prop_assert_eq!(part.targets, serial.targets);
        prop_assert_eq!(part.flash_reads, serial.flash_reads);
        prop_assert_eq!(part.nodes_visited, serial.nodes_visited);
        prop_assert_eq!(part.sampler_executed, serial.sampler_executed);
        prop_assert_eq!(part.energy.channel_bytes, serial.energy.channel_bytes);
        prop_assert_eq!(part.energy.router_cmds, serial.energy.router_cmds);
        prop_assert_eq!(part.energy.macs, serial.energy.macs);
        // Small batches leave little pipeline overlap to hide the
        // epoch quantization, so the relative band is wider than the
        // fixed-config unit test's: each command chain can be delayed
        // by roughly one epoch per hop, a visible fraction of a short
        // run's makespan.
        let ratio = part.makespan.as_ns() as f64 / serial.makespan.as_ns() as f64;
        prop_assert!(
            (0.8..=1.3).contains(&ratio),
            "partitioned makespan drifted {:.4}x from serial", ratio
        );
    }
}
