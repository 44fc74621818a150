//! Property tests for the per-query latency layer's determinism
//! contract.
//!
//! The contract (see `simkit::obs::latency` and the serial engine's
//! latency wiring): the `latency` / `latency_breakdown` registry
//! sections are a pure function of the simulated configuration, so
//! replaying a recorded cascade must produce the identical report.

use beacon_gnn::GnnModelConfig;
use beacon_graph::{generate, FeatureTable, NodeId};
use beacon_platforms::{Engine, EngineScratch, Platform, RunMetrics};
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

fn batches_for(nodes: usize, batch: usize, batches: usize) -> Vec<Vec<NodeId>> {
    (0..batches)
        .map(|bi| {
            (0..batch)
                .map(|i| NodeId::new(((bi * batch + i) % nodes) as u32))
                .collect()
        })
        .collect()
}

fn report(m: &RunMetrics) -> String {
    m.metrics_registry().to_json_string()
}

/// The report invariants every enabled latency run must satisfy:
/// one query per target, stage sums covering end-to-end latency
/// exactly, and a rendered histogram that accounts for every query.
fn check_report(m: &RunMetrics, targets: usize) {
    assert!(m.latency.is_enabled(), "latency tracking requested");
    assert_eq!(m.latency.queries().len(), targets);
    assert_eq!(m.latency.histogram().count(), targets as u64);
    for q in m.latency.queries() {
        assert_eq!(
            q.path.total_ns(),
            q.latency_ns(),
            "stage attribution must sum to the query latency"
        );
    }
    let json = report(m);
    assert!(json.contains("\"latency\""));
    assert!(json.contains("\"latency_breakdown\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay invariance: recording a cascade and replaying it with
    /// latency tracking enabled renders the same registry bytes as the
    /// untouched full run — the sampler substitution cannot perturb a
    /// single queue wait, grant, or attributed nanosecond.
    #[test]
    fn latency_report_survives_replay_byte_identically(
        nodes in 300usize..900,
        batch in 4usize..24,
        n_batches in 1usize..3,
        epoch_ns in 1_000u64..200_000,
        seed in 0u64..1_000,
    ) {
        let dg = build_dg(nodes, 16.0, 64, seed);
        let model = GnnModelConfig::paper_default(64);
        let ssd = SsdConfig::paper_default();
        let epoch = Duration::from_ns(epoch_ns);
        let b = batches_for(nodes, batch, n_batches);
        let engine = || Engine::new(Platform::Bg2, ssd, model, &dg, seed).with_latency(epoch);

        let full = engine().run(&b);
        check_report(&full, batch * n_batches);

        let mut scratch = EngineScratch::new();
        let (recorded, recording) = engine().record_cascade(&mut scratch, &b);
        let replayed = engine().replay_with(&mut scratch, &recording, &b);
        prop_assert_eq!(&report(&recorded), &report(&full), "recording run drifted");
        prop_assert_eq!(&report(&replayed), &report(&full), "replay drifted");
    }
}
