//! Real-time GNN query support (paper §VIII).
//!
//! GNN queries are small-batch inference requests where *latency* is
//! critical. The paper argues BeaconGNN helps because it reduces
//! host-SSD communication to one round and avoids channel-congestion
//! queueing. This module measures per-query latency: the end-to-end
//! time of a single mini-batch of `batch_size` targets, unpipelined
//! (a query cannot overlap with itself).

use beacon_gnn::GnnModelConfig;
use beacon_graph::NodeId;
use beacon_ssd::SsdConfig;
use directgraph::DirectGraph;
use simkit::Duration;

use crate::engine::Engine;
use crate::spec::Platform;

/// Latency statistics over a set of queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLatency {
    /// Targets per query.
    pub batch_size: usize,
    /// Queries measured.
    pub queries: usize,
    /// Mean end-to-end latency (prep + compute, no pipelining).
    pub mean: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

/// Measures query latency for `platform`: each query is one mini-batch
/// of `batch_size` targets, simulated in isolation so no cross-query
/// pipelining hides latency.
///
/// # Panics
///
/// Panics if `queries` is zero or any target is missing from the
/// directory.
pub fn measure_query_latency(
    platform: Platform,
    ssd: SsdConfig,
    model: GnnModelConfig,
    dg: &DirectGraph,
    queries: &[Vec<NodeId>],
    seed: u64,
) -> QueryLatency {
    assert!(!queries.is_empty(), "need at least one query");
    let batch_size = queries[0].len();
    let mut total = Duration::ZERO;
    let mut max = Duration::ZERO;
    for (i, q) in queries.iter().enumerate() {
        // Fresh engine per query: queries arrive against an idle device.
        let m = Engine::new(platform, ssd, model, dg, seed ^ (i as u64) << 7)
            .run(std::slice::from_ref(q));
        total += m.makespan;
        max = max.max(m.makespan);
    }
    QueryLatency {
        batch_size,
        queries: queries.len(),
        mean: total / queries.len() as u64,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_graph::{generate, FeatureTable};
    use directgraph::{build::DirectGraphBuilder, AddrLayout};

    fn setup() -> (DirectGraph, GnnModelConfig) {
        let cfg = generate::PowerLawConfig::new(2_000, 25.0);
        let graph = generate::power_law(&cfg, 3);
        let feats = FeatureTable::synthetic(2_000, 100, 3);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &feats)
            .unwrap();
        (dg, GnnModelConfig::paper_default(100))
    }

    fn queries(n: usize, batch: usize) -> Vec<Vec<NodeId>> {
        (0..n)
            .map(|q| {
                (0..batch)
                    .map(|i| NodeId::new(((q * batch + i) % 2_000) as u32))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bg2_query_latency_beats_cc() {
        let (dg, model) = setup();
        let qs = queries(4, 4);
        let cc =
            measure_query_latency(Platform::Cc, SsdConfig::paper_default(), model, &dg, &qs, 1);
        let bg2 = measure_query_latency(
            Platform::Bg2,
            SsdConfig::paper_default(),
            model,
            &dg,
            &qs,
            1,
        );
        // §VIII: one communication round + no channel congestion =>
        // much lower query latency.
        let speedup = cc.mean.as_ns() as f64 / bg2.mean.as_ns() as f64;
        assert!(speedup > 3.0, "query speedup only {speedup:.1}x");
        assert!(bg2.max >= bg2.mean);
        assert_eq!(bg2.batch_size, 4);
        assert_eq!(bg2.queries, 4);
    }

    #[test]
    fn single_target_query_is_microseconds_on_bg2() {
        let (dg, model) = setup();
        let qs = queries(4, 1);
        let bg2 = measure_query_latency(
            Platform::Bg2,
            SsdConfig::paper_default(),
            model,
            &dg,
            &qs,
            2,
        );
        // 40 dependent-ish reads at 3us each, heavily overlapped, plus
        // compute: should land well under a millisecond.
        assert!(
            bg2.mean < Duration::from_ms(1),
            "query latency {}",
            bg2.mean
        );
    }

    #[test]
    fn barrier_platforms_pay_per_hop_roundtrips() {
        let (dg, model) = setup();
        let qs = queries(2, 1);
        let ssd = SsdConfig::paper_default();
        let bg1 = measure_query_latency(Platform::Bg1, ssd, model, &dg, &qs, 3);
        let bgdg = measure_query_latency(Platform::BgDg, ssd, model, &dg, &qs, 3);
        // BG-DG removes the inter-hop host round trips; for tiny
        // queries those dominate.
        assert!(bg1.mean > bgdg.mean);
    }
}
