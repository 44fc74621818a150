//! Metric definitions. `BENCHMARK.json` lists the same names, units and
//! directions (a unit test keeps the two in step); the regression
//! bounds live only there.

use beacongnn::Platform;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, host time and memory, measured with tracing off.
pub const E2E: [MetricDef; 3] = [
    // Median host seconds of one closed-loop iteration.
    lower("wall_s", "s"),
    // Median host seconds of one input preparation.
    lower("setup_s", "s"),
    // Peak resident set of the workload's process (VmHWM).
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced pass. A `_s` metric is the summed
/// self time of the spans of that name; the rest are exact counts taken
/// from returned structs, or ratios whose base is named in the README.
/// A layer a workload does not exercise reads 0.
pub const LAYERS: &[MetricDef] = &[
    lower("trace_overhead_pct", "%"),
    higher("trace.coverage_pct", "%"),
    lower("graph.generate_s", "s"),
    lower("graph.features_s", "s"),
    lower("directgraph.encode_s", "s"),
    lower("directgraph.pages", "count"),
    lower("graph.partition_s", "s"),
    lower("core.diskcache.save_s", "s"),
    lower("core.diskcache.load_s", "s"),
    lower("core.diskcache.bytes", "B"),
    lower("flash.sampler_s", "s"),
    lower("flash.sampler_share", "ratio"),
    lower("platforms.engine.run_s", "s"),
    lower("platforms.engine.replay_s", "s"),
    lower("platforms.engine.events", "count"),
    lower("platforms.engine.ns_per_event", "ns"),
    lower("platforms.engine.cc_s", "s"),
    lower("platforms.engine.smartsage_s", "s"),
    lower("platforms.engine.glist_s", "s"),
    lower("platforms.engine.bg1_s", "s"),
    lower("platforms.engine.bgdg_s", "s"),
    lower("platforms.engine.bgsp_s", "s"),
    lower("platforms.engine.bgdgsp_s", "s"),
    lower("platforms.engine.bg2_s", "s"),
    lower("simkit.calendar.wheel_high_water", "count"),
    lower("simkit.calendar.far_high_water", "count"),
    lower("simkit.calendar.slots_allocated", "count"),
    higher("simkit.calendar.slots_reused", "count"),
    lower("core.replay.record_s", "s"),
    lower("core.replay.cell_replay_s", "s"),
    lower("core.replay.cell_memo_s", "s"),
    higher("core.replay.hits", "count"),
    lower("core.replay.records", "count"),
    higher("core.replay.memo_hits", "count"),
    lower("core.replay.fallbacks", "count"),
    higher("core.replay.reuse_ratio", "ratio"),
    lower("core.matrix.cell_p50_ms", "ms"),
    lower("core.matrix.cell_max_ms", "ms"),
    lower("platforms.array.record_s", "s"),
    lower("platforms.array.replay_s", "s"),
    lower("platforms.array.events", "count"),
    lower("platforms.array.ns_per_event", "ns"),
    lower("platforms.array.rounds", "count"),
    lower("platforms.array.messages", "count"),
    lower("platforms.array.replay_t2_s", "s"),
    higher("platforms.array.t2_speedup", "ratio"),
    lower("platforms.partition.t1_s", "s"),
    lower("platforms.partition.t2_s", "s"),
    lower("platforms.partition.lane_overhead", "ratio"),
    lower("platforms.lat.run_s", "s"),
    lower("platforms.lat.overhead_pct", "%"),
    higher("platforms.lat.queries", "count"),
    lower("simkit.obs.observed_run_s", "s"),
    lower("simkit.obs.overhead_pct", "%"),
    lower("simkit.obs.render_s", "s"),
    lower("simkit.obs.report_bytes", "B"),
    lower("model.paper_err_pct", "%"),
];

/// The per-platform engine-time metric of `p`.
pub fn platform_key(p: Platform) -> &'static str {
    match p {
        Platform::Cc => "platforms.engine.cc_s",
        Platform::SmartSage => "platforms.engine.smartsage_s",
        Platform::Glist => "platforms.engine.glist_s",
        Platform::Bg1 => "platforms.engine.bg1_s",
        Platform::BgDg => "platforms.engine.bgdg_s",
        Platform::BgSp => "platforms.engine.bgsp_s",
        Platform::BgDgsp => "platforms.engine.bgdgsp_s",
        Platform::Bg2 => "platforms.engine.bg2_s",
    }
}

/// The paper's Fig 14 averages as (numerator, denominator, ratio): the
/// values the `experiments fig14` footer and EXPERIMENTS.md quote.
pub const PAPER_RATIOS: [(Platform, Platform, f64); 7] = [
    (Platform::SmartSage, Platform::Cc, 2.11),
    (Platform::Glist, Platform::Cc, 1.42),
    (Platform::Bg1, Platform::Cc, 2.35),
    (Platform::BgSp, Platform::Bg1, 5.47),
    (Platform::BgDgsp, Platform::BgSp, 1.20),
    (Platform::Bg2, Platform::BgDgsp, 1.41),
    (Platform::Bg2, Platform::Cc, 21.70),
];

/// Mean of |simulated / paper − 1| × 100 over [`PAPER_RATIOS`], where
/// `geomean(p)` is platform `p`'s geometric-mean throughput over the
/// datasets, normalized to CC.
pub fn paper_err_pct(geomean: impl Fn(Platform) -> f64) -> f64 {
    let errs: Vec<f64> = PAPER_RATIOS
        .iter()
        .map(|&(num, den, paper)| (geomean(num) / geomean(den) / paper - 1.0).abs() * 100.0)
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn paper_error_on_a_fixed_ratio_table() {
        // Geomeans that reproduce every paper ratio exactly.
        let exact = |p: Platform| match p {
            Platform::Cc => 1.0,
            Platform::SmartSage => 2.11,
            Platform::Glist => 1.42,
            Platform::Bg1 => 2.35,
            Platform::BgSp => 2.35 * 5.47,
            Platform::BgDgsp => 2.35 * 5.47 * 1.20,
            Platform::Bg2 => 21.70,
            Platform::BgDg => 1.0,
        };
        // BG-2/BG-DGSP is then 21.70 / 15.4254 = 1.40677…, 0.229% under
        // the paper's 1.41; every other ratio is exact.
        let want = (21.70_f64 / (2.35 * 5.47 * 1.20) / 1.41 - 1.0).abs() * 100.0 / 7.0;
        assert!((paper_err_pct(exact) - want).abs() < 1e-12);
        // SmartSage 10% high adds 10/7 points.
        let smartsage_high = |p| {
            if p == Platform::SmartSage {
                2.11 * 1.1
            } else {
                exact(p)
            }
        };
        assert!((paper_err_pct(smartsage_high) - want - 10.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&E2E));
        assert_eq!(listed("per_layer"), ours(LAYERS));
    }
}
