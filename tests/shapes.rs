//! Regression tests pinning the paper's figure *shapes* at fast test
//! scale, so calibration drift that would break a reproduced trend
//! fails CI rather than silently corrupting EXPERIMENTS.md.

use beacongnn::{Dataset, Experiment, Platform, SsdConfig, Workload};

fn quick_workload() -> Workload {
    Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(3_000)
        .batch_size(64)
        .batches(2)
        .seed(11)
        .prepare()
        .expect("workload prepares")
}

fn tput(w: &Workload, p: Platform, ssd: SsdConfig) -> f64 {
    Experiment::new(w).ssd(ssd).run(p).throughput()
}

#[test]
fn fig18b_shape_bandwidth() {
    // BG-SP is firmware-capped: channel bandwidth barely matters.
    // BG-1 gains from 333 -> 800 MB/s (page transfer is its bottleneck).
    let w = quick_workload();
    let slow = SsdConfig::paper_default().with_channel_bandwidth(333_000_000);
    let fast = SsdConfig::paper_default().with_channel_bandwidth(2_400_000_000);
    let sp_gain = tput(&w, Platform::BgSp, fast) / tput(&w, Platform::BgSp, slow);
    let bg1_gain = tput(&w, Platform::Bg1, fast) / tput(&w, Platform::Bg1, slow);
    assert!(
        sp_gain < 1.15,
        "BG-SP should be bandwidth-insensitive, got {sp_gain:.2}x"
    );
    assert!(
        bg1_gain > 1.2,
        "BG-1 should gain from bandwidth, got {bg1_gain:.2}x"
    );
}

#[test]
fn fig18e_shape_dies() {
    // Page-granular platforms cannot exploit more dies (the channel is
    // already saturated at 2 dies); BG-2 can.
    let w = quick_workload();
    let few = SsdConfig::paper_default().with_dies_per_channel(2);
    let many = SsdConfig::paper_default().with_dies_per_channel(16);
    let bg1_gain = tput(&w, Platform::Bg1, many) / tput(&w, Platform::Bg1, few);
    let bg2_gain = tput(&w, Platform::Bg2, many) / tput(&w, Platform::Bg2, few);
    assert!(
        bg1_gain < 1.1,
        "BG-1 die scaling should be flat, got {bg1_gain:.2}x"
    );
    assert!(
        bg2_gain > 1.2,
        "BG-2 should scale with dies, got {bg2_gain:.2}x"
    );
}

#[test]
fn fig18f_shape_page_size() {
    // BG-1 prefers small pages (less read amplification); BG-2 is
    // insensitive (it never moves whole pages).
    let small = Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(3_000)
        .batch_size(64)
        .batches(2)
        .seed(11)
        .page_size(2048)
        .prepare()
        .unwrap();
    let large = Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(3_000)
        .batch_size(64)
        .batches(2)
        .seed(11)
        .page_size(16384)
        .prepare()
        .unwrap();
    let bg1_ratio = Experiment::new(&small).run(Platform::Bg1).throughput()
        / Experiment::new(&large).run(Platform::Bg1).throughput();
    let bg2_ratio = Experiment::new(&small).run(Platform::Bg2).throughput()
        / Experiment::new(&large).run(Platform::Bg2).throughput();
    assert!(
        bg1_ratio > 2.0,
        "BG-1 should strongly prefer small pages, got {bg1_ratio:.2}x"
    );
    // BG-2 is near-insensitive (within ±30% at this small scale, vs
    // BG-1's >2x swing); the mild preference for large pages comes from
    // fewer secondary-section reads.
    assert!(
        (0.7..=1.3).contains(&bg2_ratio),
        "BG-2 should be page-size-insensitive, got {bg2_ratio:.2}x"
    );
}

#[test]
fn fig15_shape_barrier_valleys() {
    // BG-SP's die-activity curve has deep valleys at hop barriers; the
    // out-of-order BG-DGSP runs much steadier. Compare coefficients of
    // variation of the per-slice active-die curves.
    let w = quick_workload();
    let cov = |p: Platform| {
        let m = Experiment::new(&w).run(p);
        let curve = m.die_timeline.curve(simkit::Duration::from_us(20));
        let mean = curve.iter().sum::<f64>() / curve.len() as f64;
        let var = curve.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / curve.len() as f64;
        var.sqrt() / mean.max(1e-9)
    };
    let sp = cov(Platform::BgSp);
    let dgsp = cov(Platform::BgDgsp);
    assert!(
        sp > dgsp * 1.2,
        "BG-SP CoV {sp:.2} should exceed BG-DGSP {dgsp:.2}"
    );
}

#[test]
fn fig17_shape_bg2_shortens_lifetimes() {
    let w = quick_workload();
    let dgsp = Experiment::new(&w).run(Platform::BgDgsp);
    let bg2 = Experiment::new(&w).run(Platform::Bg2);
    let cut = 1.0 - bg2.cmd_breakdown.mean_lifetime_ns() / dgsp.cmd_breakdown.mean_lifetime_ns();
    assert!(
        cut > 0.2,
        "BG-2 should cut command lifetime vs BG-DGSP, got {:.0}%",
        cut * 100.0
    );
    // Flash-proper time stays a small slice on both.
    let (_, f1, _) = dgsp.cmd_breakdown.fractions();
    let (_, f2, _) = bg2.cmd_breakdown.fractions();
    assert!(f1 < 0.2 && f2 < 0.2, "flash fractions {f1:.2}/{f2:.2}");
}

#[test]
fn fig7a_shape_is_stable() {
    use beacongnn::flash::FlashTiming;
    use beacongnn::platforms::motivation::die_scaling_sweep;
    let sweep = die_scaling_sweep(&FlashTiming::ull(), 8, 4096, 100);
    let gain = sweep[7].throughput / sweep[0].throughput;
    let lat = sweep[7].avg_latency.as_ns() as f64 / sweep[0].avg_latency.as_ns() as f64;
    assert!((1.3..=1.8).contains(&gain), "throughput gain {gain:.2}");
    assert!(lat > 4.0, "latency blow-up {lat:.1}");
}

#[test]
fn energy_shape_staging_dominates_bg1() {
    use beacongnn::energy::EnergyCosts;
    let w = quick_workload();
    let m = Experiment::new(&w).run(Platform::Bg1);
    let b = m.energy.breakdown(&EnergyCosts::default_costs());
    assert!(
        b.staging_fraction() > 0.5,
        "BG-1 should spend most energy staging pages, got {:.0}%",
        b.staging_fraction() * 100.0
    );
    let m2 = Experiment::new(&w).run(Platform::Bg2);
    let b2 = m2.energy.breakdown(&EnergyCosts::default_costs());
    assert!(
        b2.flash_backend_fraction() > 0.5,
        "BG-2 energy should concentrate in the flash backend, got {:.0}%",
        b2.flash_backend_fraction() * 100.0
    );
}
