//! Quickstart: run the CPU-centric baseline and BeaconGNN-2.0 on an
//! amazon-like workload and compare throughput, latency and energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use beacongnn::energy::EnergyCosts;
use beacongnn::report::{percent, ratio, throughput, Table};
use beacongnn::{Dataset, Experiment, Platform, Workload, WorkloadError};

fn main() -> Result<(), WorkloadError> {
    // Prepare the workload once: synthesize an amazon-like graph
    // (power-law, avg degree 168, 200-dim FP16 features), convert it to
    // DirectGraph, and draw mini-batch targets.
    let workload = Workload::builder()
        .dataset(Dataset::Amazon)
        .nodes(20_000)
        .batch_size(128)
        .batches(4)
        .seed(42)
        .prepare()?;

    let dg = workload.directgraph();
    let inflation = dg.inflation(workload.spec().feature_bytes());
    println!(
        "DirectGraph: {} pages ({} primary / {} secondary), inflation {}",
        dg.stats().total_pages(),
        dg.stats().primary_pages,
        dg.stats().secondary_pages,
        percent(inflation.inflation_ratio()),
    );
    println!();

    let exp = Experiment::new(&workload);
    let costs = EnergyCosts::default_costs();

    let mut table = Table::new(&[
        "platform",
        "throughput",
        "vs CC",
        "prep",
        "compute",
        "die util",
        "energy/target",
    ]);
    let cc = exp.run(Platform::Cc);
    for p in [Platform::Cc, Platform::Bg1, Platform::Bg2] {
        let m = exp.run(p);
        let e = m.energy.breakdown(&costs);
        table.row_owned(vec![
            m.platform.to_string(),
            throughput(m.throughput()),
            ratio(m.throughput() / cc.throughput()),
            format!("{}", m.prep_time),
            format!("{}", m.compute_time),
            percent(m.die_utilization()),
            format!("{:.2} uJ", e.total() / m.targets as f64 * 1e6),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}
