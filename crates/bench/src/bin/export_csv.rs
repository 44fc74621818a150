//! Exports every experiment's results as CSV files for external
//! plotting (one file per table/figure).
//!
//! ```sh
//! cargo run --release -p beacon-bench --bin export_csv -- out_dir
//! cargo run --release -p beacon-bench --bin export_csv -- out_dir --jobs 8
//! ```
//!
//! `--jobs N` (default: all available cores) parallelizes the
//! underlying simulation sweeps; the CSV contents are byte-identical
//! at any job count.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

use beacon_bench as bench;
use beacon_bench::{Sweep, DEFAULT_BATCH, DEFAULT_NODES};
use beacon_platforms::Platform;
use beacongnn::{Dataset, Experiment};
use simkit::obs::format_f64;
use simkit::MetricValue;

fn main() -> std::io::Result<()> {
    let mut jobs = beacongnn::default_jobs();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            other if other.starts_with("--jobs=") => {
                let v = &other["--jobs=".len()..];
                jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            _ => positional.push(arg),
        }
    }
    bench::set_jobs(jobs);
    let dir = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "experiment_csv".to_string());
    fs::create_dir_all(&dir)?;
    let dir = Path::new(&dir);

    // Fig 7a.
    {
        let mut w = writer(dir, "fig7a_die_scaling.csv")?;
        writeln!(w, "dies,throughput_pages_per_s,avg_latency_ns")?;
        for p in bench::fig7a() {
            writeln!(w, "{},{},{}", p.dies, p.throughput, p.avg_latency.as_ns())?;
        }
    }

    // Fig 14.
    {
        let mut w = writer(dir, "fig14_throughput.csv")?;
        writeln!(w, "dataset,platform,normalized_vs_cc,targets_per_s")?;
        for r in bench::fig14(DEFAULT_NODES, DEFAULT_BATCH) {
            writeln!(
                w,
                "{},{},{:.4},{:.1}",
                r.dataset, r.platform, r.normalized, r.targets_per_sec
            )?;
        }
    }

    // Fig 15 curves.
    {
        let mut w = writer(dir, "fig15_utilization.csv")?;
        writeln!(w, "platform,slice_index,active_dies,active_channels")?;
        for p in [Platform::BgSp, Platform::BgDgsp, Platform::Bg2] {
            let c = bench::fig15_curves(p, DEFAULT_NODES, DEFAULT_BATCH);
            for (i, (d, ch)) in c.dies.iter().zip(&c.channels).enumerate() {
                writeln!(w, "{},{},{:.3},{:.3}", p, i, d, ch)?;
            }
        }
    }

    // Fig 16 hop windows.
    {
        let mut w = writer(dir, "fig16_hop_timeline.csv")?;
        writeln!(w, "platform,hop,start_ns,end_ns")?;
        for p in Platform::BG_CHAIN {
            let m = bench::fig16(p, DEFAULT_NODES, 64);
            for hw in &m.hop_windows {
                writeln!(
                    w,
                    "{},{},{},{}",
                    p,
                    hw.hop,
                    hw.start.as_ns(),
                    hw.end.as_ns()
                )?;
            }
        }
    }

    // Fig 17 breakdown.
    {
        let mut w = writer(dir, "fig17_cmd_breakdown.csv")?;
        writeln!(
            w,
            "platform,wait_before_frac,flash_frac,wait_after_frac,mean_lifetime_ns"
        )?;
        for p in Platform::BG_CHAIN {
            let m = bench::fig17(p, DEFAULT_NODES, DEFAULT_BATCH);
            let (a, b, c) = m.cmd_breakdown.fractions();
            writeln!(
                w,
                "{},{:.4},{:.4},{:.4},{:.1}",
                p,
                a,
                b,
                c,
                m.cmd_breakdown.mean_lifetime_ns()
            )?;
        }
    }

    // Fig 18 sweeps.
    {
        let mut w = writer(dir, "fig18_sensitivity.csv")?;
        writeln!(w, "sweep,platform,point,targets_per_s")?;
        for sweep in Sweep::ALL {
            for r in bench::fig18(sweep, DEFAULT_NODES) {
                writeln!(
                    w,
                    "{},{},{},{:.1}",
                    sweep.name(),
                    r.platform,
                    r.point,
                    r.targets_per_sec
                )?;
            }
        }
    }

    // Fig 19 energy.
    {
        let mut w = writer(dir, "fig19_energy.csv")?;
        writeln!(
            w,
            "platform,flash_j,channel_j,dram_j,pcie_j,cores_j,host_j,accel_j,\
             targets_per_joule,avg_power_w"
        )?;
        for r in bench::fig19(DEFAULT_NODES, DEFAULT_BATCH) {
            let b = r.breakdown;
            writeln!(
                w,
                "{},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{:.2},{:.2}",
                r.platform,
                b.flash,
                b.channel,
                b.dram,
                b.pcie,
                b.cores,
                b.host,
                b.accel,
                r.efficiency,
                r.avg_power
            )?;
        }
    }

    // Table IV.
    {
        let mut w = writer(dir, "table4_inflation.csv")?;
        writeln!(w, "dataset,paper_raw_gb,inflation,page_utilization")?;
        for r in bench::table4(DEFAULT_NODES) {
            writeln!(
                w,
                "{},{},{:.4},{:.4}",
                r.dataset, r.paper_raw_gb, r.inflation, r.page_utilization
            )?;
        }
    }

    // §VII-E.
    {
        let mut w = writer(dir, "sec7e_traditional.csv")?;
        writeln!(w, "platform,normalized_vs_cc")?;
        for (p, x) in bench::traditional_ssd(DEFAULT_NODES, DEFAULT_BATCH) {
            writeln!(w, "{p},{x:.4}")?;
        }
    }

    // §VIII extensions.
    {
        let mut w = writer(dir, "ext_query_latency.csv")?;
        writeln!(w, "platform,mean_ns,max_ns")?;
        for r in bench::query_latency(DEFAULT_NODES, 6) {
            writeln!(w, "{},{},{}", r.platform, r.mean.as_ns(), r.max.as_ns())?;
        }
    }
    {
        let mut w = writer(dir, "ext_latency_tail.csv")?;
        writeln!(
            w,
            "platform,batch_size,mean_ns,p50_ns,p99_ns,p999_ns,max_ns,\
             queue_frac,dominant,dominant_frac"
        )?;
        for r in bench::latency_figure(DEFAULT_NODES) {
            writeln!(
                w,
                "{},{},{:.1},{},{},{},{},{:.4},{},{:.4}",
                r.platform,
                r.batch_size,
                r.mean_ns,
                r.p50_ns,
                r.p99_ns,
                r.p999_ns,
                r.max_ns,
                r.queue_frac,
                r.dominant,
                r.dominant_frac
            )?;
        }
    }
    {
        let mut w = writer(dir, "ext_interference.csv")?;
        writeln!(w, "batch_size,batch_window_ns,expected_deferral_ns")?;
        for r in bench::interference(DEFAULT_NODES) {
            writeln!(
                w,
                "{},{},{}",
                r.batch_size,
                r.batch_window.as_ns(),
                r.expected_deferral.as_ns()
            )?;
        }
    }

    // Full metrics registry, one row per field. Sections and fields
    // are enumerated generically, so sections added later (`pools`,
    // `replay`, ...) land here automatically instead of being dropped
    // by a hardcoded list.
    {
        let mut w = writer(dir, "metrics_registry.csv")?;
        writeln!(w, "platform,section,field,value")?;
        let wl = bench::workload(Dataset::Amazon, DEFAULT_NODES, DEFAULT_BATCH);
        for p in Platform::BG_CHAIN {
            let m = Experiment::new(&wl).run(p);
            for (section, s) in m.metrics_registry().iter() {
                for (field, value) in s.iter() {
                    let v = match value {
                        MetricValue::Bool(b) => b.to_string(),
                        MetricValue::U64(x) => x.to_string(),
                        MetricValue::F64(x) => format_f64(*x),
                        MetricValue::Str(s) => s.clone(),
                    };
                    writeln!(w, "{p},{section},{field},{v}")?;
                }
            }
        }
    }

    println!("CSV files written to {}", dir.display());
    let _ = Dataset::ALL; // re-exported for plotting scripts' reference
    Ok(())
}

fn writer(dir: &Path, name: &str) -> std::io::Result<BufWriter<File>> {
    Ok(BufWriter::new(File::create(dir.join(name))?))
}
