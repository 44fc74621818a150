//! Regenerates every table and figure of the BeaconGNN evaluation.
//!
//! ```sh
//! cargo run --release -p beacon-bench --bin experiments            # everything
//! cargo run --release -p beacon-bench --bin experiments fig14     # one figure
//! cargo run --release -p beacon-bench --bin experiments fig18 cores
//! cargo run --release -p beacon-bench --bin experiments all --jobs 8
//! ```
//!
//! `--jobs N` (default: all available cores) fans independent
//! simulation cells — and, under `all`, whole figures — across worker
//! threads. Every cell's seed is fixed by its identity before execution
//! starts, so stdout is byte-identical at any job count; only the
//! wall-clock changes. The per-figure timing summary goes to stderr.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use beacon_bench as bench;
use beacon_bench::{Sweep, DEFAULT_BATCH, DEFAULT_NODES};
use beacon_platforms::Platform;
use beacongnn::report::{percent, ratio, Table};

/// An experiment's entry point; it receives the arguments after the name.
type Entry = fn(&[String]);

/// Every accepted experiment. `main` dispatches through this table and
/// the usage message lists it, so the two cannot drift apart.
const EXPERIMENTS: &[(&str, Entry)] = &[
    ("fig7a", |_| print!("{}", fig7a())),
    ("fig7b", |_| print!("{}", fig7b())),
    ("fig14", |_| print!("{}", fig14())),
    ("fig15", |_| print!("{}", fig15())),
    ("fig15f", |_| print!("{}", fig15f())),
    ("fig16", |_| print!("{}", fig16())),
    ("fig17", |_| print!("{}", fig17())),
    ("fig18", |args| {
        print!("{}", fig18(args.first().map(String::as_str)))
    }),
    ("fig19", |_| print!("{}", fig19())),
    ("table4", |_| print!("{}", table4())),
    ("trad_ssd", |_| print!("{}", trad_ssd())),
    ("config", |_| print!("{}", config())),
    ("query", |_| print!("{}", query())),
    ("scaleout", scaleout),
    ("ablation", |_| print!("{}", ablation())),
    ("interference", |_| print!("{}", interference())),
    ("obs", obs),
    ("latency", latency),
    ("all", |_| run_all()),
];

fn main() {
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

    let which = positional.first().map(String::as_str).unwrap_or("all");
    let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == which) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment `{which}`; expected one of: {} \
             (fig18 takes an optional sweep; plus --jobs N)",
            names.join(" ")
        );
        std::process::exit(2);
    };
    run(positional.get(1..).unwrap_or_default());
}

/// Runs every figure on a figure-level worker pool (each worker steals
/// the next un-rendered figure) and prints them in fixed order.
fn run_all() {
    type FigureFn = fn() -> String;
    let figures: Vec<(&str, FigureFn)> = vec![
        ("fig7a", fig7a as FigureFn),
        ("fig7b", fig7b),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig15f", fig15f),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", || fig18(None)),
        ("fig19", fig19),
        ("table4", table4),
        ("trad_ssd", trad_ssd),
        ("query", query),
        ("scaleout", scaleout_figure),
        ("ablation", ablation),
        ("interference", interference),
        ("latency", latency_figure_text),
    ];

    let jobs = bench::jobs();
    let next = AtomicUsize::new(0);
    let mut rendered: Vec<Option<(String, f64)>> = Vec::new();
    rendered.resize_with(figures.len(), || None);
    let workers = jobs.min(figures.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((_, f)) = figures.get(i) else { break };
                        let t = Instant::now();
                        let out = f();
                        mine.push((i, out, t.elapsed().as_secs_f64()));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (i, out, secs) in handle.join().expect("figure worker panicked") {
                rendered[i] = Some((out, secs));
            }
        }
    });

    // stdout: figures in canonical order, independent of schedule;
    // stderr: the wall-clock summary, kept off stdout so output stays
    // byte-identical across job counts.
    let rendered: Vec<(String, f64)> = rendered
        .into_iter()
        .map(|slot| slot.expect("figure rendered"))
        .collect();
    for (out, _) in &rendered {
        print!("{out}");
    }
    eprintln!("\n--- timing summary ({jobs} jobs) ---");
    for ((name, _), (_, secs)) in figures.iter().zip(&rendered) {
        eprintln!("{name:>14}  {secs:8.3} s");
    }
}

fn header(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n=== {title} ===\n");
}

fn fig7a() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Fig 7a — ULL die scaling under page-granular channel transfer",
    );
    let sweep = bench::fig7a();
    let base = &sweep[0];
    let mut t = Table::new(&[
        "dies",
        "throughput (pages/s)",
        "vs 1 die",
        "avg latency",
        "vs 1 die",
    ]);
    for p in &sweep {
        t.row_owned(vec![
            p.dies.to_string(),
            format!("{:.0}", p.throughput),
            ratio(p.throughput / base.throughput),
            format!("{}", p.avg_latency),
            ratio(p.avg_latency.as_ns() as f64 / base.avg_latency.as_ns() as f64),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "paper: 8 dies give ~1.49x throughput at ~7.7x latency");
    out
}

fn fig7b() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Fig 7b — motivation: hop-by-hop barrier idles flash resources",
    );
    let rows = bench::fig7b(DEFAULT_NODES);
    let mut t = Table::new(&[
        "batch size",
        "die util (barriered)",
        "die util (out-of-order)",
        "prep inflation",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.batch_size.to_string(),
            percent(r.barriered_util),
            percent(r.out_of_order_util),
            ratio(r.prep_inflation),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: the strict hop order (Fig 5) leaves dies idle at every hop boundary;\n\
         larger batches dilute but never remove the barrier cost"
    );
    out
}

fn fig14() -> String {
    let rows = bench::fig14(DEFAULT_NODES, DEFAULT_BATCH);
    let mut out = String::new();
    header(
        &mut out,
        "Fig 14 — normalized throughput (vs CC) across workloads",
    );
    let mut t = Table::new(&[
        "platform",
        "reddit",
        "amazon",
        "movielens",
        "OGBN",
        "PPI",
        "geomean",
    ]);
    for p in Platform::ALL {
        let mut cells = vec![p.to_string()];
        for d in beacongnn::Dataset::ALL {
            let r = rows
                .iter()
                .find(|r| r.platform == p && r.dataset == d)
                .expect("cell exists");
            cells.push(ratio(r.normalized));
        }
        cells.push(ratio(bench::geomean_normalized(&rows, p)));
        t.row_owned(cells);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper (avg): SmartSage 2.11x, GList 1.42x, BG-1 2.35x, BG-SP 5.47x over BG-1,\n\
         BG-DGSP +20% over BG-SP, BG-2 +41% over BG-DGSP, BG-2 = 21.70x CC overall"
    );
    out
}

fn fig15() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Fig 15a-e — active flash channels/dies over time (amazon)",
    );
    for p in [Platform::BgSp, Platform::BgDgsp, Platform::Bg2] {
        let c = bench::fig15_curves(p, DEFAULT_NODES, DEFAULT_BATCH);
        let _ = writeln!(
            out,
            "{:>8}: mean die util {} | mean channel util {} | slice {}",
            p.to_string(),
            percent(c.die_utilization),
            percent(c.channel_utilization),
            c.slice
        );
        let spark = |xs: &[f64], max: f64| -> String {
            const GLYPHS: [char; 8] = [
                '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
                '\u{2588}',
            ];
            xs.iter()
                .take(72)
                .map(|&x| GLYPHS[(x / max * 7.0).min(7.0) as usize])
                .collect()
        };
        let _ = writeln!(out, "   dies  {}", spark(&c.dies, 128.0));
        let _ = writeln!(out, "   chans {}", spark(&c.channels, 16.0));
    }
    let _ = writeln!(
        out,
        "\npaper: BG-SP shows low-utilization valleys at hop barriers; BG-DGSP is even;\n\
         BG-2 lifts both utilizations by ~76% over BG-SP"
    );

    let _ = writeln!(
        out,
        "\nPer-workload BG-2 utilization (Fig 15a-e's dataset comparison):\n"
    );
    let mut t = Table::new(&["dataset", "die util", "channel util"]);
    for (d, die, chan) in bench::fig15_dataset_utilization(DEFAULT_NODES, DEFAULT_BATCH) {
        t.row_owned(vec![d.to_string(), percent(die), percent(chan)]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: reddit/PPI die-starved (long features saturate channels); movielens/OGBN\n\
         channel-starved (short features); amazon highest on both — hence used for all\n\
         single-workload experiments"
    );
    out
}

fn fig15f() -> String {
    let mut out = String::new();
    header(&mut out, "Fig 15f — stage latency breakdown (amazon)");
    let mut t = Table::new(&[
        "platform", "flash", "channel", "firmware", "dram", "pcie", "host", "accel",
    ]);
    for p in Platform::ALL {
        let m = bench::fig15f(p, DEFAULT_NODES, DEFAULT_BATCH);
        let s = m.stages;
        t.row_owned(vec![
            p.to_string(),
            format!("{}", s.flash_read),
            format!("{}", s.channel),
            format!("{}", s.firmware),
            format!("{}", s.dram),
            format!("{}", s.pcie),
            format!("{}", s.host),
            format!("{}", s.accel),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: CC dominated by PCIe transfer; BG-1/BG-DG by flash (page) I/O;\n\
         host-side delay is a minor part everywhere"
    );
    out
}

fn fig16() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Fig 16 — hop timeline of the data-preparation stage (amazon)",
    );
    for p in [
        Platform::Bg1,
        Platform::BgDg,
        Platform::BgSp,
        Platform::BgDgsp,
        Platform::Bg2,
    ] {
        let m = bench::fig16(p, DEFAULT_NODES, 64);
        let _ = write!(out, "{:>8}: ", p.to_string());
        for w in &m.hop_windows {
            let _ = write!(out, "hop{} [{} - {}]  ", w.hop, w.start, w.end);
        }
        let _ = writeln!(out, "overlap {}", percent(bench::hop_overlap_fraction(&m)));
    }
    let _ = writeln!(
        out,
        "\npaper: BG-1/BG-SP have strictly ordered hops with gaps; BG-DG/BG-DGSP/BG-2\n\
         overlap hops, BG-2 creating the largest overlap"
    );
    out
}

fn fig17() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Fig 17 — flash command latency breakdown (amazon)",
    );
    let mut t = Table::new(&[
        "platform",
        "wait_before_flash",
        "flash",
        "wait_after_flash",
        "mean lifetime",
    ]);
    for p in Platform::BG_CHAIN {
        let m = bench::fig17(p, DEFAULT_NODES, DEFAULT_BATCH);
        let (w, f, a) = m.cmd_breakdown.fractions();
        t.row_owned(vec![
            p.to_string(),
            percent(w),
            percent(f),
            percent(a),
            format!("{:.1}us", m.cmd_breakdown.mean_lifetime_ns() / 1000.0),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: flash-proper time is a small slice everywhere; BG-SP slashes both wait\n\
         classes; DirectGraph lengthens wait_before (more ready commands); BG-2 cuts\n\
         wait time ~68% vs BG-DGSP"
    );
    out
}

fn fig18(which: Option<&str>) -> String {
    let sweeps: Vec<Sweep> = match which {
        None | Some("all") => Sweep::ALL.to_vec(),
        Some("batch") => vec![Sweep::BatchSize],
        Some("bandwidth") => vec![Sweep::ChannelBandwidth],
        Some("cores") => vec![Sweep::Cores],
        Some("channels") => vec![Sweep::Channels],
        Some("dies") => vec![Sweep::DiesPerChannel],
        Some("pagesize") => vec![Sweep::PageSize],
        Some(other) => {
            eprintln!("unknown sweep `{other}`");
            std::process::exit(2);
        }
    };
    let mut out = String::new();
    for sweep in sweeps {
        header(&mut out, &format!("Fig 18 — sensitivity: {}", sweep.name()));
        let rows = bench::fig18(sweep, DEFAULT_NODES);
        let points = sweep.points();
        let mut headers: Vec<String> = vec!["platform".into()];
        headers.extend(points.iter().map(|p| p.to_string()));
        let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(&hdr_refs);
        for p in Platform::BG_CHAIN {
            // Normalize to the lowest point of this platform, like the
            // paper ("results normalized to the lowest point").
            let vals: Vec<f64> = points
                .iter()
                .map(|&pt| {
                    rows.iter()
                        .find(|r| r.platform == p && r.point == pt)
                        .map(|r| r.targets_per_sec)
                        .unwrap_or(0.0)
                })
                .collect();
            let base = vals.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-9);
            let mut cells = vec![p.to_string()];
            cells.extend(vals.iter().map(|&v| ratio(v / base)));
            t.row_owned(cells);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    out
}

fn fig19() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "Fig 19 — energy breakdown and efficiency (amazon)",
    );
    let rows = bench::fig19(DEFAULT_NODES, DEFAULT_BATCH);
    let cc_eff = rows
        .iter()
        .find(|r| r.platform == Platform::Cc)
        .unwrap()
        .efficiency;
    let mut t = Table::new(&[
        "platform",
        "flash",
        "channel",
        "dram",
        "pcie",
        "cores",
        "host",
        "accel",
        "eff vs CC",
        "avg power",
    ]);
    for r in &rows {
        let b = &r.breakdown;
        let total = b.total().max(1e-18);
        t.row_owned(vec![
            r.platform.to_string(),
            percent(b.flash / total),
            percent(b.channel / total),
            percent(b.dram / total),
            percent(b.pcie / total),
            percent(b.cores / total),
            percent(b.host / total),
            percent(b.accel / total),
            ratio(r.efficiency / cc_eff),
            format!("{:.1} W", r.avg_power),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: CC spends 57% outside storage; BG-1/BG-DG spend 75% staging pages to\n\
         DRAM; BG-2 = 9.86x CC and 4.25x BG-1 efficiency at 13.4 W average"
    );
    out
}

fn table4() -> String {
    let mut out = String::new();
    header(&mut out, "Table IV — DirectGraph storage inflation");
    let rows = bench::table4(DEFAULT_NODES);
    let mut t = Table::new(&[
        "dataset",
        "paper raw (GB)",
        "measured inflation",
        "page utilization",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.dataset.to_string(),
            format!("{:.1}", r.paper_raw_gb),
            percent(r.inflation),
            percent(r.page_utilization),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: reddit 2.8%, amazon 4.1%, movielens 3.5%, OGBN 32.3%, PPI 3.5%"
    );
    out
}

fn trad_ssd() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§VII-E — traditional 20us SSD (avg normalized throughput vs CC)",
    );
    let rows = bench::traditional_ssd(DEFAULT_NODES, DEFAULT_BATCH);
    let mut t = Table::new(&["platform", "vs CC (20us flash)"]);
    for (p, x) in &rows {
        t.row_owned(vec![p.to_string(), ratio(*x)]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: BG-1 2.20x, BG-DG 2.50x, BG-SP 3.19x, BG-DGSP 4.19x, BG-2 4.19x\n\
         (BG-2 ~ BG-DGSP: firmware suffices at 20us reads)"
    );
    out
}

fn query() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§VIII extension — single-target GNN query latency (amazon)",
    );
    let rows = bench::query_latency(DEFAULT_NODES, 6);
    let cc = rows
        .iter()
        .find(|r| r.platform == Platform::Cc)
        .expect("CC row");
    let mut t = Table::new(&["platform", "mean latency", "max latency", "speedup vs CC"]);
    for r in &rows {
        t.row_owned(vec![
            r.platform.to_string(),
            format!("{}", r.mean),
            format!("{}", r.max),
            ratio(cc.mean.as_ns() as f64 / r.mean.as_ns() as f64),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper §VIII: one host round + no channel congestion => much lower query delay"
    );
    out
}

/// `scaleout [--metrics PATH]` — the simulated multi-SSD array sweep:
/// 1–16 device lanes behind the partition-aware host router, across
/// partition strategies and fabrics. `--metrics` writes the 8-device
/// bfs_grow PCIe-P2P cell's full registry (per-device + fabric-link
/// sections) as JSON.
fn scaleout(args: &[String]) {
    let mut metrics: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics" => {
                metrics = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--metrics expects a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown scaleout flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let report = bench::scaleout(DEFAULT_NODES, DEFAULT_BATCH, bench::jobs());
    print!("{}", scaleout_render(&report));
    if let Some(path) = metrics {
        let file = File::create(&path).unwrap_or_else(|e| {
            eprintln!("create {path}: {e}");
            std::process::exit(1);
        });
        report
            .showcase
            .metrics_registry()
            .write_json(BufWriter::new(file))
            .unwrap_or_else(|e| {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("metrics written to {path}");
    }
}

fn scaleout_figure() -> String {
    scaleout_render(&bench::scaleout(
        DEFAULT_NODES,
        DEFAULT_BATCH,
        bench::jobs(),
    ))
}

fn scaleout_render(report: &bench::ScaleoutReport) -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§VIII scale-out — simulated multi-SSD array (amazon, BG-2)",
    );
    for (fabric, cfg) in bench::scaleout_fabrics() {
        let _ = writeln!(
            out,
            "fabric {fabric}: {:.1} GB/s per link, {} hop latency\n",
            cfg.bandwidth as f64 / 1e9,
            cfg.hop_latency
        );
        let mut t = Table::new(&[
            "devices",
            "partition",
            "throughput",
            "efficiency",
            "cut frac",
            "cross frac",
            "fabric traffic",
        ]);
        for r in report.rows.iter().filter(|r| r.fabric == fabric) {
            t.row_owned(vec![
                r.devices.to_string(),
                r.strategy.name().to_string(),
                format!("{:.0}/s", r.targets_per_sec),
                percent(r.efficiency),
                percent(r.cut_fraction),
                percent(r.cross_fraction),
                format!("{:.2} MB", r.fabric_mb),
            ]);
        }
        let _ = writeln!(out, "{}", t.render());
    }
    let s = &report.showcase;
    let _ = writeln!(
        out,
        "showcase (8 devices, bfs_grow, pcie_p2p): {} rounds, {} cross-device messages,\n\
         {} command-hop edges of {} sampled, makespan {}",
        s.rounds, s.messages, s.cross_edges, s.total_edges, s.metrics.makespan
    );
    let _ = writeln!(
        out,
        "paper §VIII: capacity and computation should grow with SSDs over the P2P fabric.\n\
         On this power-law graph locality partitioning (bfs_grow) trims the cut but\n\
         concentrates the high-degree hubs on few devices, so the balanced hash/range\n\
         partitions win end-to-end; on clustered graphs the ranking flips (see the\n\
         beacon-platforms array tests). A thin fabric caps scaling outright."
    );
    out
}

fn ablation() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§VIII extension — DRAM-bottleneck mitigation ablation (BG-2, 32 channels)",
    );
    let rows = bench::dram_ablation(DEFAULT_NODES, 256);
    let base = rows[0].1;
    let mut t = Table::new(&["configuration", "prep rate", "vs baseline"]);
    for (name, tput) in &rows {
        t.row_owned(vec![
            name.to_string(),
            format!("{tput:.0}/s"),
            ratio(tput / base),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper §VIII: at high flash throughput SSD DRAM becomes the bottleneck; higher\n\
         memory bandwidth or direct flash->SRAM I/O relieves it"
    );
    out
}

fn interference() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "§VI-G extension — regular-I/O deferral during acceleration mode (BG-2)",
    );
    let rows = bench::interference(DEFAULT_NODES);
    let mut t = Table::new(&["batch size", "batch window", "expected deferral"]);
    for r in &rows {
        t.row_owned(vec![
            r.batch_size.to_string(),
            format!("{}", r.batch_window),
            format!("{}", r.expected_deferral),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper §VI-G: regular requests arriving mid-batch defer to the batch boundary;\n\
         small batches keep the deferral window (and thus the regular-I/O latency hit)\n\
         short"
    );
    out
}

fn config() -> String {
    let mut out = String::new();
    header(&mut out, "Table II/III — configuration inputs");
    let ssd = beacongnn::SsdConfig::paper_default();
    let _ = writeln!(
        out,
        "SSD: {} channels x {} dies, {} B pages, read {} / channel {} MB/s,\n\
         {} cores @ {} GHz, DRAM {:.1} GB/s, PCIe {:.1} GB/s",
        ssd.geometry.channels,
        ssd.geometry.dies_per_channel,
        ssd.geometry.page_size,
        ssd.timing.read_latency,
        ssd.timing.channel_bandwidth / 1_000_000,
        ssd.cores,
        ssd.core_hz as f64 / 1e9,
        ssd.dram_bandwidth as f64 / 1e9,
        ssd.pcie_bandwidth as f64 / 1e9,
    );
    let mut t = Table::new(&["dataset", "avg degree", "feature dim", "paper raw (GB)"]);
    for d in beacongnn::Dataset::ALL {
        let s = beacongnn::DatasetSpec::preset(d);
        t.row_owned(vec![
            d.to_string(),
            format!("{:.0}", s.avg_degree),
            s.feature_dim.to_string(),
            format!("{:.1}", s.paper_raw_gb),
        ]);
    }
    let _ = writeln!(out, "\n{}", t.render());
    out
}

/// `obs` — the observability smoke: one observed run (spans + metrics
/// report) plus an all-platform matrix summary executed through the
/// parallel runner at the `--jobs` setting.
///
/// All stdout and both export files derive from the simulation alone,
/// so they are byte-identical at any job count — CI diffs them across
/// `--jobs 1` and `--jobs 4`. File-write confirmations go to stderr
/// (paths differ between CI passes).
fn obs(args: &[String]) {
    let mut platform = Platform::Bg2;
    let mut dataset = beacongnn::Dataset::Amazon;
    let mut nodes = 4_000usize;
    let mut batch = 64usize;
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--platform" => {
                let v = value("--platform");
                platform = Platform::ALL
                    .into_iter()
                    .find(|p| p.name().eq_ignore_ascii_case(&v))
                    .unwrap_or_else(|| {
                        eprintln!("unknown platform `{v}`");
                        std::process::exit(2);
                    });
            }
            "--dataset" => {
                let v = value("--dataset");
                dataset = beacongnn::Dataset::ALL
                    .into_iter()
                    .find(|d| d.name().eq_ignore_ascii_case(&v))
                    .unwrap_or_else(|| {
                        eprintln!("unknown dataset `{v}`");
                        std::process::exit(2);
                    });
            }
            "--nodes" => {
                let v = value("--nodes");
                nodes = v.parse().unwrap_or_else(|_| {
                    eprintln!("--nodes expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--batch" => {
                let v = value("--batch");
                batch = v.parse().unwrap_or_else(|_| {
                    eprintln!("--batch expects a positive integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--trace" => trace = Some(value("--trace")),
            "--metrics" => metrics = Some(value("--metrics")),
            other => {
                eprintln!("unknown obs flag `{other}`");
                std::process::exit(2);
            }
        }
    }

    let (m, reg) = bench::obs_report(platform, dataset, nodes, batch);

    let mut out = String::new();
    header(
        &mut out,
        "observability smoke — spans, metrics report, matrix summary",
    );
    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec!["platform".into(), m.platform.to_string()]);
    t.row_owned(vec!["dataset".into(), dataset.to_string()]);
    t.row_owned(vec!["targets".into(), m.targets.to_string()]);
    t.row_owned(vec!["makespan".into(), format!("{}", m.makespan)]);
    t.row_owned(vec!["flash reads".into(), m.flash_reads.to_string()]);
    t.row_owned(vec!["spans".into(), m.spans.len().to_string()]);
    t.row_owned(vec!["spans dropped".into(), m.spans.dropped().to_string()]);
    let router = m.router.unwrap_or_default();
    t.row_owned(vec!["router routed".into(), router.routed.to_string()]);
    t.row_owned(vec![
        "router cross-channel".into(),
        router.cross_channel.to_string(),
    ]);
    if let Some(ftl) = m.ftl {
        t.row_owned(vec!["ftl erases".into(), ftl.erases.to_string()]);
        t.row_owned(vec!["ftl waf".into(), format!("{:.3}", ftl.waf())]);
    }
    t.row_owned(vec![
        "report sections".into(),
        reg.section_names().len().to_string(),
    ]);
    let _ = writeln!(out, "{}", t.render());
    print!("{out}");

    if let Some(path) = trace {
        let file = File::create(&path).unwrap_or_else(|e| {
            eprintln!("create {path}: {e}");
            std::process::exit(1);
        });
        simkit::ChromeTraceWriter::write(&m.spans, BufWriter::new(file)).unwrap_or_else(|e| {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("trace written to {path} ({} spans)", m.spans.len());
        if m.spans.dropped() > 0 {
            eprintln!(
                "warning: {} spans were dropped at capacity {} — the exported trace is \
                 incomplete; re-run with a larger span capacity",
                m.spans.dropped(),
                m.spans.capacity()
            );
        }
    }
    if let Some(path) = metrics {
        let file = File::create(&path).unwrap_or_else(|e| {
            eprintln!("create {path}: {e}");
            std::process::exit(1);
        });
        reg.write_json(BufWriter::new(file)).unwrap_or_else(|e| {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
}

/// `latency [--metrics PATH] [--latency-csv PATH] [--window-csv PATH]`
/// — the per-query latency figure: tail percentiles and critical-path
/// attribution for BG-2 vs baselines across arrival intensities. The
/// export flags dump the showcase cell (BG-2 at the highest intensity):
/// `--metrics` its full registry JSON, `--latency-csv` one row per
/// query with stage attribution, `--window-csv` per-sim-time-epoch
/// percentiles.
///
/// Everything derives from the simulation alone, so stdout and all
/// three exports are byte-identical at any `--jobs` count and whether
/// or not replay is enabled — CI diffs them across both axes.
fn latency(args: &[String]) {
    let mut metrics: Option<String> = None;
    let mut query_csv: Option<String> = None;
    let mut window_csv: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} expects a path");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--metrics" => metrics = Some(value("--metrics")),
            "--latency-csv" => query_csv = Some(value("--latency-csv")),
            "--window-csv" => window_csv = Some(value("--window-csv")),
            other => {
                eprintln!("unknown latency flag `{other}`");
                std::process::exit(2);
            }
        }
    }

    print!("{}", latency_figure_text());

    if metrics.is_none() && query_csv.is_none() && window_csv.is_none() {
        return;
    }
    let m = bench::latency_showcase(DEFAULT_NODES);
    let create = |path: &str| {
        File::create(path).unwrap_or_else(|e| {
            eprintln!("create {path}: {e}");
            std::process::exit(1);
        })
    };
    if let Some(path) = metrics {
        m.metrics_registry()
            .write_json(BufWriter::new(create(&path)))
            .unwrap_or_else(|e| {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = query_csv {
        m.latency
            .write_query_csv(BufWriter::new(create(&path)))
            .unwrap_or_else(|e| {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!(
            "per-query latency written to {path} ({} queries)",
            m.latency.queries().len()
        );
    }
    if let Some(path) = window_csv {
        m.latency
            .write_window_csv(BufWriter::new(create(&path)))
            .unwrap_or_else(|e| {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!(
            "windowed latency written to {path} ({} windows)",
            m.latency.windows().len()
        );
    }
}

fn latency_figure_text() -> String {
    let mut out = String::new();
    header(
        &mut out,
        "per-query latency — tail percentiles vs arrival intensity (amazon)",
    );
    let us = |ns: u64| format!("{:.1}us", ns as f64 / 1000.0);
    let rows = bench::latency_figure(DEFAULT_NODES);
    let mut t = Table::new(&[
        "platform",
        "batch",
        "mean",
        "p50",
        "p99",
        "p99.9",
        "max",
        "queueing",
        "dominant stage",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.platform.to_string(),
            r.batch_size.to_string(),
            format!("{:.1}us", r.mean_ns / 1000.0),
            us(r.p50_ns),
            us(r.p99_ns),
            us(r.p999_ns),
            us(r.max_ns),
            percent(r.queue_frac),
            format!("{} ({})", r.dominant, percent(r.dominant_frac)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "larger batches raise per-query queueing (all roots submit at once); BG-2's\n\
         out-of-order streaming keeps the tail flat where CC pays PCIe staging and\n\
         BG-1 pays the hop barrier on every chain"
    );
    out
}
