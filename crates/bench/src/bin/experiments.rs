//! Regenerates every table and figure of the BeaconGNN evaluation.
//!
//! ```sh
//! cargo run --release -p beacon-bench --bin experiments            # everything
//! cargo run --release -p beacon-bench --bin experiments fig14     # one figure
//! cargo run --release -p beacon-bench --bin experiments fig18 cores
//! cargo run --release -p beacon-bench --bin experiments all --jobs 8
//! cargo run --release -p beacon-bench --bin experiments all --csv out_dir
//! ```
//!
//! `--jobs N` (default: all available cores) fans independent
//! simulation cells — and, under `all`, whole figures — across worker
//! threads. Every cell's seed is fixed by its identity before execution
//! starts, so stdout and every written file are byte-identical at any
//! job count; only the wall-clock changes. `--csv DIR` writes each
//! figure's rows as CSV files under `DIR`, from the same rows the
//! figure prints. Stdout carries only figure text; the per-figure
//! timing summary and file-write confirmations go to stderr.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use beacon_bench as bench;
use beacon_bench::{Sweep, DEFAULT_BATCH, DEFAULT_NODES};
use beacon_platforms::Platform;
use beacongnn::report::{percent, ratio, Table};
use beacongnn::Dataset;
use simkit::obs::format_f64;
use simkit::MetricValue;

/// One experiment: its name, the arguments it takes, and its entry
/// point.
struct Entry {
    name: &'static str,
    /// Flags that take a value (`--flag VALUE`).
    flags: &'static [&'static str],
    /// Whether it takes one optional positional argument.
    positional: bool,
    run: fn(&Args) -> Output,
}

/// An experiment that takes no arguments of its own.
const fn figure(name: &'static str, run: fn(&Args) -> Output) -> Entry {
    Entry {
        name,
        flags: &[],
        positional: false,
        run,
    }
}

/// Every accepted experiment. `main` dispatches through this table,
/// `all` runs it, and the usage message lists it, so none of them can
/// drift apart.
const EXPERIMENTS: &[Entry] = &[
    figure("fig7a", fig7a),
    figure("fig7b", fig7b),
    figure("fig14", fig14),
    figure("fig15", fig15),
    figure("fig15f", fig15f),
    figure("fig16", fig16),
    figure("fig17", fig17),
    Entry {
        name: "fig18",
        flags: &[],
        positional: true,
        run: fig18,
    },
    figure("fig19", fig19),
    figure("table4", table4),
    figure("trad_ssd", trad_ssd),
    figure("config", config),
    figure("query", query),
    Entry {
        name: "scaleout",
        flags: &["--metrics"],
        positional: false,
        run: scaleout,
    },
    figure("ablation", ablation),
    figure("interference", interference),
    Entry {
        name: "obs",
        flags: &[
            "--platform",
            "--dataset",
            "--nodes",
            "--batch",
            "--trace",
            "--metrics",
        ],
        positional: false,
        run: obs,
    },
    Entry {
        name: "latency",
        flags: &["--metrics", "--latency-csv", "--window-csv"],
        positional: false,
        run: latency,
    },
    figure("all", all),
];

/// Experiments `all` leaves out: the configuration dump, the
/// observability smoke and itself.
const NOT_IN_ALL: [&str; 3] = ["config", "obs", "all"];

/// The arguments one experiment runs with.
#[derive(Default)]
struct Args {
    /// `--csv DIR`: the directory CSV files go to.
    csv: Option<PathBuf>,
    /// The experiment's own `--flag VALUE` pairs.
    flags: Vec<(&'static str, String)>,
    /// Its positional argument.
    positional: Option<String>,
}

impl Args {
    /// The value of `flag`, if it was given.
    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// What one experiment produced: the figure text for stdout and the
/// files it writes, by path.
#[derive(Default)]
struct Output {
    text: String,
    files: Vec<(PathBuf, Vec<u8>)>,
}

impl Output {
    fn new(text: String) -> Self {
        Output {
            text,
            files: Vec::new(),
        }
    }

    /// Adds CSV file `name` under the `--csv` directory, if one was
    /// given: the header line, then one line per row.
    fn csv(
        &mut self,
        args: &Args,
        name: &str,
        header: &str,
        rows: impl IntoIterator<Item = String>,
    ) {
        let Some(dir) = &args.csv else { return };
        let mut body = format!("{header}\n");
        for row in rows {
            body.push_str(&row);
            body.push('\n');
        }
        self.files.push((dir.join(name), body.into_bytes()));
    }

    /// Adds the file at `path`, if one was given, with the bytes
    /// `render` writes.
    fn file(&mut self, path: Option<&str>, render: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) {
        let Some(path) = path else { return };
        let mut bytes = Vec::new();
        render(&mut bytes).expect("rendering into memory cannot fail");
        self.files.push((PathBuf::from(path), bytes));
    }
}

fn main() {
    let (entry, args) = parse(std::env::args().skip(1).collect());
    let out = (entry.run)(&args);
    print!("{}", out.text);
    for (path, bytes) in &out.files {
        write_file(path, bytes);
    }
}

/// Parses the command line: the global `--jobs N` and `--csv DIR`
/// anywhere, then the experiment name (default `all`) and that
/// experiment's own arguments. Exits with status 2 on an unknown name or
/// on any argument the experiment does not take.
fn parse(argv: Vec<String>) -> (&'static Entry, Args) {
    let mut jobs = beacongnn::default_jobs();
    let mut csv = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => jobs = parse_at_least("--jobs", &it.next().unwrap_or_default(), 1),
            other if other.starts_with("--jobs=") => {
                jobs = parse_at_least("--jobs", &other["--jobs=".len()..], 1);
            }
            "--csv" => csv = Some(PathBuf::from(value_of("--csv", it.next()))),
            _ => rest.push(arg),
        }
    }
    bench::set_jobs(jobs);

    let mut rest = rest.into_iter();
    let which = rest.next().unwrap_or_else(|| "all".to_string());
    let Some(entry) = EXPERIMENTS.iter().find(|e| e.name == which) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "unknown experiment `{which}`; expected one of: {} \
             (fig18 takes an optional sweep; plus --jobs N and --csv DIR)",
            names.join(" ")
        );
        std::process::exit(2);
    };
    let mut args = Args {
        csv,
        ..Args::default()
    };
    while let Some(arg) = rest.next() {
        if let Some(&flag) = entry.flags.iter().find(|&&f| f == arg) {
            args.flags.push((flag, value_of(flag, rest.next())));
        } else if entry.positional && args.positional.is_none() && !arg.starts_with('-') {
            args.positional = Some(arg);
        } else {
            eprintln!("`{}` does not take `{arg}`", entry.name);
            std::process::exit(2);
        }
    }
    (entry, args)
}

/// A flag's value, or exit with status 2 if the command line ended.
fn value_of(flag: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}

/// Parses `flag`'s value as an integer of at least `min`, or exits with
/// status 2.
fn parse_at_least(flag: &str, v: &str, min: usize) -> usize {
    match v.parse() {
        Ok(n) if n >= min => n,
        _ => {
            eprintln!("{flag} expects an integer of at least {min}, got `{v}`");
            std::process::exit(2);
        }
    }
}

/// Writes one output file, creating missing parent directories, or
/// exits with status 1 on an I/O error.
fn write_file(path: &Path, bytes: &[u8]) {
    let written = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, bytes));
    if let Err(e) = written {
        eprintln!("write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Runs every experiment except [`NOT_IN_ALL`] on a figure-level worker
/// pool (each worker steals the next un-rendered figure) and returns
/// their output in table order.
fn all(args: &Args) -> Output {
    let figures: Vec<&Entry> = EXPERIMENTS
        .iter()
        .filter(|e| !NOT_IN_ALL.contains(&e.name))
        .collect();
    let jobs = bench::jobs();
    let rendered = simkit::par::map_indexed(
        jobs,
        figures.len(),
        || (),
        |_, i| {
            let t = Instant::now();
            let out = (figures[i].run)(args);
            (out, t.elapsed().as_secs_f64())
        },
    );

    // Output in canonical order, independent of schedule; the
    // wall-clock summary goes to stderr so output stays byte-identical
    // across job counts.
    let mut all = Output::default();
    eprintln!("\n--- timing summary ({jobs} jobs) ---");
    for (entry, (out, secs)) in figures.iter().zip(rendered) {
        eprintln!("{:>14}  {secs:8.3} s", entry.name);
        all.text.push_str(&out.text);
        all.files.extend(out.files);
    }
    all
}

/// Each of `platforms` run on amazon at harness scale, in order.
fn amazon_runs(platforms: &[Platform], batch: usize) -> Vec<beacongnn::RunMetrics> {
    bench::platform_runs(platforms, Dataset::Amazon, DEFAULT_NODES, batch)
}

fn header(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n=== {title} ===\n");
}

fn fig7a(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig7a_die_scaling.csv",
        "dies,throughput_pages_per_s,avg_latency_ns",
        sweep
            .iter()
            .map(|p| format!("{},{},{}", p.dies, p.throughput, p.avg_latency.as_ns())),
    );
    out
}

fn fig7b(_: &Args) -> Output {
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
    Output::new(out)
}

fn fig14(args: &Args) -> Output {
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
        for d in Dataset::ALL {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig14_throughput.csv",
        "dataset,platform,normalized_vs_cc,targets_per_s",
        rows.iter().map(|r| {
            format!(
                "{},{},{:.4},{:.1}",
                r.dataset, r.platform, r.normalized, r.targets_per_sec
            )
        }),
    );
    out
}

fn fig15(args: &Args) -> Output {
    let mut out = String::new();
    let mut curves = Vec::new();
    header(
        &mut out,
        "Fig 15a-e — active flash channels/dies over time (amazon)",
    );
    let platforms = [Platform::BgSp, Platform::BgDgsp, Platform::Bg2];
    for c in bench::fig15_curves(&platforms, DEFAULT_NODES, DEFAULT_BATCH) {
        let p = c.platform;
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
        for (i, (d, ch)) in c.dies.iter().zip(&c.channels).enumerate() {
            curves.push(format!("{},{},{:.3},{:.3}", p, i, d, ch));
        }
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig15_utilization.csv",
        "platform,slice_index,active_dies,active_channels",
        curves,
    );
    out
}

fn fig15f(_: &Args) -> Output {
    let mut out = String::new();
    header(&mut out, "Fig 15f — stage latency breakdown (amazon)");
    let mut t = Table::new(&[
        "platform", "flash", "channel", "firmware", "dram", "pcie", "host", "accel",
    ]);
    for m in amazon_runs(&Platform::ALL, DEFAULT_BATCH) {
        let s = m.stages;
        t.row_owned(vec![
            m.platform.to_string(),
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
    Output::new(out)
}

fn fig16(args: &Args) -> Output {
    let mut out = String::new();
    let mut windows = Vec::new();
    header(
        &mut out,
        "Fig 16 — hop timeline of the data-preparation stage (amazon)",
    );
    let platforms = [
        Platform::Bg1,
        Platform::BgDg,
        Platform::BgSp,
        Platform::BgDgsp,
        Platform::Bg2,
    ];
    for m in amazon_runs(&platforms, 64) {
        let p = m.platform;
        let _ = write!(out, "{p:>8}: ");
        for w in &m.hop_windows {
            let _ = write!(out, "hop{} [{} - {}]  ", w.hop, w.start, w.end);
            windows.push(format!(
                "{},{},{},{}",
                p,
                w.hop,
                w.start.as_ns(),
                w.end.as_ns()
            ));
        }
        let _ = writeln!(out, "overlap {}", percent(bench::hop_overlap_fraction(&m)));
    }
    let _ = writeln!(
        out,
        "\npaper: BG-1/BG-SP have strictly ordered hops with gaps; BG-DG/BG-DGSP/BG-2\n\
         overlap hops, BG-2 creating the largest overlap"
    );
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig16_hop_timeline.csv",
        "platform,hop,start_ns,end_ns",
        windows,
    );
    out
}

fn fig17(args: &Args) -> Output {
    let mut out = String::new();
    let (mut breakdown, mut registry) = (Vec::new(), Vec::new());
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
    for m in amazon_runs(&Platform::BG_CHAIN, DEFAULT_BATCH) {
        let p = m.platform;
        let (w, f, a) = m.cmd_breakdown.fractions();
        t.row_owned(vec![
            p.to_string(),
            percent(w),
            percent(f),
            percent(a),
            format!("{:.1}us", m.cmd_breakdown.mean_lifetime_ns() / 1000.0),
        ]);
        breakdown.push(format!(
            "{},{:.4},{:.4},{:.4},{:.1}",
            p,
            w,
            f,
            a,
            m.cmd_breakdown.mean_lifetime_ns()
        ));
        // The full registry, one row per field. Sections and fields are
        // enumerated generically, so sections added later land here
        // automatically instead of being dropped by a hardcoded list.
        for (section, s) in m.metrics_registry().iter() {
            for (field, value) in s.iter() {
                let v = match value {
                    MetricValue::Bool(b) => b.to_string(),
                    MetricValue::U64(x) => x.to_string(),
                    MetricValue::F64(x) => format_f64(*x),
                    MetricValue::Str(s) => s.clone(),
                };
                registry.push(format!("{p},{section},{field},{v}"));
            }
        }
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "paper: flash-proper time is a small slice everywhere; BG-SP slashes both wait\n\
         classes; DirectGraph lengthens wait_before (more ready commands); BG-2 cuts\n\
         wait time ~68% vs BG-DGSP"
    );
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig17_cmd_breakdown.csv",
        "platform,wait_before_frac,flash_frac,wait_after_frac,mean_lifetime_ns",
        breakdown,
    );
    out.csv(
        args,
        "metrics_registry.csv",
        "platform,section,field,value",
        registry,
    );
    out
}

fn fig18(args: &Args) -> Output {
    let sweeps: Vec<Sweep> = match args.positional.as_deref() {
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
    let mut csv = Vec::new();
    for sweep in sweeps {
        header(&mut out, &format!("Fig 18 — sensitivity: {}", sweep.name()));
        let rows = bench::fig18(sweep, DEFAULT_NODES);
        csv.extend(rows.iter().map(|r| {
            format!(
                "{},{},{},{:.1}",
                sweep.name(),
                r.platform,
                r.point,
                r.targets_per_sec
            )
        }));
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig18_sensitivity.csv",
        "sweep,platform,point,targets_per_s",
        csv,
    );
    out
}

fn fig19(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "fig19_energy.csv",
        "platform,flash_j,channel_j,dram_j,pcie_j,cores_j,host_j,accel_j,\
         targets_per_joule,avg_power_w",
        rows.iter().map(|r| {
            let b = r.breakdown;
            format!(
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
            )
        }),
    );
    out
}

fn table4(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "table4_inflation.csv",
        "dataset,paper_raw_gb,inflation,page_utilization",
        rows.iter().map(|r| {
            format!(
                "{},{},{:.4},{:.4}",
                r.dataset, r.paper_raw_gb, r.inflation, r.page_utilization
            )
        }),
    );
    out
}

fn trad_ssd(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "sec7e_traditional.csv",
        "platform,normalized_vs_cc",
        rows.iter().map(|(p, x)| format!("{p},{x:.4}")),
    );
    out
}

fn query(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "ext_query_latency.csv",
        "platform,mean_ns,max_ns",
        rows.iter()
            .map(|r| format!("{},{},{}", r.platform, r.mean.as_ns(), r.max.as_ns())),
    );
    out
}

/// `scaleout [--metrics PATH]` — the simulated multi-SSD array sweep:
/// 1–16 device lanes behind the partition-aware host router, across
/// partition strategies and fabrics. `--metrics` writes the 8-device
/// bfs_grow PCIe-P2P cell's full registry (per-device + fabric-link
/// sections) as JSON.
fn scaleout(args: &Args) -> Output {
    let report = bench::scaleout(DEFAULT_NODES, DEFAULT_BATCH);
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
    let mut out = Output::new(out);
    out.file(args.get("--metrics"), |w| {
        report.showcase.metrics_registry().write_json(w)
    });
    out
}

fn ablation(_: &Args) -> Output {
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
    Output::new(out)
}

fn interference(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "ext_interference.csv",
        "batch_size,batch_window_ns,expected_deferral_ns",
        rows.iter().map(|r| {
            format!(
                "{},{},{}",
                r.batch_size,
                r.batch_window.as_ns(),
                r.expected_deferral.as_ns()
            )
        }),
    );
    out
}

fn config(_: &Args) -> Output {
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
    for d in Dataset::ALL {
        let s = beacongnn::DatasetSpec::preset(d);
        t.row_owned(vec![
            d.to_string(),
            format!("{:.0}", s.avg_degree),
            s.feature_dim.to_string(),
            format!("{:.1}", s.paper_raw_gb),
        ]);
    }
    let _ = writeln!(out, "\n{}", t.render());
    Output::new(out)
}

/// `obs` — the observability smoke: one observed run (spans + metrics
/// report) plus an all-platform matrix summary executed through the
/// parallel runner at the `--jobs` setting. `--trace` writes the run's
/// spans as Chrome trace JSON, `--metrics` its registry as JSON.
///
/// All stdout and both export files derive from the simulation alone,
/// so they are byte-identical at any job count — CI diffs them across
/// `--jobs 1` and `--jobs 4`.
fn obs(args: &Args) -> Output {
    let platform = args.get("--platform").map_or(Platform::Bg2, |v| {
        Platform::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(v))
            .unwrap_or_else(|| {
                eprintln!("unknown platform `{v}`");
                std::process::exit(2);
            })
    });
    let dataset = args.get("--dataset").map_or(Dataset::Amazon, |v| {
        Dataset::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(v))
            .unwrap_or_else(|| {
                eprintln!("unknown dataset `{v}`");
                std::process::exit(2);
            })
    });
    let nodes = args
        .get("--nodes")
        .map_or(4_000, |v| parse_at_least("--nodes", v, 2));
    let batch = args
        .get("--batch")
        .map_or(64, |v| parse_at_least("--batch", v, 1));

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

    let trace = args.get("--trace");
    if trace.is_some() && m.spans.dropped() > 0 {
        eprintln!(
            "warning: {} spans were dropped at capacity {} — the exported trace is \
             incomplete; re-run with a larger span capacity",
            m.spans.dropped(),
            m.spans.capacity()
        );
    }
    let mut out = Output::new(out);
    out.file(trace, |w| simkit::ChromeTraceWriter::write(&m.spans, w));
    out.file(args.get("--metrics"), |w| reg.write_json(w));
    out
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
fn latency(args: &Args) -> Output {
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
    let mut out = Output::new(out);
    out.csv(
        args,
        "ext_latency_tail.csv",
        "platform,batch_size,mean_ns,p50_ns,p99_ns,p999_ns,max_ns,\
         queue_frac,dominant,dominant_frac",
        rows.iter().map(|r| {
            format!(
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
            )
        }),
    );
    let exports = ["--metrics", "--latency-csv", "--window-csv"].map(|f| args.get(f));
    if exports.iter().any(Option::is_some) {
        let m = bench::latency_showcase(DEFAULT_NODES);
        let [metrics, queries, windows] = exports;
        out.file(metrics, |w| m.metrics_registry().write_json(w));
        out.file(queries, |w| m.latency.write_query_csv(w));
        out.file(windows, |w| m.latency.write_window_csv(w));
    }
    out
}
