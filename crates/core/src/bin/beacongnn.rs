//! `beacongnn` — command-line front end for the BeaconGNN reproduction.
//!
//! ```sh
//! beacongnn convert --dataset amazon --nodes 20000 --out amazon.dgr
//! beacongnn inspect amazon.dgr
//! beacongnn run --dataset amazon --nodes 20000 --platform BG-2 --batches 4
//! beacongnn compare --dataset ogbn --nodes 10000
//! ```
//!
//! `convert` persists the DirectGraph image (the expensive step) so
//! `inspect` can examine it later; `run`/`compare` execute platforms on
//! a freshly prepared workload.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use beacongnn::directgraph::DirectGraph;
use beacongnn::report::{percent, ratio, throughput, Table};
use beacongnn::{Dataset, Experiment, Platform, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("convert") => convert(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  beacongnn convert --dataset <name> [--nodes N] --out <file.dgr>\n  \
         beacongnn inspect <file.dgr>\n  \
         beacongnn run --dataset <name> [--nodes N] [--platform P] [--batch N] [--batches N]\n      \
         [--trace out.json] [--metrics out.metrics.json]\n      \
         [--latency-csv out.csv] [--latency-epoch-us N]\n  \
         beacongnn compare --dataset <name> [--nodes N] [--batch N]\n\
         datasets: reddit amazon movielens ogbn ppi\n\
         platforms: CC SmartSage GList BG-1 BG-DG BG-SP BG-DGSP BG-2"
    );
}

/// Tiny flag parser: `--key value` pairs plus positionals.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.args
            .windows(2)
            .find(|w| w[0] == key)
            .map(|w| w[1].as_str())
    }

    fn positional(&self) -> Option<&'a str> {
        self.args
            .first()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
        }
    }
}

fn parse_dataset(s: &str) -> Result<Dataset, String> {
    match s.to_ascii_lowercase().as_str() {
        "reddit" => Ok(Dataset::Reddit),
        "amazon" => Ok(Dataset::Amazon),
        "movielens" => Ok(Dataset::Movielens),
        "ogbn" => Ok(Dataset::Ogbn),
        "ppi" => Ok(Dataset::Ppi),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

fn parse_platform(s: &str) -> Result<Platform, String> {
    Platform::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown platform `{s}`"))
}

fn build_workload(flags: &Flags) -> Result<Workload, String> {
    let dataset = parse_dataset(flags.get("--dataset").ok_or("--dataset is required")?)?;
    let nodes: usize = flags.parse("--nodes", 10_000)?;
    let batch: usize = flags.parse("--batch", 256)?;
    let batches: usize = flags.parse("--batches", 3)?;
    let seed: u64 = flags.parse("--seed", 2024)?;
    Workload::builder()
        .dataset(dataset)
        .nodes(nodes)
        .batch_size(batch)
        .batches(batches)
        .seed(seed)
        .prepare()
        .map_err(|e| e.to_string())
}

fn convert(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let out = flags.get("--out").ok_or("--out is required")?;
    let w = build_workload(&flags)?;
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    w.directgraph()
        .save(BufWriter::new(file))
        .map_err(|e| format!("write {out}: {e}"))?;
    let stats = w.directgraph().stats();
    println!(
        "wrote {out}: {} pages ({} primary / {} secondary), {} nodes, inflation {}",
        stats.total_pages(),
        stats.primary_pages,
        stats.secondary_pages,
        w.directgraph().directory().len(),
        percent(w.directgraph().inflation(w.features()).inflation_ratio()),
    );
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let path = flags.positional().ok_or("expected a .dgr file path")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let dg = DirectGraph::load(BufReader::new(file)).map_err(|e| e.to_string())?;
    let stats = dg.stats();
    let mut t = Table::new(&["property", "value"]);
    t.row_owned(vec!["nodes".into(), dg.directory().len().to_string()]);
    t.row_owned(vec!["edges".into(), stats.edges.to_string()]);
    t.row_owned(vec![
        "page size".into(),
        dg.layout().page_size().to_string(),
    ]);
    t.row_owned(vec![
        "primary pages".into(),
        stats.primary_pages.to_string(),
    ]);
    t.row_owned(vec![
        "secondary pages".into(),
        stats.secondary_pages.to_string(),
    ]);
    t.row_owned(vec![
        "secondary sections".into(),
        stats.secondary_sections.to_string(),
    ]);
    t.row_owned(vec![
        "page utilization".into(),
        percent(stats.used_bytes as f64 / dg.image().stored_bytes() as f64),
    ]);
    println!("{}", t.render());
    // Firmware-grade validation.
    beacongnn::directgraph::Validator::new(&dg)
        .verify_image()
        .map_err(|e| format!("image failed validation: {e}"))?;
    println!("image passes §VI-E validation");
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let platform = parse_platform(flags.get("--platform").unwrap_or("BG-2"))?;
    let trace_path = flags.get("--trace");
    if let Some(path) = trace_path.filter(|p| p.ends_with(".csv")) {
        return Err(format!(
            "--trace writes Chrome trace-event JSON; got `{path}` (use a .json path)"
        ));
    }
    let w = build_workload(&flags)?;
    let metrics_path = flags.get("--metrics");
    let latency_csv = flags.get("--latency-csv");
    let latency_epoch = simkit::Duration::from_us(flags.parse("--latency-epoch-us", 1_000u64)?);
    let m = if latency_csv.is_some() {
        // Per-query latency tracking, optionally alongside spans.
        let mut engine = beacongnn::platforms::Engine::new(
            platform,
            Experiment::new(&w).config(),
            w.model(),
            w.directgraph(),
            w.seed(),
        )
        .with_latency(latency_epoch);
        if trace_path.is_some() || metrics_path.is_some() {
            engine = engine.with_obs(1 << 20);
        }
        engine.run(w.batches())
    } else if trace_path.is_some() || metrics_path.is_some() {
        Experiment::new(&w).run_observed(platform, 1 << 20)
    } else {
        Experiment::new(&w).run(platform)
    };
    if let Some(path) = trace_path {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        simkit::ChromeTraceWriter::write(&m.spans, BufWriter::new(file))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "trace written to {path} ({} spans, {} dropped)",
            m.spans.len(),
            m.spans.dropped()
        );
        if m.spans.dropped() > 0 {
            eprintln!(
                "warning: {} spans were dropped at capacity {} — the exported trace \
                 is incomplete",
                m.spans.dropped(),
                m.spans.capacity()
            );
        }
    }
    if let Some(path) = metrics_path {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        m.metrics_registry()
            .write_json(BufWriter::new(file))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if let Some(path) = latency_csv {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        m.latency
            .write_query_csv(BufWriter::new(file))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "per-query latency written to {path} ({} queries)",
            m.latency.queries().len()
        );
    }
    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec!["platform".into(), m.platform.to_string()]);
    t.row_owned(vec!["targets".into(), m.targets.to_string()]);
    t.row_owned(vec!["throughput".into(), throughput(m.throughput())]);
    t.row_owned(vec!["makespan".into(), format!("{}", m.makespan)]);
    t.row_owned(vec!["prep time".into(), format!("{}", m.prep_time)]);
    t.row_owned(vec!["compute time".into(), format!("{}", m.compute_time)]);
    t.row_owned(vec!["flash reads".into(), m.flash_reads.to_string()]);
    if m.latency.is_enabled() {
        let h = m.latency.histogram();
        let q = |num, den| {
            format!(
                "{}",
                simkit::Duration::from_ns(h.percentile_ns(num, den).unwrap_or(0))
            )
        };
        t.row_owned(vec!["query p50".into(), q(50, 100)]);
        t.row_owned(vec!["query p99".into(), q(99, 100)]);
        t.row_owned(vec![
            "query max".into(),
            format!("{}", simkit::Duration::from_ns(h.max_ns().unwrap_or(0))),
        ]);
    }
    t.row_owned(vec!["die utilization".into(), percent(m.die_utilization())]);
    t.row_owned(vec![
        "channel utilization".into(),
        percent(m.channel_utilization()),
    ]);
    println!("{}", t.render());
    Ok(())
}

fn compare(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let w = build_workload(&flags)?;
    let exp = Experiment::new(&w);
    let norm = exp.normalized_throughput(&Platform::ALL);
    let mut t = Table::new(&["platform", "throughput", "vs CC"]);
    let runs = exp.run_all(&Platform::ALL);
    for ((p, x), (_, m)) in norm.iter().zip(&runs) {
        t.row_owned(vec![p.to_string(), throughput(m.throughput()), ratio(*x)]);
    }
    println!("{}", t.render());
    Ok(())
}
