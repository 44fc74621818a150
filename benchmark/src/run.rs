//! Measuring one workload in this process, and the default invocation
//! that measures all four in child processes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{E2E, LAYERS};
use crate::results::{Outcome, Results};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{layers, Input, Kind, Scale, Tally};

/// Preparations per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed iterations per run, however short `--seconds` is.
const MIN_ITERS: usize = 3;

/// One iteration with the panic of any cell caught and counted as a
/// failed operation.
fn iterate(input: &Input, t: &mut Tracer) -> Tally {
    let mut y = Tally::default();
    if catch_unwind(AssertUnwindSafe(|| input.iterate(t, &mut y))).is_err() {
        y.attempted += 1;
        y.failed += 1;
    }
    y
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measures `kind` in this process: [`SETUPS`] preparations, one
/// warm-up iteration, closed-loop iterations for at least `seconds`,
/// the correctness checks, and with `trace` a traced pass whose spans
/// go to `<out_dir>/<workload>.trace.json`.
pub fn run_one(
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Outcome {
    // Builds run on one thread, like the simulations: results are
    // identical at any build thread count, the measurement is not.
    beacongnn::simkit::par::set_build_threads(1);
    std::fs::create_dir_all(out_dir).expect("benchmark output directory is writable");

    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take()); // never hold two copies of the inputs
        let (prepared, secs) = Input::setup(kind, scale, seed, out_dir);
        setup_s.push(secs);
        input = Some(prepared);
    }
    let input = input.expect("at least one setup");

    // The warm-up iteration fills allocator pools and the page cache
    // and fixes the digest every later iteration must reproduce.
    let warm = iterate(&input, &mut Tracer::off());
    let mut ops = Tally::default();
    ops.absorb_ops(&warm);
    let digest = warm.digest;
    let mut wall_s = Vec::new();
    let start = Instant::now();
    while wall_s.len() < MIN_ITERS || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let y = iterate(&input, &mut Tracer::off());
        wall_s.push(t0.elapsed().as_secs_f64());
        ops.absorb_ops(&y);
        ops.check(y.digest == digest, || {
            format!(
                "{}: simulation digest changed between iterations",
                kind.name()
            )
        });
    }
    input.check(&mut ops);
    let rss = peak_rss_mb();

    let layers = trace.then(|| {
        let mut t = Tracer::default();
        let mut y = Tally::default();
        let root = t.open("bench.setup", kind.name());
        input.setup_probe(kind, scale, seed, out_dir, &mut t, &mut y);
        t.close(root);
        let root = t.open("bench.iteration", kind.name());
        input.iterate(&mut t, &mut y);
        t.close(root);
        let iteration_s = t.secs(root);
        let root = t.open("bench.probe", kind.name());
        input.probe(&mut t);
        t.close(root);
        ops.absorb_ops(&y);
        ops.check(y.digest == digest, || {
            format!("{}: the traced iteration's digest differs", kind.name())
        });
        let path = out_dir.join(format!("{}.trace.json", kind.name()));
        if let Err(e) = std::fs::write(&path, t.chrome_trace().to_string()) {
            eprintln!("could not write {}: {e}", path.display());
        }
        layers(kind, &t, &y, iteration_s, Summary::of(&wall_s).median)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    });
    Outcome {
        workload: kind,
        samples: [wall_s, setup_s, vec![rss]],
        attempted: ops.attempted,
        failed: ops.failed,
        sim_digest: digest,
        layers,
    }
}

/// Prints `<workload> <metric> <median> <unit> (n=…, q1 …, q3 …)` for
/// every end-to-end metric, then the informational lines.
pub fn print_outcome(o: &Outcome) {
    let w = o.workload.name();
    for (i, m) in E2E.iter().enumerate() {
        let s = o.summary(i);
        println!(
            "{w} {} {} {} (n={}, q1 {}, q3 {}, max {})",
            m.name, s.median, m.unit, s.n, s.q1, s.q3, s.max
        );
    }
    println!("{w} sim_digest {:016x}", o.sim_digest);
    println!(
        "{w} ops attempted {} failed {} (ops_failed_frac {})",
        o.attempted,
        o.failed,
        o.ops_failed_frac()
    );
    if let Some(err) = o.paper_err_pct() {
        println!("{w} paper_err_pct {err} %");
    }
}

pub fn print_layers(o: &Outcome) {
    if let Some(values) = &o.layers {
        for m in LAYERS {
            println!(
                "{} {} {} {}",
                o.workload.name(),
                m.name,
                values[m.name],
                m.unit
            );
        }
    }
}

/// Runs this executable on one workload, traced, and reads back its
/// outcome.
fn child(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {} child: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!("the {} child failed: {}", kind.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("the {} child printed no detail line", kind.name()))?;
    Outcome::from_json(&Json::parse(detail)?)
}

/// The default invocation: every workload in a child process of its
/// own, in a fixed order, each with a traced pass after its untraced
/// measurement. Writes `out` and returns the results.
pub fn run_all(seed: u64, seconds: f64, out: &Path) -> Result<Results, String> {
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        eprintln!("measuring {}", kind.name());
        workloads.push(child(kind, seed, seconds)?);
    }
    let results = Results {
        seed,
        seconds,
        workloads,
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, results.to_json().pretty())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, end to end at a tiny scale: setup, iterations,
    /// checks and the traced pass, with no failed operation.
    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        let tiny = Scale {
            nodes: 600,
            batch: 8,
            batches: 2,
            ingest_nodes: 900,
            ingest_batches: 1,
        };
        let dir =
            std::env::temp_dir().join(format!("beacon-benchmark-test-{}", std::process::id()));
        for kind in Kind::ALL {
            let o = run_one(kind, tiny, 7, 0.0, true, &dir);
            assert!(
                o.correct(),
                "{}: {} of {} ops failed",
                kind.name(),
                o.failed,
                o.attempted
            );
            assert!(o.attempted > 0 && o.samples.iter().all(|s| !s.is_empty()));
            let layers = o.layers.as_ref().unwrap();
            assert_eq!(layers.len(), LAYERS.len());
            assert!(
                layers["trace.coverage_pct"] > 50.0,
                "{}: coverage {}",
                kind.name(),
                layers["trace.coverage_pct"]
            );
            assert!(dir.join(format!("{}.trace.json", kind.name())).exists());
            if kind == Kind::Platforms {
                assert!(o.paper_err_pct().unwrap() > 0.0);
            }
            if kind == Kind::Sweep {
                assert_eq!(layers["core.replay.records"], 1.0);
                assert_eq!(
                    layers["core.replay.hits"] + layers["core.replay.memo_hits"],
                    80.0
                );
            }
        }
        // The ingest cache directories are gone with their inputs.
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
