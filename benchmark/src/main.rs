//! The repository benchmark: four simulator workloads measured end to
//! end in host time, plus a traced pass that attributes the time to the
//! simulator's layers. See `benchmark/README.md`.

mod compare;
mod json;
mod metrics;
mod results;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};

use json::Json;
use results::Results;
use workloads::{Kind, Scale};

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  benchmark [--seed N] [--seconds S] [--out PATH]
  benchmark --compare A.json... -- B.json...
workloads: sweep platforms scaleout ingest";

/// The experiment harness's seed, so simulated numbers cross-check with
/// EXPERIMENTS.md.
const DEFAULT_SEED: u64 = 2024;
const DEFAULT_SECONDS: f64 = 8.0;
/// Where traces, ingest's disk cache and `results.json` go, relative to
/// the directory the benchmark runs from.
const OUT_DIR: &str = "target/benchmark";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(Vec<String>, Vec<String>)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--compare" {
            let rest: Vec<String> = it.by_ref().cloned().collect();
            let split = rest
                .iter()
                .position(|x| x == "--")
                .ok_or("--compare needs A... -- B...")?;
            let (parent, change) = (rest[..split].to_vec(), rest[split + 1..].to_vec());
            if parent.is_empty() || change.is_empty() {
                return Err("--compare needs at least one file on each side".into());
            }
            a.compare = Some((parent, change));
            break;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => a.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let single = a.workload.is_some();
    if (single && a.out.is_some()) || (!single && a.trace) {
        return Err("--out goes with the default invocation, --trace with --workload".into());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match execute(a) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn execute(a: Args) -> Result<i32, String> {
    if let Some((parent, change)) = &a.compare {
        let read = |files: &[String]| {
            files
                .iter()
                .map(|f| Results::read(f))
                .collect::<Result<Vec<_>, _>>()
        };
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let bench = Json::parse(&text)?;
        let regressed = compare::compare(&read(parent)?, &read(change)?, &bench)?;
        return Ok(i32::from(regressed));
    }
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    let seconds = a.seconds.unwrap_or(DEFAULT_SECONDS);
    if let Some(kind) = a.workload {
        let o = run::run_one(
            kind,
            Scale::FULL,
            seed,
            seconds,
            a.trace,
            Path::new(OUT_DIR),
        );
        run::print_outcome(&o);
        run::print_layers(&o);
        println!("detail {}", o.to_json());
        println!("{}", o.result_line(a.trace));
        return Ok(0);
    }
    let out = a
        .out
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    let results = run::run_all(seed, seconds, &out)?;
    for o in &results.workloads {
        run::print_outcome(o);
    }
    println!("wrote {}", out.display());
    Ok(if results.workloads.iter().all(|o| o.correct()) {
        0
    } else {
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_three_invocations() {
        let a = args("--workload ingest --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Kind::Ingest), Some(7), Some(10.0), true)
        );
        let a = args("--seconds 2.5 --out x.json").unwrap();
        assert_eq!(
            (a.seconds, a.out),
            (Some(2.5), Some(PathBuf::from("x.json")))
        );
        let a = args("--compare a.json b.json -- c.json").unwrap();
        assert_eq!(
            a.compare.unwrap(),
            (
                vec!["a.json".into(), "b.json".into()],
                vec!["c.json".into()]
            )
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--trace 2",
            "--frobnicate 1",
            "--seed",
            "--trace 1",
            "--workload sweep --out x.json",
            "--compare a.json",
            "--compare -- b.json",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
