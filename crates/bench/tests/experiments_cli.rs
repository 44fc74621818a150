//! The `experiments` binary's command-line surface: a name it does not
//! know exits with status 2 and a usage message naming every experiment
//! it does know, and so do a size flag outside its range and a flag the
//! experiment does not take. `--csv DIR` writes a figure's rows under
//! `DIR`.

use std::path::PathBuf;
use std::process::Command;

/// A path for one test's output that does not exist yet.
fn fresh_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("experiments-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// Every experiment name `experiments` accepts.
const NAMES: [&str; 19] = [
    "fig7a",
    "fig7b",
    "fig14",
    "fig15",
    "fig15f",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "table4",
    "trad_ssd",
    "config",
    "query",
    "scaleout",
    "ablation",
    "interference",
    "obs",
    "latency",
    "all",
];

#[test]
fn unknown_experiment_lists_every_accepted_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("no-such-figure")
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "usage errors print nothing to stdout"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage message");
    let listed: Vec<&str> = stderr
        .split_once("expected one of:")
        .expect("usage message lists the experiments")
        .1
        .split_whitespace()
        .collect();
    for name in NAMES {
        assert!(listed.contains(&name), "usage omits `{name}`: {stderr}");
    }
}

#[test]
fn out_of_range_sizes_exit_2() {
    for args in [
        &["--jobs", "0", "config"][..],
        &["--jobs=0", "config"],
        &["obs", "--nodes", "1"],
        &["obs", "--batch", "0"],
        // More nodes than `u32` ids, or more targets over the figure's
        // three batches than `u32` slots.
        &["obs", "--nodes", "5000000000"],
        &["obs", "--batch", "1431655766"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(
            stderr.contains("expects an integer of at least"),
            "{stderr}"
        );
    }
}

#[test]
fn csv_flag_writes_the_figures_rows() {
    let dir = fresh_path("csv");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig7a", "--csv"])
        .arg(&dir)
        .output()
        .expect("experiments runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("fig7a_die_scaling.csv")).expect("CSV written");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("dies,throughput_pages_per_s,avg_latency_ns")
    );
    assert_eq!(lines.count(), 8, "one row per die count: {csv}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_an_experiment_does_not_take_exit_2() {
    let dir = fresh_path("bogus-csv");
    let metrics = fresh_path("config-metrics.json");
    let cases: [Vec<std::ffi::OsString>; 2] = [
        vec![
            "fig7a".into(),
            "--bogus".into(),
            "--csv".into(),
            dir.clone().into(),
        ],
        vec!["config".into(), "--metrics".into(), metrics.clone().into()],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .output()
            .expect("experiments runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    assert!(
        !dir.exists(),
        "a rejected command created {}",
        dir.display()
    );
    assert!(
        !metrics.exists(),
        "a rejected command created {}",
        metrics.display()
    );
}
