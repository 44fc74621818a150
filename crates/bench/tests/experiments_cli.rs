//! The `experiments` binary's command-line surface: a name it does not
//! know exits with status 2 and a usage message naming every experiment
//! it does know.

use std::process::Command;

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
