//! Parallel-execution determinism regression tests.
//!
//! The contract under test: a [`RunMatrix`] produces byte-identical
//! metrics at any `jobs` count, and its cells reproduce the legacy
//! sequential [`Experiment`] path exactly. Every schedule-dependent
//! leak (seed derived from execution order, shared mutable state,
//! result-slot races) breaks one of these assertions.

use std::sync::Arc;

use beacongnn::energy::EnergyLedger;
use beacongnn::{Experiment, Platform, RunCell, RunMatrix, RunMetrics, Workload};

const SEEDS: [u64; 3] = [3, 2024, 0xBEAC];

fn workload(seed: u64) -> Arc<Workload> {
    Arc::new(
        Workload::builder()
            .nodes(1_500)
            .batch_size(24)
            .batches(2)
            .seed(seed)
            .prepare()
            .expect("workload prepares"),
    )
}

/// Everything deterministic about one run: timing, energy accounting,
/// and the functionally sampled subgraph.
#[derive(Debug, PartialEq)]
struct Signature {
    platform: &'static str,
    makespan_ns: u64,
    prep_ns: u64,
    nodes_visited: u64,
    flash_reads: u64,
    sampler_faults: u64,
    energy: EnergyLedger,
}

fn signature(m: &RunMetrics) -> Signature {
    Signature {
        platform: m.platform,
        makespan_ns: m.makespan.as_ns(),
        prep_ns: m.prep_time.as_ns(),
        nodes_visited: m.nodes_visited,
        flash_reads: m.flash_reads,
        sampler_faults: m.sampler_faults,
        energy: m.energy,
    }
}

fn matrix_for(w: &Arc<Workload>) -> RunMatrix {
    let mut matrix = RunMatrix::new();
    matrix.add_platforms(&[Platform::Cc, Platform::Bg1, Platform::Bg2], w);
    matrix.add_seed_sweep(Platform::Bg2, w, 2);
    matrix
}

#[test]
fn jobs_one_and_four_are_identical_across_seeds() {
    for seed in SEEDS {
        let w = workload(seed);
        let matrix = matrix_for(&w);
        let j1: Vec<Signature> = matrix.run_parallel(1).iter().map(signature).collect();
        let j4: Vec<Signature> = matrix.run_parallel(4).iter().map(signature).collect();
        assert_eq!(j1, j4, "jobs=1 vs jobs=4 diverged at workload seed {seed}");
    }
}

#[test]
fn matrix_matches_legacy_sequential_experiment() {
    for seed in SEEDS {
        let w = workload(seed);
        let platforms = [Platform::Cc, Platform::Bg1, Platform::Bg2];
        let mut matrix = RunMatrix::new();
        matrix.add_platforms(&platforms, &w);
        let parallel = matrix.run_parallel(4);
        let exp = Experiment::new(&w);
        for (p, m) in platforms.iter().zip(&parallel) {
            let legacy = exp.run(*p);
            assert_eq!(
                signature(&legacy),
                signature(m),
                "matrix cell diverged from Experiment::run({p:?}) at workload seed {seed}"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Same matrix, same jobs count, different (nondeterministic)
    // work-stealing schedules: results must still agree, run to run.
    let w = workload(SEEDS[0]);
    let matrix = matrix_for(&w);
    let first: Vec<Signature> = matrix.run_parallel(3).iter().map(signature).collect();
    for _ in 0..2 {
        let again: Vec<Signature> = matrix.run_parallel(3).iter().map(signature).collect();
        assert_eq!(first, again);
    }
}

#[test]
fn seed_sweep_cells_differ_but_reproduce() {
    // The sweep's replicas must explore different TRNG streams (else
    // the sweep measures nothing) yet each replica is reproducible.
    let w = workload(SEEDS[1]);
    let mut matrix = RunMatrix::new();
    matrix.add_seed_sweep(Platform::Bg2, &w, 3);
    let runs = matrix.run_parallel(2);
    assert!(
        runs.windows(2)
            .any(|r| signature(&r[0]) != signature(&r[1])),
        "seed sweep replicas all produced identical runs"
    );
    let again = matrix.run_sequential();
    for (a, b) in runs.iter().zip(&again) {
        assert_eq!(signature(a), signature(b));
    }
}

#[test]
fn sampled_node_counts_are_schedule_independent() {
    // The functional side (which nodes get visited) must not depend on
    // the schedule either — compare across three job counts.
    let w = workload(SEEDS[2]);
    let mut matrix = RunMatrix::new();
    matrix.push(RunCell::new(Platform::Bg2, Arc::clone(&w)));
    matrix.push(RunCell::new(Platform::BgDgsp, Arc::clone(&w)));
    let counts = |jobs: usize| -> Vec<u64> {
        matrix
            .run_parallel(jobs)
            .iter()
            .map(|m| m.nodes_visited)
            .collect()
    };
    let baseline = counts(1);
    assert_eq!(baseline, counts(2));
    assert_eq!(baseline, counts(8));
    assert!(baseline.iter().all(|&n| n > 0));
}
