//! `benchmark --compare A.json… -- B.json…`: the parent's runs against
//! the change's, per workload and end-to-end metric.
//!
//! Each file contributes its median; file *i* of A pairs with file *i*
//! of B. A metric is **better** when there are at least 10 pairs, B
//! wins at least 9 in 10 of them, and the medians differ by more than
//! A's interquartile range; **worse** when B's median is worse than A's
//! by more than the metric's bound in `BENCHMARK.json`; **unresolved**
//! when A's own spread is wider than that bound (unless every B run
//! beats every A run); and otherwise **within bound**.

use crate::json::Json;
use crate::metrics::E2E;
use crate::results::{Outcome, Results};
use crate::stats::Summary;
use crate::workloads::Kind;

/// Paper-error points by which the change may differ from the parent.
/// The error is deterministic per seed, so any larger move is a model
/// change, not noise.
const PAPER_ERR_BOUND_PTS: f64 = 0.01;

/// Pairs of runs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub a: Summary,
    pub b: Summary,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compares per-run values `a` (parent) and `b` (change) of a metric
/// where `lower_is_better` says which way is better.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Row {
    let sa = Summary::of(a);
    let sb = Summary::of(b);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    // B's median change as a share of A's, positive when worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let b_beats_all = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(sb.median, sa.median)
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        Verdict::Better
    } else if worse_by > bound {
        Verdict::Worse
    } else if sa.rel_iqr() > bound && !b_beats_all {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Row {
        a: sa,
        b: sb,
        wins,
        pairs,
        verdict,
    }
}

/// `kind`'s outcome in each run that measured it.
fn side(runs: &[Results], kind: Kind) -> Vec<&Outcome> {
    runs.iter().filter_map(|r| r.workload(kind)).collect()
}

/// Reads each end-to-end metric's bound from `BENCHMARK.json`.
fn bounds(benchmark_json: &Json) -> Result<Vec<f64>, String> {
    let listed = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json lacks \"end_to_end\"")?;
    E2E.iter()
        .map(|m| {
            listed
                .iter()
                .find(|x| x.get("name").and_then(Json::as_str) == Some(m.name))
                .and_then(|x| x.get("bound")?.as_f64())
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))
        })
        .collect()
}

/// Prints the comparison; returns whether any metric regressed beyond
/// its bound.
pub fn compare(a: &[Results], b: &[Results], benchmark_json: &Json) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let mut regressed = false;
    println!("parent: {} run(s); change: {} run(s)", a.len(), b.len());
    for kind in Kind::ALL {
        let (oa, ob) = (side(a, kind), side(b, kind));
        if oa.is_empty() || ob.is_empty() {
            continue;
        }
        for (i, m) in E2E.iter().enumerate() {
            let medians =
                |os: &[&Outcome]| -> Vec<f64> { os.iter().map(|o| o.summary(i).median).collect() };
            let row = judge(&medians(&oa), &medians(&ob), m.better == "lower", bounds[i]);
            regressed |= row.verdict == Verdict::Worse;
            println!(
                "{:<9} {:<12} A {:.6} [{:.6}, {:.6}]  B {:.6} [{:.6}, {:.6}]  wins {}/{}  {:+.2}% (bound {:.0}%)  {}",
                kind.name(),
                m.name,
                row.a.median,
                row.a.q1,
                row.a.q3,
                row.b.median,
                row.b.q1,
                row.b.q3,
                row.wins,
                row.pairs,
                (row.b.median / row.a.median - 1.0) * 100.0,
                bounds[i] * 100.0,
                row.verdict.as_str(),
            );
        }
        let worst = |os: &[&Outcome]| os.iter().map(|o| o.ops_failed_frac()).fold(0.0, f64::max);
        let (fa, fb) = (worst(&oa), worst(&ob));
        if fb > fa {
            regressed = true;
            println!("{:<9} ops_failed_frac A {fa} B {fb}  WORSE", kind.name());
        }
        let errs = |os: &[&Outcome]| os.iter().find_map(|o| o.paper_err_pct());
        if let (Some(ea), Some(eb)) = (errs(&oa), errs(&ob)) {
            let worse = eb - ea > PAPER_ERR_BOUND_PTS;
            regressed |= worse;
            println!(
                "{:<9} paper_err_pct A {ea:.4} B {eb:.4}  {}",
                kind.name(),
                if worse { "WORSE" } else { "within bound" }
            );
        }
        let digests = |os: &[&Outcome]| os.iter().map(|o| o.sim_digest).collect::<Vec<_>>();
        if digests(&oa) != digests(&ob) {
            println!(
                "{:<9} note: simulation digests differ (simulated results changed)",
                kind.name()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_samples() {
        let parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99];
        // Every run 10% faster: a clear gain.
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.9).collect();
        assert_eq!(judge(&parent, &faster, true, 0.15).verdict, Verdict::Better);
        // 30% slower: beyond a 15% bound.
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        assert_eq!(judge(&parent, &slower, true, 0.15).verdict, Verdict::Worse);
        assert_eq!(
            judge(&parent, &slower, true, 0.35).verdict,
            Verdict::WithinBound
        );
        // 5% slower: inside the bound.
        let bit_slower: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            judge(&parent, &bit_slower, true, 0.15).verdict,
            Verdict::WithinBound
        );
        // The same runs, with a bound tighter than the parent's spread.
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.8, 1.1, 0.9, 1.3, 0.75, 1.0];
        assert_eq!(
            judge(&noisy, &noisy, true, 0.15).verdict,
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(judge(&parent, &faster, false, 0.05).verdict, Verdict::Worse);
        // Winning 8 of 10 pairs is not enough to claim a gain.
        let mut mixed = faster.clone();
        mixed[0] = 1.5;
        mixed[1] = 1.5;
        let row = judge(&parent, &mixed, true, 0.15);
        assert_eq!((row.wins, row.verdict), (8, Verdict::WithinBound));
        // One pair never establishes a gain.
        assert_eq!(
            judge(&parent[..1], &faster[..1], true, 0.15).verdict,
            Verdict::WithinBound
        );
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), E2E.len());
        assert!(b.iter().all(|&x| x > 0.0 && x <= 0.25));
        assert!(bounds(&Json::parse("{}").unwrap()).is_err());
    }
}
