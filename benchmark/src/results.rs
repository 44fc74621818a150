//! Per-workload outcomes and the `results.json` file that holds them.
//!
//! A file keeps raw samples; medians and quartiles are recomputed on
//! read, so a results file and its printed summary can never disagree.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{E2E, LAYERS};
use crate::stats::Summary;
use crate::workloads::Kind;

/// Everything measured for one workload: end-to-end samples in [`E2E`]
/// order, operation counts, the simulation digest, and (from a traced
/// pass) the per-layer metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub workload: Kind,
    pub samples: [Vec<f64>; 3],
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub layers: Option<BTreeMap<String, f64>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn summary(&self, metric: usize) -> Summary {
        Summary::of(&self.samples[metric])
    }

    /// Failed operations over attempted ones.
    pub fn ops_failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The model's error against the paper, where the workload measures
    /// it (`platforms`).
    pub fn paper_err_pct(&self) -> Option<f64> {
        let v = *self.layers.as_ref()?.get("model.paper_err_pct")?;
        (self.workload == Kind::Platforms).then_some(v)
    }

    pub fn to_json(&self) -> Json {
        let summary = E2E.iter().enumerate().map(|(i, m)| {
            let s = self.summary(i);
            (
                m.name,
                Json::obj([
                    ("unit", Json::from(m.unit)),
                    ("median", Json::from(s.median)),
                    ("q1", Json::from(s.q1)),
                    ("q3", Json::from(s.q3)),
                    ("max", Json::from(s.max)),
                    ("n", Json::from(s.n as u64)),
                ]),
            )
        });
        let samples = E2E.iter().zip(&self.samples).map(|(m, xs)| {
            (
                m.name,
                Json::Arr(xs.iter().map(|&x| Json::from(x)).collect()),
            )
        });
        let layers = self.layers.as_ref().map_or(Json::Null, |l| {
            Json::obj(l.iter().map(|(k, &v)| (k.clone(), Json::from(v))))
        });
        Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("summary", Json::obj(summary)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("ops_failed_frac", Json::from(self.ops_failed_frac())),
            (
                "sim_digest",
                Json::from(format!("{:016x}", self.sim_digest)),
            ),
            (
                "paper_err_pct",
                self.paper_err_pct().map_or(Json::Null, Json::from),
            ),
            ("samples", Json::obj(samples)),
            ("layers", layers),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Outcome, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("outcome lacks \"{k}\""));
        let name = field("workload")?.as_str().unwrap_or_default();
        let workload = Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .map(|x| x as u64)
                .ok_or_else(|| format!("\"{k}\" is not a number"))
        };
        let mut samples: [Vec<f64>; 3] = Default::default();
        for (m, out) in E2E.iter().zip(&mut samples) {
            let xs = field("samples")?
                .get(m.name)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("no {} samples", m.name))?;
            *out = xs.iter().filter_map(Json::as_f64).collect();
            if out.is_empty() {
                return Err(format!("{name}: empty {} samples", m.name));
            }
        }
        let digest = field("sim_digest")?.as_str().unwrap_or_default();
        let sim_digest =
            u64::from_str_radix(digest, 16).map_err(|_| format!("bad sim_digest {digest:?}"))?;
        let layers = match field("layers")? {
            Json::Null => None,
            l => Some(
                l.as_object()
                    .ok_or("\"layers\" is not an object")?
                    .iter()
                    .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                    .collect(),
            ),
        };
        Ok(Outcome {
            workload,
            samples,
            attempted: count("attempted")?,
            failed: count("failed")?,
            sim_digest,
            layers,
        })
    }

    /// The result line the benchmark prints last: end-to-end metrics, or
    /// with `layers` the per-layer ones.
    pub fn result_line(&self, layers: bool) -> Json {
        let metrics: Vec<(&str, Json)> = if layers {
            let values = self
                .layers
                .as_ref()
                .expect("a traced run has layer metrics");
            LAYERS
                .iter()
                .map(|m| (m.name, unit_value(values[m.name], m.unit)))
                .collect()
        } else {
            E2E.iter()
                .enumerate()
                .map(|(i, m)| (m.name, unit_value(self.summary(i).median, m.unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn unit_value(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// A `results.json` file: the run's settings and one outcome per
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<Outcome>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::from("beacon-benchmark")),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            (
                "available_parallelism",
                Json::from(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(Outcome::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Results, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("results lack \"{k}\""))
        };
        let workloads = v
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("results lack \"workloads\"")?
            .iter()
            .map(Outcome::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Results {
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            workloads,
        })
    }

    pub fn read(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Results::from_json(&doc).map_err(|e| format!("{path}: {e}"))
    }

    pub fn workload(&self, kind: Kind) -> Option<&Outcome> {
        self.workloads.iter().find(|o| o.workload == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn outcome(kind: Kind, wall: &[f64]) -> Outcome {
        Outcome {
            workload: kind,
            samples: [wall.to_vec(), vec![0.5, 0.25], vec![190.125]],
            attempted: 400,
            failed: 0,
            sim_digest: 0xdead_beef_0123_4567,
            layers: None,
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut platforms = outcome(Kind::Platforms, &[1.25, 1.5, 1.0]);
        platforms.layers = Some(
            LAYERS
                .iter()
                .map(|m| (m.name.to_string(), 0.1 + m.name.len() as f64))
                .collect(),
        );
        let results = Results {
            seed: 2024,
            seconds: 4.5,
            workloads: vec![outcome(Kind::Sweep, &[1.0, 2.0]), platforms],
        };
        let text = results.to_json().pretty();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        let p = back.workload(Kind::Platforms).unwrap();
        assert_eq!(
            p.paper_err_pct(),
            Some(0.1 + "model.paper_err_pct".len() as f64)
        );
        assert_eq!(back.workload(Kind::Sweep).unwrap().paper_err_pct(), None);
        assert_eq!(p.summary(0).median, 1.25);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let o = outcome(Kind::Ingest, &[2.0, 1.0, 3.0]);
        let line = o.result_line(false);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value"), Some(&Json::from(2.0)));
        assert_eq!(wall.get("unit"), Some(&Json::from("s")));
    }
}
