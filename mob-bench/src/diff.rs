//! `mob-bench diff A B`: compare two sets of result records metric by
//! metric against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, rel_spread};
use crate::workloads::NAMES;
use std::fmt::Write as _;
use std::path::Path;

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &Json, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key}: entry without {k}"))
            };
            let better = field("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!(
                    "{key}: better must be lower or higher, got {better}"
                ));
            }
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{key}: entry without bound"))?,
                )
            } else {
                None
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// Read the metric lists of a `BENCHMARK.json` file.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Spec {
            end_to_end: metric_list(&doc, "end_to_end", true)?,
            per_layer: metric_list(&doc, "per_layer", false)?,
        })
    }
}

/// Result records from a file: one JSON record per line (what `run
/// --out` appends), or one JSON object whose `runs` member lists them
/// (the committed baselines).
pub fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Ok(doc) = Json::parse(&text) {
        if let Some(runs) = doc.get("runs").and_then(Json::as_arr) {
            return Ok(runs.to_vec());
        }
    }
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Json::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of `metric` over the runs of `workload` with the given trace
/// mode.
fn values(runs: &[Json], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(trace))
        .filter_map(|r| {
            r.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(Json::as_f64)
        })
        .collect()
}

/// Compare set `b` against baseline set `a`. Returns the report and
/// whether any end-to-end metric regressed beyond its bound (a metric
/// present in `a` but missing from `b` counts as a regression).
pub fn diff(spec: &Spec, a: &[Json], b: &[Json]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<30} {:<12} {:>14} {:>14} {:>8}  verdict",
        "metric", "workload", "median A", "median B", "B/A"
    );
    let sections = [(false, &spec.end_to_end), (true, &spec.per_layer)];
    for (trace, metrics) in sections {
        for m in metrics {
            for w in NAMES {
                let (va, vb) = (values(a, w, trace, &m.name), values(b, w, trace, &m.name));
                if va.is_empty() && vb.is_empty() {
                    continue;
                }
                let (ma, mb) = (
                    (!va.is_empty()).then(|| median(&va)),
                    (!vb.is_empty()).then(|| median(&vb)),
                );
                let ratio = match (ma, mb) {
                    (Some(x), Some(y)) if x != 0.0 => y / x,
                    (Some(x), Some(y)) if x == y => 1.0,
                    _ => f64::NAN,
                };
                let (verdict, regression) = match (m.bound, ma, mb) {
                    (_, Some(_), None) => ("MISSING in B".to_string(), !trace),
                    (_, None, _) => ("new in B".to_string(), false),
                    (Some(bound), Some(_), Some(_)) => {
                        let worse = if m.lower_is_better {
                            ratio - 1.0
                        } else {
                            1.0 - ratio
                        };
                        if worse.is_nan() || worse > bound {
                            (format!("REGRESSION (bound {bound})"), true)
                        } else if -worse > bound {
                            (format!("better (bound {bound})"), false)
                        } else {
                            ("ok".to_string(), false)
                        }
                    }
                    (None, Some(_), Some(_)) => {
                        let spread = rel_spread(&va).max(rel_spread(&vb));
                        if ratio.is_nan() || (ratio - 1.0).abs() > spread {
                            (format!("moved (spread {spread:.3})"), false)
                        } else {
                            ("ok".to_string(), false)
                        }
                    }
                };
                regressed |= regression;
                let show = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.4}"));
                let _ = writeln!(
                    out,
                    "{:<30} {:<12} {:>14} {:>14} {:>8.3}  {verdict}",
                    m.name,
                    w,
                    show(ma),
                    show(mb),
                    ratio
                );
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, trace: bool, metric: &str, value: f64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(trace)),
            (
                "metrics",
                Json::obj([(
                    metric,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ])
    }

    fn spec() -> Spec {
        Spec {
            end_to_end: vec![MetricSpec {
                name: "op_p50_ms".into(),
                unit: "ms".into(),
                lower_is_better: true,
                bound: Some(0.1),
            }],
            per_layer: vec![MetricSpec {
                name: "plan.ns".into(),
                unit: "ns".into(),
                lower_is_better: true,
                bound: None,
            }],
        }
    }

    #[test]
    fn flags_only_end_to_end_regressions_beyond_the_bound() {
        let a = vec![run("fleet-mix", false, "op_p50_ms", 10.0)];
        let within = vec![run("fleet-mix", false, "op_p50_ms", 10.9)];
        let beyond = vec![run("fleet-mix", false, "op_p50_ms", 11.5)];
        assert!(!diff(&spec(), &a, &within).1);
        assert!(diff(&spec(), &a, &beyond).1);
        // Faster is never a regression.
        assert!(!diff(&spec(), &beyond, &a).1);
        // A metric that disappears is.
        assert!(diff(&spec(), &a, &[]).1);
    }

    #[test]
    fn per_layer_moves_are_flagged_not_failed() {
        let a: Vec<Json> = [100.0, 101.0, 99.0]
            .iter()
            .map(|&v| run("track-probe", true, "plan.ns", v))
            .collect();
        let b = vec![run("track-probe", true, "plan.ns", 200.0)];
        let (report, regressed) = diff(&spec(), &a, &b);
        assert!(!regressed);
        assert!(report.contains("moved"), "{report}");
    }
}
