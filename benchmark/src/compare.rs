//! `gz_benchmark compare A.json B.json`: hold B against A with the bounds
//! `BENCHMARK.json` fixes.
//!
//! A and B are result files written by `run --out` (any number of runs
//! each). Per workload and metric the two sides' medians are compared; B may
//! be worse than A by at most the metric's bound. Where either side's own
//! run-to-run spread (interquartile range over median, four runs or more) is
//! wider than the bound the pair is *unresolved* — neither a pass nor a
//! violation. Any rise in the share of failed operations is a violation.

use crate::host::{BENCHMARK_DIR, HOST_FIELDS};
use crate::json::Value;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound (or better).
    Within,
    /// Worse by more than the bound.
    Violation,
    /// A side's own spread exceeds the bound: the data cannot say.
    Unresolved,
    /// The metric has no bound (per-layer), or a side has no value.
    NotJudged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "ok",
            Verdict::Violation => "VIOLATION",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "-",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / |a|`, signed as measured.
    pub change: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub verdict: Verdict,
}

/// Name → (lower is better, bound if any), from `BENCHMARK.json`.
type Bounds = BTreeMap<String, (bool, Option<f64>)>;

fn bounds_from_spec(spec: &Value) -> Result<Bounds, String> {
    let mut bounds = Bounds::new();
    for list in ["end_to_end", "per_layer"] {
        for entry in spec.get(list).and_then(Value::as_arr).ok_or(format!("spec has no {list}"))? {
            let name = entry.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
            let lower = match entry.get("better").and_then(Value::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: `better` must be lower or higher")),
            };
            bounds.insert(name.to_string(), (lower, entry.get("bound").and_then(Value::as_f64)));
        }
    }
    Ok(bounds)
}

/// Judge one metric of one workload from each side's per-run values.
pub fn judge(lower_is_better: bool, bound: Option<f64>, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let Some(bound) = bound else { return (change, Verdict::NotJudged) };
    let too_wide = |values: &[f64]| stats::spread(values).is_some_and(|s| s > bound);
    let worse_by = if lower_is_better { change } else { -change };
    let verdict = if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound + 1e-12 {
        Verdict::Violation
    } else {
        Verdict::Within
    };
    (change, verdict)
}

/// Per (workload, metric): the value of every run, in file order. The
/// pseudo-metric `failed_ops_share` carries each run's failed / attempted.
fn values_by_metric(doc: &Value) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in doc.get("runs").and_then(Value::as_arr).ok_or("result file has no runs")? {
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or("run without a workload")?;
        let number =
            |key: &str| run.get(key).and_then(Value::as_f64).ok_or(format!("run without {key}"));
        let share = number("failed")? / number("attempted")?.max(1.0);
        out.entry((workload.to_string(), "failed_ops_share".to_string())).or_default().push(share);
        for (name, entry) in
            run.get("metrics").and_then(Value::as_obj).ok_or("run without metrics")?
        {
            let value =
                entry.get("value").and_then(Value::as_f64).ok_or(format!("{name} has no value"))?;
            out.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(out)
}

/// Every row of the comparison, workloads and metrics in sorted order.
pub fn rows(a: &Value, b: &Value, spec: &Value) -> Result<Vec<Row>, String> {
    let bounds = bounds_from_spec(spec)?;
    let (va, vb) = (values_by_metric(a)?, values_by_metric(b)?);
    let mut out = Vec::new();
    for ((workload, metric), a_values) in &va {
        let Some(b_values) = vb.get(&(workload.clone(), metric.clone())) else { continue };
        let (change, verdict) = if metric == "failed_ops_share" {
            // Bound 0: any increase fails, and spread excuses nothing.
            let (sa, sb) = (stats::median(a_values), stats::median(b_values));
            (sb - sa, if sb > sa { Verdict::Violation } else { Verdict::Within })
        } else {
            let &(lower, bound) =
                bounds.get(metric).ok_or(format!("{metric} is not in the spec"))?;
            judge(lower, bound, a_values, b_values)
        };
        out.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: stats::median(a_values),
            b: stats::median(b_values),
            change,
            spread_a: stats::spread(a_values),
            spread_b: stats::spread(b_values),
            verdict,
        });
    }
    Ok(out)
}

/// Why A and B may not be compared, if they may not: a differing host
/// field, or different seeds behind a workload.
fn mismatch(a: &Value, b: &Value) -> Option<String> {
    let field = |doc: &Value, name: &str| doc.get("fingerprint").and_then(|f| f.get(name)).cloned();
    for name in HOST_FIELDS {
        if field(a, name) != field(b, name) {
            return Some(format!(
                "{name} differs: {} vs {}",
                field(a, name).map_or("none".into(), |v| v.to_json()),
                field(b, name).map_or("none".into(), |v| v.to_json()),
            ));
        }
    }
    let seeds = |doc: &Value| {
        let mut seeds: Vec<(String, u64, bool)> = doc
            .get("runs")
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|run| {
                Some((
                    run.get("workload")?.as_str()?.to_string(),
                    run.get("seed")?.as_f64()? as u64,
                    run.get("trace")? == &Value::Bool(true),
                ))
            })
            .collect();
        seeds.sort();
        seeds
    };
    (seeds(a) != seeds(b)).then(|| "the two files ran different workloads or seeds".to_string())
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison; `Ok(false)` if any bound is violated.
pub fn compare(a: &Path, b: &Path, spec: Option<&Path>, force: bool) -> Result<bool, String> {
    let default_spec = Path::new(BENCHMARK_DIR).join("../BENCHMARK.json");
    let spec = load(spec.unwrap_or(&default_spec))?;
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    if let Some(why) = mismatch(&a_doc, &b_doc) {
        if !force {
            return Err(format!("refusing to compare: {why} (--force overrides)"));
        }
        println!("warning: {why}");
    }
    let commit = |doc: &Value| {
        doc.get("fingerprint")
            .and_then(|f| f.get("git_commit"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("A = {} ({})\nB = {} ({})", a.display(), commit(&a_doc), b.display(), commit(&b_doc));
    println!(
        "{:<14} {:<38} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "spreadA", "spreadB"
    );
    let rows = rows(&a_doc, &b_doc, &spec)?;
    let share = |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
    for row in &rows {
        println!(
            "{:<14} {:<38} {:>14.6} {:>14.6} {:>+8.2}% {:>8} {:>8}  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.change * 100.0,
            share(row.spread_a),
            share(row.spread_b),
            row.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} within bound, {} unresolved, {} violated",
        count(Verdict::Within),
        count(Verdict::Unresolved),
        count(Verdict::Violation)
    );
    Ok(count(Verdict::Violation) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [{"name": "layer.ns", "unit": "ns", "better": "lower"}]
    }"#;

    /// A result file with one run per value of `latency_ms`.
    fn results(latencies: &[f64], rate: f64, failed: u64) -> Value {
        let runs = latencies
            .iter()
            .map(|l| {
                format!(
                    r#"{{"workload": "w", "seed": 1, "trace": false, "attempted": 100, "failed": {failed},
                        "metrics": {{"latency_ms": {{"value": {l}, "unit": "ms"}},
                                     "rate": {{"value": {rate}, "unit": "1/s"}},
                                     "layer.ns": {{"value": {l}, "unit": "ns"}}}}}}"#
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        Value::parse(&format!(r#"{{"fingerprint": {{"nproc": 2}}, "runs": [{runs}]}}"#)).unwrap()
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn at_under_and_over_a_bound() {
        let spec = Value::parse(SPEC).unwrap();
        let base = results(&[10.0], 100.0, 0);
        // Under: 5 % slower, 5 % less throughput.
        let r = rows(&base, &results(&[10.5], 95.0, 0), &spec).unwrap();
        assert_eq!(verdict_of(&r, "latency_ms"), Verdict::Within);
        assert_eq!(verdict_of(&r, "rate"), Verdict::Within);
        // Exactly at the bound still passes.
        let r = rows(&base, &results(&[11.0], 90.0, 0), &spec).unwrap();
        assert_eq!(verdict_of(&r, "latency_ms"), Verdict::Within);
        assert_eq!(verdict_of(&r, "rate"), Verdict::Within);
        // Over, in each metric's own worse direction.
        let r = rows(&base, &results(&[11.2], 88.0, 0), &spec).unwrap();
        assert_eq!(verdict_of(&r, "latency_ms"), Verdict::Violation);
        assert_eq!(verdict_of(&r, "rate"), Verdict::Violation);
        // Better by any amount is within the bound; per-layer is not judged.
        let r = rows(&base, &results(&[5.0], 200.0, 0), &spec).unwrap();
        assert_eq!(verdict_of(&r, "latency_ms"), Verdict::Within);
        assert_eq!(verdict_of(&r, "rate"), Verdict::Within);
        assert_eq!(verdict_of(&r, "layer.ns"), Verdict::NotJudged);
        assert!((r.iter().find(|r| r.metric == "latency_ms").unwrap().change + 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_pair_unresolved() {
        let spec = Value::parse(SPEC).unwrap();
        let steady = results(&[10.0, 10.1, 9.9, 10.0, 10.05], 100.0, 0);
        let noisy = results(&[8.0, 14.0, 10.0, 13.0, 9.0], 100.0, 0);
        let slower = results(&[12.0, 12.1, 11.9, 12.0, 12.05], 100.0, 0);
        assert_eq!(
            verdict_of(&rows(&steady, &noisy, &spec).unwrap(), "latency_ms"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of(&rows(&noisy, &slower, &spec).unwrap(), "latency_ms"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of(&rows(&steady, &slower, &spec).unwrap(), "latency_ms"),
            Verdict::Violation
        );
        assert_eq!(
            verdict_of(&rows(&steady, &steady, &spec).unwrap(), "latency_ms"),
            Verdict::Within
        );
    }

    #[test]
    fn any_rise_in_failed_operations_is_a_violation() {
        let spec = Value::parse(SPEC).unwrap();
        let clean = results(&[10.0], 100.0, 0);
        let failing = results(&[10.0], 100.0, 1);
        assert_eq!(
            verdict_of(&rows(&clean, &failing, &spec).unwrap(), "failed_ops_share"),
            Verdict::Violation
        );
        assert_eq!(
            verdict_of(&rows(&failing, &clean, &spec).unwrap(), "failed_ops_share"),
            Verdict::Within
        );
        assert_eq!(
            verdict_of(&rows(&clean, &clean, &spec).unwrap(), "failed_ops_share"),
            Verdict::Within
        );
    }

    #[test]
    fn host_and_seed_mismatches_are_named() {
        let a = results(&[10.0], 100.0, 0);
        assert_eq!(mismatch(&a, &a), None);
        let other_host =
            Value::parse(&a.to_json().replace("\"nproc\": 2", "\"nproc\": 8")).unwrap();
        assert!(mismatch(&a, &other_host).unwrap().contains("nproc"));
        let other_seed = Value::parse(&a.to_json().replace("\"seed\": 1", "\"seed\": 2")).unwrap();
        assert!(mismatch(&a, &other_seed).unwrap().contains("seeds"));
    }
}
