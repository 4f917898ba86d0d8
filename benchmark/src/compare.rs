//! Result files, the `BENCHMARK.json` metric declarations, and
//! `--compare A.json B.json`.
//!
//! A result file is `{"schema", "machine", "runs": [...]}`; each run is
//! the result object of one `(workload, traced)` run plus what
//! identifies it. `--repeat N` puts N runs per pair into one file, which
//! is what gives `--compare` quartiles and the A/A spread the bounds
//! were finalised from.

use std::collections::BTreeMap;
use std::path::Path;

use horse_telemetry::json::{self, JsonValue};

use crate::stats::{median, quartiles, spread, verdict, worsening, Better, Verdict};

/// Schema tag of result files.
pub const SCHEMA: &str = "horse-benchmark/result/1";

/// Metrics compared exactly (bound 0): simulated latencies are
/// bit-reproducible at one driver, and no operation may fail.
const EXACT: [&str; 3] = ["virt_init_p50_ns", "virt_init_p99_ns", "failed_share"];

/// One declared metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric declarations of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `end_to_end`, in file order.
    pub end_to_end: Vec<Declared>,
    /// `per_layer`, in file order.
    pub per_layer: Vec<Declared>,
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a metric entry missing a field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let section = |key: &str| -> Result<Vec<Declared>, String> {
            root.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` array"))?
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(JsonValue::as_str);
                    let better = m
                        .get("better")
                        .and_then(JsonValue::as_str)
                        .and_then(Better::parse);
                    match (name, better) {
                        (Some(name), Some(better)) => Ok(Declared {
                            name: name.to_string(),
                            better,
                            bound: m.get("bound").and_then(JsonValue::as_f64),
                        }),
                        _ => Err(format!("malformed metric entry under `{key}`")),
                    }
                })
                .collect()
        };
        Ok(Self {
            end_to_end: section("end_to_end")?,
            per_layer: section("per_layer")?,
        })
    }

    /// Loads `BENCHMARK.json` from the current directory, if present.
    pub fn load() -> Option<Result<Self, String>> {
        let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
        Some(Self::parse(&text))
    }

    /// Names a run of the given kind must report — no more, no fewer.
    pub fn names(&self, traced: bool) -> Vec<&str> {
        let section = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        section.iter().map(|d| d.name.as_str()).collect()
    }
}

/// Per-(workload, metric) bounds from `benchmark/bounds.json`.
///
/// `BENCHMARK.json` carries one bound per metric, which has to cover the
/// noisiest workload (`wide_resume`'s cross-core thread spawns). This
/// overlay keeps the tighter bound each quieter pair earned in the A/A
/// runs, so `--compare` does not wave a 15 % `ull_seq` regression
/// through.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairBounds(BTreeMap<(String, String), f64>);

impl PairBounds {
    /// Parses `{"bounds": {"<workload>": {"<metric>": <share>}}}`.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing `bounds` object.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let Some(JsonValue::Object(workloads)) = root.get("bounds") else {
            return Err("bounds.json has no `bounds` object".to_string());
        };
        let mut pairs = BTreeMap::new();
        for (workload, metrics) in workloads {
            let JsonValue::Object(metrics) = metrics else {
                return Err(format!("bounds.json: `{workload}` is not an object"));
            };
            for (metric, bound) in metrics {
                let bound = bound
                    .as_f64()
                    .ok_or_else(|| format!("bounds.json: {workload}.{metric} is not a number"))?;
                pairs.insert((workload.clone(), metric.clone()), bound);
            }
        }
        Ok(Self(pairs))
    }

    /// Loads `benchmark/bounds.json` relative to the current directory
    /// (empty when absent).
    ///
    /// # Errors
    ///
    /// A file that exists but does not parse.
    pub fn load() -> Result<Self, String> {
        match std::fs::read_to_string("benchmark/bounds.json") {
            Ok(text) => Self::parse(&text),
            Err(_) => Ok(Self::default()),
        }
    }

    fn get(&self, workload: &str, metric: &str) -> Option<f64> {
        self.0
            .get(&(workload.to_string(), metric.to_string()))
            .copied()
    }
}

/// Writes run entries ([`RunReport::file_entry`]) with the machine
/// descriptor as a result file.
///
/// [`RunReport::file_entry`]: crate::report::RunReport::file_entry
pub fn write_result_file(
    path: &Path,
    machine: JsonValue,
    entries: Vec<JsonValue>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let root = JsonValue::Object(BTreeMap::from([
        ("schema".to_string(), JsonValue::String(SCHEMA.to_string())),
        ("machine".to_string(), machine),
        ("runs".to_string(), JsonValue::Array(entries)),
    ]));
    std::fs::write(path, root.render())
}

/// Values per `(workload, metric)` of the untraced runs of a result
/// file (`metrics` and `info` alike).
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads the untraced runs of a result file.
///
/// # Errors
///
/// Unreadable file, malformed JSON or a foreign schema.
pub fn load_samples(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if root.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} file"));
    }
    let mut samples = Samples::new();
    let runs = root
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    for run in runs {
        if run.get("traced") != Some(&JsonValue::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        let mut take = |name: &str, value: f64| {
            samples
                .entry((workload.to_string(), name.to_string()))
                .or_default()
                .push(value);
        };
        if let Some(JsonValue::Object(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                    take(name, v);
                }
            }
        }
        if let Some(JsonValue::Object(info)) = run.get("info") {
            for (name, v) in info {
                if let Some(v) = v.as_f64() {
                    take(name, v);
                }
            }
        }
    }
    Ok(samples)
}

/// One row of the compare table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// `(q1, median, q3)` of A.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of B.
    pub b: (f64, f64, f64),
    /// Bound applied.
    pub bound: f64,
    /// Larger of the two spreads.
    pub spread: f64,
    /// Share by which B's median is worse than A's (negative = better).
    pub worsening: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every end-to-end `(metric, workload)` pair present in both
/// sample sets, each workload in its own row, plus the exact metrics.
pub fn compare(spec: &Spec, pairs: &PairBounds, a: &Samples, b: &Samples) -> Vec<Row> {
    let exact = EXACT.iter().map(|name| Declared {
        name: (*name).to_string(),
        better: Better::Lower,
        bound: Some(0.0),
    });
    let declared: Vec<Declared> = spec.end_to_end.iter().cloned().chain(exact).collect();
    let mut rows = Vec::new();
    for ((workload, metric), va) in a {
        let Some(d) = declared.iter().find(|d| &d.name == metric) else {
            continue;
        };
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let bound = pairs.get(workload, metric).or(d.bound).unwrap_or(0.0);
        let summary = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            (q1, median(v), q3)
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: summary(va),
            b: summary(vb),
            bound,
            spread: spread(va).max(spread(vb)),
            worsening: worsening(median(va), median(vb), d.better),
            verdict: verdict(va, vb, d.better, bound),
        });
    }
    rows
}

/// Prints the compare table; returns how many rows read `worse`.
pub fn print_rows(rows: &[Row]) -> usize {
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>14} | {:>14} {:>14} {:>14} | {:>7} {:>7} {:>8}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "bound%",
        "spread%",
        "worse%"
    );
    for r in rows {
        println!(
            "{:<14} {:<18} {:>14.3} {:>14.3} {:>14.3} | {:>14.3} {:>14.3} {:>14.3} | {:>7.2} {:>7.2} {:>8.2}  {}",
            r.workload,
            r.metric,
            r.a.0,
            r.a.1,
            r.a.2,
            r.b.0,
            r.b.1,
            r.b.2,
            100.0 * r.bound,
            100.0 * r.spread,
            100.0 * r.worsening,
            r.verdict.label()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {} ok, {} worse, {} unresolved",
        rows.len(),
        rows.len() - worse - unresolved,
        worse,
        unresolved
    );
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "end_to_end": [
        {"name": "wall_p50_ns", "unit": "ns", "better": "lower", "bound": 0.05},
        {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.05}
      ],
      "per_layer": [{"name": "faas.pool.take_ns", "unit": "ns", "better": "lower"}]
    }"#;

    fn samples(workload: &str, metric: &str, values: &[f64]) -> Samples {
        Samples::from([((workload.to_string(), metric.to_string()), values.to_vec())])
    }

    #[test]
    fn spec_parses_both_sections() {
        let spec = Spec::parse(SPEC).expect("valid");
        assert_eq!(spec.names(false), ["wall_p50_ns", "throughput_ops_s"]);
        assert_eq!(spec.names(true), ["faas.pool.take_ns"]);
        assert_eq!(spec.end_to_end[1].better, Better::Higher);
        assert_eq!(spec.end_to_end[0].bound, Some(0.05));
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(Spec::parse("{}").is_err());
    }

    #[test]
    fn compare_gives_one_row_per_pair_with_direction_aware_verdicts() {
        let spec = Spec::parse(SPEC).expect("valid");
        let mut a = samples("ull_seq", "wall_p50_ns", &[1000.0, 1001.0, 999.0]);
        a.extend(samples(
            "ull_seq",
            "throughput_ops_s",
            &[850e3, 851e3, 849e3],
        ));
        a.extend(samples("ull_seq", "virt_init_p50_ns", &[170.0; 3]));
        a.extend(samples("ull_seq", "not_declared", &[1.0; 3]));
        let mut b = samples("ull_seq", "wall_p50_ns", &[1100.0, 1101.0, 1099.0]);
        b.extend(samples(
            "ull_seq",
            "throughput_ops_s",
            &[950e3, 951e3, 949e3],
        ));
        b.extend(samples("ull_seq", "virt_init_p50_ns", &[171.0; 3]));
        let rows = compare(&spec, &PairBounds::default(), &a, &b);
        assert_eq!(rows.len(), 3, "undeclared metrics get no row");
        let of = |m: &str| rows.iter().find(|r| r.metric == m).expect("row").verdict;
        assert_eq!(of("wall_p50_ns"), Verdict::Worse);
        assert_eq!(of("throughput_ops_s"), Verdict::Ok); // higher is better
        assert_eq!(of("virt_init_p50_ns"), Verdict::Worse); // exact
        assert_eq!(print_rows(&rows), 2);
        let same = compare(&spec, &PairBounds::default(), &a, &a);
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn pair_bounds_override_the_metric_bound() {
        let spec = Spec::parse(SPEC).expect("valid");
        let pairs = PairBounds::parse(r#"{"bounds": {"wide_resume": {"wall_p50_ns": 0.2}}}"#)
            .expect("valid");
        let slower = |w: &str| {
            (
                samples(w, "wall_p50_ns", &[1000.0, 1001.0, 999.0]),
                samples(w, "wall_p50_ns", &[1100.0, 1101.0, 1099.0]),
            )
        };
        let (a, b) = slower("wide_resume");
        assert_eq!(compare(&spec, &pairs, &a, &b)[0].verdict, Verdict::Ok);
        assert_eq!(compare(&spec, &pairs, &a, &b)[0].bound, 0.2);
        let (a, b) = slower("ull_seq");
        assert_eq!(compare(&spec, &pairs, &a, &b)[0].verdict, Verdict::Worse);
        assert!(PairBounds::parse("{}").is_err());
    }
}
