//! What a run reports, and how it is printed: every metric by name with
//! its unit on its own line, then — as the last line of standard output
//! — one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::collections::BTreeMap;

use horse_telemetry::json::JsonValue;

use crate::workloads::Check;

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric. Non-finite values (a ratio over nothing) read as 0 so
    /// the result line stays valid JSON.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Everything one `--workload W --trace T` run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Workload seed.
    pub seed: u64,
    /// Measured-window seconds.
    pub seconds: f64,
    /// Driver threads of the workload.
    pub threads: usize,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metric set of `BENCHMARK.json` for this kind of run:
    /// `end_to_end` untraced, `per_layer` traced.
    pub metrics: Vec<Metric>,
    /// Printed by name, but outside the gated set (see README: demoted
    /// metrics, sample counts, informational tails).
    pub info: Vec<Metric>,
    /// Output checks; the run is correct when all hold.
    pub checks: Vec<Check>,
}

impl RunReport {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The result object (`correct`, `attempted`, `failed`, `metrics`).
    pub fn result_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = BTreeMap::from([
                    ("value".to_string(), JsonValue::Number(m.value)),
                    ("unit".to_string(), JsonValue::String(m.unit.to_string())),
                ]);
                (m.name.clone(), JsonValue::Object(entry))
            })
            .collect();
        JsonValue::Object(BTreeMap::from([
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::Number(self.attempted as f64),
            ),
            ("failed".to_string(), JsonValue::Number(self.failed as f64)),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ]))
    }

    /// The run as one entry of a result file: the result object, what
    /// identifies the run, and the informational metrics.
    pub fn file_entry(&self) -> JsonValue {
        let JsonValue::Object(mut map) = self.result_json() else {
            unreachable!("result_json builds an object");
        };
        let info = self
            .info
            .iter()
            .map(|m| (m.name.clone(), JsonValue::Number(m.value)))
            .collect();
        map.extend([
            (
                "workload".to_string(),
                JsonValue::String(self.workload.to_string()),
            ),
            ("traced".to_string(), JsonValue::Bool(self.traced)),
            ("seed".to_string(), JsonValue::Number(self.seed as f64)),
            ("seconds".to_string(), JsonValue::Number(self.seconds)),
            (
                "threads".to_string(),
                JsonValue::Number(self.threads as f64),
            ),
            ("info".to_string(), JsonValue::Object(info)),
        ]);
        JsonValue::Object(map)
    }

    /// Prints the human-readable report, then the result line.
    pub fn print(&self) {
        println!(
            "== {} ({}; seed {}, window {} s, {} driver thread{}) ==",
            self.workload,
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            },
            self.seed,
            self.seconds,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        );
        for m in self.metrics.iter().chain(&self.info) {
            println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
        }
        for c in &self.checks {
            if c.ok {
                println!("check ok    {}", c.name);
            } else {
                println!("check FAIL  {}: {}", c.name, c.detail);
            }
        }
        println!("{}", self.result_json().render());
    }
}
