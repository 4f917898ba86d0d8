//! The flight recorder: a bounded ring of the worst complete span
//! trees per request class, dumped as a postmortem when a gate fails.
//!
//! A 12k-submission soak stitches 12k span trees; an operator chasing a
//! red SLO gate needs the handful that *cost* the attainment — the
//! slowest trees per class, plus everything that shed, missed a
//! deadline or hedged. The recorder keeps exactly that, bounded, and
//! renders it two ways: a machine-readable summary
//! (`BENCH_forensics.json`) and a Chrome-trace-with-flow-events file
//! (`BENCH_forensics.trace.json`) loadable in Perfetto, where flow
//! arrows draw each submission's causal path across its routing and
//! hedge attempts.
//!
//! Retention is deterministic: trees are ranked by (root duration desc,
//! invocation id asc), so the dump for a seeded run is bit-identical
//! across replays — the `slo_report` determinism gate covers it.

use horse_telemetry::forensics::{chrome_trace_with_flows, outcome, SpanTree};
use horse_telemetry::json::JsonValue;
use std::collections::BTreeMap;

/// Worst trees retained per class.
pub const TREES_PER_CLASS: usize = 8;

/// One retained tree plus its ranking key.
#[derive(Debug, Clone)]
struct Retained {
    tree: SpanTree,
    dur_ns: u64,
}

/// Bounded per-class worst-tree retention.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    /// Worst-duration trees per class label.
    by_class: BTreeMap<&'static str, Vec<Retained>>,
    /// Total trees offered (retained or not).
    offered: u64,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a stitched submission tree; it is retained iff it ranks
    /// among the class's [`TREES_PER_CLASS`] worst by root duration
    /// (ties broken by invocation id, so retention is deterministic).
    pub fn record(&mut self, tree: &SpanTree) {
        self.offered += 1;
        let Some(stamp) = tree.stamp() else {
            return;
        };
        let slot = self.by_class.entry(stamp.class_label()).or_default();
        slot.push(Retained {
            tree: tree.clone(),
            dur_ns: tree.duration_ns(),
        });
        slot.sort_by(|a, b| {
            b.dur_ns
                .cmp(&a.dur_ns)
                .then(a.tree.invocation.cmp(&b.tree.invocation))
        });
        slot.truncate(TREES_PER_CLASS);
    }

    /// Trees offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Retained trees, worst-first within each class (classes in label
    /// order).
    pub fn trees(&self) -> impl Iterator<Item = &SpanTree> {
        self.by_class.values().flatten().map(|r| &r.tree)
    }

    /// Number of retained trees across classes.
    pub fn len(&self) -> usize {
        self.by_class.values().map(Vec::len).sum()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic fingerprint over the retained set — the replay
    /// self-check `slo_report` gates on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for tree in self.trees() {
            for byte in tree.fingerprint().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The machine-readable dump: per-class retained tree summaries
    /// (root stamp, duration, node count, per-tree fingerprint).
    pub fn to_json(&self) -> JsonValue {
        let mut root = BTreeMap::new();
        root.insert("offered".into(), JsonValue::Number(self.offered as f64));
        root.insert("retained".into(), JsonValue::Number(self.len() as f64));
        root.insert(
            "fingerprint".into(),
            JsonValue::String(format!("{:016x}", self.fingerprint())),
        );
        let mut classes = BTreeMap::new();
        for (class, retained) in &self.by_class {
            let trees: Vec<JsonValue> = retained
                .iter()
                .map(|r| {
                    let stamp = r.tree.stamp().expect("retained trees are submission trees");
                    let mut obj = BTreeMap::new();
                    obj.insert(
                        "invocation".into(),
                        JsonValue::Number(r.tree.invocation as f64),
                    );
                    obj.insert(
                        "submission".into(),
                        JsonValue::Number(stamp.submission as f64),
                    );
                    obj.insert(
                        "outcome".into(),
                        JsonValue::String(outcome::label(stamp.outcome).into()),
                    );
                    obj.insert("hedged".into(), JsonValue::Bool(stamp.hedged));
                    obj.insert("met_deadline".into(), JsonValue::Bool(stamp.met_deadline));
                    obj.insert("dur_ns".into(), JsonValue::Number(r.dur_ns as f64));
                    obj.insert("nodes".into(), JsonValue::Number(r.tree.len() as f64));
                    obj.insert(
                        "fingerprint".into(),
                        JsonValue::String(format!("{:016x}", r.tree.fingerprint())),
                    );
                    JsonValue::Object(obj)
                })
                .collect();
            classes.insert(class.to_string(), JsonValue::Array(trees));
        }
        root.insert("classes".into(), JsonValue::Object(classes));
        JsonValue::Object(root)
    }

    /// The Chrome-trace-with-flow-events rendering of every retained
    /// tree (open in Perfetto; each tree is its own process).
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace_with_flows(self.trees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_telemetry::forensics::{ForensicIndex, RootStamp};
    use horse_telemetry::{Event, EventKind, TraceSnapshot};

    fn submission_tree(invocation: u64, dur: u64, class: u8) -> SpanTree {
        let stamp = RootStamp {
            submission: invocation,
            class,
            outcome: outcome::COMPLETED,
            hedged: false,
            met_deadline: true,
        };
        let events = vec![Event {
            kind: EventKind::Submit,
            track: 0,
            start_ns: 0,
            dur_ns: dur,
            arg: stamp.encode(),
            invocation,
            parent: None,
        }];
        let snapshot = TraceSnapshot {
            events,
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        };
        ForensicIndex::stitch(&snapshot).trees.remove(0)
    }

    #[test]
    fn retains_worst_n_per_class_deterministically() {
        let mut fr = FlightRecorder::new();
        // 20 uLL trees with durations 1..=20: only the slowest 8 stay.
        for i in 1..=20u64 {
            fr.record(&submission_tree(i, i * 100, 0));
        }
        assert_eq!(fr.offered(), 20);
        assert_eq!(fr.len(), TREES_PER_CLASS);
        let durs: Vec<u64> = fr.trees().map(|t| t.duration_ns()).collect();
        assert_eq!(durs, vec![2000, 1900, 1800, 1700, 1600, 1500, 1400, 1300]);

        // Same offers in a different order → same retained set and
        // fingerprint.
        let mut fr2 = FlightRecorder::new();
        for i in (1..=20u64).rev() {
            fr2.record(&submission_tree(i, i * 100, 0));
        }
        assert_eq!(fr.fingerprint(), fr2.fingerprint());
    }

    #[test]
    fn classes_are_ringed_independently() {
        let mut fr = FlightRecorder::new();
        for i in 1..=10u64 {
            fr.record(&submission_tree(i, 100, 0));
            fr.record(&submission_tree(100 + i, 100, 1));
        }
        assert_eq!(fr.len(), 2 * TREES_PER_CLASS);
    }

    #[test]
    fn dump_is_valid_json_and_trace() {
        let mut fr = FlightRecorder::new();
        fr.record(&submission_tree(7, 500, 0));
        let doc = horse_telemetry::json::parse(&fr.to_json().render()).expect("valid JSON");
        assert!(doc
            .get("classes")
            .and_then(|c| c.get("ull"))
            .and_then(|t| t.as_array())
            .is_some_and(|a| a.len() == 1));
        let trace = horse_telemetry::json::parse(&fr.to_chrome_trace()).expect("valid trace JSON");
        assert!(trace.get("traceEvents").is_some());
    }
}
