//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! The output is the trace-event "JSON object format": an object with a
//! `traceEvents` array of complete (`"ph":"X"`) and instant (`"ph":"i"`)
//! events, plus `displayTimeUnit` and — as extra top-level keys, which
//! the format explicitly allows — the counter/gauge snapshot and the
//! dropped-event tally, so a trace file is self-describing about its own
//! completeness.
//!
//! Timestamps in the format are microseconds; events here carry virtual
//! nanoseconds, so `ts`/`dur` are emitted as fractional microseconds
//! with nanosecond precision (e.g. `1.234`), which Perfetto renders
//! exactly.

use crate::event::Event;
use crate::json::JsonValue;
use crate::recorder::TraceSnapshot;
use std::collections::BTreeMap;

fn micros(ns: u64) -> JsonValue {
    JsonValue::Number(ns as f64 / 1_000.0)
}

fn event_json(event: &Event) -> JsonValue {
    let mut obj = BTreeMap::new();
    obj.insert("name".into(), JsonValue::String(event.kind.label().into()));
    obj.insert(
        "cat".into(),
        JsonValue::String(event.kind.category().into()),
    );
    obj.insert("pid".into(), JsonValue::Number(1.0));
    obj.insert("tid".into(), JsonValue::Number(f64::from(event.track)));
    obj.insert("ts".into(), micros(event.start_ns));
    if event.is_instant() {
        obj.insert("ph".into(), JsonValue::String("i".into()));
        obj.insert("s".into(), JsonValue::String("t".into()));
    } else {
        obj.insert("ph".into(), JsonValue::String("X".into()));
        obj.insert("dur".into(), micros(event.dur_ns));
    }
    let mut args = BTreeMap::new();
    if let Some(arg_name) = event.kind.arg_name() {
        args.insert(arg_name.into(), JsonValue::Number(event.arg as f64));
    }
    if event.invocation != 0 {
        args.insert(
            "invocation".into(),
            JsonValue::Number(event.invocation as f64),
        );
    }
    if let Some(parent) = event.parent {
        args.insert("parent".into(), JsonValue::String(parent.label().into()));
    }
    if !args.is_empty() {
        obj.insert("args".into(), JsonValue::Object(args));
    }
    JsonValue::Object(obj)
}

/// Renders a snapshot as a Chrome trace-event JSON document.
pub fn render(snapshot: &TraceSnapshot) -> String {
    let mut root = BTreeMap::new();
    root.insert("displayTimeUnit".into(), JsonValue::String("ns".into()));
    root.insert(
        "traceEvents".into(),
        JsonValue::Array(snapshot.events.iter().map(event_json).collect()),
    );
    let numbers = |pairs: &[(&'static str, u64)]| {
        JsonValue::Object(
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), JsonValue::Number(v as f64)))
                .collect(),
        )
    };
    root.insert("counters".into(), numbers(&snapshot.counters));
    root.insert("gauges".into(), numbers(&snapshot.gauges));
    root.insert(
        "droppedEvents".into(),
        JsonValue::Number(snapshot.dropped as f64),
    );
    // Per writer-shard losses, keyed "shard<i>", so a lossy trace names
    // the writer whose stream is incomplete (satellite: drops must not
    // be silently absent from exports).
    root.insert(
        "droppedEventsByThread".into(),
        JsonValue::Object(
            snapshot
                .dropped_by_shard
                .iter()
                .enumerate()
                .map(|(i, &d)| (format!("shard{i}"), JsonValue::Number(d as f64)))
                .collect(),
        ),
    );
    JsonValue::Object(root).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::json;

    fn snapshot() -> TraceSnapshot {
        TraceSnapshot {
            events: vec![
                Event {
                    kind: EventKind::Resume,
                    track: 0,
                    start_ns: 1_000,
                    dur_ns: 230,
                    arg: 7,
                    invocation: 42,
                    parent: Some(EventKind::InvokeHorse),
                },
                Event {
                    kind: EventKind::SpliceWork,
                    track: 2,
                    start_ns: 1_060,
                    dur_ns: 45,
                    arg: 3,
                    invocation: 42,
                    parent: Some(EventKind::ResumeSortedMerge),
                },
                Event {
                    kind: EventKind::PoolHit,
                    track: 0,
                    start_ns: 990,
                    ..Event::default()
                },
            ],
            counters: vec![("resumes_horse", 1), ("splices", 3)],
            gauges: vec![("queued_vcpus", 12)],
            dropped: 3,
            dropped_in_window: 3,
            dropped_by_shard: vec![0, 3, 0, 0],
        }
    }

    #[test]
    fn render_parses_back_as_valid_json() {
        let text = render(&snapshot());
        let doc = json::parse(&text).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        assert_eq!(doc.get("droppedEvents").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn per_thread_drop_counts_are_exported() {
        let text = render(&snapshot());
        let doc = json::parse(&text).unwrap();
        let by_thread = doc.get("droppedEventsByThread").unwrap();
        assert_eq!(by_thread.get("shard0").unwrap().as_f64(), Some(0.0));
        assert_eq!(by_thread.get("shard1").unwrap().as_f64(), Some(3.0));
        assert_eq!(by_thread.get("shard3").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn trace_context_rides_in_args() {
        let text = render(&snapshot());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let resume = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("resume"))
            .unwrap();
        let args = resume.get("args").unwrap();
        assert_eq!(args.get("invocation").unwrap().as_f64(), Some(42.0));
        assert_eq!(args.get("parent").unwrap().as_str(), Some("horse"));
        // Untraced events carry neither key.
        let hit = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("pool_hit"))
            .unwrap();
        assert!(hit.get("args").is_none());
    }

    #[test]
    fn spans_and_instants_use_the_right_phase() {
        let text = render(&snapshot());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let resume = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("resume"))
            .unwrap();
        assert_eq!(resume.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(resume.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(resume.get("dur").unwrap().as_f64(), Some(0.23));
        assert_eq!(
            resume.get("args").unwrap().get("sandbox").unwrap().as_f64(),
            Some(7.0)
        );
        let hit = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("pool_hit"))
            .unwrap();
        assert_eq!(hit.get("ph").unwrap().as_str(), Some("i"));
        assert!(hit.get("dur").is_none());
        let splice = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("splice"))
            .unwrap();
        assert_eq!(splice.get("tid").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            splice.get("args").unwrap().get("splices").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn counters_and_gauges_are_embedded() {
        let text = render(&snapshot());
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("splices")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("queued_vcpus")
                .unwrap()
                .as_f64(),
            Some(12.0)
        );
    }
}
