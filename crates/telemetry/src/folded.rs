//! Folded-stack text export (`flamegraph.pl` / speedscope input).
//!
//! Each line is `frame;frame;frame <total_ns>`: span durations summed by
//! the kind's static stack (see [`EventKind::stack`]). Instant events
//! carry no duration and are skipped. Lines are sorted, matching the
//! collapsed output of the usual `stackcollapse-*` tools.
//!
//! [`EventKind::stack`]: crate::EventKind::stack

use crate::recorder::TraceSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a snapshot as folded-stack lines.
pub fn render(snapshot: &TraceSnapshot) -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for event in &snapshot.events {
        if event.is_instant() {
            continue;
        }
        *totals.entry(event.kind.stack().join(";")).or_insert(0) += event.dur_ns;
    }
    let mut out = String::new();
    for (stack, total) in totals {
        let _ = writeln!(out, "{stack} {total}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    #[test]
    fn aggregates_by_stack_and_skips_instants() {
        let snapshot = TraceSnapshot {
            events: vec![
                Event {
                    kind: EventKind::ResumeSortedMerge,
                    dur_ns: 50,
                    ..Event::default()
                },
                Event {
                    kind: EventKind::ResumeSortedMerge,
                    start_ns: 100,
                    dur_ns: 30,
                    ..Event::default()
                },
                Event {
                    kind: EventKind::SpliceWork,
                    track: 1,
                    start_ns: 5,
                    dur_ns: 20,
                    arg: 2,
                    ..Event::default()
                },
                Event {
                    kind: EventKind::PoolHit,
                    ..Event::default()
                },
            ],
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![],
        };
        let text = render(&snapshot);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec!["resume;sorted_merge 80", "resume;sorted_merge;splice 20",]
        );
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snapshot = TraceSnapshot {
            events: vec![],
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![],
        };
        assert!(render(&snapshot).is_empty());
    }
}
