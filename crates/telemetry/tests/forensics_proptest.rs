//! Property tests for span-tree reconstruction (`forensics::stitch`).
//!
//! For arbitrary well-formed submissions — any number of retry
//! attempts, optional hedge, arbitrary step durations — the stitcher
//! must produce orphan-free, single-root, parent-before-child trees,
//! and the stitched result must be a pure function of the event
//! *multiset*: any drain order (rings interleave per thread) and any
//! repeat run yields a bit-identical fingerprint. Malformed streams
//! (events whose parent kind never appears) must be *counted*, never
//! panicked on.

use horse_telemetry::forensics::{outcome, ForensicIndex, RootStamp};
use horse_telemetry::{Event, EventKind, TraceSnapshot};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SubmissionShape {
    attempts: Vec<u64>, // per-attempt resume duration
    hedge: Option<u64>,
    backoff_ns: u64,
}

fn shape() -> impl Strategy<Value = SubmissionShape> {
    (
        proptest::collection::vec(1u64..5_000, 1..4),
        any::<bool>(),
        1u64..5_000,
        1u64..2_000,
    )
        .prop_map(
            |(attempts, hedged, hedge_resume, backoff_ns)| SubmissionShape {
                attempts,
                hedge: hedged.then_some(hedge_resume),
                backoff_ns,
            },
        )
}

/// Emits the events one submission produces under the cluster plane's
/// emission discipline: attempts bracketed by RouteAttempt spans with
/// backoffs between, an optional trailing hedge, all under one Submit
/// root.
fn emit(invocation: u64, shape: &SubmissionShape) -> Vec<Event> {
    let mk = |kind, start, dur, arg, parent| Event {
        kind,
        track: 0,
        start_ns: start,
        dur_ns: dur,
        arg,
        invocation,
        parent,
    };
    let mut events = Vec::new();
    let t0 = invocation * 1_000_000; // submissions never overlap
    let mut now = t0;
    events.push(mk(
        EventKind::AdmissionGate,
        now,
        0,
        0,
        Some(EventKind::Submit),
    ));
    for (attempt, &resume) in shape.attempts.iter().enumerate() {
        let a0 = now;
        events.push(mk(
            EventKind::InvokeHorse,
            a0,
            resume,
            resume,
            Some(EventKind::RouteAttempt),
        ));
        events.push(mk(
            EventKind::Resume,
            a0,
            resume,
            0,
            Some(EventKind::InvokeHorse),
        ));
        now = a0 + resume;
        events.push(mk(
            EventKind::RouteAttempt,
            a0,
            now - a0,
            attempt as u64,
            Some(EventKind::Submit),
        ));
        if attempt + 1 < shape.attempts.len() {
            events.push(mk(
                EventKind::RetryBackoff,
                now,
                shape.backoff_ns,
                attempt as u64 + 1,
                Some(EventKind::Submit),
            ));
            now += shape.backoff_ns;
        }
    }
    if let Some(hedge_resume) = shape.hedge {
        let h0 = now;
        events.push(mk(
            EventKind::InvokeHorse,
            h0,
            hedge_resume,
            hedge_resume,
            Some(EventKind::HedgeAttempt),
        ));
        events.push(mk(
            EventKind::Resume,
            h0,
            hedge_resume,
            0,
            Some(EventKind::InvokeHorse),
        ));
        now = h0 + hedge_resume;
        events.push(mk(
            EventKind::HedgeAttempt,
            h0,
            now - h0,
            9,
            Some(EventKind::Submit),
        ));
    }
    let stamp = RootStamp {
        submission: invocation,
        class: 0,
        outcome: outcome::COMPLETED,
        hedged: shape.hedge.is_some(),
        met_deadline: true,
    };
    events.push(mk(EventKind::Submit, t0, now - t0, stamp.encode(), None));
    events
}

fn snapshot(events: Vec<Event>) -> TraceSnapshot {
    TraceSnapshot {
        events,
        counters: vec![],
        gauges: vec![],
        dropped: 0,
        dropped_in_window: 0,
        dropped_by_shard: vec![0],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stitched_trees_are_sound_and_complete(
        shapes in proptest::collection::vec(shape(), 1..12),
        rotate in 0usize..64,
    ) {
        let mut events = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            events.extend(emit(i as u64 + 1, s));
        }
        // Any drain order must stitch identically: rotate the stream.
        let n = events.len();
        events.rotate_left(rotate % n);

        let index = ForensicIndex::stitch(&snapshot(events.clone()));
        prop_assert_eq!(index.orphan_events, 0);
        prop_assert_eq!(index.extra_roots, 0);
        prop_assert!(index.is_complete());
        prop_assert_eq!(index.trees.len(), shapes.len());
        for (tree, s) in index.trees.iter().zip(&shapes) {
            prop_assert!(tree.check().is_empty(), "{:?}", tree.check());
            let stamp = tree.stamp().expect("submit root");
            prop_assert_eq!(stamp.hedged, s.hedge.is_some());
            // Parent-before-child: every child's canonical position is
            // at or after its parent's start.
            for node in &tree.nodes {
                if let Some(p) = node.parent {
                    prop_assert!(tree.nodes[p].event.start_ns <= node.event.start_ns);
                }
            }
        }

        // Bit-identical across a second stitch of a differently-ordered
        // but equal multiset.
        let mut reversed = events;
        reversed.reverse();
        let again = ForensicIndex::stitch(&snapshot(reversed));
        prop_assert_eq!(index.fingerprint(), again.fingerprint());
    }

    #[test]
    fn malformed_streams_never_panic(
        kinds in proptest::collection::vec(0usize..EventKind::ALL.len(), 0..40),
        starts in proptest::collection::vec(0u64..10_000, 0..40),
    ) {
        let events: Vec<Event> = kinds
            .iter()
            .zip(&starts)
            .enumerate()
            .map(|(i, (&k, &start))| Event {
                kind: EventKind::ALL[k],
                track: 0,
                start_ns: start,
                dur_ns: start / 2,
                arg: i as u64,
                invocation: 1 + (i as u64 % 3),
                parent: Some(EventKind::ALL[(k + 7) % EventKind::ALL.len()]),
            })
            .collect();
        let index = ForensicIndex::stitch(&snapshot(events));
        // Every event is parented to a kind that may not exist: the
        // stitcher must account for all of them without panicking.
        let accounted: u64 = index.orphan_events
            + index
                .trees
                .iter()
                .map(|t| t.len() as u64)
                .sum::<u64>();
        prop_assert!(accounted <= kinds.len().min(starts.len()) as u64 * 2);
    }
}
