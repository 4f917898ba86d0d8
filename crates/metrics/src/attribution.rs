//! Tail-latency attribution: which pipeline step dominates which
//! percentile, per invocation class.
//!
//! The paper's central measurement is a *breakdown* — steps ④ (sorted
//! merge) and ⑤ (load update) are 87.5–93.1 % of the vanilla resume
//! (§3.2) — so percentiles alone are not enough: an operator chasing a
//! p99.9 needs to know *which step* the slow invocations spent their
//! time in, and needs a concrete trace to look at. This module consumes
//! an invocation-stamped [`TraceSnapshot`] (PR 3's causal tracing) and
//! builds:
//!
//! * per **invocation class** (cold / restore / warm / horse) an
//!   end-to-end [`Histogram`] and a resume-latency [`Histogram`];
//! * per resume-latency *bucket* the summed per-step durations of the
//!   invocations that landed in it, plus up to
//!   [`EXEMPLARS_PER_BUCKET`] exemplar trace ids — so a percentile
//!   query joins back to real invocations;
//! * a [`TailReport`] answering "what fraction of the p50/p99/p99.9
//!   resume latency did each step contribute", with the step-④+⑤
//!   dominant share the paper's claim is about.
//!
//! Attribution math: for percentile *p* of a class's resume histogram,
//! find the bucket holding the *p*-th rank
//! ([`Histogram::percentile_bucket`]), then report each step's share of
//! the summed step time of exactly the invocations in that bucket.
//! Because every invocation in a bucket has (up to the ≤ 0.78 %
//! quantization) the same total, this is the conditional expectation
//! "given an invocation at this percentile, where did its time go" —
//! not the global mean, which the tail can differ from arbitrarily.

use crate::histogram::Histogram;
use horse_telemetry::json::JsonValue;
use horse_telemetry::{EventKind, TraceSnapshot};
use std::collections::BTreeMap;

/// Exemplar trace ids retained per resume-latency bucket.
pub const EXEMPLARS_PER_BUCKET: usize = 4;

/// The six resume steps of §3.1, pipeline order. Index in this array is
/// the step index used throughout this module.
pub const RESUME_STEPS: [EventKind; 6] = [
    EventKind::ResumeParse,
    EventKind::ResumeLock,
    EventKind::ResumeSanity,
    EventKind::ResumeSortedMerge,
    EventKind::ResumeLoadUpdate,
    EventKind::ResumeFinalize,
];

/// Indices of the paper's dominant steps ④ (sorted merge) and ⑤ (load
/// update) within [`RESUME_STEPS`].
pub const DOMINANT_STEPS: [usize; 2] = [3, 4];

fn step_index(kind: EventKind) -> Option<usize> {
    RESUME_STEPS.iter().position(|s| *s == kind)
}

/// Per-resume-latency-bucket side data: the summed step durations and
/// exemplar trace ids of the invocations whose resume total landed in
/// the bucket.
#[derive(Debug, Clone, Default)]
struct BucketStats {
    invocations: u64,
    resume_ns: u64,
    step_ns: [u64; 6],
    exemplars: Vec<u64>,
}

/// One invocation class's histograms plus the per-bucket attribution
/// side table.
#[derive(Debug, Clone, Default)]
pub struct ClassAttribution {
    /// End-to-end latency (init + exec) per invocation.
    pub e2e: Histogram,
    /// Resume-pipeline latency per invocation (absent for classes that
    /// never resume, e.g. cold starts).
    pub resume: Histogram,
    buckets: BTreeMap<usize, BucketStats>,
}

impl ClassAttribution {
    fn observe(&mut self, inv: &InvocationSpans) {
        self.e2e.record(inv.init_ns + inv.exec_ns);
        if let Some(total) = inv.resume_ns {
            self.resume.record(total);
            let bucket = self
                .buckets
                .entry(Histogram::bucket_index(total))
                .or_default();
            bucket.invocations += 1;
            bucket.resume_ns += total;
            for (i, ns) in inv.step_ns.iter().enumerate() {
                bucket.step_ns[i] += ns;
            }
            // A hedged or retried submission observes once per attempt
            // under one trace id; the bucket's exemplar list is a join
            // key, so the same id must not appear twice.
            if bucket.exemplars.len() < EXEMPLARS_PER_BUCKET && !bucket.exemplars.contains(&inv.id)
            {
                bucket.exemplars.push(inv.id);
            }
        }
    }

    /// The attribution at percentile `pct` of the class's resume
    /// latency, or `None` when the class never resumed.
    pub fn at_percentile(&self, pct: f64) -> Option<PercentileAttribution> {
        let bucket_idx = self.resume.percentile_bucket(pct)?;
        let stats = self.buckets.get(&bucket_idx)?;
        let denom = stats.resume_ns.max(1) as f64;
        let mut shares = [0.0f64; 6];
        for (i, ns) in stats.step_ns.iter().enumerate() {
            shares[i] = *ns as f64 / denom;
        }
        Some(PercentileAttribution {
            pct,
            e2e_ns: self.e2e.percentile(pct),
            resume_ns: self.resume.percentile(pct),
            shares,
            exemplars: stats.exemplars.clone(),
        })
    }
}

/// Spans of one invocation, folded out of the snapshot.
#[derive(Debug, Default)]
struct InvocationSpans {
    id: u64,
    class: Option<EventKind>,
    init_ns: u64,
    exec_ns: u64,
    resume_ns: Option<u64>,
    step_ns: [u64; 6],
}

/// Invocation-classed tail-latency attribution built from a drained
/// trace snapshot.
#[derive(Debug, Clone, Default)]
pub struct TailAttribution {
    /// Per-class attribution, keyed by the invoke-phase label
    /// ("cold" / "restore" / "warm" / "horse").
    pub classes: BTreeMap<&'static str, ClassAttribution>,
    /// Spans stamped with an invocation id that never emitted an
    /// invoke-phase span — zero in a correctly threaded pipeline.
    pub orphan_spans: u64,
    /// Events the ring buffers lost in the snapshot's window (since the
    /// previous drain): when non-zero, every percentile below is computed
    /// from a lossy stream and must be flagged as such.
    pub dropped_events: u64,
}

impl TailAttribution {
    /// Folds an invocation-stamped snapshot into per-class attribution.
    ///
    /// Untraced events (invocation 0 — provisioning and other
    /// out-of-invocation work) are ignored. Traced events are grouped by
    /// invocation and then split into **attempts** — one per invoke-phase
    /// span — because the reliability plane reuses one trace id across a
    /// submission's retries and hedges. Each non-invoke event is charged
    /// to the latest attempt starting at or before it, so a hedged
    /// submission contributes two honest observations instead of one
    /// with the two attempts' init times summed. A group without any
    /// invoke-phase span counts its spans as orphans.
    pub fn from_snapshot(snapshot: &TraceSnapshot) -> Self {
        let mut by_invocation: BTreeMap<u64, Vec<&horse_telemetry::Event>> = BTreeMap::new();
        for event in &snapshot.events {
            if event.invocation == 0 {
                continue;
            }
            by_invocation
                .entry(event.invocation)
                .or_default()
                .push(event);
        }
        let mut out = TailAttribution {
            dropped_events: snapshot.dropped_in_window,
            ..TailAttribution::default()
        };
        for (&id, events) in &by_invocation {
            let mut attempts: Vec<(u64, InvocationSpans)> = events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::InvokeCold
                            | EventKind::InvokeRestore
                            | EventKind::InvokeWarm
                            | EventKind::InvokeHorse
                    )
                })
                .map(|e| {
                    let inv = InvocationSpans {
                        id,
                        class: Some(e.kind),
                        init_ns: e.dur_ns,
                        ..InvocationSpans::default()
                    };
                    (e.start_ns, inv)
                })
                .collect();
            if attempts.is_empty() {
                out.orphan_spans += events.len() as u64;
                continue;
            }
            attempts.sort_by_key(|&(start, _)| start);
            for event in events {
                if matches!(
                    event.kind,
                    EventKind::InvokeCold
                        | EventKind::InvokeRestore
                        | EventKind::InvokeWarm
                        | EventKind::InvokeHorse
                ) {
                    continue;
                }
                // Latest attempt starting at or before the event; work
                // preceding the first attempt (a pool-hit instant)
                // belongs to it.
                let slot = attempts
                    .iter()
                    .rposition(|&(start, _)| start <= event.start_ns)
                    .unwrap_or(0);
                let inv = &mut attempts[slot].1;
                match event.kind {
                    EventKind::Exec => inv.exec_ns += event.dur_ns,
                    EventKind::Resume => {
                        *inv.resume_ns.get_or_insert(0) += event.dur_ns;
                    }
                    kind => {
                        // Only the resume pipeline's own step spans count:
                        // pause-side steps share no kinds with them.
                        if event.parent == Some(EventKind::Resume) {
                            if let Some(i) = step_index(kind) {
                                inv.step_ns[i] += event.dur_ns;
                            }
                        }
                    }
                }
            }
            for (_, inv) in &attempts {
                let kind = inv.class.expect("attempts are built from invoke spans");
                out.classes.entry(kind.label()).or_default().observe(inv);
            }
        }
        out
    }

    /// Whether percentiles from this attribution come from a lossy
    /// event stream.
    pub fn is_lossy(&self) -> bool {
        self.dropped_events > 0
    }

    /// Builds the tail report at the given percentiles (conventionally
    /// `[50.0, 99.0, 99.9]`).
    pub fn report(&self, percentiles: &[f64]) -> TailReport {
        let mut classes = Vec::new();
        for (class, attr) in &self.classes {
            classes.push(ClassReport {
                class,
                invocations: attr.e2e.len(),
                percentiles: percentiles
                    .iter()
                    .filter_map(|&p| attr.at_percentile(p))
                    .collect(),
            });
        }
        TailReport {
            classes,
            lossy: self.is_lossy(),
            dropped_events: self.dropped_events,
            orphan_spans: self.orphan_spans,
        }
    }
}

/// The per-step attribution at one percentile of one class.
#[derive(Debug, Clone)]
pub struct PercentileAttribution {
    /// The percentile, in `[0, 100]`.
    pub pct: f64,
    /// End-to-end (init + exec) latency at this percentile.
    pub e2e_ns: u64,
    /// Resume-pipeline latency at this percentile.
    pub resume_ns: u64,
    /// Each step's share of the resume time of the invocations at this
    /// percentile, [`RESUME_STEPS`] order; sums to ≈ 1.
    pub shares: [f64; 6],
    /// Trace ids of concrete invocations in this percentile's bucket.
    pub exemplars: Vec<u64>,
}

impl PercentileAttribution {
    /// Combined share of the paper's dominant steps ④+⑤.
    pub fn dominant_share(&self) -> f64 {
        DOMINANT_STEPS.iter().map(|&i| self.shares[i]).sum()
    }
}

/// Machine- and human-readable answer to "what fraction of the
/// p50/p99/p99.9 latency does each pipeline step contribute".
#[derive(Debug, Clone)]
pub struct TailReport {
    /// One entry per invocation class present in the trace.
    pub classes: Vec<ClassReport>,
    /// Whether any percentile was computed from a lossy event stream.
    pub lossy: bool,
    /// Ring-buffer drops behind the `lossy` flag.
    pub dropped_events: u64,
    /// Traced spans that could not be attributed to an invocation.
    pub orphan_spans: u64,
}

/// One class's rows of a [`TailReport`].
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Invoke-phase label ("cold" / "restore" / "warm" / "horse").
    pub class: &'static str,
    /// Invocations observed for the class.
    pub invocations: u64,
    /// Attribution per requested percentile (empty for classes that
    /// never resume).
    pub percentiles: Vec<PercentileAttribution>,
}

impl TailReport {
    /// Renders a fixed-width table. Lossy reports are flagged in the
    /// title — a percentile over a stream with drops is a lower bound,
    /// not a measurement.
    pub fn render(&self) -> String {
        let title = if self.lossy {
            format!(
                "tail attribution (LOSSY: {} events dropped — percentiles are lower bounds)",
                self.dropped_events
            )
        } else {
            "tail attribution".to_string()
        };
        let mut headers = vec!["class", "n", "pct", "e2e", "resume"];
        headers.extend(RESUME_STEPS.iter().map(|s| s.label()));
        headers.push("steps45");
        let mut table = crate::report::Table::new(title, &headers);
        for class in &self.classes {
            for p in &class.percentiles {
                let mut row = vec![
                    class.class.to_string(),
                    class.invocations.to_string(),
                    format!("p{}", p.pct),
                    crate::report::fmt_ns(p.e2e_ns),
                    crate::report::fmt_ns(p.resume_ns),
                ];
                row.extend(p.shares.iter().map(|s| crate::report::fmt_pct(*s)));
                row.push(crate::report::fmt_pct(p.dominant_share()));
                table.row_owned(row);
            }
        }
        table.render()
    }

    /// Renders the report as a JSON object (the `attribution` section of
    /// `BENCH_e2e.json`; schema documented in DESIGN.md §9).
    pub fn to_json(&self) -> JsonValue {
        let mut root = BTreeMap::new();
        root.insert("lossy".into(), JsonValue::Bool(self.lossy));
        root.insert(
            "dropped_events".into(),
            JsonValue::Number(self.dropped_events as f64),
        );
        root.insert(
            "orphan_spans".into(),
            JsonValue::Number(self.orphan_spans as f64),
        );
        let mut classes = BTreeMap::new();
        for class in &self.classes {
            let mut c = BTreeMap::new();
            c.insert(
                "invocations".into(),
                JsonValue::Number(class.invocations as f64),
            );
            let mut pcts = BTreeMap::new();
            for p in &class.percentiles {
                let mut obj = BTreeMap::new();
                obj.insert("e2e_ns".into(), JsonValue::Number(p.e2e_ns as f64));
                obj.insert("resume_ns".into(), JsonValue::Number(p.resume_ns as f64));
                let mut shares = BTreeMap::new();
                for (i, step) in RESUME_STEPS.iter().enumerate() {
                    shares.insert(step.label().into(), JsonValue::Number(p.shares[i]));
                }
                obj.insert("step_shares".into(), JsonValue::Object(shares));
                obj.insert(
                    "dominant_share".into(),
                    JsonValue::Number(p.dominant_share()),
                );
                obj.insert(
                    "exemplars".into(),
                    JsonValue::Array(
                        p.exemplars
                            .iter()
                            .map(|&id| JsonValue::Number(id as f64))
                            .collect(),
                    ),
                );
                pcts.insert(format!("p{}", p.pct), JsonValue::Object(obj));
            }
            c.insert("percentiles".into(), JsonValue::Object(pcts));
            classes.insert(class.class.to_string(), JsonValue::Object(c));
        }
        root.insert("classes".into(), JsonValue::Object(classes));
        JsonValue::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_telemetry::Event;

    fn span(kind: EventKind, inv: u64, parent: Option<EventKind>, dur: u64) -> Event {
        Event {
            kind,
            dur_ns: dur,
            invocation: inv,
            parent,
            ..Event::default()
        }
    }

    /// A synthetic warm invocation with a chosen resume breakdown.
    fn invocation(inv: u64, steps: [u64; 6], exec: u64) -> Vec<Event> {
        let resume: u64 = steps.iter().sum();
        let mut events = vec![
            span(EventKind::InvokeWarm, inv, None, 490 + resume),
            span(EventKind::Exec, inv, Some(EventKind::InvokeWarm), exec),
            span(EventKind::Resume, inv, Some(EventKind::InvokeWarm), resume),
        ];
        for (i, step) in RESUME_STEPS.iter().enumerate() {
            events.push(span(*step, inv, Some(EventKind::Resume), steps[i]));
        }
        events
    }

    fn snapshot(events: Vec<Event>, dropped: u64) -> TraceSnapshot {
        TraceSnapshot {
            events,
            counters: vec![],
            gauges: vec![],
            dropped,
            dropped_in_window: dropped,
            dropped_by_shard: vec![dropped],
        }
    }

    #[test]
    fn attributes_steps_at_each_percentile() {
        let mut events = Vec::new();
        // 99 fast invocations dominated by the merge, one slow one
        // dominated by the load update.
        for inv in 1..=99 {
            events.extend(invocation(inv, [10, 10, 10, 600, 100, 10], 500));
        }
        events.extend(invocation(100, [10, 10, 10, 600, 9_000, 10], 500));
        let attr = TailAttribution::from_snapshot(&snapshot(events, 0));
        assert_eq!(attr.orphan_spans, 0);
        assert!(!attr.is_lossy());

        let warm = &attr.classes["warm"];
        assert_eq!(warm.e2e.len(), 100);
        let p50 = warm.at_percentile(50.0).unwrap();
        assert!(
            p50.shares[3] > 0.7,
            "p50 is merge-dominated: {:?}",
            p50.shares
        );
        let p999 = warm.at_percentile(99.9).unwrap();
        assert!(
            p999.shares[4] > 0.9,
            "p99.9 is load-dominated: {:?}",
            p999.shares
        );
        assert!(!p999.exemplars.is_empty());
        assert!(
            p999.exemplars.contains(&100),
            "exemplar links to the slow trace"
        );
        assert!(p50.dominant_share() > 0.9);
    }

    #[test]
    fn orphan_spans_are_counted_not_classified() {
        // A traced span whose invocation never emitted an invoke span.
        let events = vec![span(EventKind::Resume, 7, None, 100)];
        let attr = TailAttribution::from_snapshot(&snapshot(events, 0));
        assert_eq!(attr.orphan_spans, 1);
        assert!(attr.classes.is_empty());
    }

    #[test]
    fn report_flags_lossy_streams() {
        let events = invocation(1, [10, 10, 10, 600, 100, 10], 500);
        let attr = TailAttribution::from_snapshot(&snapshot(events, 3));
        assert!(attr.is_lossy());
        let report = attr.report(&[50.0, 99.0]);
        assert!(report.lossy);
        assert_eq!(report.dropped_events, 3);
        assert!(report.render().contains("LOSSY"));
        let json = report.to_json();
        assert_eq!(
            json.get("lossy").and_then(|v| match v {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true)
        );
    }

    #[test]
    fn report_json_round_trips_and_carries_shares() {
        let mut events = Vec::new();
        for inv in 1..=10 {
            events.extend(invocation(inv, [10, 10, 10, 600, 100, 10], 500));
        }
        let attr = TailAttribution::from_snapshot(&snapshot(events, 0));
        let report = attr.report(&[50.0, 99.0, 99.9]);
        let text = report.to_json().render();
        let doc = horse_telemetry::json::parse(&text).expect("valid JSON");
        let p99 = doc
            .get("classes")
            .and_then(|c| c.get("warm"))
            .and_then(|c| c.get("percentiles"))
            .and_then(|p| p.get("p99"))
            .expect("p99 entry");
        let dominant = p99.get("dominant_share").and_then(|v| v.as_f64()).unwrap();
        assert!(dominant > 0.9, "dominant share {dominant}");
        let sum: f64 = RESUME_STEPS
            .iter()
            .map(|s| {
                p99.get("step_shares")
                    .and_then(|o| o.get(s.label()))
                    .and_then(|v| v.as_f64())
                    .unwrap()
            })
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1: {sum}");
    }

    fn span_at(
        kind: EventKind,
        inv: u64,
        parent: Option<EventKind>,
        start: u64,
        dur: u64,
    ) -> Event {
        Event {
            kind,
            start_ns: start,
            dur_ns: dur,
            invocation: inv,
            parent,
            ..Event::default()
        }
    }

    /// Regression (hedged-submission exemplar duplication): one trace id
    /// with two invoke attempts whose resume totals land in the same
    /// histogram bucket must appear in that bucket's exemplars exactly
    /// once, and each attempt's init/exec must be charged to itself —
    /// not summed across attempts.
    #[test]
    fn hedged_attempts_split_and_exemplars_dedupe() {
        let inv = 42u64;
        let events = vec![
            // Primary attempt at t=0: init 700 (resume 700), exec 500.
            span_at(EventKind::InvokeHorse, inv, None, 0, 700),
            span_at(EventKind::Resume, inv, Some(EventKind::InvokeHorse), 0, 700),
            span_at(
                EventKind::ResumeSortedMerge,
                inv,
                Some(EventKind::Resume),
                0,
                700,
            ),
            span_at(EventKind::Exec, inv, Some(EventKind::InvokeHorse), 700, 500),
            // Hedge attempt at t=2000: same shape, same bucket.
            span_at(EventKind::InvokeHorse, inv, None, 2_000, 700),
            span_at(
                EventKind::Resume,
                inv,
                Some(EventKind::InvokeHorse),
                2_000,
                700,
            ),
            span_at(
                EventKind::ResumeSortedMerge,
                inv,
                Some(EventKind::Resume),
                2_000,
                700,
            ),
            span_at(
                EventKind::Exec,
                inv,
                Some(EventKind::InvokeHorse),
                2_700,
                500,
            ),
        ];
        let attr = TailAttribution::from_snapshot(&snapshot(events, 0));
        let horse = &attr.classes["horse"];
        // Two attempts → two observations, each with its own init+exec
        // (1200), never the 1400+1000 a cross-attempt fold would give.
        assert_eq!(horse.e2e.len(), 2);
        assert_eq!(horse.e2e.percentile(99.0), 1_200);
        // Same bucket, one exemplar entry for the shared trace id.
        let p99 = horse.at_percentile(99.0).unwrap();
        assert_eq!(p99.exemplars, vec![inv]);
    }

    #[test]
    fn untraced_events_are_ignored() {
        let mut events = invocation(1, [10, 10, 10, 600, 100, 10], 500);
        events.push(span(EventKind::Pause, 0, None, 900)); // provisioning
        let attr = TailAttribution::from_snapshot(&snapshot(events, 0));
        assert_eq!(attr.orphan_spans, 0);
        assert_eq!(attr.classes.len(), 1);
    }
}
