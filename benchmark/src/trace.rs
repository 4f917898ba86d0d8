//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer (spans *inside* the program are ROADMAP item 5, a later
//! change). A span is `(name, start, end, parent, request id)`; spans of
//! one request share the id. Everything stays in memory and is written
//! once, at exit, as a Chrome trace (`chrome://tracing`, Perfetto).
//!
//! Totals per span kind are kept for every span; the span list itself is
//! capped per kind so the trace file stays loadable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Spans kept verbatim for the Chrome trace per (name, parent) kind, so
/// a long workload pass cannot crowd the replay's layers out of the
/// file. Totals cover every span.
const KEPT_PER_KIND: u64 = 4_000;
/// Room for the kinds a traced run records (preallocated: recording
/// must not grow the list inside a measured loop).
const KEPT_CAPACITY: usize = 16 * KEPT_PER_KIND as usize;

/// One recorded span. Times are ns since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span brackets, e.g. `faas.pool.take`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Name of the span that caused this one (`None` for a root).
    pub parent: Option<&'static str>,
    /// Request the span belongs to.
    pub request: u64,
}

/// A span kind: the boundary and what caused it. The same call (say
/// `faas.cluster.invoke`) is a different kind under the workload pass
/// than as a root of the probes.
pub type Kind = (&'static str, Option<&'static str>);

/// Count and total duration of every span of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
}

/// In-memory span sink.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    totals: BTreeMap<Kind, SpanTotals>,
}

impl Tracer {
    /// An empty tracer with its span list preallocated.
    pub fn new() -> Self {
        Self {
            spans: Vec::with_capacity(KEPT_CAPACITY),
            totals: BTreeMap::new(),
        }
    }

    /// Records one span.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<&'static str>,
        request: u64,
    ) {
        let t = self.totals.entry((name, parent)).or_default();
        t.count += 1;
        t.total_ns += end_ns.saturating_sub(start_ns);
        if t.count <= KEPT_PER_KIND {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
    }

    /// Totals per span kind.
    pub fn totals(&self) -> &BTreeMap<Kind, SpanTotals> {
        &self.totals
    }

    /// Self time per span kind: the kind's total minus the totals of the
    /// kinds recorded with its name as parent.
    pub fn self_totals_ns(&self) -> BTreeMap<Kind, i64> {
        let mut own: BTreeMap<Kind, i64> = self
            .totals
            .iter()
            .map(|(kind, t)| (*kind, t.total_ns as i64))
            .collect();
        for ((_, parent), child) in &self.totals {
            let Some(parent) = parent else { continue };
            for ((name, _), v) in own.iter_mut() {
                if name == parent {
                    *v -= child.total_ns as i64;
                }
            }
        }
        own
    }

    /// Renders the kept spans as a Chrome trace (`X` complete events,
    /// µs timestamps, one `tid` per nesting depth so parents and
    /// children stack).
    pub fn render_chrome(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 110 + 256);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        let _ = write!(
            out,
            "\",\"spans_recorded\":{},\"spans_kept\":{}}},\"traceEvents\":[",
            self.totals.values().map(|t| t.count).sum::<u64>(),
            self.spans.len()
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request\":{},\"parent\":\"{}\"}}}}",
                s.name,
                if s.parent.is_some() { 2 } else { 1 },
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.request,
                s.parent.unwrap_or("")
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes the Chrome trace to `path`, creating the directory.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render_chrome(workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.span("child.a", 10, 40, Some("parent"), 1);
        t.span("child.b", 40, 60, Some("parent"), 1);
        t.span("parent", 0, 100, None, 1);
        // The same boundary under another parent is its own kind.
        t.span("child.a", 200, 205, None, 2);
        let own = t.self_totals_ns();
        assert_eq!(own[&("parent", None)], 50);
        assert_eq!(own[&("child.a", Some("parent"))], 30);
        assert_eq!(own[&("child.a", None)], 5);
        assert_eq!(t.totals()[&("parent", None)].count, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_every_kept_span() {
        let mut t = Tracer::new();
        t.span("faas.pool.take", 1_000, 1_050, Some("replay"), 7);
        t.span("replay", 900, 2_000, None, 7);
        let text = t.render_chrome("ull_seq");
        let parsed = horse_telemetry::json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("faas.pool.take")
        );
    }
}
