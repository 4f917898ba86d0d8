//! Prometheus text-format exposition for the profiling plane.
//!
//! Renders the closed-vocabulary counters/gauges of a
//! [`TraceSnapshot`], the allocation and contention profiles from
//! `horse_telemetry::{alloc, contention}`, and [`QuantileSketch`]
//! summaries in the Prometheus text exposition format (version 0.0.4):
//! one `# HELP`/`# TYPE` header per family, `_total` suffixes on
//! monotonic counters, and label values escaped per the spec (`\\`,
//! `\"`, `\n`). Every family is prefixed `horse_` so scrapes from
//! multiple experiments coexist in one registry.
//!
//! The exporter is deliberately pull-agnostic: it renders to a `String`
//! and leaves serving/writing to the caller (`profile_report` writes it
//! next to `BENCH_profile.json`), which keeps the metrics crate free of
//! any network dependency.
//!
//! Telemetry loss is first-class: `horse_dropped_events_total` exposes
//! the cumulative ring-overwrite loss per writer shard and
//! `horse_telemetry_lossy` is a 0/1 gauge mirroring
//! [`TraceSnapshot::is_lossy`], so dashboards can flag windows whose
//! percentiles are lower bounds.

use std::fmt::Write as _;

use horse_telemetry::alloc::PhaseAllocStats;
use horse_telemetry::contention::{self, SiteStats, WAIT_BUCKETS};
use horse_telemetry::TraceSnapshot;

use crate::QuantileSketch;

/// Escapes a label *value* per the Prometheus text format: backslash,
/// double quote and newline must be escaped; everything else passes
/// through verbatim.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and newline only (quotes are legal
/// in help text).
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Incremental builder for a Prometheus text-format page.
///
/// # Example
///
/// ```
/// use horse_metrics::prometheus::TextExporter;
///
/// let mut page = TextExporter::new();
/// page.counter("horse_pool_hits_total", "Warm-pool hits.", 7);
/// let text = page.finish();
/// assert!(text.contains("# TYPE horse_pool_hits_total counter"));
/// assert!(text.contains("horse_pool_hits_total 7"));
/// ```
#[derive(Debug, Default)]
pub struct TextExporter {
    out: String,
}

impl TextExporter {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits an unlabeled counter family with a single sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Emits an unlabeled gauge family with a single sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Emits a family of `kind` with one sample per `(label_value,
    /// sample)` pair, all under the single label `label_name`.
    pub fn labeled(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        label_name: &str,
        samples: &[(&str, u64)],
    ) {
        self.header(name, help, kind);
        for (label, value) in samples {
            let _ = writeln!(
                self.out,
                "{name}{{{label_name}=\"{}\"}} {value}",
                escape_label_value(label)
            );
        }
    }

    /// Emits a family of `kind` with one sample per `(label_pairs,
    /// value)` entry, where each `label_pairs` string is a full
    /// pre-rendered label set (e.g. `function="f1",host="0"`) whose
    /// values the caller already escaped with [`escape_label_value`].
    /// This is the multi-label sibling of [`Self::labeled`], used by
    /// per-(function, host) families like `horse_breaker_state`.
    pub fn labeled_pairs(&mut self, name: &str, help: &str, kind: &str, samples: &[(String, u64)]) {
        self.header(name, help, kind);
        for (labels, value) in samples {
            let _ = writeln!(self.out, "{name}{{{labels}}} {value}");
        }
    }

    /// Emits a Prometheus `histogram` family from explicit cumulative
    /// bucket counts: `buckets` holds `(upper_bound, cumulative_count)`
    /// in ascending bound order; the `+Inf` bucket, `_sum` and `_count`
    /// are appended from `total_count`/`sum`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &str,
        buckets: &[(u64, u64)],
        total_count: u64,
        sum: u64,
    ) {
        self.header(name, help, "histogram");
        let sep = if labels.is_empty() { "" } else { "," };
        for (bound, cumulative) in buckets {
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {total_count}"
        );
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name}_sum {sum}");
            let _ = writeln!(self.out, "{name}_count {total_count}");
        } else {
            let _ = writeln!(self.out, "{name}_sum{{{labels}}} {sum}");
            let _ = writeln!(self.out, "{name}_count{{{labels}}} {total_count}");
        }
    }

    /// Emits a Prometheus `summary` family from a [`QuantileSketch`]:
    /// one `{quantile="..."}` sample per requested quantile (fractions
    /// in `[0, 1]`), plus `_sum` and `_count`.
    pub fn summary(&mut self, name: &str, help: &str, sketch: &QuantileSketch, quantiles: &[f64]) {
        self.header(name, help, "summary");
        for &q in quantiles {
            let value = sketch.percentile(q * 100.0);
            let _ = writeln!(self.out, "{name}{{quantile=\"{q}\"}} {value}");
        }
        let sum = (sketch.mean() * sketch.len() as f64).round() as u128;
        let _ = writeln!(self.out, "{name}_sum {sum}");
        let _ = writeln!(self.out, "{name}_count {}", sketch.len());
    }

    /// Appends every family derived from a [`TraceSnapshot`]: the
    /// counter vocabulary (as `_total` counters), the gauge vocabulary,
    /// per-shard `dropped_events`, and the LOSSY flag.
    pub fn snapshot(&mut self, snap: &TraceSnapshot) {
        for (name, value) in &snap.counters {
            self.counter(
                &format!("horse_{name}_total"),
                "Closed-vocabulary pipeline counter.",
                *value,
            );
        }
        for (name, value) in &snap.gauges {
            self.gauge(
                &format!("horse_{name}"),
                "Closed-vocabulary pipeline gauge.",
                *value,
            );
        }
        let shard_labels: Vec<String> = (0..snap.dropped_by_shard.len())
            .map(|i| i.to_string())
            .collect();
        let samples: Vec<(&str, u64)> = shard_labels
            .iter()
            .map(String::as_str)
            .zip(snap.dropped_by_shard.iter().copied())
            .collect();
        self.labeled(
            "horse_dropped_events_total",
            "Telemetry events lost to ring overwrite, per writer shard.",
            "counter",
            "shard",
            &samples,
        );
        self.gauge(
            "horse_telemetry_lossy",
            "1 when any writer shard lost events since the previous drain; snapshot percentiles are lower bounds.",
            u64::from(snap.is_lossy()),
        );
    }

    /// Appends the allocation profile: allocs/deallocs/bytes per
    /// pipeline phase.
    pub fn alloc_profile(&mut self, stats: &[PhaseAllocStats]) {
        let phase = |s: &PhaseAllocStats| s.phase.name();
        let rows = |f: fn(&PhaseAllocStats) -> u64,
                    stats: &[PhaseAllocStats]|
         -> Vec<(&'static str, u64)> {
            stats.iter().map(|s| (phase(s), f(s))).collect()
        };
        self.labeled(
            "horse_allocs_total",
            "Heap allocations observed by the counting allocator, per pipeline phase.",
            "counter",
            "phase",
            &rows(|s| s.allocs, stats),
        );
        self.labeled(
            "horse_deallocs_total",
            "Heap deallocations observed by the counting allocator, per pipeline phase.",
            "counter",
            "phase",
            &rows(|s| s.deallocs, stats),
        );
        self.labeled(
            "horse_alloc_bytes_total",
            "Bytes allocated, per pipeline phase.",
            "counter",
            "phase",
            &rows(|s| s.bytes_allocated, stats),
        );
        self.labeled(
            "horse_freed_bytes_total",
            "Bytes freed, per pipeline phase.",
            "counter",
            "phase",
            &rows(|s| s.bytes_freed, stats),
        );
    }

    /// Appends the contention profile: acquisitions, CAS retries and a
    /// wait-time histogram per instrumented site.
    pub fn contention_profile(&mut self, stats: &[SiteStats]) {
        let acqs: Vec<(&str, u64)> = stats
            .iter()
            .map(|s| (s.site.name(), s.acquisitions))
            .collect();
        self.labeled(
            "horse_lock_acquisitions_total",
            "Timed lock acquisitions, per contention site.",
            "counter",
            "site",
            &acqs,
        );
        let retries: Vec<(&str, u64)> = stats
            .iter()
            .map(|s| (s.site.name(), s.cas_retries))
            .collect();
        self.labeled(
            "horse_cas_retries_total",
            "Failed compare-and-swap attempts on lock-free structures, per site.",
            "counter",
            "site",
            &retries,
        );
        for s in stats {
            let mut cumulative = 0u64;
            let buckets: Vec<(u64, u64)> = (0..WAIT_BUCKETS)
                .map(|i| {
                    cumulative += s.wait_hist[i];
                    (contention::wait_bucket_upper_ns(i), cumulative)
                })
                .collect();
            self.histogram(
                "horse_lock_wait_ns",
                "Wall-clock lock wait, nanoseconds, per contention site.",
                &format!("site=\"{}\"", escape_label_value(s.site.name())),
                &buckets,
                s.acquisitions,
                s.wait_ns_total,
            );
        }
    }

    /// Finalizes the page. The text format requires the page to end in
    /// a newline, which every emitter above guarantees.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders the complete profiling page: snapshot vocabulary, allocation
/// profile and contention profile.
pub fn render_profile_page(
    snap: &TraceSnapshot,
    alloc: &[PhaseAllocStats],
    contention: &[SiteStats],
) -> String {
    let mut page = TextExporter::new();
    page.snapshot(snap);
    page.alloc_profile(alloc);
    page.contention_profile(contention);
    page.finish()
}

/// Renders the same profiling state as [`render_profile_page`] as a
/// deterministic JSON document — the machine-readable twin of the text
/// page, for tooling that would rather not parse the exposition format.
///
/// Key order is deterministic (`BTreeMap`), so two snapshots of the
/// same state render byte-identically.
pub fn profile_json(
    snap: &TraceSnapshot,
    alloc: &[PhaseAllocStats],
    contention: &[SiteStats],
) -> horse_telemetry::json::JsonValue {
    use horse_telemetry::json::JsonValue;
    use std::collections::BTreeMap;

    let num = |v: u64| JsonValue::Number(v as f64);
    let kv = |pairs: &[(&str, u64)]| {
        JsonValue::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), num(*v)))
                .collect(),
        )
    };

    let mut root = BTreeMap::new();
    root.insert(
        "counters".to_string(),
        kv(&snap
            .counters
            .iter()
            .map(|&(n, v)| (n, v))
            .collect::<Vec<_>>()),
    );
    root.insert(
        "gauges".to_string(),
        kv(&snap.gauges.iter().map(|&(n, v)| (n, v)).collect::<Vec<_>>()),
    );

    let mut dropped = BTreeMap::new();
    dropped.insert("total".to_string(), num(snap.dropped));
    dropped.insert(
        "by_shard".to_string(),
        JsonValue::Array(snap.dropped_by_shard.iter().map(|&v| num(v)).collect()),
    );
    dropped.insert("lossy".to_string(), JsonValue::Bool(snap.is_lossy()));
    root.insert("dropped_events".to_string(), JsonValue::Object(dropped));

    let mut alloc_obj = BTreeMap::new();
    for s in alloc {
        alloc_obj.insert(
            s.phase.name().to_string(),
            kv(&[
                ("allocs", s.allocs),
                ("deallocs", s.deallocs),
                ("bytes_allocated", s.bytes_allocated),
                ("bytes_freed", s.bytes_freed),
            ]),
        );
    }
    root.insert("alloc".to_string(), JsonValue::Object(alloc_obj));

    let mut contention_obj = BTreeMap::new();
    for s in contention {
        let mut site = BTreeMap::new();
        site.insert("acquisitions".to_string(), num(s.acquisitions));
        site.insert("wait_ns_total".to_string(), num(s.wait_ns_total));
        site.insert("cas_retries".to_string(), num(s.cas_retries));
        site.insert(
            "wait_hist".to_string(),
            JsonValue::Array(
                (0..WAIT_BUCKETS)
                    .filter(|&i| s.wait_hist[i] > 0)
                    .map(|i| {
                        JsonValue::Array(vec![
                            num(contention::wait_bucket_upper_ns(i)),
                            num(s.wait_hist[i]),
                        ])
                    })
                    .collect(),
            ),
        );
        contention_obj.insert(s.site.name().to_string(), JsonValue::Object(site));
    }
    root.insert("contention".to_string(), JsonValue::Object(contention_obj));

    JsonValue::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_telemetry::{Recorder, TelemetryConfig};

    #[test]
    fn label_escaping_covers_the_spec_triplet() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("x\ny"), "x\\ny");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn help_escaping_leaves_quotes_alone() {
        assert_eq!(escape_help(r#"say "hi"\now"#), r#"say "hi"\\now"#);
        assert_eq!(escape_help("two\nlines"), "two\\nlines");
    }

    #[test]
    fn counter_and_gauge_render_headers_and_samples() {
        let mut page = TextExporter::new();
        page.counter("horse_x_total", "Help for x.", 3);
        page.gauge("horse_y", "Help for y.", 9);
        let text = page.finish();
        assert!(text.contains("# HELP horse_x_total Help for x.\n"));
        assert!(text.contains("# TYPE horse_x_total counter\n"));
        assert!(text.contains("horse_x_total 3\n"));
        assert!(text.contains("# TYPE horse_y gauge\n"));
        assert!(text.contains("horse_y 9\n"));
    }

    #[test]
    fn labeled_pairs_render_multi_label_samples() {
        let mut page = TextExporter::new();
        page.labeled_pairs(
            "horse_breaker_state",
            "Breaker state per (function, host).",
            "gauge",
            &[
                (r#"function="f1",host="0""#.to_string(), 2),
                (r#"function="f1",host="1""#.to_string(), 0),
            ],
        );
        let text = page.finish();
        assert!(text.contains("# TYPE horse_breaker_state gauge\n"));
        assert!(text.contains("horse_breaker_state{function=\"f1\",host=\"0\"} 2\n"));
        assert!(text.contains("horse_breaker_state{function=\"f1\",host=\"1\"} 0\n"));
    }

    #[test]
    fn labeled_samples_quote_and_escape_values() {
        let mut page = TextExporter::new();
        page.labeled(
            "horse_z_total",
            "Labeled.",
            "counter",
            "phase",
            &[("in\"voke", 1), ("pause", 2)],
        );
        let text = page.finish();
        assert!(text.contains("horse_z_total{phase=\"in\\\"voke\"} 1\n"));
        assert!(text.contains("horse_z_total{phase=\"pause\"} 2\n"));
    }

    #[test]
    fn histogram_emits_cumulative_buckets_inf_sum_count() {
        let mut page = TextExporter::new();
        page.histogram(
            "horse_w_ns",
            "Waits.",
            "site=\"vmm\"",
            &[(10, 3), (100, 5)],
            6,
            1234,
        );
        let text = page.finish();
        assert!(text.contains("horse_w_ns_bucket{site=\"vmm\",le=\"10\"} 3\n"));
        assert!(text.contains("horse_w_ns_bucket{site=\"vmm\",le=\"100\"} 5\n"));
        assert!(text.contains("horse_w_ns_bucket{site=\"vmm\",le=\"+Inf\"} 6\n"));
        assert!(text.contains("horse_w_ns_sum{site=\"vmm\"} 1234\n"));
        assert!(text.contains("horse_w_ns_count{site=\"vmm\"} 6\n"));
    }

    #[test]
    fn summary_reports_sketch_quantiles() {
        let mut s = QuantileSketch::new(0.01);
        s.record_n(1_000, 99);
        s.record(100_000);
        let mut page = TextExporter::new();
        page.summary("horse_invoke_ns", "Invoke latency.", &s, &[0.5, 0.99]);
        let text = page.finish();
        assert!(text.contains("# TYPE horse_invoke_ns summary\n"));
        assert!(text.contains("horse_invoke_ns{quantile=\"0.5\"}"));
        assert!(text.contains("horse_invoke_ns{quantile=\"0.99\"}"));
        assert!(text.contains("horse_invoke_ns_count 100\n"));
    }

    #[test]
    fn snapshot_page_exposes_vocabulary_drops_and_lossy_flag() {
        let recorder = Recorder::new(TelemetryConfig {
            shards: 2,
            capacity_per_shard: 64,
        });
        recorder.count(horse_telemetry::Counter::PoolHits, 5);
        recorder.gauge(horse_telemetry::Gauge::PooledSandboxes, 3);
        let snap = recorder.drain();
        let mut page = TextExporter::new();
        page.snapshot(&snap);
        let text = page.finish();
        assert!(text.contains("horse_pool_hits_total 5\n"));
        assert!(text.contains("horse_pooled_sandboxes 3\n"));
        assert!(text.contains("horse_dropped_events_total{shard=\"0\"} 0\n"));
        assert!(text.contains("horse_dropped_events_total{shard=\"1\"} 0\n"));
        assert!(text.contains("horse_telemetry_lossy 0\n"));
        // One header pair per family, no duplicated TYPE lines.
        let lossy_types = text.matches("# TYPE horse_telemetry_lossy").count();
        assert_eq!(lossy_types, 1);
    }

    #[test]
    fn lossy_gauge_flags_the_window_and_the_drop_counter_stays() {
        let recorder = Recorder::new(TelemetryConfig {
            shards: 1,
            capacity_per_shard: 8,
        });
        let page_after = |events: u64| {
            for _ in 0..events {
                recorder.instant(horse_telemetry::EventKind::PoolHit, 0, 0);
            }
            let mut page = TextExporter::new();
            page.snapshot(&recorder.drain());
            page.finish()
        };
        let overflowed = page_after(20);
        assert!(overflowed.contains("horse_telemetry_lossy 1\n"));
        assert!(overflowed.contains("horse_dropped_events_total{shard=\"0\"} 12\n"));
        let within = page_after(8);
        assert!(within.contains("horse_telemetry_lossy 0\n"));
        assert!(within.contains("horse_dropped_events_total{shard=\"0\"} 12\n"));
    }

    #[test]
    fn profile_page_carries_alloc_and_contention_families() {
        let snap = Recorder::new(TelemetryConfig {
            shards: 1,
            capacity_per_shard: 64,
        })
        .drain();
        let alloc = horse_telemetry::alloc::snapshot();
        let contention = horse_telemetry::contention::snapshot();
        let text = render_profile_page(&snap, &alloc, &contention);
        assert!(text.contains("horse_allocs_total{phase=\"invoke\"}"));
        assert!(text.contains("horse_alloc_bytes_total{phase=\"resume_splice\"}"));
        assert!(text.contains("horse_lock_acquisitions_total{site=\"vmm_mutex\"}"));
        assert!(text.contains("horse_cas_retries_total{site=\"warm_stack_cas\"}"));
        assert!(text.contains("horse_lock_wait_ns_bucket{site=\"vmm_mutex\",le=\"+Inf\"}"));
    }
}
