//! File export of measurement artifacts.
//!
//! Experiment binaries persist their outputs under `results/` so that
//! EXPERIMENTS.md can reference committed artifacts. This module writes
//! tables as CSV, telemetry snapshots as Chrome traces and folded
//! stacks, and the profiling plane as a Prometheus page.

use crate::report::Table;
use std::path::Path;

/// Writes a [`Table`] as CSV.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_table_csv(path: impl AsRef<Path>, table: &Table) -> std::io::Result<()> {
    std::fs::write(path, table.to_csv())
}

/// Writes a telemetry snapshot as Chrome trace-event JSON
/// (Perfetto-loadable, conventionally `*.trace.json`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_chrome_trace(
    path: impl AsRef<Path>,
    snapshot: &horse_telemetry::TraceSnapshot,
) -> std::io::Result<()> {
    std::fs::write(path, horse_telemetry::chrome::render(snapshot))
}

/// Writes a telemetry snapshot as folded-stack text (`flamegraph.pl`
/// input, conventionally `*.folded`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_folded_stacks(
    path: impl AsRef<Path>,
    snapshot: &horse_telemetry::TraceSnapshot,
) -> std::io::Result<()> {
    std::fs::write(path, horse_telemetry::folded::render(snapshot))
}

/// Writes the profiling plane's state — snapshot vocabulary, allocation
/// profile, contention profile — as a Prometheus text-format page
/// (conventionally `*.prom`, ready for `promtool check metrics` or a
/// file-based scrape).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_prometheus_page(
    path: impl AsRef<Path>,
    snapshot: &horse_telemetry::TraceSnapshot,
    alloc: &[horse_telemetry::PhaseAllocStats],
    contention: &[horse_telemetry::SiteStats],
) -> std::io::Result<()> {
    std::fs::write(
        path,
        crate::prometheus::render_profile_page(snapshot, alloc, contention),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("horse-export-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn table_roundtrip_through_csv() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1", "x"]);
        let path = tmp("table.csv");
        write_table_csv(&path, &t).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,x\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn prometheus_page_is_written_with_state() {
        let recorder = horse_telemetry::Recorder::new(horse_telemetry::TelemetryConfig {
            shards: 1,
            capacity_per_shard: 64,
        });
        recorder.count(horse_telemetry::Counter::PoolHits, 4);
        let snap = recorder.drain();
        let alloc = horse_telemetry::alloc::snapshot();
        let contention = horse_telemetry::contention::snapshot();

        let prom_path = tmp("profile.prom");
        write_prometheus_page(&prom_path, &snap, &alloc, &contention).unwrap();

        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("horse_pool_hits_total 4\n"));
        assert!(prom.ends_with('\n'));
        std::fs::remove_file(prom_path).ok();
    }
}
