//! The measured window: a wall-clock interval cut into equal slices.
//!
//! Every workload records per-op latencies into the slice the op
//! *completed* in. Throughput and latency percentiles are computed per
//! slice and the reported value is the **median over slices**: one host
//! scheduler stall (this box shows ~10 stalls over 200 µs per second)
//! then moves one slice, not the run's number. The whole-window
//! distribution is kept too, for the informational tail percentile.

use std::time::Instant;

use horse_metrics::Histogram;

use crate::stats::{highest_percentile, interp_percentile, median};

/// Slices per measured window. Even, so the median over slices averages
/// two middle slices and never snaps to one histogram reading.
pub const SLICES: usize = 20;

/// One slice's tallies.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Operations completed in the slice.
    pub ops: u64,
    /// Per-op wall latency, ns.
    pub wall: Histogram,
}

/// A measured window anchored at `epoch`.
#[derive(Debug)]
pub struct Window {
    epoch: Instant,
    /// Window length, ns.
    pub len_ns: u64,
    slice_ns: u64,
    /// The slices, in time order.
    pub slices: Vec<Slice>,
    cur: usize,
    cur_end_ns: u64,
}

impl Window {
    /// A window of `seconds` starting at `epoch` (which may lie slightly
    /// in the future of the first op — drivers share one epoch).
    pub fn new(epoch: Instant, seconds: f64) -> Self {
        let len_ns = (seconds * 1e9) as u64;
        let slice_ns = (len_ns / SLICES as u64).max(1);
        Self {
            epoch,
            len_ns,
            slice_ns,
            slices: (0..SLICES)
                .map(|_| Slice {
                    ops: 0,
                    wall: Histogram::new(),
                })
                .collect(),
            cur: 0,
            cur_end_ns: slice_ns,
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether `now_ns` is still inside the window.
    #[inline]
    pub fn open_at(&self, now_ns: u64) -> bool {
        now_ns < self.len_ns
    }

    /// Records `n` ops that completed at `done_ns`, each with wall
    /// latency `latency_ns`. Ops completing past the window's end land
    /// in the last slice.
    #[inline]
    pub fn record(&mut self, done_ns: u64, latency_ns: u64, n: u64) {
        while done_ns >= self.cur_end_ns && self.cur + 1 < SLICES {
            self.cur += 1;
            self.cur_end_ns += self.slice_ns;
        }
        let slice = &mut self.slices[self.cur];
        slice.ops += n;
        slice.wall.record_n(latency_ns, n);
    }

    /// Folds another driver's window (same epoch and length) into this
    /// one, slice by slice.
    pub fn merge(&mut self, other: &Window) {
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.ops += b.ops;
            a.wall.merge(&b.wall);
        }
    }

    /// Total ops recorded.
    #[cfg(test)]
    pub fn total_ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    /// Summarises the window.
    pub fn summary(&self) -> WindowSummary {
        let slice_s = self.slice_ns as f64 / 1e9;
        let busy: Vec<&Slice> = self.slices.iter().filter(|s| s.ops > 0).collect();
        let per_slice = |f: &dyn Fn(&Slice) -> f64| -> f64 {
            if busy.is_empty() {
                0.0
            } else {
                median(&busy.iter().map(|s| f(s)).collect::<Vec<_>>())
            }
        };
        let mut whole = Histogram::new();
        for s in &self.slices {
            whole.merge(&s.wall);
        }
        let tail_pct = highest_percentile(whole.len());
        WindowSummary {
            throughput_ops_s: per_slice(&|s| s.ops as f64 / slice_s),
            wall_p50_ns: per_slice(&|s| interp_percentile(&s.wall, 50.0)),
            wall_p99_ns: per_slice(&|s| interp_percentile(&s.wall, 99.0)),
            samples: whole.len(),
            tail_pct,
            tail_ns: tail_pct.map_or(0.0, |p| interp_percentile(&whole, p)),
            max_ns: whole.max(),
        }
    }
}

/// What a window reports.
#[derive(Debug, Clone, Copy)]
pub struct WindowSummary {
    /// Median over slices of ops completed per wall second.
    pub throughput_ops_s: f64,
    /// Median over slices of the slice's latency median, ns.
    pub wall_p50_ns: f64,
    /// Median over slices of the slice's latency p99, ns.
    pub wall_p99_ns: f64,
    /// Latency samples in the whole window.
    pub samples: u64,
    /// Highest percentile with ≥ 10 samples beyond it (informational).
    pub tail_pct: Option<f64>,
    /// Whole-window latency at `tail_pct`, ns (informational).
    pub tail_ns: f64,
    /// Largest latency seen, ns (informational).
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_land_in_the_slice_they_complete_in() {
        let mut w = Window::new(Instant::now(), 2.0);
        let slice = w.len_ns / SLICES as u64;
        w.record(0, 100, 1);
        w.record(slice - 1, 100, 1);
        w.record(slice, 200, 3);
        w.record(w.len_ns + 5, 300, 1); // straddles the end → last slice
        assert_eq!(w.slices[0].ops, 2);
        assert_eq!(w.slices[1].ops, 3);
        assert_eq!(w.slices[SLICES - 1].ops, 1);
        assert_eq!(w.total_ops(), 6);
    }

    #[test]
    fn summary_is_the_median_over_busy_slices() {
        let mut w = Window::new(Instant::now(), 2.0);
        let slice = w.len_ns / SLICES as u64;
        for i in 0..SLICES as u64 {
            // One stalled slice must not move the reported numbers.
            let (n, lat) = if i == 3 { (10, 90_000) } else { (1_000, 1_000) };
            w.record(i * slice, lat, n);
        }
        let s = w.summary();
        assert_eq!(s.throughput_ops_s, 1_000.0 / 0.1);
        assert!((s.wall_p50_ns - 1_000.0).abs() < 8.0, "{}", s.wall_p50_ns);
        assert!(s.wall_p99_ns < 2_000.0);
        assert_eq!(s.samples, 19_010);
        assert_eq!(s.tail_pct, Some(99.9));
        assert_eq!(s.max_ns, 90_000);
    }
}
