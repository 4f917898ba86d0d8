//! Order statistics shared by the runner, `--compare` and `--repeat`:
//! quartiles as Python's `statistics.quantiles(values, n=4)` computes
//! them (the rule the acceptance driver applies to this benchmark), the
//! tail-percentile rule, interpolated histogram percentiles and the
//! regression verdict.

use horse_metrics::Histogram;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(q1, q3)` by the *exclusive* method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds are set from.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest reportable tail percentile of `samples` observations:
/// the largest of 50 / 90 / 99 / 99.9 / 99.99 / 99.999 that still has
/// at least ten samples beyond it. `None` below 20 samples (not even the
/// median has ten beyond it).
pub fn highest_percentile(samples: u64) -> Option<f64> {
    // (percentile, samples beyond it per 100 000) — integers, so that
    // exactly ten beyond counts.
    const LADDER: [(f64, u64); 6] = [
        (50.0, 50_000),
        (90.0, 10_000),
        (99.0, 1_000),
        (99.9, 100),
        (99.99, 10),
        (99.999, 1),
    ];
    LADDER
        .iter()
        .filter(|(_, beyond)| samples.saturating_mul(*beyond) >= 10 * 100_000)
        .map(|(p, _)| *p)
        .next_back()
}

/// Percentile of a [`Histogram`] interpolated linearly inside the bucket
/// holding the rank. `Histogram::percentile` returns bucket upper bounds
/// (16 ns steps around 1 µs); interpolating keeps a reported median from
/// snapping to the same bucket edge on every run.
pub fn interp_percentile(h: &Histogram, pct: f64) -> f64 {
    let Some(idx) = h.percentile_bucket(pct) else {
        return 0.0;
    };
    let upper = Histogram::bucket_upper_bound(idx);
    let lower = if idx == 0 {
        0
    } else {
        Histogram::bucket_upper_bound(idx - 1) + 1
    };
    let target = ((pct / 100.0) * h.len() as f64).ceil().max(1.0);
    let (mut before, mut inside) = (0u64, 0u64);
    for (bound, count) in h.iter_buckets() {
        if bound < upper {
            before += count;
        } else if bound == upper {
            inside = count;
        }
    }
    let width = (upper - lower + 1) as f64;
    let frac = ((target - before as f64 - 0.5) / inside.max(1) as f64).clamp(0.0, 1.0);
    (lower as f64 + frac * width).clamp(h.min() as f64, h.max() as f64)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latencies, set-up time, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Outcome of comparing one (metric, workload) pair between two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A run-to-run spread is wider than the bound, so the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label printed in the compare table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The regression rule of the choosing-metrics guide: where either
/// side's spread is wider than the bound the pair is `Unresolved` —
/// unless every run of B reads better than every run of A — otherwise
/// the medians decide.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        let b_wins_all = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(x, y, better) < 0.0));
        return if b_wins_all {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(median(a), median(b), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(8_500_000), Some(99.999));
    }

    #[test]
    fn interpolated_percentile_moves_inside_a_bucket() {
        // 1024..1039 share one 16-wide bucket: the plain percentile
        // reads the same for both fills, the interpolated one does not.
        let mut low = Histogram::new();
        let mut high = Histogram::new();
        for (h, below, inside) in [(&mut low, 60, 20), (&mut high, 20, 40)] {
            h.record_n(1_000, below);
            h.record_n(1_024, inside);
            h.record_n(1_039, inside);
        }
        assert_eq!(low.percentile(90.0), high.percentile(90.0));
        let (a, b) = (
            interp_percentile(&low, 90.0),
            interp_percentile(&high, 90.0),
        );
        assert!((1_024.0..=1_039.0).contains(&a) && (1_024.0..=1_039.0).contains(&b));
        assert!(a < b, "rank 90 sits deeper into the fuller bucket");
        assert_eq!(interp_percentile(&Histogram::new(), 50.0), 0.0);
    }

    #[test]
    fn verdict_ok_worse_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound → ok, either direction.
        assert_eq!(verdict(&a, &a, Better::Lower, 0.05), Verdict::Ok);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.04).collect();
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.05), Verdict::Ok);
        // Beyond the bound, tight spread → worse (direction-aware).
        let much_slower: Vec<f64> = a.iter().map(|x| x * 1.10).collect();
        assert_eq!(
            verdict(&a, &much_slower, Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &much_slower, Better::Higher, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(&much_slower, &a, Better::Higher, 0.05),
            Verdict::Worse
        );
        // Spread wider than the bound → unresolved …
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&noisy, &much_slower, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        let all_better = [70.0, 60.0, 75.0, 50.0, 79.0];
        assert_eq!(
            verdict(&noisy, &all_better, Better::Lower, 0.05),
            Verdict::Ok
        );
    }
}
