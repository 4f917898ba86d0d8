//! Mergeable streaming quantile sketch with bounded relative error.
//!
//! [`QuantileSketch`] follows the DDSketch construction: values are mapped
//! to logarithmic buckets `key = ⌈ln(v)/ln(γ)⌉` with `γ = (1+α)/(1−α)`,
//! which guarantees that any reported quantile is within relative error
//! `α` of a value actually recorded at that rank. Unlike the fixed-array
//! [`Histogram`](crate::Histogram), the sketch stores only the non-empty
//! buckets (a `BTreeMap`), so it stays tiny for the narrow latency
//! distributions this repository produces while still covering the full
//! `u64` range.
//!
//! Two sketches built with the same `α` merge *exactly*: bucket keys are a
//! property of `α` alone, so merging adds counts bucket-by-bucket and the
//! merged sketch is indistinguishable from one that recorded the
//! concatenated stream. That makes the sketch safe to use per-thread or
//! per-shard and combine at report time — the property tests in
//! `tests/sketch_oracle.rs` check merge associativity and commutativity
//! against recording the union directly.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A mergeable quantile sketch over `u64` values (typically nanoseconds).
///
/// Recording is O(log buckets). A percentile query walks the buckets from
/// the nearer end — up from the bottom below the median, down from the top
/// at or above it — so a tail query (p99 of a hedge threshold, say) costs
/// O(buckets above its rank) rather than O(buckets). Any reported
/// percentile is within relative error `alpha` of the exact order
/// statistic's bucket, plus at most half a unit of integer rounding.
///
/// # Example
///
/// ```
/// use horse_metrics::QuantileSketch;
///
/// let mut s = QuantileSketch::new(0.01);
/// s.record_n(1_000, 99);
/// s.record(100_000);
/// let p50 = s.percentile(50.0);
/// assert!((990..=1_010).contains(&p50), "p50 was {p50}");
/// assert!(s.percentile(100.0) >= 99_000);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Relative-error bound the sketch was built with.
    alpha: f64,
    /// `(1 + alpha) / (1 - alpha)` — the bucket growth factor.
    gamma: f64,
    /// `ln(gamma)`, precomputed so recording avoids a division.
    ln_gamma: f64,
    /// Exact count of recorded zeros (zero has no logarithm).
    zero_count: u64,
    /// Sparse log-bucketed counts, keyed by `⌈ln(v)/ln(γ)⌉`.
    buckets: BTreeMap<i32, u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("alpha", &self.alpha)
            .field("len", &self.total)
            .field("buckets", &self.buckets.len())
            .field("min", &self.min())
            .field("max", &self.max)
            .finish()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch with relative-error bound `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha {alpha} out of range (0, 1)"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            zero_count: 0,
            buckets: BTreeMap::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The relative-error bound this sketch was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        if value == 0 {
            self.zero_count += count;
        } else {
            *self.buckets.entry(self.key_for(value)).or_insert(0) += count;
        }
        self.total += count;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128 * count as u128;
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no value has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (exact, not quantized).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Number of non-empty log buckets (excluding the zero bucket) — the
    /// sketch's memory footprint is proportional to this.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Value at the given percentile in `[0, 100]`.
    ///
    /// The result is the representative value of the bucket containing the
    /// requested rank — within relative error `alpha` of every value in
    /// that bucket — clamped to the recorded min/max.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not within `0.0..=100.0`.
    pub fn percentile(&self, pct: f64) -> u64 {
        assert!(
            (0.0..=100.0).contains(&pct),
            "percentile {pct} out of range"
        );
        if self.total == 0 {
            return 0;
        }
        let target = ((pct / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        if self.zero_count >= target {
            return 0;
        }
        let key = if pct >= 50.0 {
            // The bucket holding ascending rank `target` is the first one,
            // walking down, whose cumulative count from the top exceeds the
            // `total - target` values ranked above it.
            let above = self.total - target;
            let mut seen = 0;
            self.buckets.iter().rev().find_map(|(&key, &count)| {
                seen += count;
                (seen > above).then_some(key)
            })
        } else {
            let mut seen = self.zero_count;
            self.buckets.iter().find_map(|(&key, &count)| {
                seen += count;
                (seen >= target).then_some(key)
            })
        };
        key.map_or(self.max, |key| {
            self.value_for(key).clamp(self.min, self.max)
        })
    }

    /// Merges another sketch into this one.
    ///
    /// Merging is exact: bucket keys depend only on `alpha`, so the result
    /// is identical to a sketch that recorded both streams directly. As a
    /// consequence merge is associative and commutative.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built with different `alpha` — their
    /// bucket boundaries are incompatible and counts cannot be combined
    /// without resampling.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha == other.alpha,
            "cannot merge sketches with different alpha: {} vs {}",
            self.alpha,
            other.alpha
        );
        self.zero_count += other.zero_count;
        for (&key, &count) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += count;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Iterator over `(representative_value, count)` pairs in ascending
    /// value order, with the zero bucket first when present. Useful for
    /// exporting distribution shapes.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let zero = (self.zero_count > 0).then_some((0u64, self.zero_count));
        zero.into_iter()
            .chain(self.buckets.iter().map(|(&k, &c)| (self.value_for(k), c)))
    }

    /// Log-bucket key for a non-zero value: `⌈ln(v)/ln(γ)⌉`.
    #[inline]
    fn key_for(&self, value: u64) -> i32 {
        debug_assert!(value > 0);
        ((value as f64).ln() / self.ln_gamma).ceil() as i32
    }

    /// Representative value for bucket `key`: the geometric midpoint
    /// `2·γᵏ/(γ+1)`, which is within relative error `alpha` of every value
    /// in `(γᵏ⁻¹, γᵏ]`.
    fn value_for(&self, key: i32) -> u64 {
        let v = 2.0 * (key as f64 * self.ln_gamma).exp() / (self.gamma + 1.0);
        if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v.round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch() {
        let s = QuantileSketch::new(0.01);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.bucket_count(), 0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_of_zero() {
        QuantileSketch::new(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_of_one() {
        QuantileSketch::new(1.0);
    }

    #[test]
    fn single_value_roundtrips_within_alpha() {
        for v in [1u64, 2, 3, 127, 128, 1_000, 123_456_789, u64::MAX / 3] {
            let mut s = QuantileSketch::new(0.01);
            s.record(v);
            // Clamping to min == max makes single-value queries exact.
            assert_eq!(s.percentile(50.0), v, "v={v}");
        }
    }

    #[test]
    fn relative_error_is_bounded_without_clamp_help() {
        // Two distinct values so the clamp cannot rescue the middle.
        let mut s = QuantileSketch::new(0.02);
        for exp in 0..40u32 {
            let v = 3u64.saturating_pow(exp).max(1);
            let mut pair = QuantileSketch::new(0.02);
            pair.record(1);
            pair.record(v.max(2));
            pair.record(u64::MAX / 2);
            let q = pair.percentile(50.0);
            let v = v.max(2);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.02 + 1e-9, "v={v} q={q} err={err}");
            s.record(v);
        }
    }

    #[test]
    fn zeros_are_exact() {
        let mut s = QuantileSketch::new(0.01);
        s.record_n(0, 10);
        s.record_n(1_000, 1);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.min(), 0);
        assert!(s.percentile(100.0) >= 990);
    }

    #[test]
    fn mean_is_exact() {
        let mut s = QuantileSketch::new(0.05);
        s.record_n(10, 3);
        s.record_n(20, 1);
        assert!((s.mean() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.01);
        a.record_n(100, 5);
        b.record_n(1_000_000, 5);
        a.merge(&b);
        assert_eq!(a.len(), 10);
        assert_eq!(a.min(), 100);
        assert!(a.max() >= 1_000_000);
        let p50 = a.percentile(50.0);
        assert!((99..=101).contains(&p50), "p50={p50}");
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    fn merge_with_empty_keeps_minmax() {
        let mut a = QuantileSketch::new(0.01);
        a.record(42);
        let b = QuantileSketch::new(0.01);
        a.merge(&b);
        assert_eq!(a.min(), 42);
        assert_eq!(a.max(), 42);
    }

    #[test]
    fn percentile_monotone() {
        let mut s = QuantileSketch::new(0.01);
        for v in [5u64, 50, 500, 5_000, 50_000, 500_000] {
            s.record_n(v, 10);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = s.percentile(p);
            assert!(q >= last, "p{p} regressed: {q} < {last}");
            last = q;
        }
    }

    #[test]
    fn bucket_iteration_covers_all_counts() {
        let mut s = QuantileSketch::new(0.01);
        s.record_n(0, 2);
        s.record_n(3, 2);
        s.record_n(70_000, 4);
        let total: u64 = s.iter_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, 8);
        let values: Vec<u64> = s.iter_buckets().map(|(v, _)| v).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(values, sorted, "buckets not in ascending value order");
    }

    #[test]
    fn merging_singletons_equals_direct_recording() {
        let values = [1u64, 7, 90, 1_000, 55_555, 9_999_999, 0, 42];
        let mut direct = QuantileSketch::new(0.01);
        let mut merged = QuantileSketch::new(0.01);
        for &v in &values {
            direct.record(v);
            let mut single = QuantileSketch::new(0.01);
            single.record(v);
            merged.merge(&single);
        }
        assert_eq!(merged.len(), direct.len());
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(merged.percentile(p), direct.percentile(p), "p{p}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_out_of_range() {
        QuantileSketch::new(0.01).percentile(101.0);
    }

    #[test]
    fn sparse_footprint_stays_small() {
        // A narrow latency distribution (±20 % around 1 ms) needs only a
        // handful of buckets even at alpha = 1 %.
        let mut s = QuantileSketch::new(0.01);
        for v in 800_000u64..1_200_000 {
            s.record(v);
        }
        assert!(
            s.bucket_count() < 32,
            "narrow distribution used {} buckets",
            s.bucket_count()
        );
    }

    /// The walk `percentile` used for every `pct` before it learned to
    /// start from the nearer end: bottom-up over all buckets. Kept as
    /// the oracle for the top-down half.
    fn percentile_bottom_up(s: &QuantileSketch, pct: f64) -> u64 {
        if s.total == 0 {
            return 0;
        }
        let target = ((pct / 100.0) * s.total as f64).ceil().max(1.0) as u64;
        let mut seen = s.zero_count;
        if seen >= target {
            return 0;
        }
        for (&key, &count) in &s.buckets {
            seen += count;
            if seen >= target {
                return s.value_for(key).clamp(s.min, s.max);
            }
        }
        s.max
    }

    /// Every `pct` worth asking: a fine grid over `[0, 100]` plus the
    /// exact rank boundaries `100·k/n` of an `n`-value sketch and their
    /// float neighbours.
    fn probe_pcts(n: u64) -> Vec<f64> {
        let mut pcts: Vec<f64> = (0..=1000).map(|i| f64::from(i) / 10.0).collect();
        for k in 0..=n.min(64) {
            let exact = 100.0 * k as f64 / n.max(1) as f64;
            pcts.extend([exact, exact - 1e-9, exact + 1e-9]);
        }
        pcts.retain(|p| (0.0..=100.0).contains(p));
        pcts
    }

    #[test]
    fn top_down_walk_picks_the_bottom_up_bucket() {
        // Deterministic LCG: random sketches of every shape the walk
        // branches on — zeros only, zeros + values, one bucket, many.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        for case in 0..300u64 {
            let mut s = QuantileSketch::new(if case % 2 == 0 { 0.01 } else { 0.05 });
            let distinct = match case % 5 {
                0 => 0, // zero bucket only
                1 => 1, // single log bucket
                _ => 1 + next() % 40,
            };
            if case % 3 != 1 {
                s.record_n(0, next() % 4); // maybe a zero bucket too
            }
            if distinct == 0 {
                s.record_n(0, 1 + next() % 5);
            }
            for _ in 0..distinct {
                let magnitude = next() % 40;
                s.record_n(1 + (next() % (1 << magnitude).max(1)), 1 + next() % 6);
            }
            for pct in probe_pcts(s.len()) {
                assert_eq!(
                    s.percentile(pct),
                    percentile_bottom_up(&s, pct),
                    "case {case} pct {pct} sketch {s:?}"
                );
            }
        }
    }

    #[test]
    fn the_median_boundary_uses_either_walk_interchangeably() {
        // pct = 50 is where the walk direction flips: ranks on both
        // sides of it, over an even and an odd count, agree with the
        // oracle bucket by bucket.
        for n in [1u64, 2, 3, 4, 7, 8, 100, 101] {
            let mut s = QuantileSketch::new(0.01);
            for i in 0..n {
                s.record(10u64.pow((i % 6) as u32) * (i + 1));
            }
            for pct in [49.0, 49.999_999, 50.0, 50.000_001, 51.0] {
                assert_eq!(
                    s.percentile(pct),
                    percentile_bottom_up(&s, pct),
                    "n {n} pct {pct}"
                );
            }
        }
    }
}
