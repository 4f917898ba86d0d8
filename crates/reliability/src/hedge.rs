//! Hedged requests: speculative duplicates with first-wins resolution.
//!
//! A hedge fires when the primary attempt runs past a p99-derived
//! threshold: at that instant a duplicate is dispatched to a *different*
//! host, and whichever attempt finishes first wins. On the virtual-time
//! axis the lifecycle is resolved analytically — the hedge starts at the
//! threshold, so its completion lands at `threshold + hedge latency`,
//! and the effective latency is the minimum of the two completion
//! times. The loser is cancelled, and cancellation is *accounted*: one
//! submission yields exactly one counted completion (the
//! duplicate-suppression invariant the `crates/check` oracle audits).

use horse_metrics::QuantileSketch;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hedging configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Latency percentile (0–100) the hedge threshold derives from.
    pub threshold_percentile: f64,
    /// Observations required per function before hedging arms — a cold
    /// sketch would hedge on noise.
    pub min_samples: u64,
    /// Floor on the hedge threshold (ns): never hedge earlier than
    /// this, however tight the distribution.
    pub min_threshold_ns: u64,
}

impl Default for HedgeConfig {
    /// p99 threshold, 256-sample warmup, 1 µs floor.
    fn default() -> Self {
        Self {
            threshold_percentile: 99.0,
            min_samples: 256,
            min_threshold_ns: 1_000,
        }
    }
}

/// Relative error of the hedge-threshold sketches.
const SKETCH_ALPHA: f64 = 0.01;

/// [`Profile::threshold_ns`] while the profile is warming up. An armed
/// threshold saturates one below it.
const UNARMED: u64 = u64::MAX;

/// One function's latency sketch and the hedge threshold it currently
/// implies.
#[derive(Debug)]
struct Profile {
    sketch: Mutex<QuantileSketch>,
    /// The armed threshold, republished by every `observe` while it
    /// still holds the sketch lock (so the word always matches the
    /// sketch's latest state); [`UNARMED`] during warm-up. `Relaxed`:
    /// the word is the whole message.
    threshold_ns: AtomicU64,
}

/// Per-function end-to-end latency profiles feeding the hedge threshold
/// (DDSketch-style quantile sketches): a dense table with one profile
/// per function id, grown by [`Self::add_function`] (ids are raw `u64`
/// indices so this crate stays independent of the platform layer).
#[derive(Debug)]
pub struct LatencyProfiles {
    cfg: HedgeConfig,
    profiles: Vec<Profile>,
}

impl LatencyProfiles {
    /// An empty profile set arming thresholds per `cfg`.
    pub fn new(cfg: HedgeConfig) -> Self {
        Self {
            cfg,
            profiles: Vec::new(),
        }
    }

    /// Appends the (cold) profile of the next function id.
    pub fn add_function(&mut self) {
        self.profiles.push(Profile {
            sketch: Mutex::new(QuantileSketch::new(SKETCH_ALPHA)),
            threshold_ns: AtomicU64::new(UNARMED),
        });
    }

    fn profile(&self, function: u64) -> Option<&Profile> {
        self.profiles.get(usize::try_from(function).ok()?)
    }

    /// Records one completed attempt's latency and republishes the
    /// function's hedge threshold. Ignored for a function without a
    /// profile.
    pub fn observe(&self, function: u64, latency_ns: u64) {
        let Some(profile) = self.profile(function) else {
            return;
        };
        let mut sketch = profile.sketch.lock();
        sketch.record(latency_ns);
        if sketch.len() >= self.cfg.min_samples {
            let threshold = sketch
                .percentile(self.cfg.threshold_percentile)
                .max(self.cfg.min_threshold_ns);
            profile
                .threshold_ns
                .store(threshold.min(UNARMED - 1), Ordering::Relaxed);
        }
    }

    /// Samples recorded for a function so far.
    pub fn samples(&self, function: u64) -> u64 {
        self.profile(function).map_or(0, |p| p.sketch.lock().len())
    }

    /// The armed hedge threshold for a function, or `None` while the
    /// profile is still warming up. One atomic load.
    pub fn threshold_ns(&self, function: u64) -> Option<u64> {
        let threshold = self.profile(function)?.threshold_ns.load(Ordering::Relaxed);
        (threshold != UNARMED).then_some(threshold)
    }
}

/// Resolution of a hedged pair on the virtual-time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeResolution {
    /// Whether the hedge (started at the threshold) beat the primary.
    pub hedge_won: bool,
    /// Effective end-to-end latency: `min(primary, threshold + hedge)`.
    pub effective_ns: u64,
    /// Completion time of the cancelled loser (its work is suppressed,
    /// but its cost is what cancellation accounting reports).
    pub cancelled_ns: u64,
}

/// First-wins resolution: the primary completes at `primary_ns`; the
/// hedge was dispatched at `threshold_ns` and completes at
/// `threshold_ns + hedge_ns`. Exactly one of them is counted.
pub fn resolve_first_wins(primary_ns: u64, threshold_ns: u64, hedge_ns: u64) -> HedgeResolution {
    let hedge_completion = threshold_ns.saturating_add(hedge_ns);
    if hedge_completion < primary_ns {
        HedgeResolution {
            hedge_won: true,
            effective_ns: hedge_completion,
            cancelled_ns: primary_ns,
        }
    } else {
        HedgeResolution {
            hedge_won: false,
            effective_ns: primary_ns,
            cancelled_ns: hedge_completion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Profiles for function ids `0..functions`.
    fn profiles(cfg: HedgeConfig, functions: usize) -> LatencyProfiles {
        let mut profiles = LatencyProfiles::new(cfg);
        for _ in 0..functions {
            profiles.add_function();
        }
        profiles
    }

    #[test]
    fn threshold_arms_only_after_warmup() {
        let cfg = HedgeConfig {
            min_samples: 10,
            ..HedgeConfig::default()
        };
        let profiles = profiles(cfg, 8);
        for i in 0..9 {
            profiles.observe(7, 1_000 + i);
            assert_eq!(profiles.threshold_ns(7), None, "still warming up");
        }
        profiles.observe(7, 100_000);
        let t = profiles.threshold_ns(7).expect("armed");
        assert!(t >= 1_000, "threshold respects the floor");
        assert_eq!(profiles.samples(7), 10);
        assert_eq!(profiles.threshold_ns(6), None, "cold function");
        assert_eq!(profiles.threshold_ns(8), None, "unknown function");
        profiles.observe(8, 1); // ignored, not a panic
        assert_eq!(profiles.samples(8), 0);
    }

    #[test]
    fn threshold_tracks_the_tail() {
        let cfg = HedgeConfig {
            min_samples: 100,
            min_threshold_ns: 1,
            ..HedgeConfig::default()
        };
        let profiles = profiles(cfg, 2);
        for _ in 0..990 {
            profiles.observe(1, 10_000);
        }
        for _ in 0..10 {
            profiles.observe(1, 500_000);
        }
        let t = profiles.threshold_ns(1).unwrap();
        assert!(
            (9_000..=520_000).contains(&t),
            "p99 sits between body and tail: {t}"
        );
        assert!(t > 9_000, "threshold is above the body");
    }

    #[test]
    fn first_wins_picks_the_earlier_completion() {
        // Primary slow, hedge fast: hedge wins at threshold + hedge.
        let r = resolve_first_wins(100_000, 10_000, 2_000);
        assert!(r.hedge_won);
        assert_eq!(r.effective_ns, 12_000);
        assert_eq!(r.cancelled_ns, 100_000);
        // Primary finishes before the hedge does: primary wins.
        let r = resolve_first_wins(11_000, 10_000, 2_000);
        assert!(!r.hedge_won);
        assert_eq!(r.effective_ns, 11_000);
        assert_eq!(r.cancelled_ns, 12_000);
        // Tie goes to the primary (no pointless duplicate accounting).
        let r = resolve_first_wins(12_000, 10_000, 2_000);
        assert!(!r.hedge_won);
        assert_eq!(r.effective_ns, 12_000);
    }

    proptest! {
        /// The published threshold is never stale: after every
        /// `observe` it equals what a fresh percentile query on the same
        /// stream would arm — `None` up to the very sample that
        /// completes the warm-up, the floored percentile from there on.
        #[test]
        fn cached_threshold_equals_a_fresh_percentile_after_every_observe(
            min_samples in 0u64..=12,
            threshold_percentile in 0.0f64..=100.0,
            min_threshold_ns in 0u64..=5_000,
            latencies in proptest::collection::vec(
                prop_oneof![0u64..=3, 500u64..=20_000, 1_000_000u64..=50_000_000],
                1..80,
            ),
        ) {
            let cfg = HedgeConfig { threshold_percentile, min_samples, min_threshold_ns };
            let profiles = profiles(cfg, 1);
            let mut mirror = QuantileSketch::new(SKETCH_ALPHA);
            prop_assert_eq!(profiles.threshold_ns(0), None, "nothing observed yet");
            for latency in latencies {
                profiles.observe(0, latency);
                mirror.record(latency);
                let fresh = (mirror.len() >= min_samples)
                    .then(|| mirror.percentile(threshold_percentile).max(min_threshold_ns));
                prop_assert_eq!(
                    profiles.threshold_ns(0), fresh,
                    "after {} samples (warm-up {})", mirror.len(), min_samples
                );
            }
        }
    }
}
