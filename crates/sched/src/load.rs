//! PELT-style run-queue load tracking (paper §3.1, step ⑤).
//!
//! Each run queue carries a *load* — "a measure of processing performed by
//! the tasks in that run queue that the virtualization system governor
//! uses for frequency scaling". Linux/KVM and Xen track it with per-entity
//! load tracking (PELT): a geometrically decaying sum where placing an
//! entity always updates the load as `L(x) = αx + β` (the paper's key
//! observation enabling coalescing).
//!
//! The variable is **lock-protected**; the number of lock acquisitions is
//! counted because it is one of the dominant costs of the vanilla resume
//! path (one lock + update per vCPU) that HORSE coalesces into one.

use horse_core::{CoalescedUpdate, LoadUpdate};
use parking_lot::Mutex;

/// PELT decay per 1 ms period: `y` with `y³² = 0.5`, the constant used by
/// the Linux scheduler since the 2011 per-entity load tracking rework.
pub const PELT_DECAY: f64 = 0.978_572_062_087_700_2;

/// Load contribution of one runnable vCPU at default weight (Linux scales
/// load in units of 1024).
pub const VCPU_LOAD_CONTRIB: f64 = 1024.0;

/// Parameters of the affine per-vCPU load update.
///
/// # Example
///
/// ```
/// use horse_sched::LoadTracker;
///
/// let t = LoadTracker::pelt_default();
/// // Placing one vCPU on an idle queue yields its contribution.
/// assert!((t.update().apply(0.0) - 1024.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadTracker {
    update: LoadUpdate,
}

impl LoadTracker {
    /// The Linux-PELT-like default tracker: `L(x) = 0.97857·x + 1024`.
    pub fn pelt_default() -> Self {
        Self {
            update: LoadUpdate::new(PELT_DECAY, VCPU_LOAD_CONTRIB)
                .expect("default PELT coefficients are valid"),
        }
    }

    /// A tracker with explicit coefficients.
    ///
    /// # Errors
    ///
    /// Propagates [`horse_core::InvalidCoefficientsError`] for non-finite
    /// or negative-α coefficients.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, horse_core::InvalidCoefficientsError> {
        Ok(Self {
            update: LoadUpdate::new(alpha, beta)?,
        })
    }

    /// The elementary affine update applied when placing one vCPU.
    pub fn update(&self) -> LoadUpdate {
        self.update
    }

    /// Precomputes the coalesced update for an `n`-vCPU sandbox (done at
    /// pause time by HORSE, §4.2.2).
    pub fn coalesce(&self, n: u32) -> CoalescedUpdate {
        self.update.coalesce(n)
    }
}

/// The lock-protected load variable of one run queue.
///
/// Both resume paths go through this type so the lock-acquisition count —
/// a dominant vanilla cost — is measured identically for both:
///
/// * vanilla: [`RqLoad::apply_per_vcpu`] — *n* acquisitions, *n* updates;
/// * HORSE: [`RqLoad::apply_coalesced`] — 1 acquisition, 1 multiply-add.
#[derive(Debug, Default)]
pub struct RqLoad {
    state: Mutex<LoadState>,
}

/// The load and the counters of the lock that guards it: the counters
/// live under that lock, so counting an acquisition is a plain add.
#[derive(Debug, Default)]
struct LoadState {
    value: f64,
    lock_acquisitions: u64,
    updates: u64,
}

impl RqLoad {
    /// Creates a zero-load variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current load value.
    pub fn get(&self) -> f64 {
        let mut s = self.state.lock();
        s.lock_acquisitions += 1;
        s.value
    }

    /// Vanilla path: applies the per-vCPU update `n` times, acquiring the
    /// lock for each vCPU (as the unmodified resume loop does — the lock
    /// is taken per placement, paper §3.1 step ⑤).
    pub fn apply_per_vcpu(&self, update: LoadUpdate, n: u32) -> f64 {
        let mut last = 0.0;
        for _ in 0..n {
            last = self.update_with(|v| update.apply(v));
        }
        last
    }

    /// HORSE path: applies a precomputed coalesced update under a single
    /// lock acquisition (paper §4.2).
    pub fn apply_coalesced(&self, coalesced: CoalescedUpdate) -> f64 {
        self.update_with(|v| coalesced.apply(v))
    }

    /// Decays the load by one PELT period with no new contribution
    /// (`β = 0`); called by the periodic scheduler tick.
    pub fn decay(&self, alpha: f64) -> f64 {
        self.update_with(|v| v * alpha)
    }

    /// One counted lock acquisition applying one counted update.
    fn update_with(&self, f: impl FnOnce(f64) -> f64) -> f64 {
        let mut s = self.state.lock();
        s.lock_acquisitions += 1;
        s.updates += 1;
        s.value = f(s.value);
        s.value
    }

    /// Number of lock acquisitions so far (reading the counters is not
    /// one).
    pub fn lock_acquisitions(&self) -> u64 {
        self.state.lock().lock_acquisitions
    }

    /// Number of updates applied so far.
    pub fn updates(&self) -> u64 {
        self.state.lock().updates
    }

    /// Resets the counters (not the load), e.g. between experiment runs.
    pub fn reset_counters(&self) {
        let mut s = self.state.lock();
        s.lock_acquisitions = 0;
        s.updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pelt_constants_are_plausible() {
        // y^32 must be 0.5 (half-life of 32 periods).
        assert!((PELT_DECAY.powi(32) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_vcpu_equals_coalesced() {
        let t = LoadTracker::pelt_default();
        let vanilla = RqLoad::new();
        let horse = RqLoad::new();
        let v = vanilla.apply_per_vcpu(t.update(), 36);
        let h = horse.apply_coalesced(t.coalesce(36));
        assert!((v - h).abs() < 1e-6 * v.abs());
    }

    #[test]
    fn lock_counts_differ_between_paths() {
        let t = LoadTracker::pelt_default();
        let vanilla = RqLoad::new();
        let horse = RqLoad::new();
        vanilla.apply_per_vcpu(t.update(), 36);
        horse.apply_coalesced(t.coalesce(36));
        assert_eq!(vanilla.lock_acquisitions(), 36);
        assert_eq!(horse.lock_acquisitions(), 1);
        assert_eq!(vanilla.updates(), 36);
        assert_eq!(horse.updates(), 1);
    }

    #[test]
    fn decay_shrinks_load() {
        let l = RqLoad::new();
        l.apply_per_vcpu(LoadTracker::pelt_default().update(), 1);
        let before = l.get();
        let after = l.decay(PELT_DECAY);
        assert!(after < before);
    }

    #[test]
    fn counters_reset() {
        let l = RqLoad::new();
        l.get();
        l.decay(0.5);
        assert!(l.lock_acquisitions() >= 2);
        l.reset_counters();
        assert_eq!(l.lock_acquisitions(), 0);
        assert_eq!(l.updates(), 0);
    }

    #[test]
    fn custom_tracker_coefficients() {
        let t = LoadTracker::new(0.5, 10.0).unwrap();
        assert_eq!(t.update().apply(100.0), 60.0);
        assert!(LoadTracker::new(f64::NAN, 0.0).is_err());
    }
}
