//! End-to-end request reliability plane for the HORSE cluster.
//!
//! The invocation planes below this crate (platform, cluster) make a
//! single attempt fast; this crate makes a *request* reliable across
//! attempts, hosts, and membership changes — all on the virtual-time
//! axis, all deterministic per seed:
//!
//! * [`deadline`] — per-invocation deadline budgets enforced at the
//!   routing, pool-take, and resume boundaries with typed outcomes.
//! * [`retry`] — budget-aware capped-exponential retries with
//!   deterministic seeded jitter (a pure function of `(seed, submission,
//!   attempt)`, so replays are interleaving-independent).
//! * [`hedge`] — speculative duplicates fired at a p99-derived
//!   threshold, resolved first-wins with cancellation accounting.
//! * [`breaker`] — per-(function, host) circuit breakers
//!   (closed → open → half-open on rolling failure-rate windows).
//! * [`admission`] — ingress load shedding: inflight slots with reserved
//!   uLL capacity plus a deadline-feasibility gate.
//! * [`membership`] — seeded join/leave/crash churn schedules.
//! * [`stats`] — plane-wide accounting and the conservation invariant
//!   (`submissions == completions + sheds + deadline_misses +
//!   failures`) the `crates/check` oracle audits.
//!
//! This crate deliberately does not depend on the platform layer:
//! functions are raw `u64` keys and hosts are indices, so `horse-faas`
//! can depend on it and wire the plane through `Cluster`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod deadline;
pub mod hedge;
pub mod membership;
pub mod retry;
pub mod stats;
pub mod submission;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionSlot, ParkedSlot, ShedReason};
pub use breaker::{Breaker, BreakerConfig, BreakerRegistry, BreakerState, BreakerTransition};
pub use deadline::{Deadline, DeadlineBoundary, RequestClass};
pub use hedge::{resolve_first_wins, HedgeConfig, HedgeResolution, LatencyProfiles};
pub use membership::{ChurnConfig, ChurnEvent, ChurnSchedule};
pub use retry::{BackoffBudget, JitteredRetryPolicy};
pub use stats::{ReliabilityStats, StatsSnapshot};
pub use submission::SubmissionId;

/// Everything the cluster needs to run the reliability plane, bundled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Master seed the jitter and churn streams derive from.
    pub seed: u64,
    /// Retry schedule with deterministic jitter.
    pub retry: JitteredRetryPolicy,
    /// Hedging thresholds and warmup.
    pub hedge: HedgeConfig,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Ingress admission tuning.
    pub admission: AdmissionConfig,
}

impl ReliabilityConfig {
    /// Default tuning under one master seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            retry: JitteredRetryPolicy::default_with_seed(seed),
            hedge: HedgeConfig::default(),
            breaker: BreakerConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}
