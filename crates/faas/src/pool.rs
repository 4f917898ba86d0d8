//! The keep-alive policy and usage counters of a warm-sandbox pool.
//!
//! "FaaS platforms implement a keep-alive strategy, which consists of
//! keeping a sandbox active for a fixed time after the function that was
//! running ends its execution" (paper §1): paused sandboxes wait in a
//! per-function pool ([`ShardedWarmPool`](crate::ShardedWarmPool)) and are
//! evicted (destroyed) once idle longer than the keep-alive TTL — unless
//! they are *provisioned* (Azure Premium / Lambda Provisioned Concurrency
//! / Alibaba Provisioned Mode), in which case they never expire.

use horse_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Keep-alive policy of a warm pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeepAlive {
    /// Evict sandboxes idle longer than this duration (the common
    /// platform default is ~10 minutes).
    Ttl(SimDuration),
    /// Never evict: provisioned concurrency (the paper's premium-option
    /// warm starts).
    Provisioned,
}

impl KeepAlive {
    /// The typical public-cloud default: 10 minutes.
    pub fn default_ttl() -> Self {
        KeepAlive::Ttl(SimDuration::from_secs(600))
    }
}

/// Usage statistics of a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Requests served from the pool (warm hits).
    pub hits: u64,
    /// Requests that found the pool empty (cold fallbacks).
    pub misses: u64,
    /// Sandboxes evicted by keep-alive expiry.
    pub evictions: u64,
}
