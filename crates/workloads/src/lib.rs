//! # horse-workloads — the paper's function payloads
//!
//! The paper evaluates three categories of ultra-low-latency (uLL)
//! workloads (§2) plus a long-running occupant (§5.4). All four are
//! implemented here as real, executable Rust functions:
//!
//! | Category | Function | Paper execution time |
//! |----------|----------|----------------------|
//! | 1 (≤ 20 µs) | [`Firewall`] — stateless allow-list filter | 17 µs |
//! | 2 (≤ 1 µs)  | [`NatTable`] — header rewriting NAT        | 1.5 µs |
//! | 3 (100s ns) | [`index_filter`] — indexes above threshold | 0.7 µs |
//! | long        | [`Thumbnail`] — image downscale (SeBS-like)| ≥ 100 ms |
//!
//! §5.2's sysbench CPU-stress sandboxes are not executed: the overhead
//! experiment (`horse_faas::overhead`) models each one as a busy core.
//!
//! The paper implements the uLL functions in Node.JS; re-implemented in
//! Rust they are faster in absolute terms, so the *simulated* service
//! times used by `horse-faas` are taken from [`Category::mean_exec_ns`]
//! (Table 1 calibration), while this crate's code is what examples,
//! benches and tests actually execute.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod filter;
mod firewall;
mod nat;
mod packet;
mod thumbnail;

pub use filter::{index_filter, IndexFilter, FILTER_ARRAY_LEN};
pub use firewall::{Firewall, FirewallRule, Verdict};
pub use nat::{NatError, NatRule, NatTable};
pub use packet::{Protocol, RequestHeader};
pub use thumbnail::{Image, Thumbnail};

use serde::{Deserialize, Serialize};

/// The paper's three uLL workload categories (§2) plus the long-running
/// class used in §5.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Execution time ≤ 20 µs (stateless firewall).
    Cat1,
    /// Execution time ≤ 1 µs (NAT).
    Cat2,
    /// Execution time of hundreds of nanoseconds (index filter).
    Cat3,
    /// Longer-running serverless functions (thumbnail generation; a
    /// "non-negligible fraction of serverless functions has an execution
    /// time longer than 1 s", §5.4).
    LongRunning,
}

impl Category {
    /// The three uLL categories, in paper order.
    pub const ULL: [Category; 3] = [Category::Cat1, Category::Cat2, Category::Cat3];

    /// Mean execution time used for simulation, from Table 1
    /// (17 µs / 1.5 µs / 0.7 µs) and §5.4 for the long class.
    pub fn mean_exec_ns(self) -> u64 {
        match self {
            Category::Cat1 => 17_000,
            Category::Cat2 => 1_500,
            Category::Cat3 => 700,
            Category::LongRunning => 1_200_000_000,
        }
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Category::Cat1 => "Category 1 (firewall, <=20us)",
            Category::Cat2 => "Category 2 (NAT, <=1us)",
            Category::Cat3 => "Category 3 (filter, 100s of ns)",
            Category::LongRunning => "long-running (thumbnail)",
        }
    }

    /// Short label for table columns.
    pub fn short_label(self) -> &'static str {
        match self {
            Category::Cat1 => "cat1",
            Category::Cat2 => "cat2",
            Category::Cat3 => "cat3",
            Category::LongRunning => "long",
        }
    }

    /// Whether this category has uLL latency requirements.
    pub fn is_ull(self) -> bool {
        !matches!(self, Category::LongRunning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_match_table1() {
        assert_eq!(Category::Cat1.mean_exec_ns(), 17_000);
        assert_eq!(Category::Cat2.mean_exec_ns(), 1_500);
        assert_eq!(Category::Cat3.mean_exec_ns(), 700);
        assert!(Category::LongRunning.mean_exec_ns() >= 1_000_000_000);
    }

    #[test]
    fn ull_flags() {
        for c in Category::ULL {
            assert!(c.is_ull());
            assert!(!c.label().is_empty());
            assert!(!c.short_label().is_empty());
        }
        assert!(!Category::LongRunning.is_ull());
    }
}
