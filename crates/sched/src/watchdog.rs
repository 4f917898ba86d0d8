//! Watchdog for the parallel 𝒫²𝒮ℳ splice.
//!
//! The paper's Algorithm 1 dispatches one thread per splice point and
//! assumes they all finish promptly; in a real kernel a splice worker can
//! be preempted, stalled on a remote cache line, or die with its CPU. The
//! watchdog bounds how long the merge waits on stragglers: when the
//! budget expires, the unfinished splice points are reclaimed and
//! completed sequentially on the resuming thread. The merge result is
//! identical (splices are disjoint, so completion order is free); only
//! the latency differs — the rescue pays the budget plus the sequential
//! completion cost, which the VMM's cost model accounts against the
//! resume and telemetry reports as `merge.straggler_rescue`.

use serde::{Deserialize, Serialize};

/// Default straggler budget: half a microsecond, chosen so a rescued
/// HORSE resume stays cheaper than a vanilla one (vanilla merge base is
/// ≈375 ns plus per-vCPU work) while being an order of magnitude above
/// a healthy splice's completion time.
pub const DEFAULT_SPLICE_BUDGET_NS: u64 = 500;

/// How a watchdog-bounded parallel merge should be re-executed after
/// some of its splice threads straggled or died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescuePlan {
    /// Splice points reclaimed from stragglers and completed
    /// sequentially.
    pub rescued_splices: usize,
}

/// Bounds the time a parallel splice may wait on straggling workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpliceWatchdog {
    budget_ns: u64,
}

impl Default for SpliceWatchdog {
    fn default() -> Self {
        Self {
            budget_ns: DEFAULT_SPLICE_BUDGET_NS,
        }
    }
}

impl SpliceWatchdog {
    /// A watchdog with an explicit budget.
    pub fn with_budget(budget_ns: u64) -> Self {
        Self { budget_ns }
    }

    /// The straggler budget, in virtual ns.
    pub fn budget_ns(&self) -> u64 {
        self.budget_ns
    }

    /// Plans the rescue of a merge that dispatched `splices` splice
    /// points and lost `lost` of its workers (straggled past the budget
    /// or died). The reclaimed splice points are completed sequentially;
    /// the survivors' work stands.
    pub fn plan_rescue(&self, splices: usize, lost: usize) -> RescuePlan {
        RescuePlan {
            rescued_splices: lost.min(splices),
        }
    }

    /// Latency charged to a rescued merge on top of the healthy parallel
    /// path: the full budget (the merge waited it out before reclaiming)
    /// plus `per_splice_ns` for each sequentially completed splice.
    pub fn rescue_penalty_ns(&self, rescued_splices: usize, per_splice_ns: f64) -> u64 {
        self.budget_ns + (rescued_splices as f64 * per_splice_ns).round() as u64
    }

    /// Supervises a *real-thread* merge after the fact: given each
    /// worker's measured wall-clock duration and a wall budget, reports
    /// how many workers overran as a [`RescuePlan`] (`rescued_splices`
    /// counts overrunning workers).
    ///
    /// Purely observational — the workers already joined, their splices
    /// already stand, and nothing here feeds the virtual cost axis or the
    /// telemetry recorder. It exists so the wall-clock bench and the VMM's
    /// pool stats can flag runners whose threads straggle for real, with
    /// the same vocabulary the virtual-axis rescue uses.
    pub fn supervise_wall(&self, per_worker_nanos: &[u64], wall_budget_nanos: u64) -> RescuePlan {
        RescuePlan {
            rescued_splices: per_worker_nanos
                .iter()
                .filter(|&&d| d > wall_budget_nanos)
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescue_clamps_to_splice_count() {
        let w = SpliceWatchdog::default();
        assert_eq!(w.budget_ns(), DEFAULT_SPLICE_BUDGET_NS);
        let plan = w.plan_rescue(4, 1);
        assert_eq!(plan.rescued_splices, 1);
        let all_lost = w.plan_rescue(4, 9);
        assert_eq!(all_lost.rescued_splices, 4);
        let none = w.plan_rescue(0, 3);
        assert_eq!(none.rescued_splices, 0);
    }

    #[test]
    fn penalty_grows_with_rescued_splices() {
        let w = SpliceWatchdog::with_budget(100);
        assert_eq!(w.rescue_penalty_ns(0, 4.0), 100);
        assert_eq!(w.rescue_penalty_ns(3, 4.0), 112);
    }

    #[test]
    fn supervise_wall_counts_overruns() {
        let w = SpliceWatchdog::default();
        let plan = w.supervise_wall(&[100, 5_000, 200, 9_000], 1_000);
        assert_eq!(plan.rescued_splices, 2);
        // Budget is inclusive: exactly-on-budget workers are healthy.
        let at_budget = w.supervise_wall(&[1_000, 1_000], 1_000);
        assert_eq!(at_budget.rescued_splices, 0);
    }

    #[test]
    fn supervise_wall_counts_every_overrun_and_none_when_empty() {
        let w = SpliceWatchdog::default();
        let plan = w.supervise_wall(&[5, 6, 7], 1);
        assert_eq!(plan.rescued_splices, 3);
        let empty = w.supervise_wall(&[], 100);
        assert_eq!(empty.rescued_splices, 0);
    }
}
