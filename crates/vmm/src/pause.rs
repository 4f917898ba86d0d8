//! Pause pipeline instrumentation.
//!
//! HORSE moves work *onto* the pause path (merge_vcpus construction,
//! 𝒫²𝒮ℳ precomputation, coalescing constants — §4.1.3/§4.2.2). This
//! module gives the pause the same per-step instrumentation the resume
//! has, so the trade can be quantified: what the resume saves, the pause
//! pays — off the critical path.

use horse_telemetry::EventKind;
use serde::{Deserialize, Serialize};

/// Steps of the sandbox pause pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PauseStep {
    /// Dequeue every vCPU from its run queue.
    DequeueVcpus,
    /// Build the sorted `merge_vcpus` list (HORSE only).
    BuildMergeList,
    /// Assign the target ull_runqueue (balancing, §4.1.3; HORSE only).
    AssignUllQueue,
    /// Precompute `arrayB`/`posA` (HORSE only).
    PrecomputePlan,
    /// Precompute the coalesced load-update constants (HORSE only,
    /// §4.2.2).
    PrecomputeCoalesce,
}

impl PauseStep {
    /// All steps, in report order (a pause assigns its queue before it
    /// builds the merge list).
    pub const ALL: [PauseStep; 5] = [
        PauseStep::DequeueVcpus,
        PauseStep::BuildMergeList,
        PauseStep::AssignUllQueue,
        PauseStep::PrecomputePlan,
        PauseStep::PrecomputeCoalesce,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PauseStep::DequeueVcpus => "dequeue",
            PauseStep::BuildMergeList => "merge_list",
            PauseStep::AssignUllQueue => "assign_queue",
            PauseStep::PrecomputePlan => "plan",
            PauseStep::PrecomputeCoalesce => "coalesce",
        }
    }

    /// The order a pause runs its steps in, which is also the order of
    /// its spans: the queue is assigned before the merge list is built.
    pub(crate) const RUN_ORDER: [PauseStep; 5] = [
        PauseStep::DequeueVcpus,
        PauseStep::AssignUllQueue,
        PauseStep::BuildMergeList,
        PauseStep::PrecomputePlan,
        PauseStep::PrecomputeCoalesce,
    ];

    /// The telemetry span this step is recorded as.
    pub(crate) fn event_kind(self) -> EventKind {
        match self {
            PauseStep::DequeueVcpus => EventKind::PauseDequeue,
            PauseStep::BuildMergeList => EventKind::PauseBuildList,
            PauseStep::AssignUllQueue => EventKind::PauseAssignQueue,
            PauseStep::PrecomputePlan => EventKind::PausePlan,
            PauseStep::PrecomputeCoalesce => EventKind::PauseCoalesce,
        }
    }
}

/// Per-step timing of one pause, in virtual nanoseconds.
///
/// # Example
///
/// ```
/// use horse_vmm::{PauseBreakdown, PauseStep};
///
/// let mut b = PauseBreakdown::default();
/// b.set(PauseStep::DequeueVcpus, 100);
/// b.set(PauseStep::PrecomputePlan, 250);
/// assert_eq!(b.total_ns(), 350);
/// assert!((b.precompute_share() - 250.0 / 350.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PauseBreakdown {
    steps: [u64; 5],
}

impl PauseBreakdown {
    /// Sets the duration of one step.
    pub fn set(&mut self, step: PauseStep, ns: u64) {
        self.steps[step as usize] = ns;
    }

    /// Duration of one step.
    pub fn get(&self, step: PauseStep) -> u64 {
        self.steps[step as usize]
    }

    /// Total pause duration.
    pub fn total_ns(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Fraction of the pause spent in HORSE's precomputation steps (the
    /// cost moved off the resume critical path).
    pub fn precompute_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        let pre = self.get(PauseStep::BuildMergeList)
            + self.get(PauseStep::AssignUllQueue)
            + self.get(PauseStep::PrecomputePlan)
            + self.get(PauseStep::PrecomputeCoalesce);
        pre as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_order() {
        assert_eq!(PauseStep::ALL.len(), 5);
        let labels: Vec<_> = PauseStep::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["dequeue", "merge_list", "assign_queue", "plan", "coalesce"]
        );
        for (i, step) in PauseStep::ALL.into_iter().enumerate() {
            assert_eq!(step as usize, i);
        }
    }

    #[test]
    fn accounting() {
        let mut b = PauseBreakdown::default();
        assert_eq!(b.total_ns(), 0);
        assert_eq!(b.precompute_share(), 0.0);
        for (i, s) in PauseStep::ALL.iter().enumerate() {
            b.set(*s, (i as u64 + 1) * 10);
        }
        assert_eq!(b.total_ns(), 150);
        assert_eq!(b.get(PauseStep::PrecomputeCoalesce), 50);
        // All but dequeue (10) are precompute: 140/150.
        assert!((b.precompute_share() - 140.0 / 150.0).abs() < 1e-12);
    }
}
