//! Resume pipeline instrumentation.
//!
//! The paper decomposes a sandbox resume into six steps (§3.1) and
//! evaluates four resume setups (§5.1): `vanil`, `ppsm`, `coal` and
//! `Horse`. This module defines those vocabularies plus the per-step
//! breakdown that Figure 2 and Figure 3 are made of.

use horse_telemetry::EventKind;
use serde::{Deserialize, Serialize};

/// The six steps of a sandbox resume (paper §3.1 ①–⑥).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResumeStep {
    /// ① Parse the resume command's input parameters.
    ParseInput,
    /// ② Acquire the lock serializing concurrent resumes.
    AcquireLock,
    /// ③ Sanity checks (is the target actually paused?).
    SanityChecks,
    /// ④ Sorted merge of each vCPU into a run queue — the first dominant
    /// cost.
    SortedMerge,
    /// ⑤ Lock-protected run-queue load update — the second dominant cost.
    LoadUpdate,
    /// ⑥ Release the lock, flip the sandbox state to running.
    Finalize,
}

impl ResumeStep {
    /// All steps, pipeline order.
    pub const ALL: [ResumeStep; 6] = [
        ResumeStep::ParseInput,
        ResumeStep::AcquireLock,
        ResumeStep::SanityChecks,
        ResumeStep::SortedMerge,
        ResumeStep::LoadUpdate,
        ResumeStep::Finalize,
    ];

    /// Short label used in reports ("①parse" style without unicode).
    pub fn label(self) -> &'static str {
        match self {
            ResumeStep::ParseInput => "parse",
            ResumeStep::AcquireLock => "lock",
            ResumeStep::SanityChecks => "sanity",
            ResumeStep::SortedMerge => "sorted_merge",
            ResumeStep::LoadUpdate => "load_update",
            ResumeStep::Finalize => "finalize",
        }
    }

    /// The telemetry span this step is recorded as.
    pub(crate) fn event_kind(self) -> EventKind {
        match self {
            ResumeStep::ParseInput => EventKind::ResumeParse,
            ResumeStep::AcquireLock => EventKind::ResumeLock,
            ResumeStep::SanityChecks => EventKind::ResumeSanity,
            ResumeStep::SortedMerge => EventKind::ResumeSortedMerge,
            ResumeStep::LoadUpdate => EventKind::ResumeLoadUpdate,
            ResumeStep::Finalize => EventKind::ResumeFinalize,
        }
    }
}

/// The four resume setups of the paper's §5.1 evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ResumeMode {
    /// Unmodified resume: per-vCPU sorted inserts + per-vCPU lock-protected
    /// load updates.
    #[default]
    Vanilla,
    /// 𝒫²𝒮ℳ only: O(1) splice, but per-vCPU load updates.
    Ppsm,
    /// Coalescing only: per-vCPU sorted inserts (onto one queue), single
    /// coalesced load update.
    Coal,
    /// Full HORSE: 𝒫²𝒮ℳ + coalesced load update.
    Horse,
}

impl ResumeMode {
    /// All modes, in the paper's Figure 3 order.
    pub const ALL: [ResumeMode; 4] = [
        ResumeMode::Vanilla,
        ResumeMode::Ppsm,
        ResumeMode::Coal,
        ResumeMode::Horse,
    ];

    /// The paper's setup name (`vanil`, `ppsm`, `coal`, `horse`).
    pub fn label(self) -> &'static str {
        match self {
            ResumeMode::Vanilla => "vanil",
            ResumeMode::Ppsm => "ppsm",
            ResumeMode::Coal => "coal",
            ResumeMode::Horse => "horse",
        }
    }

    /// Whether this mode resumes through the 𝒫²𝒮ℳ splice.
    pub fn uses_ppsm(self) -> bool {
        matches!(self, ResumeMode::Ppsm | ResumeMode::Horse)
    }

    /// Whether this mode applies the coalesced load update.
    pub fn uses_coalescing(self) -> bool {
        matches!(self, ResumeMode::Coal | ResumeMode::Horse)
    }
}

impl std::fmt::Display for ResumeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-step timing of one resume, in virtual nanoseconds.
///
/// # Example
///
/// ```
/// use horse_vmm::{ResumeBreakdown, ResumeStep};
///
/// let mut b = ResumeBreakdown::default();
/// b.set(ResumeStep::SortedMerge, 500);
/// b.set(ResumeStep::LoadUpdate, 400);
/// b.set(ResumeStep::ParseInput, 100);
/// assert_eq!(b.total_ns(), 1000);
/// assert!((b.share(ResumeStep::SortedMerge) - 0.5).abs() < 1e-12);
/// assert!((b.dominant_share() - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResumeBreakdown {
    steps: [u64; 6],
}

impl ResumeBreakdown {
    /// Sets the duration of one step.
    pub fn set(&mut self, step: ResumeStep, ns: u64) {
        self.steps[step as usize] = ns;
    }

    /// Duration of one step.
    pub fn get(&self, step: ResumeStep) -> u64 {
        self.steps[step as usize]
    }

    /// Total resume duration.
    pub fn total_ns(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Fraction of the total spent in one step (0 for an empty breakdown).
    pub fn share(&self, step: ResumeStep) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.get(step) as f64 / total as f64
        }
    }

    /// Combined share of the two dominant steps ④+⑤ — the paper's
    /// 87.5 %–93.1 % observation (§3.2).
    pub fn dominant_share(&self) -> f64 {
        self.share(ResumeStep::SortedMerge) + self.share(ResumeStep::LoadUpdate)
    }

    /// The single step with the largest duration, or `None` for an empty
    /// breakdown. Ties resolve to the earlier pipeline step.
    pub fn dominant_step(&self) -> Option<ResumeStep> {
        if self.total_ns() == 0 {
            return None;
        }
        ResumeStep::ALL
            .into_iter()
            .max_by_key(|&s| (self.get(s), std::cmp::Reverse(s as usize)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_cover_pipeline() {
        assert_eq!(ResumeStep::ALL.len(), 6);
        let labels: Vec<_> = ResumeStep::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "parse",
                "lock",
                "sanity",
                "sorted_merge",
                "load_update",
                "finalize"
            ]
        );
        for (i, step) in ResumeStep::ALL.into_iter().enumerate() {
            assert_eq!(step as usize, i);
        }
    }

    #[test]
    fn mode_flags() {
        assert!(!ResumeMode::Vanilla.uses_ppsm());
        assert!(!ResumeMode::Vanilla.uses_coalescing());
        assert!(ResumeMode::Ppsm.uses_ppsm());
        assert!(!ResumeMode::Ppsm.uses_coalescing());
        assert!(!ResumeMode::Coal.uses_ppsm());
        assert!(ResumeMode::Coal.uses_coalescing());
        assert!(ResumeMode::Horse.uses_ppsm());
        assert!(ResumeMode::Horse.uses_coalescing());
        assert_eq!(ResumeMode::Horse.to_string(), "horse");
        assert_eq!(ResumeMode::ALL.len(), 4);
        for (i, mode) in ResumeMode::ALL.into_iter().enumerate() {
            assert_eq!(mode as usize, i);
        }
    }

    #[test]
    fn breakdown_accounting() {
        let mut b = ResumeBreakdown::default();
        assert_eq!(b.total_ns(), 0);
        assert_eq!(b.share(ResumeStep::Finalize), 0.0);
        for (i, s) in ResumeStep::ALL.iter().enumerate() {
            b.set(*s, (i as u64 + 1) * 10);
        }
        assert_eq!(b.total_ns(), 210);
        assert_eq!(b.get(ResumeStep::Finalize), 60);
        assert!((b.dominant_share() - (40.0 + 50.0) / 210.0).abs() < 1e-12);
    }
}
