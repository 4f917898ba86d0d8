//! Planted bugs for the harness's negative self-test.
//!
//! A checker that never fires is worse than no checker: it manufactures
//! false confidence. `check_suite --mutate <name>` plants one of these
//! known bugs into the system under test (never into the oracle) and
//! the run must fail — CI asserts the non-zero exit. Each mutation
//! targets a different checker, so together they prove every layer of
//! the harness has teeth.

use std::fmt;

/// A known bug the harness must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Two adjacent nodes of the post-splice run queue are swapped —
    /// models a 𝒫²𝒮ℳ splice that linked a sub-list in the wrong order.
    /// Caught by the differential merge oracle (queue contents diverge
    /// from the reference merge / sortedness breaks).
    SpliceMisorder,
    /// *B* mutates after `precompute` with no maintenance callback, and
    /// the merge proceeds against the stale plan. Caught by the
    /// differential merge oracle: either the staleness guard fires
    /// (reported as a planted-stale detection) or the merged queue
    /// diverges from the oracle.
    StaleMergePlan,
    /// The coalesced load update uses the paper's misprinted `n−1`
    /// geometric exponent instead of `n`. Caught by the coalescing
    /// oracle (closed form diverges from the sequential reference).
    CoalesceOffByOne,
    /// A recorded pool history is corrupted into a double handout (two
    /// completed takes return the same sandbox with no intervening
    /// put). Caught by the Wing–Gong linearizability checker.
    NonLinearizablePool,
    /// One real splice-worker thread links its anchor to the sub-list
    /// *tail* instead of the head, silently dropping the interior nodes
    /// of a length-≥ 2 splice. Caught by the stepped splice-worker
    /// explorer (merged queue diverges from the sequential merge-walk
    /// oracle, or the list invariants break).
    SpliceWorkerMisorder,
    /// The splice pool's dispatcher treats a countdown of ≤ 1 as "every
    /// worker done" and runs `finish_staged` with a block outstanding.
    /// Caught by the stepped hand-off explorer (the join condition reads
    /// true while a worker has not executed its block).
    SpliceHandoffEarlyJoin,
    /// `Vmm::start` enqueues on a uLL queue without settling it first:
    /// the plans of the sandboxes paused there are rebuilt against a
    /// queue that still holds a resident in transit, and go stale when
    /// it re-pauses. Caught by the stepped resident explorer (a plan
    /// disagrees with its queue minus the resident).
    ResidentSkipsSettle,
}

impl Mutation {
    /// Every mutation, in a fixed order.
    pub const ALL: [Mutation; 7] = [
        Mutation::SpliceMisorder,
        Mutation::StaleMergePlan,
        Mutation::CoalesceOffByOne,
        Mutation::NonLinearizablePool,
        Mutation::SpliceWorkerMisorder,
        Mutation::SpliceHandoffEarlyJoin,
        Mutation::ResidentSkipsSettle,
    ];

    /// The CLI name (`check_suite --mutate <name>`).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SpliceMisorder => "splice-misorder",
            Mutation::StaleMergePlan => "stale-plan",
            Mutation::CoalesceOffByOne => "coalesce-off-by-one",
            Mutation::NonLinearizablePool => "nonlinearizable-pool",
            Mutation::SpliceWorkerMisorder => "splice-worker-misorder",
            Mutation::SpliceHandoffEarlyJoin => "splice-handoff-early-join",
            Mutation::ResidentSkipsSettle => "resident-skips-settle",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Mutation> {
        Mutation::ALL.iter().copied().find(|m| m.name() == name)
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::from_name(m.name()), Some(m));
        }
        assert_eq!(Mutation::from_name("nope"), None);
    }
}
