//! The host scheduler: arena, run queues, placement and uLL reservation.

use crate::flavor::SchedFlavor;
use crate::governor::{Governor, GovernorPolicy, PState};
use crate::load::LoadTracker;
use crate::runqueue::{RqId, RqKind, RunQueue};
use crate::topology::{CpuId, CpuTopology};
use crate::vcpu::{SandboxId, Vcpu};
use horse_core::{
    Arena, ArenaStats, MergePlan, MergeReport, NodeRef, PlanBuffers, SortedList, SpliceMode,
    StalePlanError,
};
use horse_telemetry::{Counter, EventKind, Gauge, Recorder};

/// Configuration of a [`HostScheduler`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Physical topology (one general run queue per logical CPU, minus the
    /// reserved uLL queues).
    pub topology: CpuTopology,
    /// Number of CPUs whose queues are reserved as `ull_runqueue`s
    /// (paper §4.1.3: one by default, more under high uLL trigger
    /// frequency).
    pub ull_queues: usize,
    /// DVFS policy.
    pub governor_policy: GovernorPolicy,
    /// Scheduling policy, determining the run queues' sort-key semantics
    /// (credit2 under Xen, CFS under Linux-KVM — paper §3.1).
    pub flavor: SchedFlavor,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            topology: CpuTopology::r650(false),
            ull_queues: 1,
            governor_policy: GovernorPolicy::Performance,
            flavor: SchedFlavor::default(),
        }
    }
}

/// The host scheduler substrate.
///
/// Owns the node arena shared by every run queue (which is what makes the
/// O(1) 𝒫²𝒮ℳ splice between a paused sandbox's `merge_vcpus` list and an
/// `ull_runqueue` possible), the per-CPU queues, the PELT load tracker and
/// the DVFS governor.
///
/// # Example
///
/// ```
/// use horse_sched::{HostScheduler, SchedConfig, SandboxId, Vcpu, VcpuId};
///
/// let mut sched = HostScheduler::new(SchedConfig::default());
/// let rq = sched.least_loaded_general();
/// let v = Vcpu::new(VcpuId::new(0), SandboxId::new(0));
/// let node = sched.enqueue_vcpu(rq, 1000, v);
/// assert_eq!(sched.queue(rq).len(), 1);
/// sched.dequeue_vcpu(rq, node);
/// assert_eq!(sched.queue(rq).len(), 0);
/// ```
#[derive(Debug)]
pub struct HostScheduler {
    arena: Arena<Vcpu>,
    queues: Vec<RunQueue>,
    general: Vec<RqId>,
    ull: Vec<RqId>,
    tracker: LoadTracker,
    governor: Governor,
    flavor: SchedFlavor,
    topology: CpuTopology,
    /// Telemetry sink; disabled (and inert) by default.
    recorder: Recorder,
}

impl HostScheduler {
    /// Builds the scheduler: one run queue per logical CPU, the last
    /// `ull_queues` of which are reserved for uLL sandboxes.
    ///
    /// # Panics
    ///
    /// Panics if `ull_queues >= logical CPUs` (at least one general queue
    /// must remain).
    pub fn new(config: SchedConfig) -> Self {
        let cpus = config.topology.logical_cpus() as usize;
        assert!(
            config.ull_queues < cpus,
            "cannot reserve {} of {cpus} queues",
            config.ull_queues
        );
        let mut queues = Vec::with_capacity(cpus);
        let mut general = Vec::new();
        let mut ull = Vec::new();
        for i in 0..cpus {
            let id = RqId(i);
            let kind = if i >= cpus - config.ull_queues {
                RqKind::Ull
            } else {
                RqKind::General
            };
            queues.push(RunQueue::new(id, kind, CpuId::new(i as u32)));
            match kind {
                RqKind::General => general.push(id),
                RqKind::Ull => ull.push(id),
            }
        }
        Self {
            arena: Arena::with_capacity(cpus * 4),
            queues,
            general,
            ull,
            tracker: LoadTracker::pelt_default(),
            governor: Governor::xeon_8360y(config.governor_policy),
            flavor: config.flavor,
            topology: config.topology,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs a telemetry recorder. Recorders are cheap clones sharing
    /// one sink, so the VMM and platform typically pass the same one down.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The active telemetry recorder (disabled unless one was installed).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The shared node arena (read access, e.g. for 𝒫²𝒮ℳ plan updates).
    pub fn arena(&self) -> &Arena<Vcpu> {
        &self.arena
    }

    /// The shared node arena (exclusive access).
    pub fn arena_mut(&mut self) -> &mut Arena<Vcpu> {
        &mut self.arena
    }

    /// PELT load tracker in use.
    pub fn tracker(&self) -> LoadTracker {
        self.tracker
    }

    /// DVFS governor in use.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Scheduling policy in effect (sort-key semantics).
    pub fn flavor(&self) -> SchedFlavor {
        self.flavor
    }

    /// Number of run queues (== logical CPUs).
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Accessor for one queue.
    ///
    /// # Panics
    ///
    /// Panics if `rq` does not belong to this scheduler.
    pub fn queue(&self, rq: RqId) -> &RunQueue {
        &self.queues[rq.0]
    }

    /// Ids of the general-purpose queues.
    pub fn general_queues(&self) -> &[RqId] {
        &self.general
    }

    /// Ids of the reserved uLL queues.
    pub fn ull_queues(&self) -> &[RqId] {
        &self.ull
    }

    /// The general queue with the lowest current load (wake-up placement).
    pub fn least_loaded_general(&self) -> RqId {
        *self
            .general
            .iter()
            .min_by(|a, b| {
                let la = self.queues[a.0].load().get();
                let lb = self.queues[b.0].load().get();
                la.partial_cmp(&lb).expect("loads are finite")
            })
            .expect("at least one general queue")
    }

    /// General queues on a given socket (NUMA-aware placement: keeping a
    /// sandbox's vCPUs on one socket avoids the cross-socket traffic the
    /// paper's related work highlights for NUMA VMs).
    pub fn general_queues_on_socket(&self, socket: u32) -> impl Iterator<Item = RqId> + '_ {
        let topology = self.topology;
        self.general
            .iter()
            .copied()
            .filter(move |rq| topology.socket_of(CpuId::new(rq.0 as u32)) == socket)
    }

    /// The least-loaded general queue on one socket, or `None` if the
    /// socket has no general queues.
    pub fn least_loaded_general_on_socket(&self, socket: u32) -> Option<RqId> {
        self.general_queues_on_socket(socket).min_by(|a, b| {
            let la = self.queues[a.0].load().get();
            let lb = self.queues[b.0].load().get();
            la.partial_cmp(&lb).expect("loads are finite")
        })
    }

    /// Socket of a queue's CPU.
    pub fn socket_of_queue(&self, rq: RqId) -> u32 {
        self.topology.socket_of(self.queues[rq.0].cpu())
    }

    /// Chooses the ull_runqueue for a sandbox being paused, balancing by
    /// the number of paused sandboxes already assigned to each queue
    /// (paper §4.1.3), and records the assignment.
    ///
    /// # Panics
    ///
    /// Panics if every uLL queue has been marked failed; callers that can
    /// degrade should use [`HostScheduler::try_assign_ull_queue`].
    pub fn assign_ull_queue(&mut self) -> RqId {
        self.try_assign_ull_queue()
            .expect("no healthy uLL queue available")
    }

    /// Like [`HostScheduler::assign_ull_queue`], but skips queues marked
    /// failed and returns `None` when no healthy uLL queue remains (the
    /// caller then degrades to a vanilla, plan-less pause).
    pub fn try_assign_ull_queue(&mut self) -> Option<RqId> {
        let id = *self
            .ull
            .iter()
            .filter(|id| !self.queues[id.0].is_failed())
            .min_by_key(|id| self.queues[id.0].paused_assigned())?;
        self.queues[id.0].inc_paused();
        Some(id)
    }

    /// Releases a pause-time assignment made by
    /// [`HostScheduler::assign_ull_queue`] (the sandbox resumed or was
    /// destroyed).
    pub fn release_ull_queue(&mut self, rq: RqId) {
        debug_assert_eq!(self.queues[rq.0].kind(), RqKind::Ull);
        self.queues[rq.0].dec_paused();
    }

    /// Sorted-inserts a vCPU into a run queue (the vanilla per-vCPU
    /// placement, paper step ④). Does **not** touch the load variable;
    /// pair with [`HostScheduler::load_update_per_vcpu`].
    pub fn enqueue_vcpu(&mut self, rq: RqId, credit: i64, vcpu: Vcpu) -> NodeRef {
        let q = &mut self.queues[rq.0];
        q.list.insert_sorted(&mut self.arena, credit, vcpu)
    }

    /// Removes a vCPU node from a queue (pause path). Returns its credit
    /// and payload.
    ///
    /// # Panics
    ///
    /// Panics if the node is not on that queue.
    pub fn dequeue_vcpu(&mut self, rq: RqId, node: NodeRef) -> (i64, Vcpu) {
        self.queues[rq.0]
            .list
            .remove(&mut self.arena, node)
            .expect("vCPU node not on the given run queue")
    }

    /// Removes the `n` vCPUs `sandbox` holds on a queue (pause path),
    /// appending their credits and payloads to `out` in queue order: one
    /// walk of the queue that stops at the n-th, where `n` calls of
    /// [`Self::dequeue_vcpu`] each walk to their node's predecessor.
    /// Returns the number of queue nodes visited.
    ///
    /// # Panics
    ///
    /// Panics if the queue holds fewer than `n` vCPUs of that sandbox.
    pub fn dequeue_sandbox(
        &mut self,
        rq: RqId,
        sandbox: SandboxId,
        n: usize,
        out: &mut Vec<(i64, Vcpu)>,
    ) -> usize {
        self.queues[rq.0].list.remove_where(
            &mut self.arena,
            n,
            |vcpu| vcpu.sandbox == sandbox,
            |credit, vcpu| out.push((credit, vcpu)),
        )
    }

    /// Pops the front (least-credit) vCPU for dispatch.
    pub fn pick_next(&mut self, rq: RqId) -> Option<(i64, Vcpu)> {
        self.queues[rq.0].list.pop_front(&mut self.arena)
    }

    /// Vanilla load update for an `n`-vCPU placement: `n` lock-protected
    /// affine updates (paper step ⑤).
    pub fn load_update_per_vcpu(&self, rq: RqId, n: u32) -> f64 {
        self.recorder
            .instant(EventKind::LoadUpdate, 0, u64::from(n));
        self.recorder
            .count(Counter::PerVcpuLoadUpdates, u64::from(n));
        self.queues[rq.0]
            .load()
            .apply_per_vcpu(self.tracker.update(), n)
    }

    /// HORSE load update: one lock acquisition applying the coalesced
    /// update precomputed at pause time (paper §4.2).
    pub fn load_update_coalesced(&self, rq: RqId, coalesced: horse_core::CoalescedUpdate) -> f64 {
        self.recorder
            .instant(EventKind::LoadCoalesce, 0, u64::from(coalesced.n()));
        self.recorder.count(Counter::CoalescedLoadUpdates, 1);
        self.queues[rq.0].load().apply_coalesced(coalesced)
    }

    /// Builds a 𝒫²𝒮ℳ plan for merging `merge_vcpus` into the given uLL
    /// queue (pause-time precomputation, paper §4.1.3).
    ///
    /// # Panics
    ///
    /// Panics if `rq` is not a reserved uLL queue — plans against general
    /// queues would have to be maintained for every queue, which is the
    /// cost explosion §4.1.3 explicitly avoids.
    pub fn ull_precompute(&self, rq: RqId, merge_vcpus: SortedList) -> MergePlan {
        self.ull_precompute_in(rq, merge_vcpus, PlanBuffers::default())
    }

    /// [`Self::ull_precompute`] reusing recycled plan buffers (from
    /// [`Self::ull_merge_recycling`] or
    /// `MergePlan::into_list_recycling`), so steady-state pause loops
    /// build plans without heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `rq` is not a reserved uLL queue (same contract as
    /// [`Self::ull_precompute`]).
    pub fn ull_precompute_in(
        &self,
        rq: RqId,
        merge_vcpus: SortedList,
        buffers: PlanBuffers,
    ) -> MergePlan {
        assert_eq!(
            self.queues[rq.0].kind(),
            RqKind::Ull,
            "P2SM plans are only maintained for reserved uLL queues"
        );
        MergePlan::precompute_in(&self.arena, &self.queues[rq.0].list, merge_vcpus, buffers)
    }

    /// Executes a 𝒫²𝒮ℳ merge into the given uLL queue on the calling
    /// thread (resume-time splice, paper Algorithm 1), handing back the
    /// plan's buffers for reuse in a future [`Self::ull_precompute_in`].
    /// It is the staged protocol run as one block, finished by
    /// [`Self::ull_finish_staged`]; `mode` has a single value (see
    /// `SpliceMode`).
    ///
    /// # Errors
    ///
    /// Propagates [`StalePlanError`] if the plan no longer matches the
    /// queue (the stale plan's buffers are dropped — the cold path).
    pub fn ull_merge_recycling(
        &mut self,
        rq: RqId,
        plan: MergePlan,
        _mode: SpliceMode,
    ) -> Result<(MergeReport, PlanBuffers), StalePlanError> {
        plan.stage(&self.queues[rq.0].list)?
            .block(0, 1)
            .execute_on(self.arena.links());
        Ok(self.ull_finish_staged(rq, plan))
    }

    /// Completes a staged 𝒫²𝒮ℳ merge (see `MergePlan::stage`) whose node
    /// splices were already executed, by a caller-owned worker pool or by
    /// [`Self::ull_merge_recycling`]: runs `MergePlan::finish_staged`
    /// against the queue and emits the merge's telemetry, one
    /// [`EventKind::RunqueueMerge`] instant and one `Counter::Splices`
    /// increment.
    ///
    /// The caller must have obtained the staged view from this scheduler's
    /// queue (`MergePlan::stage(self.queue_list(rq))`) and joined every
    /// worker before calling.
    pub fn ull_finish_staged(&mut self, rq: RqId, plan: MergePlan) -> (MergeReport, PlanBuffers) {
        let q = &mut self.queues[rq.0];
        let (report, buffers) = plan.finish_staged(&self.arena, &mut q.list);
        self.recorder
            .instant(EventKind::RunqueueMerge, 0, report.splices as u64);
        self.recorder.count(Counter::Splices, report.splices as u64);
        (report, buffers)
    }

    /// Vanilla sorted merge of a standalone list into a queue — the
    /// degradation path taken when a 𝒫²𝒮ℳ plan fails verification at
    /// resume time (the list is then the plan's reconstructed *A*, see
    /// `MergePlan::into_list`). O(|A|+|B|) `merge_walk`, semantics
    /// identical to a successful splice. Returns the number of vCPUs
    /// merged.
    pub fn fallback_merge(&mut self, rq: RqId, list: SortedList) -> usize {
        let merged = list.len();
        let q = &mut self.queues[rq.0];
        q.list.merge_walk(&self.arena, list);
        merged
    }

    /// Marks a queue's CPU as failed (chaos plane: whole-host or per-CPU
    /// failure). Failed uLL queues are skipped by
    /// [`HostScheduler::try_assign_ull_queue`]; the caller is responsible
    /// for migrating the queue's current and paused occupants.
    pub fn fail_queue(&mut self, rq: RqId) {
        self.queues[rq.0].set_failed(true);
    }

    /// Clears a failure mark (the CPU came back).
    pub fn revive_queue(&mut self, rq: RqId) {
        self.queues[rq.0].set_failed(false);
    }

    /// Whether a queue is currently marked failed.
    pub fn queue_is_failed(&self, rq: RqId) -> bool {
        self.queues[rq.0].is_failed()
    }

    /// Ids of the uLL queues not marked failed.
    pub fn healthy_ull_queues(&self) -> impl Iterator<Item = RqId> + '_ {
        self.ull
            .iter()
            .copied()
            .filter(|rq| !self.queues[rq.0].is_failed())
    }

    /// Drains every vCPU off a queue (failure evacuation), returning the
    /// popped `(credit, vcpu)` pairs front-to-back.
    pub fn drain_queue(&mut self, rq: RqId) -> Vec<(i64, Vcpu)> {
        let mut out = Vec::with_capacity(self.queues[rq.0].len());
        while let Some(entry) = self.queues[rq.0].list.pop_front(&mut self.arena) {
            out.push(entry);
        }
        out
    }

    /// Read access to a queue's vCPU list (plan maintenance helpers).
    pub fn queue_list(&self, rq: RqId) -> &SortedList {
        &self.queues[rq.0].list
    }

    /// Decays every queue's load by one PELT period (periodic tick).
    pub fn tick_decay(&self) {
        for q in &self.queues {
            q.load().decay(crate::load::PELT_DECAY);
        }
        self.recorder
            .gauge(Gauge::QueuedVcpus, self.total_queued() as u64);
    }

    /// Target frequency for a queue's CPU under the active governor.
    pub fn target_pstate(&self, rq: RqId) -> PState {
        let pstate = self.governor.target_pstate(self.queues[rq.0].load().get());
        let mhz = pstate.mhz().round() as u64;
        self.recorder.instant(EventKind::GovernorDecision, 0, mhz);
        self.recorder.count(Counter::GovernorDecisions, 1);
        self.recorder.gauge(Gauge::LastPstateMhz, mhz);
        pstate
    }

    /// Drains and returns the arena's operation counters.
    pub fn take_arena_stats(&self) -> ArenaStats {
        self.arena.take_stats()
    }

    /// The arena's operation counters, left running: cost one phase as
    /// the difference of two snapshots.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// One round of load balancing across the general queues, consuming
    /// the same lock-protected load variable the resume path updates —
    /// the paper's §1: the variable "is used for DVFS **and thread load
    /// balancing on cores**". Migrates one vCPU per call from the most-
    /// to the least-loaded general queue when their load gap exceeds one
    /// vCPU's contribution. Returns whether a migration happened.
    pub fn rebalance_general(&mut self) -> bool {
        let (mut max_rq, mut max_load) = (None, f64::MIN);
        let (mut min_rq, mut min_load) = (None, f64::MAX);
        for &rq in &self.general {
            let load = self.queues[rq.0].load().get();
            if load > max_load {
                max_load = load;
                max_rq = Some(rq);
            }
            if load < min_load {
                min_load = load;
                min_rq = Some(rq);
            }
        }
        let (Some(src), Some(dst)) = (max_rq, min_rq) else {
            return false;
        };
        if src == dst
            || self.queues[src.0].len() < 2
            || max_load - min_load < crate::load::VCPU_LOAD_CONTRIB
        {
            return false;
        }
        // Migrate the front entity and transfer its load contribution.
        let Some((key, vcpu)) = self.pick_next(src) else {
            return false;
        };
        self.enqueue_vcpu(dst, key, vcpu);
        self.queues[src.0].load().decay(
            (max_load - crate::load::VCPU_LOAD_CONTRIB).max(0.0) / max_load.max(f64::EPSILON),
        );
        self.load_update_per_vcpu(dst, 1);
        self.recorder.instant(EventKind::Rebalance, 0, 1);
        self.recorder.count(Counter::RebalanceMigrations, 1);
        true
    }

    /// One-line-per-queue human-readable summary (operator debugging:
    /// lengths, loads, paused assignments, chosen P-states).
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scheduler: {} queues ({} general, {} uLL), flavor {}, {} queued",
            self.num_queues(),
            self.general.len(),
            self.ull.len(),
            self.flavor,
            self.total_queued()
        );
        for q in &self.queues {
            let _ = writeln!(
                out,
                "  {} [{}] len={} load={:.0} pstate={}MHz paused={}{}",
                q.id(),
                match q.kind() {
                    RqKind::General => "gen",
                    RqKind::Ull => "uLL",
                },
                q.len(),
                q.load().get(),
                self.target_pstate(q.id()).mhz(),
                q.paused_assigned(),
                if q.is_failed() { " FAILED" } else { "" }
            );
        }
        out
    }

    /// Total vCPUs currently queued across all run queues.
    pub fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcpu::{SandboxId, VcpuId};

    fn sched_with(ull: usize) -> HostScheduler {
        HostScheduler::new(SchedConfig {
            topology: CpuTopology::new(1, 8, false),
            ull_queues: ull,
            governor_policy: GovernorPolicy::Schedutil,
            flavor: SchedFlavor::default(),
        })
    }

    fn vcpu(i: u64) -> Vcpu {
        Vcpu::new(VcpuId::new(i), SandboxId::new(0))
    }

    #[test]
    fn queue_partitioning() {
        let s = sched_with(2);
        assert_eq!(s.num_queues(), 8);
        assert_eq!(s.general_queues().len(), 6);
        assert_eq!(s.ull_queues().len(), 2);
        for id in s.ull_queues() {
            assert_eq!(s.queue(*id).kind(), RqKind::Ull);
        }
    }

    #[test]
    #[should_panic(expected = "cannot reserve")]
    fn all_queues_ull_is_rejected() {
        sched_with(8);
    }

    #[test]
    fn enqueue_orders_by_credit() {
        let mut s = sched_with(1);
        let rq = s.general_queues()[0];
        s.enqueue_vcpu(rq, 300, vcpu(0));
        s.enqueue_vcpu(rq, 100, vcpu(1));
        s.enqueue_vcpu(rq, 200, vcpu(2));
        let (c1, v1) = s.pick_next(rq).unwrap();
        assert_eq!((c1, v1.id), (100, VcpuId::new(1)));
        let (c2, _) = s.pick_next(rq).unwrap();
        assert_eq!(c2, 200);
        assert_eq!(s.total_queued(), 1);
    }

    #[test]
    fn least_loaded_prefers_idle_queue() {
        let mut s = sched_with(1);
        let rq0 = s.general_queues()[0];
        s.enqueue_vcpu(rq0, 0, vcpu(0));
        s.load_update_per_vcpu(rq0, 1);
        let chosen = s.least_loaded_general();
        assert_ne!(chosen, rq0, "loaded queue must not be chosen");
    }

    #[test]
    fn ull_assignment_balances_by_paused_count() {
        let mut s = sched_with(2);
        let a = s.assign_ull_queue();
        let b = s.assign_ull_queue();
        assert_ne!(a, b, "second sandbox must go to the other uLL queue");
        let c = s.assign_ull_queue();
        s.release_ull_queue(a);
        s.release_ull_queue(b);
        s.release_ull_queue(c);
        assert_eq!(s.queue(a).paused_assigned(), 0);
    }

    #[test]
    fn ull_merge_via_plan() {
        let mut s = sched_with(1);
        let rq = s.ull_queues()[0];
        s.enqueue_vcpu(rq, 100, vcpu(0));
        s.enqueue_vcpu(rq, 300, vcpu(1));
        let mut merge_vcpus = SortedList::new();
        merge_vcpus.insert_sorted(s.arena_mut(), 200, vcpu(2));
        merge_vcpus.insert_sorted(s.arena_mut(), 400, vcpu(3));
        let plan = s.ull_precompute(rq, merge_vcpus);
        let (report, _) = s
            .ull_merge_recycling(rq, plan, SpliceMode::Sequential)
            .unwrap();
        assert_eq!(report.merged, 2);
        assert_eq!(s.queue_list(rq).keys(s.arena()), vec![100, 200, 300, 400]);
    }

    #[test]
    #[should_panic(expected = "only maintained for reserved uLL queues")]
    fn precompute_rejects_general_queue() {
        let s = sched_with(1);
        s.ull_precompute(s.general_queues()[0], SortedList::new());
    }

    #[test]
    fn rebalance_migrates_from_hot_to_cold_queue() {
        let mut s = sched_with(1);
        let hot = s.general_queues()[0];
        // Five vCPUs all landed on one queue, whose load reflects them.
        for i in 0..5 {
            s.enqueue_vcpu(hot, i, vcpu(i as u64));
        }
        s.load_update_per_vcpu(hot, 5);
        assert!(s.rebalance_general(), "gap exceeds one contribution");
        assert_eq!(s.queue(hot).len(), 4);
        let moved: usize = s
            .general_queues()
            .iter()
            .filter(|rq| **rq != hot)
            .map(|rq| s.queue(*rq).len())
            .sum();
        assert_eq!(moved, 1);
        // Queues remain sorted after the migration.
        for rq in s.general_queues() {
            s.queue_list(*rq).check_invariants(s.arena()).unwrap();
        }
    }

    #[test]
    fn rebalance_is_a_noop_when_balanced() {
        let mut s = sched_with(1);
        assert!(!s.rebalance_general(), "idle host has nothing to move");
        let rq = s.general_queues()[0];
        s.enqueue_vcpu(rq, 1, vcpu(0));
        s.load_update_per_vcpu(rq, 1);
        // One vCPU: nothing migratable without emptying the queue.
        assert!(!s.rebalance_general());
    }

    #[test]
    fn failed_queues_are_skipped_by_assignment() {
        let mut s = sched_with(2);
        let a = s.ull_queues()[0];
        let b = s.ull_queues()[1];
        s.fail_queue(a);
        assert!(s.queue_is_failed(a));
        assert_eq!(s.healthy_ull_queues().collect::<Vec<_>>(), vec![b]);
        for _ in 0..3 {
            assert_eq!(s.try_assign_ull_queue(), Some(b));
        }
        s.fail_queue(b);
        assert_eq!(s.try_assign_ull_queue(), None);
        s.revive_queue(a);
        assert_eq!(s.try_assign_ull_queue(), Some(a));
        assert!(s.debug_snapshot().contains("FAILED"));
    }

    #[test]
    fn fallback_merge_equals_plan_merge() {
        let mut s = sched_with(1);
        let rq = s.ull_queues()[0];
        s.enqueue_vcpu(rq, 100, vcpu(0));
        s.enqueue_vcpu(rq, 300, vcpu(1));
        let mut merge_vcpus = SortedList::new();
        merge_vcpus.insert_sorted(s.arena_mut(), 200, vcpu(2));
        merge_vcpus.insert_sorted(s.arena_mut(), 400, vcpu(3));
        // Reconstruct A from a (corrupt-able) plan, then merge vanilla.
        let plan = s.ull_precompute(rq, merge_vcpus);
        let list = plan.into_list(s.arena());
        assert_eq!(s.fallback_merge(rq, list), 2);
        s.queue_list(rq).check_invariants(s.arena()).unwrap();
        assert_eq!(s.queue_list(rq).keys(s.arena()), vec![100, 200, 300, 400]);
    }

    #[test]
    fn drain_queue_empties_in_order() {
        let mut s = sched_with(1);
        let rq = s.ull_queues()[0];
        s.enqueue_vcpu(rq, 30, vcpu(0));
        s.enqueue_vcpu(rq, 10, vcpu(1));
        s.enqueue_vcpu(rq, 20, vcpu(2));
        let drained = s.drain_queue(rq);
        assert_eq!(
            drained.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert!(s.queue(rq).is_empty());
    }

    #[test]
    fn debug_snapshot_lists_every_queue() {
        let mut s = sched_with(1);
        let rq = s.general_queues()[0];
        s.enqueue_vcpu(rq, 5, vcpu(0));
        let snap = s.debug_snapshot();
        assert!(snap.contains("8 queues"));
        assert!(snap.contains("[uLL]"));
        assert!(snap.contains("len=1"));
        assert_eq!(snap.lines().count(), 9, "header + one line per queue");
    }

    #[test]
    fn numa_placement_helpers() {
        let s = HostScheduler::new(SchedConfig {
            topology: CpuTopology::new(2, 4, false),
            ull_queues: 1,
            governor_policy: GovernorPolicy::Schedutil,
            flavor: SchedFlavor::default(),
        });
        let socket0: Vec<_> = s.general_queues_on_socket(0).collect();
        let socket1: Vec<_> = s.general_queues_on_socket(1).collect();
        assert_eq!(socket0.len(), 4);
        // One socket-1 queue is reserved for uLL.
        assert_eq!(socket1.len(), 3);
        for rq in &socket0 {
            assert_eq!(s.socket_of_queue(*rq), 0);
        }
        let best = s.least_loaded_general_on_socket(1).unwrap();
        assert_eq!(s.socket_of_queue(best), 1);
        // A one-socket topology has no socket-1 queues.
        let s1 = HostScheduler::new(SchedConfig {
            topology: CpuTopology::new(1, 4, false),
            ull_queues: 1,
            governor_policy: GovernorPolicy::Schedutil,
            flavor: SchedFlavor::default(),
        });
        assert!(s1.least_loaded_general_on_socket(1).is_none());
    }

    #[test]
    fn recorder_sees_merge_and_load_events() {
        use horse_telemetry::{Counter, EventKind, Recorder};

        let mut s = sched_with(1);
        s.set_recorder(Recorder::enabled());
        assert!(s.recorder().is_enabled());
        let rq = s.ull_queues()[0];
        s.enqueue_vcpu(rq, 100, vcpu(0));
        let mut merge_vcpus = SortedList::new();
        merge_vcpus.insert_sorted(s.arena_mut(), 200, vcpu(1));
        merge_vcpus.insert_sorted(s.arena_mut(), 300, vcpu(2));
        let plan = s.ull_precompute(rq, merge_vcpus);
        let (report, _) = s
            .ull_merge_recycling(rq, plan, SpliceMode::Sequential)
            .unwrap();
        s.load_update_coalesced(rq, s.tracker().coalesce(2));
        s.load_update_per_vcpu(rq, 3);
        let _ = s.target_pstate(rq);

        let rec = s.recorder().clone();
        assert_eq!(rec.counter_value(Counter::Splices), report.splices as u64);
        assert_eq!(rec.counter_value(Counter::CoalescedLoadUpdates), 1);
        assert_eq!(rec.counter_value(Counter::PerVcpuLoadUpdates), 3);
        assert_eq!(rec.counter_value(Counter::GovernorDecisions), 1);
        let snap = rec.drain();
        assert_eq!(snap.dropped, 0);
        let kinds: Vec<_> = snap.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::RunqueueMerge));
        assert!(kinds.contains(&EventKind::LoadCoalesce));
        assert!(kinds.contains(&EventKind::LoadUpdate));
        assert!(kinds.contains(&EventKind::GovernorDecision));
    }

    #[test]
    fn dispatch_events_inherit_the_installed_trace_context() {
        use horse_telemetry::{EventKind, Recorder, TraceContext};

        let mut s = sched_with(1);
        s.set_recorder(Recorder::enabled());
        let rq = s.ull_queues()[0];
        // The vmm installs the invocation context before dispatching the
        // merge/load work; the scheduler's own instants must inherit it
        // without any scheduler-side plumbing.
        let inv = s.recorder().mint_invocation();
        s.recorder()
            .set_context(TraceContext::root(inv).child(EventKind::ResumeSortedMerge));
        let mut merge_vcpus = SortedList::new();
        merge_vcpus.insert_sorted(s.arena_mut(), 200, vcpu(1));
        let plan = s.ull_precompute(rq, merge_vcpus);
        s.ull_merge_recycling(rq, plan, SpliceMode::Sequential)
            .unwrap();
        s.recorder()
            .set_context(TraceContext::root(inv).child(EventKind::ResumeLoadUpdate));
        s.load_update_coalesced(rq, s.tracker().coalesce(1));
        s.recorder().clear_context();

        let snap = s.recorder().drain();
        let merge = snap
            .events
            .iter()
            .find(|e| e.kind == EventKind::RunqueueMerge)
            .unwrap();
        assert_eq!(merge.invocation, inv);
        assert_eq!(merge.parent, Some(EventKind::ResumeSortedMerge));
        let load = snap
            .events
            .iter()
            .find(|e| e.kind == EventKind::LoadCoalesce)
            .unwrap();
        assert_eq!(load.invocation, inv);
        assert_eq!(load.parent, Some(EventKind::ResumeLoadUpdate));
    }

    #[test]
    fn load_paths_agree_but_lock_counts_differ() {
        let s = sched_with(2);
        let rq_a = s.ull_queues()[0];
        let rq_b = s.ull_queues()[1];
        let v = s.load_update_per_vcpu(rq_a, 16);
        let h = s.load_update_coalesced(rq_b, s.tracker().coalesce(16));
        assert!((v - h).abs() < 1e-6);
        assert_eq!(s.queue(rq_a).load().lock_acquisitions(), 16);
        assert_eq!(s.queue(rq_b).load().lock_acquisitions(), 1);
        // Governor sees identical loads → identical frequency choice.
        assert_eq!(s.target_pstate(rq_a), s.target_pstate(rq_b));
        s.tick_decay();
        let _ = s.take_arena_stats();
    }
}
