//! Integration tests of the fault-injection plane and the degraded
//! resume paths: every injected fault must map to a typed recovery
//! outcome, and every degraded path must produce the same scheduler
//! state as its clean counterpart (only latency may differ).

use horse_faults::{FaultInjector, FaultPlan, FaultSite, FaultTrigger, RecoveryOutcome};
use horse_sched::{GovernorPolicy, RqId, SchedConfig};
use horse_telemetry::{Counter, Recorder};
use horse_vmm::{
    CostModel, PausePolicy, ResumeMode, SandboxConfig, SandboxState, SplicePool, Vmm, VmmError,
};

fn small_vmm() -> Vmm {
    Vmm::new(
        SchedConfig {
            topology: horse_sched::CpuTopology::new(1, 8, false),
            ull_queues: 2,
            governor_policy: GovernorPolicy::Performance,
            flavor: Default::default(),
        },
        CostModel::calibrated(),
    )
}

fn ull_config(vcpus: u32) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .ull(true)
        .build()
        .unwrap()
}

/// The (credit, sandbox, vcpu-id) triples of a queue, in order.
fn queue_contents(vmm: &Vmm, rq: RqId) -> Vec<(i64, u64, u64)> {
    vmm.sched()
        .queue_list(rq)
        .iter(vmm.sched().arena())
        .map(|(_, credit, vcpu)| (credit, vcpu.sandbox.as_u64(), vcpu.id.as_u64()))
        .collect()
}

/// Every queue list still satisfies its structural invariants.
fn assert_invariants(vmm: &Vmm) {
    let s = vmm.sched();
    for rq in s.general_queues().iter().chain(s.ull_queues()) {
        s.queue_list(*rq).check_invariants(s.arena()).unwrap();
    }
}

/// Runs: one uLL sandbox paused HORSE-style with `other` vCPUs already
/// on the queue (so the plan has real splice points), then resumes it.
/// Returns (vmm, outcome, the merge queue).
fn horse_resume_under(plan: FaultPlan, seed: u64) -> (Vmm, horse_vmm::ResumeOutcome, RqId) {
    let mut vmm = small_vmm();
    vmm.set_recorder(Recorder::enabled());
    vmm.set_injector(FaultInjector::new(seed, plan));
    let background = vmm.create(ull_config(3));
    vmm.start(background).unwrap();
    let id = vmm.create(ull_config(4));
    vmm.start(id).unwrap();
    let report = vmm.pause(id, PausePolicy::horse()).unwrap();
    let rq = report.ull_rq.expect("horse pause assigns a queue");
    let outcome = vmm.resume(id, ResumeMode::Horse).unwrap();
    (vmm, outcome, rq)
}

#[test]
fn clean_run_has_no_degradation() {
    let (vmm, outcome, _) = horse_resume_under(FaultPlan::new(), 7);
    assert!(!outcome.degradation.any());
    assert_eq!(outcome.degradation.penalty_ns, 0);
    assert_eq!(vmm.injector().injected_total(), 0);
    assert_eq!(vmm.recorder().counter_value(Counter::FaultsInjected), 0);
}

#[test]
fn stale_plan_falls_back_to_vanilla_merge_with_identical_queue() {
    let clean = horse_resume_under(FaultPlan::new(), 7);
    let stale = horse_resume_under(
        FaultPlan::new().with(FaultSite::ResumePlanStale, FaultTrigger::Once(1)),
        7,
    );

    // The degraded resume recovered: same mode, same run-queue contents
    // as the clean splice — only the latency differs.
    assert!(stale.1.degradation.plan_fallback);
    assert!(stale.1.degradation.penalty_ns > 0, "fallback is slower");
    assert!(stale.1.merge.is_none(), "no splice report on the fallback");
    assert_eq!(
        queue_contents(&stale.0, stale.2),
        queue_contents(&clean.0, clean.2),
        "fallback merge must produce the clean splice's queue"
    );
    assert!(
        stale.1.breakdown.total_ns() > clean.1.breakdown.total_ns(),
        "degradation must cost latency"
    );

    // The fault is logged, resolved, and visible in telemetry.
    let rec = stale.0.recorder();
    assert_eq!(rec.counter_value(Counter::FaultsInjected), 1);
    assert_eq!(rec.counter_value(Counter::HorseFallbacks), 1);
    assert_eq!(stale.0.injector().unresolved(), 0);
    let log = stale.0.injector().log();
    assert_eq!(log.len(), 1);
    assert!(matches!(
        log[0].outcome,
        RecoveryOutcome::FellBackToVanillaMerge { penalty_ns } if penalty_ns > 0
    ));
}

#[test]
fn corrupt_plan_also_falls_back() {
    let clean = horse_resume_under(FaultPlan::new(), 11);
    let bad = horse_resume_under(
        FaultPlan::new().with(FaultSite::ResumePlanCorrupt, FaultTrigger::Once(1)),
        11,
    );
    assert!(bad.1.degradation.plan_fallback);
    assert_eq!(
        queue_contents(&bad.0, bad.2),
        queue_contents(&clean.0, clean.2)
    );
    assert_eq!(bad.0.injector().unresolved(), 0);
}

#[test]
fn straggler_is_rescued_by_the_watchdog() {
    let clean = horse_resume_under(FaultPlan::new(), 5);
    let slow = horse_resume_under(
        FaultPlan::new().with(FaultSite::SpliceStraggler, FaultTrigger::Once(1)),
        5,
    );
    let d = slow.1.degradation;
    assert!(d.straggler_rescued_splices > 0);
    assert!(!d.plan_fallback);
    assert!(
        d.penalty_ns >= horse_sched::DEFAULT_SPLICE_BUDGET_NS,
        "a straggler rescue waits out the budget"
    );
    assert!(slow.1.merge.is_some(), "the splice still completes");
    assert_eq!(
        queue_contents(&slow.0, slow.2),
        queue_contents(&clean.0, clean.2),
        "chunked rescue is order-equivalent"
    );
    assert_eq!(
        slow.0.recorder().counter_value(Counter::StragglerRescues),
        1
    );
    assert!(matches!(
        slow.0.injector().log()[0].outcome,
        RecoveryOutcome::StragglerRescued { rescued_splices } if rescued_splices > 0
    ));
}

/// A rescued resume runs on the VMM's splice pool like a clean one: a
/// background sandbox on even credits and the resumed one on odd credits
/// give one splice point per vCPU, split across the pool's workers.
fn rescue_on(pool: SplicePool, site: FaultSite) -> (Vmm, horse_vmm::ResumeOutcome, RqId) {
    let mut vmm = small_vmm();
    vmm.set_splice_pool(pool);
    vmm.set_injector(FaultInjector::new(
        5,
        FaultPlan::new().with(site, FaultTrigger::Once(1)),
    ));
    let background = vmm.create(ull_config(4));
    vmm.start_with_credits(background, &[2, 4, 6, 8]).unwrap();
    let id = vmm.create(ull_config(4));
    vmm.start_with_credits(id, &[1, 3, 5, 7]).unwrap();
    let rq = vmm.pause(id, PausePolicy::horse()).unwrap().ull_rq.unwrap();
    let outcome = vmm.resume(id, ResumeMode::Horse).unwrap();
    (vmm, outcome, rq)
}

#[test]
fn a_rescue_on_the_parallel_pool_matches_the_inline_pool() {
    for site in [FaultSite::SpliceStraggler, FaultSite::SpliceThreadDeath] {
        let (inline, inline_outcome, rq) = rescue_on(SplicePool::inline(), site);
        let (pooled, pooled_outcome, _) = rescue_on(SplicePool::parallel(2), site);
        assert!(pooled_outcome.degradation.straggler_rescued_splices > 0);
        // Same breakdown, `MergeReport`, rescued splices and penalty.
        assert_eq!(pooled_outcome, inline_outcome, "{site:?}");
        assert_eq!(queue_contents(&pooled, rq), queue_contents(&inline, rq));
        assert_eq!(pooled.splice_pool_stats().parallel_merges, 1, "{site:?}");
        assert_eq!(inline.splice_pool_stats().parallel_merges, 0, "{site:?}");
        assert_invariants(&pooled);
    }
}

#[test]
fn poisoned_coalesce_is_bypassed_with_equal_load() {
    let clean = horse_resume_under(FaultPlan::new(), 3);
    let poisoned = horse_resume_under(
        FaultPlan::new().with(FaultSite::CoalescePoisoned, FaultTrigger::Once(1)),
        3,
    );
    assert!(poisoned.1.degradation.coalesce_bypassed);
    assert!(poisoned.1.degradation.penalty_ns > 0);
    // Per-vCPU updates land the same final load as the coalesced form.
    let clean_load = clean.0.sched().queue(clean.2).load().get();
    let degraded_load = poisoned.0.sched().queue(poisoned.2).load().get();
    assert!(
        (clean_load - degraded_load).abs() < 1e-6 * clean_load.abs().max(1.0),
        "coalesce bypass must preserve the load: {clean_load} vs {degraded_load}"
    );
    assert!(matches!(
        poisoned.0.injector().log()[0].outcome,
        RecoveryOutcome::CoalesceBypassed { vcpus: 4 }
    ));
}

#[test]
fn crash_mid_pause_is_contained() {
    let mut vmm = small_vmm();
    vmm.set_injector(FaultInjector::new(
        9,
        FaultPlan::new().with(FaultSite::CrashMidPause, FaultTrigger::Once(1)),
    ));
    let id = vmm.create(ull_config(2));
    vmm.start(id).unwrap();
    let before = vmm.sched().total_queued();
    let err = vmm.pause(id, PausePolicy::horse()).unwrap_err();
    assert!(matches!(
        err,
        VmmError::Crashed {
            mid_resume: false,
            ..
        }
    ));
    assert!(vmm.sandbox(id).is_none(), "the crashed sandbox is gone");
    assert_eq!(
        vmm.sched().total_queued(),
        before - 2,
        "its vCPUs left the queues, nothing else leaked"
    );
    assert_eq!(vmm.injector().unresolved(), 0);
    assert!(matches!(
        vmm.injector().log()[0].outcome,
        RecoveryOutcome::CrashContained { mid_resume: false }
    ));
}

#[test]
fn crash_mid_resume_is_contained() {
    let mut vmm = small_vmm();
    vmm.set_injector(FaultInjector::new(
        9,
        FaultPlan::new().with(FaultSite::CrashMidResume, FaultTrigger::Once(1)),
    ));
    let id = vmm.create(ull_config(2));
    vmm.start(id).unwrap();
    vmm.pause(id, PausePolicy::horse()).unwrap();
    let err = vmm.resume(id, ResumeMode::Horse).unwrap_err();
    assert!(matches!(
        err,
        VmmError::Crashed {
            mid_resume: true,
            ..
        }
    ));
    assert!(vmm.sandbox(id).is_none());
    assert_eq!(vmm.sched().total_queued(), 0, "no leaked queue nodes");
    assert_eq!(vmm.injector().unresolved(), 0);
}

#[test]
fn failed_queue_is_evacuated_and_plans_rebuilt() {
    let mut vmm = small_vmm();
    let running = vmm.create(ull_config(2));
    vmm.start(running).unwrap();
    let paused = vmm.create(ull_config(3));
    vmm.start(paused).unwrap();
    let report = vmm.pause(paused, PausePolicy::horse()).unwrap();
    let rq = report.ull_rq.unwrap();

    let failover = vmm.fail_ull_queue(rq);
    assert_eq!(failover.replanned, 1, "the paused sandbox was re-homed");
    assert_eq!(failover.degraded, 0, "a healthy queue was available");
    assert!(vmm.sched().queue_is_failed(rq));
    assert_eq!(vmm.sched().queue(rq).len(), 0, "the failed queue drained");

    // The re-homed sandbox still resumes through the HORSE fast path.
    let outcome = vmm.resume(paused, ResumeMode::Horse).unwrap();
    assert!(!outcome.degradation.plan_fallback);
    let new_rq = vmm.sandbox(paused).unwrap().placement_queues()[0];
    assert_ne!(new_rq, rq, "resumed onto a healthy queue");
    assert_eq!(
        queue_contents(&vmm, new_rq).len(),
        vmm.sched().queue(new_rq).len()
    );
    assert_invariants(&vmm);
}

#[test]
fn losing_every_ull_queue_degrades_to_vanilla() {
    let mut vmm = small_vmm();
    let id = vmm.create(ull_config(2));
    vmm.start(id).unwrap();
    vmm.pause(id, PausePolicy::horse()).unwrap();
    let ull: Vec<RqId> = vmm.sched().ull_queues().to_vec();
    let mut degraded = 0;
    for rq in ull {
        let report = vmm.fail_ull_queue(rq);
        degraded += report.degraded;
    }
    assert_eq!(degraded, 1, "the pause was downgraded exactly once");

    // The fast path is gone (ModeMismatch), but the sandbox stays
    // resumable through the vanilla path.
    let err = vmm.resume(id, ResumeMode::Horse).unwrap_err();
    assert!(matches!(err, VmmError::ModeMismatch { .. }), "{err}");
    let outcome = vmm.resume(id, ResumeMode::Vanilla).unwrap();
    assert_eq!(outcome.mode, ResumeMode::Vanilla);
    assert_eq!(vmm.sandbox(id).unwrap().state(), SandboxState::Running);
    assert_invariants(&vmm);

    // New uLL starts also degrade (to general queues) instead of
    // landing on failed queues.
    let late = vmm.create(ull_config(1));
    vmm.start(late).unwrap();
    let rq = vmm.sandbox(late).unwrap().placement_queues()[0];
    assert!(!vmm.sched().ull_queues().contains(&rq));
}

#[test]
fn same_seed_same_outcome_sequence() {
    let plan = FaultPlan::uniform(0.3);
    let run = |seed| {
        let mut vmm = small_vmm();
        vmm.set_injector(FaultInjector::new(seed, plan));
        for _ in 0..20 {
            let id = vmm.create(ull_config(2));
            if vmm.start(id).is_err() {
                continue;
            }
            match vmm.pause(id, PausePolicy::horse()) {
                Ok(_) => {}
                Err(VmmError::Crashed { .. }) => continue,
                Err(e) => panic!("unexpected: {e}"),
            }
            match vmm.resume(id, ResumeMode::Horse) {
                Ok(_) | Err(VmmError::Crashed { .. }) => {}
                Err(e) => panic!("unexpected: {e}"),
            }
            vmm.destroy(id).ok();
        }
        vmm.injector().log()
    };
    let a = run(42);
    let b = run(42);
    assert!(!a.is_empty(), "a 30% uniform plan fires over 20 rounds");
    assert_eq!(a, b, "identical seeds give identical fault sequences");
    let c = run(43);
    assert_ne!(a, c, "different seeds explore different schedules");
}
