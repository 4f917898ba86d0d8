//! Oracle for lazy plan maintenance: peers' plans are not rebuilt while a
//! resumed sandbox is in transit on their queue (it is the queue's
//! *resident*), only when something else needs them (`settle`).
//!
//! Black box: with no fault injected **no resume may ever fall back** to
//! the vanilla merge (a fallback is what a missed `settle` looks like from
//! outside), and every uLL queue equals a sorted-insert replay of the
//! operations. White box: [`Vmm::check_plans`] after every operation.

use horse_faults::{FaultInjector, FaultPlan, FaultSite, FaultTrigger};
use horse_sched::{CpuTopology, GovernorPolicy, RqId, SandboxId, SchedConfig, SchedFlavor};
use horse_vmm::{
    CostModel, PausePolicy, ResumeMode, ResumeOutcome, SandboxConfig, SandboxState, Vmm, VmmError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn vmm_with(ull_queues: usize) -> Vmm {
    Vmm::new(
        SchedConfig {
            topology: CpuTopology::new(1, 8, false),
            ull_queues,
            governor_policy: GovernorPolicy::Performance,
            flavor: SchedFlavor::Credit2,
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

/// `(credit, vcpu id, sandbox)` of every vCPU on a queue, in queue order.
fn queue_order(vmm: &Vmm, rq: RqId) -> Vec<(i64, u64, u64)> {
    let sched = vmm.sched();
    sched
        .queue_list(rq)
        .iter(sched.arena())
        .map(|(_, credit, vcpu)| (credit, vcpu.id.as_u64(), vcpu.sandbox.as_u64()))
        .collect()
}

/// The pause policy each resume mode consumes.
fn policy_for(mode: ResumeMode) -> PausePolicy {
    PausePolicy {
        precompute_merge: mode.uses_ppsm(),
        precompute_coalesce: mode.uses_coalescing(),
    }
}

fn clean(outcome: &ResumeOutcome) -> bool {
    !outcome.degradation.any()
}

/// What the test knows about one sandbox.
struct Shadow {
    id: SandboxId,
    state: SandboxState,
    /// Mode matching the policy it was last paused with.
    mode: ResumeMode,
    /// `(credit, vcpu id)` of the vCPUs it still owns (a dispatched one
    /// is gone), sorted: the order a resume re-inserts them in.
    vcpus: Vec<(i64, u64)>,
}

/// Reference model of the uLL queues: plain vectors, sorted insert.
///
/// Order among *equal* credits is not part of the oracle: a plan kept up
/// by `on_b_push_back` leaves its equal-key elements ahead of the
/// newcomer where a rebuild would put them behind, and both are valid
/// sorted merges. Queues are compared as credit-sorted sequences holding
/// the same vCPUs.
struct Model {
    ull: Vec<RqId>,
    queues: Vec<Vec<(i64, u64, u64)>>,
    failed: Vec<bool>,
    next_vcpu: u64,
}

impl Model {
    fn new(vmm: &Vmm) -> Self {
        let ull = vmm.sched().ull_queues().to_vec();
        Self {
            queues: vec![Vec::new(); ull.len()],
            failed: vec![false; ull.len()],
            ull,
            next_vcpu: 0,
        }
    }

    fn slot(&self, rq: RqId) -> Option<usize> {
        self.ull.iter().position(|r| *r == rq)
    }

    fn insert(&mut self, slot: usize, entry: (i64, u64, u64)) {
        let q = &mut self.queues[slot];
        let at = q.partition_point(|e| e.0 <= entry.0);
        q.insert(at, entry);
    }

    /// First shortest healthy uLL queue — the placement rule of `start`
    /// and of a failed queue's evacuation.
    fn shortest_healthy(&self) -> Option<usize> {
        (0..self.ull.len())
            .filter(|s| !self.failed[*s])
            .min_by_key(|s| self.queues[*s].len())
    }

    /// Places one vCPU per credit; returns the sandbox's sorted vCPU set.
    fn start(&mut self, sandbox: SandboxId, credits: &[i64]) -> Vec<(i64, u64)> {
        let mut vcpus = Vec::new();
        for &credit in credits {
            let vcpu = self.next_vcpu;
            self.next_vcpu += 1;
            if let Some(slot) = self.shortest_healthy() {
                self.insert(slot, (credit, vcpu, sandbox.as_u64()));
            }
            vcpus.push((credit, vcpu));
        }
        vcpus.sort_unstable();
        vcpus
    }

    fn remove_sandbox(&mut self, sandbox: SandboxId) {
        for q in &mut self.queues {
            q.retain(|e| e.2 != sandbox.as_u64());
        }
    }

    fn fail(&mut self, slot: usize) {
        self.failed[slot] = true;
        for entry in std::mem::take(&mut self.queues[slot]) {
            if let Some(target) = self.shortest_healthy() {
                self.insert(target, entry);
            }
        }
    }

    fn check(&self, vmm: &Vmm, step: usize, what: &str) {
        for (slot, &rq) in self.ull.iter().enumerate() {
            let mut real = queue_order(vmm, rq);
            assert!(
                real.windows(2).all(|w| w[0].0 <= w[1].0),
                "step {step} ({what}): {rq} is not credit-sorted: {real:?}"
            );
            real.sort_unstable();
            let mut expected = self.queues[slot].clone();
            expected.sort_unstable();
            assert_eq!(
                real, expected,
                "step {step} ({what}): {rq} diverges from the sorted-insert replay"
            );
        }
        if let Err(e) = vmm.check_plans() {
            panic!("step {step} ({what}): {e}");
        }
    }
}

/// One seeded run of `ops` operations, every oracle checked after each.
fn random_run(seed: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ull_queues = rng.gen_range(1..=3usize);
    let mut vmm = vmm_with(ull_queues);
    let mut model = Model::new(&vmm);
    let mut fleet: Vec<Shadow> = Vec::new();
    let target_fleet = rng.gen_range(2..=8usize);

    for step in 0..ops {
        // Keep 2–8 sandboxes alive.
        if fleet.len() < target_fleet {
            let id = vmm.create(ull_config(rng.gen_range(1..=8u32)));
            fleet.push(Shadow {
                id,
                state: SandboxState::Configured,
                mode: ResumeMode::Horse,
                vcpus: Vec::new(),
            });
        }
        let pick = rng.gen_range(0..fleet.len());
        let roll = rng.gen_range(0..100u32);
        let what;
        if roll < 8 {
            // Dispatch the front of a uLL queue.
            let slot = rng.gen_range(0..model.ull.len());
            what = "ull_dispatch";
            let popped = vmm.ull_dispatch(model.ull[slot]);
            let popped =
                popped.map(|(credit, vcpu)| (credit, vcpu.id.as_u64(), vcpu.sandbox.as_u64()));
            let queue = &mut model.queues[slot];
            assert_eq!(
                popped.map(|p| p.0),
                queue.first().map(|e| e.0),
                "step {step}: dispatch pops the lowest credit"
            );
            if let Some(entry) = popped {
                let at = queue.iter().position(|e| *e == entry);
                queue.remove(at.expect("the popped vCPU was queued here"));
                let owner = fleet.iter_mut().find(|sb| sb.id.as_u64() == entry.2);
                owner.unwrap().vcpus.retain(|v| *v != (entry.0, entry.1));
            }
        } else if roll < 9 && model.failed.iter().filter(|f| !**f).count() > 1 {
            // Fail a healthy uLL queue (one always stays healthy, so the
            // fast path keeps being exercised).
            let healthy: Vec<usize> = (0..model.ull.len()).filter(|s| !model.failed[*s]).collect();
            let slot = healthy[rng.gen_range(0..healthy.len())];
            what = "fail_ull_queue";
            vmm.fail_ull_queue(model.ull[slot]);
            model.fail(slot);
        } else {
            let sb = &mut fleet[pick];
            match sb.state {
                SandboxState::Configured => {
                    let vcpus = vmm.sandbox(sb.id).unwrap().config().vcpus() as usize;
                    if rng.gen::<bool>() {
                        what = "start";
                        vmm.start(sb.id).unwrap();
                        sb.vcpus = model.start(sb.id, &vec![10_000; vcpus]);
                    } else {
                        what = "start_with_credits";
                        // A narrow range: ties and interleavings galore.
                        let credits: Vec<i64> = (0..vcpus).map(|_| rng.gen_range(0..40)).collect();
                        vmm.start_with_credits(sb.id, &credits).unwrap();
                        sb.vcpus = model.start(sb.id, &credits);
                    }
                    sb.state = SandboxState::Running;
                }
                SandboxState::Running if roll < 14 => {
                    what = "destroy running";
                    vmm.destroy(sb.id).unwrap();
                    model.remove_sandbox(sb.id);
                    fleet.swap_remove(pick);
                }
                SandboxState::Running => {
                    // Mostly HORSE pauses (the warm-invoke pair), the
                    // three baselines for the rest.
                    sb.mode = match rng.gen_range(0..10u32) {
                        0 => ResumeMode::Vanilla,
                        1 => ResumeMode::Ppsm,
                        2 => ResumeMode::Coal,
                        _ => ResumeMode::Horse,
                    };
                    what = "pause";
                    let report = vmm.pause(sb.id, policy_for(sb.mode)).unwrap();
                    assert!(
                        report.ull_rq.is_some() || sb.mode == ResumeMode::Vanilla,
                        "a healthy uLL queue is always left"
                    );
                    model.remove_sandbox(sb.id);
                    sb.state = SandboxState::Paused;
                }
                SandboxState::Paused if roll < 12 => {
                    what = "destroy paused";
                    vmm.destroy(sb.id).unwrap();
                    fleet.swap_remove(pick);
                }
                SandboxState::Paused => {
                    what = "resume";
                    let outcome = vmm.resume(sb.id, sb.mode).unwrap();
                    assert!(
                        clean(&outcome),
                        "step {step}: {} resume of {} degraded: {:?}",
                        sb.mode,
                        sb.id,
                        outcome.degradation
                    );
                    // ppsm/coal/horse land on one uLL queue; vanilla on
                    // the general queues, which the model does not track.
                    let landed = vmm.sandbox(sb.id).unwrap().placement_queues();
                    if let Some(slot) = landed.first().and_then(|rq| model.slot(*rq)) {
                        for &(credit, vcpu) in &sb.vcpus {
                            model.insert(slot, (credit, vcpu, sb.id.as_u64()));
                        }
                    }
                    sb.state = SandboxState::Running;
                }
                SandboxState::Destroyed => unreachable!("destroyed sandboxes leave the fleet"),
            }
        }
        model.check(&vmm, step, what);
    }
}

#[test]
fn random_sequences_never_see_a_stale_plan() {
    const OPS: usize = 10_000;
    for seed in [42u64, 1337, 20260807, 7, 99] {
        let started = Instant::now();
        random_run(seed, OPS);
        assert!(
            started.elapsed().as_secs() < 10,
            "seed {seed}: {OPS} operations took {:?}",
            started.elapsed()
        );
    }
}

/// `peers` HORSE-paused 2-vCPU sandboxes plus one more, `x`, all on the
/// single uLL queue; `x` is then resumed, so it is the queue's resident.
fn resident_among(peers: usize) -> (Vmm, SandboxId, Vec<SandboxId>, RqId) {
    let mut vmm = vmm_with(1);
    let rq = vmm.sched().ull_queues()[0];
    let mut ids = Vec::new();
    for i in 0..=peers as i64 {
        let id = vmm.create(ull_config(2));
        vmm.start_with_credits(id, &[10 + i, 30 + i]).unwrap();
        ids.push(id);
    }
    for &id in &ids {
        vmm.pause(id, PausePolicy::horse()).unwrap();
    }
    let x = ids.pop().unwrap();
    assert!(clean(&vmm.resume(x, ResumeMode::Horse).unwrap()));
    vmm.check_plans().unwrap();
    (vmm, x, ids, rq)
}

fn all_resume_cleanly(vmm: &mut Vmm, ids: &[SandboxId]) {
    for &id in ids {
        let outcome = vmm.resume(id, ResumeMode::Horse).unwrap();
        assert!(clean(&outcome), "{id}: {:?}", outcome.degradation);
        vmm.check_plans().unwrap();
    }
}

fn peer_maintenance(vmm: &Vmm, peers: &[SandboxId]) -> Vec<u64> {
    peers
        .iter()
        .map(|&id| vmm.sandbox(id).unwrap().maintenance_ns())
        .collect()
}

#[test]
fn warm_invoke_leaves_peer_plans_untouched() {
    let (mut vmm, x, peers, _) = resident_among(3);
    let before = peer_maintenance(&vmm, &peers);
    for _ in 0..5 {
        vmm.pause(x, PausePolicy::horse()).unwrap();
        vmm.check_plans().unwrap();
        assert!(clean(&vmm.resume(x, ResumeMode::Horse).unwrap()));
        vmm.check_plans().unwrap();
    }
    assert_eq!(
        peer_maintenance(&vmm, &peers),
        before,
        "maintenance charges only rebuilds actually performed: none"
    );
    vmm.pause(x, PausePolicy::horse()).unwrap();
    all_resume_cleanly(&mut vmm, &peers);
}

#[test]
fn resident_destroyed_restores_the_queue() {
    let (mut vmm, x, peers, rq) = resident_among(3);
    let before = peer_maintenance(&vmm, &peers);
    vmm.destroy(x).unwrap();
    assert!(queue_order(&vmm, rq).is_empty());
    vmm.check_plans().unwrap();
    assert_eq!(peer_maintenance(&vmm, &peers), before, "no rebuild owed");
    all_resume_cleanly(&mut vmm, &peers);
}

#[test]
fn dispatch_settles_before_popping_the_resident() {
    let (mut vmm, x, peers, rq) = resident_among(3);
    // x holds credits 13 and 33: the lowest on the queue is its own.
    let (credit, vcpu) = vmm.ull_dispatch(rq).unwrap();
    assert_eq!((credit, vcpu.sandbox), (13, x));
    vmm.check_plans().unwrap();
    // x re-pauses with the vCPU it has left; peers splice around it.
    all_resume_cleanly(&mut vmm, &peers[..1]);
    vmm.pause(x, PausePolicy::horse()).unwrap();
    vmm.check_plans().unwrap();
    all_resume_cleanly(&mut vmm, &peers[1..]);
    all_resume_cleanly(&mut vmm, &[x]);
}

#[test]
fn second_resume_on_the_queue_settles_the_first() {
    let (mut vmm, x, peers, rq) = resident_among(3);
    let y = peers[0];
    // y's plan predates x's merge: it must be rebuilt, not fall back.
    all_resume_cleanly(&mut vmm, &[y]);
    assert_eq!(queue_order(&vmm, rq).len(), 4);
    // x is no longer the resident: its pause rebuilds the peers …
    vmm.pause(x, PausePolicy::horse()).unwrap();
    vmm.check_plans().unwrap();
    // … and y, resident since its resume, is displaced by that rebuild.
    vmm.pause(y, PausePolicy::horse()).unwrap();
    vmm.check_plans().unwrap();
    all_resume_cleanly(&mut vmm, &peers);
    all_resume_cleanly(&mut vmm, &[x]);
}

#[test]
fn pause_onto_another_queue_than_it_ran_on() {
    let mut vmm = vmm_with(2);
    let ids: Vec<SandboxId> = (0..5i64)
        .map(|i| {
            let id = vmm.create(ull_config(2));
            vmm.start_with_credits(id, &[10 + i, 30 + i]).unwrap();
            id
        })
        .collect();
    // Assignment balances paused counts: homes alternate q0, q1, q0, q1, q0.
    let homes: Vec<RqId> = ids
        .iter()
        .map(|&id| {
            let report = vmm.pause(id, PausePolicy::horse()).unwrap();
            report.ull_rq.unwrap()
        })
        .collect();
    let (q0, q1) = (homes[0], homes[1]);
    assert_eq!(homes, [q0, q1, q0, q1, q0]);
    // One resident per queue; q0 keeps two paused sandboxes, q1 one.
    all_resume_cleanly(&mut vmm, &ids[..2]);
    // ids[0] ran on q0 but is assigned the emptier q1, where ids[1] is
    // in transit: its plan must describe q1 *with* ids[1] on it, and the
    // plans left on q0 must not have noticed ids[0] at all.
    let moved = vmm.pause(ids[0], PausePolicy::horse()).unwrap();
    assert_eq!(moved.ull_rq, Some(q1));
    vmm.check_plans().unwrap();
    vmm.pause(ids[1], PausePolicy::horse()).unwrap();
    vmm.check_plans().unwrap();
    all_resume_cleanly(&mut vmm, &ids);
}

#[test]
fn crash_mid_pause_of_the_resident_keeps_peers_fresh() {
    let (mut vmm, x, peers, rq) = resident_among(3);
    vmm.set_injector(FaultInjector::new(
        9,
        FaultPlan::new().with(FaultSite::CrashMidPause, FaultTrigger::Once(1)),
    ));
    let err = vmm.pause(x, PausePolicy::horse()).unwrap_err();
    assert_eq!(
        err,
        VmmError::Crashed {
            id: x,
            mid_resume: false
        }
    );
    assert!(queue_order(&vmm, rq).is_empty());
    vmm.check_plans().unwrap();
    all_resume_cleanly(&mut vmm, &peers);
}

#[test]
fn crash_mid_pause_of_a_non_resident_settles() {
    let (mut vmm, x, peers, _) = resident_among(3);
    let y = peers[0];
    all_resume_cleanly(&mut vmm, &[y]);
    // y is the resident now; x crashes while pausing beside it.
    vmm.set_injector(FaultInjector::new(
        9,
        FaultPlan::new().with(FaultSite::CrashMidPause, FaultTrigger::Once(1)),
    ));
    vmm.pause(x, PausePolicy::horse()).unwrap_err();
    vmm.check_plans().unwrap();
    vmm.pause(y, PausePolicy::horse()).unwrap();
    all_resume_cleanly(&mut vmm, &peers);
}

#[test]
fn crash_mid_resume_beside_a_resident() {
    let (mut vmm, x, peers, _) = resident_among(3);
    vmm.set_injector(FaultInjector::new(
        9,
        FaultPlan::new().with(FaultSite::CrashMidResume, FaultTrigger::Once(1)),
    ));
    let err = vmm.resume(peers[0], ResumeMode::Horse).unwrap_err();
    assert_eq!(
        err,
        VmmError::Crashed {
            id: peers[0],
            mid_resume: true
        }
    );
    vmm.check_plans().unwrap();
    vmm.pause(x, PausePolicy::horse()).unwrap();
    vmm.check_plans().unwrap();
    all_resume_cleanly(&mut vmm, &peers[1..]);
}

#[test]
fn failing_the_residents_queue_rehomes_everyone() {
    let mut vmm = vmm_with(2);
    let ids: Vec<SandboxId> = (0..6i64)
        .map(|i| {
            let id = vmm.create(ull_config(2));
            vmm.start_with_credits(id, &[10 + i, 30 + i]).unwrap();
            id
        })
        .collect();
    for &id in &ids {
        vmm.pause(id, PausePolicy::horse()).unwrap();
    }
    // One resident on each queue, then one queue fails.
    all_resume_cleanly(&mut vmm, &ids[..2]);
    let failed = vmm.sandbox(ids[0]).unwrap().placement_queues()[0];
    let report = vmm.fail_ull_queue(failed);
    assert_eq!((report.migrated_running, report.degraded), (2, 0));
    vmm.check_plans().unwrap();
    for &id in &ids[..2] {
        vmm.pause(id, PausePolicy::horse()).unwrap();
        vmm.check_plans().unwrap();
    }
    all_resume_cleanly(&mut vmm, &ids);
}

#[test]
fn a_start_that_forgets_to_settle_is_caught() {
    // The check plane's planted bug (`--mutate resident-skips-settle`).
    let (mut vmm, x, peers, _) = resident_among(3);
    let newcomer = vmm.create(ull_config(1));
    vmm.start_with_credits_unsettled(newcomer, &[1]).unwrap();
    assert!(vmm.check_plans().is_err(), "white box sees it at once");
    // Black box: x re-pauses as the resident, skipping the rebuild the
    // start owed, and the next peer resume has to fall back.
    vmm.pause(x, PausePolicy::horse()).unwrap();
    let outcome = vmm.resume(peers[0], ResumeMode::Horse).unwrap();
    assert!(outcome.degradation.plan_fallback);
}
