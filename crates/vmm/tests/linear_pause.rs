//! The linear pause: `Vmm::pause` takes a sandbox's vCPUs off each queue
//! in **one** walk ([`HostScheduler::dequeue_sandbox`]) and builds the
//! merge list by tail appends, where it used to walk to every node's
//! predecessor and scan the merge list per insert. Checked here:
//!
//! * the one-walk dequeue ≡ one `dequeue_vcpu` per node — same surviving
//!   queues, same `(credit, vcpu)` multiset, same `ArenaStats`;
//! * the virtual axis still prices the kernel's sorted insert: the
//!   `BuildMergeList` step equals its closed form in the vCPU count;
//! * a pause steps over at most `n + q` list nodes, counted — not timed.

use horse_sched::{
    CpuTopology, GovernorPolicy, HostScheduler, RqId, SandboxId, SchedConfig, SchedFlavor, Vcpu,
    VcpuId,
};
use horse_vmm::{CostModel, PausePolicy, PauseStep, ResumeMode, SandboxConfig, Vmm};
use proptest::prelude::*;

fn sched_config() -> SchedConfig {
    SchedConfig {
        topology: CpuTopology::new(1, 8, false),
        ull_queues: 1,
        governor_policy: GovernorPolicy::Performance,
        flavor: SchedFlavor::Credit2,
    }
}

fn config(vcpus: u32, ull: bool) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .ull(ull)
        .build()
        .unwrap()
}

/// `(credit, vcpu id, sandbox)` of every vCPU on a queue, in queue order.
fn queue_order(sched: &HostScheduler, rq: RqId) -> Vec<(i64, u64, u64)> {
    sched
        .queue_list(rq)
        .iter(sched.arena())
        .map(|(_, credit, vcpu)| (credit, vcpu.id.as_u64(), vcpu.sandbox.as_u64()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 1–4 sandboxes spread over 1–3 queues with colliding credits; one
    /// of them leaves.
    #[test]
    fn one_walk_dequeue_is_one_dequeue_per_node(
        placed in proptest::collection::vec((0usize..3, 0u64..4, -8i64..8), 1..48),
        queues in 1usize..=3,
        target in 0u64..4,
    ) {
        let build = || {
            let mut sched = HostScheduler::new(sched_config());
            let nodes: Vec<_> = placed
                .iter()
                .enumerate()
                .map(|(i, &(q, owner, credit))| {
                    let rq = sched.general_queues()[q % queues];
                    let vcpu = Vcpu::new(VcpuId::new(i as u64), SandboxId::new(owner));
                    (rq, owner, sched.enqueue_vcpu(rq, credit, vcpu))
                })
                .collect();
            sched.take_arena_stats();
            (sched, nodes)
        };
        let target_id = SandboxId::new(target);

        let (mut looped, nodes) = build();
        let mut removed = Vec::new();
        for &(rq, owner, node) in &nodes {
            if owner == target {
                removed.push(looped.dequeue_vcpu(rq, node));
            }
        }

        let (mut walked, _) = build();
        let mut taken = Vec::new();
        let mut steps = 0;
        let mut queued = 0;
        for q in 0..queues {
            let rq = walked.general_queues()[q];
            let n = nodes.iter().filter(|&&(on, owner, _)| on == rq && owner == target).count();
            queued += walked.queue(rq).len();
            steps += walked.dequeue_sandbox(rq, target_id, n, &mut taken);
        }

        for q in 0..queues {
            let rq = walked.general_queues()[q];
            prop_assert_eq!(queue_order(&walked, rq), queue_order(&looped, rq));
            walked.queue_list(rq).check_invariants(walked.arena()).unwrap();
        }
        let key = |&(credit, vcpu): &(i64, Vcpu)| (credit, vcpu.id.as_u64());
        taken.sort_unstable_by_key(key);
        removed.sort_unstable_by_key(key);
        prop_assert_eq!(taken, removed);
        prop_assert_eq!(walked.take_arena_stats(), looped.take_arena_stats());
        prop_assert!(steps <= queued, "{} steps over {} queued nodes", steps, queued);
    }
}

#[test]
#[should_panic(expected = "fewer matching nodes")]
fn a_vcpu_missing_from_its_queue_still_panics() {
    let mut sched = HostScheduler::new(sched_config());
    let rq = sched.ull_queues()[0];
    let owner = SandboxId::new(7);
    for i in 0..3 {
        sched.enqueue_vcpu(rq, i, Vcpu::new(VcpuId::new(i as u64), owner));
    }
    // The caller believes in a fourth placement on this queue.
    sched.dequeue_sandbox(rq, owner, 4, &mut Vec::new());
}

/// `BuildMergeList` as the sorted insert of `n` ascending keys counts it:
/// `n` allocations, `0 + 1 + … + (n − 1)` comparisons, 2 pointer writes
/// for the first node and 3 for each later one.
fn build_merge_list_ns(cost: &CostModel, n: u64) -> u64 {
    (n as f64 * cost.alloc_ns
        + (n * (n - 1) / 2) as f64 * cost.cmp_ns
        + (3 * n - 1) as f64 * cost.ptr_write_ns)
        .round() as u64
}

#[test]
fn the_virtual_axis_still_prices_the_sorted_insert() {
    let cost = CostModel::calibrated();
    for vcpus in [1u32, 2, 8, 36, 144] {
        let mut vmm = Vmm::new(sched_config(), cost);
        let id = vmm.create(config(vcpus, true));
        // Colliding credits: FIFO ties must not change the count either.
        let credits: Vec<i64> = (0..i64::from(vcpus)).map(|i| i / 3).collect();
        vmm.start_with_credits(id, &credits).unwrap();
        for cycle in 0..3 {
            let report = vmm.pause(id, PausePolicy::horse()).unwrap();
            assert_eq!(
                report.breakdown.get(PauseStep::BuildMergeList),
                build_merge_list_ns(&cost, u64::from(vcpus)),
                "vcpus={vcpus} cycle={cycle}"
            );
            vmm.resume(id, ResumeMode::Horse).unwrap();
        }
    }
}

#[test]
fn a_144_vcpu_pause_steps_over_at_most_n_plus_q_nodes() {
    const N: u32 = 144;
    let mut vmm = Vmm::new(sched_config(), CostModel::calibrated());
    let rq = vmm.sched().ull_queues()[0];
    // A background sandbox on even credits interleaves with the measured
    // one on odd credits: the longest walk and one splice per vCPU.
    let background = vmm.create(config(N, true));
    let evens: Vec<i64> = (0..i64::from(N)).map(|i| 2 * i + 2).collect();
    vmm.start_with_credits(background, &evens).unwrap();
    let measured = vmm.create(config(N, true));
    let odds: Vec<i64> = (0..i64::from(N)).map(|i| 2 * i + 1).collect();
    vmm.start_with_credits(measured, &odds).unwrap();

    for cycle in 0..3 {
        let q = vmm.sched().queue(rq).len() as u64;
        assert_eq!(q, 2 * u64::from(N));
        let before = vmm.pause_walk_steps();
        vmm.pause(measured, PausePolicy::horse()).unwrap();
        let steps = vmm.pause_walk_steps() - before;
        // The walk stops at the 144-th match, one node short of the end.
        assert_eq!(steps, (q - 1) + u64::from(N), "cycle {cycle}");
        assert!(steps <= u64::from(N) + q);
        assert_eq!(vmm.sched().queue(rq).len() as u64, q - u64::from(N));
        let outcome = vmm.resume(measured, ResumeMode::Horse).unwrap();
        assert!(!outcome.degradation.any());
        vmm.check_plans().unwrap();
    }
}

/// A non-uLL sandbox spreads over the general queues (the `Warm` path):
/// one walk per queue it sits on, each bounded by that queue's length.
#[test]
fn a_pause_spread_over_general_queues_walks_each_queue_once() {
    const N: u32 = 24;
    let mut vmm = Vmm::new(sched_config(), CostModel::calibrated());
    let other = vmm.create(config(N, false));
    vmm.start(other).unwrap();
    let id = vmm.create(config(N, false));
    vmm.start(id).unwrap();
    for cycle in 0..3 {
        let on = vmm.sandbox(id).unwrap().placement_queues();
        assert_eq!(on.len(), N as usize);
        let mut distinct = on.clone();
        distinct.sort_unstable_by_key(|rq| rq.as_usize());
        distinct.dedup();
        // `start` balances per vCPU; a vanilla resume re-inserts them all
        // before it updates any load, so later cycles sit on one queue.
        assert!(
            cycle > 0 || distinct.len() > 1,
            "start spans several queues"
        );
        let queued: u64 = distinct
            .iter()
            .map(|rq| vmm.sched().queue(*rq).len() as u64)
            .sum();
        let total_before = vmm.sched().total_queued();
        let before = vmm.pause_walk_steps();
        vmm.pause(id, PausePolicy::vanilla()).unwrap();
        let steps = vmm.pause_walk_steps() - before;
        assert!(
            steps <= queued,
            "cycle {cycle}: {steps} steps over {queued}"
        );
        assert_eq!(vmm.sched().total_queued(), total_before - N as usize);
        for &rq in vmm.sched().general_queues() {
            let sched = vmm.sched();
            sched
                .queue_list(rq)
                .check_invariants(sched.arena())
                .unwrap();
            assert!(queue_order(sched, rq).iter().all(|v| v.2 != id.as_u64()));
        }
        vmm.resume(id, ResumeMode::Vanilla).unwrap();
    }
}
