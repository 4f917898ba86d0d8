//! Observable-equivalence tests: HORSE must change *when* things happen,
//! never *what* happens. After a resume, the scheduler state reachable
//! through any public API must be indistinguishable from the vanilla
//! path's.

use horse::prelude::*;
use horse_sched::{CpuTopology, GovernorPolicy, Vcpu};
use horse_vmm::CostModel;
use proptest::prelude::*;

fn build_vmm() -> Vmm {
    Vmm::new(
        SchedConfig {
            topology: CpuTopology::new(1, 8, false),
            ull_queues: 1,
            governor_policy: GovernorPolicy::Schedutil,
            flavor: Default::default(),
        },
        CostModel::calibrated(),
    )
}

fn cfg(vcpus: u32) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .ull(true)
        .build()
        .unwrap()
}

/// Collects every queued (queue, credit, sandbox) triple, sorted.
fn queue_snapshot(vmm: &Vmm) -> Vec<(usize, i64, u64)> {
    let sched = vmm.sched();
    let mut out = Vec::new();
    for rq in sched.general_queues().iter().chain(sched.ull_queues()) {
        for (_, credit, vcpu) in sched.queue_list(*rq).iter(sched.arena()) {
            let v: &Vcpu = vcpu;
            out.push((rq.as_usize(), credit, v.sandbox.as_u64()));
        }
    }
    out.sort();
    out
}

#[test]
fn resumed_queue_contents_are_identical_across_ull_modes() {
    // ppsm, coal and horse all target the ull queue; their post-resume
    // queue contents must agree exactly (same credits, same sandboxes).
    let mut snapshots = Vec::new();
    for mode in [ResumeMode::Ppsm, ResumeMode::Coal, ResumeMode::Horse] {
        let mut vmm = build_vmm();
        let id = vmm.create(cfg(8));
        vmm.start(id).unwrap();
        vmm.pause(
            id,
            PausePolicy {
                precompute_merge: mode.uses_ppsm(),
                precompute_coalesce: mode.uses_coalescing(),
            },
        )
        .unwrap();
        vmm.resume(id, mode).unwrap();
        snapshots.push(queue_snapshot(&vmm));
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[1], snapshots[2]);
    assert_eq!(snapshots[0].len(), 8);
}

#[test]
fn load_values_agree_between_coalesced_and_per_vcpu() {
    // The DVFS governor must see the same load either way — otherwise
    // HORSE would change frequency-scaling behaviour.
    let run = |mode: ResumeMode| -> (f64, u32) {
        let mut vmm = build_vmm();
        let id = vmm.create(cfg(16));
        vmm.start(id).unwrap();
        vmm.pause(
            id,
            PausePolicy {
                precompute_merge: mode.uses_ppsm(),
                precompute_coalesce: mode.uses_coalescing(),
            },
        )
        .unwrap();
        vmm.resume(id, mode).unwrap();
        let rq = vmm.sched().ull_queues()[0];
        (
            vmm.sched().queue(rq).load().get(),
            vmm.sched().target_pstate(rq).khz(),
        )
    };
    let (ppsm_load, ppsm_freq) = run(ResumeMode::Ppsm);
    let (horse_load, horse_freq) = run(ResumeMode::Horse);
    assert!(
        (ppsm_load - horse_load).abs() < 1e-6 * ppsm_load.abs().max(1.0),
        "loads diverge: {ppsm_load} vs {horse_load}"
    );
    assert_eq!(ppsm_freq, horse_freq, "governor decisions must match");
}

#[test]
fn dispatch_order_is_credit_sorted_after_horse_merge() {
    // After a P2SM splice, picking tasks off the ull queue must yield
    // strictly non-decreasing credits (least credit first — credit2).
    let mut vmm = build_vmm();
    let a = vmm.create(cfg(5));
    let b = vmm.create(cfg(5));
    vmm.start(a).unwrap();
    vmm.start(b).unwrap();
    vmm.pause(a, PausePolicy::horse()).unwrap();
    vmm.resume(a, ResumeMode::Horse).unwrap();
    let rq = vmm.sched().ull_queues()[0];
    let mut last = i64::MIN;
    let mut popped = 0;
    while let Some((credit, _)) = vmm.ull_dispatch(rq) {
        assert!(credit >= last, "unsorted dispatch: {credit} after {last}");
        last = credit;
        popped += 1;
    }
    assert_eq!(popped, 10, "both sandboxes' vCPUs were queued");
}

#[test]
fn pause_resume_is_lossless_for_vcpu_identity() {
    // Every vCPU that was paused comes back; none duplicated, none lost.
    let mut vmm = build_vmm();
    let id = vmm.create(cfg(7));
    vmm.start(id).unwrap();
    let before = queue_snapshot(&vmm);
    for _ in 0..5 {
        vmm.pause(id, PausePolicy::horse()).unwrap();
        assert_eq!(queue_snapshot(&vmm).len(), 0, "paused vCPUs leave queues");
        vmm.resume(id, ResumeMode::Horse).unwrap();
    }
    let after = queue_snapshot(&vmm);
    // Credits are preserved across pause/resume, so snapshots match
    // exactly (queue index may differ between general/ull placement on
    // first start vs resume — both are the ull queue here).
    assert_eq!(before.len(), after.len());
    let ids_before: Vec<u64> = before.iter().map(|(_, _, s)| *s).collect();
    let ids_after: Vec<u64> = after.iter().map(|(_, _, s)| *s).collect();
    assert_eq!(ids_before, ids_after);
}

#[test]
fn arena_stats_show_o1_vs_on_merge_work() {
    // The op counters — the basis of the cost model — must show the
    // asymptotic gap at the scheduler level: per-vCPU sorted inserts cost
    // comparisons that grow quadratically, 𝒫²𝒮ℳ's splice costs zero.
    use horse_sched::{HostScheduler, SandboxId, Vcpu, VcpuId};

    let vanilla_comparisons = |n: u64| -> u64 {
        let mut sched = HostScheduler::new(SchedConfig::default());
        let rq = sched.ull_queues()[0];
        for i in 0..n {
            sched.enqueue_vcpu(rq, i as i64, Vcpu::new(VcpuId::new(i), SandboxId::new(0)));
        }
        sched.take_arena_stats().comparisons
    };
    let vanilla_8 = vanilla_comparisons(8);
    let vanilla_32 = vanilla_comparisons(32);
    assert_eq!(vanilla_8, 28, "0+1+..+7 comparisons");
    assert_eq!(vanilla_32, 496, "quadratic growth");
    assert!(vanilla_32 > 10 * vanilla_8);

    // HORSE merge: zero comparisons regardless of size.
    let mut sched = HostScheduler::new(SchedConfig::default());
    let rq = sched.ull_queues()[0];
    let mut merge_vcpus = horse_core::SortedList::new();
    for i in 0..32u64 {
        merge_vcpus.insert_sorted(
            sched.arena_mut(),
            i as i64,
            Vcpu::new(VcpuId::new(i), SandboxId::new(1)),
        );
    }
    let plan = sched.ull_precompute(rq, merge_vcpus);
    sched.take_arena_stats();
    sched
        .ull_merge_recycling(rq, plan, SpliceMode::Sequential)
        .unwrap();
    assert_eq!(
        sched.take_arena_stats().comparisons,
        0,
        "P2SM merge performs no comparisons"
    );
}

// ---------------------------------------------------------------------------
// Property tests: 𝒫²𝒮ℳ splice merge vs the two vanilla references, over
// arbitrary vCPU counts and credit vectors. Values carry per-element tags
// so the properties check *stability* (FIFO among equal credits,
// residents before the merged-in batch) and not just key order.
// ---------------------------------------------------------------------------

/// Builds a sorted list by per-element insertion, tagging element `i`
/// with `tag0 + i` so provenance survives the merge.
fn build_tagged(arena: &mut Arena<u64>, credits: &[i64], tag0: u64) -> SortedList {
    let mut l = SortedList::new();
    for (i, &c) in credits.iter().enumerate() {
        l.insert_sorted(arena, c, tag0 + i as u64);
    }
    l
}

fn tagged_seq(arena: &Arena<u64>, l: &SortedList) -> Vec<(i64, u64)> {
    l.iter(arena).map(|(_, k, v)| (k, *v)).collect()
}

/// The obviously-correct reference: a stable two-way merge of the
/// already-sorted sequences, residents (`b`) first on credit ties.
fn reference_merge(b: &[(i64, u64)], a: &[(i64, u64)]) -> Vec<(i64, u64)> {
    let mut out = Vec::with_capacity(b.len() + a.len());
    let (mut i, mut j) = (0, 0);
    while i < b.len() && j < a.len() {
        if b[i].0 <= a[j].0 {
            out.push(b[i]);
            i += 1;
        } else {
            out.push(a[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&b[i..]);
    out.extend_from_slice(&a[j..]);
    out
}

/// A (credit, tag) sequence as observed by walking a queue.
type Tagged = Vec<(i64, u64)>;

/// Runs one splice-merge case and returns (fast, walk, reference).
fn merge_three_ways(b_credits: &[i64], a_credits: &[i64]) -> (Tagged, Tagged, Tagged) {
    let mut fast_arena = Arena::new();
    let mut fast_b = build_tagged(&mut fast_arena, b_credits, 0);
    let fast_a = build_tagged(&mut fast_arena, a_credits, 1_000_000);
    let b_seq = tagged_seq(&fast_arena, &fast_b);
    let a_seq = tagged_seq(&fast_arena, &fast_a);
    let plan = MergePlan::precompute(&fast_arena, &fast_b, fast_a);
    plan.merge(&fast_arena, &mut fast_b, SpliceMode::Sequential)
        .expect("plan is fresh");
    fast_b
        .check_invariants(&fast_arena)
        .expect("merged list invariants");

    let mut walk_arena = Arena::new();
    let mut walk_b = build_tagged(&mut walk_arena, b_credits, 0);
    let walk_a = build_tagged(&mut walk_arena, a_credits, 1_000_000);
    walk_b.merge_walk(&walk_arena, walk_a);
    walk_b
        .check_invariants(&walk_arena)
        .expect("walked list invariants");

    (
        tagged_seq(&fast_arena, &fast_b),
        tagged_seq(&walk_arena, &walk_b),
        reference_merge(&b_seq, &a_seq),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 𝒫²𝒮ℳ merge == merge_walk == stable reference merge for arbitrary
    /// credit vectors. The narrow credit range forces heavy duplication
    /// (the stability-sensitive regime); sizes start at 0 so empty-A,
    /// empty-B and empty-both all occur.
    #[test]
    fn p2sm_merge_equals_both_references(
        b_credits in proptest::collection::vec(-20i64..20, 0..48),
        a_credits in proptest::collection::vec(-20i64..20, 0..40),
    ) {
        let (fast, walk, reference) = merge_three_ways(&b_credits, &a_credits);
        prop_assert_eq!(&fast, &reference, "splice merge diverges from stable reference");
        prop_assert_eq!(&fast, &walk, "splice merge diverges from merge_walk");
    }

    /// Degenerate splice tables: every element of A lands at one anchor
    /// (strictly before all of B, or strictly after) — the single-splice
    /// head/tail cases.
    #[test]
    fn p2sm_merge_single_splice_point(
        b_credits in proptest::collection::vec(0i64..10, 1..24),
        a_len in 1usize..24,
        before_head in any::<bool>(),
    ) {
        let a_credits: Vec<i64> = (0..a_len)
            .map(|i| if before_head { -100 + i as i64 % 3 } else { 100 + i as i64 % 3 })
            .collect();
        let (fast, walk, reference) = merge_three_ways(&b_credits, &a_credits);
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(&fast, &walk);
    }

    /// All-equal credits: the pure tie-breaking case. The merged batch
    /// must land after every resident, in batch order.
    #[test]
    fn p2sm_merge_all_duplicates(
        credit in -5i64..5,
        b_len in 0usize..24,
        a_len in 0usize..24,
    ) {
        let b_credits = vec![credit; b_len];
        let a_credits = vec![credit; a_len];
        let (fast, walk, reference) = merge_three_ways(&b_credits, &a_credits);
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(&fast, &walk);
        let tags: Vec<u64> = fast.iter().map(|&(_, t)| t).collect();
        let expected: Vec<u64> = (0..b_len as u64)
            .chain((0..a_len as u64).map(|i| 1_000_000 + i))
            .collect();
        prop_assert_eq!(tags, expected, "residents first, both sides FIFO");
    }
}
