//! Differential oracles: HORSE fast paths vs vanilla paths vs specs.
//!
//! Every case builds the same randomized scenario twice — once through
//! the HORSE fast path (𝒫²𝒮ℳ splice merge, coalesced load update,
//! `ResumeMode::Horse`) and once through the vanilla path (two-pointer
//! `merge_walk` / per-element insert, iterated load updates,
//! `ResumeMode::Vanilla`) — plus once through the sequential reference
//! model, and demands identical observable results (exact queue
//! contents; float loads within the tolerance DESIGN.md §11 documents).
//!
//! A [`Mutation`] plants a known bug into the fast path; the oracle
//! must then reject the case (`check_suite --mutate`'s negative
//! self-test).

use crate::mutate::Mutation;
use crate::spec::{SpecLoad, SpecPool, SpecRunQueue};
use horse_core::{Arena, LoadUpdate, MergePlan, SortedList, SpliceMode};
use horse_faas::{KeepAlive, ShardedWarmPool};
use horse_sched::{SandboxId, Vcpu};
use horse_sim::{SimDuration, SimTime};
use horse_vmm::{CostModel, PausePolicy, ResumeMode, SandboxConfig, Vmm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Relative tolerance for comparing coalesced vs iterated load values,
/// scaled by `n + 1` elementary updates (documented in DESIGN.md §11).
pub const LOAD_REL_TOLERANCE: f64 = 1e-9;

/// Derives the per-case RNG seed (printed in failure reports so a
/// single case replays without re-running the whole section).
pub fn case_seed(seed: u64, case: u64) -> u64 {
    seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn build_list(arena: &mut Arena<u64>, items: &[(i64, u64)]) -> SortedList {
    let mut l = SortedList::new();
    for &(k, tag) in items {
        l.insert_sorted(arena, k, tag);
    }
    l
}

fn contents(arena: &Arena<u64>, l: &SortedList) -> Vec<(i64, u64)> {
    l.iter(arena).map(|(_, k, v)| (k, *v)).collect()
}

/// Swaps the nodes at positions `p` and `p + 1` of `list` by raw
/// pointer surgery — exactly what a misordered splice produces. `p`
/// must satisfy `1 <= p && p + 2 < len` so neither the head nor the
/// tail handle is involved.
fn swap_adjacent_nodes(arena: &Arena<u64>, list: &SortedList, p: usize) {
    let nodes: Vec<_> = list.iter(arena).map(|(n, _, _)| n).collect();
    assert!(p >= 1 && p + 2 < nodes.len(), "swap point must be interior");
    let prev = nodes[p - 1];
    let x = nodes[p];
    let y = nodes[p + 1];
    let rest = arena.next(y);
    arena.set_next(prev, Some(y));
    arena.set_next(y, Some(x));
    arena.set_next(x, rest);
}

/// One differential merge case: 𝒫²𝒮ℳ vs `merge_walk` vs
/// [`SpecRunQueue`], over random credit vectors (duplicates included).
pub fn merge_oracle_case(seed: u64, case: u64, mutation: Option<Mutation>) -> Result<(), String> {
    type Items = Vec<(i64, u64)>;
    let mut rng = StdRng::seed_from_u64(case_seed(seed, case));
    let (b_items, a_items): (Items, Items) = if mutation.is_some() {
        // Mutation runs use a fixed-shape scenario with distinct interior
        // keys so the planted bug always has somewhere to bite.
        let b: Vec<(i64, u64)> = (0..8).map(|i| (i * 10, i as u64)).collect();
        let a: Vec<(i64, u64)> = (0..6).map(|i| (i * 10 + 5, 100 + i as u64)).collect();
        (b, a)
    } else {
        let b_len = rng.gen_range(0..48usize);
        let a_len = rng.gen_range(0..40usize);
        // Narrow key range on purpose: duplicate credits are the
        // interesting stability cases.
        let b = (0..b_len)
            .map(|i| (rng.gen_range(-20i64..20), i as u64))
            .collect();
        let a = (0..a_len)
            .map(|i| (rng.gen_range(-20i64..20), 1_000 + i as u64))
            .collect();
        (b, a)
    };

    // --- HORSE fast path: precompute + splice merge. -------------------
    let mut fast_arena = Arena::new();
    let mut fast_b = build_list(&mut fast_arena, &b_items);
    let fast_a = build_list(&mut fast_arena, &a_items);
    let a_sorted_tags: Vec<(i64, u64)> = contents(&fast_arena, &fast_a);
    let plan = MergePlan::precompute(&fast_arena, &fast_b, fast_a);

    if mutation == Some(Mutation::StaleMergePlan) {
        // B mutates under the plan with no maintenance callback: the
        // front vCPU is dispatched off the queue.
        fast_b.pop_front(&mut fast_arena);
    }
    // Spec prediction starts from B exactly as the merge will see it.
    let oracle_b_items = contents(&fast_arena, &fast_b);

    match plan.merge(&fast_arena, &mut fast_b, SpliceMode::Sequential) {
        Ok(report) => {
            if report.merged != a_items.len() {
                return Err(format!(
                    "merge report claims {} merged, expected {}",
                    report.merged,
                    a_items.len()
                ));
            }
        }
        Err(e) => {
            return Err(format!(
                "fast-path merge refused: {e} (B mutated under the plan?)"
            ));
        }
    }

    if mutation == Some(Mutation::SpliceMisorder) {
        // Find an interior adjacent pair with differing keys and swap it.
        let keys = fast_b.keys(&fast_arena);
        let p = (1..keys.len().saturating_sub(2))
            .find(|&p| keys[p] != keys[p + 1])
            .expect("fixed mutation scenario has distinct interior keys");
        swap_adjacent_nodes(&fast_arena, &fast_b, p);
    }

    // --- vanilla path: two-pointer merge walk. -------------------------
    let mut slow_arena = Arena::new();
    let mut slow_b = build_list(&mut slow_arena, &b_items);
    let slow_a = build_list(&mut slow_arena, &a_items);
    slow_b.merge_walk(&slow_arena, slow_a);

    // --- sequential spec. ----------------------------------------------
    let mut spec = SpecRunQueue::from_inserts(&oracle_b_items);
    let batch = SpecRunQueue::from_inserts(&a_sorted_tags);
    spec.merge(&batch);
    spec.check_sorted()
        .expect("spec queue is sorted by construction");

    let fast = contents(&fast_arena, &fast_b);
    let slow = contents(&slow_arena, &slow_b);
    if fast != spec.entries() {
        return Err(format!(
            "fast path diverges from spec:\n  fast: {fast:?}\n  spec: {:?}",
            spec.entries()
        ));
    }
    if mutation != Some(Mutation::StaleMergePlan) && fast != slow {
        return Err(format!(
            "fast path diverges from merge_walk:\n  fast: {fast:?}\n  slow: {slow:?}"
        ));
    }
    fast_b
        .check_invariants(&fast_arena)
        .map_err(|e| format!("fast-path queue invariant broken after merge: {e}"))?;
    Ok(())
}

/// One differential coalescing case: the precomputed closed form vs the
/// sequential [`SpecLoad`] reference.
pub fn coalesce_oracle_case(
    seed: u64,
    case: u64,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, case) ^ 0xC0A1);
    let (alpha, beta, x, n) = if mutation == Some(Mutation::CoalesceOffByOne) {
        // A regime where the off-by-one error term β·α^{n−1} is far
        // above tolerance.
        (
            rng.gen_range(0.5f64..0.95),
            rng.gen_range(1.0f64..100.0),
            rng.gen_range(-100.0f64..100.0),
            rng.gen_range(2u32..24),
        )
    } else {
        let alpha = match rng.gen_range(0..4u32) {
            0 => 1.0,
            1 => rng.gen_range(0.95f64..1.05),
            _ => rng.gen_range(0.0f64..1.0),
        };
        (
            alpha,
            rng.gen_range(-1e4f64..1e4),
            rng.gen_range(-1e6f64..1e6),
            rng.gen_range(0u32..64),
        )
    };

    let u = LoadUpdate::new(alpha, beta).map_err(|e| e.to_string())?;
    let fast = if mutation == Some(Mutation::CoalesceOffByOne) {
        // The paper's misprinted exponent: Σ_{i=0}^{n-2} αⁱ.
        let alpha_n = alpha.powi(n as i32);
        let geometric = if (alpha - 1.0).abs() < f64::EPSILON {
            (n as f64) - 1.0
        } else {
            (1.0 - alpha.powi(n as i32 - 1)) / (1.0 - alpha)
        };
        alpha_n * x + beta * geometric
    } else {
        u.coalesce(n).apply(x)
    };
    let slow = SpecLoad::new(alpha, beta, x).predict_n(n);
    let tolerance = LOAD_REL_TOLERANCE * slow.abs().max(1.0) * (n as f64 + 1.0);
    if (fast - slow).abs() > tolerance {
        return Err(format!(
            "coalesced load diverges from sequential reference: \
             alpha={alpha} beta={beta} x={x} n={n} fast={fast} slow={slow} tol={tolerance}"
        ));
    }
    Ok(())
}

/// Single-threaded trajectory equivalence: drives [`SpecPool`] and
/// `ShardedWarmPool` with one identical randomized operation sequence
/// under a TTL keep-alive and requires:
///
/// * identical take results at every step (single-threaded, both are
///   strict LIFO over live entries);
/// * identical *cumulative* expiry-victim sets after every full sweep
///   (a take dooms only the expired entries it encounters, so only the
///   post-sweep union is deterministic);
/// * identical hit/miss statistics and empty pools at the end.
///
/// Removals target currently-live entries only, so a `remove` that
/// fails on either side is always a divergence — never an expired entry
/// that an earlier take had already doomed.
pub fn run_pool_trajectory(seed: u64, case: u64, steps: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, case) ^ 0x9001);
    let ttl = SimDuration::from_nanos(5_000);
    let ka = KeepAlive::Ttl(ttl);
    let mut spec = SpecPool::new(ka);
    let sharded = ShardedWarmPool::new(ka);

    let mut now = SimTime::ZERO;
    let mut next_id = 1u64;
    let mut all_ids: Vec<SandboxId> = Vec::new();
    let mut taken: BTreeSet<u64> = BTreeSet::new();
    let mut removed: BTreeSet<u64> = BTreeSet::new();
    let mut victims_spec: BTreeSet<u64> = BTreeSet::new();
    let mut victims_sharded: BTreeSet<u64> = BTreeSet::new();

    let sweep = |spec: &mut SpecPool,
                 vs: &mut BTreeSet<u64>,
                 vsh: &mut BTreeSet<u64>,
                 now: SimTime,
                 step: usize|
     -> Result<(), String> {
        vs.extend(spec.evict_expired(now).iter().map(|i| i.as_u64()));
        vs.extend(spec.drain_doomed().iter().map(|i| i.as_u64()));
        vsh.extend(sharded.evict_expired(now).iter().map(|i| i.as_u64()));
        vsh.extend(sharded.drain_doomed().iter().map(|i| i.as_u64()));
        if vs != vsh {
            return Err(format!(
                "step {step}: cumulative expiry victims diverge after sweep at {}ns:\n  \
                 spec: {vs:?}\n  sharded: {vsh:?}",
                now.as_nanos()
            ));
        }
        if spec.len() != sharded.len() {
            return Err(format!(
                "step {step}: post-sweep sizes diverge: spec={} sharded={}",
                spec.len(),
                sharded.len()
            ));
        }
        Ok(())
    };

    for step in 0..steps {
        now += SimDuration::from_nanos(rng.gen_range(0..2_000));
        match rng.gen_range(0..10u32) {
            0..=3 => {
                let id = SandboxId::new(next_id);
                next_id += 1;
                all_ids.push(id);
                spec.put(id, now);
                sharded.put(id, now);
            }
            4..=7 => {
                let a = spec.take(now);
                let b = sharded.take(now);
                if a != b {
                    return Err(format!(
                        "step {step}: take results diverge at {}ns: spec={a:?} sharded={b:?}",
                        now.as_nanos()
                    ));
                }
                if let Some(id) = a {
                    taken.insert(id.as_u64());
                }
            }
            8 => sweep(
                &mut spec,
                &mut victims_spec,
                &mut victims_sharded,
                now,
                step,
            )?,
            _ => {
                // Remove a random currently-live entry, if any.
                let live: Vec<SandboxId> = all_ids
                    .iter()
                    .copied()
                    .filter(|&id| spec.can_take(id, now))
                    .collect();
                if let Some(&id) = live.get(rng.gen_range(0..live.len().max(1))) {
                    let a = spec.remove(id);
                    let b = sharded.remove(id);
                    if !(a && b) {
                        return Err(format!(
                            "step {step}: live entry {} not removable everywhere: \
                             spec={a} sharded={b}",
                            id.as_u64()
                        ));
                    }
                    removed.insert(id.as_u64());
                }
            }
        }
    }

    // Final sweep far past every TTL: pools must drain completely and
    // every put id must be accounted for exactly once.
    let end = now + SimDuration::from_secs(3600);
    sweep(
        &mut spec,
        &mut victims_spec,
        &mut victims_sharded,
        end,
        steps,
    )?;
    if !spec.is_empty() || !sharded.is_empty() {
        return Err(format!(
            "pools not empty after final sweep: spec={} sharded={}",
            spec.len(),
            sharded.len()
        ));
    }
    let accounted: BTreeSet<u64> = taken
        .iter()
        .chain(removed.iter())
        .chain(victims_spec.iter())
        .copied()
        .collect();
    let every: BTreeSet<u64> = all_ids.iter().map(|i| i.as_u64()).collect();
    if accounted != every {
        return Err(format!(
            "conservation violated: {} ids put, {} accounted for (taken+removed+victims)",
            every.len(),
            accounted.len()
        ));
    }
    let (ss, hs) = (spec.stats(), sharded.stats());
    if (ss.hits, ss.misses) != (hs.hits, hs.misses) {
        return Err(format!(
            "hit/miss statistics diverge: spec=({}, {}) sharded=({}, {})",
            ss.hits, ss.misses, hs.hits, hs.misses
        ));
    }
    Ok(())
}

/// Collects every queued `(queue, credit, sandbox)` triple, sorted.
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

/// One randomized whole-pipeline case: the same pause/resume/dispatch
/// sequence driven through VMMs in every resume mode must leave
/// observably identical scheduler state.
///
/// `Ppsm` and `Coal` are the controlled baselines: each replaces exactly
/// one HORSE ingredient with its vanilla sub-algorithm *on the same
/// target queue* (per-element sorted inserts for the splice, per-vCPU
/// lock-protected updates for the coalesced load), so full snapshot,
/// load and dispatch equality against `Horse` isolates both fast paths.
/// Full `Vanilla` resume places vCPUs on the general queues instead of
/// the ull queue, so against it only the queue-agnostic
/// `(credit, sandbox)` multiset is required to match.
pub fn vmm_differential_case(seed: u64, case: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, case) ^ 0x7717);
    let n_sandboxes = rng.gen_range(1..4usize);
    let vcpu_counts: Vec<u32> = (0..n_sandboxes).map(|_| rng.gen_range(1..12u32)).collect();
    let ops: Vec<usize> = (0..rng.gen_range(4..16usize))
        .map(|_| rng.gen_range(0..n_sandboxes))
        .collect();

    #[allow(clippy::type_complexity)]
    let run =
        |mode: ResumeMode| -> Result<(Vec<(usize, i64, u64)>, Vec<f64>, Vec<(i64, u64)>), String> {
            let policy = PausePolicy {
                precompute_merge: mode.uses_ppsm(),
                precompute_coalesce: mode.uses_coalescing(),
            };
            let mut vmm = Vmm::new(Default::default(), CostModel::calibrated());
            let mut ids = Vec::new();
            for &v in &vcpu_counts {
                let cfg = SandboxConfig::builder()
                    .vcpus(v)
                    .ull(true)
                    .build()
                    .map_err(|e| format!("{e:?}"))?;
                let id = vmm.create(cfg);
                vmm.start(id).map_err(|e| format!("start: {e}"))?;
                ids.push(id);
            }
            let mut paused = vec![false; n_sandboxes];
            for &which in &ops {
                if paused[which] {
                    vmm.resume(ids[which], mode)
                        .map_err(|e| format!("resume: {e}"))?;
                } else {
                    vmm.pause(ids[which], policy)
                        .map_err(|e| format!("pause: {e}"))?;
                }
                paused[which] = !paused[which];
            }
            for (i, &p) in paused.iter().enumerate() {
                if p {
                    vmm.resume(ids[i], mode)
                        .map_err(|e| format!("final resume: {e}"))?;
                }
            }
            let snapshot = queue_snapshot(&vmm);
            let loads: Vec<f64> = vmm
                .sched()
                .ull_queues()
                .iter()
                .map(|&rq| vmm.sched().queue(rq).load().get())
                .collect();
            // Dispatch-drain the ull queues: order must be credit-sorted and
            // identical across modes.
            let mut dispatch = Vec::new();
            let ull_rqs = vmm.sched().ull_queues().to_vec();
            for rq in ull_rqs {
                while let Some((credit, vcpu)) = vmm.ull_dispatch(rq) {
                    dispatch.push((credit, vcpu.sandbox.as_u64()));
                }
            }
            Ok((snapshot, loads, dispatch))
        };

    let (horse_snap, horse_loads, horse_dispatch) = run(ResumeMode::Horse)?;
    for mode in [ResumeMode::Ppsm, ResumeMode::Coal] {
        let (snap, loads, dispatch) = run(mode)?;
        if horse_snap != snap {
            return Err(format!(
                "queue snapshots diverge between horse and {mode} after identical \
                 pause/resume sequence (vcpus={vcpu_counts:?}, ops={ops:?}):\n  \
                 horse: {horse_snap:?}\n  {mode}: {snap:?}"
            ));
        }
        for (i, (h, v)) in horse_loads.iter().zip(&loads).enumerate() {
            let tol = 1e-6 * v.abs().max(1.0);
            if (h - v).abs() > tol {
                return Err(format!(
                    "ull queue {i} load diverges: horse={h} {mode}={v} (tol {tol})"
                ));
            }
        }
        if horse_dispatch != dispatch {
            return Err(format!(
                "dispatch sequences diverge:\n  horse: {horse_dispatch:?}\n  {mode}: {dispatch:?}"
            ));
        }
    }
    let mut last = i64::MIN;
    for &(credit, _) in &horse_dispatch {
        if credit < last {
            return Err(format!(
                "horse dispatch order not credit-sorted: {credit} after {last}"
            ));
        }
        last = credit;
    }
    // Vanilla resume uses the general queues: compare the queue-agnostic
    // view (same vCPUs, same credits — just parked elsewhere).
    let (van_snap, _, _) = run(ResumeMode::Vanilla)?;
    let strip = |snap: &[(usize, i64, u64)]| -> Vec<(i64, u64)> {
        let mut v: Vec<(i64, u64)> = snap.iter().map(|&(_, c, s)| (c, s)).collect();
        v.sort_unstable();
        v
    };
    if strip(&horse_snap) != strip(&van_snap) {
        return Err(format!(
            "credit/sandbox multisets diverge between horse and vanilla \
             (vcpus={vcpu_counts:?}, ops={ops:?}):\n  horse: {horse_snap:?}\n  vanilla: {van_snap:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmutated_merge_cases_pass() {
        for case in 0..64 {
            merge_oracle_case(42, case, None).unwrap();
        }
    }

    #[test]
    fn unmutated_coalesce_cases_pass() {
        for case in 0..128 {
            coalesce_oracle_case(42, case, None).unwrap();
        }
    }

    #[test]
    fn pool_trajectories_agree() {
        for case in 0..16 {
            run_pool_trajectory(42, case, 200).unwrap();
        }
    }

    #[test]
    fn unmutated_vmm_cases_pass() {
        for case in 0..8 {
            vmm_differential_case(42, case).unwrap();
        }
    }

    #[test]
    fn splice_misorder_is_caught() {
        for case in 0..8 {
            let err = merge_oracle_case(42, case, Some(Mutation::SpliceMisorder))
                .expect_err("planted misorder must be caught");
            assert!(
                err.contains("diverges") || err.contains("invariant"),
                "{err}"
            );
        }
    }

    #[test]
    fn stale_plan_is_caught() {
        for case in 0..8 {
            merge_oracle_case(42, case, Some(Mutation::StaleMergePlan))
                .expect_err("planted stale plan must be caught");
        }
    }

    #[test]
    fn coalesce_off_by_one_is_caught() {
        for case in 0..16 {
            let err = coalesce_oracle_case(42, case, Some(Mutation::CoalesceOffByOne))
                .expect_err("planted exponent bug must be caught");
            assert!(err.contains("diverges"), "{err}");
        }
    }
}
