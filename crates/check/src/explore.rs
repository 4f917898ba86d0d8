//! Seeded deterministic interleaving exploration of the sharded pool.
//!
//! Each virtual worker is a real OS thread (so the pool's per-thread
//! shard pinning behaves exactly as in production), but workers only
//! run when the [`stepped`] driver grants them a step,
//! one operation at a time, under a seeded [`SchedulePolicy`].
//!
//! Operations execute atomically (one completes before the next is
//! granted), so the observed execution order *is* a linearization; the
//! oracle replays it against the relaxed
//! [`SpecPool`] semantics and
//! additionally checks end-of-run conservation. Any violation is
//! reported with the seed, the policy, and the full decision sequence —
//! enough to replay the failing interleaving exactly.

use crate::spec::SpecPool;
use crate::stepped::{self, Exploration, SchedulePolicy, Worker};
use horse_faas::{KeepAlive, ShardedWarmPool};
use horse_sched::SandboxId;
use horse_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted worker operation.
#[derive(Debug, Clone, Copy)]
enum ScriptOp {
    /// Take a sandbox (held on success).
    Take,
    /// Put back the most recently taken held sandbox, or park a fresh
    /// worker-unique one if none is held.
    Put,
    /// Run an eager eviction sweep.
    Evict,
}

/// What one granted step did (the explorer's replay log entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEffect {
    /// `take(now)` returned this.
    Took(Option<SandboxId>),
    /// `put(id, now)` parked this id.
    Put(SandboxId),
    /// An eviction sweep removed these ids (sorted).
    Evicted(Vec<u64>),
}

/// One executed step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Worker index granted the step.
    pub thread: usize,
    /// Virtual time the operation ran at.
    pub now: SimTime,
    /// What the scripted operation did.
    pub effect: StepEffect,
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Number of virtual workers (OS threads).
    pub threads: usize,
    /// Script length per worker.
    pub ops_per_thread: usize,
    /// Keep-alive TTL in virtual-time steps (1 µs each); `None` for a
    /// provisioned pool.
    pub ttl_steps: Option<u64>,
    /// Entries pre-pooled before workers start.
    pub initial_entries: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 12,
            ttl_steps: Some(24),
            initial_entries: 6,
        }
    }
}

/// Step duration in virtual nanoseconds (1 µs per granted step).
const STEP_NS: u64 = 1_000;

fn step_time(step: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(step * STEP_NS)
}

/// Generates each worker's op script from the seed: a take-heavy mix
/// with occasional puts-of-fresh entries and rare eviction sweeps.
fn generate_scripts(cfg: &ExploreConfig, seed: u64) -> Vec<Vec<ScriptOp>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5c72_1a2e_9d3f_4b60);
    (0..cfg.threads)
        .map(|_| {
            (0..cfg.ops_per_thread)
                .map(|_| match rng.gen_range(0..10u32) {
                    0..=4 => ScriptOp::Take,
                    5..=8 => ScriptOp::Put,
                    _ => ScriptOp::Evict,
                })
                .collect()
        })
        .collect()
}

/// Runs one seeded exploration of a [`ShardedWarmPool`] and validates
/// it against the sequential spec. The returned [`Exploration`] carries
/// the full decision sequence; `violation` is `None` on success.
pub fn explore(cfg: &ExploreConfig, policy: SchedulePolicy, seed: u64) -> Exploration<StepRecord> {
    let keep_alive = match cfg.ttl_steps {
        Some(steps) => KeepAlive::Ttl(SimDuration::from_nanos(steps * STEP_NS)),
        None => KeepAlive::Provisioned,
    };
    let pool = ShardedWarmPool::new(keep_alive);
    let mut all_ids: Vec<u64> = Vec::new();
    for i in 0..cfg.initial_entries {
        let id = 900_000_000 + i;
        pool.put(SandboxId::new(id), step_time(0));
        all_ids.push(id);
    }

    let scripts = generate_scripts(cfg, seed);
    let budgets: Vec<usize> = scripts.iter().map(Vec::len).collect();
    let total_steps: usize = budgets.iter().sum();

    // Sandboxes each worker still holds when its script ends.
    let mut held: Vec<Vec<SandboxId>> = vec![Vec::new(); cfg.threads];
    let workers = scripts
        .iter()
        .zip(&mut held)
        .enumerate()
        .map(|(thread, (script, held))| {
            let pool = &pool;
            let mut ops = script.iter().copied();
            let mut fresh = 0u64;
            Box::new(move |now: SimTime| {
                let effect = match ops.next().expect("one step per scripted op") {
                    ScriptOp::Take => {
                        let got = pool.take(now);
                        held.extend(got);
                        StepEffect::Took(got)
                    }
                    ScriptOp::Put => {
                        let id = held.pop().unwrap_or_else(|| {
                            fresh += 1;
                            SandboxId::new((thread as u64 + 1) * 1_000_000 + fresh)
                        });
                        pool.put(id, now);
                        StepEffect::Put(id)
                    }
                    ScriptOp::Evict => {
                        let mut buf = Vec::new();
                        pool.evict_expired_into(now, &mut buf);
                        let mut ids: Vec<u64> = buf.iter().map(|id| id.as_u64()).collect();
                        ids.sort_unstable();
                        StepEffect::Evicted(ids)
                    }
                };
                StepRecord {
                    thread,
                    now,
                    effect,
                }
            }) as Worker<'_, SimTime, StepRecord>
        })
        .collect();
    let mut run = stepped::run_threaded(policy, seed, &budgets, workers, |step| {
        step_time(step as u64 + 1)
    });

    let held_at_end: Vec<u64> = held.iter().flatten().map(|id| id.as_u64()).collect();
    run.violation = run.violation.or_else(|| {
        validate(
            &pool,
            keep_alive,
            &run.steps,
            &mut all_ids,
            &held_at_end,
            total_steps,
        )
    });
    run
}

/// Replays the execution order against [`SpecPool`]'s relaxed (set
/// semantics) interface and checks conservation. Returns a description
/// of the first violation.
///
/// `take` evicts expired entries *lazily* (an entry it passes over on the
/// way to a hit is doomed, so a later sweep legitimately misses it), so
/// the spec keeps an expired entry until a sweep reports it and the
/// oracle never predicts a sweep's exact contents:
///
/// * a take may only return a **live** (pooled, non-expired) entry;
/// * a take may only miss when **no live entry exists**;
/// * a sweep may only evict **expired pooled** entries (never a live one,
///   never one twice);
/// * at the end, every id ever pooled is accounted for exactly once
///   (held ∪ drained ∪ doomed ∪ swept).
fn validate(
    pool: &ShardedWarmPool,
    keep_alive: KeepAlive,
    steps: &[StepRecord],
    all_ids: &mut Vec<u64>,
    held_at_end: &[u64],
    total_steps: usize,
) -> Option<String> {
    let mut spec = SpecPool::new(keep_alive);
    for &id in all_ids.iter() {
        spec.put(SandboxId::new(id), step_time(0));
    }
    for (i, rec) in steps.iter().enumerate() {
        let (t, now) = (rec.thread, rec.now);
        let at = now.as_nanos();
        match &rec.effect {
            StepEffect::Took(Some(id)) => {
                if !spec.can_take(*id, now) {
                    return Some(format!(
                        "step {i} (thread {t}): take returned id {id} which is not \
                         pooled-and-live at now={at}ns"
                    ));
                }
                spec.commit_take(*id, now);
            }
            StepEffect::Took(None) => {
                if !spec.can_miss(now) {
                    return Some(format!(
                        "step {i} (thread {t}): take missed while a live entry was pooled at \
                         now={at}ns (lost sandbox); spec holds (id, since) {:?}",
                        spec.fingerprint()
                    ));
                }
            }
            StepEffect::Put(id) => {
                spec.put(*id, now);
                if !all_ids.contains(&id.as_u64()) {
                    all_ids.push(id.as_u64());
                }
            }
            StepEffect::Evicted(ids) => {
                for &evicted in ids {
                    let id = SandboxId::new(evicted);
                    if spec.can_take(id, now) || !spec.remove(id) {
                        return Some(format!(
                            "step {i} (thread {t}): eviction sweep removed id {evicted} \
                             which was not an expired pooled entry at now={at}ns"
                        ));
                    }
                }
            }
        }
    }

    // Conservation: initial + fresh = held + pooled + doomed.
    let end_now = step_time(total_steps as u64 + 1);
    let mut accounted: Vec<u64> = held_at_end.to_vec();
    // Evict-sweep results were already removed from the pool; drain the
    // remainder (takes may lazily doom expired entries).
    while let Some(id) = pool.take(end_now) {
        accounted.push(id.as_u64());
    }
    accounted.extend(pool.drain_doomed().iter().map(|id| id.as_u64()));
    // Ids evicted by sweeps are gone for good — count them from the log.
    for rec in steps {
        if let StepEffect::Evicted(ids) = &rec.effect {
            accounted.extend(ids);
        }
    }
    let mut expected = all_ids.clone();
    expected.sort_unstable();
    accounted.sort_unstable();
    if accounted != expected {
        return Some(format!(
            "conservation violated: expected ids {expected:?}, accounted {accounted:?}"
        ));
    }
    if !pool.is_empty() {
        return Some(format!("pool reports len {} after full drain", pool.len()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::testing::assert_clean;

    #[test]
    fn all_policies_pass_on_the_real_pool_and_replay() {
        let cfg = ExploreConfig::default();
        assert_clean(
            &[1, 42, 1337],
            |policy, seed| explore(&cfg, policy, seed),
            |r| assert_eq!(r.decisions.len(), cfg.threads * cfg.ops_per_thread),
        );
    }

    #[test]
    fn different_seeds_differ_for_random_policies() {
        let cfg = ExploreConfig::default();
        let a = explore(&cfg, SchedulePolicy::Random, 1);
        let b = explore(&cfg, SchedulePolicy::Random, 2);
        assert_ne!(a.decisions, b.decisions, "seeds must steer the schedule");
    }

    #[test]
    fn provisioned_exploration_never_evicts() {
        let cfg = ExploreConfig {
            ttl_steps: None,
            ..ExploreConfig::default()
        };
        let r = explore(&cfg, SchedulePolicy::Random, 99);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r
            .steps
            .iter()
            .all(|s| !matches!(&s.effect, StepEffect::Evicted(ids) if !ids.is_empty())));
    }
}
