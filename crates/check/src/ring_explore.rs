//! Seeded deterministic interleaving exploration of the
//! [`SubmissionRing`] — the MPSC ring feeding the batched invoke path.
//!
//! Same [`stepped`](crate::stepped) driver as [`crate::explore`]: each
//! producer (and the single consumer) is a real OS thread that only runs
//! when it is granted a step, and which worker steps next is decided by a
//! seeded [`SchedulePolicy`]. Operations execute atomically — one `push`
//! or `pop` completes before the next is granted — so the observed order
//! *is* a linearization, and the oracle can replay it against a plain
//! FIFO queue:
//!
//! * a `push` may fail (`RingFull`) **only** when the queue holds
//!   exactly `capacity` requests;
//! * a `pop` must return **exactly the queue front** — MPSC claim order
//!   is FIFO, and under atomic steps claim order is the step order;
//! * a `pop` may return `None` **only** on an empty queue;
//! * at the end, drained + popped = pushed — nothing lost, nothing
//!   duplicated — and each producer's requests come out in its own push
//!   order (FIFO per producer, implied by the front-match but asserted
//!   separately because it is the property the batch path leans on).
//!
//! Every request carries a unique `(producer, index)` tag in its
//! deadline field, so loss, duplication and reordering are all
//! distinguishable. Violations report the seed, policy and decision
//! sequence needed to replay the interleaving exactly.

use crate::stepped::{self, Exploration, SchedulePolicy, Worker};
use horse_faas::{FunctionRegistry, Request, StartStrategy, SubmissionRing};
use horse_reliability::RequestClass;
use horse_vmm::SandboxConfig;
use horse_workloads::Category;
use std::collections::VecDeque;

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct RingExploreConfig {
    /// Number of producer workers (OS threads); one consumer is added.
    pub producers: usize,
    /// Push attempts per producer.
    pub pushes_per_producer: usize,
    /// Ring capacity (rounded up to a power of two by the ring). Keep
    /// it smaller than the total pushes so full-ring rejections and
    /// wraparound are actually explored.
    pub capacity: usize,
    /// Extra consumer steps beyond the total push count, so empty-ring
    /// `pop` misses are explored too.
    pub pop_slack: usize,
}

impl Default for RingExploreConfig {
    fn default() -> Self {
        Self {
            producers: 3,
            pushes_per_producer: 16,
            capacity: 8,
            pop_slack: 6,
        }
    }
}

/// What one granted step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingStepEffect {
    /// `push` accepted the request with this tag.
    Pushed(u64),
    /// `push` was rejected full and handed the request (tag) back.
    Full(u64),
    /// `pop` returned a request with this tag, or `None` on empty.
    Popped(Option<u64>),
}

/// One executed step.
#[derive(Debug, Clone, Copy)]
pub struct RingStepRecord {
    /// Worker index granted the step (`producers` = the consumer).
    pub thread: usize,
    /// Its observed effect.
    pub effect: RingStepEffect,
}

/// Tag layout: `producer * TAG_STRIDE + index`, stored in the request
/// deadline so it round-trips through the ring's encoded slot words.
const TAG_STRIDE: u64 = 1_000_000;

fn tagged_request(f: horse_faas::FunctionId, producer: usize, index: usize) -> Request {
    Request {
        function: f,
        strategy: StartStrategy::Horse,
        class: RequestClass::Ull,
        deadline_ns: Some(producer as u64 * TAG_STRIDE + index as u64),
    }
}

/// Runs one seeded exploration of a [`SubmissionRing`] with
/// `cfg.producers` producers and one consumer, validating the observed
/// linearization against a FIFO queue. `violation` is `None` on
/// success.
pub fn explore_ring(
    cfg: &RingExploreConfig,
    policy: SchedulePolicy,
    seed: u64,
) -> Exploration<RingStepRecord> {
    let capacity = cfg.capacity.next_power_of_two().max(2);
    let ring = SubmissionRing::with_capacity(capacity);
    let mut registry = FunctionRegistry::new();
    let f = registry.register("filter", Category::Cat3, SandboxConfig::default());

    // A producer is runnable while it has push attempts left; the
    // consumer (last index) while it has pop steps left.
    let total_pushes = cfg.producers * cfg.pushes_per_producer;
    let mut budgets = vec![cfg.pushes_per_producer; cfg.producers];
    budgets.push(total_pushes + cfg.pop_slack);

    let workers = (0..budgets.len())
        .map(|thread| {
            let ring = &ring;
            let is_consumer = thread == cfg.producers;
            // A rejected push keeps its request; the next granted step
            // retries it, so producer scripts are *attempts*.
            let mut next_index = 0usize;
            let mut retry: Option<Request> = None;
            Box::new(move |()| {
                let effect = if is_consumer {
                    RingStepEffect::Popped(ring.pop().map(|r| r.deadline_ns.expect("tagged")))
                } else {
                    let req = retry.take().unwrap_or_else(|| {
                        let r = tagged_request(f, thread, next_index);
                        next_index += 1;
                        r
                    });
                    let tag = req.deadline_ns.expect("tagged");
                    match ring.push(req) {
                        Ok(_) => RingStepEffect::Pushed(tag),
                        Err(horse_faas::RingFull(back)) => {
                            retry = Some(back);
                            RingStepEffect::Full(tag)
                        }
                    }
                };
                RingStepRecord { thread, effect }
            }) as Worker<'_, (), RingStepRecord>
        })
        .collect();
    let mut run = stepped::run_threaded(policy, seed, &budgets, workers, |_| ());

    // Final drain: whatever the consumer's slack didn't reach.
    let mut leftover = Vec::new();
    ring.drain_into(&mut leftover);
    let drained: Vec<u64> = leftover
        .iter()
        .map(|r| r.deadline_ns.expect("tagged"))
        .collect();

    run.violation = run
        .violation
        .or_else(|| validate(cfg, capacity, &run.steps, &drained));
    run
}

/// Replays the linearization against a plain FIFO queue and checks
/// end-of-run conservation plus per-producer FIFO.
fn validate(
    cfg: &RingExploreConfig,
    capacity: usize,
    steps: &[RingStepRecord],
    drained: &[u64],
) -> Option<String> {
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut pushed: Vec<u64> = Vec::new();
    let mut out: Vec<u64> = Vec::new();
    for (i, rec) in steps.iter().enumerate() {
        match rec.effect {
            RingStepEffect::Pushed(tag) => {
                if queue.len() >= capacity {
                    return Some(format!(
                        "step {i} (thread {t}): push of tag {tag} succeeded on a full ring \
                         (spec depth {d}, capacity {capacity})",
                        t = rec.thread,
                        d = queue.len(),
                    ));
                }
                queue.push_back(tag);
                pushed.push(tag);
            }
            RingStepEffect::Full(tag) => {
                if queue.len() < capacity {
                    return Some(format!(
                        "step {i} (thread {t}): push of tag {tag} rejected full with only \
                         {d} of {capacity} slots used (lost capacity)",
                        t = rec.thread,
                        d = queue.len(),
                    ));
                }
            }
            RingStepEffect::Popped(Some(tag)) => match queue.pop_front() {
                Some(front) if front == tag => out.push(tag),
                Some(front) => {
                    return Some(format!(
                        "step {i}: pop returned tag {tag} but the FIFO front was {front} \
                         (reordered)"
                    ));
                }
                None => {
                    return Some(format!(
                        "step {i}: pop returned tag {tag} from an empty ring (duplicated \
                         or fabricated)"
                    ));
                }
            },
            RingStepEffect::Popped(None) => {
                if let Some(&front) = queue.front() {
                    return Some(format!(
                        "step {i}: pop missed while tag {front} was enqueued (lost request)"
                    ));
                }
            }
        }
    }

    // Conservation: popped ++ drained must equal pushed, in FIFO order.
    for (j, &tag) in drained.iter().enumerate() {
        match queue.pop_front() {
            Some(front) if front == tag => out.push(tag),
            Some(front) => {
                return Some(format!(
                    "final drain slot {j}: got tag {tag}, FIFO front was {front}"
                ));
            }
            None => {
                return Some(format!(
                    "final drain slot {j}: got tag {tag} beyond everything pushed"
                ));
            }
        }
    }
    if let Some(&front) = queue.front() {
        return Some(format!("tag {front} was pushed but never came out (lost)"));
    }
    if out.len() != pushed.len() {
        return Some(format!(
            "conservation violated: {} pushed, {} came out",
            pushed.len(),
            out.len()
        ));
    }

    // FIFO per producer: each producer's tags come out in index order.
    for p in 0..cfg.producers as u64 {
        let mut last: Option<u64> = None;
        for &tag in out.iter().filter(|&&t| t / TAG_STRIDE == p) {
            if let Some(prev) = last {
                if tag <= prev {
                    return Some(format!(
                        "producer {p}: tag {tag} came out after {prev} (per-producer \
                         FIFO violated)"
                    ));
                }
            }
            last = Some(tag);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::testing::assert_clean;
    use proptest::prelude::*;

    #[test]
    fn all_policies_pass_on_the_real_ring_and_replay() {
        let cfg = RingExploreConfig::default();
        assert_clean(
            &[1, 42, 1337],
            |policy, seed| explore_ring(&cfg, policy, seed),
            |_| {},
        );
    }

    #[test]
    fn tight_ring_actually_explores_full_rejections() {
        // Capacity 2 against 3×16 pushes: if no push ever bounced, the
        // full-ring oracle arm is vacuous.
        let cfg = RingExploreConfig {
            capacity: 2,
            ..RingExploreConfig::default()
        };
        let r = explore_ring(&cfg, SchedulePolicy::RoundRobin, 42);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(
            r.steps
                .iter()
                .any(|s| matches!(s.effect, RingStepEffect::Full(_))),
            "no full-ring rejection explored"
        );
        assert!(
            r.steps
                .iter()
                .any(|s| matches!(s.effect, RingStepEffect::Popped(None))),
            "no empty-ring miss explored"
        );
    }

    proptest! {
        /// Property: under any seeded schedule, producer count, script
        /// length and (tiny) capacity, the ring loses nothing,
        /// duplicates nothing, and preserves FIFO per producer.
        #[test]
        fn ring_conserves_under_random_schedules(
            seed in any::<u64>(),
            producers in 1usize..4,
            pushes in 1usize..24,
            capacity in 1usize..16,
            pop_slack in 0usize..8,
            depth in 1usize..4,
        ) {
            let cfg = RingExploreConfig { producers, pushes_per_producer: pushes, capacity, pop_slack };
            for policy in [SchedulePolicy::Random, SchedulePolicy::Pct { depth }] {
                let r = explore_ring(&cfg, policy, seed);
                prop_assert!(
                    r.violation.is_none(),
                    "policy {} seed {}: {:?}\ndecisions: {:?}",
                    policy, seed, r.violation, r.decisions
                );
            }
        }
    }
}
