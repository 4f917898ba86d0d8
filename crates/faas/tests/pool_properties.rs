//! Model-based property tests for the warm pool and the uLL scaler.

use horse_faas::{KeepAlive, ShardedWarmPool, UllScaler, UllScalerConfig};
use horse_sched::SandboxId;
use horse_sim::{SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum PoolOp {
    Put(u64),
    Take,
    AdvanceAndEvict(u64),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u64..64).prop_map(PoolOp::Put),
        Just(PoolOp::Take),
        (1u64..400).prop_map(PoolOp::AdvanceAndEvict),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The pool, driven from one thread, against a vector model: same
    /// contents, same hits/misses, same evictions under arbitrary
    /// operation sequences (up to 60 entries, so the slab's overflow
    /// deque is exercised too).
    #[test]
    fn pool_matches_reference_model(ops in proptest::collection::vec(pool_op(), 0..60)) {
        let ttl = SimDuration::from_secs(120);
        let pool = ShardedWarmPool::new(KeepAlive::Ttl(ttl));
        // Model: (id, last_used) in insertion order.
        let mut model: Vec<(u64, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);

        for op in ops {
            match op {
                PoolOp::Put(id) => {
                    pool.put(SandboxId::new(id), now);
                    model.push((id, now));
                }
                PoolOp::Take => match (pool.take(now), model.pop()) {
                    (Some(got), Some((want, _))) => {
                        hits += 1;
                        prop_assert_eq!(got, SandboxId::new(want), "LIFO order");
                    }
                    (None, None) => misses += 1,
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "divergence: pool {got:?} vs model {want:?}"
                        )))
                    }
                },
                PoolOp::AdvanceAndEvict(secs) => {
                    now += SimDuration::from_secs(secs);
                    let expired = pool.evict_expired(now);
                    let mut expected: Vec<u64> = model
                        .iter()
                        .take_while(|(_, since)| now.since(*since) > ttl)
                        .map(|(id, _)| *id)
                        .collect();
                    // The sweep walks slab and overflow in its own order.
                    let mut got: Vec<u64> = expired.iter().map(|s| s.as_u64()).collect();
                    got.sort_unstable();
                    let evicted = expected.len();
                    expected.sort_unstable();
                    prop_assert_eq!(&got, &expected, "eviction set");
                    evictions += evicted as u64;
                    model.drain(..evicted);
                }
            }
            prop_assert_eq!(pool.len(), model.len());
        }
        let s = pool.stats();
        prop_assert_eq!((s.hits, s.misses, s.evictions), (hits, misses, evictions));
    }

    /// The scaler's rate always equals the count of in-window triggers
    /// divided by the window, and the recommendation is its ceiling ratio
    /// clamped to bounds.
    #[test]
    fn scaler_matches_oracle(
        gaps_ms in proptest::collection::vec(1u64..2_000, 0..80),
        check_after_ms in 0u64..5_000,
    ) {
        let window = SimDuration::from_secs(2);
        let per_queue = 5.0;
        let mut scaler = UllScaler::new(UllScalerConfig {
            window,
            triggers_per_sec_per_queue: per_queue,
            min_queues: 1,
            max_queues: 6,
        });
        let mut t = SimTime::ZERO;
        let mut times = Vec::new();
        for g in gaps_ms {
            t += SimDuration::from_millis(g);
            scaler.observe_trigger(t);
            times.push(t);
        }
        let now = t + SimDuration::from_millis(check_after_ms);
        let in_window = times
            .iter()
            .filter(|&&x| now.since(x) <= window)
            .count();
        let expected_rate = in_window as f64 / window.as_secs_f64();
        prop_assert!((scaler.rate(now) - expected_rate).abs() < 1e-9);
        let expected_queues =
            ((expected_rate / per_queue).ceil() as usize).clamp(1, 6);
        prop_assert_eq!(scaler.recommended_queues(now), expected_queues);
    }
}
