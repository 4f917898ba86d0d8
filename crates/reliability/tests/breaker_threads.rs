//! Real-thread test of the breakers' lock-free Closed fast path
//! (ISSUE 14): `allow` on a Closed pair is one atomic load, so nothing
//! but the state word's `Release`/`Acquire` pairing stands between a
//! trip on one thread and a stale "allowed" on another.

use horse_reliability::{BreakerConfig, BreakerRegistry, BreakerState, BreakerTransition};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const THREADS: usize = 4;
const FUNCTIONS: u64 = 6;
const ROUNDS: u64 = 2_000;
/// The failing host (column 0) and the healthy one.
const SICK: usize = 0;
const HEALTHY: usize = 1;

/// N threads hammer `allow`/`record` against a host that fails every
/// attempt. Once a thread knows a pair tripped — its own `record`
/// returned `Opened`, or it read the flag the tripping thread raised
/// afterwards — no later `allow` on that pair may return `true` (the
/// cooldown never elapses here). The tallies must match the end state:
/// every sick pair opened exactly once and nothing closed.
#[test]
fn no_allow_after_an_observed_trip() {
    let cfg = BreakerConfig {
        open_cooldown: u64::MAX,
        ..BreakerConfig::default()
    };
    let mut registry = BreakerRegistry::new(2);
    for _ in 0..FUNCTIONS {
        registry.add_function();
    }
    let tripped: Vec<AtomicBool> = (0..FUNCTIONS).map(|_| AtomicBool::new(false)).collect();
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let (registry, tripped, start, cfg) = (&registry, &tripped, &start, &cfg);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let function = (round + t) % FUNCTIONS;
                    let tick = round * THREADS as u64 + t;
                    // Read the flag *before* asking: only a trip known
                    // by then constrains the answer.
                    let knew = tripped[function as usize].load(Ordering::Acquire);
                    let (allowed, transition) = registry.allow(function, SICK, tick, cfg);
                    assert_eq!(transition, None, "the cooldown never elapses");
                    assert!(
                        !(knew && allowed),
                        "thread {t} round {round}: fn{function} admitted after its trip was observed"
                    );
                    if allowed
                        && registry.record(function, SICK, false, tick, cfg)
                            == Some(BreakerTransition::Opened)
                    {
                        assert!(!registry.allow(function, SICK, tick, cfg).0);
                        tripped[function as usize].store(true, Ordering::Release);
                    }
                    // The healthy column keeps answering from the fast
                    // path throughout.
                    assert_eq!(registry.allow(function, HEALTHY, tick, cfg), (true, None));
                    assert_eq!(registry.record(function, HEALTHY, true, tick, cfg), None);
                }
            });
        }
    });
    let (opened, half_opened, closed) = registry.transition_counts();
    let open_pairs = registry
        .states()
        .iter()
        .filter(|(_, state)| *state == BreakerState::Open)
        .count() as u64;
    assert_eq!(open_pairs, FUNCTIONS, "every sick pair tripped");
    assert_eq!(opened - closed, open_pairs, "tallies match the end state");
    assert_eq!((half_opened, closed), (0, 0));
    for function in 0..FUNCTIONS {
        assert_eq!(registry.state(function, SICK), BreakerState::Open);
        assert_eq!(registry.state(function, HEALTHY), BreakerState::Closed);
    }
}
