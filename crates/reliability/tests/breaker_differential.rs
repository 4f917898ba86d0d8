//! Differential tests for the dense breaker table (ISSUE 14).
//!
//! `BreakerRegistry` used to be a lazily filled
//! `RwLock<HashMap<(function, host), Arc<Breaker>>>` whose every
//! decision ran under the breaker's mutex. It is now a dense
//! `[function × host]` table whose Closed pairs answer `allow` from one
//! atomic load and whose "never seen" pairs are a state-word value
//! instead of an absent key. [`reference`] keeps the old semantics —
//! map, lazy entries, every decision on the full state — as the oracle:
//! random `allow` / `record` / `on_host_join` sequences must produce
//! bit-identical decisions, transitions, tallies and `states()`
//! listings, and a lone [`Breaker`] must track the oracle's core
//! through `force_half_open` as well.

use horse_reliability::{Breaker, BreakerConfig, BreakerRegistry, BreakerState, BreakerTransition};
use proptest::prelude::*;

/// The map-based registry this PR replaced, minus its locks (the
/// sequences here are single-threaded).
mod reference {
    use super::{BreakerConfig, BreakerState, BreakerTransition};
    use std::collections::HashMap;

    #[derive(Debug)]
    pub struct Core {
        pub state: BreakerState,
        failures: u64,
        filled: u32,
        opened_at_tick: u64,
        probes_inflight: u32,
        probe_successes: u32,
    }

    impl Default for Core {
        fn default() -> Self {
            Self {
                state: BreakerState::Closed,
                failures: 0,
                filled: 0,
                opened_at_tick: 0,
                probes_inflight: 0,
                probe_successes: 0,
            }
        }
    }

    impl Core {
        fn window_mask(cfg: &BreakerConfig) -> u64 {
            let w = cfg.window.clamp(1, 64);
            if w == 64 {
                u64::MAX
            } else {
                (1u64 << w) - 1
            }
        }

        fn push_outcome(&mut self, ok: bool, cfg: &BreakerConfig) {
            self.failures = ((self.failures << 1) | u64::from(!ok)) & Self::window_mask(cfg);
            self.filled = (self.filled + 1).min(cfg.window.clamp(1, 64));
        }

        fn failure_rate(&self) -> f64 {
            if self.filled == 0 {
                return 0.0;
            }
            self.failures.count_ones() as f64 / f64::from(self.filled)
        }

        fn trip_open(&mut self, tick: u64) {
            self.state = BreakerState::Open;
            self.opened_at_tick = tick;
            self.probes_inflight = 0;
            self.probe_successes = 0;
        }

        pub fn allow(
            &mut self,
            tick: u64,
            cfg: &BreakerConfig,
        ) -> (bool, Option<BreakerTransition>) {
            if cfg.forced_open {
                if self.state != BreakerState::Open {
                    self.trip_open(tick);
                    return (false, Some(BreakerTransition::Opened));
                }
                return (false, None);
            }
            match self.state {
                BreakerState::Closed => (true, None),
                BreakerState::Open => {
                    if tick.saturating_sub(self.opened_at_tick) >= cfg.open_cooldown {
                        self.state = BreakerState::HalfOpen;
                        self.probes_inflight = 1;
                        self.probe_successes = 0;
                        (true, Some(BreakerTransition::HalfOpened))
                    } else {
                        (false, None)
                    }
                }
                BreakerState::HalfOpen => {
                    if self.probes_inflight < cfg.half_open_probes {
                        self.probes_inflight += 1;
                        (true, None)
                    } else {
                        (false, None)
                    }
                }
            }
        }

        pub fn record(
            &mut self,
            ok: bool,
            tick: u64,
            cfg: &BreakerConfig,
        ) -> Option<BreakerTransition> {
            if cfg.forced_open {
                return None;
            }
            match self.state {
                BreakerState::Closed => {
                    self.push_outcome(ok, cfg);
                    if self.filled >= cfg.min_samples.max(1)
                        && self.failure_rate() >= cfg.failure_threshold
                    {
                        self.trip_open(tick);
                        return Some(BreakerTransition::Opened);
                    }
                    None
                }
                BreakerState::HalfOpen => {
                    self.probes_inflight = self.probes_inflight.saturating_sub(1);
                    if ok {
                        self.probe_successes += 1;
                        if self.probe_successes >= cfg.close_after.max(1) {
                            self.state = BreakerState::Closed;
                            self.failures = 0;
                            self.filled = 0;
                            self.probe_successes = 0;
                            return Some(BreakerTransition::Closed);
                        }
                        None
                    } else {
                        self.trip_open(tick);
                        Some(BreakerTransition::Opened)
                    }
                }
                BreakerState::Open => None,
            }
        }

        pub fn force_half_open(&mut self) {
            self.state = BreakerState::HalfOpen;
            self.failures = 0;
            self.filled = 0;
            self.probes_inflight = 0;
            self.probe_successes = 0;
        }
    }

    #[derive(Debug, Default)]
    pub struct Registry {
        breakers: HashMap<(u64, usize), Core>,
        tallies: (u64, u64, u64),
    }

    impl Registry {
        fn tally(&mut self, transition: Option<BreakerTransition>) {
            match transition {
                Some(BreakerTransition::Opened) => self.tallies.0 += 1,
                Some(BreakerTransition::HalfOpened) => self.tallies.1 += 1,
                Some(BreakerTransition::Closed) => self.tallies.2 += 1,
                None => {}
            }
        }

        pub fn allow(
            &mut self,
            function: u64,
            host: usize,
            tick: u64,
            cfg: &BreakerConfig,
        ) -> (bool, Option<BreakerTransition>) {
            let decision = self
                .breakers
                .entry((function, host))
                .or_default()
                .allow(tick, cfg);
            self.tally(decision.1);
            decision
        }

        pub fn record(
            &mut self,
            function: u64,
            host: usize,
            ok: bool,
            tick: u64,
            cfg: &BreakerConfig,
        ) -> Option<BreakerTransition> {
            let transition = self
                .breakers
                .entry((function, host))
                .or_default()
                .record(ok, tick, cfg);
            self.tally(transition);
            transition
        }

        pub fn state(&self, function: u64, host: usize) -> BreakerState {
            self.breakers
                .get(&(function, host))
                .map_or(BreakerState::Closed, |b| b.state)
        }

        pub fn on_host_join(&mut self, host: usize) {
            for ((_, h), b) in self.breakers.iter_mut() {
                if *h == host {
                    b.force_half_open();
                }
            }
        }

        pub fn states(&self) -> Vec<((u64, usize), BreakerState)> {
            let mut states: Vec<_> = self.breakers.iter().map(|(&k, b)| (k, b.state)).collect();
            states.sort_by_key(|&(key, _)| key);
            states
        }

        pub fn transition_counts(&self) -> (u64, u64, u64) {
            self.tallies
        }
    }
}

const FUNCTIONS: u64 = 3;
const HOSTS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Allow {
        function: u64,
        host: usize,
    },
    Record {
        function: u64,
        host: usize,
        ok: bool,
    },
    /// `BreakerRegistry::on_host_join` / `Breaker::force_half_open`.
    Join {
        host: usize,
    },
}

/// One step: how far the tick axis advances, then the operation.
fn arb_step() -> impl Strategy<Value = (u64, Op)> {
    let pair = || (0..FUNCTIONS, 0..HOSTS);
    let op = prop_oneof![
        pair().prop_map(|(function, host)| Op::Allow { function, host }),
        pair().prop_map(|(function, host)| Op::Allow { function, host }),
        (pair(), any::<bool>()).prop_map(|((function, host), ok)| Op::Record {
            function,
            host,
            ok
        }),
        // Failure-heavy: breakers have to trip for the interesting
        // states to be reached at all.
        pair().prop_map(|(function, host)| Op::Record {
            function,
            host,
            ok: false
        }),
        pair().prop_map(|(function, host)| Op::Record {
            function,
            host,
            ok: false
        }),
        (0..HOSTS).prop_map(|host| Op::Join { host }),
    ];
    (0u64..=6, op)
}

/// Small windows and cooldowns so a few hundred steps cycle every pair
/// through Closed → Open → HalfOpen → Closed/Open several times.
fn arb_cfg() -> impl Strategy<Value = BreakerConfig> {
    (1u32..=8, 1u32..=4, 1u64..=12, 1u32..=3, 1u32..=3, 0u32..=9).prop_map(
        |(window, min_samples, open_cooldown, half_open_probes, close_after, forced)| {
            BreakerConfig {
                window,
                min_samples,
                failure_threshold: 0.5,
                open_cooldown,
                half_open_probes,
                close_after,
                // One config in ten runs the negative-gate knob.
                forced_open: forced == 0,
            }
        },
    )
}

fn fresh_registry() -> BreakerRegistry {
    let mut dense = BreakerRegistry::new(HOSTS);
    for _ in 0..FUNCTIONS {
        dense.add_function();
    }
    dense
}

proptest! {
    /// The dense registry is observationally the map-based one.
    #[test]
    fn dense_registry_matches_the_map_based_reference(
        cfg in arb_cfg(),
        steps in proptest::collection::vec(arb_step(), 1..400),
    ) {
        let dense = fresh_registry();
        let mut oracle = reference::Registry::default();
        let mut tick = 0u64;
        for (i, (dt, op)) in steps.into_iter().enumerate() {
            tick += dt;
            match op {
                Op::Allow { function, host } => prop_assert_eq!(
                    dense.allow(function, host, tick, &cfg),
                    oracle.allow(function, host, tick, &cfg),
                    "step {} allow({}, {}) at tick {}", i, function, host, tick
                ),
                Op::Record { function, host, ok } => prop_assert_eq!(
                    dense.record(function, host, ok, tick, &cfg),
                    oracle.record(function, host, ok, tick, &cfg),
                    "step {} record({}, {}, {}) at tick {}", i, function, host, ok, tick
                ),
                Op::Join { host } => {
                    dense.on_host_join(host);
                    oracle.on_host_join(host);
                }
            }
            prop_assert_eq!(dense.states(), oracle.states(), "step {}", i);
            prop_assert_eq!(dense.transition_counts(), oracle.transition_counts(), "step {}", i);
            for function in 0..FUNCTIONS {
                for host in 0..HOSTS {
                    prop_assert_eq!(
                        dense.state(function, host),
                        oracle.state(function, host),
                        "step {} pair ({}, {})", i, function, host
                    );
                }
            }
        }
    }

    /// A lone breaker — fast path, state word and all — tracks the
    /// oracle's fully locked core, `force_half_open` included.
    #[test]
    fn a_breaker_matches_the_reference_core(
        cfg in arb_cfg(),
        steps in proptest::collection::vec(arb_step(), 1..400),
    ) {
        let breaker = Breaker::new();
        let mut oracle = reference::Core::default();
        let mut tick = 0u64;
        for (i, (dt, op)) in steps.into_iter().enumerate() {
            tick += dt;
            match op {
                Op::Allow { .. } => prop_assert_eq!(
                    breaker.allow(tick, &cfg),
                    oracle.allow(tick, &cfg),
                    "step {} allow at tick {}", i, tick
                ),
                Op::Record { ok, .. } => prop_assert_eq!(
                    breaker.record(ok, tick, &cfg),
                    oracle.record(ok, tick, &cfg),
                    "step {} record({}) at tick {}", i, ok, tick
                ),
                Op::Join { .. } => {
                    breaker.force_half_open();
                    oracle.force_half_open();
                }
            }
            prop_assert_eq!(breaker.state(), oracle.state, "step {}", i);
        }
    }
}
