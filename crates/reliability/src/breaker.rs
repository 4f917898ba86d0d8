//! Per-(function, host) circuit breakers.
//!
//! Each (function, host) pair gets an independent breaker with the
//! classic three-state machine:
//!
//! * **Closed** — traffic flows; outcomes land in a rolling window (a
//!   bitset of the last `window` results). Once the window holds at
//!   least `min_samples` outcomes and the failure rate crosses
//!   `failure_threshold`, the breaker trips **Open**.
//! * **Open** — the pair is skipped at routing. After `open_cooldown`
//!   ticks (ticks are the plane's submission counter — virtual time
//!   needs no wall clock) it relaxes to **HalfOpen**.
//! * **HalfOpen** — at most `half_open_probes` requests are admitted as
//!   probes. `close_after` consecutive successes close the breaker and
//!   clear the window; any probe failure re-opens it and restarts the
//!   cooldown.
//!
//! The registry keeps per-run transition tallies for the SLO report and
//! hands each transition back to the caller, which is where the
//! closed-vocabulary telemetry counters get bumped (this crate stays
//! independent of the telemetry recorder).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling-window size in outcomes (max 64 — the window is a u64
    /// bitset).
    pub window: u32,
    /// Outcomes required in the window before the failure rate is
    /// trusted.
    pub min_samples: u32,
    /// Failure rate (0–1] at which a closed breaker trips open.
    pub failure_threshold: f64,
    /// Ticks an open breaker waits before relaxing to half-open.
    pub open_cooldown: u64,
    /// Probe requests admitted while half-open.
    pub half_open_probes: u32,
    /// Consecutive probe successes that close a half-open breaker.
    pub close_after: u32,
    /// Test/negative-gate knob: breakers never leave Open. With every
    /// pair forced open, routing sheds everything — the SLO gate must
    /// fail, which is exactly what the CI negative self-test asserts.
    pub forced_open: bool,
}

impl Default for BreakerConfig {
    /// 32-outcome window, 8-sample floor, trip at 50 % failures, 64-tick
    /// cooldown, 2 probes, close after 2 successes.
    fn default() -> Self {
        Self {
            window: 32,
            min_samples: 8,
            failure_threshold: 0.5,
            open_cooldown: 64,
            half_open_probes: 2,
            close_after: 2,
            forced_open: false,
        }
    }
}

/// Breaker state, in trip order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the rolling window.
    Closed,
    /// The pair is quarantined; routing skips it.
    Open,
    /// A limited number of probes test whether the pair recovered.
    HalfOpen,
}

impl BreakerState {
    /// Export label.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Prometheus gauge encoding: 0 = closed, 1 = half-open, 2 = open.
    pub fn gauge_value(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A state transition the registry tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed (or half-open) → open.
    Opened,
    /// Open → half-open after cooldown.
    HalfOpened,
    /// Half-open → closed after consecutive probe successes.
    Closed,
}

/// The window and probe bookkeeping behind a breaker's state word.
#[derive(Debug, Default)]
struct Core {
    /// Rolling outcome bitset: bit i set = i-th most recent outcome
    /// failed.
    failures: u64,
    filled: u32,
    opened_at_tick: u64,
    probes_inflight: u32,
    probe_successes: u32,
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
}

/// State word of a pair no `allow`/`record` has touched yet: Closed,
/// but not listed by [`BreakerRegistry::states`] nor reset by
/// [`BreakerRegistry::on_host_join`] — what an absent map entry used to
/// mean.
const UNSEEN: u8 = 0;
const CLOSED: u8 = 1;
const OPEN: u8 = 2;
const HALF_OPEN: u8 = 3;

/// One (function, host) circuit breaker.
///
/// The state lives in one atomic word that is only ever *written*
/// under the `core` mutex (`Release`) — every transition and every
/// `record` still serializes there — but can be *read* without it
/// (`Acquire`): a Closed breaker, the steady state, answers
/// [`Self::allow`] with that single load. Such an answer linearizes at
/// the load: Closed-`allow` mutates nothing, so it is indistinguishable
/// from the locked decision taken at that instant, and a thread that
/// learned of a trip (through `record`'s return value or anything
/// ordered after it) can no longer load `CLOSED`.
#[derive(Debug, Default)]
pub struct Breaker {
    state: AtomicU8,
    core: Mutex<Core>,
}

impl Breaker {
    /// A fresh closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state (open breakers relax to half-open lazily inside
    /// [`Self::allow`], so this is the state as of the last decision).
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether `allow`/`record` ever touched this breaker.
    fn seen(&self) -> bool {
        self.state.load(Ordering::Acquire) != UNSEEN
    }

    /// Publishes a new state. Callers hold the `core` lock.
    fn set(&self, state: u8) {
        self.state.store(state, Ordering::Release);
    }

    /// The state as the holder of the `core` lock sees it, marking the
    /// breaker seen on first touch.
    fn locked_state(&self) -> BreakerState {
        if !self.seen() {
            self.set(CLOSED);
        }
        self.state()
    }

    fn trip_open(&self, core: &mut Core, tick: u64) {
        self.set(OPEN);
        core.opened_at_tick = tick;
        core.probes_inflight = 0;
        core.probe_successes = 0;
    }

    /// Asks whether a request may flow through this pair at `tick`.
    /// Open→half-open relaxation happens here; the returned transition
    /// (if any) is what the caller should tally.
    pub fn allow(&self, tick: u64, cfg: &BreakerConfig) -> (bool, Option<BreakerTransition>) {
        if !cfg.forced_open && self.state.load(Ordering::Acquire) == CLOSED {
            return (true, None);
        }
        let mut core = self.core.lock();
        let state = self.locked_state();
        if cfg.forced_open {
            if state != BreakerState::Open {
                self.trip_open(&mut core, tick);
                return (false, Some(BreakerTransition::Opened));
            }
            return (false, None);
        }
        match state {
            BreakerState::Closed => (true, None),
            BreakerState::Open => {
                if tick.saturating_sub(core.opened_at_tick) >= cfg.open_cooldown {
                    self.set(HALF_OPEN);
                    core.probes_inflight = 1;
                    core.probe_successes = 0;
                    (true, Some(BreakerTransition::HalfOpened))
                } else {
                    (false, None)
                }
            }
            BreakerState::HalfOpen => {
                if core.probes_inflight < cfg.half_open_probes {
                    core.probes_inflight += 1;
                    (true, None)
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Records one outcome at `tick`, returning the transition it caused
    /// (if any).
    pub fn record(&self, ok: bool, tick: u64, cfg: &BreakerConfig) -> Option<BreakerTransition> {
        let mut core = self.core.lock();
        let state = self.locked_state();
        if cfg.forced_open {
            return None;
        }
        match state {
            BreakerState::Closed => {
                core.push_outcome(ok, cfg);
                if core.filled >= cfg.min_samples.max(1)
                    && core.failure_rate() >= cfg.failure_threshold
                {
                    self.trip_open(&mut core, tick);
                    return Some(BreakerTransition::Opened);
                }
                None
            }
            BreakerState::HalfOpen => {
                core.probes_inflight = core.probes_inflight.saturating_sub(1);
                if ok {
                    core.probe_successes += 1;
                    if core.probe_successes >= cfg.close_after.max(1) {
                        self.set(CLOSED);
                        core.failures = 0;
                        core.filled = 0;
                        core.probe_successes = 0;
                        return Some(BreakerTransition::Closed);
                    }
                    None
                } else {
                    self.trip_open(&mut core, tick);
                    Some(BreakerTransition::Opened)
                }
            }
            // A straggler completing after the trip: ignored.
            BreakerState::Open => None,
        }
    }

    /// Forces the breaker to half-open (host re-admission after a
    /// join: earn trust through probes instead of getting full traffic).
    pub fn force_half_open(&self) {
        let mut core = self.core.lock();
        self.set(HALF_OPEN);
        core.failures = 0;
        core.filled = 0;
        core.probes_inflight = 0;
        core.probe_successes = 0;
    }
}

/// Registry of breakers for a fleet of `hosts` hosts: a dense
/// `[function × host]` table (one row per function, grown by
/// [`Self::add_function`]; ids are the row and column indices), plus
/// per-run transition tallies for the SLO report. A pair outside the
/// table — an unregistered function — has no breaker: it always admits
/// and records nothing.
#[derive(Debug)]
pub struct BreakerRegistry {
    hosts: usize,
    breakers: Vec<Breaker>,
    opened: AtomicU64,
    half_opened: AtomicU64,
    closed: AtomicU64,
}

impl BreakerRegistry {
    /// An empty registry (no functions yet) for `hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn new(hosts: usize) -> Self {
        assert!(hosts > 0, "a breaker table needs at least one host column");
        Self {
            hosts,
            breakers: Vec::new(),
            opened: AtomicU64::new(0),
            half_opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        }
    }

    /// Appends the row of the next function id: one untouched breaker
    /// per host.
    pub fn add_function(&mut self) {
        let len = self.breakers.len() + self.hosts;
        self.breakers.resize_with(len, Breaker::new);
    }

    fn breaker(&self, function: u64, host: usize) -> Option<&Breaker> {
        if host >= self.hosts {
            return None;
        }
        let row = usize::try_from(function).ok()?.checked_mul(self.hosts)?;
        self.breakers.get(row.checked_add(host)?)
    }

    fn tally(&self, transition: BreakerTransition) {
        match transition {
            BreakerTransition::Opened => self.opened.fetch_add(1, Ordering::Relaxed),
            BreakerTransition::HalfOpened => self.half_opened.fetch_add(1, Ordering::Relaxed),
            BreakerTransition::Closed => self.closed.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Whether a request for `function` may route to `host` at `tick`.
    /// The transition (if the ask caused one — forced-open trip or
    /// cooldown relaxation) is returned for the caller's telemetry.
    pub fn allow(
        &self,
        function: u64,
        host: usize,
        tick: u64,
        cfg: &BreakerConfig,
    ) -> (bool, Option<BreakerTransition>) {
        let Some(breaker) = self.breaker(function, host) else {
            return (true, None);
        };
        let (allowed, transition) = breaker.allow(tick, cfg);
        if let Some(t) = transition {
            self.tally(t);
        }
        (allowed, transition)
    }

    /// Records an attempt outcome for a (function, host) pair, returning
    /// the transition it caused for the caller's telemetry.
    pub fn record(
        &self,
        function: u64,
        host: usize,
        ok: bool,
        tick: u64,
        cfg: &BreakerConfig,
    ) -> Option<BreakerTransition> {
        let transition = self.breaker(function, host)?.record(ok, tick, cfg);
        if let Some(t) = transition {
            self.tally(t);
        }
        transition
    }

    /// Current state of a pair (Closed if never seen).
    pub fn state(&self, function: u64, host: usize) -> BreakerState {
        self.breaker(function, host)
            .map_or(BreakerState::Closed, Breaker::state)
    }

    /// A re-joining host must earn trust: every breaker targeting it
    /// that has seen traffic is reset to half-open so traffic returns
    /// via probes.
    pub fn on_host_join(&self, host: usize) {
        let column = self.breakers.iter().skip(host).step_by(self.hosts);
        for b in column.filter(|b| b.seen()) {
            b.force_half_open();
        }
    }

    /// Snapshot of the current state of every pair that has seen
    /// traffic, sorted by (function, host) so exposition order is
    /// deterministic.
    pub fn states(&self) -> Vec<((u64, usize), BreakerState)> {
        self.breakers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.seen())
            .map(|(i, b)| (((i / self.hosts) as u64, i % self.hosts), b.state()))
            .collect()
    }

    /// Transition tallies so far: (opened, half_opened, closed).
    pub fn transition_counts(&self) -> (u64, u64, u64) {
        (
            self.opened.load(Ordering::Relaxed),
            self.half_opened.load(Ordering::Relaxed),
            self.closed.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            open_cooldown: 10,
            half_open_probes: 2,
            close_after: 2,
            forced_open: false,
        }
    }

    #[test]
    fn trips_open_on_failure_rate_and_recovers_via_probes() {
        let b = Breaker::new();
        let cfg = cfg();
        // 3 failures in 4 samples trips at ≥50 %.
        assert_eq!(b.record(true, 0, &cfg), None);
        assert_eq!(b.record(false, 1, &cfg), None);
        assert_eq!(b.record(false, 2, &cfg), None);
        assert_eq!(b.record(false, 3, &cfg), Some(BreakerTransition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        // Before the cooldown elapses: blocked, no transition.
        assert_eq!(b.allow(5, &cfg), (false, None));
        // After cooldown: half-open, one probe admitted.
        assert_eq!(
            b.allow(13, &cfg),
            (true, Some(BreakerTransition::HalfOpened))
        );
        // Second probe admitted, third blocked (probe cap = 2).
        assert_eq!(b.allow(14, &cfg), (true, None));
        assert_eq!(b.allow(14, &cfg), (false, None));
        // Two consecutive successes close it.
        assert_eq!(b.record(true, 15, &cfg), None);
        assert_eq!(b.record(true, 16, &cfg), Some(BreakerTransition::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = Breaker::new();
        let cfg = cfg();
        for i in 0..4 {
            b.record(false, i, &cfg);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(20, &cfg).0, "half-open probe admitted");
        assert_eq!(b.record(false, 21, &cfg), Some(BreakerTransition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown restarted at tick 21.
        assert_eq!(b.allow(25, &cfg), (false, None));
        assert!(b.allow(31, &cfg).0);
    }

    #[test]
    fn full_64_outcome_window_trips_at_its_last_sample() {
        // The documented maximum: the window fills the whole u64 bitset,
        // so the 64th outcome is the first the floor trusts.
        let b = Breaker::new();
        let cfg = BreakerConfig {
            window: 64,
            min_samples: 64,
            ..cfg()
        };
        for tick in 0..63 {
            assert_eq!(b.record(false, tick, &cfg), None);
        }
        assert_eq!(b.record(false, 63, &cfg), Some(BreakerTransition::Opened));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn forced_open_never_allows() {
        let cfg = BreakerConfig {
            forced_open: true,
            ..cfg()
        };
        let b = Breaker::new();
        assert_eq!(b.allow(0, &cfg), (false, Some(BreakerTransition::Opened)));
        for tick in 1..1_000 {
            assert_eq!(b.allow(tick, &cfg), (false, None));
        }
        assert_eq!(b.record(true, 1_000, &cfg), None);
        assert_eq!(b.state(), BreakerState::Open);
    }

    /// A registry of `hosts` hosts with `functions` rows.
    fn registry(hosts: usize, functions: usize) -> BreakerRegistry {
        let mut reg = BreakerRegistry::new(hosts);
        for _ in 0..functions {
            reg.add_function();
        }
        reg
    }

    #[test]
    fn registry_tallies_and_resets_on_join() {
        let reg = registry(1, 3);
        let cfg = cfg();
        for i in 0..4 {
            reg.record(1, 0, false, i, &cfg);
        }
        assert_eq!(reg.state(1, 0), BreakerState::Open);
        assert!(!reg.allow(1, 0, 5, &cfg).0);
        assert!(reg.allow(2, 0, 5, &cfg).0, "other functions unaffected");
        let (opened, _, _) = reg.transition_counts();
        assert_eq!(opened, 1);
        // Join resets every breaker targeting host 0 to half-open.
        reg.on_host_join(0);
        assert_eq!(reg.state(1, 0), BreakerState::HalfOpen);
        assert!(reg.allow(1, 0, 6, &cfg).0, "probe admitted after join");
    }

    #[test]
    fn untouched_pairs_stay_unlisted_and_lazily_closed() {
        // The dense table holds every pair from registration on; only
        // pairs that saw an `allow` or a `record` may show up in
        // `states()` (the `horse_breaker_state` rows) or be put on
        // probation by a join — as when absent map entries meant
        // "never seen".
        let reg = registry(2, 2);
        let cfg = cfg();
        assert!(reg.states().is_empty(), "reads do not mark pairs seen");
        assert_eq!(reg.state(1, 1), BreakerState::Closed);
        assert!(reg.states().is_empty());
        assert_eq!(reg.allow(0, 1, 0, &cfg), (true, None));
        assert_eq!(reg.record(1, 0, true, 1, &cfg), None);
        assert_eq!(
            reg.states(),
            vec![
                ((0, 1), BreakerState::Closed),
                ((1, 0), BreakerState::Closed)
            ],
            "sorted by (function, host), seen pairs only"
        );
        // Host 1 rejoins: its one seen pair goes on probation, the
        // untouched (1, 1) stays lazily Closed and unlisted.
        reg.on_host_join(1);
        assert_eq!(reg.state(0, 1), BreakerState::HalfOpen);
        assert_eq!(reg.state(1, 1), BreakerState::Closed);
        assert_eq!(reg.state(1, 0), BreakerState::Closed, "other column");
        assert_eq!(reg.states().len(), 2);
        assert_eq!(reg.allow(1, 1, 2, &cfg), (true, None));
        assert_eq!(reg.states().len(), 3, "first touch lists the pair");
    }

    #[test]
    fn pairs_outside_the_table_admit_and_record_nothing() {
        let reg = registry(2, 1);
        let cfg = cfg();
        for tick in 0..20 {
            assert_eq!(reg.allow(5, 0, tick, &cfg), (true, None));
            assert_eq!(reg.record(5, 0, false, tick, &cfg), None);
            assert_eq!(reg.allow(0, 2, tick, &cfg), (true, None), "host column");
        }
        assert_eq!(reg.state(5, 0), BreakerState::Closed);
        assert_eq!(reg.state(u64::MAX, 1), BreakerState::Closed);
        assert!(reg.states().is_empty());
        assert_eq!(reg.transition_counts(), (0, 0, 0));
    }
}
