//! `reliab_open` — **open loop**, one thread that is both generator and
//! drainer. A seeded schedule of due times (see [`crate::schedule`]:
//! Poisson background at 125 k/s + one 128-request burst every 1.024 ms,
//! mean 250 k/s ≈ 45 % of closed-loop capacity) is generated before the
//! clock starts. The loop spins to the next due time, pushes every
//! overdue request (≤ 32 — the admission controller's inflight cap) onto
//! a `SubmissionRing`, calls `Cluster::submit_ring`, and stamps each
//! `Disposition` at batch return. Latency runs from **due time**, so a
//! stall is charged to every request it delays.
//!
//! 90 % `RequestClass::Ull` `Horse` 2-vCPU with a 100 µs virtual
//! deadline, 10 % `Background` `Warm` 1-vCPU `Cat2` with 50 ms.
//!
//! Why: the same ring and invoke core used differently — through
//! admission, breakers, deadlines, hedge profiles and the `Warm`
//! (vanilla-resume) path — under arrivals that do not wait for the
//! server, so queueing that closed loops hide is visible.

use std::time::Instant;

use horse_faas::{
    Cluster, DispatchPolicy, Disposition, FunctionId, PlatformConfig, Request, StartStrategy,
    SubmissionRing,
};
use horse_metrics::Histogram;
use horse_reliability::{ReliabilityConfig, RequestClass, StatsSnapshot};
use horse_workloads::Category;

use super::{
    fold, pool_checks, pool_hits, ull_config, vanilla_config, Check, Measured, Workload,
    FINGERPRINT_SEED, ROOT_SPAN,
};
use crate::report::Metric;
use crate::schedule::Schedule;
use crate::stats::interp_percentile;
use crate::trace::Tracer;
use crate::window::Window;

/// Hosts in the fleet.
pub const HOSTS: usize = 8;
/// Provisioned sandboxes per host and function.
pub const PER_HOST: usize = 4;
/// Most requests pushed per `submit_ring` call: `submit_batch` holds the
/// whole batch's admission slots, and the default controller has 32.
pub const MAX_BATCH: usize = 32;
/// Virtual deadline of `Ull` requests.
const ULL_DEADLINE_NS: u64 = 100_000;
/// Virtual deadline of `Background` requests.
const BACKGROUND_DEADLINE_NS: u64 = 50_000_000;
/// Warm-up requests (closed loop, full batches), enough to arm the
/// hedge profiles (256 samples per function).
const WARMUP_REQUESTS: usize = 64_000;
/// A generator running later than this (p99, outside backlog) makes the
/// run invalid: the schedule, not the driver, must set arrival times.
pub const GEN_LAG_LIMIT_NS: f64 = 10_000.0;

/// The workload type.
pub struct ReliabOpen;

/// Fleet state.
pub struct State {
    /// The fleet, reliability plane installed.
    pub cluster: Cluster,
    /// `Ull` / `Horse` function.
    pub ull: FunctionId,
    /// `Background` / `Warm` function.
    pub background: FunctionId,
}

impl State {
    fn request(&self, background: bool) -> Request {
        if background {
            Request {
                function: self.background,
                strategy: StartStrategy::Warm,
                class: RequestClass::Background,
                deadline_ns: Some(BACKGROUND_DEADLINE_NS),
            }
        } else {
            Request {
                function: self.ull,
                strategy: StartStrategy::Horse,
                class: RequestClass::Ull,
                deadline_ns: Some(ULL_DEADLINE_NS),
            }
        }
    }

    fn pools(&self) -> [(FunctionId, StartStrategy, usize); 2] {
        [
            (self.ull, StartStrategy::Horse, HOSTS * PER_HOST),
            (self.background, StartStrategy::Warm, HOSTS * PER_HOST),
        ]
    }
}

/// Numbers of the open loop beyond the end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopStats {
    /// p99 of (push time − due time) over requests that came due while
    /// the driver was idle — how late the generator itself ran.
    pub gen_lag_p99_ns: f64,
    /// Largest number of overdue, not yet pushed requests.
    pub backlog_max: u64,
    /// Mean backlog per `submit_ring` call in the first fifth of the
    /// window.
    pub backlog_first: f64,
    /// Mean backlog per `submit_ring` call in the last fifth.
    pub backlog_last: f64,
    /// `RingFull` hand-backs the driver saw.
    pub ring_full: u64,
    /// Reliability tallies of the window alone.
    pub delta: StatsSnapshot,
}

impl OpenLoopStats {
    /// Whether the backlog was still growing when the window closed:
    /// the last fifth's mean backlog well above the first fifth's. (A
    /// stable queue reads the same in both — every burst legitimately
    /// queues ~128 requests; an unstable one grows without limit. Means,
    /// not peaks: one host stall makes a peak.)
    pub fn backlog_growing(&self) -> bool {
        self.backlog_last > 2.0 * self.backlog_first + MAX_BATCH as f64
    }

    /// The validity rule of the open loop.
    pub fn valid(&self) -> bool {
        self.gen_lag_p99_ns <= GEN_LAG_LIMIT_NS && !self.backlog_growing()
    }
}

fn minus(after: StatsSnapshot, before: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        submissions: after.submissions - before.submissions,
        completions: after.completions - before.completions,
        sheds: after.sheds - before.sheds,
        deadline_misses: after.deadline_misses - before.deadline_misses,
        failures: after.failures - before.failures,
        retries: after.retries - before.retries,
        hedges_launched: after.hedges_launched - before.hedges_launched,
        hedge_wins: after.hedge_wins - before.hedge_wins,
        deadline_met: after.deadline_met - before.deadline_met,
    }
}

/// Mean of a running `(sum, count)`.
fn mean((sum, count): (u64, u64)) -> f64 {
    sum as f64 / count.max(1) as f64
}

/// Drives the whole schedule through `Cluster::submit_ring`. Shared
/// with the layer probes' rate steps.
pub fn drive(
    state: &State,
    schedule: &Schedule,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Measured, OpenLoopStats) {
    let cluster = &state.cluster;
    let pools = state.pools();
    let hits_before = pool_hits(cluster, &pools);
    let before = cluster.reliability_snapshot();
    let ring = SubmissionRing::with_capacity(2 * MAX_BATCH);
    let n = schedule.len();
    let mut virt_init = Histogram::new();
    let mut lag = Histogram::new();
    let (mut succeeded, mut failed, mut ring_full) = (0u64, 0u64, 0u64);
    let mut backlog_max = 0u64;
    let (mut backlog_first, mut backlog_last) = ((0u64, 0u64), (0u64, 0u64));
    let mut next = 0usize; // first arrival not yet pushed
    let mut overdue = 0usize; // first arrival not yet due
    let mut prev_done = 0u64;

    let mut window = Window::new(Instant::now(), seconds);
    let fifth = window.len_ns / 5;
    while next < n {
        let now = window.now_ns();
        let due = schedule.due_ns(next);
        if due > now {
            std::hint::spin_loop();
            continue;
        }
        if prev_done <= due {
            // The driver was idle when this request came due: whatever
            // separates `now` from `due` is the generator's own lateness.
            lag.record(now - due);
        }
        let first = next;
        while next < n && next - first < MAX_BATCH && schedule.due_ns(next) <= now {
            if ring
                .push(state.request(schedule.get(next).background))
                .is_err()
            {
                ring_full += 1;
                break;
            }
            next += 1;
        }
        overdue = overdue.max(next);
        while overdue < n && schedule.due_ns(overdue) <= now {
            overdue += 1;
        }
        let backlog = (overdue - next) as u64;
        backlog_max = backlog_max.max(backlog);
        if now < fifth {
            backlog_first = (backlog_first.0 + backlog, backlog_first.1 + 1);
        } else if now >= window.len_ns - fifth {
            backlog_last = (backlog_last.0 + backlog, backlog_last.1 + 1);
        }

        let dispositions = cluster.submit_ring(&ring);
        let done = window.now_ns();
        for (i, disposition) in dispositions.iter().enumerate() {
            match disposition {
                Disposition::Completed { record, .. } => {
                    succeeded += 1;
                    window.record(done, done - schedule.due_ns(first + i), 1);
                    virt_init.record(record.init_ns);
                }
                // Shed, DeadlineExceeded and Failed all count as failed
                // and as missing any latency limit.
                _ => failed += 1,
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.span(
                "faas.cluster.submit_ring",
                now,
                done,
                Some(ROOT_SPAN),
                first as u64,
            );
        }
        prev_done = done;
    }

    let delta = minus(cluster.reliability_snapshot(), before);
    let stats = OpenLoopStats {
        gen_lag_p99_ns: interp_percentile(&lag, 99.0),
        backlog_max,
        backlog_first: mean(backlog_first),
        backlog_last: mean(backlog_last),
        ring_full,
        delta,
    };
    let attempted = n as u64;
    let mut checks = vec![
        Check::eq(
            "successes == attempted - failed",
            succeeded,
            attempted - failed,
        ),
        Check::eq(
            "submissions == completions + sheds + deadline_misses + failures",
            delta.submissions,
            delta.completions + delta.sheds + delta.deadline_misses + delta.failures,
        ),
        Check::eq(
            "submissions == scheduled arrivals",
            delta.submissions,
            attempted,
        ),
        Check::eq("completions == successes", delta.completions, succeeded),
    ];
    // Every completion took one sandbox; so did every launched hedge.
    pool_checks(
        cluster,
        &pools,
        hits_before,
        delta.completions + delta.hedges_launched,
        &mut checks,
    );
    let measured = Measured {
        window,
        attempted,
        succeeded,
        virt_init,
        checks,
        extras: vec![
            Metric::new("driver.gen_lag_p99_ns", stats.gen_lag_p99_ns, "ns"),
            Metric::new("driver.backlog_max", backlog_max as f64, "count"),
            Metric::new(
                "reliability.hedges_launched",
                delta.hedges_launched as f64,
                "count",
            ),
        ],
    };
    (measured, stats)
}

impl Workload for ReliabOpen {
    const NAME: &'static str = "reliab_open";
    const THREADS: usize = 1;
    type Input = Schedule;
    type State = State;

    fn input(seed: u64, seconds: f64) -> Schedule {
        Schedule::generate(seed, (seconds * 1e9) as u64, 1.0)
    }

    fn setup(seed: u64, schedule: &Schedule) -> (State, u64) {
        let mut cluster = Cluster::with_config(
            HOSTS,
            DispatchPolicy::RoundRobin,
            seed,
            PlatformConfig::default(),
        );
        cluster.set_reliability(ReliabilityConfig::with_seed(seed));
        let ull = cluster.register("filter", Category::Cat3, ull_config(2));
        let background = cluster.register("nat", Category::Cat2, vanilla_config(1));
        for (f, strategy) in [
            (ull, StartStrategy::Horse),
            (background, StartStrategy::Warm),
        ] {
            cluster
                .provision_all(f, PER_HOST, strategy)
                .expect("provisioning a fresh fleet succeeds");
        }
        let state = State {
            cluster,
            ull,
            background,
        };

        // Warm-up: the schedule's own class sequence, closed loop.
        let ring = SubmissionRing::with_capacity(2 * MAX_BATCH);
        let mut fingerprint = FINGERPRINT_SEED;
        for batch in 0..WARMUP_REQUESTS / MAX_BATCH {
            for k in 0..MAX_BATCH {
                let arrival = schedule.get((batch * MAX_BATCH + k) % schedule.len());
                ring.push(state.request(arrival.background))
                    .expect("warm-up batch fits the ring");
            }
            for d in state.cluster.submit_ring(&ring) {
                match d {
                    Disposition::Completed {
                        record, latency_ns, ..
                    } => {
                        fold(&mut fingerprint, record.init_ns);
                        fold(&mut fingerprint, latency_ns);
                    }
                    other => panic!("warm-up request not completed: {other:?}"),
                }
            }
        }
        (state, fingerprint)
    }

    fn run(
        state: &mut State,
        schedule: &Schedule,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Measured {
        let (mut measured, stats) = drive(state, schedule, seconds, tracer);
        measured.checks.push(Check {
            name: "open loop valid (generator lag p99 <= 10 us, backlog not growing)",
            ok: stats.valid(),
            detail: format!(
                "lag p99 {:.0} ns, mean backlog first/last fifth {:.1}/{:.1}",
                stats.gen_lag_p99_ns, stats.backlog_first, stats.backlog_last
            ),
        });
        measured
    }
}
