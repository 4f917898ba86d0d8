//! `wide_resume` — closed loop, one driver, `horse-vmm` directly: one
//! `Vmm` (one uLL queue, `CostModel::calibrated()`, **zero** wake
//! emulation) with `SplicePool::parallel(2)`, a 36-vCPU background
//! sandbox on even credits and a 36-vCPU measured sandbox on odd credits
//! (the maximum number of splice points). The loop is
//! `pause(HORSE policy)` → timed `resume(ResumeMode::Horse)`; op latency
//! is the `resume` call, throughput is full cycles per second.
//!
//! Why: the paper's O(1)-in-vCPUs claim at its widest evaluated size, on
//! the path ROADMAP item 2 targets (spawn-per-merge). Pause — the plan
//! precompute, the write side — moves only throughput; resume — the read
//! side — moves latency; so a gain for one that costs the other shows.
//!
//! The driver pins itself — and with it the splice threads each resume
//! spawns — to one CPU (see [`crate::affinity`]): unpinned, where the
//! scheduler puts those threads is a per-process coin flip that moves
//! the median between 42, 68 and 78 µs.
//!
//! If `SplicePool::parallel` is deleted (a valid ROADMAP item 2
//! outcome), a `benchmark` PR must repoint [`measured_pool`] at the
//! surviving pool.

use std::time::Instant;

use horse_metrics::Histogram;
use horse_sched::{SandboxId, SchedConfig};
use horse_vmm::{CostModel, PausePolicy, ResumeMode, SplicePool, Vmm};

use super::{fold, ull_config, Check, Measured, Workload, FINGERPRINT_SEED, ROOT_SPAN};
use crate::affinity::Pinned;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::window::Window;

/// vCPUs of both sandboxes — the widest size the paper evaluates.
pub const VCPUS: u32 = 36;
/// Warm-up cycles.
const WARMUP_CYCLES: u64 = 2_000;

/// The splice pool under measurement.
pub fn measured_pool() -> SplicePool {
    SplicePool::parallel(2)
}

/// The workload type.
pub struct WideResume;

/// One VMM with the two interleaved sandboxes.
pub struct State {
    /// The VMM.
    pub vmm: Vmm,
    /// The sandbox the loop pauses and resumes.
    pub measured: SandboxId,
}

/// Builds a VMM holding a `vcpus`-wide background sandbox on even
/// credits and a `vcpus`-wide running measured sandbox on odd credits,
/// so each resume splices one distinct point per vCPU into a populated
/// queue — the adversarial shape for 𝒫²𝒮ℳ and the fair one for vanilla.
pub fn interleaved_vmm(vcpus: u32, pool: SplicePool) -> State {
    let mut vmm = Vmm::new(SchedConfig::default(), CostModel::calibrated());
    vmm.set_splice_pool(pool);
    let background = vmm.create(ull_config(vcpus));
    let evens: Vec<i64> = (0..i64::from(vcpus)).map(|i| 2 * i + 2).collect();
    vmm.start_with_credits(background, &evens)
        .expect("fresh sandbox starts");
    let measured = vmm.create(ull_config(vcpus));
    let odds: Vec<i64> = (0..i64::from(vcpus)).map(|i| 2 * i + 1).collect();
    vmm.start_with_credits(measured, &odds)
        .expect("fresh sandbox starts");
    State { vmm, measured }
}

/// `(credit, owning sandbox)` of every vCPU on the uLL queue, in queue
/// order.
fn queue_order(vmm: &Vmm) -> Vec<(i64, u64)> {
    let sched = vmm.sched();
    let rq = sched.ull_queues()[0];
    sched
        .queue_list(rq)
        .iter(sched.arena())
        .map(|(_, credit, vcpu)| (credit, vcpu.sandbox.as_u64()))
        .collect()
}

impl Workload for WideResume {
    const NAME: &'static str = "wide_resume";
    const THREADS: usize = 1;
    type Input = ();
    type State = State;

    fn input(_seed: u64, _seconds: f64) {}

    fn setup(_seed: u64, _input: &()) -> (State, u64) {
        let _pinned = Pinned::nth_allowed_cpu(0);
        let mut state = interleaved_vmm(VCPUS, measured_pool());
        let mut fingerprint = FINGERPRINT_SEED;
        for _ in 0..WARMUP_CYCLES {
            let pause = state
                .vmm
                .pause(state.measured, PausePolicy::horse())
                .expect("running sandbox pauses");
            let resume = state
                .vmm
                .resume(state.measured, ResumeMode::Horse)
                .expect("paused sandbox resumes");
            fold(&mut fingerprint, pause.cost_ns);
            fold(&mut fingerprint, resume.breakdown.total_ns());
        }
        (state, fingerprint)
    }

    fn run(
        state: &mut State,
        _input: &(),
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Measured {
        let State { vmm, measured } = state;
        let pinned = Pinned::nth_allowed_cpu(0);
        let pool_before = vmm.splice_pool_stats();
        let mut window = Window::new(Instant::now(), seconds);
        let mut virt_init = Histogram::new();
        let (mut attempted, mut succeeded, mut failed) = (0u64, 0u64, 0u64);
        let mut degraded = 0u64;
        loop {
            let start = window.now_ns();
            if !window.open_at(start) {
                break;
            }
            attempted += 1;
            let paused = vmm.pause(*measured, PausePolicy::horse());
            let t0 = window.now_ns();
            let resumed = vmm.resume(*measured, ResumeMode::Horse);
            let t1 = window.now_ns();
            match (paused, resumed) {
                (Ok(_), Ok(outcome)) => {
                    succeeded += 1;
                    window.record(t1, t1 - t0, 1);
                    virt_init.record(outcome.breakdown.total_ns());
                    degraded += u64::from(outcome.degradation.any());
                }
                _ => failed += 1,
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.span("vmm.pause", start, t0, Some(ROOT_SPAN), attempted);
                tracer.span("vmm.resume", t0, t1, Some(ROOT_SPAN), attempted);
            }
        }

        // The spliced queue must hold exactly what the vanilla per-vCPU
        // sorted insert produces on the same queue. That is
        // `ResumeMode::Coal` — `ResumeMode::Vanilla` itself scatters a
        // sandbox over the general queues, so its uLL queue would hold
        // the background sandbox alone.
        let mut replay = interleaved_vmm(VCPUS, SplicePool::inline());
        let sorted_insert = PausePolicy {
            precompute_merge: false,
            precompute_coalesce: true,
        };
        replay
            .vmm
            .pause(replay.measured, sorted_insert)
            .expect("running sandbox pauses");
        replay
            .vmm
            .resume(replay.measured, ResumeMode::Coal)
            .expect("paused sandbox resumes");
        let pool = vmm.splice_pool_stats();
        let checks = vec![
            Check::eq(
                "successes == attempted - failed",
                succeeded,
                attempted - failed,
            ),
            Check::eq(
                "merged run-queue order == vanilla sorted-insert replay",
                queue_order(vmm),
                queue_order(&replay.vmm),
            ),
            Check::eq("degraded resumes == 0", degraded, 0),
            Check::eq(
                "every resume dispatched the parallel pool",
                pool.parallel_merges - pool_before.parallel_merges,
                succeeded,
            ),
        ];
        Measured {
            window,
            attempted,
            succeeded,
            virt_init,
            checks,
            extras: vec![
                Metric::new(
                    "vmm.splice_pool.wall_overruns",
                    (pool.wall_overruns - pool_before.wall_overruns) as f64,
                    "count",
                ),
                Metric::new(
                    "driver.pinned_cpu",
                    pinned.map_or(-1.0, |p| p.cpu as f64),
                    "cpu",
                ),
            ],
        }
    }
}
