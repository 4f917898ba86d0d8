//! Measures the **telemetry self-overhead**: wall-clock time of the
//! HORSE pause/resume cycle with an enabled recorder vs a disabled one,
//! and — one layer up — with the continuous-profiling plane (counting
//! allocator attribution + timed locks + CAS retry counters) enabled on
//! top of the recorder. The recorder is designed to cost one branch
//! when disabled and a handful of relaxed atomics per event when
//! enabled; the profiling plane costs one relaxed load per hook when
//! disabled. Each layer's inflation of the mean cycle must stay below
//! 10 %.
//!
//! The consumer half is gated beside it: `Recorder::drain` of the stream
//! the enabled-recorder trials record may cost at most 3× the record
//! path per event, both measured in this process.
//!
//! The counting `#[global_allocator]` is installed in this binary so
//! the measured cycle pays the allocator hook on every heap operation —
//! exactly what production profiling runs pay.
//!
//! Run: `cargo run -p horse-bench --release --bin telemetry_overhead`

use horse_sched::SandboxId;
use horse_telemetry::{profiling, CountingAlloc, EventKind, Recorder, TelemetryConfig};
use horse_vmm::{PausePolicy, ResumeMode, SandboxConfig, Vmm};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CYCLES_PER_TRIAL: u32 = 2_000;
const TRIALS: u32 = 7;
const BUDGET: f64 = 0.10;
/// Events per record-path burst.
const BURST: u64 = 1 << 15;
/// Drain cost per event may be at most this multiple of record cost.
const DRAIN_BUDGET: f64 = 3.0;

fn setup(recorder: Option<Recorder>) -> (Vmm, SandboxId) {
    let mut vmm = Vmm::new(
        horse_bench::paper_sched_config(),
        horse_bench::Hypervisor::Firecracker.cost_model(),
    );
    if let Some(r) = recorder {
        vmm.set_recorder(r);
    }
    let cfg = SandboxConfig::builder()
        .vcpus(16)
        .memory_mb(512)
        .ull(true)
        .build()
        .expect("static config is valid");
    let id = vmm.create(cfg);
    vmm.start(id).expect("fresh sandbox starts");
    (vmm, id)
}

/// Wall-clock nanoseconds per pause/resume cycle over one trial.
fn trial_ns_per_cycle(vmm: &mut Vmm, id: SandboxId) -> f64 {
    let start = Instant::now();
    for _ in 0..CYCLES_PER_TRIAL {
        vmm.pause(id, PausePolicy::horse()).expect("pauses");
        vmm.resume(id, ResumeMode::Horse).expect("resumes");
    }
    start.elapsed().as_nanos() as f64 / f64::from(CYCLES_PER_TRIAL)
}

/// Same trial with the profiling plane live for exactly the timed
/// window.
fn trial_ns_per_cycle_profiled(vmm: &mut Vmm, id: SandboxId) -> f64 {
    profiling::set_enabled(true);
    let ns = trial_ns_per_cycle(vmm, id);
    profiling::set_enabled(false);
    ns
}

/// Wall-clock nanoseconds per event of recording a burst of instants,
/// the record path alone (`burst` is drained, untimed, afterwards).
fn record_ns_per_event(burst: &Recorder) -> f64 {
    let start = Instant::now();
    for i in 0..BURST {
        burst.instant(EventKind::LoadUpdate, 0, i);
    }
    let ns = start.elapsed().as_nanos() as f64 / BURST as f64;
    burst.drain();
    ns
}

/// Wall-clock nanoseconds per drained event of one `Recorder::drain`.
fn drain_ns_per_event(recorder: &Recorder) -> f64 {
    let start = Instant::now();
    let snapshot = recorder.drain();
    start.elapsed().as_nanos() as f64 / snapshot.events.len().max(1) as f64
}

/// Reports one layer's inflation; returns an error line instead of
/// asserting so every measurement prints before the process fails.
fn check(label: &str, base: f64, cost: f64) -> Option<String> {
    let overhead = cost / base - 1.0;
    println!(
        "{label}: {:>9.2} %  (budget {:.0} %)",
        overhead * 100.0,
        BUDGET * 100.0
    );
    (overhead >= BUDGET).then(|| {
        format!(
            "{label} inflates the HORSE cycle by {:.2} % (budget {:.0} %)",
            overhead * 100.0,
            BUDGET * 100.0
        )
    })
}

fn main() {
    profiling::set_enabled(false);
    let (mut off, off_id) = setup(None);
    let (mut on, on_id) = setup(Some(Recorder::enabled()));
    let (mut prof, prof_id) = setup(Some(Recorder::enabled()));
    let burst = Recorder::new(TelemetryConfig {
        shards: 1,
        capacity_per_shard: BURST as usize,
    });

    // Warm-up: fault in queues, caches and the ring before timing.
    trial_ns_per_cycle(&mut off, off_id);
    trial_ns_per_cycle(&mut on, on_id);
    trial_ns_per_cycle_profiled(&mut prof, prof_id);
    on.recorder().drain();
    prof.recorder().drain();
    record_ns_per_event(&burst);

    // Interleave trials so clock drift and frequency scaling hit all
    // sides equally; keep each side's best (least-noisy) trial.
    let mut best_off = f64::MAX;
    let mut best_on = f64::MAX;
    let mut best_prof = f64::MAX;
    let mut best_record = f64::MAX;
    let mut best_drain = f64::MAX;
    for _ in 0..TRIALS {
        best_off = best_off.min(trial_ns_per_cycle(&mut off, off_id));
        best_on = best_on.min(trial_ns_per_cycle(&mut on, on_id));
        best_prof = best_prof.min(trial_ns_per_cycle_profiled(&mut prof, prof_id));
        // Drain outside the cycle's timed window (ring overwrite is
        // lock-free either way), timed on its own against the record
        // path.
        best_drain = best_drain.min(drain_ns_per_event(on.recorder()));
        prof.recorder().drain();
        best_record = best_record.min(record_ns_per_event(&burst));
    }

    println!("disabled recorder:           {best_off:>10.1} ns/cycle");
    println!("enabled recorder:            {best_on:>10.1} ns/cycle");
    println!("recorder + profiling plane:  {best_prof:>10.1} ns/cycle");
    println!("record path:                 {best_record:>10.1} ns/event");
    println!("drain of the cycle stream:   {best_drain:>10.1} ns/event");
    let drain_ratio = best_drain / best_record;
    println!("drain / record:              {drain_ratio:>10.2} x  (budget {DRAIN_BUDGET:.0} x)");
    let failures: Vec<String> = [
        check("telemetry self-overhead ", best_off, best_on),
        check("profiling self-overhead ", best_on, best_prof),
        (drain_ratio > DRAIN_BUDGET).then(|| {
            format!(
                "Recorder::drain costs {drain_ratio:.2}x the record path per event (budget {DRAIN_BUDGET:.0}x)"
            )
        }),
    ]
    .into_iter()
    .flatten()
    .collect();

    // The profiled side must actually have been observed — a zero
    // profile would mean the budget above was measured against a dead
    // plane.
    let profiled_allocs: u64 = horse_telemetry::alloc::snapshot()
        .iter()
        .map(|s| s.allocs)
        .sum();
    let profiled_acquisitions: u64 = horse_telemetry::contention::snapshot()
        .iter()
        .map(|s| s.acquisitions)
        .sum();
    assert!(
        profiled_allocs > 0,
        "profiled trials recorded no allocations — the counting allocator is not installed"
    );
    println!(
        "profile captured: {profiled_allocs} allocs, {profiled_acquisitions} lock acquisitions"
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("PASS: telemetry and profiling self-overhead and the drain are within budget");
}
