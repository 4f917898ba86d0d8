//! Regression test for the `HotScratch` sharing discipline: recycled
//! hot-path buffers are **per host**, so two `Vmm` hosts resuming
//! concurrently on different OS threads must never hand each other a
//! recycled buffer — and the parallel splice workers inside one host must
//! never share scratch either (each worker owns one explicit
//! `SplicePool` slot).
//!
//! The assertion works through the telemetry recycle counters
//! ([`horse_telemetry::alloc::note_buffer_recycled`]): a warm
//! pause/resume cycle recycles a fixed, deterministic number of buffers
//! per host. If a host ever stole a buffer from (or leaked one to) the
//! other host's pools, its cycle would either miss a recycle (pool
//! unexpectedly empty → fresh allocation) or recycle twice — so with two
//! hosts cycling concurrently, the global recycle total equals exactly
//! twice the measured single-host total if and only if each host's
//! recycle loop stayed closed over its own pools.
//!
//! Everything lives in a single `#[test]` because the profiling plane's
//! counters are process-global.

use horse_telemetry::{alloc, profiling};
use horse_vmm::{PausePolicy, ResumeMode, SandboxConfig, SplicePool, Vmm};

const VCPUS: u32 = 4;
const CYCLES: usize = 50;

fn total_recycles() -> u64 {
    alloc::snapshot().iter().map(|s| s.recycles).sum()
}

/// A host with a background sandbox occupying the single uLL queue on
/// even credits and a measured sandbox on odd credits, so every resume
/// of the measured sandbox executes one distinct splice point per vCPU
/// on the host's parallel splice pool — real worker threads inside each
/// host, real host threads around them.
fn warm_host() -> (Vmm, horse_sched::SandboxId) {
    let mut vmm = Vmm::with_defaults();
    vmm.set_splice_pool(SplicePool::parallel(4));

    let background = vmm.create(
        SandboxConfig::builder()
            .vcpus(VCPUS)
            .ull(true)
            .build()
            .unwrap(),
    );
    let evens: Vec<i64> = (0..i64::from(VCPUS)).map(|i| 2 * i + 2).collect();
    vmm.start_with_credits(background, &evens).unwrap();

    let measured = vmm.create(
        SandboxConfig::builder()
            .vcpus(VCPUS)
            .ull(true)
            .build()
            .unwrap(),
    );
    let odds: Vec<i64> = (0..i64::from(VCPUS)).map(|i| 2 * i + 1).collect();
    vmm.start_with_credits(measured, &odds).unwrap();

    // One warm-up cycle fills every pool, so subsequent cycles recycle a
    // deterministic number of buffers.
    vmm.pause(measured, PausePolicy::horse()).unwrap();
    vmm.resume(measured, ResumeMode::Horse).unwrap();
    (vmm, measured)
}

fn run_cycles(vmm: &mut Vmm, id: horse_sched::SandboxId, cycles: usize) {
    for _ in 0..cycles {
        vmm.pause(id, PausePolicy::horse()).unwrap();
        let outcome = vmm.resume(id, ResumeMode::Horse).unwrap();
        let merge = outcome.merge.expect("horse resume splices");
        assert_eq!(
            merge.merged, VCPUS as usize,
            "every cycle must merge the full vCPU set"
        );
        assert!(!outcome.degradation.plan_fallback, "clean path expected");
    }
}

#[test]
fn concurrent_hosts_never_alias_recycled_buffers() {
    profiling::set_enabled(true);

    // Baseline: one host cycling alone. Warm-up happens inside
    // `warm_host`, so the measured window is pure steady state.
    let (mut solo, solo_id) = warm_host();
    alloc::reset();
    run_cycles(&mut solo, solo_id, CYCLES);
    let per_host = total_recycles();
    assert!(
        per_host > 0,
        "warm cycles must recycle buffers, or the zero-alloc loop is broken"
    );
    assert_eq!(
        per_host % CYCLES as u64,
        0,
        "steady-state recycles must be deterministic per cycle"
    );

    // Two fresh hosts cycling concurrently on their own OS threads.
    let (mut host_a, id_a) = warm_host();
    let (mut host_b, id_b) = warm_host();
    alloc::reset();
    std::thread::scope(|scope| {
        scope.spawn(|| run_cycles(&mut host_a, id_a, CYCLES));
        scope.spawn(|| run_cycles(&mut host_b, id_b, CYCLES));
    });
    let both = total_recycles();
    profiling::set_enabled(false);

    assert_eq!(
        both,
        2 * per_host,
        "two concurrent hosts must recycle exactly twice the single-host \
         total: anything else means a buffer crossed hosts (missed or \
         double recycle)"
    );

    // Both hosts' parallel pools dispatched real workers every cycle and
    // none of the dispatches tripped the wall-budget watchdog into the
    // straggler vocabulary by construction (the budget is 5 ms).
    for (host, label) in [(&host_a, "host_a"), (&host_b, "host_b")] {
        let stats = host.splice_pool_stats();
        // warm-up + CYCLES steady-state merges.
        assert_eq!(stats.merges, CYCLES as u64 + 1, "{label}");
        assert_eq!(stats.dispatched_workers, 4 * (CYCLES as u64 + 1), "{label}");
    }
}
