//! A day in the life of a FaaS host: a cold start, warm keep-alive hits,
//! a TTL eviction, a provisioned HORSE start and a snapshot restore —
//! every start path of the reproduction in one narrative run.
//!
//! Run with: `cargo run --example faas_day_in_life`

use horse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- the host comes up ---
    let mut platform = FaasPlatform::new(PlatformConfig::default());
    let ull_cfg = SandboxConfig::builder().vcpus(2).ull(true).build()?;
    let nat = platform.register("nat", Category::Cat2, ull_cfg);

    // First request of the day: a cold start (1.5 s), leaving a warm
    // sandbox behind.
    let cold = platform.invoke(nat, StartStrategy::Cold)?;
    println!("08:00 cold start: init {} ms", cold.init_ns / 1_000_000);

    // Steady morning traffic: warm hits.
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(60));
    for _ in 0..5 {
        platform.invoke(nat, StartStrategy::Warm)?;
    }
    let s = platform.pool_stats(nat, StartStrategy::Warm);
    println!(
        "08:01 five warm starts: {} hits, {} misses",
        s.hits, s.misses
    );

    // Lunch lull: the keep-alive TTL (10 min) expires the pool.
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(60 + 700));
    let s = platform.pool_stats(nat, StartStrategy::Warm);
    println!(
        "12:00 after the lull: {} eviction(s), pool is cold again",
        s.evictions
    );

    // The operator upgrades the function to provisioned concurrency with
    // HORSE's fast path — no more keep-alive tax.
    platform.provision(nat, 2, StartStrategy::Horse)?;
    platform.advance_to(SimTime::ZERO + SimDuration::from_secs(60 + 7_000));
    let fast = platform.invoke(nat, StartStrategy::Horse)?;
    println!(
        "14:00 provisioned HORSE start after 1.75 h idle: init {} ns ({}x faster than warm)",
        fast.init_ns,
        (WARM_INIT_REFERENCE_NS / fast.init_ns).max(1)
    );

    // Evening: snapshot the warm sandbox for tomorrow's fleet bootstrap.
    let mut vmm = Vmm::with_defaults();
    let proto = vmm.create(SandboxConfig::builder().vcpus(2).ull(true).build()?);
    vmm.start(proto)?;
    vmm.pause(proto, PausePolicy::vanilla())?;
    let snapshot = vmm.snapshot(proto)?;
    let model = RestoreModel::default();
    let (clone, restore_ns) = vmm.restore_snapshot(&snapshot, &model);
    vmm.resume(clone, ResumeMode::Vanilla)?;
    println!(
        "22:00 snapshot taken ({} MB on disk); test-restore took {} µs",
        snapshot.size_bytes(&model) / (1024 * 1024),
        restore_ns / 1_000
    );
    println!("\na full day, every start path exercised.");
    Ok(())
}

/// Reference warm-start init (Table 1: ≈1.1 µs) for the speedup line.
const WARM_INIT_REFERENCE_NS: u64 = 1_100;
